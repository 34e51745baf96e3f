"""Every JSON record a command reads is refused, with exit code 2, unless each field has its type.

The records are the `phantom` config, `manifest.json` and each of its
subject entries, a corrected directory's `run_info.json` and a QC report.
A refused record leaves one `error:` line, no traceback and no output.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcfc.cli import main

from .conftest import TINY_CFG, write_config


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A tiny cohort, its `concat` correction and the QC report of that correction."""
    root = tmp_path_factory.mktemp("chain")
    cohort, corrected, report = root / "cohort", root / "corrected", root / "qc.json"
    config = write_config(root / "c.json")
    assert main(["phantom", "--config", str(config), "--out", str(cohort)]) == 0
    manifest = ["--manifest", str(cohort / "manifest.json")]
    assert main(["correct", *manifest, "--pipeline", "concat", "--out", str(corrected)]) == 0
    assert main(["qc", *manifest, "--corrected", str(corrected), "--report", str(report)]) == 0
    return cohort, corrected, report


def run_on_record(chain, record: str, obj, work: Path) -> tuple[int, str, Path]:
    """Run the command that reads `record`, written as the JSON value `obj`, in directory `work`.

    Returns the exit code, stderr, and the output path the command would
    have written.
    """
    cohort, corrected, _ = chain
    if record == "config":
        path, out = work / "config.json", work / "cohort"
        argv = ["phantom", "--config", str(path), "--out", str(out)]
    elif record == "manifest":
        # Beside the cohort's files, so that an accepted manifest would run.
        shutil.copytree(cohort, work / "cohort")
        path, out = work / "cohort" / "manifest.json", work / "corrected"
        argv = ["correct", "--manifest", str(path), "--pipeline", "concat", "--out", str(out)]
    elif record == "run_info":
        shutil.copytree(corrected, work / "corrected")
        path, out = work / "corrected" / "run_info.json", work / "qc.json"
        argv = ["qc", "--manifest", str(cohort / "manifest.json"), "--corrected",
                str(path.parent), "--report", str(out)]
    else:
        path, out = work / "qc.json", work / "comparison.csv"
        argv = ["report", str(path), "--csv", str(out)]
    path.write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue(), out


def record_json(chain, record: str):
    """The JSON object of a valid `record` as the chain wrote it."""
    if record == "config":
        return json.loads(json.dumps(TINY_CFG))
    cohort, corrected, report = chain
    paths = {"manifest": cohort / "manifest.json", "run_info": corrected / "run_info.json"}
    return json.loads(paths.get(record, report).read_text())


def set_at(obj, path: tuple, value) -> None:
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# The JSON kinds of value each annotation accepts; a number field takes an integer too.
ACCEPTS = {
    "int": {"int"},
    "number": {"int", "float"},
    "string": {"string"},
    "list": {"list"},
    "object": {"object"},
}
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "string": st.text(max_size=6),
    "list": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}
# Each field of each record, by its path in the record's JSON, and its kind.
FIELDS = [
    *(("config", (name,), "int")
      for name in ("n_subjects", "n_rois", "n_timepoints", "n_aroma_components", "seed")),
    *(("config", (name,), "number")
      for name in ("artifact_gain", "artifact_length_scale", "aroma_hmp_mixing")),
    ("config", ("motion_amplitude_range",), "list"),
    ("config", ("motion_amplitude_range", 1), "number"),
    ("manifest", ("parcellation_path",), "string"),
    ("manifest", ("subjects",), "list"),
    ("manifest", ("subjects", 0), "object"),
    *(("manifest", ("subjects", 1, name), "string")
      for name in ("subject_id", "ts", "motion", "aroma", "physio")),
    ("run_info", ("pipeline",), "string"),
    ("run_info", ("n_subjects",), "int"),
    ("report", ("pipeline",), "string"),
    *(("report", (name,), "int") for name in ("n_subjects", "n_edges", "undefined_edge_count")),
    *(("report", (name,), "number")
      for name in ("median_abs_qcfc", "dist_dependence_rho", "dist_dependence_p")),
    ("report", ("histogram",), "list"),
    ("report", ("histogram", 2), "list"),
    ("report", ("histogram", 2, 0), "number"),
    ("report", ("histogram", 2, 1), "int"),
]


@st.composite
def mistyped_fields(draw):
    """A record, a field's path in it, and a JSON value of a kind that field does not accept."""
    record, path, kind = draw(st.sampled_from(FIELDS))
    wrong = draw(st.sampled_from(sorted(set(JSON_VALUES) - ACCEPTS[kind])))
    return record, path, draw(JSON_VALUES[wrong])


@settings(max_examples=300, deadline=None)
@given(case=mistyped_fields())
def test_a_mistyped_field_exits_2(chain, case):
    record, path, value = case
    obj = record_json(chain, record)
    set_at(obj, path, value)
    with tempfile.TemporaryDirectory() as work:
        rc, err, out = run_on_record(chain, record, obj, Path(work))
        assert rc == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "record, path",
    [
        ("manifest", ("bogus",)),
        ("manifest", ("subjects", 0, "bogus")),
        ("run_info", ("bogus",)),
        ("report", ("bogus",)),
    ],
    ids=["manifest", "subject-entry", "run_info", "report"],
)
def test_an_unknown_field_exits_2(chain, tmp_path, record, path):
    obj = record_json(chain, record)
    set_at(obj, path, 1)
    rc, err, out = run_on_record(chain, record, obj, tmp_path)
    assert rc == 2
    assert len(err.splitlines()) == 1 and "unknown field 'bogus'" in err
    assert not out.exists()


@pytest.mark.parametrize("sid", [True, 7, 1.0], ids=["true", "int", "float"])
def test_a_subject_id_that_is_not_a_string_exits_2(chain, tmp_path, sid):
    obj = record_json(chain, "manifest")
    obj["subjects"][0]["subject_id"] = sid
    rc, err, out = run_on_record(chain, "manifest", obj, tmp_path)
    assert rc == 2
    assert err.startswith("error: ") and "subjects[0]: subject_id must be a string" in err
    assert not out.exists()
    assert not list(tmp_path.rglob(f"{sid}.csv"))
