"""Any toolkit error inside one subject's work is one `error:` line that names the subject once.

The line carries the exit code of the error's class, whichever command or
step raised it.
"""

import csv
import shutil

import pytest

import qcfc.cli as cli
from qcfc.cli import EXIT_CODES, main
from qcfc.errors import QcfcError

from .conftest import write_config
from .test_comparison_script import run_script

FAULTY = "sub-002"


# Which call of a patched step is the faulty subject's: by the path it reads,
# by the bundle it corrects, or, for the scoring steps, by its place in the
# manifest order (sub-000, sub-001, sub-002).
def by_path(arg, _n):
    return FAULTY in str(arg)


def by_bundle(arg, _n):
    return arg.subject_id == FAULTY


def by_order(_arg, n):
    return n == 2


STEPS = [
    ("correct", "read_matrix_csv", by_path),
    ("qc-raw", "read_matrix_csv", by_path),
    ("qc-corrected", "read_matrix_csv", by_path),
    ("correct", "run_pipeline", by_bundle),
    ("script", "run_pipeline", by_bundle),
    ("script", "framewise_displacement", by_order),
    ("script", "fc_matrix", by_order),
    ("qc-raw", "read_motion_csv", by_path),
    ("qc-raw", "framewise_displacement", by_order),
    ("qc-raw", "fc_matrix", by_order),
    ("qc-corrected", "fc_matrix", by_order),
]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg = write_config(root / "config.json")
    assert main(["phantom", "--config", str(cfg), "--out", str(root / "data")]) == 0
    manifest = str(root / "data" / "manifest.json")
    argv = ["correct", "--manifest", manifest, "--pipeline", "concat", "--out"]
    assert main([*argv, str(root / "concat")]) == 0
    return root


def cli_argv(command, cohort, tmp_path) -> list[str]:
    manifest = ["--manifest", str(cohort / "data" / "manifest.json")]
    report = ["--report", str(tmp_path / "qc.json")]
    return {
        "correct": ["correct", *manifest, "--pipeline", "concat", "--out", str(tmp_path / "out")],
        "qc-raw": ["qc", *manifest, "--raw", *report],
        "qc-corrected": ["qc", *manifest, "--corrected", str(cohort / "concat"), *report],
    }[command]


def assert_one_line_naming_the_subject(err: str) -> None:
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert err.count(f"subject '{FAULTY}': ") == 1


@pytest.mark.parametrize("error", QcfcError.__subclasses__(), ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "command, step, is_faulty", STEPS, ids=[f"{c}-{s}" for c, s, _ in STEPS]
)
def test_error_in_one_subject_names_it_once(
    cohort, tmp_path, monkeypatch, capsys, command, step, is_faulty, error
):
    real = getattr(cli, step)
    calls = []

    def failing(arg, *rest, **kwargs):
        calls.append(arg)
        if is_faulty(arg, len(calls) - 1):
            raise error("injected failure")
        return real(arg, *rest, **kwargs)

    monkeypatch.setattr(cli, step, failing)
    if command == "script":
        config = str(cohort / "config.json")
        rc = run_script(monkeypatch, "--config", config, "--workdir", str(tmp_path / "w"))
    else:
        rc = main(cli_argv(command, cohort, tmp_path))
    assert rc == EXIT_CODES[error]
    err = capsys.readouterr().err
    assert_one_line_naming_the_subject(err)
    assert err.rstrip("\n").endswith("injected failure")


def make_column_constant(lines: list[str]) -> list[str]:
    return [lines[0], *(",".join(["1.5", *line.split(",")[1:]]) for line in lines[1:])]


def keep_two_rows(lines: list[str]) -> list[str]:
    return lines[:3]


@pytest.mark.parametrize(
    "files, edit, message",
    [
        (("ts",), make_column_constant, "ROI column 'roi_000' is constant"),
        (("ts", "motion", "aroma", "physio"), keep_two_rows, "need at least 3 timepoints"),
    ],
    ids=["constant-roi-column", "two-timepoints"],
)
def test_degenerate_subject_file_names_the_subject(
    cohort, tmp_path, capsys, files, edit, message
):
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data)
    for name in files:
        path = data / FAULTY / f"{name}.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    argv = ["qc", "--manifest", str(data / "manifest.json"), "--raw", "--report"]
    assert main([*argv, str(tmp_path / "qc.json")]) == 5
    err = capsys.readouterr().err
    assert_one_line_naming_the_subject(err)
    assert message in err


@pytest.mark.parametrize("pipeline", ["concat", "seq-hmp-aroma-physio", "seq-aroma-hmp-physio"])
def test_design_without_residual_degrees_of_freedom_names_the_subject(
    cohort, tmp_path, capsys, pipeline
):
    # On 10 rows the motion expansion alone has rank 9 = n - 1: the corrected
    # timeseries would be rounding noise.
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data)
    for path in data.glob("sub-*/*.csv"):
        path.write_text("\n".join(path.read_text().splitlines()[:11]) + "\n")
    argv = ["correct", "--manifest", str(data / "manifest.json"), "--pipeline", pipeline]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: subject 'sub-000': ") and len(err.splitlines()) == 1
    assert "leaves 0 residual degrees of freedom; need at least 2" in err
    assert not (tmp_path / "out" / "sub-000.csv").exists()


@pytest.mark.parametrize("command", ["qc-raw", "correct"])
def test_csv_the_reader_cannot_split_names_the_subject_and_file(
    cohort, tmp_path, capsys, command
):
    """A stray quote that opens a field longer than `csv.field_size_limit()`."""
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data)
    ts = data / FAULTY / "ts.csv"
    header, body = ts.read_text().split("\n", 1)
    ts.write_text(f'{header}\n"{body * (csv.field_size_limit() // len(body) + 1)}')
    if command == "correct":
        # A rerun, which removes the old run_info.json before its first file.
        shutil.copytree(cohort / "concat", tmp_path / "out")
    argv = cli_argv(command, cohort, tmp_path)
    argv[argv.index("--manifest") + 1] = str(data / "manifest.json")
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert_one_line_naming_the_subject(err)
    assert f"{ts}: field larger than field limit" in err
    assert not (tmp_path / "out" / "run_info.json").exists()
    assert not (tmp_path / "qc.json").exists()
