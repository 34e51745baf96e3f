import csv
import json
import re
import shutil
import tracemalloc

import numpy as np
import pytest

import qcfc.cli as cli
from qcfc.cli import main, run_guarded
from qcfc.errors import ValidationError
from qcfc.metrics import Parcellation, default_roi_labels
from qcfc.regression import SignalMatrix, demean_columns
from qcfc.storage import read_matrix_csv, write_matrix_csv

from .conftest import TINY_CFG, write_config
from .test_acceptance import _tree_bytes
from .test_writer import correct


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg = write_config(root / "config.json")
    out = root / "data"
    assert main(["phantom", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corrected_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("corrected") / "concat"
    rc = main(
        [
            "correct",
            "--manifest",
            str(cohort_dir / "manifest.json"),
            "--pipeline",
            "concat",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def report_paths(cohort_dir, corrected_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    manifest = str(cohort_dir / "manifest.json")
    raw_report = out / "qc_raw.json"
    concat_report = out / "qc_concat.json"
    assert main(["qc", "--manifest", manifest, "--raw", "--report", str(raw_report)]) == 0
    assert (
        main(
            [
                "qc",
                "--manifest",
                manifest,
                "--corrected",
                str(corrected_dir),
                "--report",
                str(concat_report),
            ]
        )
        == 0
    )
    return raw_report, concat_report


class TestPhantomCommand:
    def test_creates_expected_files(self, cohort_dir):
        for name in ("manifest.json", "parcellation.csv", "truth_fc.csv", "config.json"):
            assert (cohort_dir / name).is_file()
        manifest = json.loads((cohort_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == "1"
        assert len(manifest["subjects"]) == 5
        for entry in manifest["subjects"]:
            for key in ("ts", "motion", "aroma", "physio"):
                assert (cohort_dir / entry[key]).is_file()

    def test_stdout_summary(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", n_subjects=3, n_rois=4, n_timepoints=24, seed=5
        )
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "cohort: 3 subjects, 4 ROIs, 24 timepoints" in out
        assert "manifest:" in out

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_subjects=0)
        rc = main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "n_subjects" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", bogus=1)
        rc = main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(
            ["phantom", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")]
        )
        assert rc == 2

    def test_config_larger_than_memory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_timepoints=10**12)
        rc = main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("field", ["n_rois", "n_timepoints", "n_aroma_components"])
    def test_config_too_large_for_numpy_exits_2(self, tmp_path, capsys, field):
        # An array 2**62 long on a side is more bytes than NumPy can index,
        # so NumPy would refuse it without allocating; the config is refused
        # before generation starts.
        cfg = write_config(tmp_path / "c.json", **{field: 2**62})
        rc = main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: config: ")
        assert field in err and "more than NumPy can index" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"artifact_gain": 1e308},
            {"motion_amplitude_range": [1e300, 1e301]},
            {"artifact_gain": 10**400},
        ],
        ids=["gain", "amplitude", "integer-beyond-float"],
    )
    def test_config_that_overflows_float64_exits_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "c.json", **overrides)
        rc = main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (tmp_path / "d").exists()

    def test_length_scale_below_float64_range_still_generates(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", artifact_length_scale=1e-310)
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0

    def test_out_path_collision_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_subjects=3, n_rois=4, n_timepoints=24)
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        rc = main(["phantom", "--config", str(cfg), "--out", str(blocked)])
        assert rc == 3

    def test_out_path_collision_names_the_first_file_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_subjects=3, n_rois=4, n_timepoints=24)
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        assert main(["phantom", "--config", str(cfg), "--out", str(blocked)]) == 3
        target = str(blocked / "parcellation.csv")
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {target!r}\n"

    @pytest.mark.parametrize("below", [(), ("sub", "dir")], ids=["file", "under-a-file"])
    def test_out_path_under_a_file_is_refused_before_generating(
        self, tmp_path, capsys, monkeypatch, below
    ):
        def never(*_args):
            raise AssertionError("called before the output path was checked")

        monkeypatch.setattr(cli, "generate_cohort", never)
        monkeypatch.setattr(cli, "_Writer", never)
        cfg = write_config(tmp_path / "c.json")
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        out = blocked.joinpath(*below)
        assert main(["phantom", "--config", str(cfg), "--out", str(out)]) == 3
        target = str(out / "parcellation.csv")
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {target!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "c.json"]

    def test_out_path_under_a_file_is_named_before_an_overflowing_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", artifact_gain=1e308)
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        assert main(["phantom", "--config", str(cfg), "--out", str(blocked)]) == 3
        assert "Not a directory" in capsys.readouterr().err


class TestCorrectCommand:
    def test_writes_outputs_and_run_info(self, cohort_dir, corrected_dir):
        manifest = json.loads((cohort_dir / "manifest.json").read_text())
        for entry in manifest["subjects"]:
            assert (corrected_dir / f"{entry['subject_id']}.csv").is_file()
        info = json.loads((corrected_dir / "run_info.json").read_text())
        assert info == {"schema_version": "1", "pipeline": "concat", "n_subjects": 5}

    def test_baseline_equals_demeaned_input(self, cohort_dir, tmp_path):
        out = tmp_path / "baseline"
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--pipeline",
                "baseline",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        ts, labels = read_matrix_csv(cohort_dir / "sub-000" / "ts.csv")
        corrected, corrected_labels = read_matrix_csv(out / "sub-000.csv")
        assert corrected_labels == labels
        assert np.array_equal(corrected, demean_columns(ts))

    def test_unknown_pipeline_exits_2(self, cohort_dir, tmp_path, capsys):
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--pipeline",
                "scrubbing",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "seq-hmp-aroma-physio" in err and "concat" in err

    def test_corrupt_motion_exits_4(self, cohort_dir, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        motion = cohort / "sub-001" / "motion.csv"
        lines = motion.read_text().splitlines()
        lines[3] = lines[3].replace(",", ",x", 1)
        motion.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort / "manifest.json"),
                "--pipeline",
                "concat",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4
        assert "sub-001" in capsys.readouterr().err

    def test_missing_subject_file_exits_4(self, cohort_dir, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        (cohort / "sub-002" / "aroma.csv").unlink()
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort / "manifest.json"),
                "--pipeline",
                "concat",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4
        assert "sub-002" in capsys.readouterr().err

    def test_wrong_manifest_version_exits_2(self, cohort_dir, tmp_path):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        manifest["schema_version"] = "99"
        (cohort / "manifest.json").write_text(json.dumps(manifest))
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort / "manifest.json"),
                "--pipeline",
                "concat",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("sid", ["../../escaped", "a/b", "a\\b", "", ".", "..", "a\x00b"])
    def test_subject_id_must_be_one_path_component(self, cohort_dir, tmp_path, capsys, sid):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        manifest["subjects"][0]["subject_id"] = sid
        (cohort / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "a" / "b" / "o"
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort / "manifest.json"),
                "--pipeline",
                "concat",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert "subject_id" in capsys.readouterr().err
        assert not (tmp_path / "a" / "escaped.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, path",
        [
            ("ts", lambda cohort: str(cohort / "sub-001" / "ts.csv")),
            ("motion", lambda cohort: "../cohort/sub-001/motion.csv"),
            ("aroma", lambda cohort: "sub-000/../sub-001/aroma.csv"),
            ("physio", lambda cohort: "..\\cohort\\sub-001\\physio.csv"),
            ("parcellation_path", lambda cohort: str(cohort / "parcellation.csv")),
        ],
        ids=[
            "absolute-ts",
            "parent-motion",
            "inner-dotdot-aroma",
            "backslash-physio",
            "absolute-parcellation",
        ],
    )
    def test_manifest_paths_must_stay_in_its_directory(
        self, cohort_dir, tmp_path, capsys, key, path
    ):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        entry = manifest if key == "parcellation_path" else manifest["subjects"][0]
        entry[key] = path(cohort)
        (cohort / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort / "manifest.json"),
                "--pipeline",
                "concat",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "relative path" in err
        assert not out.exists()

    def test_subjects_may_share_component_files(self, cohort_dir, tmp_path):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        for key in ("aroma", "physio"):
            manifest["subjects"][1][key] = manifest["subjects"][0][key]
        (cohort / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--manifest", str(cohort / "manifest.json"), "--pipeline", "concat"]
        assert main(["correct", *argv, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("aroma.csv", lambda lines: lines[:-1]),
            ("motion.csv", lambda lines: lines[:-1]),
            ("physio.csv", lambda lines: [line + ",0" for line in lines]),
        ],
    )
    def test_inconsistent_subject_files_exit_4(
        self, cohort_dir, tmp_path, capsys, name, edit
    ):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        path = cohort / "sub-001" / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        rc = main(
            [
                "correct",
                "--manifest",
                str(cohort / "manifest.json"),
                "--pipeline",
                "concat",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "sub-001" in err and name.split(".")[0] in err

    def test_missing_parcellation_exits_4(self, cohort_dir, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        (cohort / "parcellation.csv").unlink()
        out = tmp_path / "o"
        assert correct(cohort, "concat", out) == 4
        err = capsys.readouterr().err
        assert err == "error: manifest references missing parcellation file 'parcellation.csv'\n"
        assert not out.exists()


def keep_lines(path, n) -> None:
    """Cut a file to its first `n` lines."""
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:n]))


class TestFailedRerun:
    """A rerun that fails on its first subject leaves the old output as it was."""

    def test_failure_on_the_first_subjects_pipeline_leaves_out_unchanged(
        self, cohort_dir, tmp_path
    ):
        cohort, out = tmp_path / "cohort", tmp_path / "o"
        shutil.copytree(cohort_dir, cohort)
        assert correct(cohort, "baseline", out) == 0
        before = _tree_bytes(out)
        # On 10 rows the motion expansion alone leaves concat no residual degrees of freedom.
        for path in (cohort / "sub-000").glob("*.csv"):
            keep_lines(path, 11)
        assert correct(cohort, "concat", out) == 5
        assert _tree_bytes(out) == before


def cohort_with_motion_cell(cohort_dir, tmp_path, cells):
    """A copy of the cohort whose sub-002 motion has `cells` {(row, column): text} replaced."""
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    motion = cohort / "sub-002" / "motion.csv"
    lines = [line.split(",") for line in motion.read_text().splitlines()]
    for (row, col), text in cells.items():
        lines[row][col] = text
    motion.write_text("".join(",".join(line) + "\n" for line in lines))
    return cohort


class TestMotionBeyondFloat64:
    """Finite motion whose squares or sums overflow is a data error naming the subject."""

    def test_correct_exits_4(self, cohort_dir, tmp_path, capsys):
        cohort = cohort_with_motion_cell(cohort_dir, tmp_path, {(5, 0): "1e200"})
        manifest = str(cohort / "manifest.json")
        out = tmp_path / "o"
        assert main(["correct", "--manifest", manifest, "--pipeline", "concat", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: subject 'sub-002'")
        assert not (out / "run_info.json").exists()

    @pytest.mark.parametrize(
        "cells",
        [
            {(5, 0): "1e200"},
            {(5, 0): "1.7e308", (5, 1): "1.7e308", (6, 0): "-1.7e308", (6, 1): "-1.7e308"},
        ],
        ids=["mean-fd-squares", "framewise-displacement"],
    )
    def test_qc_raw_exits_4(self, cohort_dir, tmp_path, capsys, cells):
        cohort = cohort_with_motion_cell(cohort_dir, tmp_path, cells)
        report = tmp_path / "qc.json"
        argv = ["qc", "--manifest", str(cohort / "manifest.json"), "--raw", "--report", str(report)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "overflow" in err or "infinite" in err
        assert not report.exists()


class TestQcCommand:
    def test_raw_report_contents(self, cohort_dir, tmp_path, capsys):
        report = tmp_path / "qc.json"
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--raw",
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["pipeline"] == "raw"
        assert data["n_subjects"] == 5
        assert data["n_edges"] == 15
        counts = [count for _, count in data["histogram"]]
        assert sum(counts) == data["n_edges"] - data["undefined_edge_count"]

        hist = (tmp_path / "qc_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_center,count"
        assert len(hist) == 1 + 50

        out = capsys.readouterr().out
        assert "pipeline: raw" in out
        for field in ("median_abs_qcfc", "dist_dependence_rho", "dist_dependence_p"):
            assert re.search(rf"^{field}: -?\d+\.\d{{6}}$", out, re.M)

    def test_custom_bin_count(self, cohort_dir, tmp_path):
        report = tmp_path / "qc.json"
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--raw",
                "--report",
                str(report),
                "--bins",
                "7",
            ]
        )
        assert rc == 0
        assert len(json.loads(report.read_text())["histogram"]) == 7

    def test_corrected_uses_recorded_pipeline(self, cohort_dir, corrected_dir, tmp_path, capsys):
        report = tmp_path / "qc.json"
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--corrected",
                str(corrected_dir),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        assert json.loads(report.read_text())["pipeline"] == "concat"
        assert "pipeline: concat" in capsys.readouterr().out

    def test_tampered_run_info_exits_2(self, cohort_dir, corrected_dir, tmp_path):
        corr = tmp_path / "corr"
        shutil.copytree(corrected_dir, corr)
        info = json.loads((corr / "run_info.json").read_text())
        info["schema_version"] = "0"
        (corr / "run_info.json").write_text(json.dumps(info))
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--corrected",
                str(corr),
                "--report",
                str(tmp_path / "qc.json"),
            ]
        )
        assert rc == 2

    def test_missing_corrected_subject_exits_4(self, cohort_dir, corrected_dir, tmp_path, capsys):
        corr = tmp_path / "corr"
        shutil.copytree(corrected_dir, corr)
        (corr / "sub-003.csv").unlink()
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--corrected",
                str(corr),
                "--report",
                str(tmp_path / "qc.json"),
            ]
        )
        assert rc == 4
        assert "sub-003" in capsys.readouterr().err

    def test_roi_label_mismatch_exits_2(self, cohort_dir, corrected_dir, tmp_path, capsys):
        corr = tmp_path / "corr"
        shutil.copytree(corrected_dir, corr)
        target = corr / "sub-000.csv"
        lines = target.read_text().splitlines()
        lines[0] = "bogus" + lines[0][lines[0].index(",") :]
        target.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--corrected",
                str(corr),
                "--report",
                str(tmp_path / "qc.json"),
            ]
        )
        assert rc == 2
        assert "sub-000" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--raw", "--corrected"])
    def test_motion_rows_differ_exits_4(
        self, cohort_dir, corrected_dir, tmp_path, capsys, source
    ):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        motion = cohort / "sub-001" / "motion.csv"
        lines = motion.read_text().splitlines()
        motion.write_text("\n".join(lines[: 1 + TINY_CFG["n_timepoints"] // 2]) + "\n")
        report = tmp_path / "qc.json"
        flags = ["--raw"] if source == "--raw" else ["--corrected", str(corrected_dir)]
        rc = main(
            ["qc", "--manifest", str(cohort / "manifest.json"), *flags, "--report", str(report)]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "sub-001" in err and "motion" in err
        assert not report.exists()

    def test_two_subjects_exit_5(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", n_subjects=3, n_rois=4, n_timepoints=24, seed=9
        )
        data = tmp_path / "data"
        assert main(["phantom", "--config", str(cfg), "--out", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["subjects"] = manifest["subjects"][:2]
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = main(
            [
                "qc",
                "--manifest",
                str(data / "manifest.json"),
                "--raw",
                "--report",
                str(tmp_path / "qc.json"),
            ]
        )
        assert rc == 5

    def test_constant_motion_exits_5(self, cohort_dir, tmp_path):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        header = "dx_mm,dy_mm,dz_mm,rx_rad,ry_rad,rz_rad"
        body = "\n".join(["0,0,0,0,0,0"] * TINY_CFG["n_timepoints"])
        for sub in sorted(cohort.glob("sub-*")):
            (sub / "motion.csv").write_text(header + "\n" + body + "\n")
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort / "manifest.json"),
                "--raw",
                "--report",
                str(tmp_path / "qc.json"),
            ]
        )
        assert rc == 5

    def test_zero_bins_exits_2(self, cohort_dir, tmp_path):
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--raw",
                "--report",
                str(tmp_path / "qc.json"),
                "--bins",
                "0",
            ]
        )
        assert rc == 2

    def test_zero_bins_refused_before_reading_a_subject(self, cohort_dir, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        ts = cohort / "sub-000" / "ts.csv"
        ts.write_text(ts.read_text().replace(",", ",oops", 1))
        report = tmp_path / "qc.json"
        argv = ["qc", "--manifest", str(cohort / "manifest.json"), "--raw", "--report", str(report)]
        assert main([*argv, "--bins", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bins must be >= 1, got 0\n"
        assert not report.exists()


def test_histogram_bins_are_refused_where_numpy_cannot_index_their_edges():
    """On a 64-bit NumPy, `np.linspace` rounds an edge count of 2**60 - 64 or more up to 2**60."""
    values = np.zeros(3)
    for bins in (2**62, 2**60 - 65):
        with pytest.raises(ValidationError, match="small enough for NumPy"):
            cli.histogram_points(values, bins)
    # One bin fewer is an array NumPy can index but no machine can hold.
    with pytest.raises(MemoryError):
        cli.histogram_points(values, 2**60 - 66)


def test_raw_report_keeps_its_bytes_when_one_subject_is_scaled_by_two_to_the_300(
    cohort_dir, report_paths, tmp_path
):
    """`%.17g` writes the scaled timeseries exactly, and Pearson r does not see the scale."""
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    ts = cohort / "sub-002" / "ts.csv"
    values, labels = read_matrix_csv(ts)
    write_matrix_csv(ts, np.ldexp(values, 300), labels)
    report = tmp_path / "qc_raw.json"
    argv = ["qc", "--manifest", str(cohort / "manifest.json"), "--raw", "--report", str(report)]
    assert main(argv) == 0
    assert report.read_bytes() == report_paths[0].read_bytes()


@pytest.mark.parametrize(
    "n_subjects, n_timepoints, n_rois", [(30, 40, 60), (20, 30, 120)], ids=["60-rois", "120-rois"]
)
def test_scoring_peaks_below_three_subjects_by_edges_arrays(
    tmp_path, capsys, n_subjects, n_timepoints, n_rois
):
    """Scoring holds one subjects x edges array, about twice its size at peak.

    The bound leaves room above that and fails a scorer that keeps each
    subject's full connectivity matrix until QC-FC stacks the edges (over 5x).
    """
    import scipy.special  # noqa: F401  (a p-value loads it on first use; not scoring's memory)

    rng = np.random.default_rng(31)
    labels = default_roi_labels(n_rois)
    parcellation = Parcellation(labels, rng.normal(size=(n_rois, 3)))
    shape = (n_timepoints, n_rois)
    subjects = [
        (f"sub-{k:03d}", rng.uniform(0.1, 1.0), SignalMatrix(rng.normal(size=shape), labels))
        for k in range(n_subjects)
    ]
    edges_bytes = n_subjects * (n_rois * (n_rois - 1) // 2) * 8
    tracemalloc.start()
    try:
        cli.score_cohort("raw", parcellation, subjects, tmp_path / "qc.json", cli.DEFAULT_BINS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "pipeline: raw" in capsys.readouterr().out
    assert peak < 3 * edges_bytes, f"peak {peak / edges_bytes:.2f} x the edges array"


@pytest.mark.parametrize(
    "target, expected", [("ts", 4), ("manifest", 4), ("report", 4), ("config", 2)]
)
def test_invalid_utf8_is_a_malformed_file(
    cohort_dir, report_paths, tmp_path, capsys, target, expected
):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    report = tmp_path / "qc.json"
    shutil.copy(report_paths[0], report)
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    manifest = str(cohort / "manifest.json")
    correct = ["correct", "--manifest", manifest, "--pipeline", "concat", "--out", str(out)]
    bad, argv = {
        "ts": (cohort / "sub-000" / "ts.csv", correct),
        "manifest": (cohort / "manifest.json", correct),
        "report": (report, ["report", str(report), "--csv", str(out)]),
        "config": (config, ["phantom", "--config", str(config), "--out", str(out)]),
    }[target]
    with open(bad, "ab") as fh:
        fh.write(b"\xff")
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


class TestReportCommand:
    CSV_HEADER = (
        "pipeline,n_subjects,median_abs_qcfc,dist_dependence_rho,"
        "dist_dependence_p,undefined_edge_count"
    )

    def test_table_and_csv_file(self, report_paths, tmp_path, capsys):
        raw_report, concat_report = report_paths
        csv_path = tmp_path / "comparison.csv"
        rc = main(["report", str(raw_report), str(concat_report), "--csv", str(csv_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipeline" in out and "median_abs_qcfc" in out
        assert "raw" in out and "concat" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == self.CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("raw,5,")
        assert lines[2].startswith("concat,5,")

    def test_csv_creates_missing_directories(self, report_paths, tmp_path):
        csv_path = tmp_path / "missing" / "dir" / "c.csv"
        assert main(["report", str(report_paths[0]), "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().splitlines()[0] == self.CSV_HEADER

    @pytest.mark.parametrize("blocker", ["csv is a directory", "parent is a file"])
    def test_unwritable_csv_exits_3_naming_it(self, report_paths, tmp_path, capsys, blocker):
        if blocker == "csv is a directory":
            csv_path, message = tmp_path / "taken", "[Errno 21] Is a directory"
            csv_path.mkdir()
        else:
            (tmp_path / "afile").write_text("")
            csv_path, message = tmp_path / "afile" / "c.csv", "[Errno 20] Not a directory"
        errs = []
        for _ in range(2):
            assert main(["report", str(report_paths[0]), "--csv", str(csv_path)]) == 3
            errs.append(capsys.readouterr().err)
        assert errs == [f"error: {message}: {str(csv_path)!r}\n"] * 2
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_csv_to_stdout_when_no_path(self, report_paths, capsys):
        raw_report, _ = report_paths
        rc = main(["report", str(raw_report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert self.CSV_HEADER in out
        assert out.count("raw,5,") == 1

    @staticmethod
    def comparison_rows_with_name(report_paths, tmp_path, name):
        """`comparison.csv` rows for the raw report and one renamed to `name`."""
        report = json.loads(report_paths[1].read_text())
        report["pipeline"] = name
        renamed = tmp_path / "qc_renamed.json"
        renamed.write_text(json.dumps(report))
        csv_path = tmp_path / "comparison.csv"
        assert main(["report", str(report_paths[0]), str(renamed), "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            return list(csv.reader(fh))

    def test_name_with_comma_is_quoted(self, report_paths, tmp_path):
        rows = self.comparison_rows_with_name(report_paths, tmp_path, "concat, v2")
        assert [len(row) for row in rows] == [6, 6, 6]
        assert rows[2][0] == "concat, v2"

    def test_name_with_carriage_return_stays_one_row(self, report_paths, tmp_path):
        rows = self.comparison_rows_with_name(report_paths, tmp_path, "concat\rv2")
        assert [len(row) for row in rows] == [6, 6, 6]
        assert rows[2][0] == "concat\rv2"

    def test_invalid_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": "1"}))
        assert main(["report", str(bad)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_subjects", 2.9),
            ("n_edges", True),
            ("undefined_edge_count", False),
            ("median_abs_qcfc", "0.5"),
            ("dist_dependence_p", float("nan")),
            ("pipeline", 7),
            ("histogram", [[0.0, 3.7]]),
            ("histogram", [[True, 3]]),
        ],
    )
    def test_mistyped_field_exits_2(self, report_paths, tmp_path, capsys, field, value):
        report = json.loads(report_paths[1].read_text())
        report[field] = value
        path = tmp_path / "qc.json"
        path.write_text(json.dumps(report))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: {field}")

    @pytest.mark.parametrize(
        "overrides, field, values",
        [({"n_subjects": 4}, "n_subjects", (5, 4)), ({"n_rois": 7}, "n_edges", (15, 21))],
        ids=["n_subjects", "n_edges"],
    )
    def test_reports_of_cohorts_of_different_sizes_exit_4(
        self, report_paths, tmp_path, capsys, overrides, field, values
    ):
        cfg = write_config(tmp_path / "config.json", **overrides)
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "other")]) == 0
        other = tmp_path / "qc_other.json"
        argv = ["qc", "--manifest", str(tmp_path / "other" / "manifest.json"), "--raw"]
        assert main([*argv, "--report", str(other)]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "comparison.csv"
        rc = main(["report", str(report_paths[0]), str(other), "--csv", str(csv_path)])
        assert rc == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {other} has {field} {values[1]}, {report_paths[0]} has {values[0]};"
            " only reports of one cohort can be compared\n"
        )
        assert not csv_path.exists()

    def test_missing_report_exits_4(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 4


def test_bare_memory_error_still_prints_a_message(capsys):
    def exhausted():
        raise MemoryError()

    assert run_guarded(exhausted) == 2
    assert capsys.readouterr().err == "error: not enough memory\n"


class TestRecordBytes:
    """The exact layout of the JSON records a 3-subject chain writes."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("records")
        cfg = write_config(root / "c.json", n_subjects=3, n_rois=4, n_timepoints=24, seed=5)
        cohort, corrected, report = root / "cohort", root / "corrected", root / "qc.json"
        manifest = str(cohort / "manifest.json")
        assert main(["phantom", "--config", str(cfg), "--out", str(cohort)]) == 0
        argv = ["--manifest", manifest]
        assert main(["correct", *argv, "--pipeline", "concat", "--out", str(corrected)]) == 0
        assert main(["qc", *argv, "--corrected", str(corrected), "--report", str(report)]) == 0
        return cohort, corrected, report

    def test_manifest_bytes(self, chain):
        subjects = ",\n".join(
            "    {\n"
            f'      "aroma": "sub-00{k}/aroma.csv",\n'
            f'      "motion": "sub-00{k}/motion.csv",\n'
            f'      "physio": "sub-00{k}/physio.csv",\n'
            f'      "subject_id": "sub-00{k}",\n'
            f'      "ts": "sub-00{k}/ts.csv"\n'
            "    }"
            for k in range(3)
        )
        expected = (
            "{\n"
            '  "parcellation_path": "parcellation.csv",\n'
            '  "schema_version": "1",\n'
            '  "subjects": [\n'
            f"{subjects}\n"
            "  ]\n"
            "}\n"
        )
        assert (chain[0] / "manifest.json").read_text() == expected

    def test_run_info_bytes(self, chain):
        expected = '{\n  "n_subjects": 3,\n  "pipeline": "concat",\n  "schema_version": "1"\n}\n'
        assert (chain[1] / "run_info.json").read_text() == expected

    def test_report_keys_and_layout(self, chain):
        text = chain[2].read_text()
        report = json.loads(text)
        assert sorted(report) == [
            "dist_dependence_p",
            "dist_dependence_rho",
            "histogram",
            "median_abs_qcfc",
            "n_edges",
            "n_subjects",
            "pipeline",
            "schema_version",
            "undefined_edge_count",
        ]
        assert report["schema_version"] == "1" and report["pipeline"] == "concat"
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
