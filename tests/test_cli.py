import json
import re
import shutil

import numpy as np
import pytest

from qcfc import ValidationError
from qcfc.cli import cmd_qc, main
from qcfc.regression import demean_columns
from qcfc.storage import read_matrix_csv

TINY_CFG = {
    "n_subjects": 5,
    "n_rois": 6,
    "n_timepoints": 40,
    "motion_amplitude_range": [0.1, 1.5],
    "artifact_gain": 1.0,
    "artifact_length_scale": 40.0,
    "n_aroma_components": 3,
    "aroma_hmp_mixing": 0.6,
    "seed": 3,
}


def write_config(path, **overrides):
    raw = dict(TINY_CFG)
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path


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

    def test_out_path_collision_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_subjects=3, n_rois=4, n_timepoints=24)
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        rc = main(["phantom", "--config", str(cfg), "--out", str(blocked)])
        assert rc == 3


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

    @pytest.mark.parametrize("sid", ["../../escaped", "a/b", "a\\b", "", ".", ".."])
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

    def test_missing_run_info_exits_4(self, cohort_dir, tmp_path, capsys):
        empty = tmp_path / "not_corrected"
        empty.mkdir()
        rc = main(
            [
                "qc",
                "--manifest",
                str(cohort_dir / "manifest.json"),
                "--corrected",
                str(empty),
                "--report",
                str(tmp_path / "qc.json"),
            ]
        )
        assert rc == 4
        assert "run_info.json" in capsys.readouterr().err

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

    def test_source_flags_are_exclusive(self, cohort_dir, tmp_path):
        manifest = str(cohort_dir / "manifest.json")
        with pytest.raises(ValidationError):
            cmd_qc(manifest, None, False, str(tmp_path / "qc.json"))
        with pytest.raises(ValidationError):
            cmd_qc(manifest, str(tmp_path), True, str(tmp_path / "qc.json"))
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "qc",
                    "--manifest",
                    manifest,
                    "--raw",
                    "--corrected",
                    str(tmp_path),
                    "--report",
                    str(tmp_path / "qc.json"),
                ]
            )
        assert err.value.code == 2


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
    # `correct` creates its output directory before it reads the first
    # subject; a run that stopped early has no run_info.json.
    assert not (out / "run_info.json" if target == "ts" else out).exists()


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

    def test_csv_to_stdout_when_no_path(self, report_paths, capsys):
        raw_report, _ = report_paths
        rc = main(["report", str(raw_report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert self.CSV_HEADER in out
        assert out.count("raw,5,") == 1

    def test_invalid_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": "1"}))
        assert main(["report", str(bad)]) == 2

    def test_missing_report_exits_4(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 4
