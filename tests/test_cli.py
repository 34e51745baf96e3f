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
from qcfc.metrics import Parcellation, default_roi_labels, edge_lengths
from qcfc.regression import SignalMatrix, demean_columns
from qcfc.storage import read_matrix_csv, write_matrix_csv

from .conftest import write_config
from .refusals import CASES, OUTSIDE_PATHS, SUBJECT_IDS, check, huge_cells, in_process
from .test_acceptance import _tree_bytes
from .test_writer import correct

# Each refusal-shaped case of this module is a row of `tests/refusals.py`. It runs here, under
# the pytest id it had; `test_refusals.py` runs the other rows.
ROWS = {case.name: case for case in CASES}
ROWS_RUN_HERE: set[str] = set()


def refusal_rows(*names: str, ids: list[str] | None = None) -> staticmethod:
    """A test that checks the refusal rows `names`: one row as a plain test, else one per id.

    The ids are those the hand-written cases had, so every test keeps its name.
    """
    ROWS_RUN_HERE.update(names)
    if ids is None:
        (name,) = names

        def test(refusal_base, tmp_path):
            check(ROWS[name], in_process, refusal_base, tmp_path / "work")

    else:

        @pytest.mark.parametrize("name", names, ids=ids)
        def test(refusal_base, tmp_path, name):
            check(ROWS[name], in_process, refusal_base, tmp_path / "work")

    # In a class, a staticmethod gets no `self`; pytest unwraps it at module level too.
    return staticmethod(test)


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

    test_invalid_field_exits_2 = refusal_rows("config-zero-subjects")
    test_unknown_field_exits_2 = refusal_rows("config-unknown-field")
    test_missing_config_exits_2 = refusal_rows("config-missing")
    test_config_larger_than_memory_exits_2 = refusal_rows("config-larger-than-memory")

    test_config_too_large_for_numpy_exits_2 = refusal_rows(
        "config-n-rois-beyond-numpy",
        "config-n-timepoints-beyond-numpy",
        "config-n-aroma-components-beyond-numpy",
        ids=["n_rois", "n_timepoints", "n_aroma_components"],
    )

    test_config_that_overflows_float64_exits_2 = refusal_rows(
        "config-gain-overflows",
        "config-amplitude-overflows",
        "config-integer-beyond-float",
        ids=["gain", "amplitude", "integer-beyond-float"],
    )

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

    test_out_path_under_a_file_is_named_before_an_overflowing_config = refusal_rows(
        "out-is-a-file-before-overflowing-config"
    )


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

    test_unknown_pipeline_exits_2 = refusal_rows("unknown-pipeline")
    test_corrupt_motion_exits_4 = refusal_rows("corrupt-motion")
    test_missing_subject_file_exits_4 = refusal_rows("missing-subject-file")
    test_wrong_manifest_version_exits_2 = refusal_rows("manifest-schema-version")

    test_subject_id_must_be_one_path_component = refusal_rows(
        *(f"subject-id-{name}" for name in SUBJECT_IDS), ids=list(SUBJECT_IDS.values())
    )

    test_manifest_paths_must_stay_in_its_directory = refusal_rows(
        *(f"manifest-{name}" for name in OUTSIDE_PATHS), ids=list(OUTSIDE_PATHS)
    )

    def test_subjects_may_share_component_files(self, cohort_dir, tmp_path):
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        for key in ("aroma", "physio"):
            manifest["subjects"][1][key] = manifest["subjects"][0][key]
        (cohort / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--manifest", str(cohort / "manifest.json"), "--pipeline", "concat"]
        assert main(["correct", *argv, "--out", str(tmp_path / "o")]) == 0

    test_inconsistent_subject_files_exit_4 = refusal_rows(
        "aroma-one-row-short",
        "motion-one-row-short",
        "physio-extra-column",
        ids=["aroma.csv-<lambda>", "motion.csv-<lambda>", "physio.csv-<lambda>"],
    )

    test_missing_parcellation_exits_4 = refusal_rows("missing-parcellation")


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


class TestMotionBeyondFloat64:
    """Finite motion whose squares or sums overflow is a data error naming the subject."""

    test_correct_exits_4 = refusal_rows("motion-squares-overflow-in-correct")

    test_qc_raw_exits_4 = refusal_rows(
        "mean-fd-squares-overflow",
        "framewise-displacement-overflows",
        ids=["mean-fd-squares", "framewise-displacement"],
    )


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

    test_tampered_run_info_exits_2 = refusal_rows("run-info-schema-version")
    test_missing_corrected_subject_exits_4 = refusal_rows("missing-corrected-subject")
    test_roi_label_mismatch_exits_2 = refusal_rows("corrected-roi-labels")

    test_motion_rows_differ_exits_4 = refusal_rows(
        "motion-rows-differ-raw", "motion-rows-differ-corrected", ids=["--raw", "--corrected"]
    )

    test_two_subjects_exit_5 = refusal_rows("two-subjects")
    test_constant_motion_exits_5 = refusal_rows("constant-motion")

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


def test_raw_report_scores_a_timeseries_whose_sums_overflow_as_its_scaled_copy(
    cohort_dir, tmp_path
):
    """Cells of 1e308 and 1.5e308 are finite: `fc_matrix` scales each column by a power of two
    before any sum, so no float error is raised and the report is that of the copy x 2**-1000."""
    huge, scaled = tmp_path / "huge", tmp_path / "scaled"
    shutil.copytree(cohort_dir, huge)
    huge_cells(str(huge / "sub-002" / "ts.csv"))
    shutil.copytree(huge, scaled)
    ts = scaled / "sub-002" / "ts.csv"
    values, labels = read_matrix_csv(ts)
    write_matrix_csv(ts, np.ldexp(values, -1000), labels)
    reports = []
    for cohort in (huge, scaled):
        report = cohort / "qc_raw.json"
        argv = ["qc", "--manifest", str(cohort / "manifest.json"), "--raw", "--report"]
        assert main([*argv, str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


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
        lengths = edge_lengths(parcellation)
        cli.score_cohort("raw", lengths, subjects, tmp_path / "qc.json", cli.DEFAULT_BINS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "pipeline: raw" in capsys.readouterr().out
    assert peak < 3 * edges_bytes, f"peak {peak / edges_bytes:.2f} x the edges array"


test_invalid_utf8_is_a_malformed_file = refusal_rows(
    "invalid-utf8-ts",
    "invalid-utf8-manifest",
    "invalid-utf8-report",
    "invalid-utf8-config",
    ids=["ts-4", "manifest-4", "report-4", "config-2"],
)


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

    test_invalid_report_exits_2 = refusal_rows("report-missing-fields")

    test_mistyped_field_exits_2 = refusal_rows(
        "report-mistyped-n-subjects",
        "report-mistyped-n-edges",
        "report-mistyped-undefined-edge-count",
        "report-mistyped-median",
        "report-mistyped-p-value",
        "report-mistyped-pipeline",
        "report-mistyped-histogram-count",
        "report-mistyped-histogram-center",
        ids=[
            "n_subjects-2.9",
            "n_edges-True",
            "undefined_edge_count-False",
            "median_abs_qcfc-0.5",
            "dist_dependence_p-nan",
            "pipeline-7",
            "histogram-value6",
            "histogram-value7",
        ],
    )

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

    test_missing_report_exits_4 = refusal_rows("report-missing")


def test_bare_memory_error_still_prints_a_message(capsys):
    def exhausted():
        raise MemoryError()

    assert run_guarded(exhausted) == 2
    assert capsys.readouterr().err == "error: not enough memory\n"


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["qc", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qcfc qc ")


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
