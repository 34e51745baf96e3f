"""Command-line front end: cohort emission, correction, QC, comparison.

Four subcommands cover the full chain:

    qcfc phantom --config cfg.json --out cohort/
    qcfc correct --manifest cohort/manifest.json --pipeline concat --out corr/
    qcfc qc --manifest cohort/manifest.json --corrected corr/ --report qc.json
    qcfc report qc_*.json --csv comparison.csv

Exit codes: 0 success; 2 invalid config (including one whose cohort
overflows float64 or whose arrays are too large for NumPy to index, or a
histogram bin count below 1), unknown pipeline, schema mismatch, a mistyped
or unknown field in a JSON record, or not enough memory (for example a
phantom config too large to generate); 3 filesystem failure (unwritable
output); 4 malformed, missing or inconsistent data file (including finite
motion whose regressors or mean-FD sums overflow float64, and a corrected
directory whose `run_info.json` counts another number of subjects than the
manifest lists); 5 degenerate input (too few subjects, constant mean FD, a
pipeline stage that leaves fewer than 2 residual degrees of freedom). Data
and JSON files are read as UTF-8; a file with an invalid byte is malformed
(exit 4, or 2 for the `phantom` config). Paths inside a manifest are
relative to the manifest's directory. `correct` creates its output directory
just before it writes the first subject, so a run that fails on that subject
leaves none behind. A `qcfc.errors.prefixed` context around each subject's
loading, correction and scoring (never the loop) names that subject once in
any error.

The JSON records (config, manifest, `run_info.json`, QC report) are frozen
dataclasses on `qcfc.storage.Record`, which checks each field's type from its
annotation. Each record class adds its own range and path rules
(`PhantomConfig` in `qcfc.phantom`, the others here), and `_read_record`
checks the schema version and names the file in any error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from pathlib import Path, PurePosixPath, PureWindowsPath
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DataIntegrityError,
    DegenerateInputError,
    DimensionError,
    FileFormatError,
    SchemaError,
    ValidationError,
    prefixed,
)
from .metrics import (
    Parcellation,
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    mean_fd,
    qcfc,
)
from .phantom import PhantomCohort, PhantomConfig, generate_cohort
from .pipelines import HeadMotion, PipelineKind, PipelineSpec, SubjectBundle, run_pipeline
from .regression import DesignMatrix, RegressorSource, SignalMatrix
from .storage import (
    Record,
    atomic_write_text,
    csv_text,
    read_json,
    read_matrix_csv,
    read_motion_csv,
    read_parcellation_csv,
    record_from_json,
    write_json,
    write_matrix_csv,
    write_motion_csv,
    write_parcellation_csv,
)

__all__ = [
    "SCHEMA_VERSION",
    "SubjectPaths",
    "CohortManifest",
    "RunInfo",
    "RunReport",
    "write_cohort",
    "load_manifest",
    "load_bundle",
    "histogram_points",
    "correct_cohort",
    "score_cohort",
    "run_guarded",
    "cmd_phantom",
    "cmd_correct",
    "cmd_qc",
    "cmd_report",
    "main",
]

SCHEMA_VERSION = "1"
RAW_PIPELINE_NAME = "raw"
RUN_INFO_NAME = "run_info.json"
SUBJECT_FILES = ("ts", "motion", "aroma", "physio")
# One subject as the scoring step takes it: (subject_id, motion, timeseries).
Subject = tuple[str, HeadMotion, SignalMatrix]


def _check_manifest_path(path: str, field: str) -> None:
    """Refuse a manifest file path unless it stays inside the manifest's directory."""
    flavours = (PurePosixPath(path), PureWindowsPath(path))
    if any(p.is_absolute() or ".." in p.parts for p in flavours):
        raise ValidationError(f"{field} {path!r} must be a relative path without '..' components")


@dataclass(frozen=True)
class SubjectPaths(Record):
    """Relative file locations for one subject, as stored in the manifest."""

    subject_id: str
    ts: str
    motion: str
    aroma: str
    physio: str

    def __post_init__(self):
        super().__post_init__()
        sid = self.subject_id
        if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
            raise ValidationError(
                f"subject_id {sid!r} must be a single path component"
                " (no '/', '\\' or NUL, not empty, '.' or '..')"
            )
        for field in SUBJECT_FILES:
            _check_manifest_path(getattr(self, field), field)


@dataclass(frozen=True)
class CohortManifest(Record):
    parcellation_path: str
    subjects: tuple[SubjectPaths, ...]

    def __post_init__(self):
        super().__post_init__()
        _check_manifest_path(self.parcellation_path, "parcellation_path")
        if not self.subjects:
            raise ValidationError("manifest must list at least one subject")
        seen = set()
        for s in self.subjects:
            if s.subject_id in seen:
                raise ValidationError(f"duplicate subject_id {s.subject_id!r} in manifest")
            seen.add(s.subject_id)


@dataclass(frozen=True)
class RunInfo(Record):
    """What `correct` records beside its output: the pipeline it ran and the subject count."""

    pipeline: str
    n_subjects: int

    def __post_init__(self):
        super().__post_init__()
        PipelineKind.from_name(self.pipeline)


@dataclass(frozen=True)
class RunReport(Record):
    """Figure-ready summary of one QC run over one corrected cohort."""

    pipeline: str
    n_subjects: int
    n_edges: int
    median_abs_qcfc: float
    dist_dependence_rho: float
    dist_dependence_p: float
    undefined_edge_count: int
    histogram: tuple[tuple[float, int], ...]

    def __post_init__(self):
        super().__post_init__()
        counts = [(f, getattr(self, f)) for f in ("n_subjects", "n_edges", "undefined_edge_count")]
        for name, count in [*counts, *(("histogram count", k) for _, k in self.histogram)]:
            if count < 0:
                raise ValidationError(f"{name} must be >= 0, got {count}")


# The `comparison.csv` columns: one row of these `RunReport` fields per report.
COMPARISON_COLUMNS = (
    "pipeline", "n_subjects", "median_abs_qcfc",
    "dist_dependence_rho", "dist_dependence_p", "undefined_edge_count",
)


def _write_record(path: Path, record: Record) -> None:
    """Write a record as JSON, stamped with the current schema version."""
    write_json(path, {"schema_version": SCHEMA_VERSION, **asdict(record)})


def _read_record(path: Path, cls: type[Record]) -> Record:
    """Read a `cls` record of the current schema version; any error names the file."""
    raw = read_json(path)
    with prefixed(str(path)):
        if not isinstance(raw, dict):
            raise SchemaError("a record must be a JSON object")
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION!r}"
            )
        return record_from_json(cls, raw)


def _require_bins(bins: int) -> None:
    """Refuse a histogram bin count below 1; callers check before they read or write anything."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")


def histogram_points(edge_qcfc: np.ndarray, bins: int) -> tuple[tuple[float, int], ...]:
    """Uniform-bin histogram of the defined QC-FC values over [-1, 1]."""
    _require_bins(bins)
    defined = edge_qcfc[~np.isnan(edge_qcfc)]
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(defined, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return tuple((float(c), int(k)) for c, k in zip(centers, counts))


def write_cohort(cohort: PhantomCohort, out_dir: Path, cfg: PhantomConfig) -> Path:
    """Write parcellation, truth matrix, per-subject files, and the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_parcellation_csv(out_dir / "parcellation.csv", cohort.parcellation)
    write_matrix_csv(
        out_dir / "truth_fc.csv", cohort.truth_fc.values, cohort.truth_fc.roi_labels
    )
    write_json(out_dir / "config.json", cfg.to_dict())
    subjects = []
    for bundle in cohort.bundles:
        sub_dir = out_dir / bundle.subject_id
        sub_dir.mkdir(exist_ok=True)
        write_matrix_csv(sub_dir / "ts.csv", bundle.ts.values, bundle.ts.column_labels)
        write_motion_csv(sub_dir / "motion.csv", bundle.motion)
        write_matrix_csv(sub_dir / "aroma.csv", bundle.aroma.values, bundle.aroma.column_labels)
        write_matrix_csv(sub_dir / "physio.csv", bundle.physio.values, bundle.physio.column_labels)
        sid = bundle.subject_id
        subjects.append(SubjectPaths(sid, **{name: f"{sid}/{name}.csv" for name in SUBJECT_FILES}))
    manifest_path = out_dir / "manifest.json"
    _write_record(manifest_path, CohortManifest("parcellation.csv", tuple(subjects)))
    return manifest_path


def load_manifest(manifest_path: Path) -> tuple[CohortManifest, Path]:
    """Read and validate a manifest; returns it with its base directory."""
    manifest_path = Path(manifest_path)
    manifest = _read_record(manifest_path, CohortManifest)
    base = manifest_path.parent
    if not (base / manifest.parcellation_path).is_file():
        raise FileFormatError(
            f"manifest references missing parcellation file {manifest.parcellation_path!r}"
        )
    for s in manifest.subjects:
        for kind in SUBJECT_FILES:
            rel = getattr(s, kind)
            if not (base / rel).is_file():
                raise FileFormatError(
                    f"subject {s.subject_id!r}: missing {kind} file {rel!r}"
                )
    return manifest, base


def load_bundle(base: Path, paths: SubjectPaths) -> SubjectBundle:
    """Load one subject's four files, naming the subject on failure."""
    with prefixed(f"subject {paths.subject_id!r}"):
        ts_values, ts_labels = read_matrix_csv(base / paths.ts)
        if ts_values.shape[0] < 2 or ts_values.shape[1] < 1:
            raise FileFormatError(
                f"{paths.ts}: timeseries of shape {ts_values.shape} is too small"
            )
        motion = read_motion_csv(base / paths.motion)
        aroma_values, aroma_labels = read_matrix_csv(base / paths.aroma)
        physio_values, physio_labels = read_matrix_csv(base / paths.physio)
        return SubjectBundle(
            subject_id=paths.subject_id,
            ts=SignalMatrix(ts_values, ts_labels),
            motion=motion,
            aroma=DesignMatrix(aroma_values, aroma_labels, RegressorSource.AROMA),
            physio=DesignMatrix(physio_values, physio_labels, RegressorSource.PHYSIO),
        )


def cmd_phantom(config_path: str, out_dir: str) -> PhantomCohort:
    """Generate the cohort a config describes, write it under `out_dir`, and return it."""
    with prefixed("config", as_type=ValidationError):
        cfg = PhantomConfig.from_dict(read_json(Path(config_path)))
    cohort = generate_cohort(cfg)
    manifest_path = write_cohort(cohort, Path(out_dir), cfg)
    print(f"cohort: {cfg.n_subjects} subjects, {cfg.n_rois} ROIs, {cfg.n_timepoints} timepoints")
    print(f"manifest: {manifest_path}")
    return cohort


def correct_cohort(
    bundles: Iterable[SubjectBundle], kind: PipelineKind, out: Path
) -> Iterator[Subject]:
    """Correct and write each subject to `out/<subject_id>.csv`, yielding it as it is written.

    `out` is created just before the first subject is written, so a run that
    fails on its first subject leaves none. After the last subject, writes
    `run_info.json` and prints a summary line.
    """
    spec = PipelineSpec(kind)
    n_subjects = 0
    for n_subjects, bundle in enumerate(bundles, 1):
        with prefixed(f"subject {bundle.subject_id!r}"):
            corrected = run_pipeline(bundle, spec)
            if n_subjects == 1:
                out.mkdir(parents=True, exist_ok=True)
            write_matrix_csv(
                out / f"{bundle.subject_id}.csv", corrected.values, corrected.column_labels
            )
        yield bundle.subject_id, bundle.motion, corrected
    _write_record(out / RUN_INFO_NAME, RunInfo(kind.value, n_subjects))
    print(f"pipeline {kind.value}: wrote {n_subjects} corrected timeseries to {out}")


def cmd_correct(manifest_path: str, pipeline_name: str, out_dir: str) -> None:
    kind = PipelineKind.from_name(pipeline_name)
    manifest, base = load_manifest(Path(manifest_path))
    bundles = (load_bundle(base, paths) for paths in manifest.subjects)
    for _ in correct_cohort(bundles, kind, Path(out_dir)):
        pass


def score_cohort(
    pipeline_name: str,
    parcellation: Parcellation,
    subjects: Iterable[Subject],
    report_path: Path,
    bins: int,
) -> None:
    """Score a cohort with QC-FC and distance dependence; write the report and its histogram CSV.

    Every timeseries must carry the parcellation's ROI labels and as many
    rows as its subject's motion.
    """
    fcs, mfds = [], []
    for subject_id, motion, ts in subjects:
        with prefixed(f"subject {subject_id!r}"):
            if ts.column_labels != parcellation.roi_labels:
                raise SchemaError("ROI labels differ from the parcellation")
            if motion.n_timepoints != ts.n_timepoints:
                raise DimensionError(
                    f"motion has {motion.n_timepoints} rows, timeseries has {ts.n_timepoints}"
                )
            mfds.append(mean_fd(framewise_displacement(motion)))
            fcs.append(fc_matrix(ts))

    report = qcfc(fcs, np.array(mfds))
    rho, p = distance_dependence(report, edge_lengths(parcellation))
    run_report = RunReport(
        pipeline=pipeline_name,
        n_subjects=report.n_subjects,
        n_edges=report.n_edges,
        median_abs_qcfc=report.median_abs_qcfc,
        dist_dependence_rho=rho,
        dist_dependence_p=p,
        undefined_edge_count=report.undefined_edge_count,
        histogram=histogram_points(report.edge_qcfc, bins),
    )
    report_path.parent.mkdir(parents=True, exist_ok=True)
    _write_record(report_path, run_report)
    hist_path = report_path.with_name(report_path.stem + "_histogram.csv")
    atomic_write_text(hist_path, csv_text([("bin_center", "count"), *run_report.histogram]))
    print(f"pipeline: {pipeline_name}")
    print(f"median_abs_qcfc: {run_report.median_abs_qcfc:.6f}")
    print(f"dist_dependence_rho: {run_report.dist_dependence_rho:.6f}")
    print(f"dist_dependence_p: {run_report.dist_dependence_p:.6f}")


def cmd_qc(manifest_path: str, corrected_dir: str | None, report_path: str, bins: int) -> None:
    """Score the raw timeseries (`corrected_dir` None) or a directory written by `correct`."""
    raw = corrected_dir is None
    _require_bins(bins)
    manifest, base = load_manifest(Path(manifest_path))
    parc = read_parcellation_csv(base / manifest.parcellation_path)
    if raw:
        pipeline_name = RAW_PIPELINE_NAME
    else:
        info_path = Path(corrected_dir) / RUN_INFO_NAME
        if not info_path.is_file():
            raise FileFormatError(
                f"{corrected_dir} has no {RUN_INFO_NAME}; run `correct` into this directory first"
            )
        info = _read_record(info_path, RunInfo)
        if info.n_subjects != len(manifest.subjects):
            raise DimensionError(
                f"{info_path}: corrected {info.n_subjects} subjects,"
                f" the manifest lists {len(manifest.subjects)}"
            )
        pipeline_name = info.pipeline

    def subjects() -> Iterator[Subject]:
        for paths in manifest.subjects:
            sid = paths.subject_id
            with prefixed(f"subject {sid!r}"):
                motion = read_motion_csv(base / paths.motion)
                ts_path = base / paths.ts if raw else Path(corrected_dir) / f"{sid}.csv"
                if not raw and not ts_path.is_file():
                    raise FileFormatError(f"missing corrected file {ts_path}")
                ts = SignalMatrix(*read_matrix_csv(ts_path))
            yield sid, motion, ts

    score_cohort(pipeline_name, parc, subjects(), Path(report_path), bins)


def cmd_report(report_paths: list[str], csv_path: str | None = None) -> None:
    reports = [_read_record(Path(p), RunReport) for p in report_paths]
    name_width = max(len("pipeline"), max(len(r.pipeline) for r in reports))
    header = (
        f"{'pipeline':<{name_width}}  {'median_abs_qcfc':>15}  "
        f"{'dist_dep_rho':>12}  {'dist_dep_p':>12}  {'undefined':>9}"
    )
    print(header)
    rows = [COMPARISON_COLUMNS]
    for r in reports:
        print(
            f"{r.pipeline:<{name_width}}  {r.median_abs_qcfc:>15.6f}  "
            f"{r.dist_dependence_rho:>12.6f}  {r.dist_dependence_p:>12.6f}  "
            f"{r.undefined_edge_count:>9d}"
        )
        rows.append([getattr(r, column) for column in COMPARISON_COLUMNS])
    text = csv_text(rows)
    if csv_path is None:
        print()
        print(text, end="")
    else:
        atomic_write_text(Path(csv_path), text)
        print(f"comparison csv: {csv_path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcfc",
        description="Nuisance-regression pipeline comparison and QC-FC metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phantom = sub.add_parser("phantom", help="generate a synthetic cohort")
    p_phantom.add_argument("--config", required=True, help="JSON config path")
    p_phantom.add_argument("--out", required=True, help="output directory")
    p_phantom.set_defaults(run=lambda a: cmd_phantom(a.config, a.out))

    p_correct = sub.add_parser("correct", help="apply a correction pipeline")
    p_correct.add_argument("--manifest", required=True, help="cohort manifest path")
    p_correct.add_argument(
        "--pipeline",
        required=True,
        help="one of: " + ", ".join(k.value for k in PipelineKind),
    )
    p_correct.add_argument("--out", required=True, help="output directory")
    p_correct.set_defaults(run=lambda a: cmd_correct(a.manifest, a.pipeline, a.out))

    p_qc = sub.add_parser("qc", help="compute QC-FC metrics over a cohort")
    p_qc.add_argument("--manifest", required=True, help="cohort manifest path")
    group = p_qc.add_mutually_exclusive_group(required=True)
    group.add_argument("--corrected", help="directory written by `correct`")
    group.add_argument("--raw", action="store_true", help="use uncorrected timeseries")
    p_qc.add_argument("--report", required=True, help="output report JSON path")
    p_qc.add_argument("--bins", type=int, default=50, help="histogram bin count")
    p_qc.set_defaults(run=lambda a: cmd_qc(a.manifest, a.corrected, a.report, a.bins))

    p_report = sub.add_parser("report", help="compare QC reports side by side")
    p_report.add_argument("reports", nargs="+", help="report JSON paths")
    p_report.add_argument("--csv", help="write the combined CSV here")
    p_report.set_defaults(run=lambda a: cmd_report(a.reports, a.csv))
    return parser


# Each documented failure and its exit code; see the module docstring.
EXIT_CODES = {
    ValidationError: 2,
    SchemaError: 2,
    MemoryError: 2,
    OSError: 3,
    FileFormatError: 4,
    DataIntegrityError: 4,
    DimensionError: 4,
    DegenerateInputError: 5,
}


def run_guarded(command, *args) -> int:
    """Call `command(*args)`; map a documented failure to its exit code and one `error:` line."""
    try:
        command(*args)
    except tuple(EXIT_CODES) as e:
        # A bare MemoryError (or OSError) carries no message of its own.
        message = str(e) or ("not enough memory" if isinstance(e, MemoryError) else repr(e))
        print(f"error: {message}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run_guarded(args.run, args)


if __name__ == "__main__":
    sys.exit(main())
