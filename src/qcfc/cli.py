"""Command-line front end: cohort emission, correction, QC, comparison.

Four subcommands cover the full chain:

    qcfc phantom --config cfg.json --out cohort/
    qcfc correct --manifest cohort/manifest.json --pipeline concat --out corr/
    qcfc qc --manifest cohort/manifest.json --corrected corr/ --report qc.json
    qcfc report qc_*.json --csv comparison.csv

Exit codes: 0 success; 2 invalid config, unknown pipeline, or schema
mismatch; 3 filesystem failure (unwritable output); 4 malformed or missing
data file; 5 degenerate input (too few subjects, constant mean FD).
Paths inside a manifest are relative to the manifest's directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataIntegrityError,
    DegenerateInputError,
    DimensionError,
    FileFormatError,
    SchemaError,
    ValidationError,
)
from .metrics import (
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    mean_fd,
    qcfc,
)
from .phantom import PhantomConfig, PhantomCohort, generate_cohort
from .pipelines import PipelineKind, PipelineSpec, SubjectBundle, run_pipeline
from .regression import DesignMatrix, RegressorSource, SignalMatrix
from .storage import (
    format_float,
    atomic_write_text,
    read_json,
    read_matrix_csv,
    read_motion_csv,
    read_parcellation_csv,
    write_json,
    write_matrix_csv,
    write_motion_csv,
    write_parcellation_csv,
)

__all__ = [
    "SCHEMA_VERSION",
    "SubjectPaths",
    "CohortManifest",
    "RunReport",
    "write_cohort",
    "load_manifest",
    "load_bundle",
    "histogram_points",
    "cmd_phantom",
    "cmd_correct",
    "cmd_qc",
    "cmd_report",
    "main",
]

SCHEMA_VERSION = "1"
RAW_PIPELINE_NAME = "raw"
RUN_INFO_NAME = "run_info.json"


@dataclass(frozen=True)
class SubjectPaths:
    """Relative file locations for one subject, as stored in the manifest."""

    subject_id: str
    ts: str
    motion: str
    aroma: str
    physio: str


@dataclass(frozen=True)
class CohortManifest:
    schema_version: str
    parcellation_path: str
    subjects: tuple[SubjectPaths, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "parcellation_path": self.parcellation_path,
            "subjects": [
                {
                    "subject_id": s.subject_id,
                    "ts": s.ts,
                    "motion": s.motion,
                    "aroma": s.aroma,
                    "physio": s.physio,
                }
                for s in self.subjects
            ],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CohortManifest":
        if not isinstance(raw, dict):
            raise ValidationError("manifest must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported manifest schema_version {version!r}, expected {SCHEMA_VERSION!r}"
            )
        if "parcellation_path" not in raw:
            raise ValidationError("manifest is missing parcellation_path")
        entries = raw.get("subjects")
        if not isinstance(entries, list) or not entries:
            raise ValidationError("manifest must list at least one subject")
        subjects = []
        seen = set()
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValidationError(f"manifest subject {k} is not an object")
            missing = [
                key
                for key in ("subject_id", "ts", "motion", "aroma", "physio")
                if key not in entry
            ]
            if missing:
                raise ValidationError(f"manifest subject {k} is missing {missing[0]!r}")
            sid = str(entry["subject_id"])
            if sid in ("", ".", "..") or "/" in sid or "\\" in sid:
                raise ValidationError(
                    f"manifest subject {k}: subject_id {sid!r} must be a single "
                    "path component (no '/' or '\\', not empty, '.' or '..')"
                )
            if sid in seen:
                raise ValidationError(f"duplicate subject_id {sid!r} in manifest")
            seen.add(sid)
            subjects.append(
                SubjectPaths(
                    subject_id=sid,
                    ts=str(entry["ts"]),
                    motion=str(entry["motion"]),
                    aroma=str(entry["aroma"]),
                    physio=str(entry["physio"]),
                )
            )
        return cls(SCHEMA_VERSION, str(raw["parcellation_path"]), tuple(subjects))


@dataclass(frozen=True)
class RunReport:
    """Figure-ready summary of one QC run over one corrected cohort."""

    pipeline: str
    n_subjects: int
    n_edges: int
    median_abs_qcfc: float
    dist_dependence_rho: float
    dist_dependence_p: float
    undefined_edge_count: int
    histogram: tuple[tuple[float, int], ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "pipeline": self.pipeline,
            "n_subjects": self.n_subjects,
            "n_edges": self.n_edges,
            "median_abs_qcfc": self.median_abs_qcfc,
            "dist_dependence_rho": self.dist_dependence_rho,
            "dist_dependence_p": self.dist_dependence_p,
            "undefined_edge_count": self.undefined_edge_count,
            "histogram": [[center, count] for center, count in self.histogram],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunReport":
        if not isinstance(raw, dict):
            raise SchemaError("report must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported report schema_version {version!r}, expected {SCHEMA_VERSION!r}"
            )
        try:
            return cls(
                pipeline=str(raw["pipeline"]),
                n_subjects=int(raw["n_subjects"]),
                n_edges=int(raw["n_edges"]),
                median_abs_qcfc=float(raw["median_abs_qcfc"]),
                dist_dependence_rho=float(raw["dist_dependence_rho"]),
                dist_dependence_p=float(raw["dist_dependence_p"]),
                undefined_edge_count=int(raw["undefined_edge_count"]),
                histogram=tuple(
                    (float(center), int(count)) for center, count in raw["histogram"]
                ),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"report is missing or mistypes a field: {e}") from e


def histogram_points(edge_qcfc: np.ndarray, bins: int) -> tuple[tuple[float, int], ...]:
    """Uniform-bin histogram of the defined QC-FC values over [-1, 1]."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
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
        rel = Path(bundle.subject_id)
        subjects.append(
            SubjectPaths(
                subject_id=bundle.subject_id,
                ts=(rel / "ts.csv").as_posix(),
                motion=(rel / "motion.csv").as_posix(),
                aroma=(rel / "aroma.csv").as_posix(),
                physio=(rel / "physio.csv").as_posix(),
            )
        )
    manifest = CohortManifest(SCHEMA_VERSION, "parcellation.csv", tuple(subjects))
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest.to_dict())
    return manifest_path


def load_manifest(manifest_path: Path) -> tuple[CohortManifest, Path]:
    """Read and validate a manifest; returns it with its base directory."""
    manifest_path = Path(manifest_path)
    manifest = CohortManifest.from_dict(read_json(manifest_path))
    base = manifest_path.parent
    if not (base / manifest.parcellation_path).is_file():
        raise FileFormatError(
            f"manifest references missing parcellation file {manifest.parcellation_path!r}"
        )
    for s in manifest.subjects:
        for kind, rel in (
            ("ts", s.ts),
            ("motion", s.motion),
            ("aroma", s.aroma),
            ("physio", s.physio),
        ):
            if not (base / rel).is_file():
                raise FileFormatError(
                    f"subject {s.subject_id!r}: missing {kind} file {rel!r}"
                )
    return manifest, base


def load_bundle(base: Path, paths: SubjectPaths) -> SubjectBundle:
    """Load one subject's four files, naming the subject on failure."""
    try:
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
    except (FileFormatError, DimensionError, DataIntegrityError) as e:
        raise FileFormatError(f"subject {paths.subject_id!r}: {e}") from e


def cmd_phantom(config_path: str, out_dir: str) -> int:
    try:
        raw = read_json(Path(config_path))
    except FileFormatError as e:
        raise ValidationError(f"config: {e}") from e
    cfg = PhantomConfig.from_dict(raw)
    cohort = generate_cohort(cfg)
    manifest_path = write_cohort(cohort, Path(out_dir), cfg)
    print(
        f"cohort: {cfg.n_subjects} subjects, {cfg.n_rois} ROIs, "
        f"{cfg.n_timepoints} timepoints"
    )
    print(f"manifest: {manifest_path}")
    return 0


def cmd_correct(manifest_path: str, pipeline_name: str, out_dir: str) -> int:
    kind = PipelineKind.from_name(pipeline_name)
    manifest, base = load_manifest(Path(manifest_path))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = PipelineSpec(kind)
    for paths in manifest.subjects:
        bundle = load_bundle(base, paths)
        corrected = run_pipeline(bundle, spec)
        write_matrix_csv(
            out / f"{paths.subject_id}.csv", corrected.values, corrected.column_labels
        )
    write_json(
        out / RUN_INFO_NAME,
        {
            "schema_version": SCHEMA_VERSION,
            "pipeline": kind.value,
            "n_subjects": len(manifest.subjects),
        },
    )
    print(f"pipeline {kind.value}: wrote {len(manifest.subjects)} corrected timeseries to {out}")
    return 0


def _corrected_pipeline_name(corrected_dir: Path) -> str:
    info_path = corrected_dir / RUN_INFO_NAME
    if not info_path.is_file():
        raise FileFormatError(
            f"{corrected_dir} has no {RUN_INFO_NAME}; run `correct` into this directory first"
        )
    info = read_json(info_path)
    if not isinstance(info, dict) or info.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"{info_path}: unsupported or missing schema_version")
    name = info.get("pipeline")
    if not isinstance(name, str):
        raise SchemaError(f"{info_path}: missing pipeline name")
    return name


def cmd_qc(
    manifest_path: str,
    corrected_dir: str | None,
    raw: bool,
    report_path: str,
    bins: int = 50,
) -> int:
    if raw == (corrected_dir is not None):
        raise ValidationError("exactly one of --corrected and --raw is required")
    manifest, base = load_manifest(Path(manifest_path))
    parc = read_parcellation_csv(base / manifest.parcellation_path)

    if raw:
        pipeline_name = RAW_PIPELINE_NAME
    else:
        pipeline_name = _corrected_pipeline_name(Path(corrected_dir))

    fcs = []
    mfds = []
    for paths in manifest.subjects:
        motion = read_motion_csv(base / paths.motion)
        mfds.append(mean_fd(framewise_displacement(motion)))
        if raw:
            ts_path = base / paths.ts
        else:
            ts_path = Path(corrected_dir) / f"{paths.subject_id}.csv"
            if not ts_path.is_file():
                raise FileFormatError(
                    f"subject {paths.subject_id!r}: missing corrected file {ts_path}"
                )
        try:
            values, labels = read_matrix_csv(ts_path)
        except FileFormatError as e:
            raise FileFormatError(f"subject {paths.subject_id!r}: {e}") from e
        if labels != parc.roi_labels:
            raise SchemaError(
                f"subject {paths.subject_id!r}: ROI labels differ from the parcellation"
            )
        fcs.append(fc_matrix(SignalMatrix(values, labels)))

    report = qcfc(fcs, np.array(mfds))
    rho, p = distance_dependence(report, edge_lengths(parc))
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
    report_file = Path(report_path)
    if report_file.parent and not report_file.parent.exists():
        report_file.parent.mkdir(parents=True, exist_ok=True)
    write_json(report_file, run_report.to_dict())
    hist_path = report_file.with_name(report_file.stem + "_histogram.csv")
    lines = ["bin_center,count"]
    lines.extend(f"{format_float(c)},{k}" for c, k in run_report.histogram)
    atomic_write_text(hist_path, "\n".join(lines) + "\n")
    print(f"pipeline: {pipeline_name}")
    print(f"median_abs_qcfc: {run_report.median_abs_qcfc:.6f}")
    print(f"dist_dependence_rho: {run_report.dist_dependence_rho:.6f}")
    print(f"dist_dependence_p: {run_report.dist_dependence_p:.6f}")
    return 0


def cmd_report(report_paths: list[str], csv_path: str | None = None) -> int:
    reports = [RunReport.from_dict(read_json(Path(p))) for p in report_paths]
    name_width = max(len("pipeline"), max(len(r.pipeline) for r in reports))
    header = (
        f"{'pipeline':<{name_width}}  {'median_abs_qcfc':>15}  "
        f"{'dist_dep_rho':>12}  {'dist_dep_p':>12}  {'undefined':>9}"
    )
    print(header)
    for r in reports:
        print(
            f"{r.pipeline:<{name_width}}  {r.median_abs_qcfc:>15.6f}  "
            f"{r.dist_dependence_rho:>12.6f}  {r.dist_dependence_p:>12.6f}  "
            f"{r.undefined_edge_count:>9d}"
        )
    lines = ["pipeline,n_subjects,median_abs_qcfc,dist_dependence_rho,dist_dependence_p,undefined_edge_count"]
    for r in reports:
        lines.append(
            f"{r.pipeline},{r.n_subjects},{format_float(r.median_abs_qcfc)},"
            f"{format_float(r.dist_dependence_rho)},{format_float(r.dist_dependence_p)},"
            f"{r.undefined_edge_count}"
        )
    csv_text = "\n".join(lines) + "\n"
    if csv_path is None:
        print()
        print(csv_text, end="")
    else:
        atomic_write_text(Path(csv_path), csv_text)
        print(f"comparison csv: {csv_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcfc",
        description="Nuisance-regression pipeline comparison and QC-FC metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phantom = sub.add_parser("phantom", help="generate a synthetic cohort")
    p_phantom.add_argument("--config", required=True, help="JSON config path")
    p_phantom.add_argument("--out", required=True, help="output directory")

    p_correct = sub.add_parser("correct", help="apply a correction pipeline")
    p_correct.add_argument("--manifest", required=True, help="cohort manifest path")
    p_correct.add_argument(
        "--pipeline",
        required=True,
        help="one of: " + ", ".join(k.value for k in PipelineKind),
    )
    p_correct.add_argument("--out", required=True, help="output directory")

    p_qc = sub.add_parser("qc", help="compute QC-FC metrics over a cohort")
    p_qc.add_argument("--manifest", required=True, help="cohort manifest path")
    group = p_qc.add_mutually_exclusive_group(required=True)
    group.add_argument("--corrected", help="directory written by `correct`")
    group.add_argument("--raw", action="store_true", help="use uncorrected timeseries")
    p_qc.add_argument("--report", required=True, help="output report JSON path")
    p_qc.add_argument("--bins", type=int, default=50, help="histogram bin count")

    p_report = sub.add_parser("report", help="compare QC reports side by side")
    p_report.add_argument("reports", nargs="+", help="report JSON paths")
    p_report.add_argument("--csv", help="write the combined CSV here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "phantom":
            return cmd_phantom(args.config, args.out)
        if args.command == "correct":
            return cmd_correct(args.manifest, args.pipeline, args.out)
        if args.command == "qc":
            return cmd_qc(args.manifest, args.corrected, args.raw, args.report, args.bins)
        if args.command == "report":
            return cmd_report(args.reports, args.csv)
        raise ValidationError(f"unknown command {args.command!r}")
    except (ValidationError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except DegenerateInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except (DataIntegrityError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
