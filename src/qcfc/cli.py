"""Command-line front end: cohort emission, correction, QC, comparison.

Four subcommands cover the full chain:

    qcfc phantom --config cfg.json --out cohort/
    qcfc correct --manifest cohort/manifest.json --pipeline concat --out corr/
    qcfc qc --manifest cohort/manifest.json --corrected corr/ --report qc.json
    qcfc report qc_*.json --csv comparison.csv

`compare` runs their steps for the raw timeseries and every pipeline in one
process (`scripts/run_full_comparison.py`), computing each subject's mean FD
once. Scoring takes each subject as (subject_id, mean FD, timeseries); `qc`
checks a timeseries' ROI labels and motion rows as it loads them. Scoring
computes only each subject's edges, no r x r connectivity matrix, into its
row of one subjects x edges array, and scores that in place, copying at
most one block of its columns at a time.

Formatting floats as text is most of a run's time, so `phantom`, `correct`
and `compare` open one `_Writer` each (README, "Writer processes") and pass
it down to the steps that write subjects' matrix files. Its writers are
fresh interpreters fed over pipes, not `fork`ed: after `import numpy` this
process already runs OpenBLAS threads. A writer is sent the arrays it
writes, such as the corrected matrix that was scored, and does no BLAS work
at all. At most two tasks per writer wait in this process, so the arrays
waiting to be written stay few. `python -m qcfc.cli` runs the
commands of the imported `qcfc.cli`, whose functions and records a writer
can unpickle.

`EXIT_CODES` maps each documented failure to its exit code; README's "Exit
codes" table says which failures each code covers. Paths inside a manifest
are relative to the manifest's directory.
Each output directory (`phantom`'s, `correct`'s, and `compare`'s cohort and
corrected ones) is published whole by `_Writer.stage` and `publish`: built
in a fresh sibling, its index file (`manifest.json`, `run_info.json`)
written last, then swapped into place. So a run that fails or is
interrupted leaves the earlier run as it was. An existing directory that
is neither empty nor holds that index file is refused (exit 2) before any
work, as is one at or under a file, with the error its first write would
raise. `qc` and `report` refuse to write over a file they read, before
reading anything past the manifest. A run that fails reports the error a
one-process run would have reported first, naming the user's paths. A
`qcfc.errors.prefixed` context around each subject's loading, correction
and scoring (never the loop) names that subject once in any error.

The JSON records (config, manifest, `run_info.json`, QC report) are frozen
dataclasses on `qcfc.storage.Record`, which checks each field's type from its
annotation. Each record class adds its own range and path rules
(`PhantomConfig` in `qcfc.phantom`, the others here), and `_read_record`
checks the schema version and names the file in any error.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import pickle
import queue
import shutil
import subprocess
import sys
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext, suppress
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
    _qcfc_edges,
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    mean_fd,
    qcfc,  # not called here; the benchmark's tracer wraps it under this module's name
)
from .phantom import PhantomCohort, PhantomConfig, generate_cohort
from .pipelines import PipelineKind, PipelineSpec, SubjectBundle, run_pipeline
from .regression import DesignMatrix, SignalMatrix
from .storage import (
    Record,
    atomic_write_text,
    csv_text,
    read_json,
    read_matrix_csv,
    read_motion_csv,
    read_parcellation_csv,
    record_from_json,
    temporary_name,
    write_json,
    write_matrix_csv,
    write_motion_csv,
    write_parcellation_csv,
)

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_BINS",
    "SubjectPaths",
    "CohortManifest",
    "RunInfo",
    "RunReport",
    "load_manifest",
    "load_bundle",
    "histogram_points",
    "correct_cohort",
    "score_cohort",
    "compare",
    "ArgumentParser",
    "run_guarded",
    "cmd_phantom",
    "cmd_correct",
    "cmd_qc",
    "cmd_report",
    "main",
]

SCHEMA_VERSION = "1"
DEFAULT_BINS = 50
RAW_PIPELINE_NAME = "raw"
MANIFEST_NAME = "manifest.json"
RUN_INFO_NAME = "run_info.json"
SUBJECT_FILES = ("ts", "motion", "aroma", "physio")
# One subject as the scoring step takes it: (subject_id, mean FD, timeseries).
Subject = tuple[str, float, SignalMatrix]


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
        # A component file may be shared (an empty one, say); a timeseries file may not.
        seen, ts_owners = set(), {}
        for s in self.subjects:
            if s.subject_id in seen:
                raise ValidationError(f"duplicate subject_id {s.subject_id!r} in manifest")
            seen.add(s.subject_id)
            owner = ts_owners.setdefault(PurePosixPath(s.ts), s.subject_id)
            if owner != s.subject_id:
                raise ValidationError(
                    f"subjects {owner!r} and {s.subject_id!r} share the ts file {s.ts!r}"
                )


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
    """Refuse a bin count below 1 or whose edges NumPy cannot index; checked before any I/O."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    # `np.linspace` sizes the edge array from the count rounded to float64,
    # which can round up past what NumPy can index.
    edges, itemsize, limit = bins + 1, np.dtype(np.float64).itemsize, np.iinfo(np.intp).max
    if edges * itemsize > limit or float(edges) * itemsize > limit:
        raise ValidationError(f"bins must be small enough for NumPy to index its edges, got {bins}")


def _refuse_overwrite(option: str, outputs: Iterable[Path], inputs: Iterable[Path]) -> None:
    """Refuse an output path that resolves, symbolic links followed, to one of the inputs'."""
    read = {os.path.realpath(path): path for path in inputs}
    for out in outputs:
        if (same := read.get(os.path.realpath(out))) is not None:
            raise ValidationError(f"{option} would write {out}, which is the input {same}")


def _histogram_path(report_path: Path) -> Path:
    return report_path.with_name(report_path.stem + "_histogram.csv")


def histogram_points(edge_qcfc: np.ndarray, bins: int) -> tuple[tuple[float, int], ...]:
    """Uniform-bin histogram of the defined QC-FC values over [-1, 1]."""
    _require_bins(bins)
    defined = edge_qcfc[~np.isnan(edge_qcfc)]
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(defined, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return tuple((float(c), int(k)) for c, k in zip(centers, counts))


# A writer process takes about 0.45 s of CPU to start (a fresh interpreter
# importing NumPy and qcfc) and formats about a million floats a second.
# Measured on 2 CPUs: two writers break even at about 0.6 million timeseries
# values and save a fifth of `phantom`'s time at 1.2 million, while one
# writer makes `phantom` slower (the main process only waits for it) and on
# one CPU any writer shares the main process's core. Hence one writer per
# half million values, and none unless there would be two. The cap bounds
# the memory held by writers that would mostly wait: in `compare`, the main
# process uses about 0.4 s of CPU per second of a writer's (0.36-0.38 at
# reference scale on 2 CPUs), so it keeps at most two or three busy.
_VALUES_PER_WRITER = 500_000
_MAX_WRITERS = 4
# What a writer process runs. It ignores an interrupt: the main process decides what stops.
_SERVE_CODE = (
    "import signal; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "import qcfc.cli; qcfc.cli._serve()"
)


def _writer_count(n_values: int, cpus: int) -> int:
    """Writer processes for a command that writes `n_values` timeseries values on `cpus` CPUs.

    0 means the calling process writes every file itself.
    """
    workers = min(cpus, _MAX_WRITERS, n_values // _VALUES_PER_WRITER)
    return workers if workers > 1 else 0


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve() -> None:
    """A writer process's loop: run each pickled `(task, args)` read from stdin as `task(*args)`.

    A request is its length (8 bytes), then the pickle, so one that cannot
    be unpickled is read whole and answered. Answers each task on stdout
    with None or the exception it raised, and returns when stdin closes.
    """
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # keeps any stray print off the reply pipe
    while header := requests.read(8):
        request = requests.read(int.from_bytes(header, "little"))
        try:
            task, args = pickle.loads(request)
        except Exception as e:
            reply = OSError(f"a writer could not load its task: {e}")
        else:
            try:
                task(*args)
                reply = None
            except Exception as e:
                reply = e
        try:
            data = pickle.dumps(reply)
        except Exception:
            data = pickle.dumps(OSError(str(reply)))
        replies.write(data)
        replies.flush()


class _Writer:
    """Runs file-writing tasks in `workers` processes, or at once in this one if `workers` is 0.

    `submit` queues a task and returns; a thread of this process hands it
    to an idle writer and waits for the answer. At most 2 x `workers` tasks
    wait, those running included: `submit` first waits for the oldest
    until there is room, so the arrays a task holds cannot pile up. A task
    is a module-level function (this module's `_write_*`), pickled by
    reference, so replacing `write_matrix_csv` in this module, as a tracer
    does, changes nothing a writer runs. A task whose function or arguments a
    writer cannot unpickle fails with "a writer could not load its task",
    exit code 3, and the writer goes on serving. Failures are raised in
    submission order, as serial writes would raise them: `submit` first
    raises that of the oldest finished task, so a failed write stops the
    caller early, and `wait` waits for every task. A failed task stays
    first in line, so every later call raises it again at once. Leaving the
    `with` block waits the same way (so a write that failed before the
    block's own error is the one raised; an interrupt does not wait), then
    cancels the tasks not yet started, lets the running ones finish, closes
    the writers' pipes and waits for them to exit. Writers start with
    `OPENBLAS_NUM_THREADS=1`: they do no BLAS work at all, so no OpenBLAS
    thread pool need start (and spin) in them. `stage` and `publish` swap
    whole output directories in; leaving the block removes each staged one
    not published, once no task can write into it, and an OSError naming a
    file in one then names the user's path instead.
    """

    def __init__(self, workers: int):
        self._staged: dict[Path, tuple[Path, Path]] = {}  # staged: (real place, user's path)
        self._pending: deque[Future] = deque()
        self._idle: queue.SimpleQueue[subprocess.Popen] = queue.SimpleQueue()
        self._procs: list[subprocess.Popen] = []
        self._threads = ThreadPoolExecutor(workers) if workers else None
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
            OPENBLAS_NUM_THREADS="1",
        )
        try:
            for _ in range(workers):
                self._procs.append(
                    subprocess.Popen(
                        [sys.executable, "-c", _SERVE_CODE],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        env=env,
                    )
                )
                self._idle.put(self._procs[-1])
        except BaseException:
            self._close()
            raise

    def submit(self, task, *args) -> None:
        """Run `task(*args)` now without writer processes; else queue it once there is room."""
        if self._threads is None:
            task(*args)
            return
        self._collect(keep=2 * len(self._procs) - 1)
        self._pending.append(self._threads.submit(self._run, task, args))

    def _run(self, task, args: tuple) -> None:
        """In a thread of this process: have an idle writer run a task; raise what it raised."""
        request = pickle.dumps((task, args))
        proc = self._idle.get()
        try:
            proc.stdin.write(len(request).to_bytes(8, "little"))
            proc.stdin.write(request)
            proc.stdin.flush()
            reply = pickle.load(proc.stdout)
        except Exception:
            # A writer that stops answering is stopped; its later tasks fail here at once.
            proc.kill()
            raise OSError(f"a writer process ended abruptly (exit status {proc.wait()})") from None
        finally:
            self._idle.put(proc)
        if reply is not None:
            raise reply

    def wait(self) -> None:
        """Wait for every submitted task; raise the first failure in submission order."""
        self._collect(keep=0)

    def _collect(self, keep: int) -> None:
        """Retire finished tasks in order until at most `keep` remain; raise the first failure."""
        while self._pending and (len(self._pending) > keep or self._pending[0].done()):
            self._pending[0].result()
            self._pending.popleft()

    def _close(self) -> None:
        """Cancel the tasks not yet started and let the running ones finish.

        Then close every writer's pipes and wait for it to exit.
        """
        if self._threads is not None:
            self._threads.shutdown(cancel_futures=True)
        for proc in self._procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
            proc.wait()
            proc.stdout.close()

    def __enter__(self) -> "_Writer":
        return self

    def stage(self, out: Path, index: str) -> Path:
        """A fresh sibling (`temporary_name`) for `out`'s next run; `out` must pass `_require_out`."""
        _require_out(out, index, index)
        real = Path(os.path.realpath(out))
        staged = temporary_name(real)
        self._staged[staged] = (real, Path(out))
        return staged

    def publish(self, staged: Path) -> None:
        """Rename the run in `staged`'s place aside, then `staged` into it; delete the old run."""
        real, _ = self._staged[staged]
        aside = temporary_name(real, ".old.tmp")
        with suppress(FileNotFoundError):
            os.rename(real, aside)
        os.rename(staged, real)
        del self._staged[staged]
        shutil.rmtree(aside, ignore_errors=True)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None or issubclass(exc_type, Exception):
                self.wait()
        except OSError as e:
            exc = e
            raise
        finally:
            self._close()
            for staged, (_, out) in self._staged.items():
                shutil.rmtree(staged, ignore_errors=True)
                name = str(exc.filename) if isinstance(exc, OSError) else ""
                if name.startswith(str(staged)):
                    exc.filename = str(out) + name[len(str(staged)) :]


def _writer_for(n_values: int) -> _Writer:
    """A writer for a command that writes `n_values` timeseries values on this process's CPUs."""
    return _Writer(_writer_count(n_values, _usable_cpus()))


def _write_subject(
    bundle: SubjectBundle, ts: Path, motion: Path, aroma: Path, physio: Path
) -> None:
    """Writer task: one subject's timeseries, motion, component and physio files."""
    write_matrix_csv(ts, bundle.ts.values, bundle.ts.column_labels)
    write_motion_csv(motion, bundle.motion)
    write_matrix_csv(aroma, bundle.aroma.values, bundle.aroma.column_labels)
    write_matrix_csv(physio, bundle.physio.values, bundle.physio.column_labels)


def _write_corrected(path: Path, corrected: SignalMatrix) -> None:
    """Writer task: one subject's corrected timeseries."""
    write_matrix_csv(path, corrected.values, corrected.column_labels)


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
        with prefixed(paths.aroma):
            aroma = DesignMatrix(aroma_values, aroma_labels)
        with prefixed(paths.physio):
            physio = DesignMatrix(physio_values, physio_labels)
        return SubjectBundle(
            subject_id=paths.subject_id,
            ts=SignalMatrix(ts_values, ts_labels),
            motion=motion,
            aroma=aroma,
            physio=physio,
        )


def _read_config(config_path: str) -> PhantomConfig:
    with prefixed("config", as_type=ValidationError):
        return PhantomConfig.from_dict(read_json(Path(config_path)))


def _require_out(out: Path, index: str, first: str) -> None:
    """Refuse an output directory `out` that a run could not replace whole; creates nothing.

    A file at or above `out` raises the error that writing its first file,
    `first`, would raise. An existing directory must be empty or hold an
    earlier run, whose index file is `index` (ValidationError otherwise).
    """
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                first = str(out / first)
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), first)
            if path == out and not (out / index).is_file() and any(out.iterdir()):
                raise ValidationError(
                    f"{out} is not empty and holds no {index}: only an empty directory"
                    " or an earlier run of this command is replaced"
                )
            return


def _timeseries_values(cfg: PhantomConfig) -> int:
    """Values in a cohort's timeseries, which dominate what a command writes for it."""
    return cfg.n_subjects * cfg.n_timepoints * cfg.n_rois


def cmd_phantom(config_path: str, out_dir: str, writer: _Writer | None = None) -> PhantomCohort:
    """Generate the cohort a config describes, write it under `out_dir`, and return it.

    Writes the parcellation, truth matrix, config and per-subject files (the
    subjects' through `writer`, left open, or else one of its own), then the
    manifest once they all are, and publishes the directory.
    """
    cfg = _read_config(config_path)
    out = Path(out_dir)
    _require_out(out, MANIFEST_NAME, "parcellation.csv")
    # Writer processes start before the cohort is generated, so their imports overlap it.
    with _writer_for(_timeseries_values(cfg)) if writer is None else nullcontext(writer) as writer:
        staged = writer.stage(out, MANIFEST_NAME)
        cohort = generate_cohort(cfg)
        write_parcellation_csv(staged / "parcellation.csv", cohort.parcellation)
        truth = cohort.truth_fc
        write_matrix_csv(staged / "truth_fc.csv", truth.values, truth.roi_labels)
        write_json(staged / "config.json", asdict(cfg))
        subjects = []
        for bundle in cohort.bundles:
            sid = bundle.subject_id
            paths = SubjectPaths(sid, **{name: f"{sid}/{name}.csv" for name in SUBJECT_FILES})
            files = (staged / getattr(paths, name) for name in SUBJECT_FILES)
            writer.submit(_write_subject, bundle, *files)
            subjects.append(paths)
        writer.wait()
        _write_record(staged / MANIFEST_NAME, CohortManifest("parcellation.csv", tuple(subjects)))
        writer.publish(staged)
    print(f"cohort: {cfg.n_subjects} subjects, {cfg.n_rois} ROIs, {cfg.n_timepoints} timepoints")
    print(f"manifest: {out / MANIFEST_NAME}")
    return cohort


def correct_cohort(
    bundles: Iterable[SubjectBundle], kind: PipelineKind, out: Path, writer: _Writer
) -> Iterator[tuple[str, SignalMatrix]]:
    """Correct and write each subject to `out/<subject_id>.csv`, yielding it once it is handed on.

    The files go through `writer`, into the directory it stages for `out`.
    After the last subject, waits for every file, then writes
    `run_info.json`, publishes the directory and prints a summary line.
    """
    staged = writer.stage(out, RUN_INFO_NAME)
    spec = PipelineSpec(kind)
    n_subjects = 0
    for n_subjects, bundle in enumerate(bundles, 1):
        with prefixed(f"subject {bundle.subject_id!r}"):
            corrected = run_pipeline(bundle, spec)
        writer.submit(_write_corrected, staged / f"{bundle.subject_id}.csv", corrected)
        yield bundle.subject_id, corrected
    writer.wait()
    _write_record(staged / RUN_INFO_NAME, RunInfo(kind.value, n_subjects))
    writer.publish(staged)
    print(f"pipeline {kind.value}: wrote {n_subjects} corrected timeseries to {out}")


def cmd_correct(manifest_path: str, pipeline_name: str, out_dir: str) -> None:
    """Correct every subject of a manifest into `out_dir`, which must not hold the manifest."""
    kind = PipelineKind.from_name(pipeline_name)
    manifest, base = load_manifest(Path(manifest_path))
    if Path(os.path.realpath(base)).is_relative_to(os.path.realpath(out_dir)):
        raise ValidationError(f"--out {out_dir} would replace the manifest's directory {base}")
    _require_out(Path(out_dir), RUN_INFO_NAME, f"{manifest.subjects[0].subject_id}.csv")
    bundles = (load_bundle(base, paths) for paths in manifest.subjects)
    first = next(bundles)
    with _writer_for(len(manifest.subjects) * first.ts.values.size) as writer:
        for _ in correct_cohort(itertools.chain([first], bundles), kind, Path(out_dir), writer):
            pass


def score_cohort(
    pipeline_name: str,
    lengths: np.ndarray,
    subjects: Iterable[Subject],
    n_subjects: int,
    report_path: Path,
    bins: int,
) -> None:
    """Score a cohort with QC-FC and distance dependence; write the report and its histogram CSV.

    `subjects` yields `n_subjects` subjects, each with its mean FD and with a
    timeseries that already carries the ROI labels of the parcellation with
    these `edge_lengths`. `fc_matrix` computes only the subject's edges,
    which fill its row of one subjects x edges array, and scoring that
    array (`_qcfc_edges`) adds a copy of at most one block of edges.
    """
    edges = np.empty((n_subjects, lengths.size))
    ids, mfds = [], []
    for row, (subject_id, mfd, ts) in zip(edges, subjects, strict=True):
        with prefixed(f"subject {subject_id!r}"):
            row[:] = fc_matrix(ts).upper_triangle()
        ids.append(subject_id)
        mfds.append(mfd)
    report = _qcfc_edges(edges, np.array(mfds), ids)
    rho, p = distance_dependence(report, lengths)
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
    _write_record(report_path, run_report)
    hist_text = csv_text([("bin_center", "count"), *run_report.histogram])
    atomic_write_text(_histogram_path(report_path), hist_text)
    print(f"pipeline: {pipeline_name}")
    print(f"median_abs_qcfc: {run_report.median_abs_qcfc:.6f}")
    print(f"dist_dependence_rho: {run_report.dist_dependence_rho:.6f}")
    print(f"dist_dependence_p: {run_report.dist_dependence_p:.6f}")


def cmd_qc(manifest_path: str, corrected_dir: str | None, report_path: str, bins: int) -> None:
    """Score the raw timeseries (`corrected_dir` None) or a directory written by `correct`.

    Refuses a report, or its histogram CSV, at the path of a file it reads.
    """
    raw = corrected_dir is None
    _require_bins(bins)
    manifest, base = load_manifest(Path(manifest_path))
    ts_dir = base if raw else Path(corrected_dir)
    info_path = ts_dir / RUN_INFO_NAME
    ts_paths = [ts_dir / (p.ts if raw else f"{p.subject_id}.csv") for p in manifest.subjects]
    inputs = [Path(manifest_path), base / manifest.parcellation_path, *ts_paths]
    inputs += [base / p.motion for p in manifest.subjects]
    if not raw:
        inputs.append(info_path)
    report = Path(report_path)
    _refuse_overwrite("--report", [report, _histogram_path(report)], inputs)
    parc = read_parcellation_csv(base / manifest.parcellation_path)
    with prefixed(manifest.parcellation_path):
        lengths = edge_lengths(parc)
    if raw:
        pipeline_name = RAW_PIPELINE_NAME
    else:
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
        for paths, ts_path in zip(manifest.subjects, ts_paths):
            sid = paths.subject_id
            with prefixed(f"subject {sid!r}"):
                motion = read_motion_csv(base / paths.motion)
                if not raw and not ts_path.is_file():
                    raise FileFormatError(f"missing corrected file {ts_path}")
                ts = SignalMatrix(*read_matrix_csv(ts_path))
                if ts.column_labels != parc.roi_labels:
                    raise SchemaError("ROI labels differ from the parcellation")
                if motion.n_timepoints != ts.n_timepoints:
                    raise DimensionError(
                        f"motion has {motion.n_timepoints} rows, timeseries has {ts.n_timepoints}"
                    )
                mfd = mean_fd(framewise_displacement(motion))
            yield sid, mfd, ts

    score_cohort(pipeline_name, lengths, subjects(), len(manifest.subjects), report, bins)


def compare(config_path: str, work: Path, bins: int) -> None:
    """Run `phantom`, `qc --raw`, `correct` and `qc --corrected` per pipeline, and `report`.

    Writes what those commands would under `work`, each file once, and
    computes each subject's mean FD once, for every report. One set of
    writer processes serves the whole run.
    """
    _require_bins(bins)
    # The cohort's timeseries, then each pipeline's corrected ones.
    n_values = (1 + len(PipelineKind)) * _timeseries_values(_read_config(config_path))
    _require_out(work / "cohort", MANIFEST_NAME, "parcellation.csv")
    for kind in PipelineKind:
        _require_out(work / f"corrected_{kind.value}", RUN_INFO_NAME, RUN_INFO_NAME)
    with _writer_for(n_values) as writer:
        cohort = cmd_phantom(config_path, work / "cohort", writer)
        mfds = {}
        for b in cohort.bundles:
            with prefixed(f"subject {b.subject_id!r}"):
                mfds[b.subject_id] = mean_fd(framewise_displacement(b.motion))
        lengths = edge_lengths(cohort.parcellation)
        runs = {RAW_PIPELINE_NAME: ((b.subject_id, b.ts) for b in cohort.bundles)}
        for kind in PipelineKind:
            out = work / f"corrected_{kind.value}"
            runs[kind.value] = correct_cohort(cohort.bundles, kind, out, writer)
        for name, timeseries in runs.items():
            subjects = ((sid, mfds[sid], ts) for sid, ts in timeseries)
            report = work / f"qc_{name}.json"
            score_cohort(name, lengths, subjects, len(cohort.bundles), report, bins)
    print()
    cmd_report([str(work / f"qc_{name}.json") for name in runs], str(work / "comparison.csv"))


def cmd_report(report_paths: list[str], csv_path: str | None = None) -> None:
    """Print the reports side by side and write their CSV; all must score one cohort's size.

    Refuses a CSV path that is one of the reports' before reading them.
    """
    if csv_path is not None:
        _refuse_overwrite("--csv", [Path(csv_path)], map(Path, report_paths))
    reports = [_read_record(Path(p), RunReport) for p in report_paths]
    for path, r in zip(report_paths, reports):
        for field in ("n_subjects", "n_edges"):
            first, other = getattr(reports[0], field), getattr(r, field)
            if other != first:
                raise DimensionError(
                    f"{path} has {field} {other}, {report_paths[0]} has {first};"
                    " only reports of one cohort can be compared"
                )
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


class ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as ValidationError: parsed in `run_guarded`, it is one line, exit 2."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
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
    p_qc.add_argument("--bins", type=int, default=DEFAULT_BINS, help="histogram bin count")
    p_qc.set_defaults(run=lambda a: cmd_qc(a.manifest, a.corrected, a.report, a.bins))

    p_report = sub.add_parser("report", help="compare QC reports side by side")
    p_report.add_argument("reports", nargs="+", help="report JSON paths")
    p_report.add_argument("--csv", help="write the combined CSV here")
    p_report.set_defaults(run=lambda a: cmd_report(a.reports, a.csv))
    return parser


# Each documented failure and its exit code; README's "Exit codes" table lists what each covers.
EXIT_CODES = {
    ValidationError: 2,
    SchemaError: 2,
    MemoryError: 2,
    OSError: 3,
    FileFormatError: 4,
    DataIntegrityError: 4,
    DimensionError: 4,
    FloatingPointError: 4,
    DegenerateInputError: 5,
}


def run_guarded(command, *args) -> int:
    """Call `command(*args)`; map a documented failure to its exit code and one `error:` line.

    NumPy raises FloatingPointError in the command, so no float error ends in a warning.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            command(*args)
    except tuple(EXIT_CODES) as e:
        # A bare MemoryError (or OSError) carries no message of its own.
        message = str(e) or ("not enough memory" if isinstance(e, MemoryError) else repr(e))
        print(f"error: {message}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))
    return 0


def main(argv: list[str] | None = None) -> int:
    def command() -> None:
        args = _build_parser().parse_args(argv)
        args.run(args)

    return run_guarded(command)


if __name__ == "__main__":
    # The imported module's commands, so each task and record a writer is sent is `qcfc.cli`'s.
    from qcfc.cli import main

    sys.exit(main())
