"""Measurement, output checks and reporting for one benchmark run; see run.py."""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import workloads
from qcfc.errors import QcfcError
from run import BENCH_DIR, ROOT
from tracer import Tracer
from workloads import CLI_COMMANDS, PIPELINES, REPORTS, SEQUENTIAL

SETUP_PROBES = 5
PROBE = "import sys; sys.path[:0] = sys.argv[1:]; import bench"
# The in-memory workloads' last bits depend on the BLAS thread count (at
# paper scale, 1 and 2 threads differ by about 1e-16 relative), so their
# recorded values are matched to this tolerance. The chain's comparison.csv
# did not change with the thread count and is compared byte for byte.
REL_TOL = 1e-9


@dataclass
class Sample:
    """One comparison: how long it took and what it produced.

    `rows` is None when the comparison raised or the script failed.
    `outputs` identifies everything it produced, to compare traced and
    untraced runs: a digest of the written tree, or the rows themselves.
    """

    wall_s: float
    cpu_s: float
    rows: dict | None
    csv_sha256: str | None
    outputs: str
    bytes_written: int
    tracer: Tracer | None


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def comparison(driver: str, config: dict, workdir: Path, traced: bool, digest_tree: bool) -> Sample:
    """Run one comparison, timed; with `traced`, inside fresh spans.

    `digest_tree` makes the chain's outputs the digest of every file it
    wrote rather than its summary rows.
    """
    tracer = Tracer() if traced else None
    if tracer is not None:
        workloads.install_trace(tracer, driver)
    csv = rows = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        if driver == "chain":
            csv = workloads.run_chain(ROOT, config, workdir)
        else:
            rows = workloads.run_in_memory(config)
    except (workloads.ChainFailed, QcfcError, OSError) as e:
        print(f"comparison failed: {e}", file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.restore()
    written = 0
    outputs = repr(rows)
    if csv is not None:
        rows = workloads.parse_comparison_csv(csv)
    if workdir.exists():
        written = sum(f.stat().st_size for f in (workdir / "run").rglob("*") if f.is_file())
        outputs = tree_digest(workdir / "run") if digest_tree else repr(rows)
        shutil.rmtree(workdir)
    csv_sha256 = hashlib.sha256(csv).hexdigest() if csv is not None else None
    return Sample(wall, cpu, rows, csv_sha256, outputs, written, tracer)


def paper_effect(rows: dict) -> bool:
    """Concat beats both sequential orderings on median |QC-FC| and on |rho|."""
    concat = rows["concat"]
    return all(
        concat[0] < rows[seq][0] and abs(concat[1]) < abs(rows[seq][1]) for seq in SEQUENTIAL
    )


def matches(row: tuple, recorded: list) -> bool:
    """A summary row equals the recorded one: floats to REL_TOL, the count exactly."""
    median, rho, _p, undefined = row
    return (
        math.isclose(median, recorded[0], rel_tol=REL_TOL)
        and math.isclose(rho, recorded[1], rel_tol=REL_TOL)
        and undefined == recorded[2]
    )


def failed_reports(sample: Sample, golden) -> set[str]:
    """Names of the reports that disagree with the recorded outputs.

    `golden` is the comparison.csv digest for the chain, and the recorded
    rows for an in-memory workload. Concat also fails when the paper's
    effect does not show.
    """
    rows = sample.rows
    if rows is None or set(rows) != set(REPORTS):
        return set(REPORTS)
    if sample.csv_sha256 is not None:
        bad = set() if sample.csv_sha256 == golden else set(REPORTS)
    else:
        bad = {name for name in REPORTS if not matches(rows[name], golden[name])}
    if not paper_effect(rows):
        bad.add("concat")
    return bad


def measure_setup(probes: int) -> list[float]:
    """Wall time for fresh interpreters to import the benchmark and the package."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", PROBE, str(ROOT / "src"), str(BENCH_DIR)],
            check=True,
            cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def layer_metrics(sample: Sample, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced comparison.

    `<layer>.<name>.s` is the total time inside those spans, children
    included; `<layer>.self_s` is the layer's self time, outside the spans
    of the layers it calls. `regression.residualize.calls` counts
    least-squares fits: a sequential pipeline makes one per block.
    """
    t = sample.tracer
    total, calls, counts = t.total_s, t.calls, t.counts
    per_subject = [d for p in PIPELINES for d in t.durations_s["pipelines." + p]]
    residualize_s = total["regression.residualize"]
    m = {
        "phantom.generate.s": total["phantom.generate"],
        "phantom.subjects": counts["phantom.subjects"],
    }
    for io in ("read", "write"):
        m[f"storage.{io}.s"] = total["storage." + io]
        m[f"storage.{io}.calls"] = calls["storage." + io]
        m[f"storage.{io}.mb"] = counts[f"storage.{io}.mb"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total["cli." + command]
    m["cli.self_s"] = t.layer_self_s("cli")
    for p in PIPELINES:
        m[f"pipelines.{p}.s"] = total["pipelines." + p]
    m["pipelines.self_s"] = t.layer_self_s("pipelines")
    m["pipelines.subject_p50_ms"] = percentile(per_subject, 50) * 1e3
    m["pipelines.subject_p99_ms"] = percentile(per_subject, 99) * 1e3
    m["regression.residualize.s"] = residualize_s
    m["regression.residualize.calls"] = counts["regression.residualize.fits"]
    m["regression.gflop"] = counts["regression.gflop"]
    m["regression.gflop_per_s"] = counts["regression.gflop"] / residualize_s if residualize_s else 0.0
    for fn in ("fd", "fc_matrix", "qcfc", "distance_dependence"):
        m[f"metrics.{fn}.s"] = total["metrics." + fn]
    m["metrics.fd.frames"] = counts["metrics.fd.frames"]
    m["trace.overhead_s"] = sample.wall_s - untraced_wall_s
    return m


def spans_consistent(sample: Sample) -> bool:
    """Span self times are non-negative and cover no more than the wall time."""
    self_times = sample.tracer.self_s.values()
    return min(self_times, default=0.0) >= 0.0 and sum(self_times) <= sample.wall_s


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's files, so a run outside git still names its code."""
    h = hashlib.sha256()
    for top in ("src", "scripts", "configs"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """Build string and thread count of the OpenBLAS that NumPy and SciPy each load."""
    info = {}
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for so in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(so))
            entry = {}
            for key, sym, restype in (
                ("config", "get_config", ctypes.c_char_p),
                ("threads", "get_num_threads", ctypes.c_int),
            ):
                fn = getattr(lib, f"scipy_openblas_{sym}{suffix}", None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
            info[pkg.__name__] = entry
    return info


def environment(args, cohort: int) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "cohort_seed": cohort,
        "traced": bool(args.trace),
        "run_seconds": args.seconds,
    }


def declared_metrics(spec: dict) -> dict[str, dict[str, str]]:
    """Metric names and units by kind, as BENCHMARK.json declares them."""
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def remove_scratch(path: Path) -> None:
    """Delete a scratch directory, and its parent once nothing else is in it."""
    shutil.rmtree(path, ignore_errors=True)
    if path.parent.is_dir() and not any(path.parent.iterdir()):
        path.parent.rmdir()


def run_comparisons(driver: str, config: dict, seconds: float, trace: bool) -> list[tuple[bool, Sample]]:
    """Whole comparisons until `seconds` have passed: at least one, and with
    `trace` alternately untraced and traced, at least one of each."""
    scratch = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    samples = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(samples) % 2 == 1
            workdir = scratch / str(len(samples))
            samples.append((traced, comparison(driver, config, workdir, traced, trace)))
            if time.perf_counter() - start >= seconds and (not trace or len(samples) >= 2):
                return samples
    finally:
        remove_scratch(scratch)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Time and check one qcfc benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    declared = declared_metrics(spec)

    setup_times = measure_setup(SETUP_PROBES)
    cohort = workloads.cohort_seed(args.seed)
    config = workloads.workload_config(ROOT, args.workload, cohort)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())[args.workload][str(cohort)]
    driver = workloads.WORKLOADS[args.workload][0]
    samples = run_comparisons(driver, config, args.seconds, bool(args.trace))

    untraced = [s for traced, s in samples if not traced]
    traced = [s for is_traced, s in samples if is_traced]
    failed_sets = [failed_reports(s, golden) for _, s in samples]
    attempted = len(samples) * len(REPORTS)
    failed = sum(len(f) for f in failed_sets)
    wall_s = statistics.median(s.wall_s for s in untraced)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "cpu_s": statistics.median(s.cpu_s for s in untraced),
        "subject_reports_per_s": config["n_subjects"] * len(REPORTS) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Printed for reading, not in the result's metrics: both are 0 on some
    # workloads, and the result carries the failure share as failed/attempted.
    informational = {
        "bytes_written_mb": statistics.median(s.bytes_written for s in untraced) / 1e6,
        "ops_failed_frac": failed / attempted,
    }
    correct = failed == 0
    kind, reported = "end_to_end", end_to_end
    if traced:
        per_traced = [layer_metrics(s, wall_s) for s in traced]
        reported = {name: statistics.median(m[name] for m in per_traced) for name in per_traced[0]}
        kind = "per_layer"
        same_outputs = all(s.outputs == untraced[0].outputs for _, s in samples)
        spans_ok = all(spans_consistent(s) for s in traced)
        correct = correct and same_outputs and spans_ok
        print(f"trace self-check: outputs_match={same_outputs} spans_consistent={spans_ok}")
    if set(reported) != set(declared[kind]):
        raise RuntimeError(f"computed {sorted(reported)}, BENCHMARK.json declares {sorted(declared[kind])}")

    print("env: " + json.dumps(environment(args, cohort), sort_keys=True))
    print(
        f"comparisons: {len(untraced)} untraced, {len(traced)} traced; wall: "
        + ", ".join(f"{s.wall_s:.3f}{'t' if is_traced else ''}" for is_traced, s in samples)
        + " s; setup probes: "
        + ", ".join(f"{t:.3f}" for t in setup_times)
        + " s"
    )
    units = {**declared["end_to_end"], "bytes_written_mb": "MB", "ops_failed_frac": "1"}
    for name, value in {**end_to_end, **informational}.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if traced:
        for name, value in reported.items():
            print(f"{name} = {value:.6g} {declared['per_layer'][name]}")
    failures = sorted(set().union(*failed_sets))
    if failures:
        print(f"failed reports: {', '.join(failures)}")
    metrics = {name: {"value": value, "unit": declared[kind][name]} for name, value in reported.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
