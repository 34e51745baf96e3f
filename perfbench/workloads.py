"""The benchmark's workloads and the two drivers that run one comparison.

A comparison scores the uncorrected timeseries ("raw") and each of the four
pipelines with QC-FC and distance dependence, and returns one summary row
per report: (median_abs_qcfc, dist_dependence_rho, dist_dependence_p,
undefined_edge_count).

- The chain driver runs `scripts/run_full_comparison.py` in-process on a
  generated config file, exactly as a user runs it, and reads the summary
  back from the `comparison.csv` it writes.
- The in-memory driver makes the same library calls as the chain without
  touching disk: generate the cohort, then per report the pipeline (if any),
  `fc_matrix`, framewise displacement, `qcfc` and `distance_dependence`.

Call sites in this module go through module-level names so that a tracer
can wrap them here, where the benchmark calls into the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

import numpy as np

import qcfc.cli as cli
import qcfc.pipelines as pipelines
from qcfc.metrics import (
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    mean_fd,
    qcfc,
)
from qcfc.phantom import PhantomConfig, generate_cohort
from qcfc.pipelines import PipelineKind, PipelineSpec, run_pipeline

PIPELINES = tuple(kind.value for kind in PipelineKind)
REPORTS = ("raw",) + PIPELINES
SEQUENTIAL = ("seq-hmp-aroma-physio", "seq-aroma-hmp-physio")

# Config fields that differ from configs/reference_cohort.json, and the
# driver each workload uses. The reasons are recorded in BENCHMARK.json.
WORKLOADS = {
    "chain-reference": ("chain", {}),
    "compare-paper": (
        "memory",
        {"n_subjects": 40, "n_rois": 333, "n_timepoints": 1200, "n_aroma_components": 30},
    ),
}

# Reference outputs are recorded for these cohort seeds only; see
# `cohort_seed`.
GOLDEN_SEED_BASE = 32
GOLDEN_SEED_COUNT = 16


def cohort_seed(seed: int) -> int:
    """Map a benchmark seed onto a cohort seed that has recorded outputs.

    Seeds 32-47, the default 42 among them, are used as given.
    """
    return GOLDEN_SEED_BASE + seed % GOLDEN_SEED_COUNT


def workload_config(root: Path, workload: str, seed: int) -> dict:
    """The generated cohort config: the reference config, resized and reseeded."""
    config = json.loads((root / "configs" / "reference_cohort.json").read_text())
    config.update(WORKLOADS[workload][1])
    config["seed"] = seed
    return config


def run_in_memory(config: dict) -> dict[str, tuple]:
    cohort = generate_cohort(PhantomConfig.from_dict(config))
    bundles = cohort.bundles
    lengths = edge_lengths(cohort.parcellation)
    mfds = np.array([mean_fd(framewise_displacement(b.motion)) for b in bundles])
    rows = {}
    for name in REPORTS:
        if name == "raw":
            fcs = [fc_matrix(b.ts) for b in bundles]
        else:
            spec = PipelineSpec(PipelineKind.from_name(name))
            fcs = [fc_matrix(run_pipeline(b, spec)) for b in bundles]
        report = qcfc(fcs, mfds)
        rho, p = distance_dependence(report, lengths)
        rows[name] = (report.median_abs_qcfc, rho, p, report.undefined_edge_count)
    return rows


class ChainFailed(Exception):
    """The comparison script exited with a non-zero status."""


def run_chain(root: Path, config: dict, workdir: Path) -> bytes:
    """Run the comparison script on `config` under `workdir`.

    Returns the bytes of the `comparison.csv` it wrote. The script's own
    table goes to a buffer, so the benchmark's stdout stays its own.
    """
    workdir.mkdir(parents=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    script = root / "scripts" / "run_full_comparison.py"
    out = workdir / "run"
    argv = [str(script), "--config", str(config_path), "--workdir", str(out)]
    saved_argv = sys.argv
    sys.argv = argv
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    except SystemExit as e:
        if e.code not in (None, 0):
            raise ChainFailed(f"comparison script exited with status {e.code}") from e
    finally:
        sys.argv = saved_argv
    return (out / "comparison.csv").read_bytes()


def parse_comparison_csv(data: bytes) -> dict[str, tuple]:
    lines = data.decode().splitlines()
    rows = {}
    for line in lines[1:]:
        name, _, median, rho, p, undefined = line.split(",")
        rows[name] = (float(median), float(rho), float(p), int(undefined))
    return rows


# --- tracing -----------------------------------------------------------------


def _file_mb(key: str):
    return lambda args, _result: {key: os.path.getsize(args[0]) / 1e6}


def _fit_gflop(n: int, k: int, m: int) -> float:
    """Computed cost of one residualization of n x m signals on n x k regressors.

    Householder QR with the explicit economic Q (about 4nk^2 - 4k^3/3) plus
    the two projection passes, each two n x k x m products (8nkm).
    """
    return (4 * n * k * k - 4 * k**3 / 3 + 8 * n * k * m) / 1e9


def _regression_count(blocks_of):
    def count(args, _result) -> dict:
        y = args[0]
        blocks = blocks_of(args)
        gflop = sum(_fit_gflop(y.n_timepoints, b.k, y.m_signals) for b in blocks)
        return {"regression.residualize.fits": len(blocks), "regression.gflop": gflop}

    return count


STORAGE_READS = ("read_json", "read_matrix_csv", "read_motion_csv", "read_parcellation_csv")
STORAGE_WRITES = (
    "write_json",
    "write_matrix_csv",
    "write_motion_csv",
    "write_parcellation_csv",
    "atomic_write_text",
)
CLI_COMMANDS = ("phantom", "correct", "qc", "report")


def _trace_library_calls(tracer, caller) -> None:
    """Wrap the phantom, pipelines and metrics calls made from `caller`."""
    tracer.patch(
        caller,
        "generate_cohort",
        "phantom.generate",
        lambda args, _r: {"phantom.subjects": args[0].n_subjects},
    )
    tracer.patch(caller, "run_pipeline", lambda args: "pipelines." + args[1].kind.value)
    tracer.patch(
        caller,
        "framewise_displacement",
        "metrics.fd",
        lambda args, _r: {"metrics.fd.frames": args[0].n_timepoints},
    )
    tracer.patch(caller, "mean_fd", "metrics.fd")
    for fn in ("fc_matrix", "qcfc", "distance_dependence"):
        tracer.patch(caller, fn, "metrics." + fn)


def install_trace(tracer, driver: str) -> None:
    """Wrap every layer boundary the given driver crosses."""
    tracer.patch(
        pipelines,
        "sequential_residualize",
        "regression.residualize",
        _regression_count(lambda args: args[1]),
    )
    tracer.patch(
        pipelines,
        "ols_residualize",
        "regression.residualize",
        _regression_count(lambda args: [args[1]]),
    )
    if driver == "memory":
        _trace_library_calls(tracer, sys.modules[__name__])
        return
    for command in CLI_COMMANDS:
        tracer.patch(cli, "cmd_" + command, "cli." + command)
    for fn in STORAGE_READS:
        tracer.patch(cli, fn, "storage.read", _file_mb("storage.read.mb"))
    for fn in STORAGE_WRITES:
        tracer.patch(cli, fn, "storage.write", _file_mb("storage.write.mb"))
    _trace_library_calls(tracer, cli)
