#!/usr/bin/env python3
"""Checks that the benchmark measures what it claims to.

    python3 perfbench/selftest.py

1. The in-memory driver, run on the reference config, reproduces every
   number in the comparison.csv that the chain writes, exactly. Both
   drivers therefore measure the same computation.
2. For both drivers, a traced comparison produces the same outputs as an
   untraced one (for the chain, every file it writes), and its span self
   times are non-negative and sum to no more than its wall time.

Prints one line per check and exits 1 if any fails. Takes about a minute,
most of it the reference-scale chain.
"""

import json
import sys

import run

run.use_checkout()
import bench  # noqa: E402
import workloads  # noqa: E402

# A cohort small enough that the traced chain takes about a second.
SMALL = {"n_subjects": 12, "n_rois": 30, "n_timepoints": 60, "n_aroma_components": 5}
SCRATCH = run.ROOT / ".perfbench_work" / "selftest"


def drivers_agree(seed: int) -> bool:
    config = workloads.workload_config(run.ROOT, "chain-reference", seed)
    chain = bench.comparison("chain", config, SCRATCH / "chain", traced=False, digest_tree=False)
    memory = bench.comparison("memory", config, SCRATCH / "memory", traced=False, digest_tree=False)
    return chain.rows is not None and chain.rows == memory.rows


def trace_is_transparent(driver: str) -> bool:
    config = {**workloads.workload_config(run.ROOT, "chain-reference", 42), **SMALL}
    plain = bench.comparison(driver, config, SCRATCH / "plain", traced=False, digest_tree=True)
    traced = bench.comparison(driver, config, SCRATCH / "traced", traced=True, digest_tree=True)
    return (
        plain.rows is not None
        and traced.outputs == plain.outputs
        and bench.spans_consistent(traced)
        and traced.tracer.calls  # the boundaries were really wrapped
    )


def main() -> int:
    checks = {
        "in-memory driver reproduces the chain's comparison.csv (seed 42)": lambda: drivers_agree(42),
        "tracing leaves the chain's outputs unchanged": lambda: trace_is_transparent("chain"),
        "tracing leaves the in-memory outputs unchanged": lambda: trace_is_transparent("memory"),
    }
    failed = 0
    try:
        for name, check in checks.items():
            ok = bool(check())
            failed += not ok
            print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)
    finally:
        bench.remove_scratch(SCRATCH)
    print(json.dumps({"checks": len(checks), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
