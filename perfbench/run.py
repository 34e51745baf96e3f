#!/usr/bin/env python3
"""Time qcfc's full comparison on one workload and check every output.

    python3 perfbench/run.py --workload WORKLOAD [--seed N] [--seconds S] [--trace 0|1]

Workloads: chain-reference and compare-paper (see
workloads.py and BENCHMARK.json). The checkout is the directory above this
file; the package is imported from its `src/` and driven only through its
public functions and its comparison script. One run:

1. times set-up: fresh interpreters that import the benchmark and the
   package, median of several;
2. runs whole comparisons until `--seconds` have passed (at least one), and
   checks each comparison's five reports against the outputs recorded at
   the seed commit (golden.json) and for the paper's effect;
3. with `--trace 1`, alternates untraced and traced comparisons and reports
   per-layer span times and counts instead of the end-to-end metrics.

Human-readable lines come first, including the environment of the run; the
last line of stdout is one JSON object with `correct`, `attempted` and
`failed` (both counted in reports) and `metrics`, named and with the units
that BENCHMARK.json declares. Outside a checkout it exits 1 and prints no
result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REQUIRED = (
    "BENCHMARK.json",
    "src/qcfc/__init__.py",
    "scripts/run_full_comparison.py",
    "configs/reference_cohort.json",
)


def use_checkout() -> None:
    """Import the package from this checkout's sources, never an installed copy."""
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"error: {ROOT} is not a qcfc checkout; missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


if __name__ == "__main__":
    use_checkout()
    import bench

    sys.exit(bench.main())
