#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run this only at a commit whose outputs are the reference. For each workload
(default: all) and each cohort seed that `workloads.cohort_seed` can select,
it runs one untraced comparison and stores, in golden.json:

- chain-reference: the sha256 of the `comparison.csv` the script wrote;
- compare-*: per report, median_abs_qcfc, dist_dependence_rho and
  undefined_edge_count.

It refuses to record a seed on which the paper's effect does not hold.
"""

import json
import sys
import time

import run

run.use_checkout()
import bench  # noqa: E402
import workloads  # noqa: E402

GOLDEN = run.BENCH_DIR / "golden.json"
SCRATCH = run.ROOT / ".perfbench_work" / "golden"


def record(workload: str, seed: int):
    driver = workloads.WORKLOADS[workload][0]
    config = workloads.workload_config(run.ROOT, workload, seed)
    sample = bench.comparison(driver, config, SCRATCH, traced=False, digest_tree=False)
    if sample.rows is None or not bench.paper_effect(sample.rows):
        raise SystemExit(f"{workload} seed {seed}: no result, or no paper's effect: {sample.rows}")
    if driver == "chain":
        return sample.csv_sha256
    return {name: [m, rho, undefined] for name, (m, rho, _p, undefined) in sample.rows.items()}


def main() -> None:
    selected = sys.argv[1:] or list(workloads.WORKLOADS)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    base, count = workloads.GOLDEN_SEED_BASE, workloads.GOLDEN_SEED_COUNT
    for workload in selected:
        entries = golden.setdefault(workload, {})
        for seed in range(base, base + count):
            t0 = time.perf_counter()
            entries[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.2f} s", flush=True)
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    try:
        main()
    finally:
        bench.remove_scratch(SCRATCH)
