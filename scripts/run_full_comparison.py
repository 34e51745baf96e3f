#!/usr/bin/env python3
"""Run every correction pipeline on one synthetic cohort and compare them.

Generates the cohort from a JSON config, scores the uncorrected timeseries
and each of the four pipelines with QC-FC, and writes a side-by-side
comparison table and CSV. The steps are those of the `qcfc` commands, run in
one process: every file `phantom`, `qc`, `correct` and `report` would write
is written once, and the cohort is never read back. All outputs land under
--workdir; rerunning with the same config reproduces the same bytes. Exit
codes are those of `qcfc`.
"""

import argparse
import sys
from pathlib import Path

from qcfc.cli import (
    RAW_PIPELINE_NAME,
    _require_bins,
    cmd_phantom,
    cmd_report,
    correct_cohort,
    run_guarded,
    score_cohort,
)
from qcfc.pipelines import PipelineKind

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_cohort.json"


def compare(config: str, work: Path, bins: int) -> None:
    _require_bins(bins)
    cohort = cmd_phantom(config, work / "cohort")
    reports = [work / f"qc_{RAW_PIPELINE_NAME}.json"]
    raw = ((b.subject_id, b.motion, b.ts) for b in cohort.bundles)
    score_cohort(RAW_PIPELINE_NAME, cohort.parcellation, raw, reports[0], bins)
    for kind in PipelineKind:
        corrected = correct_cohort(cohort.bundles, kind, work / f"corrected_{kind.value}")
        reports.append(work / f"qc_{kind.value}.json")
        score_cohort(kind.value, cohort.parcellation, corrected, reports[-1], bins)

    print()
    cmd_report([str(r) for r in reports], str(work / "comparison.csv"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config", default=str(DEFAULT_CONFIG), help="cohort config JSON"
    )
    parser.add_argument(
        "--workdir", default="comparison_run", help="directory for all outputs"
    )
    parser.add_argument("--bins", type=int, default=50, help="histogram bin count")
    args = parser.parse_args()
    return run_guarded(compare, args.config, Path(args.workdir), args.bins)


if __name__ == "__main__":
    sys.exit(main())
