#!/usr/bin/env python3
"""Run every correction pipeline on one synthetic cohort and compare them.

Generates the cohort from a JSON config, scores the uncorrected timeseries
and each of the four pipelines with QC-FC, and writes a side-by-side
comparison table and CSV by `qcfc.cli.compare`: the `qcfc` commands' steps
in one process, every file written once and each subject's mean FD computed
once. The cohort is never read back. All outputs land under --workdir;
rerunning with the same config reproduces the same bytes. Exit codes are
those of `qcfc`, usage errors (exit 2) included.
"""

import sys
from pathlib import Path

from qcfc.cli import DEFAULT_BINS, ArgumentParser, compare, run_guarded

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_cohort.json"


def main() -> int:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(DEFAULT_CONFIG), help="cohort config JSON")
    parser.add_argument("--workdir", default="comparison_run", help="directory for all outputs")
    parser.add_argument("--bins", type=int, default=DEFAULT_BINS, help="histogram bin count")

    def command() -> None:
        args = parser.parse_args()
        compare(args.config, Path(args.workdir), args.bins)

    return run_guarded(command)


if __name__ == "__main__":
    sys.exit(main())
