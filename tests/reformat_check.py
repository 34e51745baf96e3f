"""Check that every matrix CSV under a directory has the text of the row format.

    python -m tests.reformat_check DIR

Reads each matrix file under DIR (`truth_fc.csv`, each subject's `ts`,
`motion`, `aroma` and `physio` files, and the corrected files) with
`read_matrix_csv`, and rebuilds its expected bytes from `csv_text` of its
header and, for each row, the line `%.17g,...,%.17g`: the reference that
`qcfc.storage`'s matrix writer must match byte for byte. The other CSV files
(a manifest's parcellation, QC histograms and `comparison.csv`) are not
matrices and are skipped. Prints the first file that differs and exits 1;
exits 1 too if DIR holds no matrix file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from qcfc.storage import csv_text, read_matrix_csv


def matrix_files(root: Path) -> list[Path]:
    """Every CSV under `root` but the parcellations its manifests name, histograms and
    `comparison.csv`."""
    skipped = {
        (manifest.parent / json.loads(manifest.read_text())["parcellation_path"]).resolve()
        for manifest in root.rglob("manifest.json")
    }
    return [
        path
        for path in sorted(root.rglob("*.csv"))
        if path.resolve() not in skipped
        and path.name != "comparison.csv"
        and not path.name.endswith("_histogram.csv")
    ]


def row_format_text(path: Path) -> bytes:
    """The bytes the row format gives the matrix `path` holds."""
    values, labels = read_matrix_csv(path)
    row_format = ",".join(["%.17g"] * len(labels)) + "\n"
    body = "".join([row_format % tuple(row) for row in values.tolist()])
    return (csv_text([labels]) + body).encode("utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m tests.reformat_check DIR", file=sys.stderr)
        return 2
    paths = matrix_files(Path(argv[0]))
    if not paths:
        print(f"error: no matrix file under {argv[0]}")
        return 1
    for path in paths:
        if path.read_bytes() != row_format_text(path):
            print(f"error: {path} differs from the row format's text")
            return 1
    print(f"{len(paths)} matrix files match the row format's text")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
