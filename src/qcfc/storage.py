"""CSV and JSON serialization with atomic writes.

All matrices are CSV with one header row (columns = ROIs, regressors, or
motion parameters; rows = timepoints). Floats are written with 17
significant digits so a write/read round trip is exact. A matrix is
formatted one row at a time through a single `%.17g,...,%.17g` row format;
only the header row goes through `csv` quoting, since labels may contain
commas, quotes or newlines. Writes go to a uniquely named temporary file
in the same directory, are synced to disk and renamed into place, so a
failed run never leaves a partial file and two runs never share a temporary
file; a failed write removes its temporary file.
JSON uses sorted keys and a fixed indent; nothing embeds timestamps, so
reruns are byte-identical. Every file is read and written as UTF-8. A file
that cannot be opened or holds an invalid UTF-8 byte raises FileFormatError,
a malformed file (exit code 4 in the CLI, 2 for the `phantom` config).
"""

from __future__ import annotations

import csv
import io
import json
import os
import uuid
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .metrics import Parcellation
from .pipelines import HMP_PARAM_LABELS, HeadMotion

__all__ = [
    "format_float",
    "atomic_write_text",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_motion_csv",
    "read_motion_csv",
    "write_parcellation_csv",
    "read_parcellation_csv",
    "write_json",
    "read_json",
]

PARCELLATION_HEADER = ("roi", "x_mm", "y_mm", "z_mm")


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: Path, text: str) -> None:
    """Write through a uniquely named temporary file, synced, then renamed onto `path`."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _read_text(path: Path) -> str:
    """The file's text as UTF-8; an unreadable file or an invalid byte is a malformed file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FileFormatError(f"cannot read {path}: {e}") from e


def _read_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(_read_text(path), newline="")))


def write_matrix_csv(path: Path, values: np.ndarray, labels) -> None:
    values = np.asarray(values, dtype=float)
    labels = list(labels)
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise FileFormatError(
            f"matrix shape {values.shape} does not match {len(labels)} labels"
        )
    # `"%.17g" % x` and `format_float(x)` give the same text for every
    # float64, and no such cell needs `csv` quoting; only labels can.
    row_format = ",".join(["%.17g"] * len(labels)) + "\n"
    body = "".join([row_format % tuple(row) for row in values.tolist()])
    atomic_write_text(path, _csv_text([labels]) + body)


def read_matrix_csv(path: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a header-plus-floats CSV; empty rows mean a zero-column matrix."""
    rows = _read_rows(path)
    if not rows and Path(path).stat().st_size == 0:
        raise FileFormatError(f"{path}: empty file")
    if not rows:
        raise FileFormatError(f"{path}: missing header row")
    header = tuple(rows[0])
    width = len(header)
    data = np.zeros((len(rows) - 1, width))
    for i, row in enumerate(rows[1:]):
        if len(row) != width:
            raise FileFormatError(
                f"{path}: row {i + 2} has {len(row)} fields, header has {width}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError as e:
                raise FileFormatError(f"{path}: row {i + 2}, column {j + 1}: {e}") from e
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"{path}: contains non-finite values")
    return data, header


def write_motion_csv(path: Path, motion: HeadMotion) -> None:
    write_matrix_csv(path, motion.values, HMP_PARAM_LABELS)


def read_motion_csv(path: Path) -> HeadMotion:
    values, header = read_matrix_csv(path)
    if header != HMP_PARAM_LABELS:
        raise FileFormatError(
            f"{path}: motion header must be {','.join(HMP_PARAM_LABELS)}, "
            f"got {','.join(header)}"
        )
    try:
        return HeadMotion(values)
    except Exception as e:
        raise FileFormatError(f"{path}: {e}") from e


def write_parcellation_csv(path: Path, parc: Parcellation) -> None:
    rows = [list(PARCELLATION_HEADER)]
    for label, (x, y, z) in zip(parc.roi_labels, parc.centroids):
        rows.append([label, format_float(x), format_float(y), format_float(z)])
    atomic_write_text(path, _csv_text(rows))


def read_parcellation_csv(path: Path) -> Parcellation:
    rows = _read_rows(path)
    if not rows or tuple(rows[0]) != PARCELLATION_HEADER:
        raise FileFormatError(
            f"{path}: parcellation header must be {','.join(PARCELLATION_HEADER)}"
        )
    labels = []
    coords = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 4:
            raise FileFormatError(f"{path}: row {i + 2} has {len(row)} fields, expected 4")
        labels.append(row[0])
        try:
            coords.append([float(c) for c in row[1:]])
        except ValueError as e:
            raise FileFormatError(f"{path}: row {i + 2}: {e}") from e
    try:
        return Parcellation(tuple(labels), np.array(coords))
    except Exception as e:
        raise FileFormatError(f"{path}: {e}") from e


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: invalid JSON: {e}") from e
