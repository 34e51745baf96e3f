"""CSV and JSON serialization with atomic writes.

All matrices are CSV with one header row (columns = ROIs, regressors, or
motion parameters; rows = timepoints). This module alone turns floats into
CSV text and back: every float in every CSV (matrices, motion,
parcellation, histogram and `comparison.csv`) is written in one `%.17g`
format, 17 significant digits, so a write/read round trip is exact, and
every float cell is parsed by one table reader. A matrix is formatted one
row at a time through a single `%.17g,...,%.17g` row format; only the
header row goes through `csv` quoting, since labels may contain commas,
quotes, line feeds or carriage returns. Writes go to a uniquely
named temporary file in the same directory (`temporary_name`: at most 255
bytes, whatever the target's name), are synced to disk and renamed
into place, so a failed run never leaves a partial file and two runs never
share a temporary file; a failed write removes its temporary file and its
OSError names the file asked for. A write creates its file's missing parent
directories, so every output directory is made by its first file.
JSON uses sorted keys and a fixed indent; nothing embeds timestamps, so
reruns are byte-identical on the same CPU with the same BLAS thread count.
Cohort and corrected files do not depend on that count (generation and the
pipelines run on one OpenBLAS thread); QC reports and `comparison.csv`
still can, since `fc_matrix`'s gram keeps the caller's count (every other
product of QC scoring runs on one thread). Every
file is read and written as UTF-8; a byte-order mark that starts a file is
not part of its text. A file that cannot be opened, holds an
invalid UTF-8 byte, or that the CSV reader or JSON decoder refuses (a field
over `csv.field_size_limit()`, an integer over Python's digit limit, nesting
too deep to decode) raises FileFormatError, a malformed file (exit code 4
in the CLI, 2 for the `phantom` config). So does a CSV float cell that is
not finite, or nonzero and subnormal (below 2.2e-308), whose value has lost
digits.

The JSON records (the phantom config, the manifest and its subject entries,
`run_info.json`, the QC report) share one rule, `Record`: at construction
each field is checked against its annotation, and `record_from_json` refuses
an unknown or missing field. Range and path rules stay in each record class.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import typing
import uuid
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError, prefixed
from .metrics import Parcellation
from .pipelines import HMP_PARAM_LABELS, HeadMotion, check_rotations

__all__ = [
    "temporary_name",
    "atomic_write_text",
    "csv_text",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_motion_csv",
    "read_motion_csv",
    "write_parcellation_csv",
    "read_parcellation_csv",
    "write_json",
    "read_json",
    "Record",
    "record_from_json",
]

PARCELLATION_HEADER = ("roi", "x_mm", "y_mm", "z_mm")
# The text of every float cell: 17 significant digits read back exactly.
_FLOAT_FORMAT = "%.17g"
# The longest file name, in bytes, that most filesystems allow.
_NAME_MAX = 255


def temporary_name(path: Path, suffix: str = ".tmp") -> Path:
    """A fresh sibling of `path`, `<start of its name>.<random hex><suffix>`, for a rename onto it.

    The start of the name is cut to whole characters, so the whole name is
    at most 255 bytes of UTF-8 (the limit of most filesystems) however long
    `path`'s name is.
    """
    tail = f".{uuid.uuid4().hex}{suffix}"
    start = os.fsencode(path.name)[: _NAME_MAX - len(tail.encode())]
    return path.with_name(start.decode("utf-8", "ignore") + tail)


def atomic_write_text(path: Path, text: str) -> None:
    """Write through a uniquely named temporary file, synced, then renamed onto `path`.

    Creates the missing parent directories of `path`. A failure removes the
    temporary file (`temporary_name`); an OSError is raised again naming
    `path` instead of it.
    """
    path = Path(path)
    tmp = temporary_name(path)
    try:
        try:
            fh = open(tmp, "x", encoding="utf-8")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(tmp, "x", encoding="utf-8")
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        # Fails if the temporary file was never created, say under a file that is not a directory.
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(e, OSError) and e.errno is not None:
            raise type(e)(e.errno, e.strerror, str(path)) from e
        raise


def csv_text(rows) -> str:
    """Rows as CSV text, each ended by a line feed.

    A float cell (`float` or `np.float64`) is written as `"%.17g" % x`; any
    other cell as `csv` writes it. A field holding a comma, double quote,
    line feed or carriage return is quoted: `csv.writer` quotes any
    character of its line terminator, so it ends each row with CR LF, cut
    back here to LF.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow([_FLOAT_FORMAT % c if isinstance(c, float) else c for c in row])
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def _read_text(path: Path) -> str:
    """The file's text as UTF-8, without a leading byte-order mark.

    An unreadable file or an invalid byte is a malformed file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FileFormatError(f"cannot read {path}: {e}") from e


def _read_table(path: Path, label_columns: int, header: tuple[str, ...] | None = None):
    """Parse a CSV of one header row, then rows of `label_columns` text cells and float cells.

    A given `header` must match the file's exactly; it is checked before any
    row is parsed. Every row must be as wide as the header and every float
    cell finite, and 0 or normal (not subnormal). Returns the header, each
    row's label cells, and the float cells as a matrix; a header of no
    fields means a zero-column matrix.
    """
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    except csv.Error as e:
        raise FileFormatError(f"{path}: {e}") from e
    if not rows:
        raise FileFormatError(f"{path}: empty file")
    found = tuple(rows[0])
    if header is not None and found != header:
        raise FileFormatError(f"{path}: header must be {','.join(header)}, got {','.join(found)}")
    width = len(found)
    data = np.zeros((len(rows) - 1, width - label_columns))
    for i, row in enumerate(rows[1:]):
        if len(row) != width:
            raise FileFormatError(
                f"{path}: row {i + 2} has {len(row)} fields, header has {width}"
            )
        for j in range(label_columns, width):
            try:
                data[i, j - label_columns] = float(row[j])
            except ValueError as e:
                raise FileFormatError(f"{path}: row {i + 2}, column {j + 1}: {e}") from e
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"{path}: contains non-finite values")
    # A subnormal holds fewer than 17 significant digits: its file lost precision.
    subnormal = np.argwhere((np.abs(data) < np.finfo(float).tiny) & (data != 0))
    if subnormal.size:
        i, j = subnormal[0]
        raise FileFormatError(
            f"{path}: row {i + 2}, column {j + label_columns + 1}:"
            f" {rows[i + 1][j + label_columns]!r} is subnormal, below {np.finfo(float).tiny:g}"
        )
    return found, [tuple(row[:label_columns]) for row in rows[1:]], data


def write_matrix_csv(path: Path, values: np.ndarray, labels) -> None:
    values = np.asarray(values, dtype=float)
    labels = list(labels)
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise FileFormatError(
            f"matrix shape {values.shape} does not match {len(labels)} labels"
        )
    # The text `csv_text` gives each cell; no float cell needs `csv`
    # quoting, only labels can.
    row_format = ",".join([_FLOAT_FORMAT] * len(labels)) + "\n"
    body = "".join([row_format % tuple(row) for row in values.tolist()])
    atomic_write_text(path, csv_text([labels]) + body)


def read_matrix_csv(path: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a header-plus-floats CSV; empty rows mean a zero-column matrix."""
    header, _, data = _read_table(path, 0)
    return data, header


def write_motion_csv(path: Path, motion: HeadMotion) -> None:
    write_matrix_csv(path, motion.values, HMP_PARAM_LABELS)


def read_motion_csv(path: Path) -> HeadMotion:
    """Read a motion file; a rotation beyond `MAX_ROTATION_RAD` is refused, naming its column."""
    _, _, values = _read_table(path, 0, HMP_PARAM_LABELS)
    with prefixed(str(path), as_type=FileFormatError):
        motion = HeadMotion(values)
        check_rotations(motion, FileFormatError)
    return motion


def write_parcellation_csv(path: Path, parc: Parcellation) -> None:
    rows = [[label, *xyz] for label, xyz in zip(parc.roi_labels, parc.centroids.tolist())]
    atomic_write_text(path, csv_text([PARCELLATION_HEADER, *rows]))


def read_parcellation_csv(path: Path) -> Parcellation:
    _, labels, coords = _read_table(path, 1, PARCELLATION_HEADER)
    with prefixed(str(path), as_type=FileFormatError):
        return Parcellation(tuple(label for (label,) in labels), coords)


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # a JSONDecodeError is a ValueError
        raise FileFormatError(f"{path}: invalid JSON: {e}") from e


# What a field of each scalar annotation holds, in JSON's words.
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number"}


class Record:
    """Base of every JSON record, a frozen dataclass whose fields must hold their annotated types.

    A subclass's `__post_init__` calls this one first, then checks its ranges.
    """

    def __post_init__(self):
        for name, hint in typing.get_type_hints(type(self)).items():
            object.__setattr__(self, name, _typed(getattr(self, name), hint, name))


def _typed(value, hint, name: str):
    """`value` as the type `hint` annotates, or a ValidationError naming the field `name`.

    `str`, `int` (not a bool), finite `float` (an integer counts), `tuple[...]`
    of these (a list counts) or a nested record (a JSON object counts).
    """
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{name} must be a list, got {value!r}")
        items = typing.get_args(hint)
        items = items[:1] * len(value) if items[-1] is Ellipsis else items
        if len(items) != len(value):
            raise ValidationError(f"{name} must be a list of {len(items)} items, got {value!r}")
        return tuple(_typed(v, h, f"{name}[{i}]") for i, (v, h) in enumerate(zip(value, items)))
    if issubclass(hint, Record):
        with prefixed(name):
            return value if isinstance(value, hint) else record_from_json(hint, value)
    kinds = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValidationError(f"{name} must be {_JSON_TYPES[hint]}, got {value!r}")
    if hint is not float:
        return value
    if not abs(value) <= sys.float_info.max:
        shown = value if isinstance(value, float) else "an integer beyond float range"
        raise ValidationError(f"{name} must be finite, got {shown}")
    return float(value)


def record_from_json(cls, raw):
    """Build the record class `cls` from a JSON object holding exactly its fields."""
    if not isinstance(raw, dict):
        raise ValidationError(f"a record must be a JSON object, got {type(raw).__name__}")
    names = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ValidationError(f"unknown field {unknown[0]!r}")
    missing = [name for name in names if name not in raw]
    if missing:
        raise ValidationError(f"missing field {missing[0]!r}")
    return cls(**raw)
