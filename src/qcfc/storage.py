"""CSV and JSON serialization with atomic writes.

All matrices are CSV with one header row (columns = ROIs, regressors, or
motion parameters; rows = timepoints). This module alone turns floats into
CSV text and back: every float in every CSV (matrices, motion,
parcellation, histogram and `comparison.csv`) is written in one `%.17g`
format, 17 significant digits, so a write/read round trip is exact, and
every float cell is parsed by one table reader. A matrix's body has the
bytes of the row format `%.17g,...,%.17g` applied to each row, its
reference; a NumPy kernel writes them, a block of whole rows at a time. It
turns each cell that `%.17g` writes in plain decimal notation
(1e-4 <= |x| < 1e16) into its 17 significant digits with exact integer
arithmetic, writes zeros as `0` and `-0`, and formats any other cell with
`%.17g` itself; a block where those other cells are more than an eighth
goes through the row format. Only the header row goes through `csv`
quoting, since labels may contain commas, quotes, line feeds or carriage
returns. Writes go to a uniquely named temporary file in the same directory
(`temporary_name`: at most 255 bytes, whatever the target's name), whose
contents are synced to disk before it is renamed into place, so a failed
run never leaves a partial file and two runs never share a temporary file;
a failed write removes its temporary file and its OSError names the file
asked for. The rename itself is not made durable: no directory is synced
after it, here or in the CLI's renames of whole directories, so after a
power loss a synced file may be missing under its name. A write creates
its file's missing parent directories, so every output directory is made
by its first file.
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

# The matrix kernel (`_matrix_text`) formats at most this many cells at a
# time, whole rows, so its working arrays stay under a few MB.
_BLOCK_CELLS = 8192
# Bytes per cell: the longest `%.17g` text (24, as in -1.7976931348623157e+308)
# and its separator.
_RECORD = 25
# Row e: which bytes of a record to keep when its text ends at index e.
_UP_TO = np.arange(_RECORD) <= np.arange(_RECORD)[:, None]
# The finite |x| that `%.17g` writes in plain decimal notation, 1e-4 <= |x| < 1e16,
# as bit patterns with the sign cleared: these order as the values do.
_PLAIN_LOW, _PLAIN_HIGH = np.array([1e-4, 1e16]).view(np.uint64)
_ABS_BITS = np.uint64(2**63 - 1)
# 10^k, exact for k <= 22, and Dekker's split of it into two halves of at most
# 26 bits, whose products with the halves of another split are exact.
_SPLITTER = 2.0**27 + 1
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HIGH = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH
# For n < 10^4: its 4 digits as ASCII bytes in one little-endian word, and its
# count of trailing zero digits (4 for 0).
_N = np.arange(10_000)
_DIGITS4 = sum((48 + _N // 10 ** (3 - i) % 10) << (8 * i) for i in range(4)).astype("<u4")
_TRAILING_ZEROS = sum((_N % 10**i == 0).astype(np.int8) for i in range(1, 5))
del _N
_LEADING_ZEROS = np.frombuffer(b"0.000", np.uint8)


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
    # No float cell needs `csv` quoting, only labels can.
    atomic_write_text(path, "".join([csv_text([labels]), *_matrix_text(values)]))


def _matrix_text(values: np.ndarray) -> list[str]:
    """The rows of `values` as text, in blocks of whole rows.

    The bytes are those of the row format `%.17g,...,%.17g\\n`, the text
    `csv_text` gives each cell. A cell `%.17g` writes in plain decimal notation
    goes through `_plain_records`, a zero is written directly, and any other
    cell through `_FLOAT_FORMAT`; a block where those are more than an eighth
    of the cells goes through the row format.
    """
    n, width = values.shape
    if width == 0:
        return ["\n" * n]
    row_format = ",".join([_FLOAT_FORMAT] * width) + "\n"
    rows = max(1, _BLOCK_CELLS // width)
    separators = np.full(rows * width, ord(","), np.uint8)
    separators[width - 1 :: width] = ord("\n")
    starts = np.arange(rows * width) * _RECORD
    values = np.ascontiguousarray(values)
    blocks = []
    for first in range(0, n, rows):
        block = values[first : first + rows]
        x = block.ravel()
        bits = x.view(np.uint64) & _ABS_BITS
        plain = (bits >= _PLAIN_LOW) & (bits < _PLAIN_HIGH)
        zero = bits == 0
        other = np.flatnonzero(~(plain | zero))
        if 8 * other.size > x.size:
            blocks.append("".join([row_format % tuple(row) for row in block.tolist()]))
            continue
        neg = np.signbit(x)
        records = np.empty((x.size, _RECORD), np.uint8)
        end = np.empty(x.size, np.intp)
        cells = np.flatnonzero(plain)
        order, texts, ends = _plain_records(bits[cells].view(np.float64), neg[cells])
        cells = cells[order]
        records[cells], end[cells] = texts, ends
        cells = np.flatnonzero(zero)
        records[cells, 0] = np.where(neg[cells], ord("-"), ord("0"))
        records[cells, 1] = ord("0")
        end[cells] = 1 + neg[cells]
        for i, v in zip(other.tolist(), x[other].tolist()):
            text = (_FLOAT_FORMAT % v).encode()
            records[i, : len(text)] = np.frombuffer(text, np.uint8)
            end[i] = len(text)
        records.ravel()[starts[: x.size] + end] = separators[: x.size]
        blocks.append(str(records[_UP_TO.take(end, axis=0)], "ascii"))
    return blocks


def _plain_records(a: np.ndarray, neg: np.ndarray):
    """`%.17g` of the values of magnitude `a`, 1e-4 <= a < 1e16, negative where `neg`.

    Returns an order of the values, and in that order their texts as
    `_RECORD`-byte rows and the index where each text ends.
    """
    D, d = _significands(a)
    # Values of one exponent and sign share one layout: sort them together.
    key = (2 * (d + 4) + neg).astype(np.int8)
    order = np.argsort(key, kind="stable")
    digits, zeros = _digits(D[order])
    d, neg = d[order], neg[order]
    # `%g` drops trailing zeros, and a point they leave bare.
    end = neg + np.where(d < 0, 18 - d - zeros, np.where(zeros < 16 - d, 18 - zeros, d + 1))
    records = np.empty((a.size, _RECORD), np.uint8)
    start = 0
    for k, stop in enumerate(np.cumsum(np.bincount(key)).tolist()):
        exp, sign = k // 2 - 4, k % 2
        rows, digs = records[start:stop], digits[start:stop]
        start = stop
        if not rows.size:
            continue
        if sign:
            rows[:, 0] = ord("-")
        if exp >= 0:
            rows[:, sign : sign + exp + 1] = digs[:, : exp + 1]
            rows[:, sign + exp + 1] = ord(".")
            rows[:, sign + exp + 2 : sign + 18] = digs[:, exp + 1 :]
        else:
            rows[:, sign : sign + 1 - exp] = _LEADING_ZEROS[: 1 - exp]
            rows[:, sign + 1 - exp : sign + 18 - exp] = digs
    return order, records, end


def _significands(a: np.ndarray):
    """The 17-digit significand D = round(a * 10^(16 - d)), ties to even, and the
    decimal exponent d that puts D in [1e16, 1e17), for each 1e-4 <= a < 1e16."""
    # The product is p + e exactly (Dekker's two-product); p >= 2^53 is an
    # even integer and |e| <= 8.
    d = np.floor(np.log10(a)).astype(np.intp)
    high = _SPLITTER * a - (_SPLITTER * a - a)
    low = a - high
    while True:
        k = 16 - d
        p = a * _POW10[k]
        e = low * _POW10_LOW[k] - (
            ((p - high * _POW10_HIGH[k]) - low * _POW10_HIGH[k]) - high * _POW10_LOW[k]
        )
        # log10 may round across a power of ten: move d one step where it did.
        shift = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
        shift -= (p < 1e16) | ((p == 1e16) & (e < 0))
        if not shift.any():
            break
        d += shift
    floor = np.floor(e)
    rest = e - floor
    floor = floor.astype(np.int64)
    # D < 10^17: the largest double below each power of ten in the range is
    # more than 8e-17 below it, relative, so no rounding carries into an 18th digit.
    D = p.astype(np.int64) + floor + ((rest > 0.5) | ((rest == 0.5) & (floor & 1 == 1)))
    return D, d


def _digits(D: np.ndarray):
    """The 17 digits of each D in [1e16, 1e17) as ASCII bytes, and how many of them
    are trailing zeros."""
    top = D // 10**8
    bottom = D - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    # A leading digit and four groups of 4 digits, each group a word of `_DIGITS4`.
    groups = []
    for part in (top, bottom):
        group = part // 10**4
        groups += [group, part - group * 10**4]
    words = np.empty((D.size, 5), "<u4")
    words[:, 0] = (lead + ord("0")) << 24
    for i, group in enumerate(groups):
        words[:, i + 1] = _DIGITS4[group]
    zeros = _TRAILING_ZEROS[groups[0]]
    for group in groups[1:]:
        zeros = _TRAILING_ZEROS[group] + (group == 0) * zeros
    return words.view(np.uint8)[:, 3:], zeros


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
