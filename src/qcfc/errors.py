"""Exception types shared across the toolkit, and the one rule that adds context to them."""

from contextlib import contextmanager

__all__ = [
    "QcfcError",
    "DataIntegrityError",
    "DimensionError",
    "DegenerateInputError",
    "SchemaError",
    "ValidationError",
    "FileFormatError",
]


class QcfcError(Exception):
    """Base class for all toolkit errors."""


class DataIntegrityError(QcfcError):
    """Input contains NaN or infinite entries."""


class DimensionError(QcfcError):
    """Shapes of related inputs do not line up."""


class DegenerateInputError(QcfcError):
    """Input is constant or too small where variation is required."""


class SchemaError(QcfcError):
    """Labels or schema versions of related objects do not match."""


class ValidationError(QcfcError):
    """A configuration or manifest failed validation."""


class FileFormatError(QcfcError):
    """A data file could not be parsed in the documented format."""


@contextmanager
def prefixed(prefix: str, as_type: type[QcfcError] | None = None):
    """Re-raise any QcfcError from the body as `"<prefix>: <message>"`, chained to the original.

    Every re-raise that names the subject, file or field at fault goes
    through here. The error keeps its class (so its exit code) unless
    `as_type` is given; a FloatingPointError becomes a DataIntegrityError
    (or `as_type`), "floating-point" added. Anything else passes through.
    """
    try:
        yield
    except QcfcError as e:
        raise (as_type or type(e))(f"{prefix}: {e}") from e
    except FloatingPointError as e:
        raise (as_type or DataIntegrityError)(f"{prefix}: floating-point {e}") from e
