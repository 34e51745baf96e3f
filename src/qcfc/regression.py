"""Least-squares residualization on labeled design and signal matrices.

Every fit demeans signals and regressors first, which is equivalent to
carrying an implicit intercept, and then removes the fitted regressor
contribution by projecting onto the orthogonal complement of the design's
column space. The projector comes from a rank-revealing pivoted QR, so
collinear, constant, or otherwise rank-deficient designs are handled; the
residuals are the same ones a minimum-norm least-squares solve leaves behind.

Applying `ols_residualize` block by block only guarantees orthogonality to
the last block regressed: earlier blocks can re-enter through later,
correlated ones. `sequential_residualize` deliberately preserves that
behavior; use a single concatenated design when joint removal is wanted.

BLAS threads: the pipelines, the cohort generator, `max_abs_correlation`
and every product of `qcfc.metrics` but one run inside `_one_blas_thread`,
so their bits do not depend on the caller's OpenBLAS thread count. Only
`fc_matrix`'s gram runs on the caller's count. Importing this module sets
each wheel-bundled OpenBLAS's idle timeout to its least
(`_sleep_when_idle`), so its helper threads block after a product instead
of spinning for about 0.1 s; that changes no thread count and no split
into jobs, so no bit.

Arrays the library builds itself (residuals, the 24-regressor motion block,
a concatenated design, a phantom's timeseries) are wrapped by `_owned`, not
by the public constructors: it keeps their finiteness check, so an overflow
under a caller's `np.errstate` still raises DataIntegrityError, and freezes
them read-only, but it neither copies them nor validates labels again.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy

from .errors import DataIntegrityError, DegenerateInputError, DimensionError

__all__ = [
    "DesignMatrix",
    "SignalMatrix",
    "demean_columns",
    "residualize_columns",
    "ols_residualize",
    "concat_designs",
    "sequential_residualize",
    "max_abs_correlation",
]


def _openblas_symbols(stem: str) -> tuple[str, ...]:
    """The names a function of a wheel's bundled OpenBLAS may have.

    Current wheels use the `scipy_openblas_` prefix, older ones plain
    `openblas_`; NumPy's 64-bit-integer build adds a `64_` suffix.
    """
    return tuple(
        f"{prefix}{stem}{suffix}"
        for prefix in ("scipy_openblas_", "openblas_")
        for suffix in ("64_", "")
    )


def _openblas_libs(pkg) -> Iterator[ctypes.CDLL]:
    """The OpenBLAS libraries a wheel bundles under `<pkg>.libs` (none with a system BLAS)."""
    libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
    for so in sorted(libs.glob("*openblas*")):
        try:
            yield ctypes.CDLL(str(so))
        except OSError:
            continue


_OPENBLAS_LIBS = [*_openblas_libs(np), *_openblas_libs(scipy)]


def _blas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS in `numpy.libs` and `scipy.libs`."""
    controls = []
    for lib in _OPENBLAS_LIBS:
        pairs = zip(_openblas_symbols("get_num_threads"), _openblas_symbols("set_num_threads"))
        for get_name, set_name in pairs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


_BLAS_THREAD_CONTROLS = _blas_thread_controls()


def _sleep_when_idle() -> None:
    """Let each OpenBLAS's idle helper threads block at once, unless the user set a timeout.

    An idle helper spins for 2**OPENBLAS_THREAD_TIMEOUT cycles (2**28, about
    0.1 s, by default) before it blocks, and a thread pool takes the timeout
    that `openblas_read_env` last read when the pool starts. So this has the
    least value, 4, read, and stops the pool with `blas_thread_shutdown_`,
    OpenBLAS's own pre-fork routine; the next multi-threaded call or
    `set_num_threads` restarts it with the same thread count. The variable
    is removed again. A library without the two symbols is left alone.
    """
    libs = [
        lib
        for lib in _OPENBLAS_LIBS
        if hasattr(lib, "openblas_read_env") and hasattr(lib, "blas_thread_shutdown_")
    ]
    if not libs or "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        for lib in libs:
            read_env, shutdown = lib.openblas_read_env, lib.blas_thread_shutdown_
            read_env.argtypes, read_env.restype = [], None
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            read_env()
            shutdown()
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_sleep_when_idle()


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's counts.

    A matrix product may round differently on another thread count, so one
    thread makes the results independent of it; at qcfc's matrix sizes one
    thread is also the faster. Without a thread control this does nothing.
    The counts are process-wide, so two threads must not be inside at once.
    """
    controls = _BLAS_THREAD_CONTROLS
    saved = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(1)
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def _validated_matrix(values, what: str, min_rows: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] < min_rows:
        raise DimensionError(f"{what} needs at least {min_rows} rows, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DataIntegrityError(f"{what} contains NaN or infinite entries")
    arr.setflags(write=False)
    return arr


def _validated_labels(labels, n: int, what: str) -> tuple[str, ...]:
    labels = tuple(str(lab) for lab in labels)
    if len(labels) != n:
        raise DimensionError(f"{what} needs {n} labels, got {len(labels)}")
    return labels


def _owned(cls, values: np.ndarray, labels, what: str):
    """A `cls` (`SignalMatrix` or `DesignMatrix`) holding `values` itself, read-only.

    For a 2-d float array the library has just built and no one else holds,
    and labels already validated for it (or None for a `SignalMatrix`). Only
    finiteness is checked, as the public constructor checks it.
    """
    if not np.all(np.isfinite(values)):
        raise DataIntegrityError(f"{what} contains NaN or infinite entries")
    values.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "values", values)
    object.__setattr__(obj, "column_labels", labels)
    return obj


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """One block of nuisance regressors: n_timepoints rows by k labeled columns.

    Values are validated (finite, at least two rows) and frozen read-only at
    construction; k may be zero for an empty block. Equality is identity.
    """

    values: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self):
        arr = _validated_matrix(self.values, "design matrix", min_rows=2)
        labels = _validated_labels(self.column_labels, arr.shape[1], "design matrix")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "column_labels", labels)

    @property
    def n_timepoints(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SignalMatrix:
    """n_timepoints rows by m columns of signals, one column per voxel or ROI.

    `column_labels` is optional; when present it names the ROIs and is carried
    through residualization unchanged. Equality is identity.
    """

    values: np.ndarray
    column_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _validated_matrix(self.values, "signal matrix", min_rows=1)
        labels = self.column_labels
        if labels is not None:
            labels = _validated_labels(labels, arr.shape[1], "signal matrix")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "column_labels", labels)

    @property
    def n_timepoints(self) -> int:
        return self.values.shape[0]

    @property
    def m_signals(self) -> int:
        return self.values.shape[1]


def _check_rows(Y: SignalMatrix, X: DesignMatrix) -> None:
    if Y.n_timepoints != X.n_timepoints:
        raise DimensionError(
            f"signals have {Y.n_timepoints} rows but design has {X.n_timepoints}"
        )


def _max_abs(values: np.ndarray):
    """Each column's max|x| (0 with no rows), as max(max x, -min x): no |x| copy of `values`."""
    return np.maximum(values.max(axis=0, initial=0.0), -values.min(axis=0, initial=0.0))


def _varies(ss, values: np.ndarray, max_abs=None):
    """Whether sqrt(ss) > n * eps * max|x| for each column of `values` (n rows).

    `ss` holds centred sums of squares; a smaller spread is what rounding
    leaves in a constant column. A scalar `ss` with a 1-d `values` gives one
    bool. A caller that centres `values` in place passes `max_abs`, the
    `_max_abs` of the values before.
    """
    if max_abs is None:
        max_abs = _max_abs(values)
    return np.sqrt(ss) > values.shape[0] * np.finfo(float).eps * max_abs


def demean_columns(arr: np.ndarray) -> np.ndarray:
    """Subtract each column's mean.

    Two passes keep the residual mean at the rounding floor of the centered
    data instead of at the scale of the raw input.
    """
    out = arr - arr.mean(axis=0, keepdims=True)
    out -= out.mean(axis=0, keepdims=True)
    return out


def residualize_columns(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Residualize already-demeaned arrays: y (n, m) against x (n, k).

    Rank is decided from the pivoted QR with tolerance
    max(n, k) * eps * |R[0, 0]|, so exactly collinear or zero columns drop
    out. The projection is applied twice; the second pass clears the
    numerical correlation floor left by the first.

    A design leaving n - 1 - rank < 2 residual degrees of freedom is refused:
    its residuals would be rounding noise (`fc_matrix` asks 3 rows of raw data).
    """
    n, k = x.shape
    rank = 0
    if k:
        # Imported here, so that only a fit with regressors pays for loading it.
        import scipy.linalg
        q, r, _ = scipy.linalg.qr(x, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        scale = diag[0] if diag.size else 0.0
        tol = max(x.shape) * np.finfo(float).eps * scale
        rank = int(np.count_nonzero(diag > tol))
    if n - 1 - rank < 2:
        raise DegenerateInputError(
            f"a design of rank {rank} on {n} timepoints leaves {n - 1 - rank} residual"
            " degrees of freedom; need at least 2"
        )
    if rank == 0:
        return y.copy()
    qb = q[:, :rank]
    resid = qb @ (qb.T @ y)
    np.subtract(y, resid, out=resid)
    resid -= qb @ (qb.T @ resid)
    return resid


def ols_residualize(Y: SignalMatrix, X: DesignMatrix) -> SignalMatrix:
    """Remove the least-squares fit of X from every column of Y.

    Both inputs are demeaned internally. The residuals are orthogonal to
    every design column; for rank-deficient X they equal the residuals of
    the minimum-norm solution. Column labels of Y are preserved.
    """
    _check_rows(Y, X)
    e = residualize_columns(demean_columns(Y.values), demean_columns(X.values))
    return _owned(SignalMatrix, e, Y.column_labels, "signal matrix")


def concat_designs(blocks: Sequence[DesignMatrix]) -> DesignMatrix:
    """Column-concatenate blocks into one design, their labels in the same order.

    One block is returned as it is. An empty block list carries no row count
    and is refused.
    """
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("concat_designs needs at least one block")
    n = blocks[0].n_timepoints
    for b in blocks[1:]:
        if b.n_timepoints != n:
            raise DimensionError(
                f"blocks disagree on row count: {n} vs {b.n_timepoints}"
            )
    if len(blocks) == 1:
        return blocks[0]
    values = np.hstack([b.values for b in blocks])
    labels = tuple(lab for b in blocks for lab in b.column_labels)
    return _owned(DesignMatrix, values, labels, "design matrix")


def sequential_residualize(
    Y: SignalMatrix, blocks: Sequence[DesignMatrix]
) -> SignalMatrix:
    """Regress out blocks one at a time, in the order given.

    Each step is a projection, so the output is guaranteed orthogonal to the
    LAST block only. When blocks correlate, later steps reintroduce signal
    aligned with earlier blocks; that reintroduction is a real property of
    ordered filtering and is left intact here.

    Each step demeans its inputs exactly as `ols_residualize` does, so a
    fold of `ols_residualize` over the blocks gives the same bits.
    """
    e = demean_columns(Y.values)
    for b in blocks:
        _check_rows(Y, b)
        # `demean_columns`'s two subtractions, in place: `e` is always this function's own.
        e -= e.mean(axis=0, keepdims=True)
        e -= e.mean(axis=0, keepdims=True)
        e = residualize_columns(e, demean_columns(b.values))
    return _owned(SignalMatrix, e, Y.column_labels, "signal matrix")


def max_abs_correlation(E: SignalMatrix, X: DesignMatrix) -> float:
    """Largest |Pearson r| over all (signal column, design column) pairs.

    Columns that do not vary (`_varies`) are skipped. If one side has no
    varying column at all there is nothing to correlate.
    """
    _check_rows(E, X)

    def varying(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        centered = demean_columns(values)
        ss = np.einsum("ij,ij->j", centered, centered)
        mask = _varies(ss, values)
        return centered[:, mask], ss[mask], mask

    e_centered, e_ss, e_mask = varying(E.values)
    x_centered, x_ss, x_mask = varying(X.values)
    if not e_mask.any() or not x_mask.any():
        raise DegenerateInputError(
            "all columns are constant on one side; no correlation is defined"
        )
    with _one_blas_thread():
        products = e_centered.T @ x_centered
    # One square root of the product keeps an exact column match at exactly 1.
    corr = products / np.sqrt(np.multiply.outer(e_ss, x_ss))
    return float(min(1.0, float(np.abs(corr).max())))
