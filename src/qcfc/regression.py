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

BLAS threads: the pipelines and the cohort generator run inside
`_one_blas_thread`, so their bits do not depend on the caller's OpenBLAS
thread count. The connectivity products of `qcfc.metrics` (`fc_matrix`'s
gram, the QC-FC matrix-vector product and `pearson`'s dot products) and
`max_abs_correlation`'s product run on the caller's count through
`_threaded`. Where NumPy's OpenBLAS takes a threads callback (0.3.28 or
later), their jobs run on Python threads that block when idle, not on
OpenBLAS's own threads, which spin for about 0.1 s after every call; the
count and the split into jobs stay OpenBLAS's, so the bits do too.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, suppress
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


def _blas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS in `numpy.libs` and `scipy.libs`."""
    controls = []
    for lib in (*_openblas_libs(np), *_openblas_libs(scipy)):
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

# OpenBLAS >= 0.3.28 hands each multi-threaded call's jobs to a threads
# callback, if one is set, instead of to its own threads, which spin for
# about 0.1 s after every call before they sleep. The callback must run job
# i as `dojob(i, jobdata + i * jobdata_elsize, dojob_data)`, all of them at
# once (the jobs of a matrix product wait for one another), and return when
# every job is done.
_DOJOB = ctypes.CFUNCTYPE(None, ctypes.c_int, ctypes.c_void_p, ctypes.c_int)
_THREADS_CALLBACK = ctypes.CFUNCTYPE(
    None, ctypes.c_int, _DOJOB, ctypes.c_int, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_int
)


def _threads_callback_setter():
    """NumPy's OpenBLAS `set_threads_callback_function`, or None where it has none."""
    for lib in _openblas_libs(np):
        for name in _openblas_symbols("set_threads_callback_function"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [_THREADS_CALLBACK], None
                return setter
    return None


_SET_THREADS_CALLBACK = _threads_callback_setter()
# What kept a callback from running every job: OpenBLAS takes its return as all done.
_job_failures: list[BaseException] = []


def _new_threads() -> None:
    """Thread pools with no thread yet: at import, and in a forked child, which inherits none.

    `_product_thread` runs every product that `_threaded` hands over, one at
    a time. `_job_threads` runs jobs 1.. of a product; it grows to the most
    jobs a product has had, and its idle threads block.
    """
    global _product_thread, _job_threads, _job_capacity
    _product_thread = ThreadPoolExecutor(1, thread_name_prefix="qcfc-blas")
    _job_threads = ThreadPoolExecutor(1, thread_name_prefix="qcfc-blas-job")
    _job_capacity = 1


_new_threads()
if _SET_THREADS_CALLBACK is not None and hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_threads)


@_THREADS_CALLBACK
def _run_jobs(sync, dojob, numjobs, elsize, jobdata, dojob_data):
    """The threads callback: job 0 on this thread, the others on `_job_threads`."""
    global _job_threads, _job_capacity
    started = []
    try:
        if numjobs - 1 > _job_capacity:
            _job_threads.shutdown(wait=False)
            _job_threads = ThreadPoolExecutor(numjobs - 1, thread_name_prefix="qcfc-blas-job")
            _job_capacity = numjobs - 1
        for i in range(1, numjobs):
            started.append(_job_threads.submit(dojob, i, jobdata + i * elsize, dojob_data))
        dojob(0, jobdata, dojob_data)
    except BaseException as e:
        _job_failures.append(e)
    wait(started)


def _product_with_callback(err: dict, product, args: tuple):
    """On `_product_thread`: `product(*args)` under `err`, its OpenBLAS jobs run by `_run_jobs`."""
    _SET_THREADS_CALLBACK(_run_jobs)
    try:
        with np.errstate(**err):
            result = product(*args)
    finally:
        _SET_THREADS_CALLBACK(_THREADS_CALLBACK())
    failures, _job_failures[:] = _job_failures[:], []
    if failures:
        raise failures[0]
    return result


def _threaded(product, *args):
    """`product(*args)`, a NumPy BLAS product on the caller's thread count, without the spin.

    Same thread count, same job split, so the same bits; but the jobs run
    on threads that block when idle. The product runs on `_product_thread`,
    never here: an interrupt that lands in a ctypes callback on the main
    thread is printed and dropped, and OpenBLAS takes the jobs as done. This
    thread waits for the product even when interrupted, so no BLAS call of
    its own meets the callback, which is process-wide. Without a callback
    symbol (OpenBLAS before 0.3.28, or not a wheel's) this calls `product`.
    """
    if _SET_THREADS_CALLBACK is None:
        return product(*args)
    future = _product_thread.submit(_product_with_callback, np.geterr(), product, args)
    try:
        return future.result()
    finally:
        while not future.done():
            with suppress(KeyboardInterrupt):
                wait([future])


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


@dataclass(frozen=True)
class DesignMatrix:
    """One block of nuisance regressors: n_timepoints rows by k labeled columns.

    Values are validated (finite, at least two rows) and frozen read-only at
    construction; k may be zero for an empty block.
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


@dataclass(frozen=True)
class SignalMatrix:
    """n_timepoints rows by m columns of signals, one column per voxel or ROI.

    `column_labels` is optional; when present it names the ROIs and is carried
    through residualization unchanged.
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
    resid = y - qb @ (qb.T @ y)
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
    return SignalMatrix(e, Y.column_labels)


def concat_designs(blocks: Sequence[DesignMatrix]) -> DesignMatrix:
    """Column-concatenate blocks into one design, their labels in the same order.

    An empty block list carries no row count and is refused.
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
    values = np.hstack([b.values for b in blocks])
    return DesignMatrix(values, tuple(lab for b in blocks for lab in b.column_labels))


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
        e = residualize_columns(demean_columns(e), demean_columns(b.values))
    return SignalMatrix(e, Y.column_labels)


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
    # One square root of the product keeps an exact column match at exactly 1.
    corr = _threaded(np.matmul, e_centered.T, x_centered) / np.sqrt(np.multiply.outer(e_ss, x_ss))
    return float(min(1.0, float(np.abs(corr).max())))
