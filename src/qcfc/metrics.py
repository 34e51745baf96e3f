"""Motion summaries, connectivity matrices, and the two quality metrics.

Framewise displacement condenses the 6-parameter motion trace to one
scalar per timepoint (rotations converted to mm on a 50 mm sphere) and its
mean summarizes a subject. Connectivity is plain Pearson correlation
between ROI columns, computed and kept for the r(r-1)/2 edges only: no r x r
matrix is built beyond the gram, unless `FcMatrix.values` is read. The
quality metrics correlate, across subjects, each edge's connectivity with
mean framewise displacement (QC-FC), then rank-correlate those per-edge
values with inter-ROI Euclidean distance (distance dependence).
Significance uses the t transform with m - 2 degrees of freedom for both
Pearson and Spearman; no permutation tests.
A `QcFcReport` stores only each edge's r: its per-edge p-values are
derived when read, so scoring a cohort computes none.

Every correlation here calls a column varying iff sqrt(ss) > n * eps * max|x|
(`regression._varies`). Edges whose connectivity does not vary across
subjects have no defined QC-FC value: they are excluded pairwise from the
median and the distance dependence, stored as NaN, and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DataIntegrityError,
    DegenerateInputError,
    DimensionError,
    SchemaError,
)
from .pipelines import HeadMotion
from .regression import (
    SignalMatrix,
    _max_abs,
    _one_blas_thread,
    _validated_labels,
    _validated_matrix,
    _varies,
)

__all__ = [
    "FcMatrix",
    "Parcellation",
    "QcFcReport",
    "default_roi_labels",
    "framewise_displacement",
    "mean_fd",
    "pearson",
    "spearman",
    "fc_matrix",
    "edge_lengths",
    "qcfc",
    "distance_dependence",
]


@lru_cache(maxsize=8)
def _edge_order(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) ROI pairs, i < j, of every edge vector: row-major upper-triangle order.

    Distance dependence pairs each edge's QC-FC with its length by this
    order. Cached per ROI count and read-only.
    """
    iu, ju = np.triu_indices(r, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def default_roi_labels(r: int) -> tuple[str, ...]:
    """Zero-padded ROI names used when the caller supplies none."""
    width = max(3, len(str(max(r - 1, 0))))
    return tuple(f"roi_{i:0{width}d}" for i in range(r))


@dataclass(frozen=True, init=False)
class FcMatrix:
    """Connectivity with labeled ROIs, kept as its r(r-1)/2 edges in `_edge_order`.

    `FcMatrix(values, roi_labels)` takes the r x r square and refuses it unless
    the diagonal is exactly 1, symmetry holds within 1e-12 and entries sit in
    [-1, 1]. `values` builds a read-only square on each read: unit diagonal and
    the upper triangle mirrored, whatever the input's lower triangle held.
    """

    _edges: np.ndarray
    roi_labels: tuple[str, ...]

    def __new__(cls, values, roi_labels):
        arr = _validated_matrix(values, "connectivity matrix", min_rows=0)
        if arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"connectivity matrix must be square, got shape {arr.shape}")
        labels = _validated_labels(roi_labels, arr.shape[0], "connectivity matrix")
        if np.abs(arr - arr.T).max(initial=0.0) > 1e-12:
            raise DataIntegrityError("connectivity matrix is not symmetric within 1e-12")
        if not np.all(np.diag(arr) == 1.0):
            raise DataIntegrityError("connectivity diagonal must be exactly 1")
        if arr.min(initial=1.0) < -1.0 or arr.max(initial=-1.0) > 1.0:
            raise DataIntegrityError("connectivity entries must lie in [-1, 1]")
        return cls._from_edges(arr[_edge_order(len(labels))], labels)

    @classmethod
    def _from_edges(cls, edges: np.ndarray, labels: tuple[str, ...]) -> FcMatrix:
        """The one path that stores edges, an owned float vector, and keeps them read-only."""
        if not np.all(np.isfinite(edges)):
            raise DataIntegrityError("connectivity matrix contains NaN or infinite entries")
        if edges.min(initial=1.0) < -1.0 or edges.max(initial=-1.0) > 1.0:
            raise DataIntegrityError("connectivity entries must lie in [-1, 1]")
        edges.setflags(write=False)
        fc = object.__new__(cls)
        object.__setattr__(fc, "_edges", edges)
        object.__setattr__(fc, "roi_labels", labels)
        return fc

    def __reduce__(self):
        return FcMatrix._from_edges, (self._edges, self.roi_labels)

    @property
    def n_rois(self) -> int:
        return len(self.roi_labels)

    @property
    def values(self) -> np.ndarray:
        """The r x r square, built read-only from the edges on each read."""
        iu, ju = _edge_order(self.n_rois)
        square = np.eye(self.n_rois)
        square[iu, ju] = self._edges
        square[ju, iu] = self._edges
        square.setflags(write=False)
        return square

    def upper_triangle(self) -> np.ndarray:
        """The stored, read-only edge vector in `_edge_order`, length r(r-1)/2."""
        return self._edges


@dataclass(frozen=True)
class Parcellation:
    """ROI labels plus centroid coordinates in mm."""

    roi_labels: tuple[str, ...]
    centroids: np.ndarray

    def __post_init__(self):
        arr = _validated_matrix(self.centroids, "centroids", min_rows=2)
        if arr.shape[1] != 3:
            raise DimensionError(f"centroids must be x, y, z coordinates, got shape {arr.shape}")
        labels = _validated_labels(self.roi_labels, arr.shape[0], "parcellation")
        if len(set(labels)) != len(labels):
            raise SchemaError("parcellation labels must be unique")
        object.__setattr__(self, "roi_labels", labels)
        object.__setattr__(self, "centroids", arr)

    @property
    def n_rois(self) -> int:
        return len(self.roi_labels)


@dataclass(frozen=True)
class QcFcReport:
    """Per-edge QC-FC values plus the summary statistics they fix.

    `edge_qcfc` holds NaN at undefined edges and is frozen read-only at
    construction, which derives from it `median_abs_qcfc` (NaN if no edge is
    defined) and `undefined_edge_count`; `edge_pvalues` is derived when read.
    Distance dependence is computed by `distance_dependence`, not stored.
    """

    edge_qcfc: np.ndarray
    n_subjects: int
    median_abs_qcfc: float = field(init=False)
    undefined_edge_count: int = field(init=False)

    def __post_init__(self):
        r_vals = np.array(self.edge_qcfc, dtype=float)
        if r_vals.ndim != 1:
            raise DimensionError("edge QC-FC values must be a 1-d vector")
        defined = ~np.isnan(r_vals)
        median_abs = math.nan
        if defined.any():
            if r_vals[defined].min() < -1.0 or r_vals[defined].max() > 1.0:
                raise DataIntegrityError("edge QC-FC values must lie in [-1, 1]")
            median_abs = float(np.median(np.abs(r_vals[defined])))
        r_vals.setflags(write=False)
        object.__setattr__(self, "edge_qcfc", r_vals)
        object.__setattr__(self, "median_abs_qcfc", median_abs)
        object.__setattr__(self, "undefined_edge_count", int((~defined).sum()))

    @property
    def n_edges(self) -> int:
        return int(self.edge_qcfc.shape[0])

    @property
    def edge_pvalues(self) -> np.ndarray:
        """Each edge's two-sided p over `n_subjects` (`_t_pvalues`); NaN at undefined edges."""
        defined = ~np.isnan(self.edge_qcfc)
        p = np.full(self.n_edges, np.nan)
        p[defined] = _t_pvalues(self.edge_qcfc[defined], self.n_subjects)
        return p


# Power et al. 2012 convert rotations to arc length on a 50 mm head sphere.
_HEAD_RADIUS_MM = 50.0


def framewise_displacement(motion: HeadMotion) -> np.ndarray:
    """Per-timepoint displacement: sum of absolute backward differences.

    Translations contribute in mm directly; rotations (radians) are
    converted to arc length on a sphere of fixed radius 50 mm. The first
    frame has no predecessor and gets 0 by convention. Per-frame sums are
    correctly rounded (math.fsum) so hand-checkable decimal examples come
    out exact. A frame whose displacement overflows float64 is inf, which
    `mean_fd` refuses.
    """
    with np.errstate(over="ignore"):
        diffs = np.abs(np.diff(motion.values, axis=0))
    fd = np.zeros(motion.n_timepoints)
    for t, row in enumerate(diffs, start=1):
        try:
            fd[t] = math.fsum(row[:3]) + _HEAD_RADIUS_MM * math.fsum(row[3:])
        except OverflowError:  # finite terms whose exact sum is beyond float64
            fd[t] = math.inf
    return fd


def mean_fd(fd) -> float:
    """Arithmetic mean displacement over all timepoints, leading 0 included."""
    arr = np.asarray(fd, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DegenerateInputError("mean_fd needs a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise DataIntegrityError("framewise displacement contains NaN or infinite entries")
    with np.errstate(over="ignore"):
        mean = float(arr.mean())
    if not math.isfinite(mean):
        raise DataIntegrityError("framewise displacement is too large: its mean overflows")
    return mean


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.size != ya.size:
        raise DimensionError(f"vectors differ in length: {xa.size} vs {ya.size}")
    if xa.size < 3:
        raise DegenerateInputError(f"need at least 3 paired samples, got {xa.size}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise DataIntegrityError("correlation input contains NaN or infinite entries")
    return xa, ya


def _t_pvalues(r: np.ndarray, m: int) -> np.ndarray:
    """Two-sided p for each correlation of m samples via the t transform; |r| = 1 gives 0."""
    # Imported here, so that only a command that computes a p-value pays for loading it.
    import scipy.special
    df = m - 2
    p = np.zeros_like(r)
    rest = np.abs(r) < 1.0
    t = r[rest] * np.sqrt(df / (1.0 - r[rest] * r[rest]))
    p[rest] = 2.0 * scipy.special.stdtr(df, -np.abs(t))
    return p


def pearson(x, y) -> tuple[float, float]:
    """Sample Pearson correlation with a two-sided parametric p-value.

    The denominator is one square root of the product of the two sums of
    squares, so exactly collinear inputs land on exactly +/-1 instead of an
    ulp short; r is clamped to [-1, 1] against rounding the other way.
    Inputs that do not vary or whose sums of squares overflow are refused.
    """
    xa, ya = _as_pair(x, y)
    with np.errstate(over="ignore"), _one_blas_thread():
        xc = xa - xa.mean()
        yc = ya - ya.mean()
        ssx = float(xc @ xc)
        ssy = float(yc @ yc)
        sxy = float(xc @ yc)
    if not (math.isfinite(ssx) and math.isfinite(ssy)):
        raise DataIntegrityError("correlation input is too large: a sum of squares overflows")
    if not (_varies(ssx, xa) and _varies(ssy, ya)):
        raise DegenerateInputError("correlation is undefined for a constant input")
    prod = ssx * ssy
    denom = math.sqrt(prod) if math.isfinite(prod) else math.sqrt(ssx) * math.sqrt(ssy)
    r = float(np.clip(sxy / denom, -1.0, 1.0))
    return r, float(_t_pvalues(np.array([r]), xa.size)[0])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array; tied values share the mean of their positions.

    A tie group over sorted positions start..end (0-based, end exclusive)
    gets rank (start + end + 1) / 2, an exact half-integer.
    """
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    new_group = np.r_[True, sorted_a[1:] != sorted_a[:-1]]
    bounds = np.r_[np.flatnonzero(new_group), a.size]
    ranks = np.empty(a.size)
    ranks[order] = ((bounds[:-1] + bounds[1:] + 1) / 2.0)[np.cumsum(new_group) - 1]
    return ranks


def spearman(x, y) -> tuple[float, float]:
    """Rank correlation: Pearson on average ranks, ties get the mean rank.

    Rounding can rank a constant input, so the values must vary (`_varies`).
    """
    xa, ya = _as_pair(x, y)
    with np.errstate(over="ignore"):
        if not (_varies(xa.var() * xa.size, xa) and _varies(ya.var() * ya.size, ya)):
            raise DegenerateInputError("correlation is undefined for a constant input")
    return pearson(_average_ranks(xa), _average_ranks(ya))


def fc_matrix(ts: SignalMatrix) -> FcMatrix:
    """Pairwise Pearson correlation of ROI columns, for the r(r-1)/2 edges only.

    Edge (i, j) averages the r of gram[i, j] and of gram[j, i], clipped into
    [-1, 1]: the bits of the symmetrised square's upper triangle, with no
    r x r array built beyond the gram. A constant ROI column has no defined
    correlation and is reported by name. Each column is first scaled by the
    power of two that brings its max|x| into [0.5, 1), which is exact: so r
    keeps its bits under any power-of-two scale of a column, and no product
    overflows or underflows, however large or small the values.
    """
    values = ts.values
    n, r = values.shape
    if n < 3:
        raise DegenerateInputError(f"need at least 3 timepoints for correlation, got {n}")
    labels = ts.column_labels if ts.column_labels is not None else default_roi_labels(r)
    max_abs = _max_abs(values)
    exponent = np.frexp(max_abs)[1]
    centered = np.ldexp(values, -exponent)
    centered -= centered.mean(axis=0, keepdims=True)
    gram = centered.T @ centered
    ss = np.diag(gram).copy()
    dead = np.flatnonzero(~_varies(ss, values, np.ldexp(max_abs, -exponent)))
    if dead.size:
        raise DegenerateInputError(f"ROI column {labels[dead[0]]!r} is constant")
    iu, ju = _edge_order(r)
    # ss[i] * ss[j] and ss[j] * ss[i] round alike, so one denominator serves both triangles.
    denom = np.sqrt(ss[iu] * ss[ju])
    edges = gram[iu, ju] / denom
    edges += gram[ju, iu] / denom
    edges /= 2.0
    return FcMatrix._from_edges(np.clip(edges, -1.0, 1.0, out=edges), labels)


def edge_lengths(p: Parcellation) -> np.ndarray:
    """Euclidean centroid distances in row-major upper-triangle order (`_edge_order`)."""
    iu, ju = _edge_order(p.n_rois)
    return np.linalg.norm(p.centroids[iu] - p.centroids[ju], axis=1)


def _subject_mfd(mfd_per_subject, s: int) -> np.ndarray:
    """Mean FD as a float vector: one finite value for each of s >= 3 subjects, or refused."""
    mfd = np.asarray(mfd_per_subject, dtype=float).ravel()
    if s < 3:
        raise DegenerateInputError(f"need at least 3 subjects, got {s}")
    if mfd.size != s:
        raise DimensionError(f"{s} FC matrices but {mfd.size} mean-FD values")
    if not np.all(np.isfinite(mfd)):
        raise DataIntegrityError("mean FD contains NaN or infinite entries")
    return mfd


# Defined edges per QC-FC matrix-vector product. A multiple of any row unroll of
# OpenBLAS's gemv kernels, so each edge's r has the bits of one product over them all.
_QCFC_BLOCK = 4096


def qcfc(fc_per_subject: list[FcMatrix], mfd_per_subject) -> QcFcReport:
    """Correlate each edge's connectivity with mean FD across subjects.

    Undefined edges (connectivity that does not vary across subjects)
    carry NaN and are excluded from the report's median. The subjects'
    edges are copied into one subjects x edges array, which `_qcfc_edges`
    scores in place, block by block.
    """
    mfd = _subject_mfd(mfd_per_subject, len(fc_per_subject))
    labels = fc_per_subject[0].roi_labels
    for k, fc in enumerate(fc_per_subject):
        if fc.roi_labels != labels:
            raise SchemaError(f"FC matrix {k} has different ROI labels than the first")
    r = len(labels)
    edges = np.empty((len(fc_per_subject), r * (r - 1) // 2))
    for row, fc in zip(edges, fc_per_subject):
        row[:] = fc.upper_triangle()
    return _qcfc_edges(edges, mfd)


def _qcfc_edges(edges: np.ndarray, mfd_per_subject, subject_ids=None) -> QcFcReport:
    """`qcfc` on a C-order float subjects x edges array, which it owns and centres in place.

    Besides `edges` it holds a few vectors of one value per edge and a copy
    of at most `_QCFC_BLOCK` defined edges' columns at a time. The products
    run on one OpenBLAS thread, so r does not depend on the caller's count.
    When the mean FDs' sum of squares overflows, the error names the subject
    furthest from the cohort mean, by its entry of `subject_ids` or else by
    its index.
    """
    s = edges.shape[0]
    mfd = _subject_mfd(mfd_per_subject, s)
    with np.errstate(over="ignore"):
        g = mfd - mfd.mean()
        ssg = float(g @ g)
    if not math.isfinite(ssg):
        # Scaled to max|x| = 1, so neither the mean nor a deviation overflows.
        scaled = mfd / np.abs(mfd).max()
        worst = int(np.argmax(np.abs(scaled - scaled.mean())))
        name = repr(subject_ids[worst]) if subject_ids is not None else worst
        raise DataIntegrityError(
            f"subject {name}: mean FD is too large: the cohort's sum of squares overflows"
        )
    if not _varies(ssg, mfd):
        raise DegenerateInputError("mean FD is constant across subjects")

    max_abs = _max_abs(edges)
    edges -= edges.mean(axis=0, keepdims=True)
    ss_edges = np.einsum("ij,ij->j", edges, edges)
    defined = _varies(ss_edges, edges, max_abs)

    r_vals = np.full(edges.shape[1], np.nan)
    cols = np.flatnonzero(defined)
    with _one_blas_thread():
        for start in range(0, cols.size, _QCFC_BLOCK):
            block = cols[start : start + _QCFC_BLOCK]
            # An F-order copy, so each r is one dot product of contiguous values:
            # the product on C-order `edges` itself rounds many r values differently.
            r_vals[block] = edges[:, block].T @ g
    r_vals[cols] = np.clip(r_vals[cols] / np.sqrt(ss_edges[cols] * ssg), -1.0, 1.0)
    return QcFcReport(edge_qcfc=r_vals, n_subjects=s)


def distance_dependence(report: QcFcReport, lengths) -> tuple[float, float]:
    """Spearman correlation of per-edge QC-FC with edge length.

    Undefined edges are dropped pairwise. Returns (rho, p).
    """
    lengths = np.asarray(lengths, dtype=float).ravel()
    if lengths.size != report.n_edges:
        raise DimensionError(
            f"report has {report.n_edges} edges but {lengths.size} lengths given"
        )
    defined = ~np.isnan(report.edge_qcfc)
    if int(defined.sum()) < 3:
        raise DegenerateInputError(
            f"need at least 3 defined edges, got {int(defined.sum())}"
        )
    return spearman(report.edge_qcfc[defined], lengths[defined])
