"""Deterministic synthetic cohort with known truth and injected artifact.

The generator builds, from one seed: ROI centroids in a 70 mm-radius sphere,
a shared ground-truth connectivity structure (sparse latent factors), and
per subject a smooth motion trace, motion-component stand-ins, two physio
confounds, and ROI timeseries contaminated by spatially decaying artifact
sources. Every contaminating timeseries is constructed as a linear
combination of columns of the subject's own nuisance blocks, so a single
regression on all blocks concatenated can remove it exactly; the artifact
sources deliberately mix motion-derived and component-derived parts so
that either sequential ordering leaves a systematic remainder.

Artifact coupling decays exponentially with distance from a handful of
source locations, which inflates connectivity between nearby ROIs for
high-motion subjects and produces a distance-dependent QC-FC profile at
baseline. All random draws happen in a fixed order independent of
artifact_gain, so regenerating with another gain changes only the injected
artifact: motion, components, physio, parcellation and truth stay
bit-identical, and a subject's timeseries at gain 1 minus its timeseries
at gain 0 is its artifact, up to rounding. A cohort keeps only its bundles,
parcellation and truth. Each subject's motion amplitude can be read back
from its motion: every translation column is a unit-std trace scaled by
it, so the column's population std is the amplitude.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataIntegrityError, SchemaError, ValidationError
from .metrics import FcMatrix, Parcellation, default_roi_labels
from .pipelines import HeadMotion, SubjectBundle, expand_hmp24
from .regression import (
    DesignMatrix,
    RegressorSource,
    SignalMatrix,
    _one_blas_thread,
    demean_columns,
    residualize_columns,
)
from .storage import Record, record_from_json

__all__ = [
    "PhantomConfig",
    "PhantomCohort",
    "PHYSIO_LABELS",
    "generate_cohort",
    "truth_error",
]

PHYSIO_LABELS = ("wm_mean", "nonbrain_mean")

_SPHERE_RADIUS_MM = 70.0
_LOWPASS_FRACTION = 0.1
_MIN_LOWPASS_BINS = 2
_ROTATION_SCALE = 1.0 / 50.0
_FACTOR_LOADING_LOW = 0.3
_FACTOR_LOADING_HIGH = 0.8
_PHYSIO_LOADING_STD = 0.3


# Each config field's range rule, as stated in its message and as a test.
_RANGE_RULES = (
    ("n_subjects", "be >= 3", lambda v: v >= 3),
    ("n_rois", "be >= 4", lambda v: v >= 4),
    ("n_timepoints", "be >= 24", lambda v: v >= 24),
    ("motion_amplitude_range", "satisfy 0 < low < high", lambda v: 0.0 < v[0] < v[1]),
    ("artifact_gain", "be >= 0", lambda v: v >= 0.0),
    ("artifact_length_scale", "be > 0", lambda v: v > 0.0),
    ("n_aroma_components", "be >= 0", lambda v: v >= 0),
    ("aroma_hmp_mixing", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("seed", "fit in 64 unsigned bits", lambda v: 0 <= v < 2**64),
)


def _n_sources(n_rois: int) -> int:
    return max(2, n_rois // 25)


def _largest_arrays(cfg: "PhantomConfig") -> dict[str, tuple[int, int]]:
    """Shapes of the biggest arrays `generate_cohort` allocates, by the fields that size them."""
    n, r, p = cfg.n_timepoints, cfg.n_rois, cfg.n_aroma_components
    return {
        "n_rois": (r, r),  # the truth correlation and its Cholesky factor
        "n_timepoints": (n, 24),  # the 24-parameter motion expansion
        "n_timepoints and n_rois": (n, r),  # neural signal, artifact, timeseries
        "n_timepoints and n_aroma_components": (n, p),  # component noise and components
        "n_aroma_components and n_rois": (p, _n_sources(r)),  # component-to-source mixing
    }


@dataclass(frozen=True)
class PhantomConfig(Record):
    """Everything the generator needs; two identical configs give identical cohorts."""

    n_subjects: int
    n_rois: int
    n_timepoints: int
    motion_amplitude_range: tuple[float, float]
    artifact_gain: float
    artifact_length_scale: float
    n_aroma_components: int
    aroma_hmp_mixing: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        for name, rule, holds in _RANGE_RULES:
            if not holds(getattr(self, name)):
                raise ValidationError(f"{name} must {rule}, got {getattr(self, name)}")
        # Refused here, before anything is generated: NumPy cannot index an
        # array of more than its largest signed index in bytes.
        for sizing, shape in _largest_arrays(self).items():
            if math.prod(shape) * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
                raise ValidationError(
                    f"{sizing}: a {shape[0]} x {shape[1]} float64 array is more than "
                    "NumPy can index"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "PhantomConfig":
        return record_from_json(cls, raw)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PhantomCohort:
    """Generated bundles plus the parcellation and ground truth they were built from.

    Nothing else is kept: a subject's injected artifact is its timeseries at
    artifact_gain 1 minus its timeseries at gain 0, and its motion amplitude
    is the population std of any translation column (see the module docstring).
    """

    bundles: tuple[SubjectBundle, ...]
    parcellation: Parcellation
    truth_fc: FcMatrix


def _standardize(arr: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-population-std columns; scale parity with the neural signal."""
    centered = arr - arr.mean(axis=0, keepdims=True)
    std = centered.std(axis=0, ddof=0)
    if np.any(std == 0.0):
        raise ValidationError("degenerate draw: a generated column has zero variance")
    return centered / std


def _smooth_noise(rng: np.random.Generator, n: int, cols: int) -> np.ndarray:
    """Low-pass filtered Gaussian noise, standardized per column.

    The cutoff keeps the lowest 10% of positive frequency bins (at least
    2), giving slow drifts rather than white jitter.
    """
    white = rng.standard_normal((n, cols))
    spectrum = np.fft.rfft(white, axis=0)
    cutoff = max(_MIN_LOWPASS_BINS, int(round(_LOWPASS_FRACTION * (n // 2))))
    spectrum[cutoff + 1 :] = 0.0
    smooth = np.fft.irfft(spectrum, n=n, axis=0)
    return _standardize(smooth)


def _truth_structure(rng: np.random.Generator, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse latent-factor correlation matrix and its Cholesky factor.

    Each ROI loads on exactly one of max(1, r // 10) factors with strength
    in [0.3, 0.8]; same-factor pairs correlate by the loading product,
    cross-factor pairs are 0, and the diagonal is exactly 1. The matrix is
    positive definite because the residual diagonal stays >= 1 - 0.8^2.
    """
    n_factors = max(1, r // 10)
    assign = rng.integers(0, n_factors, size=r)
    loadings = rng.uniform(_FACTOR_LOADING_LOW, _FACTOR_LOADING_HIGH, size=r)
    same = assign[:, None] == assign[None, :]
    sigma = np.where(same, loadings[:, None] * loadings[None, :], 0.0)
    np.fill_diagonal(sigma, 1.0)
    chol = np.linalg.cholesky(sigma)
    return sigma, chol


@contextmanager
def _overflow_refused():
    """Refuse a config whose cohort overflows float64, as an invalid config."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, DataIntegrityError) as e:
        raise ValidationError(f"config: the cohort it describes overflows float64 ({e})") from e


def generate_cohort(cfg: PhantomConfig) -> PhantomCohort:
    """Build the full cohort for one config; same config, same bytes.

    Draw order is fixed: geometry and truth structure first, then per
    subject (in id order) amplitude, motion, neural noise, component
    ingredients, source mixtures, physio. Nothing conditions on
    artifact_gain, which only scales the injected artifact at the end.
    A config whose values overflow float64 on the way (a huge
    artifact_gain or motion amplitude) raises ValidationError.
    """
    with _one_blas_thread(), _overflow_refused():
        rng = np.random.default_rng(cfg.seed)
        n = cfg.n_timepoints
        r = cfg.n_rois
        p = cfg.n_aroma_components
        mixing = cfg.aroma_hmp_mixing

        directions = rng.standard_normal((r, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = _SPHERE_RADIUS_MM * np.cbrt(rng.uniform(size=r))
        centroids = directions * radii[:, None]
        roi_labels = default_roi_labels(r)
        parcellation = Parcellation(roi_labels, centroids)

        sigma, chol = _truth_structure(rng, r)
        truth_fc = FcMatrix(sigma, roi_labels)

        n_sources = _n_sources(r)
        source_idx = rng.choice(r, size=n_sources, replace=False)
        dist_to_source = np.linalg.norm(
            centroids[:, None, :] - centroids[source_idx][None, :, :], axis=2
        )
        # With a tiny length scale, distance / scale can overflow to inf; exp(-inf) = 0 is
        # the right coupling.
        with np.errstate(over="ignore"):
            coupling = np.exp(-dist_to_source / cfg.artifact_length_scale)

        low, high = cfg.motion_amplitude_range
        bundles = []
        aroma_labels = tuple(f"comp_{i:02d}" for i in range(p))

        for j in range(cfg.n_subjects):
            amp = rng.uniform(low, high)

            trace = _smooth_noise(rng, n, 6)
            motion_values = np.hstack(
                [trace[:, :3] * amp, trace[:, 3:] * (amp * _ROTATION_SCALE)]
            )
            motion = HeadMotion(motion_values)
            hmp_centered = demean_columns(expand_hmp24(motion).values)

            neural = rng.standard_normal((n, r)) @ chol.T

            v_mix = rng.standard_normal((24, p))
            noise = rng.standard_normal((n, p))
            if p > 0:
                motion_derived = _standardize(hmp_centered @ v_mix)
                independent = _standardize(
                    residualize_columns(demean_columns(noise), hmp_centered)
                )
                aroma_values = _standardize(
                    mixing * motion_derived + (1.0 - mixing) * independent
                )
            else:
                aroma_values = np.zeros((n, 0))
            aroma = DesignMatrix(aroma_values, aroma_labels, RegressorSource.AROMA)

            alpha = rng.standard_normal((24, n_sources))
            beta = rng.standard_normal((p, n_sources))
            source_ts = _standardize(hmp_centered @ alpha)
            if p > 0:
                source_ts = _standardize(source_ts + _standardize(aroma_values @ beta))

            artifact = (cfg.artifact_gain * amp) * (source_ts @ coupling.T)

            physio_values = _smooth_noise(rng, n, 2)
            physio = DesignMatrix(physio_values, PHYSIO_LABELS, RegressorSource.PHYSIO)
            physio_loadings = rng.standard_normal((r, 2)) * _PHYSIO_LOADING_STD
            physio_leak = physio_values @ physio_loadings.T

            # Another grouping of this sum rounds differently and changes `ts`.
            ts = SignalMatrix(neural + (artifact + physio_leak), roi_labels)

            bundles.append(
                SubjectBundle(
                    subject_id=f"sub-{j:03d}",
                    ts=ts,
                    motion=motion,
                    aroma=aroma,
                    physio=physio,
                )
            )

        return PhantomCohort(tuple(bundles), parcellation, truth_fc)


def truth_error(corrected_fc: FcMatrix, truth_fc: FcMatrix) -> float:
    """Mean absolute difference over upper-triangle edges."""
    if corrected_fc.roi_labels != truth_fc.roi_labels:
        raise SchemaError("connectivity matrices have different ROI labels")
    return float(np.mean(np.abs(corrected_fc.upper_triangle() - truth_fc.upper_triangle())))
