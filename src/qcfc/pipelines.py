"""Nuisance blocks per subject and the four correction strategies.

A subject carries ROI timeseries, a 6-parameter rigid-body motion trace,
a per-subject motion-component block (width varies, may be empty), and two
physiological mean signals. The motion trace expands to 24 regressors:
the 6 parameters, their backward-difference derivatives, and the squares
of both sets. Correction is either no-op demeaning, one of two sequential
block orderings, or a single regression on all blocks concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataIntegrityError, DimensionError, QcfcError, ValidationError
from .regression import (
    DesignMatrix,
    SignalMatrix,
    _one_blas_thread,
    _owned,
    _validated_matrix,
    concat_designs,
    ols_residualize,
    sequential_residualize,
)

__all__ = [
    "HMP_PARAM_LABELS",
    "MAX_ROTATION_RAD",
    "check_rotations",
    "HeadMotion",
    "PIPELINE_STAGES",
    "PipelineKind",
    "PipelineSpec",
    "SubjectBundle",
    "expand_hmp24",
    "build_blocks",
    "run_pipeline",
]

# Column order of every motion file and HeadMotion matrix: translations in
# mm, then rotations in radians.
HMP_PARAM_LABELS = ("dx_mm", "dy_mm", "dz_mm", "rx_rad", "ry_rad", "rz_rad")
# The largest |rotation| a motion file or a phantom may hold: 0.5 rad, about
# 29 degrees, more than a head turns in a head coil. Rotations written in
# degrees under the `_rad` headers pass it once a scan moves half a degree.
MAX_ROTATION_RAD = 0.5


@dataclass(frozen=True, eq=False)
class HeadMotion:
    """Rigid-body realignment trace: n_timepoints rows by 6 parameters. Equality is identity."""

    values: np.ndarray

    def __post_init__(self):
        arr = _validated_matrix(self.values, "head motion", min_rows=2)
        if arr.shape[1] != 6:
            raise DimensionError(
                f"head motion must be n x 6 (dx, dy, dz, rx, ry, rz), got shape {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def n_timepoints(self) -> int:
        return self.values.shape[0]


def check_rotations(motion: HeadMotion, error: type[QcfcError]) -> None:
    """Raise `error` naming the first rotation column whose |value| exceeds MAX_ROTATION_RAD."""
    for label, peak in zip(HMP_PARAM_LABELS[3:], np.abs(motion.values[:, 3:]).max(axis=0)):
        if peak > MAX_ROTATION_RAD:
            raise error(
                f"{label} reaches {peak:.4g} rad, beyond the {MAX_ROTATION_RAD} rad"
                " (29 degree) bound on |rotation|"
            )


class PipelineKind(Enum):
    """The four correction strategies, named as the CLI spells them."""

    BASELINE = "baseline"
    SEQ_HMP_AROMA_PHYSIO = "seq-hmp-aroma-physio"
    SEQ_AROMA_HMP_PHYSIO = "seq-aroma-hmp-physio"
    CONCAT_ALL = "concat"

    @classmethod
    def from_name(cls, name: str) -> "PipelineKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(kind.value for kind in cls)
        raise ValidationError(f"unknown pipeline {name!r}; valid names: {valid}")


@dataclass(frozen=True)
class PipelineSpec:
    """Selects exactly one correction strategy."""

    kind: PipelineKind

    def __post_init__(self):
        if not isinstance(self.kind, PipelineKind):
            raise ValidationError(f"kind must be a PipelineKind, got {self.kind!r}")


@dataclass(frozen=True, eq=False)
class SubjectBundle:
    """Everything one subject contributes: timeseries plus nuisance inputs.

    The motion-component block may be empty (zero columns) for a subject
    where none were flagged; the physio block is always the two mask means.
    Equality is identity.
    """

    subject_id: str
    ts: SignalMatrix
    motion: HeadMotion
    aroma: DesignMatrix
    physio: DesignMatrix

    def __post_init__(self):
        n = self.ts.n_timepoints
        for name, rows in (
            ("motion", self.motion.n_timepoints),
            ("aroma", self.aroma.n_timepoints),
            ("physio", self.physio.n_timepoints),
        ):
            if rows != n:
                raise DimensionError(f"{name} has {rows} rows, timeseries has {n}")
        if self.physio.k != 2:
            raise DimensionError(
                "physio must have exactly 2 columns "
                f"(white-matter mean, non-brain mean), got {self.physio.k}"
            )


_HMP24_LABELS = (
    HMP_PARAM_LABELS
    + tuple(f"{p}_deriv" for p in HMP_PARAM_LABELS)
    + tuple(f"{p}_sq" for p in HMP_PARAM_LABELS)
    + tuple(f"{p}_deriv_sq" for p in HMP_PARAM_LABELS)
)


def expand_hmp24(motion: HeadMotion) -> DesignMatrix:
    """Expand 6 motion parameters to the standard 24-regressor block.

    Fixed column order keeps file outputs byte-stable: the 6 parameters,
    their 6 backward-difference derivatives (first row 0), the 6 squared
    parameters, the 6 squared derivatives. Finite motion so large that a
    derivative or a square overflows float64 is refused (DataIntegrityError).
    """
    params = motion.values
    deriv = np.zeros_like(params)
    with np.errstate(over="ignore"):
        deriv[1:] = np.diff(params, axis=0)
        values = np.hstack([params, deriv, params**2, deriv**2])
    if not np.all(np.isfinite(values)):
        raise DataIntegrityError(
            "head motion is too large: its derivatives or squares overflow float64"
        )
    return _owned(DesignMatrix, values, _HMP24_LABELS, "design matrix")


def build_blocks(bundle: SubjectBundle) -> dict[str, DesignMatrix]:
    """Assemble one subject's three nuisance blocks, keyed "hmp", "aroma" and "physio".

    The motion block is the 24-regressor expansion; the component and physio
    blocks pass through as the bundle holds them.
    """
    return {"hmp": expand_hmp24(bundle.motion), "aroma": bundle.aroma, "physio": bundle.physio}


# Each strategy as an ordered tuple of block groups, each block named by its
# `build_blocks` key, the token the pipeline names use. Blocks in one group
# are regressed out together, in one projection onto their concatenation;
# groups are regressed out one after another.
PIPELINE_STAGES: dict[PipelineKind, tuple[tuple[str, ...], ...]] = {
    PipelineKind.BASELINE: (),
    PipelineKind.SEQ_HMP_AROMA_PHYSIO: (("hmp",), ("aroma",), ("physio",)),
    PipelineKind.SEQ_AROMA_HMP_PHYSIO: (("aroma",), ("hmp",), ("physio",)),
    PipelineKind.CONCAT_ALL: (("aroma", "hmp", "physio"),),
}


def run_pipeline(bundle: SubjectBundle, spec: PipelineSpec) -> SignalMatrix:
    """Apply one correction strategy to a subject's timeseries.

    Sequential strategies regress the blocks out one at a time in the
    stated order, so only the final (physio) block is guaranteed removed;
    the concatenated strategy projects once onto the joint column space
    and removes all three simultaneously. Baseline only demeans. ROI labels
    pass through.

    A single group goes straight to `ols_residualize`: routing it through
    `sequential_residualize` would demean once more and change the last
    bits of the output.
    """
    with _one_blas_thread():
        blocks = build_blocks(bundle)
        designs = [
            concat_designs([blocks[name] for name in group])
            for group in PIPELINE_STAGES[spec.kind]
        ]
        if len(designs) == 1:
            return ols_residualize(bundle.ts, designs[0])
        return sequential_residualize(bundle.ts, designs)
