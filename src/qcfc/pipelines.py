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

from .errors import DimensionError, ValidationError
from .regression import (
    DesignMatrix,
    RegressorSource,
    SignalMatrix,
    _one_blas_thread,
    _validated_matrix,
    concat_designs,
    ols_residualize,
    sequential_residualize,
)

__all__ = [
    "HMP_PARAM_LABELS",
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


@dataclass(frozen=True)
class HeadMotion:
    """Rigid-body realignment trace: n_timepoints rows by 6 parameters."""

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


@dataclass(frozen=True)
class SubjectBundle:
    """Everything one subject contributes: timeseries plus nuisance inputs.

    The motion-component block may be empty (zero columns) for a subject
    where none were flagged; the physio block is always the two mask means.
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


def expand_hmp24(motion: HeadMotion) -> DesignMatrix:
    """Expand 6 motion parameters to the standard 24-regressor block.

    Fixed column order keeps file outputs byte-stable: the 6 parameters,
    their 6 backward-difference derivatives (first row 0), the 6 squared
    parameters, the 6 squared derivatives. Motion so large that a
    derivative or a square overflows float64 leaves an infinite entry, which
    the block refuses (DataIntegrityError).
    """
    params = motion.values
    deriv = np.zeros_like(params)
    with np.errstate(over="ignore"):
        deriv[1:] = np.diff(params, axis=0)
        values = np.hstack([params, deriv, params**2, deriv**2])
    labels = (
        tuple(HMP_PARAM_LABELS)
        + tuple(f"{p}_deriv" for p in HMP_PARAM_LABELS)
        + tuple(f"{p}_sq" for p in HMP_PARAM_LABELS)
        + tuple(f"{p}_deriv_sq" for p in HMP_PARAM_LABELS)
    )
    return DesignMatrix(values, labels, RegressorSource.HMP)


def build_blocks(bundle: SubjectBundle) -> dict[RegressorSource, DesignMatrix]:
    """Assemble the three nuisance blocks for one subject.

    The motion block is the 24-regressor expansion; the component and physio
    blocks pass through as the bundle holds them.
    """
    return {
        RegressorSource.HMP: expand_hmp24(bundle.motion),
        RegressorSource.AROMA: bundle.aroma,
        RegressorSource.PHYSIO: bundle.physio,
    }


_HMP, _AROMA, _PHYSIO = RegressorSource.HMP, RegressorSource.AROMA, RegressorSource.PHYSIO

# Each strategy as an ordered tuple of block groups. Blocks in one group are
# regressed out together, in one projection onto their concatenation; groups
# are regressed out one after another.
PIPELINE_STAGES: dict[PipelineKind, tuple[tuple[RegressorSource, ...], ...]] = {
    PipelineKind.BASELINE: (),
    PipelineKind.SEQ_HMP_AROMA_PHYSIO: ((_HMP,), (_AROMA,), (_PHYSIO,)),
    PipelineKind.SEQ_AROMA_HMP_PHYSIO: ((_AROMA,), (_HMP,), (_PHYSIO,)),
    PipelineKind.CONCAT_ALL: ((_AROMA, _HMP, _PHYSIO),),
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
            concat_designs([blocks[source] for source in group])
            for group in PIPELINE_STAGES[spec.kind]
        ]
        if len(designs) == 1:
            return ols_residualize(bundle.ts, designs[0])
        return sequential_residualize(bundle.ts, designs)
