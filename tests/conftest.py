import json

import numpy as np
import pytest

from qcfc import (
    DesignMatrix,
    HeadMotion,
    PhantomConfig,
    RegressorSource,
    SignalMatrix,
    SubjectBundle,
    expand_hmp24,
    generate_cohort,
)
from qcfc.regression import demean_columns

REFERENCE_CONFIG = PhantomConfig(
    n_subjects=60,
    n_rois=100,
    n_timepoints=200,
    motion_amplitude_range=(0.1, 2.0),
    artifact_gain=1.0,
    artifact_length_scale=40.0,
    n_aroma_components=11,
    aroma_hmp_mixing=0.6,
    seed=42,
)

SMALL_CONFIG = PhantomConfig(
    n_subjects=12,
    n_rois=30,
    n_timepoints=60,
    motion_amplitude_range=(0.1, 2.0),
    artifact_gain=1.0,
    artifact_length_scale=40.0,
    n_aroma_components=5,
    aroma_hmp_mixing=0.6,
    seed=7,
)


# A cohort small enough to run every command on in well under a second.
TINY_CFG = {
    "n_subjects": 5,
    "n_rois": 6,
    "n_timepoints": 40,
    "motion_amplitude_range": [0.1, 1.5],
    "artifact_gain": 1.0,
    "artifact_length_scale": 40.0,
    "n_aroma_components": 3,
    "aroma_hmp_mixing": 0.6,
    "seed": 3,
}


def write_config(path, **overrides):
    path.write_text(json.dumps({**TINY_CFG, **overrides}))
    return path


@pytest.fixture(scope="session")
def reference_cohort():
    return generate_cohort(REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def small_cohort():
    return generate_cohort(SMALL_CONFIG)


def standardize(arr):
    centered = arr - arr.mean(axis=0, keepdims=True)
    return centered / centered.std(axis=0, ddof=0)


def make_correlated_bundle(seed, n=200):
    """Random subject whose nuisance blocks are deliberately non-orthogonal.

    Components and physio both borrow from the motion expansion, and the
    timeseries carries contamination from the joint span, so sequential
    orderings leave a detectable remainder while one concatenated
    regression removes everything.
    """
    rng = np.random.default_rng(seed)
    r = int(rng.integers(3, 21))
    p = int(rng.integers(2, 8))
    motion = HeadMotion(rng.standard_normal((n, 6)) * 0.5)
    hd = demean_columns(expand_hmp24(motion).values)
    aroma = standardize(
        0.6 * standardize(hd @ rng.standard_normal((24, p)))
        + 0.4 * standardize(rng.standard_normal((n, p)))
    )
    physio = standardize(
        0.5 * standardize(hd @ rng.standard_normal((24, 2)))
        + 0.5 * standardize(rng.standard_normal((n, 2)))
    )
    contamination = standardize(hd @ rng.standard_normal((24, r))) + standardize(
        demean_columns(aroma) @ rng.standard_normal((p, r))
    )
    ts = rng.standard_normal((n, r)) + contamination
    return SubjectBundle(
        subject_id=f"inst-{seed}",
        ts=SignalMatrix(ts),
        motion=motion,
        aroma=DesignMatrix(aroma, tuple(f"c{i}" for i in range(p)), RegressorSource.AROMA),
        physio=DesignMatrix(physio, ("wm", "nb"), RegressorSource.PHYSIO),
    )


def orthogonal_blocks(seed, n=60, widths=(4, 3, 2)):
    """Mutually orthogonal, demeaned design blocks from one QR basis."""
    rng = np.random.default_rng(seed)
    total = sum(widths)
    q, _ = np.linalg.qr(demean_columns(rng.standard_normal((n, total))))
    sources = (RegressorSource.HMP, RegressorSource.AROMA, RegressorSource.PHYSIO)
    blocks = []
    start = 0
    for width, source in zip(widths, sources):
        cols = q[:, start : start + width]
        labels = tuple(f"{source.value.lower()}{i}" for i in range(width))
        blocks.append(DesignMatrix(cols, labels, source))
        start += width
    return blocks
