"""The cohort generator and the pipelines run on one OpenBLAS thread.

Their outputs must not depend on the caller's thread count, and the
caller's count must be back in place afterwards, however the call ends.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import qcfc.pipelines as pipelines
import qcfc.regression as regression
from qcfc import generate_cohort
from qcfc.pipelines import PipelineKind, PipelineSpec, run_pipeline

from .conftest import REFERENCE_CONFIG, SMALL_CONFIG

# Paper-sized subjects, few of them: at this shape a matrix product gives
# other bits on two OpenBLAS threads than on one.
PAPER_SHAPE = replace(
    REFERENCE_CONFIG, n_subjects=3, n_rois=333, n_timepoints=1200, n_aroma_components=30
)

needs_control = pytest.mark.skipif(
    not regression._BLAS_THREAD_CONTROLS,
    reason="no OpenBLAS thread control found under numpy.libs or scipy.libs",
)


def thread_counts() -> list[int]:
    return [get() for get, _ in regression._BLAS_THREAD_CONTROLS]


@contextmanager
def caller_threads(count: int):
    """Set every OpenBLAS to `count` threads, as a caller might have."""
    saved = thread_counts()
    try:
        for _, set_threads in regression._BLAS_THREAD_CONTROLS:
            set_threads(count)
        yield
    finally:
        for (_, set_threads), n in zip(regression._BLAS_THREAD_CONTROLS, saved):
            set_threads(n)


def outputs(cfg) -> list[bytes]:
    """Every array of the generated cohort, then every pipeline's output."""
    cohort = generate_cohort(cfg)
    arrays = [cohort.parcellation.centroids, cohort.truth_fc.values]
    for b in cohort.bundles:
        arrays += [b.ts.values, b.motion.values, b.aroma.values, b.physio.values]
    for kind in PipelineKind:
        arrays += [run_pipeline(b, PipelineSpec(kind)).values for b in cohort.bundles]
    return [a.tobytes() for a in arrays]


@needs_control
def test_outputs_do_not_depend_on_callers_thread_count():
    with caller_threads(1):
        one = outputs(PAPER_SHAPE)
    with caller_threads(2):
        two = outputs(PAPER_SHAPE)
    assert len(one) == len(two)
    assert [i for i, (a, b) in enumerate(zip(one, two)) if a != b] == []


@needs_control
def test_callers_count_restored_after_return():
    bundle = generate_cohort(SMALL_CONFIG).bundles[0]
    with caller_threads(2):
        run_pipeline(bundle, PipelineSpec(PipelineKind.CONCAT_ALL))
        assert thread_counts() == [2] * len(regression._BLAS_THREAD_CONTROLS)
        generate_cohort(SMALL_CONFIG)
        assert thread_counts() == [2] * len(regression._BLAS_THREAD_CONTROLS)


@needs_control
def test_callers_count_restored_after_exception(monkeypatch):
    bundle = generate_cohort(SMALL_CONFIG).bundles[0]
    seen = []

    def failing_fit(*_args):
        seen.append(thread_counts())
        raise RuntimeError("fit failed")

    monkeypatch.setattr(pipelines, "ols_residualize", failing_fit)
    n_controls = len(regression._BLAS_THREAD_CONTROLS)
    with caller_threads(2):
        with pytest.raises(RuntimeError, match="fit failed"):
            run_pipeline(bundle, PipelineSpec(PipelineKind.CONCAT_ALL))
        assert seen == [[1] * n_controls]
        assert thread_counts() == [2] * n_controls


@needs_control
def test_nested_use_restores_each_level():
    n_controls = len(regression._BLAS_THREAD_CONTROLS)
    with caller_threads(2):
        with regression._one_blas_thread():
            with regression._one_blas_thread():
                assert thread_counts() == [1] * n_controls
            assert thread_counts() == [1] * n_controls
        assert thread_counts() == [2] * n_controls


def test_without_thread_control_outputs_are_unchanged(monkeypatch):
    expected = outputs(SMALL_CONFIG)
    monkeypatch.setattr(regression, "_BLAS_THREAD_CONTROLS", [])
    assert outputs(SMALL_CONFIG) == expected
