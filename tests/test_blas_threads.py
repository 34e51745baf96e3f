"""The cohort generator and the pipelines run on one OpenBLAS thread.

Their outputs must not depend on the caller's thread count, and the
caller's count must be back in place afterwards, however the call ends.

The connectivity products and `max_abs_correlation`'s product run on the
caller's count through `regression._threaded`, whose job threads block
instead of spinning when idle. Their bits, their floating-point errors and
the main thread's interrupts must be what they are without it.
"""

import _thread
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import qcfc.pipelines as pipelines
import qcfc.regression as regression
from qcfc import DataIntegrityError, SignalMatrix, generate_cohort
from qcfc.metrics import _qcfc_edges, fc_matrix, pearson, spearman
from qcfc.pipelines import PipelineKind, PipelineSpec, run_pipeline
from qcfc.regression import DesignMatrix, max_abs_correlation

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
needs_callback = pytest.mark.skipif(
    regression._SET_THREADS_CALLBACK is None,
    reason="no OpenBLAS threads callback (0.3.28 or later) found under numpy.libs",
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


def paper_products() -> dict:
    """The products `_threaded` runs, at paper scale: 333 ROIs x 1200 TRs, 40 subjects."""
    rng = np.random.default_rng(5)
    ts = SignalMatrix(rng.standard_normal((1200, 333)))
    components = DesignMatrix(rng.standard_normal((1200, 30)), tuple(f"c{i}" for i in range(30)))
    edges = rng.standard_normal((40, 333 * 332 // 2))
    mfd = rng.uniform(0.1, 0.5, 40)
    x, y = rng.standard_normal((2, edges.shape[1]))
    return {
        "fc_matrix": lambda: fc_matrix(ts).values.tobytes(),
        "_qcfc_edges": lambda: _qcfc_edges(edges.copy(), mfd).edge_qcfc.tobytes(),
        "spearman": lambda: spearman(x, y),
        "max_abs_correlation": lambda: max_abs_correlation(ts, components),
    }


@pytest.fixture
def callback_threads(monkeypatch) -> list:
    """Record the thread each threads callback runs on."""
    seen = []
    run_jobs = regression._run_jobs

    @regression._THREADS_CALLBACK
    def recording(*args):
        seen.append(threading.current_thread())
        run_jobs(*args)

    monkeypatch.setattr(regression, "_run_jobs", recording)
    return seen


@needs_callback
def test_no_blas_thread_spins_after_a_product():
    products = paper_products()
    idle_cpu = {}
    with caller_threads(2):
        for name, product in products.items():
            product()
            start = time.process_time()
            time.sleep(0.3)
            idle_cpu[name] = time.process_time() - start
    assert {name: cpu < 0.05 for name, cpu in idle_cpu.items()} == dict.fromkeys(products, True)


@needs_callback
@pytest.mark.parametrize("threads", [2, 4])
def test_products_keep_their_bits_and_never_call_back_on_the_main_thread(
    monkeypatch, callback_threads, threads
):
    products = paper_products()
    with caller_threads(threads):
        through_callback = {name: product() for name, product in products.items()}
        assert callback_threads
        assert threading.main_thread() not in callback_threads
        monkeypatch.setattr(regression, "_SET_THREADS_CALLBACK", None)
        assert {name: product() for name, product in products.items()} == through_callback


@needs_callback
def test_a_job_that_cannot_start_fails_the_product(monkeypatch):
    ts = SignalMatrix(np.random.default_rng(8).standard_normal((1200, 333)))
    stopped = ThreadPoolExecutor(1)
    stopped.shutdown()
    with caller_threads(2):
        expected = fc_matrix(ts).values
        with monkeypatch.context() as patch:
            patch.setattr(regression, "_job_threads", stopped)
            with pytest.raises(RuntimeError, match="cannot schedule new futures"):
                fc_matrix(ts)
        assert np.array_equal(fc_matrix(ts).values, expected)


def sigint_to_main_thread() -> None:
    """A real SIGINT, which also wakes the main thread from a blocking wait."""
    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)


@needs_callback
@pytest.mark.parametrize(
    "interrupt",
    [
        _thread.interrupt_main,
        pytest.param(
            sigint_to_main_thread,
            marks=pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill"),
        ),
    ],
    ids=["interrupt_main", "sigint"],
)
def test_an_interrupt_during_a_product_is_raised(capfd, callback_threads, interrupt):
    values = np.random.default_rng(6).standard_normal((1200, 333))
    ts = SignalMatrix(values)
    raised = 0
    with caller_threads(2):
        for delay in np.linspace(0.005, 0.1, 10):
            timer = threading.Timer(delay, interrupt)
            timer.start()
            deadline = time.monotonic() + 20
            try:
                while time.monotonic() < deadline:
                    fc_matrix(ts)
            except KeyboardInterrupt:
                raised += 1
                # Had the interrupted product not finished, this would meet its callback.
                values.T @ values
            timer.join()
    assert raised == 10
    assert threading.main_thread() not in callback_threads
    assert capfd.readouterr().err == ""


@needs_callback
@pytest.mark.filterwarnings("error")
def test_overflowing_sums_of_squares_still_refused():
    # Long enough that OpenBLAS splits each dot product into jobs.
    x = np.resize([1e200, -1e200], 55_278)
    with caller_threads(2):
        with pytest.raises(DataIntegrityError, match="a sum of squares overflows"):
            pearson(x, x[::-1])


@needs_callback
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_products_on_threads_of_its_own():
    ts = SignalMatrix(np.random.default_rng(7).standard_normal((1200, 333)))
    with caller_threads(2):
        expected = fc_matrix(ts).values
        pid = os.fork()
        if pid == 0:  # the child inherits the pools, but not their threads
            same = False
            try:
                signal.alarm(60)
                same = np.array_equal(fc_matrix(ts).values, expected)
            finally:
                os._exit(0 if same else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
