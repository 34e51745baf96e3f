"""Every product but `fc_matrix`'s gram runs on one OpenBLAS thread.

The cohort generator, the pipelines, QC-FC scoring, `pearson` and
`max_abs_correlation` must give outputs that do not depend on the caller's
thread count, and the caller's count must be back in place afterwards,
however the call ends.

Importing `qcfc.regression` sets each wheel-bundled OpenBLAS's idle timeout
to its least, unless the user set `OPENBLAS_THREAD_TIMEOUT`, and leaves the
environment as it was. So no helper thread spins after a product, and
products still raise their floating-point errors, let the main thread's
interrupts through and run in a forked child.
"""

import _thread
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import qcfc.pipelines as pipelines
import qcfc.regression as regression
from qcfc import DataIntegrityError, SignalMatrix, ValidationError, generate_cohort
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
# What `regression._sleep_when_idle` needs to set NumPy's OpenBLAS's idle timeout.
needs_idle_timeout = pytest.mark.skipif(
    not any(
        hasattr(lib, "openblas_read_env") and hasattr(lib, "blas_thread_shutdown_")
        for lib in regression._openblas_libs(np)
    )
    or "OPENBLAS_THREAD_TIMEOUT" in os.environ,
    reason="NumPy's OpenBLAS has no openblas_read_env and blas_thread_shutdown_,"
    " or OPENBLAS_THREAD_TIMEOUT is set",
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
def test_qcfc_edges_do_not_depend_on_callers_thread_count():
    # 40 subjects x 55,278 edges, every 97th constant: here one product over all the
    # defined edges on two OpenBLAS threads gives other bits than on one.
    rng = np.random.default_rng(11)
    edges = rng.standard_normal((40, 333 * 332 // 2))
    edges[:, ::97] = 0.5
    mfd = rng.uniform(0.1, 0.5, 40)
    r = {}
    for count in (1, 2, 4):
        with caller_threads(count):
            r[count] = _qcfc_edges(edges.copy(), mfd).edge_qcfc.tobytes()
            assert thread_counts() == [count] * len(regression._BLAS_THREAD_CONTROLS)
    assert r[2] == r[1] and r[4] == r[1]


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
def test_callers_count_restored_after_a_refused_config():
    with caller_threads(2):
        with pytest.raises(ValidationError, match="overflows float64"):
            generate_cohort(replace(SMALL_CONFIG, artifact_gain=1e308))
        assert thread_counts() == [2] * len(regression._BLAS_THREAD_CONTROLS)


@needs_control
def test_nested_use_restores_each_level():
    n_controls = len(regression._BLAS_THREAD_CONTROLS)
    with caller_threads(2):
        with regression._one_blas_thread():
            with regression._one_blas_thread():
                assert thread_counts() == [1] * n_controls
            assert thread_counts() == [1] * n_controls
        assert thread_counts() == [2] * n_controls


@needs_control
def test_correlations_do_not_depend_on_callers_thread_count():
    # 55,278 values: more than the 10,000 up to which OpenBLAS's dot product runs
    # on one thread, so on the caller's two threads `pearson` would round differently.
    products = paper_products()
    del products["fc_matrix"]  # the one product on the caller's count
    results = {}
    for count in (1, 2, 4):
        with caller_threads(count):
            results[count] = {name: product() for name, product in products.items()}
            assert thread_counts() == [count] * len(regression._BLAS_THREAD_CONTROLS)
    assert results[2] == results[1] and results[4] == results[1]


def test_without_thread_control_outputs_are_unchanged(monkeypatch):
    expected = outputs(SMALL_CONFIG)
    monkeypatch.setattr(regression, "_BLAS_THREAD_CONTROLS", [])
    assert outputs(SMALL_CONFIG) == expected


def paper_products() -> dict:
    """Products at paper scale: 333 ROIs x 1200 TRs, 30 components, 55,278 edges."""
    rng = np.random.default_rng(5)
    ts = SignalMatrix(rng.standard_normal((1200, 333)))
    components = DesignMatrix(rng.standard_normal((1200, 30)), tuple(f"c{i}" for i in range(30)))
    x, y = rng.standard_normal((2, 333 * 332 // 2))
    return {
        "fc_matrix": lambda: fc_matrix(ts).values.tobytes(),
        "pearson": lambda: pearson(x, y),
        "spearman": lambda: spearman(x, y),
        "max_abs_correlation": lambda: max_abs_correlation(ts, components),
    }


@needs_idle_timeout
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


# Prints, after `import qcfc.regression`, the idle timeout of each OpenBLAS it can set,
# and whether the environment, as Python and as C see it, is what it was before.
_TIMEOUTS_AFTER_IMPORT = """
import ctypes, json, os
import numpy, scipy
getenv = ctypes.CDLL(None).getenv
getenv.argtypes, getenv.restype = [ctypes.c_char_p], ctypes.c_char_p
before = dict(os.environ), getenv(b"OPENBLAS_THREAD_TIMEOUT")
import qcfc.regression as regression
libs = [
    lib for lib in regression._OPENBLAS_LIBS
    if hasattr(lib, "openblas_read_env") and hasattr(lib, "blas_thread_shutdown_")
]
print(json.dumps({
    "timeouts": [lib.openblas_thread_timeout() for lib in libs],
    "environment_kept": (dict(os.environ), getenv(b"OPENBLAS_THREAD_TIMEOUT")) == before,
}))
"""


@needs_idle_timeout
@pytest.mark.parametrize("users_timeout, expected", [(None, 4), ("30", 30)], ids=["unset", "30"])
def test_import_sets_the_least_idle_timeout_unless_the_user_set_one(users_timeout, expected):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    if users_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = users_timeout
    run = subprocess.run(
        [sys.executable, "-c", _TIMEOUTS_AFTER_IMPORT],
        capture_output=True, text=True, check=True, env=env,
    )
    seen = json.loads(run.stdout)
    assert seen["timeouts"] and set(seen["timeouts"]) == {expected}
    assert seen["environment_kept"]


def sigint_to_main_thread() -> None:
    """A real SIGINT, which also wakes the main thread from a blocking wait."""
    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)


@needs_idle_timeout
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
def test_an_interrupt_during_a_product_is_raised(capfd, interrupt):
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
                # OpenBLAS still runs a product on the caller's threads.
                values.T @ values
            timer.join()
    assert raised == 10
    assert capfd.readouterr().err == ""


@needs_idle_timeout
@pytest.mark.filterwarnings("error")
def test_overflowing_sums_of_squares_still_refused():
    # Long enough that OpenBLAS would split each dot product into jobs on two threads.
    x = np.resize([1e200, -1e200], 55_278)
    with caller_threads(2):
        with pytest.raises(DataIntegrityError, match="a sum of squares overflows"):
            pearson(x, x[::-1])


@needs_idle_timeout
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_products_on_threads_of_its_own():
    ts = SignalMatrix(np.random.default_rng(7).standard_normal((1200, 333)))
    with caller_threads(2):
        expected = fc_matrix(ts).values
        pid = os.fork()
        if pid == 0:  # the child inherits no OpenBLAS thread: OpenBLAS starts its own
            same = False
            try:
                signal.alarm(60)
                same = np.array_equal(fc_matrix(ts).values, expected)
            finally:
                os._exit(0 if same else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
