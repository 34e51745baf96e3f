"""`cli`'s writer processes, which write the matrix files of a large enough command.

The writers change where the files are formatted, never their bytes, which
failure a command reports, or what is left behind when it ends.
"""

import errno
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import qcfc.cli as cli
from qcfc.cli import load_bundle, load_manifest, main, run_guarded
from qcfc.errors import DegenerateInputError
from qcfc.pipelines import PipelineKind, PipelineSpec, run_pipeline
from qcfc.regression import SignalMatrix
from qcfc.storage import read_matrix_csv

from .conftest import write_config
from .test_acceptance import _tree_bytes
from .test_comparison_script import run_script
from .test_comparison_script import write_config as write_small_config


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg = write_config(root / "config.json")
    assert main(["phantom", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.fixture
def writers(monkeypatch):
    """Two writer processes for every command, whatever its size and this machine's CPUs."""
    monkeypatch.setattr(cli, "_VALUES_PER_WRITER", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


@pytest.fixture(params=["writers", "no-writers"])
def writers_or_none(request, monkeypatch):
    """Two writer processes for every command, then none (one usable CPU)."""
    if request.param == "writers":
        request.getfixturevalue("writers")
    else:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)


def correct(cohort: Path, pipeline: str, out: Path) -> int:
    manifest = str(cohort / "manifest.json")
    return main(["correct", "--manifest", manifest, "--pipeline", pipeline, "--out", str(out)])


def long_ids(cohort: Path, copy: Path, *positions: int) -> list[str]:
    """Copy `cohort` to `copy`, giving the subjects at `positions` ids too long for a file name.

    So writing those subjects' corrected files fails, in a writer if there is one.
    """
    shutil.copytree(cohort, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    for k in positions:
        manifest["subjects"][k]["subject_id"] += "x" * 250
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return [manifest["subjects"][k]["subject_id"] for k in positions]


def expected_corrected(cohort: Path, kind: PipelineKind) -> dict:
    """Each subject's corrected timeseries, computed in this process."""
    manifest, base = load_manifest(cohort / "manifest.json")
    return {
        paths.subject_id: run_pipeline(load_bundle(base, paths), PipelineSpec(kind))
        for paths in manifest.subjects
    }


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from /proc."""
    own = str(os.getpid())
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
            state_and_rest = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if state_and_rest[1] == own:
            children.append(int(stat.parent.name))
    return children


def fail_after(delay: float, message: str) -> None:
    """Writer task that raises OSError(message) after `delay` seconds."""
    time.sleep(delay)
    raise OSError(message)


def touch_after(delay: float, path: str) -> None:
    """Writer task that creates the file `path` after `delay` seconds."""
    time.sleep(delay)
    Path(path).touch()


class LockedError(Exception):
    """An exception that cannot be pickled: it holds a lock."""

    def __init__(self, message: str):
        super().__init__(message)
        self.lock = threading.Lock()


def raise_locked(message: str) -> None:
    raise LockedError(message)


def locked_command() -> None:
    with cli._Writer(1) as writer:
        writer.submit(raise_locked, "held a lock")


def dying_command() -> None:
    with cli._Writer(1) as writer:
        writer.submit(os._exit, 1)


def interrupted_command() -> None:
    with cli._Writer(2) as writer:
        writer.submit(time.sleep, 0.2)
        raise KeyboardInterrupt


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_corrected_files_hold_the_callers_pipeline_result(cohort, tmp_path, writers, kind):
    out = tmp_path / "out"
    assert correct(cohort, kind.value, out) == 0
    for sid, expected in expected_corrected(cohort, kind).items():
        values, labels = read_matrix_csv(out / f"{sid}.csv")
        assert labels == expected.column_labels
        assert values.tobytes() == expected.values.tobytes()


def test_blocked_outputs_exit_3_naming_the_earlier_subject(cohort, tmp_path, writers, capsys):
    """The error names the earlier subject's file under `--out`, and the earlier run stays."""
    out = tmp_path / "out"
    assert correct(cohort, "baseline", out) == 0
    before = _tree_bytes(out)
    earlier, _later = long_ids(cohort, tmp_path / "cohort", 1, 3)
    assert correct(tmp_path / "cohort", "concat", out) == 3
    reason = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert capsys.readouterr().err == f"error: {reason}: {str(out / f'{earlier}.csv')!r}\n"
    assert list(tmp_path.rglob("*.tmp")) == []
    assert _tree_bytes(out) == before


def test_corrected_files_hold_the_matrix_the_caller_scored(
    cohort, tmp_path, writers_or_none, monkeypatch
):
    """The caller's matrix is written as it is, never computed again."""

    def doubled(bundle, spec, real=cli.run_pipeline):
        result = real(bundle, spec)
        return SignalMatrix(result.values * 2.0, result.column_labels)

    monkeypatch.setattr(cli, "run_pipeline", doubled)
    out = tmp_path / "out"
    assert correct(cohort, "concat", out) == 0
    for sid, expected in expected_corrected(cohort, PipelineKind.CONCAT_ALL).items():
        assert read_matrix_csv(out / f"{sid}.csv")[0].tobytes() == (expected.values * 2.0).tobytes()


def test_failure_on_the_first_subject_leaves_no_out(cohort, tmp_path, writers_or_none, monkeypatch):
    def failing(bundle, spec):
        raise DegenerateInputError("injected failure")

    monkeypatch.setattr(cli, "run_pipeline", failing)
    out = tmp_path / "out"
    assert correct(cohort, "concat", out) == 5
    assert not out.exists()


def test_a_cohort_without_components_gives_one_tree_with_and_without_writers(
    tmp_path, writers, monkeypatch
):
    """Zero-column `aroma.csv` files, written, read back and regressed on as an empty block."""
    cfg = write_config(tmp_path / "config.json", n_aroma_components=0)

    def command_chain(root: Path) -> dict:
        assert main(["phantom", "--config", str(cfg), "--out", str(root / "cohort")]) == 0
        manifest = str(root / "cohort" / "manifest.json")
        for kind in PipelineKind:
            out, report = root / f"corrected_{kind.value}", root / f"qc_{kind.value}.json"
            assert correct(root / "cohort", kind.value, out) == 0
            qc = ["qc", "--manifest", manifest, "--corrected", str(out), "--report", str(report)]
            assert main(qc) == 0
        return _tree_bytes(root)

    with_writers = command_chain(tmp_path / "writers")
    with monkeypatch.context() as serial:
        serial.setattr(cli, "_usable_cpus", lambda: 1)
        assert command_chain(tmp_path / "serial") == with_writers
    aroma, labels = read_matrix_csv(tmp_path / "writers" / "cohort" / "sub-000" / "aroma.csv")
    assert aroma.shape == (40, 0) and labels == ()


@pytest.mark.parametrize(
    "n_values, cpus, workers",
    [
        (6_000_000, 2, 2),
        (6_000_000, 3, 3),
        (6_000_000, 64, 4),
        (1_200_000, 8, 2),
        (999_999, 8, 0),
        (6_000_000, 1, 0),
        (0, 4, 0),
    ],
)
def test_writer_count_rule(n_values, cpus, workers):
    assert cli._writer_count(n_values, cpus) == workers


def test_one_cpu_writes_every_file_in_this_process(cohort, tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("a writer process was started")

    monkeypatch.setattr(cli, "_VALUES_PER_WRITER", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli.subprocess, "Popen", no_process)
    assert correct(cohort, "concat", tmp_path / "out") == 0


def test_a_writer_that_dies_is_one_error_line_and_exit_3(capsys):
    assert run_guarded(dying_command) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a writer process ended abruptly")
    assert len(err.splitlines()) == 1


def test_a_task_a_writer_cannot_load_is_one_error_line_and_exit_3(capfd, monkeypatch):
    """Its function's module is only in this process; the writer answers and goes on serving."""
    module = types.ModuleType("only_in_this_process")
    exec("def task():\n    pass\n", module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    pools = []

    def command() -> None:
        with cli._Writer(1) as writer:
            pools.append(writer)
            writer.submit(module.task)

    assert run_guarded(command) == 3
    assert capfd.readouterr().err == (
        "error: a writer could not load its task: No module named 'only_in_this_process'\n"
    )
    # Not stopped for it: it exited on its own once its pipe was closed.
    assert pools[0]._procs[0].returncode == 0


def test_wait_raises_the_first_failure_in_submission_order():
    with pytest.raises(OSError, match="^first$"):
        with cli._Writer(2) as writer:
            writer.submit(fail_after, 0.5, "first")
            writer.submit(fail_after, 0.0, "second")
            writer.wait()


def test_a_failed_write_stops_the_caller_at_its_next_submit():
    with pytest.raises(OSError, match="^first$"):
        with cli._Writer(2) as writer:
            writer.submit(fail_after, 0.0, "first")
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                writer.submit(time.sleep, 0.0)
                time.sleep(0.01)
            pytest.fail("the failed write was never raised")


def test_a_failure_that_cannot_be_pickled_is_one_error_line_and_exit_3(capsys):
    """The writer answers with an OSError carrying the failure's message."""
    assert run_guarded(locked_command) == 3
    assert capsys.readouterr().err == "error: held a lock\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("raised_by", ["leaving the block", "wait"])
def test_tasks_not_yet_started_never_run_after_a_failure(tmp_path, raised_by):
    markers = tmp_path / "markers"
    markers.mkdir()
    with pytest.raises(OSError, match="^first$"):
        with cli._Writer(1) as writer:
            writer.submit(fail_after, 0.2, "first")
            for i in range(10):
                writer.submit(touch_after, 0.2, str(markers / str(i)))
            if raised_by == "wait":
                writer.wait()
    # Only the task already running when the failure was raised may have run.
    assert len(list(markers.iterdir())) <= 1
    assert child_pids() == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_writer_that_cannot_start_leaves_no_process(monkeypatch):
    started = []
    real_popen = cli.subprocess.Popen

    def second_fails(*args, **kwargs):
        if started:
            raise OSError("no second writer")
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(cli.subprocess, "Popen", second_fails)
    with pytest.raises(OSError, match="^no second writer$"):
        cli._Writer(2)
    assert len(started) == 1 and started[0].returncode == 0
    assert child_pids() == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_at_most_two_tasks_per_writer_wait():
    """`submit` waits for room, so the arrays handed to writers cannot pile up."""
    with cli._Writer(1) as writer:
        for _ in range(8):
            writer.submit(time.sleep, 0.05)
            assert len(writer._pending) <= 2
    assert child_pids() == []


@pytest.mark.skipif(not hasattr(os, "getpriority"), reason="no os.getpriority")
def test_writers_run_at_a_lower_priority_than_the_main_process():
    """A writer lowers its own priority first, so the numerics of the main process preempt it."""
    parent = os.getpriority(os.PRIO_PROCESS, 0)
    if parent >= 19:
        pytest.skip(f"this process already runs at the lowest priority, niceness {parent}")
    with cli._Writer(1) as writer:
        writer.submit(time.sleep, 0.0)
        writer.wait()  # the writer has run its code
        assert os.getpriority(os.PRIO_PROCESS, writer._procs[0].pid) > parent


def test_a_write_failure_comes_before_a_later_error_of_the_caller():
    with pytest.raises(OSError, match="^write$"):
        with cli._Writer(1) as writer:
            writer.submit(fail_after, 0.2, "write")
            raise DegenerateInputError("later")


# Run in a child interpreter: `qcfc.cli` as `__main__`, as `python -m qcfc.cli` runs it,
# with two writers forced on the imported `qcfc.cli` and each of its pools recorded.
_RUN_AS_MAIN = """
import runpy, sys, warnings
import qcfc.cli as cli

cli._VALUES_PER_WRITER = 1
cli._usable_cpus = lambda: 2
pools = []


def writer_for(n_values, real=cli._writer_for):
    pools.append(real(n_values))
    return pools[-1]


cli._writer_for = writer_for
# runpy warns that the module it runs was imported first, as it was just above.
warnings.filterwarnings("ignore", "'qcfc.cli' found in sys.modules", RuntimeWarning)
sys.argv = ["qcfc", *sys.argv[1:]]
try:
    runpy.run_module("qcfc.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    print("exit", e.code, "writers", [len(pool._procs) for pool in pools])
"""


def test_python_m_qcfc_cli_runs_the_commands_of_the_imported_module(cohort, tmp_path):
    """Its writers get tasks and records of `qcfc.cli`, which they can unpickle."""
    out = tmp_path / "data"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    argv = ["phantom", "--config", str(cohort.parent / "config.json"), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", _RUN_AS_MAIN, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.stderr == ""
    assert run.stdout.splitlines()[-1] == "exit 0 writers [2]"
    assert _tree_bytes(out) == _tree_bytes(cohort)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("outcome", ["success", "write-failure", "dead-writer", "interrupt"])
def test_no_process_outlives_a_command(cohort, tmp_path, writers, outcome):
    assert child_pids() == []
    if outcome == "success":
        assert correct(cohort, "concat", tmp_path / "out") == 0
    elif outcome == "write-failure":
        long_ids(cohort, tmp_path / "cohort", 2)
        assert correct(tmp_path / "cohort", "concat", tmp_path / "out") == 3
    elif outcome == "dead-writer":
        assert run_guarded(dying_command) == 3
    else:
        with pytest.raises(KeyboardInterrupt):
            interrupted_command()
    assert child_pids() == []


def test_replaced_cli_names_leave_the_tree_unchanged(tmp_path, writers, monkeypatch):
    """A task is pickled by reference, so closures in `cli` (a tracer's) never reach a writer."""
    cfg = write_small_config(tmp_path / "config.json")
    plain = tmp_path / "plain"
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(plain)) == 0
    for name in ("write_matrix_csv", "write_motion_csv", "run_pipeline", "atomic_write_text"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _real=real, **kwargs: _real(*args, **kwargs))
    patched = tmp_path / "patched"
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(patched)) == 0
    assert _tree_bytes(patched) == _tree_bytes(plain)
