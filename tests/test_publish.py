"""Each output directory is published whole: a run that fails, is interrupted or crashes, or
that overlaps another into one directory, never leaves a mix of two runs.

`phantom`, `correct` and `compare` build each output directory in a fresh
sibling and rename it into place once its index file is written.
"""

import errno
import functools
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcfc.cli as cli
import qcfc.storage as storage
from qcfc.cli import load_bundle, load_manifest, main
from qcfc.pipelines import PipelineKind

from .conftest import write_config
from .test_acceptance import _tree_bytes
from .test_comparison_script import run_script
from .test_comparison_script import write_config as write_small_config
from .test_writer import correct, writers, writers_or_none  # noqa: F401 (fixtures)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    cfg = write_config(root / "config.json")
    assert main(["phantom", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root / "data"


def qc_report(manifest: Path, source: list, report: Path) -> bytes:
    """The bytes of the report `qc` writes, which must exit 0."""
    assert main(["qc", "--manifest", str(manifest), *source, "--report", str(report)]) == 0
    return report.read_bytes()


# `cli`'s writer tasks by name, as imported here (and in a writer), before any test replaces one.
TASKS = {name: getattr(cli, name) for name in ("_write_subject", "_write_corrected")}


def write_unless(sid: str, task: str, *args) -> None:
    """Writer task: the task `task`, unless it writes a file of the subject `sid` (OSError)."""
    if any(sid in str(arg) for arg in args if isinstance(arg, Path)):
        raise OSError(f"injected failure writing {sid}")
    TASKS[task](*args)


def test_two_runs_interleaved_into_one_out_publish_one_whole(cohort, tmp_path, writers_or_none):
    manifest, base = load_manifest(cohort / "manifest.json")
    bundles = [load_bundle(base, paths) for paths in manifest.subjects]
    out, alone = tmp_path / "out", tmp_path / "alone"
    with cli._writer_for(2) as writer:
        for _ in cli.correct_cohort(bundles, PipelineKind.CONCAT_ALL, alone, writer):
            pass
    with cli._writer_for(2) as writer:
        # Subject by subject: concat, then baseline on one subject fewer. Baseline ends first.
        runs = [
            cli.correct_cohort(bundles, PipelineKind.CONCAT_ALL, out, writer),
            cli.correct_cohort(bundles[:-1], PipelineKind.BASELINE, out, writer),
        ]
        for _ in itertools.zip_longest(*runs):
            pass
    assert _tree_bytes(out) == _tree_bytes(alone)
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_rerun_of_one_subject_fewer_leaves_no_stale_file(cohort, tmp_path, writers_or_none):
    fewer = tmp_path / "fewer"
    shutil.copytree(cohort, fewer)
    manifest = json.loads((fewer / "manifest.json").read_text())
    manifest["subjects"].pop()
    (fewer / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert correct(cohort, "concat", out) == 0
    assert correct(fewer, "concat", out) == 0
    assert sorted(_tree_bytes(out)) == ["run_info.json", *(f"sub-00{k}.csv" for k in range(4))]
    assert qc_report(fewer / "manifest.json", ["--corrected", str(out)], tmp_path / "qc.json")


def test_a_rerun_failing_on_a_later_subject_leaves_the_earlier_run(
    cohort, tmp_path, writers_or_none
):
    out, broken = tmp_path / "out", tmp_path / "broken"
    assert correct(cohort, "concat", out) == 0
    manifest = cohort / "manifest.json"
    scored = qc_report(manifest, ["--corrected", str(out)], tmp_path / "before.json")
    before = _tree_bytes(out)
    shutil.copytree(cohort, broken)
    ts = broken / "sub-003" / "ts.csv"
    lines = ts.read_text().splitlines(keepends=True)
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    ts.write_text("".join(lines))
    assert correct(broken, "baseline", out) == 4
    assert _tree_bytes(out) == before
    assert qc_report(manifest, ["--corrected", str(out)], tmp_path / "after.json") == scored


@pytest.mark.parametrize("when", ["first-subject", "later-subject", "interrupt"])
@pytest.mark.parametrize("command", ["phantom", "correct"])
def test_a_failed_or_interrupted_rerun_leaves_the_earlier_run(
    cohort, tmp_path, writers_or_none, monkeypatch, command, when
):
    """Byte for byte, with no `*.tmp` anywhere, and `qc` scores it."""
    manifest = cohort / "manifest.json"
    if command == "phantom":
        out = tmp_path / "cohort"
        shutil.copytree(cohort, out)
        cfg = write_config(tmp_path / "c.json", seed=4)
        argv, task = ["phantom", "--config", str(cfg), "--out", str(out)], "_write_subject"
        manifest, source = out / "manifest.json", ["--raw"]
    else:
        out = tmp_path / "out"
        assert correct(cohort, "concat", out) == 0
        argv = ["correct", "--manifest", str(manifest), "--pipeline", "baseline", "--out", str(out)]
        task, source = "_write_corrected", ["--corrected", str(out)]
    before = _tree_bytes(out)
    sid = "sub-000" if when == "first-subject" else "sub-003"
    if when == "interrupt":
        submit = cli._Writer.submit

        def interrupted(self, task, *args):
            if any(sid in str(arg) for arg in args):
                raise KeyboardInterrupt
            submit(self, task, *args)

        monkeypatch.setattr(cli._Writer, "submit", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        monkeypatch.setattr(cli, task, functools.partial(write_unless, sid, task))
        assert main(argv) == 3
    assert _tree_bytes(out) == before
    assert list(tmp_path.rglob("*.tmp")) == []
    qc_report(manifest, source, tmp_path / "qc.json")


def test_a_symbolic_link_out_keeps_pointing_at_the_new_run(cohort, tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    assert correct(cohort, "baseline", target) == 0
    link.symlink_to(target)
    assert correct(cohort, "concat", link) == 0
    assert link.is_symlink() and _tree_bytes(link) == _tree_bytes(target)
    assert b'"concat"' in (target / "run_info.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


@pytest.mark.parametrize("name", ["c" * 255, "é" * 127 + "c"], ids=["ascii", "two-byte"])
def test_an_out_named_with_the_longest_name_is_written_and_rewritten(
    cohort, tmp_path, writers_or_none, name
):
    """255 bytes, the longest name a filesystem allows: the staging and temporary names fit."""
    assert len(name.encode()) == 255
    cfg = write_config(tmp_path / "config.json")
    out = tmp_path / "phantom" / name
    for _ in range(2):
        assert main(["phantom", "--config", str(cfg), "--out", str(out)]) == 0
        assert _tree_bytes(out) == _tree_bytes(cohort)
    expected, out = tmp_path / "expected", tmp_path / "correct" / name
    assert correct(cohort, "concat", expected) == 0
    for _ in range(2):
        assert correct(cohort, "concat", out) == 0
        assert _tree_bytes(out) == _tree_bytes(expected)
    assert list(tmp_path.rglob("*.tmp")) == []


def test_the_comparison_script_rerun_into_its_workdir_writes_the_same_tree(tmp_path, monkeypatch):
    cfg = write_small_config(tmp_path / "config.json")
    work = tmp_path / "work"
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(work)) == 0
    first = _tree_bytes(work)
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(work)) == 0
    assert _tree_bytes(work) == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "work"]


def test_the_comparison_script_refuses_a_directory_of_other_files_before_any_work(
    tmp_path, monkeypatch, capsys
):
    def never(*_args):
        raise AssertionError("called before the output directories were checked")

    monkeypatch.setattr(cli, "generate_cohort", never)
    cfg = write_small_config(tmp_path / "config.json")
    notes = tmp_path / "work" / "corrected_concat" / "notes.txt"
    notes.parent.mkdir(parents=True)
    notes.write_text("keep me\n")
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(tmp_path / "work")) == 2
    assert capsys.readouterr().err == (
        f"error: {notes.parent} is not empty and holds no run_info.json: only an empty"
        " directory or an earlier run of this command is replaced\n"
    )
    assert _tree_bytes(tmp_path / "work") == {"corrected_concat/notes.txt": b"keep me\n"}


# Run in a child interpreter with no writer processes: the command of argv[2:], ended by
# `os._exit(70)` right after its argv[1]-th `atomic_write_text`.
_CRASH_AFTER = """
import os, sys
import qcfc.cli as cli
import qcfc.storage as storage

crash_after, real, written = int(sys.argv[1]), storage.atomic_write_text, []


def atomic_write_text(path, text):
    real(path, text)
    written.append(path)
    if len(written) == crash_after:
        os._exit(70)


storage.atomic_write_text = atomic_write_text
cli._usable_cpus = lambda: 1
sys.exit(cli.main(sys.argv[2:]))
"""
# A rerun of each command over the earlier run in a copy of the sweep's directory: its argv,
# the directory it replaces, and how `qc` scores that directory.
RERUNS = {
    "phantom": (
        ["phantom", "--config", "config_seed4.json", "--out", "cohort"],
        "cohort",
        ["--raw"],
    ),
    "correct": (
        ["correct", "--manifest", "cohort/manifest.json", "--pipeline", "baseline", "--out",
         "corrected"],
        "corrected",
        ["--corrected", "corrected"],
    ),
}


@pytest.fixture(scope="module")
def sweep_base(tmp_path_factory):
    """A 3-subject cohort (seed 3) and its concat run; the configs of seeds 3 and 4."""
    root = tmp_path_factory.mktemp("sweep")
    for name, seed in (("config.json", 3), ("config_seed4.json", 4)):
        write_config(root / name, n_subjects=3, seed=seed)
    with pytest.MonkeyPatch.context() as m:
        m.chdir(root)
        assert main(["phantom", "--config", "config.json", "--out", "cohort"]) == 0
        assert correct(Path("cohort"), "concat", Path("corrected")) == 0
    return root


@pytest.mark.parametrize("command", list(RERUNS))
def test_a_crash_after_any_write_leaves_a_run_qc_scores_whole(
    sweep_base, tmp_path, monkeypatch, capsys, command
):
    """For every k: the rerun ends abruptly after its k-th atomic write, or finishes at N + 1.

    `qc` then scores the old run or the new one, never a mix, and until the
    new run is published the old one keeps every byte.
    """
    argv, out, source = RERUNS[command]
    runs, writes = {}, []
    for name in ("old", "new"):
        shutil.copytree(sweep_base, tmp_path / name)
        monkeypatch.chdir(tmp_path / name)
        if name == "new":
            with monkeypatch.context() as counted:
                real = storage.atomic_write_text
                counted.setattr(storage, "atomic_write_text",
                                lambda path, text: writes.append(real(path, text)))
                assert main(argv) == 0
        report = qc_report(Path("cohort/manifest.json"), source, tmp_path / f"{name}.json")
        runs[name] = (_tree_bytes(Path(out)), report)
    assert runs["old"] != runs["new"]
    crashes = range(1, len(writes) + 2)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    children = {}
    for start in range(0, len(crashes), 4):  # four children at a time
        batch = crashes[start : start + 4]
        for k in batch:
            shutil.copytree(sweep_base, tmp_path / f"k{k}")
            children[k] = subprocess.Popen(
                [sys.executable, "-c", _CRASH_AFTER, str(k), *argv], cwd=tmp_path / f"k{k}",
                env=env, stdout=subprocess.DEVNULL,
            )
        for k in batch:
            assert children[k].wait(timeout=120) == (0 if k > len(writes) else 70)
    for k in crashes:
        monkeypatch.chdir(tmp_path / f"k{k}")
        tree = _tree_bytes(Path(out))
        published = tree == runs["new"][0]
        assert published == (k > len(writes)), f"crash after write {k}"
        assert tree == runs["new" if published else "old"][0], f"crash after write {k}"
        report = qc_report(Path("cohort/manifest.json"), source, tmp_path / f"k{k}.json")
        assert report == runs["new" if published else "old"][1], f"crash after write {k}"
    capsys.readouterr()


def test_a_swap_that_fails_names_the_users_path_and_removes_the_staged_run(
    cohort, tmp_path, monkeypatch, capsys
):
    """Say another run's directory took `--out`'s place between the two renames."""
    out = tmp_path / "out"
    assert correct(cohort, "baseline", out) == 0
    before = _tree_bytes(out)
    rename = os.rename

    def taken(src, dst):
        if str(src).endswith(".tmp") and not str(src).endswith(".old.tmp"):
            raise OSError(errno.ENOTEMPTY, os.strerror(errno.ENOTEMPTY), src, None, dst)
        rename(src, dst)

    monkeypatch.setattr(cli.os, "rename", taken)
    assert correct(cohort, "concat", out) == 3
    reason = f"[Errno {errno.ENOTEMPTY}] {os.strerror(errno.ENOTEMPTY)}"
    assert capsys.readouterr().err.startswith(f"error: {reason}: {str(out)!r} -> ")
    # Only the earlier run is left, whole, under the name it was set aside to.
    (aside,) = tmp_path.iterdir()
    assert aside.name.endswith(".old.tmp") and _tree_bytes(aside) == before
