"""`scripts/run_full_comparison.py` runs the command chain's steps in one process."""

import json
import runpy
import sys
from dataclasses import asdict
from pathlib import Path

import qcfc.cli as cli
from qcfc.pipelines import PipelineKind

from .conftest import SMALL_CONFIG
from .test_acceptance import _run_chain, _tree_bytes

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_full_comparison.py"

# The script's directory names and the ones criterion 8's chain uses.
CHAIN_NAMES = {
    "cohort": "data",
    **{f"corrected_{kind.value}": f"corr_{kind.value}" for kind in PipelineKind},
}


def run_script(monkeypatch, *args: str) -> int:
    """Run the script in this process, as `python SCRIPT args`; returns its exit code."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    try:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    except SystemExit as e:
        return e.code or 0
    return 0


def write_config(path: Path, **overrides) -> Path:
    path.write_text(json.dumps({**asdict(SMALL_CONFIG), **overrides}))
    return path


def test_writes_the_same_tree_as_the_command_chain(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "config.json")
    chain = tmp_path / "chain"
    chain.mkdir()
    _run_chain(chain, cfg)
    script = tmp_path / "script"
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(script)) == 0

    chain_tree = _tree_bytes(chain)
    script_tree = {}
    for name, data in _tree_bytes(script).items():
        top, *rest = Path(name).parts
        script_tree[str(Path(CHAIN_NAMES.get(top, top), *rest))] = data
    assert sorted(script_tree) == sorted(chain_tree)
    assert [name for name in chain_tree if script_tree[name] != chain_tree[name]] == []


def test_computes_each_subjects_framewise_displacement_once(tmp_path, monkeypatch):
    real = cli.framewise_displacement
    calls = []

    def counted(motion):
        calls.append(motion)
        return real(motion)

    monkeypatch.setattr(cli, "framewise_displacement", counted)
    cfg = write_config(tmp_path / "config.json")
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(tmp_path / "w")) == 0
    assert len(calls) == SMALL_CONFIG.n_subjects == 12


def test_invalid_config_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "config.json", n_subjects=0)
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(tmp_path / "w")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "n_subjects" in err[0]


def test_workdir_that_is_a_file_exits_3(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "config.json")
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(blocked)) == 3


def test_workdir_that_is_a_file_names_the_first_file_written(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "config.json")
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(blocked)) == 3
    target = str(blocked / "cohort" / "parcellation.csv")
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {target!r}\n"


def test_workdir_under_a_file_is_refused_before_generating(tmp_path, monkeypatch, capsys):
    def never(*_args):
        raise AssertionError("called before the output path was checked")

    monkeypatch.setattr(cli, "generate_cohort", never)
    monkeypatch.setattr(cli, "_Writer", never)
    cfg = write_config(tmp_path / "config.json")
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(blocked)) == 3
    target = str(blocked / "cohort" / "parcellation.csv")
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {target!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "config.json"]


def test_zero_bins_exits_2_before_writing_anything(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "config.json")
    work = tmp_path / "w"
    assert run_script(monkeypatch, "--config", str(cfg), "--workdir", str(work), "--bins", "0") == 2
    assert capsys.readouterr().err == "error: bins must be >= 1, got 0\n"
    assert not (work / "cohort").exists()


def test_bins_beyond_numpy_exit_2_before_writing_anything(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "config.json")
    work = tmp_path / "w"
    args = ("--config", str(cfg), "--workdir", str(work), "--bins", str(2**62))
    assert run_script(monkeypatch, *args) == 2
    assert capsys.readouterr().err == (
        f"error: bins must be small enough for NumPy to index its edges, got {2**62}\n"
    )
    assert not work.exists()


def test_usage_error_exits_2_with_one_error_line(monkeypatch, capsys):
    assert run_script(monkeypatch, "--bins", "x") == 2
    assert capsys.readouterr().err == (
        "error: run_full_comparison.py: argument --bins: invalid int value: 'x'\n"
    )
