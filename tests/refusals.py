"""Every refusal of the `qcfc` command line, as one table of cases.

A case copies one small phantom cohort, changes the copy, runs one command
in it and checks how the command refuses: its exit code, its stderr, and
the paths it must not leave behind. Every refusal prints exactly one
`error:` line and no traceback; a usage error from argparse prints its
usage lines first. Two runners take the same table:

    pytest tests/test_refusals.py   # each case through `qcfc.cli.main`, in this process
    python -m tests.refusals        # each case through the installed `qcfc` console script

A new refusal is one more `Refusal` in `CASES`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qcfc.cli import SUBJECT_FILES
from qcfc.cli import main as cli_main

from .conftest import TINY_CFG, write_config

# Runs one command's argv in the current directory; returns its exit code and stderr.
Run = Callable[[list], tuple]

MANIFEST = ["--manifest", "cohort/manifest.json"]
CORRECT = ["correct", *MANIFEST, "--pipeline", "concat", "--out", "out"]
QC_RAW = ["qc", *MANIFEST, "--raw", "--report", "qc.json"]
QC_CORRECTED = ["qc", *MANIFEST, "--corrected", "corrected_concat", "--report", "qc.json"]
# What every case copies: `config.json` (TINY_CFG) and these commands' outputs.
BASE_COMMANDS = [
    ["phantom", "--config", "config.json", "--out", "cohort"],
    ["correct", *MANIFEST, "--pipeline", "concat", "--out", "corrected_concat"],
    ["qc", *MANIFEST, "--raw", "--report", "qc_raw.json"],
]
# Since 3.11 and 3.10.7, Python refuses to parse an integer of more than 4,300 digits.
NO_DIGIT_LIMIT = "" if getattr(sys, "get_int_max_str_digits", lambda: 0)() else "no digit limit"
BIG = "9" * 5000


@dataclass(frozen=True)
class Refusal:
    """One refused command: `stderr` is its whole last line if it starts with `error: `, else a
    fragment of it. `setup` changes the copied cohort first, and may run commands with `run`."""

    name: str
    argv: list
    code: int
    stderr: str
    absent: tuple = ()
    setup: Callable[[Run], object] = lambda run: None
    skip: str = ""


def expect(run: Run, code: int, argv: list) -> None:
    got, err = run(argv)
    assert got == code, f"{argv} exited {got}, expected {code}: {err!r}"


def edit_lines(edit: Callable[[list], list], *paths: str) -> None:
    for path in paths:
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("".join(line + "\n" for line in edit(lines)))


def set_cells(path: str, rows, column: int, text: str) -> None:
    """Set the cell of `column` on each line number in `rows` (the header is line 0)."""
    cells = [line.split(",") for line in Path(path).read_text().splitlines()]
    for row in rows:
        cells[row][column] = text
    Path(path).write_text("".join(",".join(line) + "\n" for line in cells))


def other_cohort(run: Run, report: bool) -> None:
    """A 4-subject cohort in `cohort4/`, and its `qc --raw` report `qc_raw4.json` if `report`."""
    write_config(Path("config4.json"), n_subjects=4, seed=9)
    expect(run, 0, ["phantom", "--config", "config4.json", "--out", "cohort4"])
    if report:
        expect(run, 0, ["qc", "--manifest", "cohort4/manifest.json", "--raw", "--report",
                        "qc_raw4.json"])
    else:  # a malformed motion file shows the subject count is checked before any file is read
        set_cells("cohort4/sub-000/motion.csv", [1], 0, "oops")


def set_json(path: str, value, *keys) -> None:
    """Set the field that `keys` lead to in the JSON file `path`."""
    obj = json.loads(Path(path).read_text())
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    Path(path).write_text(json.dumps(obj))


def failed_phantom_rerun(run: Run) -> None:
    Path("cohort/truth_fc.csv").unlink()
    Path("cohort/truth_fc.csv").mkdir()
    write_config(Path("config_seed4.json"), seed=4)
    expect(run, 3, ["phantom", "--config", "config_seed4.json", "--out", "cohort"])


def failed_correct_rerun(run: Run) -> None:
    """A baseline rerun over concat's output, then a concat rerun failing on a later subject."""
    rerun = ["correct", *MANIFEST, "--out", "corrected_concat", "--pipeline"]
    expect(run, 0, [*rerun, "baseline"])
    set_cells("cohort/sub-003/ts.csv", [5], 0, "nan")
    expect(run, 4, [*rerun, "concat"])


def field_over_limit(run: Run) -> None:
    """A stray quote that opens a field longer than `csv.field_size_limit()`."""
    ts = Path("cohort/sub-002/ts.csv")
    header, body = ts.read_text().split("\n", 1)
    ts.write_text(f'{header}\n"{body * (csv.field_size_limit() // len(body) + 1)}')


def keep(n: int) -> Callable[[list], list]:
    return lambda lines: lines[:n]


SHORT = "error: subject 'sub-000': sub-000/{}.csv: design matrix needs at least 2 rows, got 0"
OVER_LIMIT = (
    "error: subject 'sub-002': cohort/sub-002/ts.csv: field larger than field limit"
    f" ({csv.field_size_limit()})"
)
CASES = [
    Refusal("out-is-a-file", ["phantom", "--config", "config.json", "--out", "config.json"], 3,
            "error: [Errno 20] Not a directory: 'config.json/parcellation.csv'"),
    Refusal("qc-both-sources", [*QC_RAW, "--corrected", "corrected_concat"], 2,
            "argument --corrected: not allowed with argument --raw", ("qc.json",)),
    Refusal("qc-no-source", ["qc", *MANIFEST, "--report", "qc.json"], 2,
            "one of the arguments --corrected --raw is required", ("qc.json",)),
    Refusal("corrected-of-another-cohort",
            ["qc", "--manifest", "cohort4/manifest.json", "--corrected", "corrected_concat",
             "--report", "qc.json"], 4,
            "error: corrected_concat/run_info.json: corrected 5 subjects, the manifest lists 4",
            ("qc.json",), lambda run: other_cohort(run, report=False)),
    Refusal("subject-id-not-a-string", CORRECT, 2,
            "error: cohort/manifest.json: subjects[0]: subject_id must be a string, got True",
            ("out",), lambda run: set_json(MANIFEST[1], True, "subjects", 0, "subject_id")),
    Refusal("reports-of-different-cohorts",
            ["report", "qc_raw.json", "qc_raw4.json", "--csv", "comparison.csv"], 4,
            "error: qc_raw4.json has n_subjects 4, qc_raw.json has 5;"
            " only reports of one cohort can be compared",
            ("comparison.csv",), lambda run: other_cohort(run, report=True)),
    # JSON the decoder refuses is a malformed file: exit 2 for the config, 4 otherwise.
    Refusal("config-integer-beyond-digit-limit",
            ["phantom", "--config", "big.json", "--out", "out"], 2, "big.json: invalid JSON: ",
            ("out",),
            lambda run: Path("big.json").write_text(
                json.dumps(TINY_CFG).replace('"seed": 3', f'"seed": {BIG}')),
            NO_DIGIT_LIMIT),
    Refusal("manifest-integer-beyond-digit-limit", QC_RAW, 4,
            "cohort/manifest.json: invalid JSON: ", ("qc.json",),
            lambda run: edit_lines(lambda lines: [f'{{"n": {BIG},', *lines[1:]], MANIFEST[1]),
            NO_DIGIT_LIMIT),
    Refusal("report-nested-too-deep", ["report", "deep.json", "--csv", "comparison.csv"], 4,
            "deep.json: invalid JSON: ", ("comparison.csv",),
            lambda run: Path("deep.json").write_text("[" * 200_000)),
    # A rerun that fails leaves no index file of the old run, so `qc` refuses the directory.
    Refusal("failed-phantom-rerun", QC_RAW, 4,
            "error: cannot read cohort/manifest.json: [Errno 2] No such file or directory:"
            " 'cohort/manifest.json'", ("cohort/manifest.json", "qc.json"), failed_phantom_rerun),
    Refusal("failed-correct-rerun", QC_CORRECTED, 4,
            "error: corrected_concat has no run_info.json; run `correct` into this directory first",
            ("corrected_concat/run_info.json", "qc.json"), failed_correct_rerun),
    Refusal("missing-run-info",
            ["qc", *MANIFEST, "--corrected", "cohort", "--report", "qc.json"], 4,
            "error: cohort has no run_info.json; run `correct` into this directory first",
            ("qc.json",)),
    Refusal("unknown-run-info-pipeline", QC_CORRECTED, 2,
            "error: corrected_concat/run_info.json: unknown pipeline 'bogus'; valid names:"
            " baseline, seq-hmp-aroma-physio, seq-aroma-hmp-physio, concat", ("qc.json",),
            lambda run: set_json("corrected_concat/run_info.json", "bogus", "pipeline")),
    # Refused before any subject is read: sub-000's timeseries is malformed.
    Refusal("zero-bins", [*QC_RAW, "--bins", "0"], 2, "error: bins must be >= 1, got 0",
            ("qc.json",), lambda run: set_cells("cohort/sub-000/ts.csv", [1], 0, "oops")),
    Refusal("bins-beyond-numpy", [*QC_RAW, "--bins", str(10**20)], 2,
            f"error: bins must be small enough for NumPy to index its edges, got {10**20}",
            ("qc.json", "qc_histogram.csv"),
            lambda run: set_cells("cohort/sub-000/ts.csv", [1], 0, "oops")),
    # ROI labels are checked before the motion file's row count.
    Refusal("roi-labels-before-motion-rows", QC_RAW, 2,
            "error: subject 'sub-001': ROI labels differ from the parcellation", ("qc.json",),
            lambda run: edit_lines(lambda lines: [lines[0].replace("roi_000", "bogus"),
                                                  *lines[1:-1]], "cohort/sub-001/ts.csv")),
    # A failure on the first subject leaves no output directory.
    Refusal("one-row-ts", CORRECT, 4,
            "error: subject 'sub-000': sub-000/ts.csv: timeseries of shape (1, 6) is too small",
            ("out",), lambda run: edit_lines(keep(2), "cohort/sub-000/ts.csv")),
    Refusal("header-only-aroma", CORRECT, 4, SHORT.format("aroma"), ("out",),
            lambda run: edit_lines(keep(1), "cohort/sub-000/aroma.csv")),
    Refusal("header-only-physio", CORRECT, 4, SHORT.format("physio"), ("out",),
            lambda run: edit_lines(keep(1), "cohort/sub-000/physio.csv")),
    Refusal("constant-roi-column", QC_RAW, 5,
            "error: subject 'sub-001': ROI column 'roi_000' is constant", ("qc.json",),
            lambda run: set_cells("cohort/sub-001/ts.csv",
                                  range(1, TINY_CFG["n_timepoints"] + 1), 0, "1.5")),
    Refusal("two-timepoints", QC_RAW, 5,
            "error: subject 'sub-002': need at least 3 timepoints for correlation, got 2",
            ("qc.json",),
            lambda run: edit_lines(keep(3), *(f"cohort/sub-002/{f}.csv" for f in SUBJECT_FILES))),
    # A rerun, which removes the old run_info.json before its first file.
    Refusal("csv-field-over-limit", [*CORRECT[:-1], "corrected_concat"], 4, OVER_LIMIT,
            ("corrected_concat/run_info.json",), field_over_limit),
    Refusal("csv-field-over-limit-in-qc", QC_RAW, 4, OVER_LIMIT, ("qc.json",), field_over_limit),
    Refusal("subnormal-cell", QC_RAW, 4,
            "error: subject 'sub-001': cohort/sub-001/ts.csv: row 6, column 2:"
            " '4.9406564584124654e-324' is subnormal, below 2.22507e-308", ("qc.json",),
            lambda run: set_cells("cohort/sub-001/ts.csv", [5], 1, "4.9406564584124654e-324")),
]


@contextlib.contextmanager
def inside(directory: Path):
    old = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(old)


def make_base(root: Path, run: Run) -> Path:
    """Write the cohort every case copies into the new directory `root`."""
    root.mkdir(parents=True)
    with inside(root):
        write_config(Path("config.json"))
        for argv in BASE_COMMANDS:
            expect(run, 0, argv)
    return root


def check(case: Refusal, run: Run, base: Path, work: Path) -> None:
    """Run `case` in `work`, a fresh copy of `base`; an AssertionError says what differed."""
    shutil.copytree(base, work)
    with inside(work):
        case.setup(run)
        code, err = run(case.argv)
        left = [path for path in case.absent if os.path.lexists(path)]
    lines = err.splitlines()
    assert code == case.code, f"exit code {code}, expected {case.code}: {err!r}"
    usage = bool(lines) and lines[0].startswith("usage: ")
    one_error = [line for line in lines if "error: " in line] == lines[-1:]
    assert one_error and (usage or len(lines) == 1), f"not one error: line: {err!r}"
    assert "Traceback" not in err, err
    if case.stderr.startswith("error: "):
        assert lines[-1] == case.stderr, f"{lines[-1]!r} != {case.stderr!r}"
    else:
        assert case.stderr in lines[-1], f"{case.stderr!r} not in {lines[-1]!r}"
    assert not left, f"left behind: {left}"


def in_process(argv: list) -> tuple:
    """`qcfc.cli.main(argv)` in this process; argparse's usage errors exit through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def console_script(argv: list) -> tuple:
    done = subprocess.run(["qcfc", *argv], capture_output=True, text=True)
    return done.returncode, done.stderr


def main() -> int:
    """Run every case through the `qcfc` on PATH; exit 1 if any fails."""
    if shutil.which("qcfc") is None:
        print("error: no `qcfc` console script on PATH (pip install -e .)", file=sys.stderr)
        return 2
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        base = make_base(Path(tmp, "base"), console_script)
        for case in CASES:
            if case.skip:
                print(f"skip {case.name}: {case.skip}")
                continue
            try:
                check(case, console_script, base, Path(tmp, case.name))
                print(f"ok   {case.name}")
            except AssertionError as e:
                failed.append(case.name)
                print(f"FAIL {case.name}: {e}")
    print(f"{len(failed)} of {len(CASES)} refusals failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
