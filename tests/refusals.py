"""Every refusal of the `qcfc` command line, as one table of cases.

A case copies one small phantom cohort, changes the copy, runs one command
in it and checks how the command refuses: its exit code, its stderr, the
paths it must not leave behind and the directories whose files it must
leave as they were. Every refusal, a usage error included, prints exactly
one `error:` line and nothing else, and leaves no `*.tmp` file or
directory. Two runners take the same table:

    pytest tests/                   # each case through `qcfc.cli.main`, in this process
    python -m tests.refusals        # each case through the installed `qcfc` console script

pytest runs a case in `test_refusals.py`, or in `test_cli.py` under the id of
the hand-written test it replaced. A new refusal is one more `Refusal` in
`CASES`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
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
PHANTOM = ["phantom", "--config", "c.json", "--out", "out"]
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
    """One refused command: `stderr` is its whole line if it starts with `error: `, else how the
    message after `error: ` starts; `{work}` in it stands for the case's directory. `setup` changes
    the copied cohort first, and may run commands with `run`. Every file under each directory in
    `kept` must keep the bytes it had after `setup`."""

    name: str
    argv: list
    code: int
    stderr: str
    absent: tuple = ()
    setup: Callable[[Run], object] = lambda run: None
    skip: str = ""
    kept: tuple = ()


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


# The longest directory name a filesystem allows, 255 bytes.
LONG_NAME = "c" * 255


def long_named_cohort(run: Run) -> None:
    """The cohort renamed to `LONG_NAME`; a config of another seed whose rotations are too large."""
    os.rename("cohort", LONG_NAME)
    write_config(Path("config_seed4.json"), seed=4, motion_amplitude_range=[20.0, 30.0])


def failed_correct_rerun(run: Run) -> None:
    """A baseline rerun over concat's output; then sub-003's timeseries holds a NaN."""
    expect(run, 0, ["correct", *MANIFEST, "--pipeline", "baseline", "--out", "corrected_concat"])
    set_cells("cohort/sub-003/ts.csv", [5], 0, "nan")


def flat_cohort(run: Run, run_info: bool) -> None:
    """Each subject's timeseries as `cohort/<subject_id>.csv`, beside the manifest; with
    `run_info`, also a copy of `corrected_concat/run_info.json`, as if corrected into `cohort`."""
    listed = json.loads(Path(MANIFEST[1]).read_text())["subjects"]
    for entry in listed:
        os.rename(f"cohort/{entry['ts']}", f"cohort/{entry['subject_id']}.csv")
        entry["ts"] = f"{entry['subject_id']}.csv"
    set_json(MANIFEST[1], listed, "subjects")
    if run_info:
        shutil.copy("corrected_concat/run_info.json", "cohort")


def unrelated_files(run: Run) -> None:
    Path("notes").mkdir()
    Path("notes/todo.txt").write_text("keep me\n")


def rotations_in_degrees(path: str) -> None:
    """Multiply a motion file's rotation columns by 180 / pi (about 57.3), as degrees."""
    lines = Path(path).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = [[*row[:3], *(repr(math.degrees(float(cell))) for cell in row[3:])] for row in rows]
    Path(path).write_text("".join(line + "\n" for line in [lines[0], *map(",".join, rows)]))


def field_over_limit(run: Run) -> None:
    """A stray quote that opens a field longer than `csv.field_size_limit()`."""
    ts = Path("cohort/sub-002/ts.csv")
    header, body = ts.read_text().split("\n", 1)
    ts.write_text(f'{header}\n"{body * (csv.field_size_limit() // len(body) + 1)}')


def keep(n: int) -> Callable[[list], list]:
    return lambda lines: lines[:n]


def config(**overrides) -> Callable[[Run], object]:
    """A setup that writes TINY_CFG with `overrides` to `c.json`."""
    return lambda run: write_config(Path("c.json"), **overrides)


def append_invalid_utf8(path: str) -> None:
    with open(path, "ab") as fh:
        fh.write(b"\xff")


def huge_cells(path: str) -> None:
    """Set every cell of a matrix file to 1e308 or 1.5e308, alternating by row and by column:
    finite values whose sums overflow float64."""
    lines = Path(path).read_text().splitlines()
    rows = [",".join(("1e308", "1.5e308")[(i + j) % 2] for j in range(len(line.split(","))))
            for i, line in enumerate(lines[1:])]
    Path(path).write_text("".join(line + "\n" for line in [lines[0], *rows]))


def keep_subjects(n: int) -> None:
    """Keep the first `n` subjects of the manifest."""
    listed = json.loads(Path(MANIFEST[1]).read_text())["subjects"]
    set_json(MANIFEST[1], listed[:n], "subjects")


def report_with(field: str, value) -> Callable[[Run], object]:
    """A setup that writes `qc.json`, the raw report with `field` set to `value`."""
    def setup(run: Run) -> None:
        shutil.copy("qc_raw.json", "qc.json")
        set_json("qc.json", value, field)
    return setup


# `subject_id` values that are not one path component, by row name.
SUBJECT_IDS = {"escaping": "../../escaped", "slash": "a/b", "backslash": "a\\b", "empty": "",
               "dot": ".", "dotdot": "..", "nul": "a\x00b"}
# Manifest paths that leave the manifest's directory, by row name: (the keys to the field, path).
OUTSIDE_PATHS = {
    "absolute-ts": (("subjects", 0, "ts"), "{work}/cohort/sub-001/ts.csv"),
    "parent-motion": (("subjects", 0, "motion"), "../cohort/sub-001/motion.csv"),
    "inner-dotdot-aroma": (("subjects", 0, "aroma"), "sub-000/../sub-001/aroma.csv"),
    "backslash-physio": (("subjects", 0, "physio"), "..\\cohort\\sub-001\\physio.csv"),
    "absolute-parcellation": (("parcellation_path",), "{work}/cohort/parcellation.csv"),
}


def far_parcellation(run: Run) -> None:
    """ROI centroids at x = +-1e308, whose distances overflow float64."""
    for row in range(1, TINY_CFG["n_rois"] + 1):
        set_cells("cohort/parcellation.csv", [row], 1, "1e308" if row % 2 else "-1e308")


OVERFLOWING_CONFIG = "config: the cohort it describes overflows float64 ("
SHORT = "error: subject 'sub-000': sub-000/{}.csv: design matrix needs at least 2 rows, got 0"
OVER_LIMIT = (
    "error: subject 'sub-002': cohort/sub-002/ts.csv: field larger than field limit"
    f" ({csv.field_size_limit()})"
)
CASES = [
    Refusal("out-is-a-file", ["phantom", "--config", "config.json", "--out", "config.json"], 3,
            "error: [Errno 20] Not a directory: 'config.json/parcellation.csv'"),
    Refusal("qc-both-sources", [*QC_RAW, "--corrected", "corrected_concat"], 2,
            "error: qcfc qc: argument --corrected: not allowed with argument --raw", ("qc.json",)),
    Refusal("qc-no-source", ["qc", *MANIFEST, "--report", "qc.json"], 2,
            "error: qcfc qc: one of the arguments --corrected --raw is required", ("qc.json",)),
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
            ["phantom", "--config", "big.json", "--out", "out"], 2,
            "config: big.json: invalid JSON: ", ("out",),
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
    # A rerun that fails leaves the earlier run as it was; its error names the user's paths.
    Refusal("failed-phantom-rerun", ["phantom", "--config", "config_seed4.json", "--out",
                                     LONG_NAME], 2,
            "config: subject 'sub-000': rx_rad reaches ",
            setup=long_named_cohort, kept=(LONG_NAME,)),
    Refusal("failed-correct-rerun", [*CORRECT[:-1], "corrected_concat"], 4,
            "error: subject 'sub-003': cohort/sub-003/ts.csv: contains non-finite values",
            setup=failed_correct_rerun, kept=("corrected_concat",)),
    # `correct` never replaces its inputs, nor a directory that holds neither nothing nor an
    # earlier run; each is refused before any subject is read.
    *(Refusal(f"correct-over-{name}", [*CORRECT[:-1], out], 2,
              f"error: --out {out} would replace the manifest's directory cohort",
              setup=setup, kept=("cohort", "corrected_concat"))
      for name, out, setup in (
          ("its-inputs", "cohort", lambda run: flat_cohort(run, run_info=False)),
          ("its-inputs-with-a-run-info", "cohort", lambda run: flat_cohort(run, run_info=True)),
          ("the-working-directory", ".", lambda run: None))),
    Refusal("correct-over-unrelated-files", [*CORRECT[:-1], "notes"], 2,
            "error: notes is not empty and holds no run_info.json: only an empty directory"
            " or an earlier run of this command is replaced",
            setup=unrelated_files, kept=("notes",)),
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
    # A rerun failing on a later subject, which leaves the earlier run as it was.
    Refusal("csv-field-over-limit", [*CORRECT[:-1], "corrected_concat"], 4, OVER_LIMIT,
            setup=field_over_limit, kept=("corrected_concat",)),
    Refusal("csv-field-over-limit-in-qc", QC_RAW, 4, OVER_LIMIT, ("qc.json",), field_over_limit),
    Refusal("subnormal-cell", QC_RAW, 4,
            "error: subject 'sub-001': cohort/sub-001/ts.csv: row 6, column 2:"
            " '4.9406564584124654e-324' is subnormal, below 2.22507e-308", ("qc.json",),
            lambda run: set_cells("cohort/sub-001/ts.csv", [5], 1, "4.9406564584124654e-324")),
    # Phantom configs, each refused before anything is written.
    Refusal("config-zero-subjects", PHANTOM, 2, "error: config: n_subjects must be >= 3, got 0",
            ("out",), config(n_subjects=0)),
    Refusal("config-unknown-field", PHANTOM, 2, "error: config: unknown field 'bogus'", ("out",),
            config(bogus=1)),
    Refusal("config-missing", ["phantom", "--config", "nope.json", "--out", "out"], 2,
            "error: config: cannot read nope.json: [Errno 2] No such file or directory:"
            " 'nope.json'", ("out",)),
    Refusal("config-larger-than-memory", PHANTOM, 2, "Unable to allocate ", ("out",),
            config(n_timepoints=10**12)),
    *(Refusal(f"config-{field.replace('_', '-')}-beyond-numpy", PHANTOM, 2,
              f"error: config: {shape} float64 array is more than NumPy can index", ("out",),
              config(**{field: 2**62}))
      for field, shape in (
          ("n_rois", f"n_rois: a {2**62} x {2**62}"),
          ("n_timepoints", f"n_timepoints: a {2**62} x 24"),
          ("n_aroma_components", f"n_timepoints and n_aroma_components: a 40 x {2**62}"))),
    Refusal("config-gain-overflows", PHANTOM, 2, OVERFLOWING_CONFIG, ("out",),
            config(artifact_gain=1e308)),
    Refusal("config-amplitude-overflows", PHANTOM, 2, OVERFLOWING_CONFIG, ("out",),
            config(motion_amplitude_range=[1e300, 1e301])),
    Refusal("config-integer-beyond-float", PHANTOM, 2,
            "error: config: artifact_gain must be finite, got an integer beyond float range",
            ("out",), config(artifact_gain=10**400)),
    Refusal("out-is-a-file-before-overflowing-config", [*PHANTOM[:-1], "config.json"], 3,
            "error: [Errno 20] Not a directory: 'config.json/parcellation.csv'", (),
            config(artifact_gain=1e308)),
    # Manifests and subject files `correct` refuses.
    Refusal("unknown-pipeline", [*CORRECT[:3], "--pipeline", "scrubbing", "--out", "out"], 2,
            "error: unknown pipeline 'scrubbing'; valid names: baseline, seq-hmp-aroma-physio,"
            " seq-aroma-hmp-physio, concat", ("out",)),
    Refusal("corrupt-motion", CORRECT, 4,
            "subject 'sub-001': cohort/sub-001/motion.csv: row 4, column 2: could not convert"
            " string to float: 'x", (),
            lambda run: edit_lines(lambda lines: [*lines[:3], lines[3].replace(",", ",x", 1),
                                                  *lines[4:]], "cohort/sub-001/motion.csv")),
    Refusal("missing-subject-file", CORRECT, 4,
            "error: subject 'sub-002': missing aroma file 'sub-002/aroma.csv'", (),
            lambda run: Path("cohort/sub-002/aroma.csv").unlink()),
    Refusal("manifest-schema-version", CORRECT, 2,
            "error: cohort/manifest.json: unsupported schema_version '99', expected '1'", ("out",),
            lambda run: set_json(MANIFEST[1], "99", "schema_version")),
    *(Refusal(f"subject-id-{name}", [*CORRECT[:-1], "a/b/out"], 2,
              f"error: cohort/manifest.json: subjects[0]: subject_id {sid!r} must be a single path"
              " component (no '/', '\\' or NUL, not empty, '.' or '..')",
              ("a/escaped.csv", "a/b/out"),
              lambda run, sid=sid: set_json(MANIFEST[1], sid, "subjects", 0, "subject_id"))
      for name, sid in SUBJECT_IDS.items()),
    *(Refusal(f"manifest-{name}", CORRECT, 2,
              f"error: cohort/manifest.json: {'' if len(keys) == 1 else 'subjects[0]: '}"
              f"{keys[-1]} {path!r} must be a relative path without '..' components", ("out",),
              lambda run, keys=keys, path=path: set_json(
                  MANIFEST[1], path.replace("{work}", os.getcwd()), *keys))
      for name, (keys, path) in OUTSIDE_PATHS.items()),
    Refusal("aroma-one-row-short", CORRECT, 4,
            "error: subject 'sub-001': aroma has 39 rows, timeseries has 40", (),
            lambda run: edit_lines(lambda lines: lines[:-1], "cohort/sub-001/aroma.csv")),
    Refusal("motion-one-row-short", CORRECT, 4,
            "error: subject 'sub-001': motion has 39 rows, timeseries has 40", (),
            lambda run: edit_lines(lambda lines: lines[:-1], "cohort/sub-001/motion.csv")),
    Refusal("physio-extra-column", CORRECT, 4,
            "error: subject 'sub-001': physio must have exactly 2 columns (white-matter mean,"
            " non-brain mean), got 3", (),
            lambda run: edit_lines(lambda lines: [line + ",0" for line in lines],
                                   "cohort/sub-001/physio.csv")),
    Refusal("missing-parcellation", CORRECT, 4,
            "error: manifest references missing parcellation file 'parcellation.csv'", ("out",),
            lambda run: Path("cohort/parcellation.csv").unlink()),
    # Finite values whose squares or sums overflow float64, named by subject or file.
    Refusal("motion-squares-overflow-in-correct", CORRECT, 4,
            "error: subject 'sub-002': head motion is too large: its derivatives or squares"
            " overflow float64",
            ("out/run_info.json",),
            lambda run: set_cells("cohort/sub-002/motion.csv", [5], 0, "1e200")),
    # Rotations written in degrees under the `_rad` headers (MAX_ROTATION_RAD is 0.5).
    Refusal("rotations-in-degrees", QC_RAW, 4,
            "error: subject 'sub-002': cohort/sub-002/motion.csv: rx_rad reaches 2.14 rad, beyond"
            " the 0.5 rad (29 degree) bound on |rotation|", ("qc.json",),
            lambda run: rotations_in_degrees("cohort/sub-002/motion.csv")),
    Refusal("config-rotations-beyond-bound", PHANTOM, 2,
            "config: subject 'sub-000': rx_rad reaches ", ("out",),
            config(motion_amplitude_range=[20.0, 30.0])),
    Refusal("mean-fd-squares-overflow", QC_RAW, 4,
            "error: subject 'sub-002': mean FD is too large: the cohort's sum of squares"
            " overflows", ("qc.json",),
            lambda run: set_cells("cohort/sub-002/motion.csv", [5], 0, "1e200")),
    Refusal("framewise-displacement-overflows", QC_RAW, 4,
            "error: subject 'sub-002': framewise displacement contains NaN or infinite entries",
            ("qc.json",),
            lambda run: [set_cells("cohort/sub-002/motion.csv", [row], column, f"{sign}1.7e308")
                         for row, sign in ((5, ""), (6, "-")) for column in (0, 1)]),
    Refusal("aroma-sums-overflow", CORRECT, 4, "subject 'sub-001': floating-point overflow",
            ("out/run_info.json",), lambda run: huge_cells("cohort/sub-001/aroma.csv")),
    Refusal("physio-sums-overflow",
            [*CORRECT[:3], "--pipeline", "seq-aroma-hmp-physio", "--out", "out"], 4,
            "subject 'sub-003': floating-point overflow", ("out/run_info.json",),
            lambda run: huge_cells("cohort/sub-003/physio.csv")),
    Refusal("ts-sums-overflow", [*CORRECT[:3], "--pipeline", "baseline", "--out", "out"], 4,
            "subject 'sub-002': floating-point overflow", ("out/run_info.json",),
            lambda run: huge_cells("cohort/sub-002/ts.csv")),
    Refusal("parcellation-distances-overflow", QC_RAW, 4,
            "parcellation.csv: floating-point overflow", ("qc.json",), far_parcellation),
    # What `qc` refuses.
    Refusal("bins-not-an-integer", [*QC_RAW, "--bins", "x"], 2,
            "error: qcfc qc: argument --bins: invalid int value: 'x'", ("qc.json",)),
    Refusal("run-info-schema-version", QC_CORRECTED, 2,
            "error: corrected_concat/run_info.json: unsupported schema_version '0', expected '1'",
            ("qc.json",),
            lambda run: set_json("corrected_concat/run_info.json", "0", "schema_version")),
    Refusal("missing-corrected-subject", QC_CORRECTED, 4,
            "error: subject 'sub-003': missing corrected file corrected_concat/sub-003.csv",
            ("qc.json",),
            lambda run: Path("corrected_concat/sub-003.csv").unlink()),
    Refusal("corrected-roi-labels", QC_CORRECTED, 2,
            "error: subject 'sub-000': ROI labels differ from the parcellation", ("qc.json",),
            lambda run: set_cells("corrected_concat/sub-000.csv", [0], 0, "bogus")),
    *(Refusal(f"motion-rows-differ-{source}", argv, 4,
              "error: subject 'sub-001': motion has 20 rows, timeseries has 40", ("qc.json",),
              lambda run: edit_lines(keep(1 + TINY_CFG["n_timepoints"] // 2),
                                     "cohort/sub-001/motion.csv"))
      for source, argv in (("raw", QC_RAW), ("corrected", QC_CORRECTED))),
    Refusal("two-subjects", QC_RAW, 5, "error: need at least 3 subjects, got 2", ("qc.json",),
            lambda run: keep_subjects(2)),
    Refusal("constant-motion", QC_RAW, 5, "error: mean FD is constant across subjects",
            ("qc.json",),
            lambda run: [set_cells(f"cohort/sub-00{k}/motion.csv",
                                   range(1, TINY_CFG["n_timepoints"] + 1), column, "0")
                         for k in range(TINY_CFG["n_subjects"]) for column in range(6)]),
    # Files that are not valid UTF-8: exit 2 for the config, 4 otherwise.
    *(Refusal(f"invalid-utf8-{name}", argv, code,
              f"{prefix}cannot read {path}: 'utf-8' codec can't decode byte 0xff in position ",
              ("out",), lambda run, path=path: append_invalid_utf8(path))
      for name, path, argv, code, prefix in (
          ("ts", "cohort/sub-000/ts.csv", CORRECT, 4, "subject 'sub-000': "),
          ("manifest", MANIFEST[1], CORRECT, 4, ""),
          ("report", "qc_raw.json", ["report", "qc_raw.json", "--csv", "out"], 4, ""),
          ("config", "config.json", ["phantom", "--config", "config.json", "--out", "out"], 2,
           "config: "))),
    # An output at the path of an input, refused before anything is written.
    Refusal("qc-report-over-manifest", [*QC_RAW[:-1], MANIFEST[1]], 2,
            "error: --report would write cohort/manifest.json, which is the input"
            " cohort/manifest.json", ("cohort/manifest_histogram.csv",)),
    Refusal("qc-report-over-run-info", [*QC_CORRECTED[:-1], "corrected_concat/run_info.json"], 2,
            "error: --report would write corrected_concat/run_info.json, which is the input"
            " corrected_concat/run_info.json", ("corrected_concat/run_info_histogram.csv",)),
    Refusal("qc-report-through-a-link", [*QC_RAW[:-1], "link.json"], 2,
            "error: --report would write link.json, which is the input cohort/manifest.json",
            ("link_histogram.csv",), lambda run: os.symlink("cohort/manifest.json", "link.json")),
    Refusal("report-csv-over-an-input", ["report", "qc_raw.json", "--csv", "qc_raw.json"], 2,
            "error: --csv would write qc_raw.json, which is the input qc_raw.json"),
    # What `report` refuses.
    Refusal("report-missing-fields", ["report", "qc.json"], 2,
            "error: qc.json: missing field 'pipeline'", (),
            lambda run: Path("qc.json").write_text(json.dumps({"schema_version": "1"}))),
    *(Refusal(f"report-mistyped-{name}", ["report", "qc.json"], 2, f"error: qc.json: {message}",
              (), report_with(field, value))
      for name, field, value, message in (
          ("n-subjects", "n_subjects", 2.9, "n_subjects must be an integer, got 2.9"),
          ("n-edges", "n_edges", True, "n_edges must be an integer, got True"),
          ("undefined-edge-count", "undefined_edge_count", False,
           "undefined_edge_count must be an integer, got False"),
          ("median", "median_abs_qcfc", "0.5", "median_abs_qcfc must be a number, got '0.5'"),
          ("p-value", "dist_dependence_p", float("nan"),
           "dist_dependence_p must be finite, got nan"),
          ("pipeline", "pipeline", 7, "pipeline must be a string, got 7"),
          ("histogram-count", "histogram", [[0.0, 3.7]],
           "histogram[0][1] must be an integer, got 3.7"),
          ("histogram-center", "histogram", [[True, 3]],
           "histogram[0][0] must be a number, got True"))),
    Refusal("report-missing", ["report", "nope.json"], 4,
            "error: cannot read nope.json: [Errno 2] No such file or directory: 'nope.json'"),
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


def files_under(directories) -> dict:
    """The bytes of every file under each directory, by path."""
    return {str(path): path.read_bytes() for directory in directories
            for path in sorted(Path(directory).rglob("*")) if path.is_file()}


def check(case: Refusal, run: Run, base: Path, work: Path) -> None:
    """Run `case` in `work`, a fresh copy of `base`; an AssertionError says what differed."""
    shutil.copytree(base, work)
    with inside(work):
        case.setup(run)
        kept = files_under(case.kept)
        code, err = run(case.argv)
        left = [path for path in case.absent if os.path.lexists(path)]
        left += [str(path) for path in Path().rglob("*.tmp")]
        changed = kept != files_under(case.kept)
        expected = case.stderr.replace("{work}", os.getcwd())
    assert code == case.code, f"exit code {code}, expected {case.code}: {err!r}"
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), f"not one error: line: {err!r}"
    assert "Traceback" not in err, err
    if expected.startswith("error: "):
        assert lines[0] == expected, f"{lines[0]!r} != {expected!r}"
    else:
        assert lines[0].startswith(f"error: {expected}"), f"{lines[0]!r} !~ {expected!r}"
    assert not left, f"left behind: {left}"
    assert not changed, f"changed a file under {case.kept}"


def in_process(argv: list) -> tuple:
    """`qcfc.cli.main(argv)` in this process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(argv)
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
