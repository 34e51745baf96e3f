"""End-to-end acceptance gate.

Each test prints exactly one `[criterion N] PASS/FAIL` line on the real
terminal (bypassing capture) and then asserts, so a red run still shows
the per-criterion verdict in the log.
"""

import json
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qcfc import (
    Parcellation,
    SignalMatrix,
    concat_designs,
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    generate_cohort,
    max_abs_correlation,
    mean_fd,
    ols_residualize,
    qcfc,
    run_pipeline,
    sequential_residualize,
)
from qcfc.cli import main
from qcfc.metrics import HeadMotion, default_roi_labels
from qcfc.pipelines import PipelineKind, PipelineSpec, build_blocks
from qcfc.regression import RegressorSource

from .conftest import REFERENCE_CONFIG, SMALL_CONFIG, make_correlated_bundle, orthogonal_blocks
from .oracles import (
    oracle_distance_dependence,
    oracle_edge_lengths,
    oracle_qcfc,
)


def _check(capsys, num, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {verdict} {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _blocks_in_order(bundle):
    blocks = build_blocks(bundle)
    return [
        blocks[RegressorSource.AROMA],
        blocks[RegressorSource.HMP],
        blocks[RegressorSource.PHYSIO],
    ]


@pytest.fixture(scope="module")
def hundred_instances():
    """Shared 100-instance sweep used by criteria 2 and 3."""
    concat_max = []
    seq_hmp = []
    concat_hmp = []

    t0 = time.monotonic()
    bundles = [make_correlated_bundle(1000 + i) for i in range(100)]
    gen_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    for bundle in bundles:
        blocks = _blocks_in_order(bundle)
        resid = run_pipeline(bundle, PipelineSpec(PipelineKind.CONCAT_ALL))
        per_block = [max_abs_correlation(resid, block) for block in blocks]
        concat_max.append(max(per_block))
        concat_hmp.append(per_block[1])
    concat_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    for bundle in bundles:
        blocks = build_blocks(bundle)
        resid = run_pipeline(bundle, PipelineSpec(PipelineKind.SEQ_HMP_AROMA_PHYSIO))
        seq_hmp.append(max_abs_correlation(resid, blocks[RegressorSource.HMP]))
    seq_elapsed = time.monotonic() - t0

    return {
        "concat_max": np.array(concat_max),
        "concat_hmp": np.array(concat_hmp),
        "seq_hmp": np.array(seq_hmp),
        "gen_elapsed": gen_elapsed,
        "concat_elapsed": concat_elapsed,
        "seq_elapsed": seq_elapsed,
    }


class CohortSummary(NamedTuple):
    median_abs_qcfc: float
    dist_dependence_rho: float
    dist_dependence_p: float


def _cohort_report(cohort, kind):
    fcs = []
    mfds = []
    for bundle in cohort.bundles:
        cleaned = run_pipeline(bundle, PipelineSpec(kind))
        fcs.append(fc_matrix(cleaned))
        mfds.append(mean_fd(framewise_displacement(bundle.motion)))
    report = qcfc(fcs, np.array(mfds))
    rho, p = distance_dependence(report, edge_lengths(cohort.parcellation))
    return CohortSummary(report.median_abs_qcfc, rho, p)


def test_criterion_1_edge_bookkeeping(capsys):
    t0 = time.monotonic()
    ts = SignalMatrix(np.random.default_rng(0).standard_normal((8, 333)))
    edges = fc_matrix(ts).upper_triangle()
    elapsed = time.monotonic() - t0
    passed = edges.size == 55278 and elapsed < 1.0
    _check(
        capsys,
        1,
        "edge bookkeeping",
        passed,
        f"333 ROIs -> {edges.size} upper-triangle edges in {elapsed:.2f} s",
    )


def test_criterion_2_concatenated_orthogonality(capsys, hundred_instances):
    worst = float(hundred_instances["concat_max"].max())
    elapsed = hundred_instances["gen_elapsed"] + hundred_instances["concat_elapsed"]
    passed = worst <= 1e-8 and elapsed < 5.0
    _check(
        capsys,
        2,
        "concatenated orthogonality",
        passed,
        f"100 instances, worst residual |corr| = {worst:.2e} in {elapsed:.2f} s",
    )


def test_criterion_3_sequential_reintroduction(capsys, hundred_instances):
    mean_seq = float(hundred_instances["seq_hmp"].mean())
    mean_concat = float(hundred_instances["concat_hmp"].mean())
    n_detectable = int((hundred_instances["seq_hmp"] > 1e-3).sum())
    elapsed = hundred_instances["seq_elapsed"]
    passed = mean_seq >= 10.0 * mean_concat and n_detectable >= 90 and elapsed < 5.0
    _check(
        capsys,
        3,
        "sequential reintroduction",
        passed,
        f"mean seq |corr| = {mean_seq:.3f} vs concat {mean_concat:.2e}; "
        f"{n_detectable}/100 instances above 1e-3 in {elapsed:.2f} s",
    )


def test_criterion_4_oracle_equivalence(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    n_subjects, n_rois = 10, 10
    labels = default_roi_labels(n_rois)
    fcs = [
        fc_matrix(SignalMatrix(rng.standard_normal((30, n_rois)), labels))
        for _ in range(n_subjects)
    ]
    mfd = rng.uniform(0.05, 1.2, size=n_subjects)
    coords = rng.uniform(-60.0, 60.0, size=(n_rois, 3))
    parc = Parcellation(labels, coords)

    report = qcfc(fcs, mfd)
    rho, p = distance_dependence(report, edge_lengths(parc))

    r_o, p_o, median_o = oracle_qcfc([fc.values for fc in fcs], mfd)
    lengths_o = oracle_edge_lengths(coords)
    rho_o, p_rho_o = oracle_distance_dependence(r_o, lengths_o)

    dr = float(np.nanmax(np.abs(report.edge_qcfc - r_o)))
    dp = float(np.nanmax(np.abs(report.edge_pvalues - p_o)))
    dmed = abs(report.median_abs_qcfc - median_o)
    drho = abs(rho - rho_o)
    dprho = abs(p - p_rho_o)
    elapsed = time.monotonic() - t0

    passed = (
        dr <= 1e-10
        and dmed <= 1e-10
        and drho <= 1e-10
        and dp <= 1e-6
        and dprho <= 1e-6
        and elapsed < 1.0
    )
    _check(
        capsys,
        4,
        "oracle equivalence",
        passed,
        f"max |dr| = {dr:.1e}, |drho| = {drho:.1e}, max |dp| = {dp:.1e} in {elapsed:.2f} s",
    )


def test_criterion_5_fixture_thresholds(capsys):
    t0 = time.monotonic()
    cohort = generate_cohort(REFERENCE_CONFIG)
    reports = {
        kind: _cohort_report(cohort, kind)
        for kind in (
            PipelineKind.BASELINE,
            PipelineKind.SEQ_HMP_AROMA_PHYSIO,
            PipelineKind.SEQ_AROMA_HMP_PHYSIO,
            PipelineKind.CONCAT_ALL,
        )
    }
    elapsed = time.monotonic() - t0

    base = reports[PipelineKind.BASELINE]
    concat = reports[PipelineKind.CONCAT_ALL]
    seq_a = reports[PipelineKind.SEQ_HMP_AROMA_PHYSIO]
    seq_b = reports[PipelineKind.SEQ_AROMA_HMP_PHYSIO]

    conditions = [
        base.median_abs_qcfc >= 0.15,
        abs(base.dist_dependence_rho) >= 0.1,
        concat.dist_dependence_p > 0.05,
        abs(concat.dist_dependence_rho) < 0.05,
        seq_a.dist_dependence_p < 0.05,
        seq_b.dist_dependence_p < 0.05,
        seq_a.median_abs_qcfc < base.median_abs_qcfc,
        seq_b.median_abs_qcfc < base.median_abs_qcfc,
        concat.median_abs_qcfc < base.median_abs_qcfc,
        elapsed < 60.0,
    ]
    _check(
        capsys,
        5,
        "fixture thresholds",
        all(conditions),
        f"baseline median = {base.median_abs_qcfc:.3f}, rho = {base.dist_dependence_rho:.3f}; "
        f"concat rho = {concat.dist_dependence_rho:.3f}, p = {concat.dist_dependence_p:.3f}; "
        f"seq p = {seq_a.dist_dependence_p:.1e}, {seq_b.dist_dependence_p:.1e} "
        f"in {elapsed:.1f} s",
    )


def test_criterion_6_fd_spot_check(capsys):
    t0 = time.monotonic()
    motion = HeadMotion(
        np.array([[0, 0, 0, 0, 0, 0], [0.1, -0.2, 0.3, 0.002, 0, -0.001]], dtype=float)
    )
    fd = framewise_displacement(motion)
    flat = framewise_displacement(HeadMotion(np.ones((5, 6))))
    elapsed = time.monotonic() - t0
    passed = fd[0] == 0.0 and fd[1] == 0.75 and np.array_equal(flat, np.zeros(5)) and elapsed < 1.0
    _check(
        capsys,
        6,
        "fd spot check",
        passed,
        f"worked example fd = {fd[1]!r} mm (expected exactly 0.75), constant trace all zero",
    )


def test_criterion_7_projection_identities(capsys):
    t0 = time.monotonic()
    worst_idem = 0.0
    worst_order = 0.0
    worst_orth = 0.0

    for seed in (201, 202, 203):
        bundle = make_correlated_bundle(seed)
        blocks = _blocks_in_order(bundle)
        design = concat_designs(blocks)
        once = ols_residualize(bundle.ts, design)
        twice = ols_residualize(once, design)
        worst_idem = max(worst_idem, float(np.abs(twice.values - once.values).max()))

        base = once.values
        for order in ((1, 2, 0), (2, 0, 1)):
            permuted = concat_designs([blocks[i] for i in order])
            other = ols_residualize(bundle.ts, permuted)
            worst_order = max(worst_order, float(np.abs(other.values - base).max()))

    for seed in (301, 302, 303):
        blocks = orthogonal_blocks(seed)
        y = SignalMatrix(np.random.default_rng(seed).standard_normal((60, 5)))
        seq = sequential_residualize(y, blocks)
        omni = ols_residualize(y, concat_designs(blocks))
        worst_orth = max(worst_orth, float(np.abs(seq.values - omni.values).max()))

    elapsed = time.monotonic() - t0
    passed = (
        worst_idem <= 1e-8 and worst_order <= 1e-8 and worst_orth <= 1e-8 and elapsed < 5.0
    )
    _check(
        capsys,
        7,
        "projection identities",
        passed,
        f"idempotence {worst_idem:.1e}, order invariance {worst_order:.1e}, "
        f"orthogonal seq=concat {worst_orth:.1e} in {elapsed:.2f} s",
    )


def _run_chain(root: Path, cfg_path: Path) -> None:
    data = root / "data"
    assert main(["phantom", "--config", str(cfg_path), "--out", str(data)]) == 0
    manifest = str(data / "manifest.json")
    report_files = []

    raw_report = root / "qc_raw.json"
    assert main(["qc", "--manifest", manifest, "--raw", "--report", str(raw_report)]) == 0
    report_files.append(raw_report)

    for name in ("baseline", "seq-hmp-aroma-physio", "seq-aroma-hmp-physio", "concat"):
        corr = root / f"corr_{name}"
        rc = main(["correct", "--manifest", manifest, "--pipeline", name, "--out", str(corr)])
        assert rc == 0
        report = root / f"qc_{name}.json"
        rc = main(["qc", "--manifest", manifest, "--corrected", str(corr), "--report", str(report)])
        assert rc == 0
        report_files.append(report)

    rc = main(
        ["report", *[str(r) for r in report_files], "--csv", str(root / "comparison.csv")]
    )
    assert rc == 0


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_8_determinism(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG.to_dict()))

    t0 = time.monotonic()
    first = tmp_path / "run_a"
    second = tmp_path / "run_b"
    first.mkdir()
    second.mkdir()
    _run_chain(first, cfg_path)
    _run_chain(second, cfg_path)
    elapsed = time.monotonic() - t0

    tree_a = _tree_bytes(first)
    tree_b = _tree_bytes(second)
    same_names = sorted(tree_a) == sorted(tree_b)
    diffs = [name for name in tree_a if same_names and tree_a[name] != tree_b[name]]
    passed = same_names and not diffs and elapsed < 120.0
    _check(
        capsys,
        8,
        "determinism",
        passed,
        f"{len(tree_a)} files byte-identical across two chain runs in {elapsed:.1f} s"
        if passed
        else f"mismatch: names_equal={same_names}, differing={diffs[:3]}",
    )
