import numpy as np
import pytest

from qcfc import (
    DataIntegrityError,
    DesignMatrix,
    DimensionError,
    HeadMotion,
    PipelineKind,
    PipelineSpec,
    RegressorSource,
    SignalMatrix,
    SubjectBundle,
    ValidationError,
    build_blocks,
    concat_designs,
    expand_hmp24,
    max_abs_correlation,
    ols_residualize,
    run_pipeline,
)
from qcfc.pipelines import HMP_PARAM_LABELS
from qcfc.regression import demean_columns

from .conftest import make_correlated_bundle


def simple_bundle(seed=0, n=40, r=5, p=3):
    rng = np.random.default_rng(seed)
    return SubjectBundle(
        subject_id="s0",
        ts=SignalMatrix(rng.standard_normal((n, r))),
        motion=HeadMotion(rng.standard_normal((n, 6))),
        aroma=DesignMatrix(
            rng.standard_normal((n, p)),
            tuple(f"c{i}" for i in range(p)),
            RegressorSource.AROMA,
        ),
        physio=DesignMatrix(
            rng.standard_normal((n, 2)), ("wm", "nb"), RegressorSource.PHYSIO
        ),
    )


class TestExpandHmp24:
    def test_output_shape(self):
        motion = HeadMotion(np.random.default_rng(1).standard_normal((17, 6)))
        out = expand_hmp24(motion)
        assert out.values.shape == (17, 24)
        assert out.source is RegressorSource.HMP

    def test_all_zero_motion(self):
        out = expand_hmp24(HeadMotion(np.zeros((5, 6))))
        assert np.array_equal(out.values, np.zeros((5, 24)))

    def test_ramp_derivative_and_squares(self):
        values = np.zeros((4, 6))
        values[:, 0] = [0.0, 1.0, 2.0, 3.0]
        out = expand_hmp24(HeadMotion(values))
        cols = dict(zip(out.column_labels, out.values.T))
        assert np.array_equal(cols["dx_mm"], [0, 1, 2, 3])
        assert np.array_equal(cols["dx_mm_deriv"], [0, 1, 1, 1])
        assert np.array_equal(cols["dx_mm_sq"], [0, 1, 4, 9])
        assert np.array_equal(cols["dx_mm_deriv_sq"], [0, 1, 1, 1])

    def test_column_order_fixed(self):
        out = expand_hmp24(HeadMotion(np.zeros((3, 6))))
        expected = (
            list(HMP_PARAM_LABELS)
            + [f"{p}_deriv" for p in HMP_PARAM_LABELS]
            + [f"{p}_sq" for p in HMP_PARAM_LABELS]
            + [f"{p}_deriv_sq" for p in HMP_PARAM_LABELS]
        )
        assert list(out.column_labels) == expected

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 6))
        bad[1, 2] = np.nan
        with pytest.raises(DataIntegrityError):
            HeadMotion(bad)

    def test_motion_needs_six_columns(self):
        with pytest.raises(DimensionError):
            HeadMotion(np.zeros((5, 5)))


class TestBuildBlocks:
    def test_block_widths(self, reference_cohort):
        blocks = build_blocks(reference_cohort.bundles[0])
        assert blocks[RegressorSource.HMP].k == 24
        assert blocks[RegressorSource.AROMA].k == 11
        assert blocks[RegressorSource.PHYSIO].k == 2

    def test_empty_aroma_still_runs(self):
        rng = np.random.default_rng(2)
        bundle = SubjectBundle(
            subject_id="empty",
            ts=SignalMatrix(rng.standard_normal((30, 4))),
            motion=HeadMotion(rng.standard_normal((30, 6))),
            aroma=DesignMatrix(np.zeros((30, 0)), (), RegressorSource.AROMA),
            physio=DesignMatrix(
                rng.standard_normal((30, 2)), ("wm", "nb"), RegressorSource.PHYSIO
            ),
        )
        blocks = build_blocks(bundle)
        assert blocks[RegressorSource.AROMA].k == 0
        for kind in PipelineKind:
            out = run_pipeline(bundle, PipelineSpec(kind))
            assert out.values.shape == (30, 4)

    def test_row_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionError):
            SubjectBundle(
                subject_id="bad",
                ts=SignalMatrix(rng.standard_normal((30, 4))),
                motion=HeadMotion(rng.standard_normal((29, 6))),
                aroma=DesignMatrix(np.zeros((30, 0)), (), RegressorSource.AROMA),
                physio=DesignMatrix(
                    rng.standard_normal((30, 2)), ("wm", "nb"), RegressorSource.PHYSIO
                ),
            )

    def test_physio_width_enforced(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionError):
            SubjectBundle(
                subject_id="bad",
                ts=SignalMatrix(rng.standard_normal((30, 4))),
                motion=HeadMotion(rng.standard_normal((30, 6))),
                aroma=DesignMatrix(np.zeros((30, 0)), (), RegressorSource.AROMA),
                physio=DesignMatrix(
                    rng.standard_normal((30, 3)),
                    ("a", "b", "c"),
                    RegressorSource.PHYSIO,
                ),
            )

    def test_sources_normalized(self):
        bundle = simple_bundle()
        blocks = build_blocks(bundle)
        assert blocks[RegressorSource.HMP].source is RegressorSource.HMP
        assert blocks[RegressorSource.AROMA].source is RegressorSource.AROMA
        assert blocks[RegressorSource.PHYSIO].source is RegressorSource.PHYSIO


class TestRunPipeline:
    def test_concat_orthogonal_to_every_block(self):
        bundle = make_correlated_bundle(101)
        out = run_pipeline(bundle, PipelineSpec(PipelineKind.CONCAT_ALL))
        blocks = build_blocks(bundle)
        for block in blocks.values():
            assert max_abs_correlation(out, block) <= 1e-8

    def test_baseline_identity_on_demeaned(self):
        bundle = simple_bundle(seed=6)
        demeaned = SignalMatrix(demean_columns(bundle.ts.values), bundle.ts.column_labels)
        bundle2 = SubjectBundle(
            subject_id="s1",
            ts=demeaned,
            motion=bundle.motion,
            aroma=bundle.aroma,
            physio=bundle.physio,
        )
        out = run_pipeline(bundle2, PipelineSpec(PipelineKind.BASELINE))
        assert np.allclose(out.values, demeaned.values, atol=1e-14)

    def test_sequential_retains_hmp_correlation(self, reference_cohort):
        bundle = reference_cohort.bundles[0]
        out = run_pipeline(bundle, PipelineSpec(PipelineKind.SEQ_HMP_AROMA_PHYSIO))
        hmp = build_blocks(bundle)[RegressorSource.HMP]
        assert max_abs_correlation(out, hmp) > 1e-3

    def test_output_shape_and_zero_mean(self):
        bundle = simple_bundle(seed=7)
        for kind in PipelineKind:
            out = run_pipeline(bundle, PipelineSpec(kind))
            assert out.values.shape == bundle.ts.values.shape
            assert np.abs(out.values.mean(axis=0)).max() <= 1e-10

    def test_each_pipeline_runs_its_stages_exactly(self):
        bundle = make_correlated_bundle(104)
        ts, aroma, physio = bundle.ts, bundle.aroma, bundle.physio
        hmp = expand_hmp24(bundle.motion)
        demeaned = SignalMatrix(demean_columns(ts.values), ts.column_labels)

        def fold(blocks):
            e = demeaned
            for block in blocks:
                e = ols_residualize(e, block)
            return e

        expected = {
            PipelineKind.BASELINE: demeaned,
            PipelineKind.SEQ_HMP_AROMA_PHYSIO: fold([hmp, aroma, physio]),
            PipelineKind.SEQ_AROMA_HMP_PHYSIO: fold([aroma, hmp, physio]),
            PipelineKind.CONCAT_ALL: ols_residualize(
                ts, concat_designs([aroma, hmp, physio])
            ),
        }
        for kind, want in expected.items():
            got = run_pipeline(bundle, PipelineSpec(kind)).values
            assert np.array_equal(got, want.values), kind

    def test_concat_order_invariance(self):
        bundle = make_correlated_bundle(102)
        blocks = build_blocks(bundle)
        a = blocks[RegressorSource.AROMA]
        h = blocks[RegressorSource.HMP]
        ph = blocks[RegressorSource.PHYSIO]
        ref = ols_residualize(bundle.ts, concat_designs([a, h, ph])).values
        for order in ([h, a, ph], [ph, h, a], [a, ph, h]):
            alt = ols_residualize(bundle.ts, concat_designs(order)).values
            assert np.abs(alt - ref).max() <= 1e-8

    def test_sequential_orthogonal_to_final_block(self):
        bundle = make_correlated_bundle(103)
        physio = build_blocks(bundle)[RegressorSource.PHYSIO]
        for kind in (
            PipelineKind.SEQ_HMP_AROMA_PHYSIO,
            PipelineKind.SEQ_AROMA_HMP_PHYSIO,
        ):
            out = run_pipeline(bundle, PipelineSpec(kind))
            assert max_abs_correlation(out, physio) <= 1e-8

    def test_roi_labels_preserved(self):
        rng = np.random.default_rng(8)
        labels = ("r1", "r2", "r3")
        bundle = SubjectBundle(
            subject_id="lab",
            ts=SignalMatrix(rng.standard_normal((30, 3)), labels),
            motion=HeadMotion(rng.standard_normal((30, 6))),
            aroma=DesignMatrix(np.zeros((30, 0)), (), RegressorSource.AROMA),
            physio=DesignMatrix(
                rng.standard_normal((30, 2)), ("wm", "nb"), RegressorSource.PHYSIO
            ),
        )
        for kind in PipelineKind:
            assert run_pipeline(bundle, PipelineSpec(kind)).column_labels == labels


class TestPipelineNames:
    def test_from_name_roundtrip(self):
        for kind in PipelineKind:
            assert PipelineKind.from_name(kind.value) is kind

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValidationError) as err:
            PipelineKind.from_name("nonsense")
        message = str(err.value)
        for kind in PipelineKind:
            assert kind.value in message

    def test_pipeline_spec_requires_enum_kind(self):
        with pytest.raises(ValidationError):
            PipelineSpec("baseline")
