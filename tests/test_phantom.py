import dataclasses

import numpy as np
import pytest

from qcfc import (
    PhantomConfig,
    RegressorSource,
    SchemaError,
    SignalMatrix,
    ValidationError,
    build_blocks,
    concat_designs,
    fc_matrix,
    framewise_displacement,
    generate_cohort,
    max_abs_correlation,
    mean_fd,
    ols_residualize,
    qcfc,
    run_pipeline,
    truth_error,
)
from qcfc.pipelines import PipelineKind, PipelineSpec
from qcfc.storage import write_json

from .conftest import REFERENCE_CONFIG, SMALL_CONFIG


def baseline_median_qcfc(cohort):
    fcs = []
    mfds = []
    for bundle in cohort.bundles:
        cleaned = run_pipeline(bundle, PipelineSpec(PipelineKind.BASELINE))
        fcs.append(fc_matrix(cleaned))
        mfds.append(mean_fd(framewise_displacement(bundle.motion)))
    return qcfc(fcs, mfds)


class TestConfigValidation:
    def test_bad_subject_count_names_field(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(SMALL_CONFIG, n_subjects=0)
        assert "n_subjects" in str(err.value)

    def test_bad_roi_count_names_field(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(SMALL_CONFIG, n_rois=3)
        assert "n_rois" in str(err.value)

    def test_short_run_names_field(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(SMALL_CONFIG, n_timepoints=23)
        assert "n_timepoints" in str(err.value)

    def test_amplitude_range_order(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(SMALL_CONFIG, motion_amplitude_range=(2.0, 0.1))

    def test_negative_gain(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(SMALL_CONFIG, artifact_gain=-0.5)
        assert "artifact_gain" in str(err.value)

    def test_mixing_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(SMALL_CONFIG, aroma_hmp_mixing=1.5)
        assert "aroma_hmp_mixing" in str(err.value)

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(SMALL_CONFIG, n_aroma_components=True)

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(SMALL_CONFIG, seed=-1)

    def test_from_dict_roundtrip(self):
        assert PhantomConfig.from_dict(SMALL_CONFIG.to_dict()) == SMALL_CONFIG

    def test_from_dict_unknown_field(self):
        raw = SMALL_CONFIG.to_dict()
        raw["typo_field"] = 1
        with pytest.raises(ValidationError) as err:
            PhantomConfig.from_dict(raw)
        assert "typo_field" in str(err.value)

    def test_from_dict_missing_field(self):
        raw = SMALL_CONFIG.to_dict()
        del raw["artifact_gain"]
        with pytest.raises(ValidationError) as err:
            PhantomConfig.from_dict(raw)
        assert "artifact_gain" in str(err.value)

    def test_config_json_bytes(self, tmp_path):
        path = tmp_path / "config.json"
        write_json(path, SMALL_CONFIG.to_dict())
        assert path.read_text() == (
            "{\n"
            '  "aroma_hmp_mixing": 0.6,\n'
            '  "artifact_gain": 1.0,\n'
            '  "artifact_length_scale": 40.0,\n'
            '  "motion_amplitude_range": [\n'
            "    0.1,\n"
            "    2.0\n"
            "  ],\n"
            '  "n_aroma_components": 5,\n'
            '  "n_rois": 30,\n'
            '  "n_subjects": 12,\n'
            '  "n_timepoints": 60,\n'
            '  "seed": 7\n'
            "}\n"
        )


class TestCohortShape:
    def test_bundle_inventory(self, small_cohort):
        cfg = SMALL_CONFIG
        assert len(small_cohort.bundles) == cfg.n_subjects
        ids = [b.subject_id for b in small_cohort.bundles]
        assert ids == sorted(set(ids))
        first = small_cohort.bundles[0]
        assert first.ts.values.shape == (cfg.n_timepoints, cfg.n_rois)
        assert first.motion.values.shape == (cfg.n_timepoints, 6)
        assert first.aroma.values.shape == (cfg.n_timepoints, cfg.n_aroma_components)
        assert first.physio.values.shape == (cfg.n_timepoints, 2)

    def test_amplitudes_within_configured_range(self, small_cohort):
        # Each translation column is a unit-std trace scaled by the amplitude.
        low, high = SMALL_CONFIG.motion_amplitude_range
        for bundle in small_cohort.bundles:
            stds = bundle.motion.values[:, :3].std(axis=0, ddof=0)
            np.testing.assert_allclose(stds, stds[0], rtol=1e-12)
            assert low <= stds[0] <= high

    def test_centroids_inside_sphere(self, small_cohort):
        radii = np.linalg.norm(small_cohort.parcellation.centroids, axis=1)
        assert radii.max() <= 70.0

    def test_truth_is_valid_connectivity(self, small_cohort):
        truth = small_cohort.truth_fc
        assert truth.values.shape == (SMALL_CONFIG.n_rois, SMALL_CONFIG.n_rois)
        eigvals = np.linalg.eigvalsh(truth.values)
        assert eigvals.min() > 0.0

    def test_minimum_size_config_runs(self):
        cfg = PhantomConfig(
            n_subjects=3,
            n_rois=4,
            n_timepoints=24,
            motion_amplitude_range=(0.1, 0.2),
            artifact_gain=1.0,
            artifact_length_scale=40.0,
            n_aroma_components=2,
            aroma_hmp_mixing=0.5,
            seed=0,
        )
        cohort = generate_cohort(cfg)
        assert len(cohort.bundles) == 3
        assert cohort.bundles[0].ts.values.shape == (24, 4)

    def test_zero_components_supported(self):
        cfg = dataclasses.replace(SMALL_CONFIG, n_aroma_components=0)
        cohort = generate_cohort(cfg)
        assert cohort.bundles[0].aroma.values.shape == (SMALL_CONFIG.n_timepoints, 0)
        cleaned = run_pipeline(cohort.bundles[0], PipelineSpec(PipelineKind.CONCAT_ALL))
        assert cleaned.values.shape == cohort.bundles[0].ts.values.shape


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = generate_cohort(SMALL_CONFIG)
        b = generate_cohort(SMALL_CONFIG)
        assert np.array_equal(a.parcellation.centroids, b.parcellation.centroids)
        assert np.array_equal(a.truth_fc.values, b.truth_fc.values)
        for ba, bb in zip(a.bundles, b.bundles):
            assert np.array_equal(ba.ts.values, bb.ts.values)
            assert np.array_equal(ba.motion.values, bb.motion.values)
            assert np.array_equal(ba.aroma.values, bb.aroma.values)
            assert np.array_equal(ba.physio.values, bb.physio.values)

    def test_different_seed_different_data(self):
        a = generate_cohort(SMALL_CONFIG)
        b = generate_cohort(dataclasses.replace(SMALL_CONFIG, seed=8))
        assert not np.array_equal(a.bundles[0].ts.values, b.bundles[0].ts.values)


class TestContamination:
    def test_contamination_lies_in_nuisance_span(self, small_cohort):
        # The draws do not depend on the gain, so the gain-1 minus gain-0
        # timeseries is the injected artifact, up to rounding.
        assert SMALL_CONFIG.artifact_gain == 1.0
        clean = generate_cohort(dataclasses.replace(SMALL_CONFIG, artifact_gain=0.0))
        worst = 0.0
        for bundle, clean_bundle in zip(small_cohort.bundles, clean.bundles):
            injected = bundle.ts.values - clean_bundle.ts.values
            blocks = build_blocks(bundle)
            design = concat_designs(
                [
                    blocks[RegressorSource.AROMA],
                    blocks[RegressorSource.HMP],
                    blocks[RegressorSource.PHYSIO],
                ]
            )
            leftover = ols_residualize(SignalMatrix(injected), design)
            ratio = np.linalg.norm(leftover.values) / np.linalg.norm(injected)
            worst = max(worst, ratio)
        assert worst <= 1e-8

    def test_gain_changes_only_the_removable_artifact(self):
        cohorts = [
            generate_cohort(dataclasses.replace(SMALL_CONFIG, artifact_gain=gain))
            for gain in (0.0, 1.0, 2.5)
        ]
        concat = PipelineSpec(PipelineKind.CONCAT_ALL)
        first = cohorts[0]
        worst = 0.0
        for other in cohorts[1:]:
            assert first.parcellation.roi_labels == other.parcellation.roi_labels
            assert np.array_equal(first.parcellation.centroids, other.parcellation.centroids)
            assert np.array_equal(first.truth_fc.values, other.truth_fc.values)
            for a, b in zip(first.bundles, other.bundles):
                assert np.array_equal(a.motion.values, b.motion.values)
                assert np.array_equal(a.aroma.values, b.aroma.values)
                assert np.array_equal(a.physio.values, b.physio.values)
                clean_a = run_pipeline(a, concat).values
                clean_b = run_pipeline(b, concat).values
                worst = max(worst, np.linalg.norm(clean_b - clean_a) / np.linalg.norm(clean_a))
        assert worst <= 1e-10

    def test_decoupled_components_stay_clean(self):
        cfg = dataclasses.replace(SMALL_CONFIG, aroma_hmp_mixing=0.0)
        cohort = generate_cohort(cfg)
        worst = 0.0
        for bundle in cohort.bundles:
            blocks = build_blocks(bundle)
            corr = max_abs_correlation(
                SignalMatrix(bundle.aroma.values), blocks[RegressorSource.HMP]
            )
            worst = max(worst, corr)
        assert worst < 0.2


class TestArtifactGain:
    def test_zero_gain_leaves_no_systematic_artifact(self):
        cfg = dataclasses.replace(REFERENCE_CONFIG, artifact_gain=0.0)
        report = baseline_median_qcfc(generate_cohort(cfg))
        defined = report.edge_qcfc[~np.isnan(report.edge_qcfc)]
        assert abs(np.median(defined)) < 0.05
        assert report.median_abs_qcfc < 0.12

    def test_median_artifact_monotone_in_gain(self):
        medians = []
        for gain in (0.0, 0.5, 1.0, 2.0):
            cfg = dataclasses.replace(REFERENCE_CONFIG, artifact_gain=gain)
            medians.append(baseline_median_qcfc(generate_cohort(cfg)).median_abs_qcfc)
        assert medians == sorted(medians)
        assert medians[0] < medians[-1]


class TestTruthError:
    def test_identical_matrices_score_zero(self, small_cohort):
        assert truth_error(small_cohort.truth_fc, small_cohort.truth_fc) == 0.0

    def test_uniform_offdiag_difference(self):
        from qcfc import FcMatrix

        labels = ("a", "b", "c")
        identity = FcMatrix(np.eye(3), labels)
        half = np.full((3, 3), 0.5)
        np.fill_diagonal(half, 1.0)
        assert truth_error(FcMatrix(half, labels), identity) == 0.5

    def test_label_mismatch_rejected(self, small_cohort):
        from qcfc import FcMatrix

        other = FcMatrix(
            np.eye(SMALL_CONFIG.n_rois),
            tuple(f"x{i}" for i in range(SMALL_CONFIG.n_rois)),
        )
        with pytest.raises(SchemaError):
            truth_error(other, small_cohort.truth_fc)

    def test_omnibus_recovers_truth_better_than_sequential(self, reference_cohort):
        truth = reference_cohort.truth_fc
        errors = {}
        for kind in (
            PipelineKind.SEQ_HMP_AROMA_PHYSIO,
            PipelineKind.SEQ_AROMA_HMP_PHYSIO,
            PipelineKind.CONCAT_ALL,
        ):
            per_subject = []
            for bundle in reference_cohort.bundles:
                cleaned = run_pipeline(bundle, PipelineSpec(kind))
                per_subject.append(truth_error(fc_matrix(cleaned), truth))
            errors[kind] = float(np.mean(per_subject))
        assert errors[PipelineKind.CONCAT_ALL] <= errors[PipelineKind.SEQ_HMP_AROMA_PHYSIO]
        assert errors[PipelineKind.CONCAT_ALL] <= errors[PipelineKind.SEQ_AROMA_HMP_PHYSIO]
