import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qcfc import (
    DataIntegrityError,
    DegenerateInputError,
    DesignMatrix,
    DimensionError,
    FcMatrix,
    HeadMotion,
    Parcellation,
    SchemaError,
    SignalMatrix,
    distance_dependence,
    edge_lengths,
    fc_matrix,
    framewise_displacement,
    mean_fd,
    pearson,
    qcfc,
    spearman,
)
import qcfc.metrics as metrics
from qcfc.metrics import QcFcReport, _average_ranks, _edge_order, _qcfc_edges
from qcfc.phantom import _truth_structure
from qcfc.regression import _max_abs, _varies, max_abs_correlation

from .oracles import (
    oracle_distance_dependence,
    oracle_edge_lengths,
    oracle_fc_edges,
    oracle_fd,
    oracle_pearson,
    oracle_qcfc,
    oracle_ranks,
    oracle_report_summary,
    oracle_spearman,
)


def motion_from_rows(rows):
    return HeadMotion(np.array(rows, dtype=float))


def scaled(base: float, exponents) -> st.SearchStrategy[float]:
    """sign * m * base**e, with a mantissa m in [1, 2) of 53 random bits, so that sums round."""
    mantissa = st.integers(2**52, 2**53 - 1).map(lambda k: k / 2**52)
    return st.builds(
        lambda m, e, sign: sign * m * base**e, mantissa, exponents, st.sampled_from([-1.0, 1.0])
    )


@st.composite
def motion_values(draw):
    """Motion traces of magnitudes 1e-300 to 1e300: drawn from a few values, so with
    repeats, zeros and values near the float64 limit whose frames overflow, or else
    from values 2**-80 to 2**80, where a frame's two rounding errors may not add exactly."""
    wide = scaled(2.0, st.integers(-80, 80))
    value = st.one_of(
        st.just(0.0),
        scaled(10.0, st.integers(-300, 300)),
        wide,
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([1e308, -1e308, 6e307, -6e307]),
    )
    pool = draw(st.lists(value, min_size=1, max_size=6))
    elements = draw(st.sampled_from([st.sampled_from(pool), wide]))
    shape = st.tuples(st.integers(2, 12), st.just(6))
    return draw(arrays(float, shape, elements=elements))


class TestFramewiseDisplacement:
    def test_constant_trace_all_zero(self):
        fd = framewise_displacement(motion_from_rows([[1, 2, 3, 0.1, 0.2, 0.3]] * 5))
        assert np.array_equal(fd, np.zeros(5))

    def test_worked_example_exact(self):
        fd = framewise_displacement(
            motion_from_rows([[0, 0, 0, 0, 0, 0], [0.1, -0.2, 0.3, 0.002, 0, -0.001]])
        )
        assert fd[0] == 0.0
        assert fd[1] == 0.75

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((30, 6))
        fd = framewise_displacement(HeadMotion(values))
        assert np.array_equal(fd, oracle_fd(values))

    @settings(deadline=None, max_examples=200)
    @given(motion_values())
    @example(np.array([[0.0] * 6, [1e308] * 6]))
    @example(np.array([[-1e308] * 6, [1e308] * 6]))
    @example(np.array([[0.0] * 6, [1e-300] * 6, [0.0] * 6]))
    @example(np.array([[0.0] * 6, [1.0, 2.0**-60, 2.0**-60, 1.0, 2.0**-60, 3.0]]))
    # A frame whose two rounding errors do not add exactly.
    @example(np.array(
        [[0.0] * 6, [7.667137676003378e-20, 1.170498334961163e19, 1.446481227362601e17] * 2]
    ))
    def test_matches_the_per_frame_fsum_loop_bit_for_bit(self, values):
        fd = framewise_displacement(HeadMotion(values))
        assert fd.tobytes() == oracle_fd(values).tobytes()

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    )
    def test_offset_invariance(self, seed, offsets):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((12, 6))
        fd_base = framewise_displacement(HeadMotion(values))
        fd_shift = framewise_displacement(HeadMotion(values + np.array(offsets)))
        assert np.allclose(fd_base, fd_shift, rtol=0.0, atol=1e-10)


class TestMeanFd:
    def test_examples(self):
        assert mean_fd(np.zeros(4)) == 0.0
        assert mean_fd([0.0, 1.0, 1.0, 2.0]) == 1.0
        assert mean_fd([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            mean_fd([])


class TestPearson:
    def test_exact_linear(self):
        r, p = pearson([1, 2, 3], [2, 4, 6])
        assert r == 1.0
        assert p == 0.0

    def test_exact_antilinear(self):
        r, _ = pearson([1, 2, 3], [3, 2, 1])
        assert r == -1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        y = 0.4 * x + rng.standard_normal(50)
        r, p = pearson(x, y)
        r_o, p_o = oracle_pearson(x, y)
        assert abs(r - r_o) <= 1e-10
        assert abs(p - p_o) <= 1e-6

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(DataIntegrityError, match="NaN or infinite"):
            pearson([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_r_stays_in_range(self):
        x = np.array([1e300, 2e300, 3e300, 4e300]) / 1e300
        r, _ = pearson(x, 2.0 * x)
        assert -1.0 <= r <= 1.0

    @pytest.mark.parametrize(
        "x", [[1e308, -1e308, 1e308, 5.0], [1e308, 1e308, 1e308, 5.0]], ids=["squares", "mean"]
    )
    def test_overflowing_sums_rejected_without_warning(self, x):
        # Warnings are errors in this suite, so an overflow warning fails here too.
        with pytest.raises(DataIntegrityError, match="overflows"):
            pearson(x, x)


class TestSpearman:
    def test_monotone_cubic(self):
        rho, _ = spearman([1, 2, 3], [1, 8, 27])
        assert rho == 1.0

    def test_tied_ranks(self):
        rho, _ = spearman([1, 2, 2, 3], [1, 3, 3, 5])
        assert rho == 1.0

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100) + 0.3 * x
        rho, p = spearman(x, y)
        rho_o, p_o = oracle_spearman(x, y)
        assert abs(rho - rho_o) <= 1e-10
        assert abs(p - p_o) <= 1e-6

    def test_rank_oracle_agrees_with_library_ranks(self):
        import scipy.stats

        rng = np.random.default_rng(5)
        v = np.round(rng.standard_normal(40), 1)
        assert np.array_equal(oracle_ranks(v), scipy.stats.rankdata(v, method="average"))

    @settings(deadline=None, max_examples=200)
    @given(
        st.one_of(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
            st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.25]), min_size=1, max_size=40),
        )
    )
    def test_average_ranks_match_library_and_oracle_bit_for_bit(self, values):
        import scipy.stats

        v = np.array(values, dtype=float)
        ranks = _average_ranks(v)
        for reference in (scipy.stats.rankdata(v, method="average"), oracle_ranks(v)):
            assert ranks.tobytes() == np.asarray(reference, dtype=float).tobytes()

    def test_package_import_leaves_out_scipy_stats(self):
        src = str(Path(sys.modules["qcfc"].__file__).parent.parent)
        modules = ("scipy.stats", "scipy.special", "scipy.linalg")
        code = f"import sys, qcfc.cli; print(any(m in sys.modules for m in {modules}))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=40))
    def test_monotone_transform_invariance(self, xs):
        rng = np.random.default_rng(abs(hash(tuple(xs))) % 2**32)
        x = np.array(xs, dtype=float)
        y = rng.standard_normal(len(xs))
        if np.all(x == x[0]):
            return
        rho_base, p_base = spearman(x, y)
        rho_cube, p_cube = spearman(x**3, y)
        assert rho_base == rho_cube
        assert p_base == p_cube


class TestFcMatrix:
    def test_identical_columns(self):
        col = np.random.default_rng(6).standard_normal((10, 1))
        fc = fc_matrix(SignalMatrix(np.hstack([col, col]), ("a", "b")))
        assert fc.values[0, 1] == 1.0
        assert fc.values[0, 0] == 1.0

    def test_orthogonal_columns_zero_offdiag(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((40, 3))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        fc = fc_matrix(SignalMatrix(q))
        off = fc.values[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() <= 1e-12

    def test_full_scale_edge_count(self):
        rng = np.random.default_rng(8)
        ts = SignalMatrix(rng.standard_normal((8, 333)))
        fc = fc_matrix(ts)
        assert fc.upper_triangle().size == 55278

    def test_unlabeled_results_share_one_label_tuple(self):
        ts = SignalMatrix(np.random.default_rng(8).standard_normal((8, 5)))
        assert fc_matrix(ts).roi_labels is fc_matrix(ts).roi_labels
        assert fc_matrix(ts).roi_labels == ("roi_000", "roi_001", "roi_002", "roi_003", "roi_004")

    def test_constant_column_named(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((10, 3))
        values[:, 1] = 4.2
        with pytest.raises(DegenerateInputError) as err:
            fc_matrix(SignalMatrix(values, ("ra", "rb", "rc")))
        assert "rb" in str(err.value)

    def test_too_few_timepoints(self):
        with pytest.raises(DegenerateInputError):
            fc_matrix(SignalMatrix(np.random.default_rng(10).standard_normal((2, 3))))

    def test_invariants_hold(self):
        rng = np.random.default_rng(11)
        fc = fc_matrix(SignalMatrix(rng.standard_normal((30, 6))))
        assert np.array_equal(fc.values, fc.values.T)
        assert np.array_equal(np.diag(fc.values), np.ones(6))
        assert fc.values.min() >= -1.0 and fc.values.max() <= 1.0

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ts = rng.standard_normal((25, 4))
        scales = rng.uniform(0.1, 100.0, size=4)
        shifts = rng.uniform(-50.0, 50.0, size=4)
        base = fc_matrix(SignalMatrix(ts)).values
        transformed = fc_matrix(SignalMatrix(ts * scales + shifts)).values
        assert np.abs(base - transformed).max() <= 1e-12

    # Every |x| is above 2**-20, so no column scaled by 2**-1000 turns subnormal.
    SCALED_TS = np.random.default_rng(12).standard_normal((200, 12))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(-1000, 1000), min_size=12, max_size=12))
    @example([-1000] * 12)
    @example([-300] * 12)
    @example([300] * 12)
    @example([1000] * 12)
    def test_power_of_two_scales_keep_every_bit(self, exponents):
        """Pearson r does not see a column's scale; any power of two keeps every bit of it."""
        assert np.abs(self.SCALED_TS).min() > 2.0**-20
        base = fc_matrix(SignalMatrix(self.SCALED_TS)).values
        scaled = fc_matrix(SignalMatrix(np.ldexp(self.SCALED_TS, exponents))).values
        assert scaled.tobytes() == base.tobytes()

    def test_type_rejects_asymmetry(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(DataIntegrityError):
            FcMatrix(bad, ("a", "b", "c"))

    @pytest.mark.parametrize(
        "values, error, match",
        [
            (np.ones((2, 3)), DimensionError, "must be square"),
            (np.diag([1.0, 0.5, 1.0]), DataIntegrityError, "diagonal must be exactly 1"),
            (np.array([[1.0, 1.5, 0.0], [1.5, 1.0, 0.0], [0.0, 0.0, 1.0]]), DataIntegrityError,
             r"must lie in \[-1, 1\]"),
        ],
        ids=["not-square", "diagonal", "beyond-one"],
    )
    def test_type_rejects_malformed_values(self, values, error, match):
        with pytest.raises(error, match=match):
            FcMatrix(values, ("a", "b", "c"))

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(3, 40),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "collinear", "anti-collinear", "power-of-two scales"]),
    )
    @example(3, 2, 0, "random")
    @example(3, 2, 1, "collinear")
    @example(5, 2, 2, "anti-collinear")
    @example(40, 12, 3, "power-of-two scales")
    def test_edges_have_the_bits_of_the_square_formula(self, n, r, seed, kind):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, r))
        if kind == "power-of-two scales":
            values = np.ldexp(values, rng.integers(-300, 300, size=r))
        elif kind != "random":
            # Columns 1, 3, 5, ... repeat column 0 at a power-of-two scale: r is exactly +/-1.
            sign = 1.0 if kind == "collinear" else -1.0
            values[:, 1::2] = sign * np.ldexp(values[:, :1], rng.integers(-8, 8, size=r // 2))
        edges = fc_matrix(SignalMatrix(values)).upper_triangle()
        assert edges.tobytes() == oracle_fc_edges(values).tobytes()
        if kind in ("collinear", "anti-collinear"):
            assert edges[0] == (1.0 if kind == "collinear" else -1.0)

    def test_a_list_of_results_holds_only_their_edges(self):
        values = np.random.default_rng(13).standard_normal((1200, 333))
        ts = SignalMatrix(values, metrics.default_roi_labels(333))
        fc_matrix(ts)  # creates what a first call does once
        squares = 40 * 333 * 333 * 8
        tracemalloc.start()
        try:
            fcs = [fc_matrix(ts) for _ in range(40)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.55 * squares, f"{held / squares:.2f} x the bytes of 40 squares"
        edges = fcs[0].upper_triangle()
        assert np.shares_memory(edges, fcs[0].upper_triangle()) and not edges.flags.writeable

    def test_values_is_a_read_only_square(self):
        fc = fc_matrix(SignalMatrix(np.random.default_rng(14).standard_normal((20, 5))))
        assert fc.values.shape == (5, 5) and not fc.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fc.values[0, 1] = 0.5

    def test_values_has_the_bits_of_a_symmetric_input(self):
        sigma, _ = _truth_structure(np.random.default_rng(15), 40)
        assert FcMatrix(sigma, range(40)).values.tobytes() == sigma.tobytes()

    def test_values_mirrors_the_upper_triangle_of_a_nearly_symmetric_input(self):
        upper = np.array([[1.0, 0.25, -0.5], [0.0, 1.0, 0.75], [0.0, 0.0, 1.0]])
        mirrored = upper + np.triu(upper, k=1).T
        nearly = mirrored + np.tril(np.full((3, 3), 1e-13), k=-1)
        fc = FcMatrix(nearly, ("a", "b", "c"))
        assert fc.values.tobytes() == mirrored.tobytes()
        assert np.array_equal(fc.upper_triangle(), [0.25, -0.5, 0.75])

    def test_a_pickle_round_trip_keeps_the_edges_and_labels(self):
        fc = fc_matrix(SignalMatrix(np.random.default_rng(16).standard_normal((20, 6)), "abcdef"))
        back = pickle.loads(pickle.dumps(fc))
        assert back.roi_labels == ("a", "b", "c", "d", "e", "f")
        assert back.upper_triangle().tobytes() == fc.upper_triangle().tobytes()
        assert not back.upper_triangle().flags.writeable


class TestEdgeLengths:
    def test_three_four_five(self):
        parc = Parcellation(("a", "b"), np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        assert np.array_equal(edge_lengths(parc), [5.0])

    def test_coincident_centroids(self):
        parc = Parcellation(("a", "b"), np.zeros((2, 3)))
        assert np.array_equal(edge_lengths(parc), [0.0])

    def test_documented_order_r4(self):
        coords = np.arange(12.0).reshape(4, 3)
        parc = Parcellation(("a", "b", "c", "d"), coords)
        got = edge_lengths(parc)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        expected = [np.linalg.norm(coords[i] - coords[j]) for i, j in pairs]
        assert np.allclose(got, expected, atol=0)
        assert np.array_equal(got, oracle_edge_lengths(coords))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            Parcellation(("a", "a"), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda lab: DesignMatrix(np.zeros((4, 3)), lab), "column_labels"),
        (lambda lab: SignalMatrix(np.zeros((4, 3)), lab), "column_labels"),
        (lambda lab: FcMatrix(np.eye(3), lab), "roi_labels"),
        (lambda lab: Parcellation(lab, np.zeros((3, 3))), "roi_labels"),
    ],
    ids=["design", "signal", "fc", "parcellation"],
)
def test_labels_are_strings_one_per_column(build, field):
    assert getattr(build([1, 2, 3]), field) == ("1", "2", "3")
    for labels in (("a", "b"), ("a", "b", "c", "d")):
        with pytest.raises(DimensionError, match="needs 3 labels"):
            build(labels)


def build_fc(values, labels):
    sym = (values + values.T) / 2.0
    np.fill_diagonal(sym, 1.0)
    return FcMatrix(np.clip(sym, -1.0, 1.0), labels)


def cohort_fcs(seed, n_subjects, r, constant_edge=None):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_subjects):
        vals = rng.uniform(-0.8, 0.8, size=(r, r))
        if constant_edge is not None:
            i, j = constant_edge
            vals[i, j] = vals[j, i] = 0.5
        mats.append(build_fc(vals, tuple(f"r{k}" for k in range(r))))
    return mats


class TestQcfc:
    def test_constant_edge_excluded_and_counted(self):
        fcs = cohort_fcs(12, 5, 4, constant_edge=(0, 1))
        report = qcfc(fcs, [0.1, 0.4, 0.2, 0.9, 0.5])
        assert report.undefined_edge_count == 1
        assert np.isnan(report.edge_qcfc[0])
        assert not np.isnan(report.edge_qcfc[1:]).any()
        assert report.n_edges - report.undefined_edge_count == 5

    def test_perfect_edge_correlation(self):
        mfd = np.array([0.125, 0.25, 0.375, 0.5, 0.625])
        mats = []
        rng = np.random.default_rng(13)
        for v in mfd:
            vals = rng.uniform(-0.5, 0.5, size=(3, 3))
            vals[0, 1] = vals[1, 0] = v
            mats.append(build_fc(vals, ("a", "b", "c")))
        report = qcfc(mats, mfd)
        assert report.edge_qcfc[0] == 1.0

    def test_matches_bruteforce_oracle(self):
        fcs = cohort_fcs(14, 20, 6)
        mfd = np.random.default_rng(15).uniform(0.05, 1.5, size=20)
        report = qcfc(fcs, mfd)
        r_o, p_o, med_o = oracle_qcfc([m.values for m in fcs], mfd)
        assert np.allclose(report.edge_qcfc, r_o, atol=1e-10, equal_nan=True)
        assert np.allclose(report.edge_pvalues, p_o, atol=1e-6, equal_nan=True)
        assert abs(report.median_abs_qcfc - med_o) <= 1e-10

    def test_too_few_subjects(self):
        fcs = cohort_fcs(16, 2, 4)
        with pytest.raises(DegenerateInputError):
            qcfc(fcs, [0.1, 0.2])

    def test_overflowing_mfd_rejected_without_warning(self):
        fcs = cohort_fcs(17, 4, 4)
        with pytest.raises(DataIntegrityError, match="overflows"):
            qcfc(fcs, [1e200, -1e200, 0.0, 1.0])

    def test_overflowing_mfd_names_the_subject_furthest_from_the_mean(self):
        fcs = cohort_fcs(17, 4, 4)
        with pytest.raises(DataIntegrityError, match="^subject 1: mean FD is too large: the"):
            qcfc(fcs, [1e200, -2e200, 0.0, 1.0])

    def test_constant_mfd_rejected(self):
        fcs = cohort_fcs(17, 4, 4)
        with pytest.raises(DegenerateInputError):
            qcfc(fcs, [0.3, 0.3, 0.3, 0.3])

    @pytest.mark.parametrize(
        "mfd, error, match",
        [
            ([0.1, 0.2, 0.3], DimensionError, "4 FC matrices but 3 mean-FD values"),
            ([0.1, np.nan, 0.3, 0.4], DataIntegrityError, "NaN or infinite"),
        ],
        ids=["count", "nan"],
    )
    def test_mean_fd_must_be_one_finite_value_per_subject(self, mfd, error, match):
        with pytest.raises(error, match=match):
            qcfc(cohort_fcs(17, 4, 4), mfd)

    def test_label_mismatch_rejected(self):
        fcs = cohort_fcs(18, 3, 3)
        other = build_fc(
            np.random.default_rng(19).uniform(-0.5, 0.5, (3, 3)), ("x", "y", "z")
        )
        with pytest.raises(SchemaError):
            qcfc([fcs[0], fcs[1], other], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "fcs, undefined",
        [
            (cohort_fcs(23, 12, 7), 0),
            (cohort_fcs(24, 12, 7, constant_edge=(2, 5)), 1),
            (cohort_fcs(25, 1, 5) * 12, 10),
        ],
        ids=["all-defined", "one-undefined", "none-defined"],
    )
    def test_edges_core_list_and_oracle_agree(self, fcs, undefined):
        mfd = np.random.default_rng(26).uniform(0.05, 1.5, size=len(fcs))
        from_list = qcfc(fcs, mfd)
        from_edges = _qcfc_edges(np.array([fc.upper_triangle() for fc in fcs]), mfd)
        for field in ("edge_qcfc", "edge_pvalues"):
            got, expected = getattr(from_edges, field), getattr(from_list, field)
            assert np.array_equal(got, expected, equal_nan=True)
        assert from_list.undefined_edge_count == from_edges.undefined_edge_count == undefined
        assert np.array_equal(from_list.median_abs_qcfc, from_edges.median_abs_qcfc, equal_nan=True)
        r_o, p_o, med_o = oracle_qcfc([m.values for m in fcs], mfd)
        assert np.array_equal(np.isnan(from_list.edge_qcfc), np.isnan(r_o))
        assert np.allclose(from_list.edge_qcfc, r_o, atol=1e-10, equal_nan=True)
        assert np.allclose(from_list.edge_pvalues, p_o, atol=1e-6, equal_nan=True)
        assert np.isclose(from_list.median_abs_qcfc, med_o, rtol=0.0, atol=1e-10, equal_nan=True)

    def test_edges_core_holds_no_second_copy_of_the_edges(self):
        # The paper's 333 ROIs give 55,278 edges; 40 subjects, as in its in-memory comparison.
        rng = np.random.default_rng(29)
        edges = rng.standard_normal((40, 333 * 332 // 2))
        mfd = rng.uniform(0.1, 0.5, 40)
        _qcfc_edges(edges[:, :3].copy(), mfd)  # creates what a first call does once
        tracemalloc.start()
        try:
            _qcfc_edges(edges, mfd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * edges.nbytes, f"peak {peak / edges.nbytes:.2f} x the edges array"

    @pytest.mark.parametrize(
        "blocks, extra",
        [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
        ids=["1", "block-1", "block", "block+1", "3*block+7"],
    )
    def test_edges_core_in_blocks_has_the_bits_of_one_product(self, monkeypatch, blocks, extra):
        n_defined = blocks * metrics._QCFC_BLOCK + extra
        rng = np.random.default_rng(30)
        # A constant, so undefined, edge before every 4th defined one.
        defined = rng.standard_normal((12, n_defined))
        edges = np.insert(defined, np.arange(0, n_defined, 4), 0.25, axis=1)
        mfd = rng.uniform(0.1, 0.5, 12)
        in_blocks = _qcfc_edges(edges.copy(), mfd)
        assert in_blocks.n_edges - in_blocks.undefined_edge_count == n_defined
        monkeypatch.setattr(metrics, "_QCFC_BLOCK", edges.shape[1])
        whole = _qcfc_edges(edges, mfd)
        assert in_blocks.edge_qcfc.tobytes() == whole.edge_qcfc.tobytes()

    @pytest.mark.parametrize("n_subjects", [0, 2])
    def test_edges_core_refuses_too_few_subjects(self, n_subjects):
        edges = np.array([fc.upper_triangle() for fc in cohort_fcs(27, n_subjects, 4)])
        message = f"^need at least 3 subjects, got {n_subjects}$"
        with pytest.raises(DegenerateInputError, match=message):
            _qcfc_edges(edges, np.linspace(0.1, 0.2, n_subjects))

    def test_too_few_subjects_named_before_mismatched_labels(self):
        other = build_fc(np.zeros((4, 4)), ("w", "x", "y", "z"))
        with pytest.raises(DegenerateInputError, match="^need at least 3 subjects, got 2$"):
            qcfc([cohort_fcs(28, 1, 4)[0], other], [0.1, 0.2])

    def test_summary_ranges(self):
        fcs = cohort_fcs(20, 10, 5)
        report = qcfc(fcs, np.random.default_rng(21).uniform(0.1, 1.0, 10))
        assert 0.0 <= report.median_abs_qcfc <= 1.0
        defined = ~np.isnan(report.edge_pvalues)
        assert report.edge_pvalues[defined].min() >= 0.0
        assert report.edge_pvalues[defined].max() <= 1.0


def report_from_values(edge_r, n_subjects=10):
    return QcFcReport(edge_qcfc=np.asarray(edge_r, dtype=float), n_subjects=n_subjects)


class TestQcFcReport:
    def test_report_is_immutable(self):
        report = report_from_values([0.1, -0.2, 0.3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.median_abs_qcfc = 0.0
        with pytest.raises(ValueError):
            report.edge_qcfc[0] = 0.5

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.one_of(st.floats(-1.0, 1.0), st.just(float("nan"))), min_size=1, max_size=30
        )
    )
    @example([float("nan"), float("nan")])
    @example([0.25, float("nan"), -0.75, 0.5])
    def test_summary_is_derived_from_edge_values(self, edge_r):
        report = report_from_values(edge_r)
        median_abs, undefined = oracle_report_summary(edge_r)
        assert report.undefined_edge_count == undefined
        assert report.n_edges - report.undefined_edge_count == len(edge_r) - undefined
        if np.isnan(median_abs):
            assert np.isnan(report.median_abs_qcfc)
        else:
            assert report.median_abs_qcfc == median_abs

    def test_summary_is_not_an_argument(self):
        edges = {"edge_qcfc": [0.1, 0.2], "n_subjects": 3}
        for summary in ({"median_abs_qcfc": 0.15}, {"undefined_edge_count": 0}):
            with pytest.raises(TypeError):
                QcFcReport(**edges, **summary)

    @pytest.mark.parametrize(
        "r, error, match",
        [
            ([0.1, 1.5], DataIntegrityError, "QC-FC values must lie in"),
            ([[0.1, 0.2]], DimensionError, "must be a 1-d vector"),
        ],
        ids=["r", "two-d"],
    )
    def test_values_out_of_range_or_misaligned_rejected(self, r, error, match):
        with pytest.raises(error, match=match):
            QcFcReport(edge_qcfc=r, n_subjects=10)


def one_ulp_apart(base, ups):
    """`base` where `ups` is 0 and the next float above it where `ups` is 1."""
    return np.where(np.array(ups) == 1, np.nextafter(base, np.inf), base)


class TestOneVariationRule:
    """A column that differs only by rounding is constant to every correlation."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
        st.lists(st.integers(0, 1), min_size=5, max_size=40),
        st.floats(1e-3, 1e3),
    )
    # 0.1 + 0.2 is 0.30000000000000004, one float above 0.3.
    @example(0.3, [1, 0, 1, 0, 0], 1.0)
    def test_rounding_spread_is_constant_and_real_spread_varies(self, base, ups, scale):
        flat = one_ulp_apart(base, ups)
        varying = scale * np.linspace(-1.0, 1.0, flat.size) + base
        pair = SignalMatrix(np.column_stack([varying, flat]), ("varying", "flat"))

        with pytest.raises(DegenerateInputError, match="'flat'"):
            fc_matrix(pair)
        assert fc_matrix(SignalMatrix(np.column_stack([varying, varying]))).values[0, 1] == 1.0

        for correlate in (pearson, spearman):
            for args in ((flat, varying), (varying, flat)):
                with pytest.raises(DegenerateInputError, match="constant input"):
                    correlate(*args)
            assert correlate(varying, varying)[0] == 1.0

        design = DesignMatrix(varying[:, None], ("varying",))
        with pytest.raises(DegenerateInputError):
            max_abs_correlation(SignalMatrix(flat[:, None]), design)
        assert max_abs_correlation(pair, design) >= 1.0 - 1e-12


def varies_with_abs_copy(ss, values):
    """`_varies` as it was written with an |x| copy of `values`."""
    n = values.shape[0]
    return np.sqrt(ss) > n * np.finfo(float).eps * np.max(np.abs(values), axis=0, initial=0.0)


# Zeros of both signs, values one rounding apart, and any finite float.
VARIES_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3, 0.30000000000000004]) | st.floats(
    -1e300, 1e300
)
VARIES_CASES = array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5).flatmap(
    lambda shape: st.tuples(
        arrays(np.float64, shape, elements=VARIES_VALUES),
        arrays(np.float64, shape[1], elements=st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 1e6)),
    )
)


class TestVaries:
    """`_varies` takes max|x| as max(max x, -min x), with the same result as from |x|."""

    @settings(deadline=None, max_examples=200)
    @given(VARIES_CASES)
    @example((np.array([[-0.0, 0.0], [0.0, -0.0]]), np.zeros(2)))
    @example((np.empty((0, 2)), np.array([0.0, 1.0])))
    def test_matches_the_abs_copy(self, case):
        values, ss = case
        expected = varies_with_abs_copy(ss, values)
        assert np.array_equal(_varies(ss, values), expected)
        max_abs = _max_abs(values)
        assert np.array_equal(max_abs, np.max(np.abs(values), axis=0, initial=0.0))
        # A caller that centres in place passes the max|x| from before.
        assert np.array_equal(_varies(ss, values - 7.0, max_abs), expected)

    @settings(deadline=None, max_examples=100)
    @given(arrays(np.float64, st.integers(0, 6), elements=VARIES_VALUES), st.floats(0.0, 1e6))
    @example(np.array([-0.0, -0.0, 0.0]), 0.0)
    def test_scalar_ss_with_one_d_values_gives_one_bool(self, values, ss):
        got = _varies(ss, values)
        assert np.ndim(got) == 0 and bool(got) == bool(varies_with_abs_copy(ss, values))


class TestEdgeOrder:
    def test_one_read_only_order_per_roi_count_behind_every_edge_vector(self):
        iu, ju = _edge_order(5)
        assert _edge_order(5)[0] is iu and _edge_order(5)[1] is ju
        assert not iu.flags.writeable and not ju.flags.writeable
        expected = np.triu_indices(5, k=1)
        assert np.array_equal(iu, expected[0]) and np.array_equal(ju, expected[1])
        fc = cohort_fcs(29, 1, 5)[0]
        assert np.array_equal(fc.upper_triangle(), fc.values[iu, ju])


class TestDistanceDependence:
    def test_strictly_decreasing_gives_minus_one(self):
        edge_r = np.linspace(0.9, -0.9, 10)
        lengths = np.linspace(5.0, 140.0, 10)
        report = report_from_values(edge_r)
        rho, p = distance_dependence(report, lengths)
        assert rho == -1.0
        assert p == 0.0

    def test_shuffled_values_near_zero(self):
        rng = np.random.default_rng(22)
        edge_r = rng.uniform(-0.3, 0.3, size=4950)
        lengths = rng.uniform(1.0, 140.0, size=4950)
        rho, p = distance_dependence(report_from_values(edge_r), lengths)
        assert abs(rho) < 0.05
        assert p > 0.05

    def test_undefined_edges_dropped_pairwise(self):
        edge_r = np.array([0.5, np.nan, 0.1, -0.2, np.nan, 0.3])
        lengths = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        rho, p = distance_dependence(report_from_values(edge_r), lengths)
        rho_o, p_o = oracle_distance_dependence(edge_r, lengths)
        assert abs(rho - rho_o) <= 1e-12
        assert abs(p - p_o) <= 1e-6

    def test_too_few_defined_edges(self):
        edge_r = np.array([0.5, np.nan, np.nan, 0.1])
        lengths = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateInputError):
            distance_dependence(report_from_values(edge_r), lengths)

    def test_length_count_must_match(self):
        with pytest.raises(DimensionError):
            distance_dependence(report_from_values(np.array([0.1, 0.2, 0.3])), [1.0, 2.0])
