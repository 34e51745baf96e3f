import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcfc import (
    DataIntegrityError,
    DegenerateInputError,
    DesignMatrix,
    DimensionError,
    SignalMatrix,
    concat_designs,
    expand_hmp24,
    max_abs_correlation,
    ols_residualize,
    sequential_residualize,
)
from qcfc.regression import demean_columns

from .conftest import make_correlated_bundle, orthogonal_blocks, standardize
from .oracles import oracle_residualize


def design(values):
    values = np.asarray(values, dtype=float)
    return DesignMatrix(values, tuple(f"x{i}" for i in range(values.shape[1])))


class TestDemean:
    def test_symmetric_shift(self):
        out = demean_columns(np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(out[:, 0], [-1.0, 0.0, 1.0])

    def test_zero_column_unchanged(self):
        out = demean_columns(np.zeros((4, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_constant_maps_to_zero(self):
        out = demean_columns(np.full((4, 1), 5.0))
        assert np.array_equal(out, np.zeros((4, 1)))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 5)),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_columns_mean_zero(self, values):
        out = demean_columns(values)
        scale = max(1.0, float(np.abs(values).max()))
        assert np.abs(out.mean(axis=0)).max() <= 1e-12 * scale


class TestOlsResidualize:
    def test_perfect_fit_gives_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 4))
        y = x @ rng.standard_normal((4, 3))
        resid = ols_residualize(SignalMatrix(y), design(x))
        scale = np.linalg.norm(demean_columns(y), axis=0)
        assert (np.linalg.norm(resid.values, axis=0) <= 1e-10 * scale).all()

    def test_empty_design_returns_demeaned(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((10, 2))
        resid = ols_residualize(SignalMatrix(y), design(np.zeros((10, 0))))
        assert np.allclose(resid.values, demean_columns(y), atol=1e-14)

    @pytest.mark.parametrize("rank", [0, 3, 4])
    def test_design_must_leave_two_residual_degrees_of_freedom(self, rank):
        rng = np.random.default_rng(7)
        n = rank + 3
        x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, 6))
        y = SignalMatrix(rng.standard_normal((n, 2)))
        ols_residualize(y, design(x))
        short = design(x[:-1])
        with pytest.raises(DegenerateInputError, match="leaves 1 residual degrees of freedom"):
            ols_residualize(SignalMatrix(y.values[:-1]), short)
        with pytest.raises(DegenerateInputError, match="leaves 1 residual degrees of freedom"):
            sequential_residualize(SignalMatrix(y.values[:-1]), [short])

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((20, 3))
        x = rng.standard_normal((20, 4))
        resid = ols_residualize(SignalMatrix(y), design(x))
        expected = oracle_residualize(y, x)
        assert np.abs(resid.values - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_rank_deficient_matches_oracle(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((25, 3))
        x = np.hstack([base, base[:, :2], base[:, :1] * 2.0])
        y = rng.standard_normal((25, 4))
        resid = ols_residualize(SignalMatrix(y), design(x))
        expected = oracle_residualize(y, x)
        assert np.allclose(resid.values, expected, atol=1e-8)

    def test_orthogonality_contract(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((50, 6))
        x = rng.standard_normal((50, 5))
        resid = ols_residualize(SignalMatrix(y), design(x))
        xd = demean_columns(x)
        inner = np.abs(resid.values.T @ xd)
        bound = 1e-10 * np.outer(
            np.linalg.norm(resid.values, axis=0), np.linalg.norm(xd, axis=0)
        )
        assert (inner <= bound + 1e-300).all()

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ols_residualize(SignalMatrix(np.zeros((5, 1))), design(np.zeros((6, 1))))

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(DataIntegrityError):
            SignalMatrix(np.array([[1.0], [np.nan]]))
        with pytest.raises(DataIntegrityError):
            design(np.array([[1.0], [np.inf]]))

    def test_labels_preserved(self):
        y = SignalMatrix(np.random.default_rng(8).standard_normal((12, 2)), ("a", "b"))
        resid = ols_residualize(y, design(np.ones((12, 1))))
        assert resid.column_labels == ("a", "b")

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_projection_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        y = SignalMatrix(rng.standard_normal((30, 3)))
        x = design(rng.standard_normal((30, 4)))
        once = ols_residualize(y, x)
        twice = ols_residualize(once, x)
        scale = np.maximum(np.linalg.norm(once.values, axis=0), 1e-30)
        assert (np.abs(twice.values - once.values).max(axis=0) <= 1e-10 * scale).all()

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(
            min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
    )
    def test_scale_equivariance(self, seed, c):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((25, 2))
        x = design(rng.standard_normal((25, 3)))
        base = ols_residualize(SignalMatrix(y), x).values
        scaled = ols_residualize(SignalMatrix(c * y), x).values
        assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-12 * abs(c))


class TestConcatDesigns:
    def test_widths_sum(self):
        blocks = [
            design(np.zeros((10, 24))),
            design(np.zeros((10, 11))),
            design(np.zeros((10, 2))),
        ]
        merged = concat_designs(blocks)
        assert merged.k == 37

    def test_labels_kept_in_block_order(self):
        a = DesignMatrix(np.zeros((5, 2)), ("t1", "t2"))
        b = DesignMatrix(np.zeros((5, 1)), ("c1",))
        merged = concat_designs([a, b])
        assert merged.column_labels == ("t1", "t2", "c1")

    def test_single_block_values_identical(self):
        values = np.random.default_rng(9).standard_normal((8, 3))
        merged = concat_designs([design(values)])
        assert np.array_equal(merged.values, values)

    def test_empty_list_needs_row_count(self):
        with pytest.raises(DimensionError, match="at least one block"):
            concat_designs([])

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            concat_designs([design(np.zeros((5, 1))), design(np.zeros((6, 1)))])

    def test_column_order_preserved(self):
        a = design(np.ones((4, 2)) * 2.0)
        b = design(np.ones((4, 1)) * 3.0)
        merged = concat_designs([a, b])
        assert np.array_equal(merged.values, np.hstack([a.values, b.values]))


class TestSequentialResidualize:
    def test_orthogonal_blocks_equal_concatenated(self):
        rng = np.random.default_rng(10)
        blocks = orthogonal_blocks(11)
        y = SignalMatrix(rng.standard_normal((60, 4)))
        seq = sequential_residualize(y, blocks)
        conc = ols_residualize(y, concat_designs(blocks))
        assert np.abs(seq.values - conc.values).max() <= 1e-8

    def test_single_block_equals_ols(self):
        rng = np.random.default_rng(12)
        y = SignalMatrix(rng.standard_normal((20, 2)))
        x = design(rng.standard_normal((20, 3)))
        assert np.allclose(
            sequential_residualize(y, [x]).values,
            ols_residualize(y, x).values,
            atol=1e-12,
        )

    def test_reintroduction_two_correlated_regressors(self):
        rng = np.random.default_rng(13)
        x1 = standardize(rng.standard_normal((50, 1)))
        raw = standardize(rng.standard_normal((50, 1)))
        noise = standardize(oracle_residualize(raw, x1))
        x2 = 0.6 * x1 + 0.8 * noise
        y = SignalMatrix(x1 + x2)
        b1 = design(x1)
        b2 = design(x2)
        seq = sequential_residualize(y, [b1, b2])
        conc = ols_residualize(y, concat_designs([b1, b2]))
        assert max_abs_correlation(seq, b1) > 0.01
        assert max_abs_correlation(conc, b1) < 1e-10
        oracle_seq = oracle_residualize(oracle_residualize(y.values, x1), x2)
        assert np.allclose(seq.values, oracle_seq, atol=1e-10)

    @pytest.mark.parametrize("seed", [401, 402, 403])
    def test_frisch_waugh_lovell_correlated_blocks(self, seed):
        # Residualizing each later block on all earlier ones turns sequential
        # regression into the concatenated one, even for correlated blocks.
        bundle = make_correlated_bundle(seed)
        blocks = [expand_hmp24(bundle.motion), bundle.aroma, bundle.physio]
        conc = ols_residualize(bundle.ts, concat_designs(blocks))
        orthogonalized = [blocks[0]]
        for k, block in enumerate(blocks[1:], start=1):
            earlier = concat_designs(blocks[:k])
            resid = ols_residualize(SignalMatrix(block.values), earlier).values
            orthogonalized.append(design(resid))
        fwl = sequential_residualize(bundle.ts, orthogonalized)
        naive = sequential_residualize(bundle.ts, blocks)
        assert np.abs(fwl.values - conc.values).max() <= 1e-10
        assert np.abs(naive.values - conc.values).max() > 1e-3

    def test_peak_holds_one_running_residual(self):
        # The paper's sequential pipelines: 1200 x 333 signals, blocks of 24, 30 and 2 columns.
        rng = np.random.default_rng(15)
        y = SignalMatrix(rng.standard_normal((1200, 333)))
        blocks = [design(rng.standard_normal((1200, k))) for k in (24, 30, 2)]
        sequential_residualize(SignalMatrix(y.values[:, :1]), blocks)  # imports what a fit needs
        tracemalloc.start()
        try:
            sequential_residualize(y, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * y.values.nbytes, f"peak {peak / y.values.nbytes:.2f} x the signal"

    def test_last_block_only_guarantee(self):
        rng = np.random.default_rng(14)
        shared = rng.standard_normal((80, 1))
        first = design(
            np.hstack([rng.standard_normal((80, 2)), shared])
        )
        last = design(
            0.7 * shared + 0.3 * rng.standard_normal((80, 1))
        )
        y = SignalMatrix(rng.standard_normal((80, 3)) + shared)
        seq = sequential_residualize(y, [first, last])
        conc = ols_residualize(y, concat_designs([first, last]))
        assert max_abs_correlation(seq, last) <= 1e-8
        assert max_abs_correlation(seq, first) > max_abs_correlation(conc, first)


class TestMaxAbsCorrelation:
    def test_orthogonal_case(self):
        blocks = orthogonal_blocks(15, n=40, widths=(2, 2, 2))
        e = SignalMatrix(blocks[0].values)
        assert max_abs_correlation(e, blocks[1]) <= 1e-10

    def test_self_correlation_is_one(self):
        v = np.random.default_rng(16).standard_normal((20, 1))
        assert max_abs_correlation(SignalMatrix(v), design(v)) == 1.0

    def test_matches_bruteforce_pairwise(self):
        rng = np.random.default_rng(17)
        e = rng.standard_normal((30, 2))
        x = rng.standard_normal((30, 3))
        best = 0.0
        for i in range(2):
            for j in range(3):
                r = np.corrcoef(e[:, i], x[:, j])[0, 1]
                best = max(best, abs(r))
        got = max_abs_correlation(SignalMatrix(e), design(x))
        assert abs(got - best) <= 1e-12

    def test_constant_columns_skipped(self):
        rng = np.random.default_rng(18)
        e = np.hstack([np.full((20, 1), 3.0), rng.standard_normal((20, 1))])
        x = rng.standard_normal((20, 2))
        expected = max(
            abs(np.corrcoef(e[:, 1], x[:, j])[0, 1]) for j in range(2)
        )
        assert abs(max_abs_correlation(SignalMatrix(e), design(x)) - expected) <= 1e-12

    def test_all_constant_side_rejected(self):
        with pytest.raises(DegenerateInputError):
            max_abs_correlation(
                SignalMatrix(np.full((10, 2), 1.5)),
                design(np.random.default_rng(19).standard_normal((10, 2))),
            )

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            max_abs_correlation(SignalMatrix(np.zeros((5, 1))), design(np.ones((6, 1))))


class TestConcatenatedOrthogonalityInvariant:
    def test_residual_orthogonal_to_every_block(self):
        rng = np.random.default_rng(20)
        shared = rng.standard_normal((100, 2))
        blocks = [
            design(
                np.hstack([rng.standard_normal((100, 3)), shared[:, :1]]),
            ),
            design(
                np.hstack([rng.standard_normal((100, 2)), shared[:, 1:]]),
            ),
            design(rng.standard_normal((100, 2))),
        ]
        y = SignalMatrix(rng.standard_normal((100, 5)) + shared @ rng.standard_normal((2, 5)))
        resid = ols_residualize(y, concat_designs(blocks))
        for block in blocks:
            assert max_abs_correlation(resid, block) <= 1e-8
