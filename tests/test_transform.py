"""Power transform and its stationary-threshold analysis.

Point values are frozen from a 50-digit mpmath evaluation of the same
formulas (see helpers.py); property tests draw random distributions with
hypothesis and check the claims the transform is supposed to satisfy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gradtamper.transform import (
    MONOTONE_TOL,
    MonotonicityReport,
    TamperSpec,
    _threshold_rows,
    power_transform_rows,
    prob_vec,
    stationary_threshold,
    threshold_monotonicity_check,
    threshold_partition,
    transform_probabilities,
)
from helpers import threshold_mp, transform_mp

P3 = np.array([0.7, 0.2, 0.1])

# mpmath (dps=50) evaluations of the transform of P3, frozen.
ORACLE_T = {
    0.25: [0.4262758844611128797223, 0.3116547518833729584508, 0.2620693636555141618268],
    0.5: [0.52287938300786969088, 0.27949078654617094793, 0.19762983044595936119],
    0.75: [0.6160810517426474905129, 0.2407613769901080542411, 0.143157571267244455246],
}
ORACLE_TAU = {
    0.25: 0.3613169527798581352176,
    0.5: 0.39057549882098643509,
    0.75: 0.4200077335821875991674,
}


def simplexes(min_c=2, max_c=64):
    """Strategy: lists of positive weights, normalised to a distribution."""
    return (
        st.lists(st.floats(1e-6, 1e3, allow_nan=False), min_size=min_c, max_size=max_c)
        .map(lambda w: np.array(w) / np.sum(w))
    )


class TestTransformValues:
    def test_frozen_oracle_points(self):
        for alpha, expected in ORACLE_T.items():
            assert_allclose(transform_probabilities(P3, alpha), expected, rtol=0, atol=5e-16)

    def test_matches_mpmath_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(c))
            for alpha in (0.05, 0.3, 0.7, 0.95):
                assert_allclose(
                    transform_probabilities(p, alpha), transform_mp(p, alpha), rtol=0, atol=1e-14
                )

    def test_alpha_one_is_identity_bitwise(self):
        p = np.random.default_rng(0).dirichlet(np.ones(7))
        out = transform_probabilities(p, 1.0)
        assert_array_equal(out, p)
        assert out is not p  # a copy, not an alias

    def test_alpha_zero_is_exactly_uniform(self):
        out = transform_probabilities(P3, 0.0)
        assert_array_equal(out, np.full(3, 1.0 / 3.0))

    def test_zero_entries_stay_zero(self):
        p = np.array([0.5, 0.5, 0.0])
        out = transform_probabilities(p, 0.5)
        assert out[2] == 0.0
        assert_allclose(out.sum(), 1.0, rtol=0, atol=1e-15)

    def test_rows_kernel_matches_single_vector(self):
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(6), size=8)
        batched = power_transform_rows(rows, 0.4)
        for i in range(8):
            assert_array_equal(batched[i], transform_probabilities(rows[i], 0.4))


class TestKernelExpressions:
    """The kernels compute in place; each must equal its allocating reference
    expression bit for bit, exact zeros included, and leave its input alone."""

    def batch_with_zeros(self):
        p = np.random.default_rng(23).dirichlet(np.ones(12), size=40)
        p[::3, ::4] = 0.0
        return p / p.sum(axis=1, keepdims=True)

    def test_power_transform_rows_with_zeros(self):
        p = self.batch_with_zeros()
        before = p.copy()
        for alpha in (0.01, 0.5):
            former = np.zeros_like(p)
            pos = p > 0.0
            former[pos] = np.exp(alpha * np.log(p[pos]))
            former = former / former.sum(axis=-1, keepdims=True)
            got = power_transform_rows(p, alpha)
            assert_array_equal(got, former)
            assert np.all(got[::3, ::4] == 0.0)
        assert_array_equal(p, before)

    def test_threshold_rows(self):
        p = self.batch_with_zeros()
        alphas = np.arange(100) / 100.0
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        former = np.empty((p.shape[0], alphas.size))
        for j, alpha in enumerate(alphas):
            if alpha == 0.0:
                former[:, j] = 1.0 / 12
            else:
                totals = np.exp(alpha * logp).sum(axis=1)
                former[:, j] = np.exp(np.log(totals) / (alpha - 1.0))
        np.clip(former, 1.0 / 12, 1.0, out=former)
        assert_array_equal(_threshold_rows(p, alphas), former)


class TestTransformProperties:
    @given(simplexes(), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_normalisation_and_range(self, p, alpha):
        out = transform_probabilities(p, alpha)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)

    @given(simplexes(), st.floats(0.01, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_order_never_inverts(self, p, alpha):
        # alpha > 0: x -> x^alpha is strictly increasing.  In floats a strict
        # inequality may collapse to a tie (entries one ulp apart quantise to
        # the same output), but every step of the computation is a monotone
        # map under round-to-nearest, so an actual inversion is a bug.
        out = transform_probabilities(p, alpha)
        assert np.all(np.diff(out[np.argsort(p, kind="stable")]) >= 0.0)

    def test_order_argsort_exact_on_generic_vectors(self):
        # Away from ties the stable argsort must match exactly.
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 40))))
            for alpha in (0.05, 0.5, 1.0):
                out = transform_probabilities(p, alpha)
                assert_array_equal(
                    np.argsort(out, kind="stable"), np.argsort(p, kind="stable")
                )

    @given(simplexes(), st.floats(0.0, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_movement_agrees_with_threshold(self, p, alpha):
        # Entries clearly above tau must fall, clearly below must rise.  A
        # dead band of 1e-13 around tau (and 1e-15 around zero movement)
        # absorbs roundoff for entries sitting essentially on the threshold.
        out = transform_probabilities(p, alpha)
        tau = stationary_threshold(p, alpha)
        move = out - p
        above = p - tau > 1e-13
        below = p - tau < -1e-13
        assert not np.any(above & (move > 1e-15))
        assert not np.any(below & (move < -1e-15))


class TestThreshold:
    def test_frozen_oracle_points(self):
        for alpha, expected in ORACLE_TAU.items():
            assert_allclose(stationary_threshold(P3, alpha), expected, rtol=0, atol=5e-16)

    def test_matches_mpmath_on_random_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 20))))
            for alpha in (0.1, 0.45, 0.9):
                assert_allclose(
                    stationary_threshold(p, alpha), threshold_mp(p, alpha), rtol=1e-14
                )

    def test_alpha_zero_gives_reciprocal_class_count(self):
        assert stationary_threshold(P3, 0.0) == 1.0 / 3.0
        assert stationary_threshold(np.full(10, 0.1), 0.0) == 0.1

    def test_uniform_distribution_threshold_is_its_entry(self):
        # For uniform p every entry is a fixed point, so tau = 1/C.
        u = np.full(10, 0.1)
        for alpha in (0.2, 0.37, 0.8):
            assert_allclose(stationary_threshold(u, alpha), 0.1, rtol=0, atol=1e-15)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="stationary"):
            stationary_threshold(P3, 1.0)

    @given(simplexes(), st.floats(0.0, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, p, alpha):
        tau = stationary_threshold(p, alpha)
        assert 1.0 / p.size <= tau <= 1.0

    def test_partition_on_known_vector(self):
        rising, falling = threshold_partition(P3, 0.5)
        assert rising == {1, 2}
        assert falling == {0}

    def test_partition_includes_threshold_in_rising(self):
        # An entry exactly at tau is stationary; the partition files it with
        # the non-falling side.
        u = np.full(4, 0.25)
        rising, falling = threshold_partition(u, 0.5)
        assert rising == {0, 1, 2, 3}
        assert falling == set()


class TestMonotonicity:
    def test_threshold_nondecreasing_fine_grid(self):
        grid = np.arange(1, 100) / 100.0
        report = threshold_monotonicity_check(P3, grid)
        assert isinstance(report, MonotonicityReport)
        assert report.passed
        assert report.min_successive_diff >= MONOTONE_TOL
        assert report.thresholds.shape == grid.shape

    def test_report_values_match_scalar_function(self):
        grid = np.array([0.1, 0.3, 0.6, 0.9])
        report = threshold_monotonicity_check(P3, grid)
        expected = [stationary_threshold(P3, a) for a in grid]
        assert_allclose(report.thresholds, expected, rtol=0, atol=1e-15)

    def test_random_vectors_pass(self):
        rng = np.random.default_rng(3)
        grid = np.arange(1, 50) / 50.0
        for _ in range(50):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 30))))
            assert threshold_monotonicity_check(p, grid).passed

    def test_batch_matches_per_row_calls(self):
        rng = np.random.default_rng(4)
        rows = rng.dirichlet(np.ones(7), size=30)
        grid = np.arange(100) / 100.0
        report = threshold_monotonicity_check(rows, grid)
        assert report.thresholds.shape == (30, grid.size)
        singles = [threshold_monotonicity_check(row, grid) for row in rows]
        for i, single in enumerate(singles):
            assert_array_equal(report.thresholds[i], single.thresholds)
            assert report.thresholds[i, 37] == stationary_threshold(rows[i], 0.37)
        assert report.min_successive_diff == min(r.min_successive_diff for r in singles)
        assert report.passed

    def test_batch_validation(self):
        grid = np.array([0.2, 0.5])
        with pytest.raises(ValueError, match="sums to"):
            threshold_monotonicity_check(np.array([[0.5, 0.5], [0.6, 0.5]]), grid)
        with pytest.raises(ValueError):
            threshold_monotonicity_check(np.empty((0, 3)), grid)
        with pytest.raises(ValueError):
            threshold_monotonicity_check(np.full((2, 2, 2), 0.5), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            threshold_monotonicity_check(P3, np.array([]))
        with pytest.raises(ValueError):
            threshold_monotonicity_check(P3, np.array([0.3, 0.2]))  # not increasing
        with pytest.raises(ValueError):
            threshold_monotonicity_check(P3, np.array([0.5, 1.0]))  # 1.0 excluded

    @pytest.mark.parametrize("grid", [[False], ["0.1", "0.5"]], ids=["bool", "str"])
    def test_grid_of_a_wrong_type_rejected(self, grid):
        with pytest.raises(ValueError, match="alpha grid must lie in"):
            threshold_monotonicity_check(P3, grid)

    @pytest.mark.parametrize("grid", [[0.1, np.nan], [np.nan, 0.5]], ids=["last", "first"])
    def test_grid_holding_a_nan_rejected(self, grid):
        with pytest.raises(ValueError, match="alpha grid contains NaN"):
            threshold_monotonicity_check(P3, np.array(grid))


class TestValidation:
    def test_prob_vec_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prob_vec(np.array([0.5, 0.6]))  # sums to 1.1
        with pytest.raises(ValueError):
            prob_vec(np.array([1.2, -0.2]))  # negative entry
        with pytest.raises(ValueError):
            prob_vec(np.array([1.0]))  # needs at least two classes
        with pytest.raises(ValueError):
            prob_vec(np.array([[0.5, 0.5]]))  # not 1-D
        with pytest.raises(ValueError):
            prob_vec(np.array([np.nan, 1.0]))

    def test_alpha_out_of_range_rejected(self):
        for alpha in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                transform_probabilities(P3, alpha)

    def test_tamper_spec_validation(self):
        spec = TamperSpec(0.5, start_epoch=3)
        assert spec.alpha == 0.5 and spec.start_epoch == 3
        with pytest.raises(ValueError):
            TamperSpec(1.5)
        with pytest.raises(ValueError):
            TamperSpec(0.5, start_epoch=-1)
        for start in (True, 1.0):
            with pytest.raises(ValueError):
                TamperSpec(0.5, start_epoch=start)
        assert TamperSpec(0.5, np.int64(2)).start_epoch == 2  # a numpy integer is a count
