"""Variability estimators against hand values, analytic targets and the
Monte-Carlo Jacobian oracle."""

import numpy as np
import pytest
from scipy import stats

from elliptical.estimators import (
    LayerPair,
    consistency_error_curve,
    estimate_consistent,
    estimate_overlayers,
    noise_drift_slack,
    oracle_variability,
    piecewise_step,
    ranking_catalog,
    separable_sinusoid,
    simulate_layer_pair,
    sparse_sinusoid,
)
from elliptical.numerics import ParameterError, derive_rng, make_rng

from oracles import linear_function


class TestCatalog:
    def test_linear_analytics(self):
        a = np.array([[2.0, -1.0], [0.0, 3.0]])
        f = linear_function(a)
        np.testing.assert_allclose(f.analytic_variability, [2.0, 4.0])

    def test_batch_and_single_evaluation_agree(self):
        f = separable_sinusoid([1.0, 0.5], [1, 2])
        pts = make_rng(0).uniform(-3, 3, (7, 2))
        batch = f(pts)
        singles = np.stack([f(p) for p in pts])
        np.testing.assert_allclose(batch, singles, atol=1e-15)

    def test_dimension_check(self):
        f = linear_function(np.eye(3))
        with pytest.raises(ParameterError, match="expects points of dimension 3"):
            f(np.ones(2))

    def test_piecewise_step_values(self):
        f = piecewise_step((1.0, 0.0), (0.0, 1.0), dim=2)
        np.testing.assert_allclose(f([-0.5, 2.0]), [1.0, 0.0])
        np.testing.assert_allclose(f([0.5, -2.0]), [0.0, 1.0])
        np.testing.assert_allclose(f([0.0, 0.0]), [0.0, 1.0])  # boundary joins high side

    def test_sparse_sinusoid_inactive_dims(self):
        f = sparse_sinusoid(5, [0], [1.0], [2])
        assert f.analytic_variability[0] > 0
        assert np.all(f.analytic_variability[1:] == 0.0)
        pts = make_rng(1).uniform(-3, 3, (10, 5))
        moved = pts.copy()
        moved[:, 1:] += 1.0
        np.testing.assert_allclose(f(pts), f(moved), atol=1e-15)


class TestOverlayersEstimator:
    def test_equal_values_give_zero(self):
        v = make_rng(2).standard_normal((6, 3))
        est = estimate_overlayers(v, v.copy(), delta=0.7)
        assert np.all(est == 0.0)

    def test_hand_case(self):
        est = estimate_overlayers([[1.0, 2.0], [3.0, 4.0]], [[0.0, 2.0], [1.0, 4.0]], 1.0)
        np.testing.assert_allclose(est, [[1.0, 0.0], [1.5, 0.0]])

    def test_delta_scales_inversely(self):
        rng = make_rng(3)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        one = estimate_overlayers(a, b, 1.0)
        two = estimate_overlayers(a, b, 2.0)
        np.testing.assert_allclose(two, one / 2.0, rtol=1e-12)

    def test_shape_and_delta_validation(self):
        with pytest.raises(ParameterError, match="value shapes differ"):
            estimate_overlayers(np.ones((2, 3)), np.ones((3, 2)), 1.0)
        for delta in (0.0, float("nan")):
            with pytest.raises(ParameterError, match="delta"):
                estimate_overlayers(np.ones((2, 3)), np.ones((2, 3)), delta)
        with pytest.raises(ParameterError, match="row"):
            estimate_overlayers(np.ones((0, 3)), np.ones((0, 3)), 1.0)
        # the message names the fault: not rows, not finite
        for bad, fault in ((np.ones(3), "ndim=1"), (np.array([[np.nan, 0.0]]), "finite")):
            with pytest.raises(ParameterError, match=fault):
                estimate_overlayers(bad, np.zeros(bad.shape), 1.0)

    def test_row_t_is_the_estimate_over_rows_up_to_t(self):
        rng = make_rng(19)
        a, b = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        est = estimate_overlayers(a, b, 0.7)
        for t in range(9):
            prefix = estimate_overlayers(a[: t + 1], b[: t + 1], 0.7)
            assert est[t].tobytes() == prefix[-1].tobytes()
            mean = np.mean(np.abs(a[: t + 1] - b[: t + 1]), axis=0) / 0.7
            np.testing.assert_allclose(est[t], mean, rtol=1e-14)

    def test_stack_matches_each_block_bitwise(self):
        # the (batch, heads, t, d) head stacks a metric-weighted layer estimates on
        rng = make_rng(20)
        a, b = rng.standard_normal((2, 3, 7, 4)), rng.standard_normal((2, 3, 7, 4))
        est = estimate_overlayers(a, b, 0.5)
        assert est.shape == a.shape
        for idx in np.ndindex(2, 3):
            assert est[idx].tobytes() == estimate_overlayers(a[idx], b[idx], 0.5).tobytes()

    def test_last_row_is_the_column_mean_bitwise_on_the_bench_draws(self):
        # estimator-bench's 20 default draws (its stream 41, n = 2048, dim 6) at delta = 1:
        # numpy reduces axis 0 of a C-ordered array row by row, as cumsum adds
        f = ranking_catalog()
        for s in range(20):
            pair = simulate_layer_pair(f, 2048, 1.0, 0.01, derive_rng(0, 41, s))
            est = estimate_overlayers(pair.v_curr, pair.v_prev, 1.0)[-1]
            mean = np.mean(np.abs(pair.v_curr - pair.v_prev), axis=0)
            assert est.tobytes() == mean.tobytes(), s


class TestConsistentEstimator:
    def test_constant_function_gives_zero(self):
        f = piecewise_step((1.0,), (1.0,), dim=3)  # both pieces equal: constant
        pts = make_rng(6).uniform(-2, 2, (20, 3))
        est = estimate_consistent(f, pts, t=0.3)
        assert np.all(est == 0.0)

    def test_exact_on_linear_maps(self):
        rng = make_rng(7)
        a = rng.standard_normal((4, 3))
        f = linear_function(a)
        for t in (1e-3, 0.1, 1.0):
            pts = rng.uniform(-3, 3, (11, 3))
            est = estimate_consistent(f, pts, t)
            np.testing.assert_allclose(est, np.abs(a).sum(axis=0), atol=1e-10)

    def test_sine_matches_expected_absolute_cosine(self):
        f = separable_sinusoid([1.0, 0.0], [1, 1])
        pts = make_rng(8).uniform(-np.pi, np.pi, (10_000, 2))
        est = estimate_consistent(f, pts, t=0.01)
        assert est[0] == pytest.approx(2.0 / np.pi, abs=0.02)
        assert est[1] == 0.0

    def test_accepts_fitted_predictors(self):
        # any batch-callable works, not only catalog functions
        def predictor(pts):
            return np.tanh(pts[:, :1])

        pts = make_rng(9).uniform(-1, 1, (50, 2))
        est = estimate_consistent(predictor, pts, t=0.05)
        assert est[0] > 0.5
        assert est[1] == 0.0

    def test_non_finite_predictor_raises(self):
        def bad(pts):
            return np.full((pts.shape[0], 1), np.nan)

        with pytest.raises(ParameterError, match="predictor produced non-finite values"):
            estimate_consistent(bad, np.zeros((3, 2)), t=0.1)

    def test_zero_sample_points_raise(self):
        with pytest.raises(ParameterError, match="sample point"):
            estimate_consistent(linear_function(np.eye(2)), np.zeros((0, 2)), t=0.1)


class TestOracle:
    def test_identity_function(self):
        f = linear_function(np.eye(4))
        est = oracle_variability(f, make_rng(10).uniform(-3, 3, (50, 4)))
        np.testing.assert_allclose(est, np.ones(4), atol=1e-9)

    def test_diagonal_scaling(self):
        f = linear_function(np.diag([2.0, 1.0]))
        est = oracle_variability(f, make_rng(11).uniform(-3, 3, (50, 2)))
        np.testing.assert_allclose(est, [2.0, 1.0], atol=1e-9)

    def test_constant_function_gives_zero(self):
        f = piecewise_step((0.5,), (0.5,), dim=2)
        est = oracle_variability(f, make_rng(12).uniform(-3, 3, (50, 2)))
        np.testing.assert_allclose(est, 0.0, atol=1e-12)

    def test_zero_sample_points_raise(self):
        with pytest.raises(ParameterError, match="Monte-Carlo point"):
            oracle_variability(linear_function(np.eye(2)), np.zeros((0, 2)))


class TestLayerPairProcess:
    def test_shapes_and_determinism(self):
        f = ranking_catalog()
        a = simulate_layer_pair(f, 100, 1.0, 0.01, make_rng(13))
        b = simulate_layer_pair(f, 100, 1.0, 0.01, make_rng(13))
        assert isinstance(a, LayerPair)
        assert a.v_curr.shape == (100, f.out_dim)
        assert np.array_equal(a.v_curr, b.v_curr)

    def test_negative_noise_std_raises(self):
        with pytest.raises(ParameterError, match="noise_std"):
            simulate_layer_pair(ranking_catalog(), 10, 1.0, -1.0, make_rng(13))

    def test_ranking_matches_oracle(self):
        f = ranking_catalog()
        rng = make_rng(14)
        pair = simulate_layer_pair(f, 2048, 1.0, 0.01, rng)
        over = estimate_overlayers(pair.v_curr, pair.v_prev, 1.0)[-1]
        oracle = oracle_variability(f, rng.uniform(-np.pi, np.pi, (200, f.dim)))
        tau = stats.kendalltau(over, oracle).statistic
        assert tau == pytest.approx(1.0)

    def test_noise_drift_bound_holds(self):
        f = ranking_catalog()
        for i, sigma in enumerate((0.01, 0.1)):
            slack = noise_drift_slack(f, sigma, 10_000, make_rng(15 + i))
            assert slack <= 0.0


class TestConsistencyRate:
    def test_error_decays_at_root_n(self):
        f = separable_sinusoid([1.0, 1.0, 0.0], [1, 1, 1], [0.0, np.pi / 2, 0.0])
        sizes, errors = consistency_error_curve(
            f, (100, 1000, 10_000, 100_000), t=0.01, seeds=5, seed=0
        )
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.2)
