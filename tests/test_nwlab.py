"""Kernel regression: estimator identities, convexity, bandwidth selection
and the fast variants of the statistical experiments."""

import re
import warnings

import numpy as np
import pytest

from elliptical.estimators import (
    estimate_consistent,
    piecewise_step,
    separable_sinusoid,
    sparse_sinusoid,
)
from elliptical.metric import scale_rows, sq_distances
from elliptical.numerics import ParameterError, ShapeError, derive_rng, make_rng, softmax_rows
from elliptical.nwlab import (
    BANDWIDTH_GRID,
    KERNEL_FLUSH,
    MIN_FANOUT_N,
    EdgeConfig,
    NWDataset,
    SparseMSEConfig,
    _kernel_average,
    _row_range,
    cross_validate_bandwidth,
    nw_estimate_batch,
    run_edge_preservation_experiment,
    run_sparse_mse_experiment,
    sample_dataset,
)

from oracles import check_lipschitz_transfer, flushed_kernel_average, kernel_average, linear_function


def _toy_dataset(rng, n=40, dim=2, noise=0.1):
    truth = separable_sinusoid(np.ones(dim), np.ones(dim))
    return sample_dataset(truth, n, noise, rng)


def nw_estimate(query, data, bandwidth, m):
    """One query through the batch estimator."""
    return nw_estimate_batch(np.asarray(query, dtype=float)[None, :], data, bandwidth, m)[0]


class TestNWEstimate:
    def test_single_sample_returns_its_value(self):
        data = NWDataset(np.array([[0.3, -0.4]]), np.array([[5.0, 7.0]]))
        out = nw_estimate([10.0, 10.0], data, bandwidth=0.5, m=np.ones(2))
        np.testing.assert_array_equal(out, [5.0, 7.0])

    def test_equidistant_query_returns_midpoint(self):
        data = NWDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[2.0, 0.0], [4.0, 2.0]]))
        out = nw_estimate([0.0, 0.7], data, 0.8, np.ones(2))
        np.testing.assert_allclose(out, [3.0, 1.0], atol=1e-12)

    def test_three_point_hand_case_matches_direct_summation(self):
        keys = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        values = np.array([[1.0], [2.0], [-1.0]])
        data = NWDataset(keys, values)
        q = np.array([0.25, 0.5])
        got = nw_estimate(q, data, 1.0, np.ones(2))
        weights = np.exp(-np.sum((q - keys) ** 2, axis=1) / 2.0)
        expected = (weights / weights.sum()) @ values
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_output_is_convex_combination(self):
        rng = make_rng(0)
        data = _toy_dataset(rng)
        queries = rng.uniform(-3, 3, (50, 2))
        preds = nw_estimate_batch(queries, data, 0.4, np.ones(2))
        lo = data.values.min(axis=0) - 1e-12
        hi = data.values.max(axis=0) + 1e-12
        assert np.all(preds >= lo) and np.all(preds <= hi)

    def test_matches_attention_softmax_on_unit_norm_keys(self):
        rng = make_rng(1)
        keys = rng.standard_normal((12, 3))
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        values = rng.standard_normal((12, 2))
        data = NWDataset(keys, values)
        sigma2 = 0.9
        q = rng.standard_normal(3)
        kernel_out = nw_estimate(q, data, np.sqrt(sigma2), np.ones(3))
        attn = softmax_rows((q @ keys.T / sigma2)[None, :])
        np.testing.assert_allclose(kernel_out, (attn @ values)[0], atol=1e-9)

    def test_empty_dataset_rejected(self):
        empty = NWDataset(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ParameterError):
            nw_estimate([0.0, 0.0], empty, 0.5, np.ones(2))

    def test_bad_bandwidth_rejected(self):
        data = _toy_dataset(make_rng(2))
        with pytest.raises(ParameterError):
            nw_estimate([0.0, 0.0], data, 0.0, np.ones(2))

    @pytest.mark.parametrize("bandwidth", [-1.0, np.nan, np.inf, 1e-300, 1e200])
    def test_bad_bandwidth_rejected_by_name(self, bandwidth):
        # unchecked, NaN fails as a row with no finite exponent, inf returns the
        # unweighted mean, 1e-300 makes 2 * bandwidth**2 == 0 and 1e200 overflows it
        data = NWDataset(np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([[0.0], [1.0]]))
        with pytest.raises(ParameterError, match=re.escape(f"got {bandwidth!r}")):
            nw_estimate([0.0, 0.0], data, bandwidth, np.ones(2))

    def test_tiny_bandwidth_overflows_to_zero_weight_without_warning(self):
        # 2 * 1e-160**2 is a positive subnormal, so the far key's exponent -9 / 2e-320
        # overflows to -inf: it weighs exactly 0, as any exponent past the flush does
        data = NWDataset(np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([[0.0], [1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nw_estimate([0.0, 0.0], data, 1e-160, np.ones(2)).tolist() == [0.0]

    def test_dimension_mismatch_rejected(self):
        # sq_distances broadcasts, so a (1, dim) query or a (1,) metric would run
        # without this check
        data = _toy_dataset(make_rng(2))
        with pytest.raises(ShapeError):
            nw_estimate([0.0, 0.0, 0.0], data, 0.5, np.ones(3))
        with pytest.raises(ShapeError):
            nw_estimate([0.0, 0.0], data, 0.5, np.ones(1))
        with pytest.raises(ShapeError):  # a stack of metrics is not one metric
            nw_estimate([0.0, 0.0], data, 0.5, np.ones((3, 2)))

    def test_one_row_queries_match_batch(self):
        rng = make_rng(3)
        data = _toy_dataset(rng)
        queries = rng.uniform(-2, 2, (9, 2))
        batch = nw_estimate_batch(queries, data, 0.5, np.ones(2))
        for q, row in zip(queries, batch):
            np.testing.assert_allclose(nw_estimate(q, data, 0.5, np.ones(2)), row,
                                       rtol=1e-13, atol=1e-15)

    def test_consistent_estimator_composes_with_predictor(self):
        rng = make_rng(4)
        data = _toy_dataset(rng, n=100, noise=0.05)
        def pred(points):
            return nw_estimate_batch(points, data, 0.3, np.ones(2))

        est = estimate_consistent(pred, rng.uniform(-2, 2, (64, 2)), t=0.1)
        assert est.shape == (2,)
        assert np.all(est >= 0.0)


class TestKernelFlush:
    """``_kernel_average`` flushes far weights to 0 and otherwise matches the
    unflushed softmax form (``oracles.kernel_average``) bit for bit."""

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_fold_shaped_draws_match_over_the_grid_bitwise(self, dim):
        # one nw-sparse CV fold at n = 500: 100 held-out queries against 400 keys
        rng = derive_rng(21, dim, 0)
        data = sample_dataset(sparse_sinusoid(dim, [0], [1.0], [2]), 500, 0.3, rng)
        queries, train = data.keys[:100], NWDataset(data.keys[100:], data.values[100:])
        flushed = 0
        for m in (np.ones(dim), scale_rows(rng.uniform(0.0, 1.0, dim), "maxscale")):
            neg = -sq_distances(queries[:, None], train.keys, m)
            for bw in BANDWIDTH_GRID:
                got = nw_estimate_batch(queries, train, bw, m)
                assert got.tobytes() == kernel_average(neg, bw, train.values).tobytes()
                z = neg / (2.0 * bw**2)
                flushed += int(np.sum(z - z.max(axis=1, keepdims=True) < KERNEL_FLUSH))
        assert flushed > 0  # the draws reach the flushed range

    def test_hand_built_rows_past_the_flush_match_bitwise(self):
        # bandwidth 0.5 makes 2 * bandwidth**2 == 0.5, so each far exponent sits
        # exactly its offset below the row max of -3
        rng = derive_rng(21, 0, 1)
        far = np.array([-705.0, -710.0, -740.0, -746.0, -800.0])
        rows = [np.concatenate([[0.0], far, rng.uniform(-700.0, 0.0, 10)]) for _ in range(6)]
        offsets = np.stack([rng.permutation(row) for row in rows])
        neg = (offsets - 3.0) * 0.5
        values = rng.standard_normal((offsets.shape[1], 3))
        got = _kernel_average(neg, 0.5, values)
        assert got.tobytes() == kernel_average(neg, 0.5, values).tobytes()

    @pytest.mark.parametrize("dim", [2, 5])
    def test_row_range_pass_matches_the_four_pass_kernel_over_the_grid(self, dim):
        # one CV fold at n = 500, its row range taken once as cross-validation takes it;
        # the small bandwidths flush far weights, the large ones flush none
        rng = derive_rng(21, dim, 2)
        keys = rng.uniform(-np.pi, np.pi, (500, dim))
        values = rng.standard_normal((400, 1))
        neg = -sq_distances(keys[:100, None], keys[100:], np.ones(dim))
        row_range = _row_range(neg)
        flushing = []
        for bw in BANDWIDTH_GRID:
            got = _kernel_average(neg, bw, values, row_range)
            assert got.tobytes() == flushed_kernel_average(neg, bw, values).tobytes()
            z = neg / (2.0 * bw**2)
            flushing.append(bool(np.any(z - z.max(axis=1, keepdims=True) < KERNEL_FLUSH)))
        assert any(flushing) and not all(flushing)

    @pytest.mark.parametrize("far", [False, True])
    def test_rows_with_and_without_far_weights_match_the_four_pass_kernel(self, far):
        # bandwidth 0.5 makes each exponent its offset below the row max; one far entry
        # in one row sends the whole matrix through the flush
        rng = derive_rng(21, 0, 3)
        offsets = np.concatenate([np.zeros((6, 1)), rng.uniform(-699.0, 0.0, (6, 15))], axis=1)
        if far:
            offsets[4, 7] = -720.0
        neg = (offsets - 3.0) * 0.5
        values = rng.standard_normal((16, 2))
        got = _kernel_average(neg, 0.5, values)
        assert got.tobytes() == flushed_kernel_average(neg, 0.5, values).tobytes()

    def test_flushed_weight_is_exactly_zero(self):
        # the far key holds the only nonzero value, so the prediction is its weight
        values = np.array([[0.0], [1.0]])
        live = np.array([[0.0, KERNEL_FLUSH * 0.5]])
        dead = np.array([[0.0, (KERNEL_FLUSH - 10.0) * 0.5]])
        assert _kernel_average(live, 0.5, values)[0, 0] > 0.0
        assert _kernel_average(dead, 0.5, values)[0, 0] == 0.0
        assert kernel_average(dead, 0.5, values)[0, 0] > 0.0  # unflushed: exp(-710)

    def test_query_whose_every_distance_overflows_rejected(self):
        data = NWDataset(np.array([[1e155], [2e155]]), np.array([[0.0], [1.0]]))
        with np.errstate(over="ignore"), pytest.raises(ParameterError):
            nw_estimate_batch(np.array([[-1e155]]), data, 0.5, np.ones(1))


class TestBandwidthSelection:
    def test_picks_reasonable_bandwidth_for_smooth_truth(self):
        rng = make_rng(5)
        truth = separable_sinusoid([1.0], [1])
        data = sample_dataset(truth, 200, 0.1, rng)
        bw = cross_validate_bandwidth(data, np.ones(1))
        assert 0.05 <= bw <= 2.0
        # far-too-small and far-too-large bandwidths must lose to the pick
        assert bw not in (0.05, 2.0)

    def test_one_distance_matrix_per_fold(self, monkeypatch):
        # the distances do not depend on the bandwidth: one matrix per fold,
        # not one per (bandwidth, fold) pair
        from elliptical import nwlab

        calls = []
        dists = nwlab.sq_distances
        monkeypatch.setattr(nwlab, "sq_distances", lambda *a: calls.append(1) or dists(*a))
        cross_validate_bandwidth(_toy_dataset(make_rng(6), n=60), np.ones(2))
        assert len(calls) == nwlab.CV_FOLDS

    def test_more_data_at_fixed_bandwidth_does_not_hurt(self):
        truth = sparse_sinusoid(2, [0], [1.0], [1])
        w = np.ones(2)
        bandwidth = 0.4
        small, big = [], []
        for s in range(8):
            rng_s = make_rng(100 + s)
            d_small = sample_dataset(truth, 100, 0.2, rng_s)
            d_big = sample_dataset(truth, 400, 0.2, rng_s)
            q = rng_s.uniform(-np.pi, np.pi, (200, 2))
            target = truth(q)
            small.append(np.mean((nw_estimate_batch(q, d_small, bandwidth, w) - target) ** 2))
            big.append(np.mean((nw_estimate_batch(q, d_big, bandwidth, w) - target) ** 2))
        small, big = np.asarray(small), np.asarray(big)
        pooled = np.hypot(small.std(ddof=1), big.std(ddof=1)) / np.sqrt(len(small))
        assert big.mean() <= small.mean() + 2.0 * pooled


class TestSparseExperiment:
    def test_constant_truth_zero_noise_gives_zero_mse(self):
        truth = piecewise_step((0.7,), (0.7,), dim=3)
        cfg = SparseMSEConfig(
            truth=truth, n=60, n_queries=40, noise_std=0.0, seeds=5,
            weights_source="consistent",
        )
        res = run_sparse_mse_experiment(cfg)
        assert res.euclidean.mse == pytest.approx(0.0, abs=1e-20)
        assert res.elliptical.mse == pytest.approx(0.0, abs=1e-20)

    def test_sparse_truth_small_config_direction(self):
        truth = sparse_sinusoid(4, [0], [1.0], [2])
        cfg = SparseMSEConfig(truth=truth, n=250, n_queries=200, seeds=6, seed=1)
        res = run_sparse_mse_experiment(cfg, jobs=2)
        assert res.elliptical.mse < res.euclidean.mse
        assert res.p_value_less < 0.05

    def test_thread_fanout_does_not_change_results(self):
        truth = sparse_sinusoid(3, [0], [1.0], [1])
        cfg = SparseMSEConfig(truth=truth, n=120, n_queries=60, seeds=5, seed=3)
        serial = run_sparse_mse_experiment(cfg, jobs=1)
        fanned = run_sparse_mse_experiment(cfg, jobs=3)
        np.testing.assert_array_equal(
            serial.per_seed_euclidean, fanned.per_seed_euclidean
        )
        np.testing.assert_array_equal(
            serial.per_seed_elliptical, fanned.per_seed_elliptical
        )


class TestEdgeExperiment:
    def test_pure_neighborhoods_recover_piece_distance(self, monkeypatch):
        from elliptical import nwlab

        monkeypatch.setattr(nwlab, "BANDWIDTH_GRID", (0.05,))
        cfg = EdgeConfig(n=200, noise_std=0.0, seeds=5, query_offset=0.6, est_points=500)
        res = run_edge_preservation_experiment(cfg)
        assert res.piece_distance == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert res.euclidean_mean == pytest.approx(res.piece_distance, abs=1e-6)
        assert res.elliptical_mean == pytest.approx(res.piece_distance, abs=1e-6)

    def test_small_config_direction(self):
        cfg = EdgeConfig(n=150, seeds=6, seed=2, est_points=800)
        res = run_edge_preservation_experiment(cfg)
        assert res.elliptical_mean >= res.euclidean_mean

    def test_weight_swap_swaps_outcomes(self):
        # plumbing sanity: the per-seed helper is symmetric in its weights
        from elliptical.nwlab import _edge_distance

        rng = make_rng(6)
        truth = piecewise_step((1.0, 0.0), (0.0, 1.0), dim=2)
        data = sample_dataset(truth, 100, 0.2, rng, -1.0, 1.0)
        w_a = np.ones(2)
        w_b = scale_rows([1.0, 0.01], "maxscale")
        q1, q2 = np.array([-0.3, 0.0]), np.array([0.3, 0.0])
        d_ab = (
            _edge_distance(data, w_a, 0.2, q1, q2),
            _edge_distance(data, w_b, 0.2, q1, q2),
        )
        d_ba = (
            _edge_distance(data, w_b, 0.2, q1, q2),
            _edge_distance(data, w_a, 0.2, q1, q2),
        )
        assert d_ab == (d_ba[1], d_ba[0])


def _record_workers(monkeypatch, cpus):
    """Give the process ``cpus`` CPUs; the list returned collects the ``workers`` of each
    ``ordered_map`` call the lab makes."""
    from elliptical import nwlab

    seen, real = [], nwlab.ordered_map
    monkeypatch.setattr(nwlab.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(nwlab, "ordered_map",
                        lambda fn, items, workers: seen.append(workers) or real(fn, items, workers))
    return seen


def _sparse_at(n, **kw):
    cfg = SparseMSEConfig(truth=sparse_sinusoid(2, [0], [1.0], [1]), n=n, n_queries=10,
                          seeds=5, seed=5)
    res = run_sparse_mse_experiment(cfg, **kw)
    return res.per_seed_euclidean, res.per_seed_elliptical


def _edge_at(n):
    res = run_edge_preservation_experiment(EdgeConfig(n=n, seeds=2, seed=1, est_points=50))
    return res.per_seed_euclidean, res.per_seed_elliptical


#: each experiment at a given n, and its seeds
_FANNED = {"sparse": (_sparse_at, 5), "edge": (_edge_at, 2)}


class TestSeedFanout:
    """Each seed's two kernel fits are two jobs, run on one thread per CPU, at most one
    per fit, once n reaches MIN_FANOUT_N, and on the caller's thread below it; no count
    moves a bit."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("experiment", sorted(_FANNED))
    def test_workers_follow_n(self, monkeypatch, experiment, cpus):
        run, seeds = _FANNED[experiment]
        seen = _record_workers(monkeypatch, cpus)
        run(MIN_FANOUT_N - 1)
        run(MIN_FANOUT_N)
        assert seen == [1, min(cpus, 2 * seeds)]

    def test_explicit_jobs_wins(self, monkeypatch):
        seen = _record_workers(monkeypatch, 3)
        _sparse_at(MIN_FANOUT_N, jobs=1)
        _sparse_at(MIN_FANOUT_N - 1, jobs=2)
        assert seen == [1, 2]

    @pytest.mark.parametrize("experiment", sorted(_FANNED))
    def test_cpu_count_moves_no_bit(self, monkeypatch, experiment):
        run, _ = _FANNED[experiment]
        per_cpus = []
        for cpus in (1, 2, 3):
            _record_workers(monkeypatch, cpus)
            per_cpus.append(run(MIN_FANOUT_N))
        for euc, ell in per_cpus[1:]:
            assert (euc == per_cpus[0][0]).all() and (ell == per_cpus[0][1]).all()


class TestLipschitzTransfer:
    def test_linear_function_never_violates(self):
        rng = make_rng(7)
        a = rng.standard_normal((3, 4))
        f = linear_function(a)
        w = scale_rows(rng.uniform(0.1, 1.0, 4), "maxscale")
        # G_i = ||A column i||_2
        assert check_lipschitz_transfer(f, np.linalg.norm(a, axis=0), w, 5000, rng) <= 0.0

    def test_sine_function_never_violates(self):
        rng = make_rng(8)
        f = separable_sinusoid([1.0, 0.0], [1, 1])
        w = scale_rows([1.0, 0.3], "maxscale")
        # G_i = |a_i w_i|
        assert check_lipschitz_transfer(f, [1.0, 0.0], w, 10_000, rng) <= 0.0

    def test_coincident_pairs_are_benign(self):
        f = linear_function(np.eye(2))

        class _ZeroRng:
            def uniform(self, lo, hi, shape):
                return np.zeros(shape)

        assert check_lipschitz_transfer(f, np.ones(2), np.ones(2), 10, _ZeroRng()) <= 0.0
