"""Weight scaling modes, the weighted distance and its metric axioms, the
per-key sensitivity coefficients, and the perturbation bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptical.attention import weighted_kernel
from elliptical.metric import (
    FLOOR,
    SCALING_MODES,
    compute_kappa,
    robustness_bound,
    scale_rows,
    sq_distances,
)
from elliptical.numerics import ParameterError, ShapeError, derive_rng, make_rng
from elliptical.nwlab import NWDataset, cross_validate_bandwidth, nw_estimate_batch


class TestApplyScaling:
    """Each scaling mode's rule, applied by ``scale_rows`` to one row."""

    def test_maxscale_hand_case(self):
        np.testing.assert_allclose(scale_rows([3.0, 1.5, 0.0], "maxscale"), [1.0, 0.5, FLOOR])

    def test_all_zero_falls_back_to_identity(self):
        for mode in ("maxscale", "meanscale", "unscaled", "identity"):
            m = scale_rows([0.0, 0.0, 0.0], mode)
            assert np.array_equal(m, [1.0, 1.0, 1.0])

    def test_maxscale_scale_invariance(self):
        rng = make_rng(1)
        raw = rng.uniform(0.0, 2.0, 6)
        for c in (0.5, 3.0, 1e4):
            a = scale_rows(raw, "maxscale")
            b = scale_rows(c * raw, "maxscale")
            np.testing.assert_allclose(a, b, rtol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_maxscale_hits_one_exactly(self, seed):
        rng = make_rng(seed)
        raw = rng.uniform(0.0, 5.0, int(rng.integers(1, 9)))
        if not np.any(raw > 0):
            raw[0] = 1.0
        assert scale_rows(raw, "maxscale").max() == 1.0

    def test_meanscale_allows_entries_above_one(self):
        m = scale_rows([4.0, 1.0, 1.0], "meanscale")
        assert m[0] == pytest.approx(2.0)
        assert m.max() > 1.0

    def test_unscaled_only_clamps(self):
        np.testing.assert_allclose(scale_rows([0.5, 0.0, 2.0], "unscaled"), [0.5, FLOOR, 2.0])

    def test_identity_ignores_raw(self):
        assert np.array_equal(scale_rows([5.0, 1.0], "identity"), [1.0, 1.0])

    def test_negative_raw_rejected(self):
        with pytest.raises(ParameterError):
            scale_rows([-0.1, 1.0], "maxscale")
        with pytest.raises(ParameterError):  # in any row of a stack
            scale_rows([[1.0, 1.0], [0.5, -0.1]], "maxscale")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            scale_rows([1.0], "minscale")


class TestScaleRows:
    def test_matches_gather_scatter_form_bitwise(self):
        # the old form: gather the rows with a positive entry, scale, scatter back
        rng = make_rng(7)
        raw = rng.uniform(0.0, 3.0, (40, 6))
        raw[::3] = 0.0
        raw[1, :5] = 0.0
        live = raw.max(axis=1) > 0
        r = raw[live]
        olds = {
            "maxscale": r / r.max(axis=1, keepdims=True),
            "meanscale": r / r.mean(axis=1, keepdims=True),
            "unscaled": r,
        }
        for mode, scaled in olds.items():
            old = np.ones_like(raw)
            old[live] = np.maximum(scaled, FLOOR)
            assert np.array_equal(scale_rows(raw, mode), old), mode

    @pytest.mark.parametrize("mode", SCALING_MODES)
    def test_strided_stack_matches_its_row_order_reshape_bitwise(self, mode):
        # a (heads, batch, t, d) view of a (batch, heads, t, d) array: any (..., d)
        # layout a caller passes scales each row to the bits of a contiguous copy
        raw = make_rng(8).uniform(0.0, 3.0, (3, 2, 5, 16))
        raw[:, :, :2] = 0.0
        raw[1, 0, 3, 1:] = 0.0
        view = raw.swapaxes(0, 1)
        got = scale_rows(view, mode)
        ref = scale_rows(np.ascontiguousarray(view).reshape(-1, 16), mode)
        assert got.shape == view.shape
        assert np.array_equal(got.reshape(-1, 16).view(np.int64), ref.view(np.int64))

    def test_rejects_scalars_and_non_finite_entries(self):
        with pytest.raises(ShapeError):
            scale_rows(np.float64(1.0), "maxscale")
        with pytest.raises(ShapeError):
            scale_rows(np.array([[1.0, np.nan]]), "maxscale")

    @given(st.integers(0, 2**32 - 1), st.sampled_from(SCALING_MODES))
    @settings(max_examples=100, deadline=None)
    def test_every_row_meets_its_mode_postconditions(self, seed, mode):
        # random stacks with zero, floor-hitting and all-zero rows
        rng = make_rng(seed)
        lead = rng.integers(1, 5, int(rng.integers(1, 4)))  # 1 to 3 leading axes
        shape = (*(int(n) for n in lead), int(rng.integers(1, 9)))
        raw = rng.uniform(0.0, 3.0, shape) * (rng.random(shape) < 0.7)
        raw[rng.random(shape[:-1]) < 0.3] = 0.0
        raw.reshape(-1)[rng.random(raw.size) < 0.1] = 1e-9
        m = scale_rows(raw, mode)
        assert m.shape == raw.shape and m.dtype == np.float64
        assert np.all(m >= FLOOR)
        if mode == "identity":
            assert np.all(m == 1.0)
        if mode == "maxscale":
            assert np.all(m.max(axis=-1) == 1.0)
        assert np.all(m[raw.max(axis=-1) == 0.0] == 1.0)  # an all-zero row gets ones


def _dist(x, y, m) -> float:
    """The Mahalanobis distance sqrt((x - y)' diag(m) (x - y)) nw-sparse runs."""
    return float(np.sqrt(sq_distances(x, y, m)))


class TestMahalanobisDistance:
    def test_coincidence(self):
        rng = make_rng(2)
        w = scale_rows(rng.uniform(0.1, 1.0, 5), "maxscale")
        for _ in range(10):
            x = rng.standard_normal(5)
            assert _dist(x, x, w) == 0.0

    def test_identity_weights_give_euclidean(self):
        rng = make_rng(3)
        w = np.ones(4)
        for _ in range(100):
            q, k = rng.standard_normal(4), rng.standard_normal(4)
            assert _dist(q, k, w) == pytest.approx(float(np.linalg.norm(q - k)), abs=1e-12)

    def test_hand_case(self):
        w = np.array([1.0, 0.25])
        d = _dist([1.0, 0.0], [0.0, 1.0], w)
        assert d == pytest.approx(np.sqrt(1.25), abs=1e-12)
        assert d == pytest.approx(1.118034, abs=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, seed):
        rng = make_rng(seed)
        dim = int(rng.integers(1, 7))
        w = scale_rows(rng.uniform(0.0, 1.0, dim), "maxscale")
        x, y, z = (rng.uniform(-5, 5, dim) for _ in range(3))
        dxy = _dist(x, y, w)
        dyx = _dist(y, x, w)
        dxz = _dist(x, z, w)
        dzy = _dist(z, y, w)
        assert dxy >= 0.0
        assert dxy == pytest.approx(dyx, abs=1e-12)
        assert dxy <= dxz + dzy + 1e-9

    def test_metric_axioms_bulk(self):
        rng = make_rng(4)
        w = scale_rows(rng.uniform(0.0, 1.0, 5), "maxscale")
        pts = rng.uniform(-5, 5, (1000, 3, 5))
        for x, y, z in pts:
            dxy = _dist(x, y, w)
            assert dxy == pytest.approx(_dist(y, x, w), abs=1e-12)
            assert dxy <= _dist(x, z, w) + _dist(z, y, w) + 1e-9


class TestSqDistances:
    """``sq_distances`` against the three forms it replaced, written out here."""

    @staticmethod
    def _shapes():
        rng = derive_rng(17, 0, 0)
        shapes = [tuple(int(v) for v in rng.integers(1, 12, 3)) for _ in range(20)]
        return rng, shapes + [(500, 400, 5)]  # the last: an nw-sparse CV fold at n = 500

    def test_query_key_matrix_matches_the_old_form_bitwise(self):
        rng, shapes = self._shapes()
        for n_q, n_k, d in shapes:
            queries, keys = rng.uniform(-3, 3, (n_q, d)), rng.uniform(-3, 3, (n_k, d))
            m = rng.uniform(FLOOR, 1.0, d)
            diff = queries[:, None, :] - keys[None, :, :]
            want = np.einsum("qnd,d->qn", diff * diff, m)
            assert sq_distances(queries[:, None], keys, m).tobytes() == want.tobytes()

    def test_norms_and_one_query_match_the_old_forms_bitwise(self):
        rng, shapes = self._shapes()
        for _, n_k, d in shapes:
            keys, q = rng.uniform(-2, 2, (n_k, d)), rng.uniform(-2, 2, d)
            m = rng.uniform(FLOOR, 1.0, d)
            want_norms = np.einsum("nd,d->n", keys * keys, m)
            assert sq_distances(keys, 0.0, m).tobytes() == want_norms.tobytes()
            diff = q[None, :] - keys
            want = np.einsum("nd,d->n", diff * diff, m)
            assert sq_distances(q, keys, m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 10))  # einsum sums in another order from d = 8
    def test_package_shapes_match_subtract_then_square_bitwise(self, d):
        rng = derive_rng(17, 1, d)
        m = rng.uniform(FLOOR, 1.0, d)
        queries, keys, q = rng.uniform(-3, 3, (30, d)), rng.uniform(-3, 3, (40, d)), rng.uniform(-3, 3, d)
        for x, y in ((queries[:, None], keys), (keys, 0.0), (q, keys)):
            want = np.einsum("...d,d->...", (x - y) ** 2, m)
            assert sq_distances(x, y, m).tobytes() == want.tobytes()

    def test_broadcasts_on_the_last_axis(self):
        x = np.arange(6.0).reshape(2, 1, 3)
        y = np.ones((4, 3))
        assert sq_distances(x, y, np.ones(3)).shape == (2, 4)


class TestComputeKappa:
    def test_hand_case(self):
        kappa = compute_kappa([[1.0, 2.0], [3.0, 4.0]])
        # kappa[input dim, key index]
        assert kappa[0, 0] == pytest.approx(0.25 + 3.0)
        assert kappa[1, 0] == pytest.approx(0.5 + 4.0)
        assert kappa[0, 1] == pytest.approx(0.75 + 1.0)
        assert kappa[1, 1] == pytest.approx(1.0 + 2.0)

    def test_single_key_has_empty_tail_sum(self):
        kappa = compute_kappa([[2.0, -4.0]])
        np.testing.assert_allclose(kappa[:, 0], [0.5, 1.0])

    def test_zero_keys_give_zero(self):
        assert np.all(compute_kappa(np.zeros((3, 4))) == 0.0)

    def test_matches_independent_two_loop_reference_exactly(self):
        rng = make_rng(5)
        keys = rng.uniform(-2, 2, (6, 4))
        stack = rng.uniform(-2, 2, (3, 6, 4))
        stack[1, 2] = 0.0  # one zero key
        stack[2] = 0.0  # an instance of zero keys
        stacked = compute_kappa(stack)
        assert stacked.shape == (3, 4, 6)
        for got, k in ((compute_kappa(keys), keys), *zip(stacked, stack)):
            n, dim = k.shape
            expected = np.empty((dim, n))
            for i in range(dim):
                for j in range(n):
                    acc = abs(k[j, i]) / 4.0
                    for s in range(n):
                        if s != j:
                            acc += abs(k[s, i])
                    expected[i, j] = acc
            assert got.tobytes() == expected.tobytes()  # bit-for-bit

    def test_result_is_c_contiguous(self):
        # robustness_bound sums over its axis 0; a transposed layout would add in another order
        assert compute_kappa(make_rng(4).uniform(-2, 2, (9, 5))).flags["C_CONTIGUOUS"]

    def test_nonnegative(self):
        rng = make_rng(6)
        for _ in range(50):
            keys = rng.uniform(-3, 3, (int(rng.integers(1, 8)), int(rng.integers(1, 6))))
            assert np.all(compute_kappa(keys) >= 0.0)


class TestRobustnessBound:
    def test_zero_values_give_zero_bound(self):
        rng = make_rng(7)
        keys = rng.uniform(-2, 2, (4, 3))
        w = scale_rows(rng.uniform(0, 1, 3), "maxscale")
        assert robustness_bound(keys, np.zeros((4, 2)), w) == 0.0

    def test_monotone_in_weights(self):
        rng = make_rng(8)
        keys = rng.uniform(-2, 2, (5, 4))
        values = rng.uniform(-1, 1, (5, 3))
        m = rng.uniform(0.2, 1.0, 4)
        big, small = m, m * 0.5
        assert robustness_bound(keys, values, small) <= robustness_bound(
            keys, values, big
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            robustness_bound(np.ones((3, 2)), np.ones((4, 2)), np.ones(2))
        with pytest.raises(ShapeError):  # a stack of metrics is not one metric
            robustness_bound(np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 2)))

    def test_empirical_perturbations_stay_below_bound(self):
        # unit-temperature weighted-softmax estimator on a random instance
        rng = make_rng(9)
        keys = rng.uniform(-2, 2, (4, 3))
        values = rng.uniform(-2, 2, (4, 3))
        w = scale_rows(rng.uniform(0, 1, 3), "maxscale")
        bound = robustness_bound(keys, values, w)
        q = rng.uniform(-2, 2, 3)
        base = weighted_kernel(q, keys, values, w, 1.0, causal=False).h
        for _ in range(10_000):
            eps = rng.standard_normal(3)
            eps *= rng.uniform(1e-3, 1.0) / np.linalg.norm(eps)
            moved = weighted_kernel(q + eps, keys, values, w, 1.0, causal=False).h
            assert np.linalg.norm(moved - base) <= bound * np.linalg.norm(eps)


#: weights for which d is no metric: one bad entry beside a good one
BAD_WEIGHTS = {"zero": 0.0, "negative": -1.0, "inf": np.inf, "nan": np.nan}

#: keys (0, 0) and (3, 0) with values 0 and 1, then filler rows so that every
#: cross-validation fold has a sample
_KEYS = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 1.0], [2.0, -1.0], [-1.0, 2.0]])
_VALUES = np.array([[0.0], [1.0], [0.5], [0.2], [0.7]])

WEIGHT_CONSUMERS = {
    "sq_distances": lambda m: sq_distances(_KEYS, 0.0, m),
    "robustness_bound": lambda m: robustness_bound(_KEYS, _VALUES, m),
    "nw_estimate_batch": lambda m: nw_estimate_batch(np.zeros((1, 2)), NWDataset(_KEYS, _VALUES), 0.5, m),
    "cross_validate_bandwidth": lambda m: cross_validate_bandwidth(NWDataset(_KEYS, _VALUES), m),
}


class TestWeightsCheck:
    """Every consumer of weights rejects one that is not finite and > 0."""

    @pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
    @pytest.mark.parametrize("consumer", sorted(WEIGHT_CONSUMERS))
    def test_bad_weight_raises(self, consumer, bad):
        with pytest.raises(ParameterError, match="weights must be finite and positive"):
            WEIGHT_CONSUMERS[consumer](np.array([BAD_WEIGHTS[bad], 1.0]))
