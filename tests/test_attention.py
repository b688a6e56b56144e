"""Attention kernels: hand cases, stochasticity, the analytic Jacobian with
its sensitivity envelope, kernel-weight equivalence, masking and symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptical.attention import (
    AttentionConfig,
    causal_mask,
    elliptical_attention,
    masa,
    masa_jacobian,
    merge_heads,
    minmax_scale_rows,
    split_heads,
    standard_attention,
    weighted_kernel,
)
from elliptical.metric import (
    EllipticalWeights,
    apply_scaling,
    compute_kappa,
    identity_weights,
)
from elliptical.numerics import (
    ParameterError,
    ShapeError,
    finite_diff_jacobian,
    make_rng,
    softmax_rows,
)


def _random_instance(rng, n_max=8, d_max=6):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    keys = rng.uniform(-2, 2, (n, d))
    q = rng.uniform(-2, 2, d)
    w = apply_scaling(rng.uniform(0, 1, d), "maxscale")
    return q, keys, w


class TestStandardAttention:
    def test_single_key_returns_its_value(self):
        rng = make_rng(0)
        cfg = AttentionConfig(head_dim=3, weights=identity_weights(3))
        v = rng.standard_normal((1, 4))
        out = standard_attention(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)), v, cfg)
        np.testing.assert_array_equal(out.h, v)

    def test_identical_keys_average_values(self):
        rng = make_rng(1)
        cfg = AttentionConfig(head_dim=2, weights=identity_weights(2))
        k = np.tile(rng.standard_normal((1, 2)), (5, 1))
        v = rng.standard_normal((5, 3))
        out = standard_attention(rng.standard_normal((2, 2)), k, v, cfg)
        np.testing.assert_allclose(out.h, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_hand_case(self):
        cfg = AttentionConfig(head_dim=2, weights=identity_weights(2))
        out = standard_attention(
            [[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], cfg
        )
        logit = 1.0 / np.sqrt(2.0)
        p1 = np.exp(logit) / (np.exp(logit) + 1.0)
        np.testing.assert_allclose(out.attn, [[p1, 1.0 - p1]], atol=1e-12)
        np.testing.assert_allclose(out.h, [[p1, 1.0 - p1]], atol=1e-12)
        np.testing.assert_allclose(out.attn, [[0.6698, 0.3302]], atol=1e-3)

    def test_requires_identity_weights(self):
        cfg = AttentionConfig(
            head_dim=2, weights=EllipticalWeights(np.array([1.0, 0.5]), "unscaled")
        )
        with pytest.raises(ParameterError):
            standard_attention(np.ones((1, 2)), np.ones((2, 2)), np.ones((2, 2)), cfg)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions(self, seed):
        rng = make_rng(seed)
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        cfg = AttentionConfig(head_dim=d, weights=identity_weights(d))
        out = standard_attention(
            rng.standard_normal((n, d)), rng.standard_normal((n, d)),
            rng.standard_normal((n, d)), cfg,
        )
        np.testing.assert_allclose(out.attn.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((out.attn >= 0.0) & (out.attn <= 1.0))

    def test_permuting_keys_permutes_columns_and_preserves_output(self):
        rng = make_rng(2)
        cfg = AttentionConfig(head_dim=4, weights=identity_weights(4))
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        perm = make_rng(3).permutation(5)
        base = standard_attention(q, k, v, cfg)
        shuffled = standard_attention(q, k[perm], v[perm], cfg)
        np.testing.assert_allclose(shuffled.attn, base.attn[:, perm], atol=1e-12)
        np.testing.assert_allclose(shuffled.h, base.h, atol=1e-12)


class TestCausalMasking:
    # the masked kernel that diagnose runs on each head of a causal model
    def test_strictly_upper_triangle_is_zero(self):
        rng = make_rng(4)
        n = 6
        q, k, v = (rng.standard_normal((n, 3)) for _ in range(3))
        out = weighted_kernel(q, k, v, np.ones(3), float(np.sqrt(3.0)), causal=True)
        for i in range(n):
            assert np.all(out.attn[i, i + 1 :] == 0.0)
            assert out.attn[i, : i + 1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_prefix_rows_unchanged_by_extension(self):
        rng = make_rng(5)
        q = rng.standard_normal((7, 3))
        k = rng.standard_normal((7, 3))
        v = rng.standard_normal((7, 3))
        m = np.array([1.0, 0.5, 0.25])
        short = weighted_kernel(q[:4], k[:4], v[:4], m, float(np.sqrt(3.0)), causal=True)
        full = weighted_kernel(q, k, v, m, float(np.sqrt(3.0)), causal=True)
        np.testing.assert_allclose(full.attn[:4, :4], short.attn, atol=1e-12)
        np.testing.assert_allclose(full.h[:4], short.h, atol=1e-12)

    def test_mask_values(self):
        m = causal_mask(3)
        assert np.all(np.tril(m) == 0.0)
        assert np.all(np.isneginf(m[np.triu_indices(3, k=1)]))


class TestStackedKernel:
    """The fused training op and diagnose call the kernel on (block, head)
    stacks; each slice must be the 2-D call on that slice, bit for bit."""

    @pytest.mark.parametrize("causal", [True, False])
    def test_each_block_and_head_matches_the_matrix_call(self, causal):
        rng = make_rng(40)
        batch, heads, t_len, dim, temp = 3, 2, 7, 4, 1.9
        q, k, v = (rng.standard_normal((batch, heads, t_len, dim)) for _ in range(3))
        for m in (rng.uniform(0.2, 1.0, (batch, heads, t_len, dim)), 1.0):
            out = weighted_kernel(q, k, v, m, temp, causal=causal)
            for b in range(batch):
                for h in range(heads):
                    mh = m if np.isscalar(m) else m[b, h]
                    ref = weighted_kernel(q[b, h], k[b, h], v[b, h], mh, temp, causal=causal)
                    for name in ("logits", "attn", "h"):
                        got = getattr(out, name)[b, h]
                        assert got.tobytes() == getattr(ref, name).tobytes(), (b, h, name)


class TestHeadLayout:
    def test_split_then_merge_is_identity(self):
        a = make_rng(42).standard_normal((3 * 5, 2 * 4))
        heads = split_heads(a, 3, 2)
        assert heads.shape == (3, 2, 5, 4)
        assert np.array_equal(heads[1, 1], a[5:10, 4:8])
        assert merge_heads(heads).tobytes() == a.tobytes()

    def test_split_always_copies(self):
        for heads in (1, 2):  # one head: the transpose alone would be a view
            a = np.zeros((6, 4))
            split = split_heads(a, 2, heads)
            assert split.flags.c_contiguous and not np.shares_memory(split, a)

    def test_indivisible_shapes_rejected(self):
        with pytest.raises(ShapeError):
            split_heads(np.zeros((5, 4)), 2, 2)
        with pytest.raises(ShapeError):
            split_heads(np.zeros((6, 5)), 2, 2)


class TestMasa:
    def test_zero_query_is_uniform(self):
        rng = make_rng(6)
        keys = rng.standard_normal((5, 3))
        w = apply_scaling(rng.uniform(0, 1, 3), "maxscale")
        np.testing.assert_allclose(masa(np.zeros(3), keys, w), 0.2, atol=1e-12)

    def test_hand_case(self):
        w = identity_weights(2)
        p = masa([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], w)
        np.testing.assert_allclose(p, softmax_rows(np.array([[1.0, 0.0]]))[0], atol=1e-15)
        np.testing.assert_allclose(p, [0.73106, 0.26894], atol=1e-5)

    def test_output_is_distribution(self):
        rng = make_rng(7)
        for _ in range(100):
            q, keys, w = _random_instance(rng)
            p = masa(q, keys, w)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all((p > 0.0) & (p < 1.0))


class TestMasaJacobian:
    def test_identical_keys_zero_jacobian(self):
        w = identity_weights(3)
        keys = np.tile([[0.3, -1.0, 2.0]], (4, 1))
        jac = masa_jacobian(np.array([0.1, 0.2, 0.3]), keys, w)
        np.testing.assert_allclose(jac, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = make_rng(8)
        for _ in range(100):
            q, keys, w = _random_instance(rng)
            jac = masa_jacobian(q, keys, w)
            fd = finite_diff_jacobian(lambda x: masa(x, keys, w), q)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9)

    def test_zero_weight_zeroes_the_column(self):
        rng = make_rng(9)
        keys = rng.uniform(-2, 2, (4, 3))
        q = rng.uniform(-2, 2, 3)
        floor = 1e-6
        w = EllipticalWeights(np.array([1.0, floor, 0.5]), "unscaled", floor=floor)
        jac = masa_jacobian(q, keys, w)
        assert np.max(np.abs(jac[:, 1])) <= floor * np.max(np.abs(compute_kappa(keys)))

    def test_column_is_linear_in_weight(self):
        # halving one weight halves that column of the Jacobian, holding the
        # softmax probabilities fixed in the closed form
        rng = make_rng(10)
        q, keys, w = _random_instance(rng)
        p = masa(q, keys, w)
        centered = keys - p @ keys
        col_full = p[:, None] * centered * w.m[None, :]
        half = w.m.copy()
        half[0] *= 0.5
        col_half = p[:, None] * centered * half[None, :]
        np.testing.assert_allclose(col_half[:, 0], 0.5 * col_full[:, 0], rtol=1e-15)
        np.testing.assert_allclose(col_half[:, 1:], col_full[:, 1:], rtol=1e-15)

    def test_sensitivity_envelope_holds(self):
        rng = make_rng(11)
        for _ in range(1000):
            q, keys, w = _random_instance(rng)
            jac = masa_jacobian(q, keys, w)
            envelope = compute_kappa(keys).T * w.m[None, :]
            assert np.all(np.abs(jac) <= envelope)


class TestEllipticalAttention:
    def _cfg(self, d, mode="maxscale"):
        return AttentionConfig(
            head_dim=d, weights=apply_scaling(np.ones(d), mode, rng=make_rng(0))
        )

    def test_equal_value_layers_reduce_to_standard(self):
        rng = make_rng(12)
        q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
        out = elliptical_attention(q, k, v, v.copy(), self._cfg(3), delta=1.0)
        std = standard_attention(q, k, v, AttentionConfig(3, identity_weights(3)))
        assert out.logits.tobytes() == std.logits.tobytes()
        assert out.h.tobytes() == std.h.tobytes()

    def test_identity_mode_is_bitwise_standard(self):
        rng = make_rng(13)
        q, k, v, v_prev = (rng.standard_normal((6, 4)) for _ in range(4))
        out = elliptical_attention(q, k, v, v_prev, self._cfg(4, "identity"), delta=1.0)
        std = standard_attention(q, k, v, AttentionConfig(4, identity_weights(4)))
        assert out.logits.tobytes() == std.logits.tobytes()
        assert out.attn.tobytes() == std.attn.tobytes()
        assert out.h.tobytes() == std.h.tobytes()

    def test_matches_bruteforce_summation(self):
        # direct per-query loop over exp(q' M k / sqrt(D)) weighted values
        q = np.array([[0.4, -0.2], [1.0, 0.3]])
        k = np.array([[0.1, 0.9], [-0.5, 0.2]])
        v = np.array([[1.0, 2.0], [3.0, -1.0]])
        m = np.array([1.0, 0.5])
        w = EllipticalWeights(m, "unscaled")
        cfg = AttentionConfig(head_dim=2, weights=w)
        out = weighted_kernel(q, k, v, m, float(np.sqrt(2.0)), causal=False)
        for i in range(2):
            scores = np.array(
                [np.exp(sum(q[i, t] * m[t] * k[j, t] for t in range(2)) / np.sqrt(2.0))
                 for j in range(2)]
            )
            weights = scores / scores.sum()
            expected = weights @ v
            np.testing.assert_allclose(out.h[i], expected, atol=1e-12)
        assert cfg.temperature == pytest.approx(np.sqrt(2.0))

    def test_head_dim_must_match_query_width(self):
        # a 1-wide config on 4-wide q/k/v would run at temperature 1, not 2
        q, k, v = (make_rng(14).standard_normal((3, 4)) for _ in range(3))
        cfg = AttentionConfig(head_dim=1, weights=identity_weights(1))
        with pytest.raises(ShapeError, match="head_dim"):
            standard_attention(q, k, v, cfg)
        with pytest.raises(ShapeError, match="head_dim"):
            elliptical_attention(q, k, v, v.copy(), cfg, delta=1.0)

    def test_shape_contracts(self):
        cfg = self._cfg(3)
        with pytest.raises(ShapeError):
            elliptical_attention(
                np.ones((2, 3)), np.ones((4, 3)), np.ones((4, 3)), np.ones((3, 3)),
                cfg, delta=1.0,
            )
        with pytest.raises(ParameterError):
            elliptical_attention(
                np.ones((2, 3)), np.ones((4, 3)), np.ones((4, 3)), np.ones((4, 3)),
                cfg, delta=0.0,
            )


class TestRowStochasticityBulk:
    def test_thousand_random_instances_both_kernels(self):
        rng = make_rng(40)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 6))
            q = rng.uniform(-3, 3, (n, d))
            k = rng.uniform(-3, 3, (n, d))
            v = rng.uniform(-3, 3, (n, d))
            v_prev = rng.uniform(-3, 3, (n, d))
            cfg_std = AttentionConfig(head_dim=d, weights=identity_weights(d))
            cfg_ell = AttentionConfig(
                head_dim=d, weights=apply_scaling(np.ones(d), "maxscale")
            )
            for out in (
                standard_attention(q, k, v, cfg_std),
                elliptical_attention(q, k, v, v_prev, cfg_ell, delta=1.0),
            ):
                sums = out.attn.sum(axis=1)
                assert np.all(np.abs(sums - 1.0) <= 1e-9)
                assert np.all((out.attn >= 0.0) & (out.attn <= 1.0))


class TestKernelEquivalence:
    def test_weighted_scores_match_gaussian_kernel_on_unit_norm_keys(self):
        rng = make_rng(15)
        for _ in range(200):
            q, keys, w = _random_instance(rng)
            mnorm = np.sqrt(np.einsum("nd,d->n", keys * keys, w.m))
            keys = keys / mnorm[:, None]
            p = masa(q, keys, w)
            diff = q[None, :] - keys
            d2 = np.einsum("nd,d->n", diff * diff, w.m)
            gauss = np.exp(-(d2 - d2.min()) / 2.0)
            gauss /= gauss.sum()
            np.testing.assert_allclose(p, gauss, atol=1e-9)


class TestHeatmapScaling:
    def test_rows_span_unit_interval(self):
        rng = make_rng(16)
        m = rng.standard_normal((5, 7))
        scaled = minmax_scale_rows(m)
        np.testing.assert_allclose(scaled.min(axis=1), 0.0, atol=1e-15)
        np.testing.assert_allclose(scaled.max(axis=1), 1.0, atol=1e-15)

    def test_constant_rows_map_to_zero(self):
        scaled = minmax_scale_rows(np.full((2, 4), 3.3))
        assert np.all(scaled == 0.0)
