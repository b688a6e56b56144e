"""Reverse-mode engine: every primitive's backward pass is checked against
the central-difference oracle, plus the hand cases for simple losses."""

import numpy as np
import pytest

from elliptical.autodiff import _LN_EPS, GradTape, backward, leaf
from elliptical.numerics import ParameterError, make_rng

from oracles import finite_diff_jacobian
from tape_ops import mul, sum_all

VJP_RTOL = 1e-4


class TestHandCases:
    def test_sum_gradient_is_ones(self):
        tape = GradTape()
        x = leaf(make_rng(0).standard_normal((3, 4)))
        loss = sum_all(tape, x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        tape = GradTape()
        x = leaf(np.array([[1.0, 2.0]]))
        loss = sum_all(tape, mul(tape, x, x))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]], atol=1e-14)

    def test_softmax_cross_entropy_matches_fd(self):
        rng = make_rng(1)
        logits0 = rng.standard_normal((1, 5))
        target = np.array([2])

        tape = GradTape()
        x = leaf(logits0)
        loss = tape.cross_entropy(x, target)
        backward(tape, loss)

        def f(v):
            t = GradTape()
            return t.cross_entropy(leaf(v.reshape(1, 5)), target).value.reshape(-1)

        fd = finite_diff_jacobian(f, logits0.reshape(-1)).reshape(1, 5)
        np.testing.assert_allclose(x.grad, fd, atol=1e-5)

    def test_backward_requires_scalar(self):
        tape = GradTape()
        x = leaf(np.ones((2, 2)))
        y = tape.relu(x)
        with pytest.raises(ParameterError):
            backward(tape, y)


def _fd_check(op_builder, shapes, seed, rtol=VJP_RTOL):
    """Generic leaf-gradient check: scalarize via sum, compare against FD."""
    rng = make_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]

    def run(values):
        tape = GradTape()
        leaves = [leaf(v) for v in values]
        out = op_builder(tape, *leaves)
        loss = sum_all(tape, out)
        return tape, leaves, loss

    tape, leaves, loss = run(arrays)
    backward(tape, loss)

    for i, base in enumerate(arrays):
        def scalar(flat, i=i, base=base):
            vals = [a.copy() for a in arrays]
            vals[i] = flat.reshape(base.shape)
            _, _, l = run(vals)
            return l.value.reshape(-1)

        fd = finite_diff_jacobian(scalar, base.reshape(-1)).reshape(base.shape)
        got = leaves[i].grad if leaves[i].grad is not None else np.zeros_like(base)
        np.testing.assert_allclose(got, fd, rtol=rtol, atol=1e-7)


class TestPrimitiveGradients:
    def test_add(self):
        _fd_check(lambda t, a, b: t.add(a, b), [(3, 4), (3, 4)], seed=10)

    def test_add_bias_row(self):
        _fd_check(lambda t, a, b: t.add(a, b), [(3, 4), (1, 4)], seed=11)

    def test_mul(self):
        _fd_check(mul, [(2, 5), (2, 5)], seed=12)

    def test_matmul(self):
        _fd_check(lambda t, a, b: t.matmul(a, b), [(3, 4), (4, 2)], seed=13)

    def test_relu(self):
        _fd_check(lambda t, a: t.relu(a), [(4, 4)], seed=15)

    def test_layer_norm(self):
        _fd_check(
            lambda t, x, g, b: t.layer_norm(x, g, b),
            [(4, 6), (1, 6), (1, 6)],
            seed=21,
        )

    def test_block_causal_attention(self):
        rng = make_rng(30)
        batch, t_len, dim = 2, 5, 3
        rows = batch * t_len
        temp = 1.7
        for heads in (1, 2):
            m = rng.uniform(0.2, 1.0, (rows, heads * dim))

            def build(t, q, k, v, m=m, heads=heads):
                return t.block_causal_attention(q, k, v, m, temp, batch, heads)

            _fd_check(build, [(rows, heads * dim)] * 3, seed=31 + heads)

    def test_block_causal_attention_matches_composed_ops(self):
        """Per (block, head) reference: values from the single-head kernel,
        gradients from the closed-form VJP of softmax attention,
        out = P v with P = softmax((q * m) k' / T + mask):
        dv = P' g, dS = P * (g v' - rowsum(P * g v')) / T,
        dq = (dS k) * m, dk = dS' (q * m)."""
        from elliptical.attention import weighted_kernel

        rng = make_rng(32)
        batch, t_len, dim, temp = 3, 4, 2, 1.3
        rows = batch * t_len
        for heads, m in (
            (1, rng.uniform(0.5, 1.0, dim)),
            (2, rng.uniform(0.5, 1.0, (rows, 2 * dim))),
        ):
            width = heads * dim
            q0, k0, v0, g0 = (rng.standard_normal((rows, width)) for _ in range(4))
            m_rows = np.broadcast_to(m, (rows, width))

            tape = GradTape()
            q, k, v = leaf(q0), leaf(k0), leaf(v0)
            fused = tape.block_causal_attention(q, k, v, m, temp, batch, heads)
            backward(tape, sum_all(tape, mul(tape, fused, leaf(g0))))
            for b in range(batch):
                for h in range(heads):
                    cell = (slice(b * t_len, (b + 1) * t_len), slice(h * dim, (h + 1) * dim))
                    qh, kh, vh, mh, g = (a[cell] for a in (q0, k0, v0, m_rows, g0))
                    ref = weighted_kernel(qh, kh, vh, mh, temp, causal=True)
                    p = ref.attn
                    gp = g @ vh.T
                    gs = p * (gp - np.sum(gp * p, axis=1, keepdims=True)) / temp
                    np.testing.assert_allclose(fused.value[cell], ref.h, atol=1e-14)
                    np.testing.assert_allclose(q.grad[cell], (gs @ kh) * mh, atol=1e-14)
                    np.testing.assert_allclose(k.grad[cell], gs.T @ (qh * mh), atol=1e-14)
                    np.testing.assert_allclose(v.grad[cell], p.T @ g, atol=1e-14)

    def test_block_causal_attention_keeps_its_own_metric(self):
        rng = make_rng(33)
        q0, k0, v0 = (rng.standard_normal((6, 4)) for _ in range(3))
        m = rng.uniform(0.5, 1.0, (6, 4))

        def grad_q(edit):
            tape = GradTape()
            q, k, v = leaf(q0), leaf(k0), leaf(v0)
            metric = m.copy()
            out = tape.block_causal_attention(q, k, v, metric, 1.5, 2, 2)
            if edit:
                metric *= 3.0
            backward(tape, sum_all(tape, mul(tape, out, out)))
            return q.grad

        assert np.array_equal(grad_q(False), grad_q(True))

    def test_embedding(self):
        ids = np.array([0, 2, 2, 1])

        def run(values):
            tape = GradTape()
            table = leaf(values)
            out = tape.embedding(table, ids)
            return tape, table, sum_all(tape, mul(tape, out, out))

        base = make_rng(23).standard_normal((3, 4))
        tape, table, loss = run(base)
        backward(tape, loss)

        def scalar(flat):
            _, _, l = run(flat.reshape(3, 4))
            return l.value.reshape(-1)

        fd = finite_diff_jacobian(scalar, base.reshape(-1)).reshape(3, 4)
        np.testing.assert_allclose(table.grad, fd, rtol=VJP_RTOL, atol=1e-7)


class TestKernelPins:
    """Each op's fast form against the expression it replaced, bit for bit."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    def test_relu_matches_where_form_on_zeros_subnormals_and_negatives(self):
        sub = np.finfo(np.float64).smallest_subnormal
        edge = [-0.0, 0.0, sub, -sub, 7 * sub, -7 * sub, np.finfo(np.float64).tiny,
                -1.0, 2.5, -1e308, 1e308]
        a = np.concatenate([edge, make_rng(41).standard_normal(53)]).reshape(8, 8)
        out = GradTape().relu(leaf(a)).value
        assert np.array_equal(self._bits(out), self._bits(np.where(a > 0, a, 0.0)))

    def test_layer_norm_matches_mean_form_bitwise(self):
        rng = make_rng(42)
        for rows, n in ((512, 32), (64, 48), (30, 7)):
            x = 3.0 * rng.standard_normal((rows, n)) + 1.5
            gain, bias = rng.standard_normal((1, n)), rng.standard_normal((1, n))
            g = rng.standard_normal((rows, n))
            # the old forward and backward expressions
            xc = x - x.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + _LN_EPS)
            xhat = xc * inv
            gh = g * gain
            old = {
                "out": xhat * gain + bias,
                "x": inv * (gh - gh.mean(axis=1, keepdims=True)
                            - xhat * (gh * xhat).sum(axis=1, keepdims=True) / n),
                "gain": (g * xhat).sum(axis=0, keepdims=True),
                "bias": g.sum(axis=0, keepdims=True),
            }
            tape = GradTape()
            leaves = {"x": leaf(x), "gain": leaf(gain), "bias": leaf(bias)}
            out = tape.layer_norm(leaves["x"], leaves["gain"], leaves["bias"])
            # d(sum(out * g))/d(out) is 1.0 * g, which is g exactly
            backward(tape, sum_all(tape, mul(tape, out, leaf(g))))
            assert np.array_equal(self._bits(out.value), self._bits(old["out"]))
            for name, t in leaves.items():
                assert np.array_equal(self._bits(t.grad), self._bits(old[name])), name


class TestTapeMechanics:
    def test_gradients_accumulate_across_reuse(self):
        tape = GradTape()
        x = leaf(np.array([[2.0]]))
        y = tape.add(x, x)  # dy/dx = 2
        loss = sum_all(tape, y)
        backward(tape, loss)
        assert x.grad[0, 0] == 2.0

    def test_unused_branches_get_no_gradient(self):
        tape = GradTape()
        x = leaf(np.ones((2, 2)))
        y = leaf(np.ones((2, 2)))
        _ = tape.relu(y)  # dead branch
        loss = sum_all(tape, tape.relu(x))
        backward(tape, loss)
        assert y.grad is None

    def test_each_node_visited_once(self):
        # shared subexpression: z = x * x; loss = sum(z + z) -> dx = 4x
        tape = GradTape()
        x = leaf(np.array([[3.0]]))
        z = mul(tape, x, x)
        loss = sum_all(tape, tape.add(z, z))
        backward(tape, loss)
        assert x.grad[0, 0] == pytest.approx(12.0)

    def test_backward_refuses_a_tape_that_does_not_record(self):
        tape = GradTape(record=False)
        x = leaf(np.array([[3.0]]))
        y = tape.matmul(x, x)
        assert y.value[0, 0] == 9.0 and y._parents == () and y._backward is None
        with pytest.raises(ParameterError, match="record=False"):
            backward(tape, y)
        assert x.grad is None
