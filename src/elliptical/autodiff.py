"""Minimal reverse-mode engine over 2-D float64 arrays.

A ``GradTape`` records every derived tensor in creation order, which is a
valid topological order of the computation graph; ``backward`` walks the
tape once in reverse and accumulates adjoints into the leaves it reaches.
Leaves (parameters) live outside any tape, so one set of parameters can be
reused across many per-step tapes.  A tape is confined to a single thread.
Evaluation runs the same ops on a ``GradTape(record=False)``, which keeps no
node, so each intermediate is freed as soon as the caller drops it.
"""

from __future__ import annotations

import numpy as np

from .attention import merge_heads, split_heads, weighted_kernel
from .numerics import ParameterError, ShapeError, softmax_rows

_LN_EPS = 1e-5


class Tensor:
    """A node in the graph: a float64 array plus an adjoint slot."""

    __slots__ = ("value", "grad", "_backward")

    def __init__(self, value: np.ndarray, backward=None):
        self.value = value
        self.grad: np.ndarray | None = None
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def leaf(value) -> Tensor:
    """A trainable leaf; gradients accumulate here across backward passes."""
    return Tensor(np.array(value, dtype=np.float64, order="C"))


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()  # copy: g may be shared with or aliased by other nodes
    else:
        t.grad += g


class GradTape:
    """Records derived tensors; creation order doubles as topological order.

    With ``record=False`` every op returns a bare tensor with no backward
    closure: the values are the same, bit for bit, and
    ``backward`` refuses the tape.
    """

    def __init__(self, record: bool = True):
        self._nodes: list[Tensor] | None = [] if record else None

    def _new(self, value, backward) -> Tensor:
        if self._nodes is None:
            return Tensor(np.asarray(value, dtype=np.float64))
        t = Tensor(np.asarray(value, dtype=np.float64), backward)
        self._nodes.append(t)
        return t

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; ``b`` may be a (1, C) bias row broadcast over rows."""
        bias_row = b.value.shape != a.value.shape
        if bias_row and b.value.shape != (1, a.value.shape[1]):
            raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")

        def bwd(g):
            _acc(a, g)
            _acc(b, g.sum(axis=0, keepdims=True) if bias_row else g)

        return self._new(a.value + b.value, bwd)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        def bwd(g):
            _acc(a, g @ b.value.T)
            _acc(b, a.value.T @ g)

        return self._new(a.value @ b.value, bwd)

    # -- nonlinearities -----------------------------------------------------

    def relu(self, a: Tensor) -> Tensor:
        mask = a.value > 0

        def bwd(g):
            _acc(a, g * mask)

        out = np.maximum(a.value, 0.0)
        out += 0.0  # np.maximum may keep -0.0; np.where(a > 0, a, 0.0) gave +0.0
        return self._new(out, bwd)

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        """Row-wise normalization followed by a learned affine map."""
        n = x.value.shape[1]
        # sum / n is numpy's own mean, bit for bit, without its Python overhead
        xhat = x.value - x.value.sum(axis=1, keepdims=True) / n
        inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) / n + _LN_EPS)
        xhat *= inv

        def bwd(g):
            _acc(gain, (g * xhat).sum(axis=0, keepdims=True))
            _acc(bias, g.sum(axis=0, keepdims=True))
            gh = g * gain.value
            proj = xhat * (gh * xhat).sum(axis=1, keepdims=True)
            proj /= n
            gh -= gh.sum(axis=1, keepdims=True) / n
            gh -= proj
            gh *= inv
            _acc(x, gh)

        out = xhat * gain.value
        out += bias.value
        return self._new(out, bwd)

    # -- indexing -----------------------------------------------------------

    def embedding(self, table: Tensor, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)

        def bwd(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.value)
            np.add.at(table.grad, ids, g)

        return self._new(table.value[ids], bwd)

    def block_causal_attention(
        self,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        m,
        temperature: float,
        batch: int,
        heads: int,
    ) -> Tensor:
        """Fused multi-head causal attention over ``batch`` equal-length sequences.

        Inputs are stacked (batch * t_len, heads * head_dim) in the merged
        layout of ``attention.split_heads``; block b attends only within its
        own rows and each head only within its own columns.  The output has
        the same merged layout.  ``m`` is a constant scale, broadcast against
        the merged queries (per row and column, per column or a scalar)
        before the dot product; no gradient flows into it.  The node keeps
        its own copy of ``m``, so a caller may edit its array afterwards.
        One tape node covers every block and head of a layer: the forward
        pass is one stacked ``weighted_kernel`` call, and the backward pass
        is stacked matrix products over (batch, heads, t_len, head_dim).
        """
        m = np.array(m, dtype=np.float64)
        qm = split_heads(q.value * m, batch, heads)
        kh, vh = split_heads(k.value, batch, heads), split_heads(v.value, batch, heads)
        fwd = weighted_kernel(qm, kh, vh, 1.0, temperature, causal=True)  # qm is pre-scaled
        probs = fwd.attn

        def bwd(g):
            gh = split_heads(g, batch, heads)
            gv = np.matmul(probs.swapaxes(-1, -2), gh)
            gs = np.matmul(gh, vh.swapaxes(-1, -2))  # d(loss)/d(probs), then in place
            gs -= np.sum(gs * probs, axis=-1, keepdims=True)
            gs *= probs
            gs /= temperature
            _acc(q, merge_heads(np.matmul(gs, kh)) * m)
            _acc(k, merge_heads(np.matmul(gs.swapaxes(-1, -2), qm)))
            _acc(v, merge_heads(gv))

        return self._new(merge_heads(fwd.h), bwd)

    # -- losses -------------------------------------------------------------

    def cross_entropy(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Mean negative log-likelihood of ``targets``, one id per logits row, under
        row-wise softmax."""
        targets = np.asarray(targets, dtype=np.int64)
        n = logits.value.shape[0]
        p = softmax_rows(logits.value)
        rows = np.arange(n)
        with np.errstate(divide="ignore"):  # saturated rows surface as inf loss
            nll = -np.mean(np.log(p[rows, targets]))

        def bwd(g):
            gl = p.copy()
            gl[rows, targets] -= 1.0
            _acc(logits, gl * (g[0, 0] / n))

        return self._new(np.array([[nll]]), bwd)


def backward(tape: GradTape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be scalar-valued.  Each recorded node is visited exactly
    once, in reverse creation order.
    """
    if tape._nodes is None:
        raise ParameterError("backward needs a recording tape; this one has record=False")
    if loss.value.size != 1:
        raise ParameterError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.value)
    for node in reversed(tape._nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
