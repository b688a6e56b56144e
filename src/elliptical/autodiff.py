"""Minimal reverse-mode engine over 2-D float64 arrays.

A ``GradTape`` records every derived tensor in creation order, which is a
valid topological order of the computation graph; ``backward`` walks the
tape once in reverse and accumulates adjoints into the leaves it reaches.
Leaves (parameters) live outside any tape, so one set of parameters can be
reused across many per-step tapes.  A tape is confined to a single thread.
"""

from __future__ import annotations

import numpy as np

from .attention import merge_heads, split_heads, weighted_kernel
from .numerics import ParameterError, ShapeError, softmax_rows

_LN_EPS = 1e-5


class Tensor:
    """A node in the graph: a float64 array plus an adjoint slot."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value: np.ndarray, parents=(), backward=None):
        self.value = value
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self._backward is None and not self._parents else "node"
        return f"Tensor({self.value.shape}, {kind})"


def leaf(value) -> Tensor:
    """A trainable leaf; gradients accumulate here across backward passes."""
    return Tensor(np.array(value, dtype=np.float64, order="C"))


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()  # copy: g may be shared with or aliased by other nodes
    else:
        t.grad += g


class GradTape:
    """Records derived tensors; creation order doubles as topological order."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    def _new(self, value, parents, backward) -> Tensor:
        t = Tensor(np.asarray(value, dtype=np.float64), parents, backward)
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

        return self._new(a.value + b.value, (a, b), bwd)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul: {a.value.shape} vs {b.value.shape}")

        def bwd(g):
            _acc(a, g * b.value)
            _acc(b, g * a.value)

        return self._new(a.value * b.value, (a, b), bwd)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")

        def bwd(g):
            _acc(a, g @ b.value.T)
            _acc(b, a.value.T @ g)

        return self._new(a.value @ b.value, (a, b), bwd)

    # -- nonlinearities -----------------------------------------------------

    def relu(self, a: Tensor) -> Tensor:
        mask = a.value > 0

        def bwd(g):
            _acc(a, g * mask)

        return self._new(np.where(mask, a.value, 0.0), (a,), bwd)

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        """Row-wise normalization followed by a learned affine map."""
        n = x.value.shape[1]
        mu = x.value.mean(axis=1, keepdims=True)
        xc = x.value - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + _LN_EPS)
        xhat = xc * inv

        def bwd(g):
            _acc(gain, (g * xhat).sum(axis=0, keepdims=True))
            _acc(bias, g.sum(axis=0, keepdims=True))
            gh = g * gain.value
            _acc(
                x,
                inv
                * (
                    gh
                    - gh.mean(axis=1, keepdims=True)
                    - xhat * (gh * xhat).sum(axis=1, keepdims=True) / n
                ),
            )

        return self._new(xhat * gain.value + bias.value, (x, gain, bias), bwd)

    # -- indexing -----------------------------------------------------------

    def embedding(self, table: Tensor, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)

        def bwd(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.value)
            np.add.at(table.grad, ids, g)

        return self._new(table.value[ids], (table,), bwd)

    def block_causal_attention(
        self,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        m,
        temperature: float,
        batch: int,
        heads: int = 1,
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
            gp = np.matmul(gh, vh.swapaxes(-1, -2))
            gs = probs * (gp - np.sum(gp * probs, axis=-1, keepdims=True))
            gs /= temperature
            _acc(q, merge_heads(np.matmul(gs, kh)) * m)
            _acc(k, merge_heads(np.matmul(gs.swapaxes(-1, -2), qm)))
            _acc(v, merge_heads(gv))

        return self._new(merge_heads(fwd.h), (q, k, v), bwd)

    # -- reductions and losses ----------------------------------------------

    def sum_all(self, a: Tensor) -> Tensor:
        def bwd(g):
            _acc(a, np.full_like(a.value, g[0, 0]))

        return self._new(np.array([[a.value.sum()]]), (a,), bwd)

    def cross_entropy(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Mean negative log-likelihood of ``targets`` under row-wise softmax."""
        targets = np.asarray(targets, dtype=np.int64)
        n = logits.value.shape[0]
        if targets.shape != (n,):
            raise ShapeError("cross_entropy: one target id per logits row")
        p = softmax_rows(logits.value)
        rows = np.arange(n)
        with np.errstate(divide="ignore"):  # saturated rows surface as inf loss
            nll = -np.mean(np.log(p[rows, targets]))

        def bwd(g):
            gl = p.copy()
            gl[rows, targets] -= 1.0
            _acc(logits, gl * (g[0, 0] / n))

        return self._new(np.array([[nll]]), (logits,), bwd)


def backward(tape: GradTape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be scalar-valued.  Each recorded node is visited exactly
    once, in reverse creation order.
    """
    if loss.value.size != 1:
        raise ParameterError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.value)
    for node in reversed(tape._nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
