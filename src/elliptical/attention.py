"""Attention kernels over dense matrices: the one metric-weighted kernel that
the model's causal attention node runs, the head layout it runs on, and the
analytic Jacobian of its unit-temperature attention.

The kernel scales the queries by the relevance weights before the dot
product, so weights of ones reproduce plain scaled dot-product attention bit
for bit.  The per-position weights themselves come from ``model._metric_rows``.
The kernel also runs on stacks; ``split_heads``/``merge_heads`` alone know the
model's merged-head layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, as_matrix, softmax_rows


@dataclass(frozen=True)
class AttentionOutput:
    h: np.ndarray
    attn: np.ndarray
    logits: np.ndarray  # causal logits carry no -inf; attn is exactly 0 above the diagonal


def causal_mask(n: int) -> np.ndarray:
    """Boolean (n, n) softmax ``where``: query i sees keys j <= i; logits get no -inf."""
    return np.tri(n, dtype=bool)


def split_heads(a: np.ndarray, batch: int, heads: int) -> np.ndarray:
    """(batch * t_len, heads * head_dim) -> a (batch, heads, t_len, head_dim) copy,
    never a view, even with one head.  Head h of the merged layout is columns
    [h * head_dim, (h + 1) * head_dim); block b is rows [b * t_len, (b + 1) * t_len)."""
    rows, width = a.shape
    if rows % batch != 0 or width % heads != 0:
        raise ShapeError("stacked rows and columns must divide into blocks and heads")
    return a.reshape(batch, rows // batch, heads, width // heads).transpose(0, 2, 1, 3).copy()


def merge_heads(a: np.ndarray) -> np.ndarray:
    """(batch, heads, t_len, head_dim) -> (batch * t_len, heads * head_dim)."""
    batch, heads, t_len, dh = a.shape
    return a.swapaxes(1, 2).reshape(batch * t_len, heads * dh)


def weighted_kernel(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    m: np.ndarray,
    temperature: float,
    causal: bool,
) -> AttentionOutput:
    """softmax((q * m) @ k' / temperature) @ v on (t_len, d) matrices or on (..., t_len, d)
    stacks whose leading axes broadcast; ``m`` broadcasts against ``q``.  A causal call
    passes ``causal_mask`` to the softmax as ``where``, so its logits carry no -inf."""
    logits = np.matmul(q * m, k.swapaxes(-1, -2))
    logits /= temperature
    keep = causal_mask(logits.shape[-1]) if causal else None
    attn = softmax_rows(logits, where=keep)
    return AttentionOutput(h=np.matmul(attn, v), attn=attn, logits=logits)


def attention_jacobian(q: np.ndarray, keys: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Analytic query Jacobian of ``weighted_kernel``'s unit-temperature attention of
    one query row over ``keys``: ``q`` (..., dim), ``keys`` (..., n_keys, dim) and ``m``
    (..., dim) broadcast on their leading axes, giving (..., n_keys, dim).

    Entry (j, i) is m_i * (k_j^i - sum_s k_s^i p_s) * p_j, which is linear in
    m_i and bounded in magnitude by the per-key sensitivity coefficient
    kappa[i, j] times m_i.
    """
    # with the keys as values, the kernel's output row is the p-weighted key average
    out = weighted_kernel(q[..., None, :], keys, keys, m[..., None, :], 1.0, causal=False)
    return out.attn[..., 0, :, None] * (keys - out.h) * m[..., None, :]


def minmax_scale_rows(matrix) -> np.ndarray:
    """Scale each row to [0, 1] for heatmap export; constant rows map to 0."""
    m = as_matrix(matrix)
    lo = m.min(axis=1, keepdims=True)
    span = m.max(axis=1, keepdims=True) - lo
    out = np.zeros_like(m)
    np.divide(m - lo, span, out=out, where=span > 0)
    return out
