"""Attention kernels over dense matrices: the plain scaled dot-product form,
the metric-weighted softmax operator with its analytic Jacobian, and the
full metric-weighted attention that derives its weights from the change in
value vectors between consecutive layers.

All variants share one kernel in which the query matrix is scaled by the
relevance weights before the dot product, so forcing the weights to ones
reproduces the plain form bit for bit.  The kernel also runs on stacks;
``split_heads``/``merge_heads`` alone know the model's merged-head layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import estimate_overlayers
from .metric import EllipticalWeights, apply_scaling
from .numerics import ParameterError, ShapeError, as_matrix, as_vector, softmax_rows


@dataclass(frozen=True)
class AttentionConfig:
    """Shared knobs for the attention kernels."""

    head_dim: int
    weights: EllipticalWeights

    def __post_init__(self):
        if self.weights.dim != self.head_dim:
            raise ShapeError(
                f"weights have dim {self.weights.dim}, head_dim is {self.head_dim}"
            )

    @property
    def temperature(self) -> float:
        """sqrt(head_dim); it stays there even when the metric rescales the logits."""
        return float(np.sqrt(self.head_dim))


@dataclass(frozen=True)
class AttentionOutput:
    h: np.ndarray
    attn: np.ndarray
    logits: np.ndarray


def causal_mask(n: int) -> np.ndarray:
    """Additive mask: 0 on and below the diagonal, -inf strictly above."""
    return np.triu(np.full((n, n), -np.inf), k=1)


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
    """softmax((q * m) @ k' / temperature) @ v on (t_len, d) matrices or on
    (..., t_len, d) stacks whose leading axes broadcast; ``m`` broadcasts against ``q``."""
    logits = np.matmul(q * m, k.swapaxes(-1, -2)) / temperature
    if causal:
        logits += causal_mask(q.shape[-2])
    attn = softmax_rows(logits.reshape(-1, logits.shape[-1])).reshape(logits.shape)
    return AttentionOutput(h=np.matmul(attn, v), attn=attn, logits=logits)


def _check_qkv(q, k, v, cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q = as_matrix(q)
    k = as_matrix(k)
    v = as_matrix(v)
    if not q.shape[1] == k.shape[1] == cfg.head_dim:
        raise ShapeError(
            f"query dim {q.shape[1]}, key dim {k.shape[1]} and head_dim {cfg.head_dim} differ"
        )
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"{k.shape[0]} keys vs {v.shape[0]} values")
    return q, k, v


def standard_attention(q, k, v, cfg: AttentionConfig) -> AttentionOutput:
    """Plain scaled dot-product attention; requires identity weights."""
    q, k, v = _check_qkv(q, k, v, cfg)
    if not np.all(cfg.weights.m == 1.0):
        raise ParameterError("standard attention requires identity weights")
    return weighted_kernel(q, k, v, np.ones(cfg.head_dim), cfg.temperature, causal=False)


def masa(q, keys, w: EllipticalWeights) -> np.ndarray:
    """Metric-weighted softmax over keys at unit temperature.

    Component j is exp(q' M k_j) normalized over all keys.
    """
    q = as_vector(q)
    keys = as_matrix(keys)
    if keys.shape[1] != q.size or q.size != w.dim:
        raise ShapeError(
            f"dimension mismatch: q={q.size}, keys={keys.shape}, m={w.dim}"
        )
    logits = keys @ (w.m * q)
    return softmax_rows(logits[None, :])[0]


def masa_jacobian(q, keys, w: EllipticalWeights) -> np.ndarray:
    """Analytic Jacobian of the metric-weighted softmax, shape (n_keys, dim).

    Entry (j, i) is m_i * (k_j^i - sum_s k_s^i p_s) * p_j, which is linear in
    m_i and bounded in magnitude by the per-key sensitivity coefficient
    kappa[i, j] times m_i.
    """
    p = masa(q, keys, w)
    keys = as_matrix(keys)
    centered = keys - p @ keys  # (n, dim) minus the p-weighted key average
    return p[:, None] * centered * w.m[None, :]


def elliptical_attention(
    q,
    k,
    v,
    v_prev,
    cfg: AttentionConfig,
    delta: float,
    rng: np.random.Generator | None = None,
) -> AttentionOutput:
    """Non-causal single-layer attention with a metric estimated from values.

    One (dim,) metric comes from the layer-difference estimator over all
    rows of (v, v_prev); ``cfg.weights`` contributes only its scaling mode
    and floor, and the metric carries no gradient.  Causal models estimate
    one metric row per position, from its prefix, in ``model.forward``.
    """
    q, k, v = _check_qkv(q, k, v, cfg)
    v_prev = as_matrix(v_prev)
    if v_prev.shape != v.shape:
        raise ShapeError(f"v_prev shape {v_prev.shape} != v shape {v.shape}")
    mode, floor = cfg.weights.mode, cfg.weights.floor
    if mode == "identity":
        m = np.ones(cfg.head_dim)
    else:
        raw = estimate_overlayers(v, v_prev, delta).raw
        m = apply_scaling(raw, mode, floor, rng).m
    return weighted_kernel(q, k, v, m, cfg.temperature, causal=False)


def minmax_scale_rows(matrix) -> np.ndarray:
    """Scale each row to [0, 1] for heatmap export; constant rows map to 0."""
    m = as_matrix(matrix)
    lo = m.min(axis=1, keepdims=True)
    span = m.max(axis=1, keepdims=True) - lo
    out = np.zeros_like(m)
    np.divide(m - lo, span, out=out, where=span > 0)
    return out
