"""Diagonal Mahalanobis machinery: relevance-weight scaling modes, the
distance they induce, per-key sensitivity coefficients, and the resulting
worst-case perturbation bound for the weighted-softmax estimator.
"""

from __future__ import annotations

import numpy as np

from .numerics import ParameterError, ShapeError, as_matrices, as_matrix

SCALING_MODES = ("maxscale", "meanscale", "unscaled", "identity")

#: Clamp applied to every relevance weight so the induced quadratic form
#: stays positive-definite and the distance is a true metric.
FLOOR = 1e-6


def scale_rows(raw, mode: str) -> np.ndarray:
    """Turn raw nonnegative variability estimates into relevance weights m,
    scaling every row (last axis) of a (..., dim) array on its own.  A row m
    defines d(q, k) = sqrt((q - k)' diag(m) (q - k)).

    maxscale divides by the row maximum (the most variable direction gets
    weight exactly 1), meanscale by the row mean (entries above 1 are kept),
    unscaled only clamps to FLOOR.  identity ignores ``raw`` and gives ones.
    An all-zero row gets ones in every mode, so a degenerate estimate never
    gives a degenerate kernel.  Every weight is >= FLOOR.
    """
    if mode not in SCALING_MODES:
        raise ParameterError(f"unknown scaling mode {mode!r}")
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 0 or not np.isfinite(raw).all():
        raise ShapeError("raw estimates must be finite rows along the last axis")
    if raw.min(initial=0.0) < 0:
        raise ParameterError("raw variability estimates must be nonnegative")
    m = np.ones_like(raw)
    top = raw.max(axis=-1, keepdims=True, initial=0.0)
    live = top > 0  # (..., 1): a row with any positive entry
    if mode == "identity" or not live.any():
        return m
    # dead rows are never written, so they keep their ones
    if mode == "maxscale":
        np.divide(raw, top, out=m, where=live)
    elif mode == "meanscale":
        np.divide(raw, raw.mean(axis=-1, keepdims=True), out=m, where=live)
    else:  # unscaled
        np.copyto(m, raw, where=live)
    return np.maximum(m, FLOOR, out=m)


def check_weights(m: np.ndarray) -> None:
    """Raise ``ParameterError`` unless every weight in ``m`` is finite and > 0,
    as d must be a metric; a NaN fails the first comparison."""
    if not (m.min() > 0 and m.max() < np.inf):
        raise ParameterError("weights must be finite and positive")


def sq_distances(x, y, m: np.ndarray) -> np.ndarray:
    """(x - y)' diag(m) (x - y) along the last axis, with x and y broadcast
    against each other: the one weighted squared distance of the package."""
    check_weights(m)
    # one C-ordered buffer: subtract and square run on whole rows, not d-element broadcast
    # lanes, and einsum (whose summation order follows the layout) sees the same squares
    diff = np.empty(np.broadcast(x, y).shape)
    diff[...] = x
    diff -= y
    diff *= diff
    return np.einsum("...d,d->...", diff, m)


def compute_kappa(keys) -> np.ndarray:
    """Sensitivity coefficients kappa[i, j] = |k_j^i| / 4 + sum_{s != j} |k_s^i|.

    Indexed by input dimension i and key index j, these bound how fast the
    weighted softmax can move in direction i, per unit weight m_i.  ``keys``
    is one (n, dim) matrix, giving (dim, n), or a (..., n, dim) stack, giving
    (..., dim, n).  Each entry accumulates in the formula's left-to-right
    order, so a straightforward two-loop reference reproduces it exactly.
    """
    a = np.ascontiguousarray(np.abs(as_matrices(keys)).swapaxes(-1, -2))  # column s: |k_s|
    kappa = a / 4.0  # C order, as callers' reductions over it expect
    others = ~np.eye(a.shape[-1], dtype=bool)  # row s: every key but s
    for s in range(a.shape[-1]):
        np.add(kappa, a[..., s : s + 1], out=kappa, where=others[s])
    return kappa


def robustness_bound(keys, values, m: np.ndarray) -> float:
    """Worst-case output change per unit query perturbation.

    Returns sum_j sqrt(tr(K_j^2 M^2)) * ||v_j|| with K_j = diag(kappa[:, j]).
    For the unit-temperature weighted-softmax estimator h(q) = sum_j p_j v_j
    this dominates ||h(q) - h(q + eps)|| / ||eps|| for every perturbation.
    """
    keys = as_matrix(keys)
    values = as_matrix(values)
    if keys.shape[0] != values.shape[0]:
        raise ShapeError(
            f"keys and values disagree on row count: {keys.shape} vs {values.shape}"
        )
    if m.shape != (keys.shape[1],):  # one metric row, not a stack
        raise ShapeError(f"keys have dim {keys.shape[1]}, weights have shape {m.shape}")
    check_weights(m)
    kappa = compute_kappa(keys)  # (dim, n)
    per_key = np.sqrt(np.sum((kappa * m[:, None]) ** 2, axis=0))  # (n,)
    return float(np.sum(per_key * np.linalg.norm(values, axis=1)))
