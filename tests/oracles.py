"""Oracles that only tests need: a linear target with exact variabilities, a
one-point central-difference Jacobian, an empirical check of the smoothness
transfer under a weighted distance, the Gaussian-kernel average with no weight
flushed and with far weights flushed in whole-matrix passes, and the
unit-temperature weighted softmax with its Jacobian spelled as matrix-vector
products.
"""

import numpy as np

from elliptical.estimators import SyntheticFunction
from elliptical.metric import sq_distances
from elliptical.nwlab import KERNEL_FLUSH
from elliptical.numerics import as_matrix, central_differences, softmax_rows


def linear_function(a) -> SyntheticFunction:
    """f(x) = A x.  Variability_i = sum_j |A_ji|, under any key marginal."""
    a = as_matrix(a)
    return SyntheticFunction(
        name="linear",
        dim=a.shape[1],
        out_dim=a.shape[0],
        fn=lambda pts: pts @ a.T,
        analytic_variability=np.abs(a).sum(axis=0),
    )


def finite_diff_jacobian(f, x) -> np.ndarray:
    """C-contiguous (out, dim) Jacobian of a one-vector ``f`` at ``x``: the one-point
    case of ``central_differences``.  Exact for linear maps up to roundoff; the
    oracle for the analytic derivatives under test."""

    def rows(pts: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(f(p), dtype=np.float64).reshape(-1) for p in pts])

    return np.ascontiguousarray(central_differences(rows, np.reshape(x, (1, -1)))[0].T)


def check_lipschitz_transfer(f, bounds, m: np.ndarray, n_pairs: int, rng) -> float:
    """Max violation of ||f(q) - f(k)|| <= (sum_i G_i / sqrt(m_i)) d(q, k), where
    ``bounds`` holds sup-norm bounds G_i on the columns of f's Jacobian and
    d is the distance weighted by ``m``.

    Pairs are drawn uniformly on [-3, 3]^dim.  Returns max ratio minus the
    bound over the pairs; nonpositive means the smoothness transfer holds on
    every sampled pair.  Coincident pairs have both sides zero and are
    skipped.
    """
    bound = float(np.sum(np.asarray(bounds, dtype=np.float64) / np.sqrt(m)))
    qs = rng.uniform(-3.0, 3.0, (n_pairs, f.dim))
    ks = rng.uniform(-3.0, 3.0, (n_pairs, f.dim))
    dists = np.sqrt(sq_distances(qs, ks, m))
    nums = np.linalg.norm(f(qs) - f(ks), axis=1)
    live = dists > 0
    if not np.any(live):
        return -bound
    ratios = nums[live] / dists[live]
    return float(ratios.max() - bound)


def kernel_average(neg_sq_dists, bandwidth, values) -> np.ndarray:
    """The Gaussian-kernel average as ``softmax_rows`` normalises it, every far
    weight kept: the reference that ``nwlab._kernel_average`` reproduces bit for
    bit where a prediction is not itself below about 1e-290."""
    return softmax_rows(neg_sq_dists / (2.0 * bandwidth**2)) @ values


def flushed_kernel_average(neg_sq_dists, bandwidth, values) -> np.ndarray:
    """The Gaussian-kernel average with far weights flushed, as four whole-matrix passes
    at every bandwidth: the row max, the live mask, the clamp and the mask's multiply.
    ``nwlab._kernel_average`` takes the row max from the distances' row range and skips
    the other three where no weight flushes; it must match this bit for bit."""
    z = neg_sq_dists / (2.0 * bandwidth**2)
    z -= z.max(axis=-1, keepdims=True)
    live = z >= KERNEL_FLUSH
    np.maximum(z, KERNEL_FLUSH, out=z)
    np.exp(z, out=z)
    z *= live
    z /= z.sum(axis=-1, keepdims=True)
    return z @ values


def masa(q, keys, m) -> np.ndarray:
    """Metric-weighted softmax over keys at unit temperature, on the last axis:
    component j is exp(q' M k_j) normalized over its keys, one matrix-vector
    product ``keys @ (m * q)`` per query.  ``q`` (..., dim), ``keys`` (..., n_keys,
    dim) and ``m`` (..., dim) broadcast on their leading axes.  An independent
    spelling of ``attention.weighted_kernel``'s unit-temperature attention."""
    return softmax_rows(np.matmul(keys, (m * q)[..., None])[..., 0])


def masa_jacobian(q, keys, m) -> np.ndarray:
    """Query Jacobian of ``masa``, (..., n_keys, dim): entry (j, i) is
    m_i * (k_j^i - sum_s k_s^i p_s) * p_j, the formula of
    ``attention.attention_jacobian`` with ``masa``'s probabilities."""
    p = masa(q, keys, m)
    centered = keys - np.matmul(p[..., None, :], keys)
    return p[..., :, None] * centered * m[..., None, :]
