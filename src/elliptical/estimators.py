"""Estimators of coordinate-wise variability: the expected L1 norm of a
function's i-th directional derivative under the key marginal.

Three routes are provided.  The layer-difference estimator reads it off the
change in value vectors between consecutive layers and is cheap enough to
run inside attention.  The centered-difference estimator perturbs a
materialized prediction function twice per dimension and is consistent but
only affordable offline.  The Monte-Carlo Jacobian oracle brute-forces the
definition on synthetic functions and serves as ground truth in tests.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .numerics import ParameterError, as_matrices, as_matrix, central_differences, derive_rng

_NS_CONSISTENCY = 31


@dataclass(frozen=True)
class SyntheticFunction:
    """A target function from the fixed catalog, evaluable in batches.

    ``fn`` maps an (n, dim) array to (n, out_dim).  When the per-coordinate
    variability under the declared marginal is known in closed form it is
    exposed via ``analytic_variability``.
    """

    name: str
    dim: int
    out_dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    analytic_variability: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ParameterError(f"{self.name} expects points of dimension {self.dim}")
        pts = x.reshape(-1, self.dim)
        out = np.asarray(self.fn(pts), dtype=np.float64)
        if out.shape != (pts.shape[0], self.out_dim):
            raise ParameterError(f"{self.name} returned shape {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ParameterError(f"{self.name} produced non-finite output")
        return out.reshape(*x.shape[:-1], self.out_dim)


# ---------------------------------------------------------------------------
# Catalog.  Analytic variabilities are stated for keys uniform on
# [-pi, pi]^dim, where E|cos(w x)| = 2/pi exactly for integer frequency w.
# ---------------------------------------------------------------------------


def separable_sinusoid(amplitudes, frequencies, phases=None) -> SyntheticFunction:
    """f_i(x) = a_i sin(w_i x_i + phi_i): output i depends on input i only.

    Amplitudes, frequencies and phases are vectors of one length, and the
    frequencies are integers, for which the analytic values hold.
    """
    amp = np.asarray(amplitudes, dtype=np.float64)
    freq = np.asarray(frequencies, dtype=np.float64)
    phase = np.zeros_like(amp) if phases is None else np.asarray(phases, dtype=np.float64)
    return SyntheticFunction(
        name="separable_sinusoid",
        dim=amp.size,
        out_dim=amp.size,
        fn=lambda pts: amp * np.sin(freq * pts + phase),
        analytic_variability=np.abs(amp * freq) * (2.0 / np.pi),
    )


def ranking_catalog() -> SyntheticFunction:
    """Separable six-dimensional target with well-separated per-coordinate
    variabilities.

    The canonical instance for checking that estimators recover the ranking
    of coordinate-wise variability.
    """
    return separable_sinusoid(np.linspace(0.25, 1.5, 6), np.ones(6))


def sparse_sinusoid(dim: int, active, amplitudes, frequencies) -> SyntheticFunction:
    """Scalar f(x) = sum over active coordinates of a_i sin(w_i x_i).

    Variability is zero in every inactive direction: the sparse regime.
    ``active``, ``amplitudes`` and ``frequencies`` have one entry per active
    coordinate, every active coordinate lies in [0, dim), and the frequencies
    are integers, for which the analytic values hold.
    """
    active = list(active)
    amp = np.asarray(amplitudes, dtype=np.float64)
    freq = np.asarray(frequencies, dtype=np.float64)
    variability = np.zeros(dim)
    for pos, i in enumerate(active):
        variability[i] = abs(amp[pos] * freq[pos]) * (2.0 / np.pi)

    def fn(pts):
        out = np.zeros((pts.shape[0], 1))
        for pos, i in enumerate(active):
            out[:, 0] += amp[pos] * np.sin(freq[pos] * pts[:, i])
        return out

    return SyntheticFunction(
        name="sparse_sinusoid",
        dim=dim,
        out_dim=1,
        fn=fn,
        analytic_variability=variability,
    )


def piecewise_step(low_value, high_value, dim: int = 2) -> SyntheticFunction:
    """Two constant pieces split at x_0 = 0; derivative is 0 a.e.  The piece
    values are vectors of one length."""
    lo = np.asarray(low_value, dtype=np.float64)
    hi = np.asarray(high_value, dtype=np.float64)

    def fn(pts):
        mask = pts[:, 0] >= 0.0
        return np.where(mask[:, None], hi[None, :], lo[None, :])

    return SyntheticFunction(
        name="piecewise_step", dim=dim, out_dim=lo.size, fn=fn
    )


# ---------------------------------------------------------------------------
# Estimators.
# ---------------------------------------------------------------------------


def estimate_overlayers(v_curr, v_prev, delta: float) -> np.ndarray:
    """Prefix means of |v_curr - v_prev| / delta down (..., t, dim) stacks: row t is the
    mean over rows <= t, row -1 over all.  The one estimator ``model._metric_rows`` runs.

    The inputs are read as plain arrays and never participate in gradient
    computation; callers inside a training graph must pass detached copies.
    """
    if not delta > 0:  # NaN fails too
        raise ParameterError("delta must be positive")
    v_curr, v_prev = as_matrices(v_curr), as_matrices(v_prev)
    if v_curr.shape != v_prev.shape:
        raise ParameterError(f"value shapes differ: {v_curr.shape} vs {v_prev.shape}")
    if v_curr.shape[-2] == 0:
        raise ParameterError("need at least one value row")
    counts = np.arange(1, v_curr.shape[-2] + 1, dtype=np.float64)[:, None]
    return np.cumsum(np.abs(v_curr - v_prev) / delta, axis=-2) / counts


def estimate_consistent(
    f: Callable[[np.ndarray], np.ndarray], sample_points, t: float
) -> np.ndarray:
    """Centered-difference estimate: mean ||f(x + t e_i) - f(x - t e_i)||_1 / 2t.

    ``f`` may be a catalog function or any fitted predictor mapping (n, dim)
    points to (n, out_dim) values; it is evaluated 2 * dim times per sample
    point, which is why this estimator stays out of the attention layers.
    """
    if not t > 0:  # NaN fails too
        raise ParameterError("t must be positive")
    pts = as_matrix(sample_points)
    if pts.shape[0] == 0:
        raise ParameterError("need at least one sample point")
    dim = pts.shape[1]
    raw = np.empty(dim, dtype=np.float64)
    for i in range(dim):
        xp = pts.copy()
        xm = pts.copy()
        xp[:, i] += t
        xm[:, i] -= t
        up = np.asarray(f(xp), dtype=np.float64)
        um = np.asarray(f(xm), dtype=np.float64)
        if not (np.all(np.isfinite(up)) and np.all(np.isfinite(um))):
            raise ParameterError("predictor produced non-finite values")
        raw[i] = np.mean(np.sum(np.abs(up - um), axis=1)) / (2.0 * t)
    return raw


def oracle_variability(f: SyntheticFunction, sample_points) -> np.ndarray:
    """Brute-force Monte Carlo of E ||J_f(k) e_i||_1 with numeric Jacobians,
    averaged over the (n, dim) ``sample_points`` drawn from the key marginal.

    The Jacobians come from ``numerics.central_differences`` at every point
    at once.  Outputs and points are summed in the order a loop over
    per-point Jacobians would sum them.
    """
    pts = as_matrix(sample_points)
    if pts.shape[0] == 0:
        raise ParameterError("need at least one Monte-Carlo point")
    jac = central_differences(f, pts)  # [point, input, output]
    # a contiguous [point, output, input] array sums each point's outputs as
    # np.sum sums down one Jacobian; cumsum adds the points one at a time
    per_point = np.abs(np.ascontiguousarray(jac.transpose(0, 2, 1))).sum(axis=1)
    return np.cumsum(per_point, axis=0)[-1] / pts.shape[0]


@dataclass(frozen=True)
class LayerPair:
    """Values (and the keys behind them) at two consecutive layers."""

    v_curr: np.ndarray
    v_prev: np.ndarray
    k_curr: np.ndarray
    k_prev: np.ndarray


def simulate_layer_pair(
    f: SyntheticFunction,
    n: int,
    delta: float,
    noise_std: float,
    rng: np.random.Generator,
) -> LayerPair:
    """Sample the layer-to-layer value generating process.

    Keys start uniform on [-pi, pi]^dim and move by a random-sign step whose
    magnitude has mean ``delta`` and relative spread 0.1; values carry
    additive Gaussian noise of standard deviation ``noise_std`` at both
    layers.
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if noise_std < 0:
        raise ParameterError("noise_std must be nonnegative")
    k_prev = rng.uniform(-np.pi, np.pi, (n, f.dim))
    # an overflowing step or draw is non-finite, and so is f at an infinite key:
    # f and the estimators reject it
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.abs(delta * (1.0 + 0.1 * rng.standard_normal((n, f.dim))))
        signs = rng.choice(np.array([-1.0, 1.0]), size=(n, f.dim))
        k_curr = k_prev + signs * steps
        v_prev = f(k_prev) + noise_std * rng.standard_normal((n, f.out_dim))
        v_curr = f(k_curr) + noise_std * rng.standard_normal((n, f.out_dim))
    return LayerPair(v_curr=v_curr, v_prev=v_prev, k_curr=k_curr, k_prev=k_prev)


def noise_drift_slack(
    f: SyntheticFunction, noise_std: float, n: int, rng: np.random.Generator
) -> float:
    """Worst-coordinate excess of |m_i - E|f_i change|| over its noise bound.

    At unit layer step (delta = 1) the layer-difference estimate may drift
    from the noiseless mean absolute change by at most
    (2 / sqrt(pi)) * noise_std; Monte Carlo sampling adds slack
    3 * noise_std / sqrt(n).  Nonpositive return means the bound held in
    every coordinate.
    """
    pair = simulate_layer_pair(f, n, 1.0, noise_std, rng)
    m = estimate_overlayers(pair.v_curr, pair.v_prev, 1.0)[-1]
    clean = np.mean(np.abs(f(pair.k_curr) - f(pair.k_prev)), axis=0)
    gap = np.abs(m - clean)
    allowance = (2.0 / np.sqrt(np.pi)) * noise_std + 3.0 * noise_std / np.sqrt(n)
    return float(np.max(gap) - allowance)


def consistency_error_curve(
    f: SyntheticFunction,
    sample_sizes,
    t: float,
    seeds: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Seed-mean centered-difference error against the analytic variability,
    at sample points uniform on [-pi, pi]^dim.

    Returns (sample_sizes, mean_errors); the error at each sample size is
    averaged over coordinates with nonzero analytic variability and over
    seeds, exposing the Monte-Carlo convergence rate.  ``f`` carries an
    analytic variability.
    """
    active = f.analytic_variability > 0
    sizes = np.asarray(list(sample_sizes), dtype=np.int64)
    errors = np.zeros(sizes.size)
    for idx, n in enumerate(sizes):
        per_seed = []
        for s in range(seeds):
            rng = derive_rng(seed, _NS_CONSISTENCY, idx * 10_000 + s)
            pts = rng.uniform(-np.pi, np.pi, (int(n), f.dim))
            est = estimate_consistent(f, pts, t)
            per_seed.append(np.mean(np.abs(est[active] - f.analytic_variability[active])))
        errors[idx] = float(np.mean(per_seed))
    return sizes, errors
