"""Kernel-regression laboratory: Gaussian-kernel value averaging under a
(possibly weighted) distance, bandwidth selection, and the statistical
experiments that probe when stretching query neighborhoods along
low-variability directions pays off.  An experiment draws every seed's data
and weights in seed order, then fits each (seed, kernel) pair as one job of
the package's ordered thread map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    SyntheticFunction,
    estimate_consistent,
    oracle_variability,
    piecewise_step,
)
from .metric import SCALING_MODES, scale_rows, sq_distances
from .numerics import ParameterError, as_matrix, derive_rng, ordered_map, unit_rows

_NS_SPARSE = 11
_NS_EDGE = 12

# Log grid over [0.05, 2].  16 points: a near-uniform metric acts like a
# continuous bandwidth rescaling, so the grid must be fine enough that
# neither kernel gains resolution the other cannot reach.
BANDWIDTH_GRID = tuple(np.geomspace(0.05, 2.0, 16))

#: contiguous folds of the bandwidth cross-validation
CV_FOLDS = 5

#: the edge experiment's target: two constant pieces split at x_0 = 0
EDGE_TRUTH = piecewise_step((1.0, 0.0), (0.0, 1.0))

#: kernel exponents more than 700 below their row's max weigh exactly 0: their exp is
#: under half an ulp of the row sum (>= 1), and numpy's exp leaves its fast path below -708
KERNEL_FLUSH = -700.0

#: the sparse experiment's weight-estimation budget: Monte-Carlo points of
#: the oracle, and probe width and sample points of the consistent estimator
ORACLE_POINTS = 200
CONSISTENT_T = 0.05
CONSISTENT_POINTS = 2000

#: smallest sample size n at which an experiment maps its (seed, kernel) fits over threads.
#: A fit's kernel arrays grow with n, and below this the threads lose more to hand-offs of
#: the interpreter lock than they gain.  Measured on 2 vCPUs, 20 seeds, default configs,
#: serial -> 2 threads, fastest of 5: nw-sparse (dim 5, 500 queries) 0.297 -> 0.281 s at
#: n = 200, 0.522 -> 0.362 s at 300, 0.646 -> 0.427 s at 350, 1.098 -> 0.664 s at 500;
#: edge-preserve 0.176 -> 0.275 s at 200, 0.325 -> 0.321 s at 300, 0.395 -> 0.338 s at
#: 350, 0.751 -> 0.501 s at 500.  At 300 edge-preserve ties; 350 is the smallest n at
#: which both clearly win.
MIN_FANOUT_N = 350


@dataclass(frozen=True)
class NWDataset:
    """(key, value) pairs, one row each, such as v = f(k) + noise."""

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        keys = as_matrix(self.keys)
        values = as_matrix(self.values)
        if keys.shape[0] != values.shape[0]:
            raise ParameterError("keys and values must have one row per sample")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.keys.shape[0]


@dataclass(frozen=True)
class MSEReport:
    """One kernel's seed means of bandwidth and held-out MSE, and the MSE's stderr."""

    bandwidth: float
    mse: float
    stderr: float


def sample_dataset(
    truth: SyntheticFunction,
    n: int,
    noise_std: float,
    rng: np.random.Generator,
    low: float = -np.pi,
    high: float = np.pi,
) -> NWDataset:
    """Draw ``n >= 1`` keys i.i.d. uniform on the box and values from the truth + noise."""
    if noise_std < 0:
        raise ParameterError("noise_std must be nonnegative")
    keys = rng.uniform(low, high, (n, truth.dim))
    with np.errstate(over="ignore"):  # an overflowing draw is non-finite: NWDataset rejects it
        values = truth(keys) + noise_std * rng.standard_normal((n, truth.out_dim))
    return NWDataset(keys, values)


def _row_range(neg_sq_dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (row max, row min) of a kernel's negated distances, (..., 1) each."""
    return neg_sq_dists.max(axis=-1, keepdims=True), neg_sq_dists.min(axis=-1, keepdims=True)


def _kernel_average(
    neg_sq_dists: np.ndarray, bandwidth: float, values: np.ndarray, row_range=None
) -> np.ndarray:
    """Gaussian-kernel average of ``values`` with exponents ``neg_sq_dists / (2 bandwidth^2)``,
    weights more than ``-KERNEL_FLUSH`` below their row's largest flushed to 0.
    ``row_range`` is ``_row_range(neg_sq_dists)``, which a caller that averages one matrix
    at several bandwidths takes once.  Dividing by a positive scalar and subtracting a
    row constant are monotone under round-to-nearest, so the exponents' row max, and
    their smallest offset below it, follow from the range bit for bit."""
    hi, lo = _row_range(neg_sq_dists) if row_range is None else row_range
    scale = 2.0 * bandwidth**2
    top = hi / scale
    if not np.isfinite(top).all():
        raise ParameterError("kernel average: a query has no finite kernel exponent")
    z = neg_sq_dists / scale
    z -= top
    if (lo / scale - top).min() >= KERNEL_FLUSH:  # no weight flushes: plain exp
        np.exp(z, out=z)
    else:
        live = z >= KERNEL_FLUSH
        np.maximum(z, KERNEL_FLUSH, out=z)  # exp stays on numpy's fast path
        np.exp(z, out=z)
        z *= live
    z /= z.sum(axis=-1, keepdims=True)
    return z @ values


def nw_estimate_batch(
    queries, data: NWDataset, bandwidth: float, m: np.ndarray
) -> np.ndarray:
    """Kernel-weighted value averages at each query row.

    Kernel weights are exp(-d(q, k_j)^2 / (2 bandwidth^2)) under the distance
    weighted by ``m``; each output is a convex combination of dataset values.
    A weight whose exponent lies more than ``-KERNEL_FLUSH`` below its query's
    largest is exactly 0, since it is below half an ulp of the weight sum.
    """
    with np.errstate(over="ignore"):  # an exponent overflowing to -inf weighs 0, as if flushed
        scale = 2.0 * np.float64(bandwidth) ** 2
        if not (bandwidth > 0 and 0.0 < scale < np.inf):
            raise ParameterError(f"bandwidth must be > 0 with 2 * bandwidth**2 in (0, inf), got {bandwidth!r}")
        if data.n == 0:
            raise ParameterError("empty dataset")
        queries = as_matrix(queries)
        if queries.shape[1] != data.keys.shape[1] or m.shape != (queries.shape[1],):
            raise ParameterError("query, key and weight dimensions must agree")
        return _kernel_average(-sq_distances(queries[:, None], data.keys, m), bandwidth, data.values)


def cross_validate_bandwidth(data: NWDataset, m: np.ndarray) -> float:
    """Pick the BANDWIDTH_GRID bandwidth with the lowest CV_FOLDS-fold
    prediction error under the weights ``m``.

    Folds are contiguous index blocks: the keys are i.i.d. so block folds
    are unbiased, and the split is deterministic.  ``data`` holds at least
    one sample per fold.
    """
    bounds = np.linspace(0, data.n, CV_FOLDS + 1, dtype=int)
    scores = np.zeros(len(BANDWIDTH_GRID))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        train = np.ones(data.n, dtype=bool)
        train[lo:hi] = False
        neg = -sq_distances(data.keys[lo:hi, None], data.keys[train], m)
        values, row_range = data.values[train], _row_range(neg)
        for j, bw in enumerate(BANDWIDTH_GRID):
            pred = _kernel_average(neg, bw, values, row_range)
            scores[j] += float(np.sum((pred - data.values[lo:hi]) ** 2))
    return float(BANDWIDTH_GRID[int(np.argmin(scores))])


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseMSEConfig:
    truth: SyntheticFunction
    n: int = 500
    n_queries: int = 500
    noise_std: float = 0.3
    seeds: int = 20
    seed: int = 0
    weights_source: str = "oracle"  # or "consistent"
    scaling: str = "maxscale"

    def __post_init__(self):
        if self.n < CV_FOLDS:
            raise ParameterError(f"n must be at least {CV_FOLDS}, one per CV fold, got {self.n}")
        if self.n_queries < 1:
            raise ParameterError(f"n_queries must be at least 1, got {self.n_queries}")
        if self.scaling not in SCALING_MODES:
            raise ParameterError(f"scaling must be one of {', '.join(SCALING_MODES)}; got {self.scaling!r}")


@dataclass(frozen=True)
class SparseMSEResult:
    euclidean: MSEReport
    elliptical: MSEReport
    per_seed_euclidean: np.ndarray
    per_seed_elliptical: np.ndarray
    bandwidths_euclidean: np.ndarray
    bandwidths_elliptical: np.ndarray
    p_value_less: float  # one-sided paired test: elliptical < euclidean


def _variability_weights(cfg: SparseMSEConfig, rng) -> np.ndarray:
    if cfg.weights_source == "oracle":
        pts = rng.uniform(-np.pi, np.pi, (ORACLE_POINTS, cfg.truth.dim))
        est = oracle_variability(cfg.truth, pts)
    elif cfg.weights_source == "consistent":
        pts = rng.uniform(-np.pi, np.pi, (CONSISTENT_POINTS, cfg.truth.dim))
        est = estimate_consistent(cfg.truth, pts, CONSISTENT_T)
    else:
        raise ParameterError(f"unknown weights_source {cfg.weights_source!r}")
    return scale_rows(est, cfg.scaling)


def _report(bandwidths, per_seed) -> MSEReport:
    return MSEReport(
        bandwidth=float(np.mean(bandwidths)),
        mse=float(per_seed.mean()),
        stderr=float(per_seed.std(ddof=1) / np.sqrt(per_seed.size)),
    )


def _fit(data: NWDataset, w: np.ndarray, score) -> tuple[float, float]:
    bandwidth = cross_validate_bandwidth(data, w)
    return score(w, bandwidth), bandwidth


def _paired_fit(draws, n: int, jobs: int | None = None) -> tuple[np.ndarray, ...]:
    """Fit each seed's two kernels, Euclidean (all-ones weights) then its weights, each
    at its own cross-validated bandwidth.  ``draws`` holds one (data, weights, score)
    per seed, where ``score(w, bandwidth)`` measures a fitted kernel.  The fits are
    independent, so each (seed, kernel) pair is one job of the thread map, fanned out
    once ``n`` reaches MIN_FANOUT_N, or when ``jobs`` is given and above 1; results are
    gathered in job order, so the fan-out moves no bit.  Returns the Euclidean then the
    weighted kernel's per-seed scores, then their per-seed bandwidths."""
    fits = [(data, w, score) for data, w_ell, score in draws
            for w in (np.ones(data.keys.shape[1]), w_ell)]
    fan_out = n >= MIN_FANOUT_N if jobs is None else jobs > 1
    rows = ordered_map(lambda fit: _fit(*fit), fits, fan_out=fan_out)
    return tuple(np.array(column[kernel::2]) for column in zip(*rows) for kernel in (0, 1))


def _sparse_draw(cfg: SparseMSEConfig, s: int):
    """Seed ``s``'s dataset, weights and held-out MSE, drawn from its own stream."""
    rng = derive_rng(cfg.seed, _NS_SPARSE, s)
    data = sample_dataset(cfg.truth, cfg.n, cfg.noise_std, rng)
    w_ell = _variability_weights(cfg, rng)
    queries = rng.uniform(-np.pi, np.pi, (cfg.n_queries, cfg.truth.dim))
    target = cfg.truth(queries)
    return data, w_ell, lambda w, bw: float(
        np.mean((nw_estimate_batch(queries, data, bw, w) - target) ** 2))


def run_sparse_mse_experiment(cfg: SparseMSEConfig, jobs: int | None = None) -> SparseMSEResult:
    """Held-out MSE of Euclidean vs weighted kernels on the same data.

    Each seed draws its own dataset and queries; bandwidths are selected per
    estimator by cross-validation, and errors are measured against the
    noiseless truth at freshly sampled queries.  The seeds are drawn in order
    on the caller's thread; the (seed, kernel) fits then fan out on the thread
    map once ``cfg.n`` reaches MIN_FANOUT_N, or, given ``jobs``, when it is
    above 1.  The fan-out moves no bit.
    """
    if cfg.seeds < 5:
        raise ParameterError("need at least 5 seeds")
    draws = [_sparse_draw(cfg, s) for s in range(cfg.seeds)]
    euc, ell, bw_e, bw_m = _paired_fit(draws, cfg.n, jobs)
    if np.allclose(ell, euc):
        p = 1.0  # identical samples carry no directional evidence
    else:
        from scipy import stats  # here, not at module level: it is the package's slowest import

        p = float(stats.ttest_rel(ell, euc, alternative="less").pvalue)
    return SparseMSEResult(
        euclidean=_report(bw_e, euc),
        elliptical=_report(bw_m, ell),
        per_seed_euclidean=euc,
        per_seed_elliptical=ell,
        bandwidths_euclidean=bw_e,
        bandwidths_elliptical=bw_m,
        p_value_less=p,
    )


@dataclass(frozen=True)
class EdgeConfig:
    """EDGE_TRUTH sampled on the box [-1, 1]^2, with maxscaled weights."""

    n: int = 200
    noise_std: float = 0.3
    seeds: int = 20
    seed: int = 0
    query_offset: float = 0.3
    est_t: float = 0.1
    est_points: int = 2000

    def __post_init__(self):
        if self.n < CV_FOLDS:
            raise ParameterError(f"n must be at least {CV_FOLDS}, one per CV fold, got {self.n}")
        if self.est_t <= 0:
            raise ParameterError(f"est_t must be positive, got {self.est_t}")
        if self.est_points < 1:
            raise ParameterError(f"est_points must be at least 1, got {self.est_points}")


@dataclass(frozen=True)
class EdgeResult:
    euclidean_mean: float
    elliptical_mean: float
    per_seed_euclidean: np.ndarray
    per_seed_elliptical: np.ndarray
    piece_distance: float


def _edge_distance(data, m, bandwidth, q1, q2) -> float:
    est = unit_rows(nw_estimate_batch(np.vstack([q1, q2]), data, bandwidth, m))
    return float(np.linalg.norm(est[0] - est[1]))


def _edge_draw(cfg: EdgeConfig, q1, q2, s: int):
    """Seed ``s``'s dataset, weights and edge distance, drawn from its own stream."""
    rng = derive_rng(cfg.seed, _NS_EDGE, s)
    data = sample_dataset(EDGE_TRUTH, cfg.n, cfg.noise_std, rng, -1.0, 1.0)
    pts = rng.uniform(-1.0, 1.0, (cfg.est_points, EDGE_TRUTH.dim))
    w_ell = scale_rows(estimate_consistent(EDGE_TRUTH, pts, cfg.est_t), "maxscale")
    return data, w_ell, lambda w, bw: _edge_distance(data, w, bw, q1, q2)


def run_edge_preservation_experiment(cfg: EdgeConfig) -> EdgeResult:
    """How well the two kernels keep adjacent constant pieces apart.

    Queries sit symmetrically on either side of the step; estimates are
    normalized before the distance is taken, matching the normalized-output
    setting in which the separation guarantee is stated.  The step is
    invisible to infinitesimal derivatives, so the weights come from the
    centered-difference estimator at finite probe width ``est_t``.  The seeds
    are drawn in order, and their (seed, kernel) fits fan out on the thread
    map once ``cfg.n`` reaches MIN_FANOUT_N.
    """
    if cfg.seeds < 1:
        raise ParameterError("need at least one seed")
    q1 = np.zeros(EDGE_TRUTH.dim)
    q2 = np.zeros(EDGE_TRUTH.dim)
    q1[0] = -cfg.query_offset
    q2[0] = cfg.query_offset
    euc, ell, _, _ = _paired_fit([_edge_draw(cfg, q1, q2, s) for s in range(cfg.seeds)], cfg.n)
    f1, f2 = unit_rows(EDGE_TRUTH(np.vstack([q1, q2])))
    return EdgeResult(
        euclidean_mean=float(np.mean(euc)),
        elliptical_mean=float(np.mean(ell)),
        per_seed_euclidean=euc,
        per_seed_elliptical=ell,
        piece_distance=float(np.linalg.norm(f1 - f2)),
    )
