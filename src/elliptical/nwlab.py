"""Kernel-regression laboratory: Gaussian-kernel value averaging under a
(possibly weighted) distance, bandwidth selection, and the statistical
experiments that probe when stretching query neighborhoods along
low-variability directions pays off.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .estimators import (
    SyntheticFunction,
    estimate_consistent,
    oracle_variability,
    piecewise_step,
    uniform_sampler,
)
from .metric import EllipticalWeights, apply_scaling, identity_weights
from .numerics import ParameterError, ShapeError, as_matrix, derive_rng, softmax_rows, unit_rows

_NS_SPARSE = 11
_NS_EDGE = 12

# Log grid over [0.05, 2].  16 points: a near-uniform metric acts like a
# continuous bandwidth rescaling, so the grid must be fine enough that
# neither kernel gains resolution the other cannot reach.
DEFAULT_BANDWIDTH_GRID = tuple(np.geomspace(0.05, 2.0, 16))


@dataclass(frozen=True)
class NWDataset:
    """(key, value) pairs v = f(k) + noise, plus the generating truth."""

    keys: np.ndarray
    values: np.ndarray
    truth: SyntheticFunction
    noise_std: float

    def __post_init__(self):
        keys = as_matrix(self.keys)
        values = as_matrix(self.values)
        if keys.shape[0] != values.shape[0]:
            raise ShapeError("keys and values must have one row per sample")
        if self.noise_std < 0:
            raise ParameterError("noise_std must be nonnegative")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.keys.shape[0]


@dataclass(frozen=True)
class MSEReport:
    """Seed-aggregated held-out error for one estimator configuration."""

    estimator: str
    bandwidth: float
    n: int
    mse: float
    seeds: int
    stderr: float

    def __post_init__(self):
        if self.mse < 0:
            raise ParameterError("mse must be nonnegative")
        if self.seeds < 5:
            raise ParameterError("standard error needs at least 5 seeds")


def sample_dataset(
    truth: SyntheticFunction,
    n: int,
    noise_std: float,
    rng: np.random.Generator,
    low: float = -np.pi,
    high: float = np.pi,
) -> NWDataset:
    """Draw keys i.i.d. uniform on the box and values from the truth + noise."""
    if n < 1:
        raise ParameterError("need at least one sample")
    keys = rng.uniform(low, high, (n, truth.dim))
    values = truth(keys) + noise_std * rng.standard_normal((n, truth.out_dim))
    return NWDataset(keys, values, truth, noise_std)


def _weighted_sq_dists(queries: np.ndarray, keys: np.ndarray, m: np.ndarray) -> np.ndarray:
    diff = queries[:, None, :] - keys[None, :, :]
    return np.einsum("qnd,d->qn", diff * diff, m)


def nw_estimate_batch(
    queries, data: NWDataset, bandwidth: float, w: EllipticalWeights
) -> np.ndarray:
    """Kernel-weighted value averages at each query row.

    Weights are exp(-d(q, k_j)^2 / (2 bandwidth^2)) under the weighted
    distance; each output is a convex combination of dataset values.
    """
    if bandwidth <= 0:
        raise ParameterError("bandwidth must be positive")
    if data.n == 0:
        raise ParameterError("empty dataset")
    queries = as_matrix(queries)
    if queries.shape[1] != data.keys.shape[1] or w.dim != queries.shape[1]:
        raise ShapeError("query, key and weight dimensions must agree")
    logits = -_weighted_sq_dists(queries, data.keys, w.m) / (2.0 * bandwidth**2)
    return softmax_rows(logits) @ data.values


def cross_validate_bandwidth(
    data: NWDataset,
    w: EllipticalWeights,
    grid: tuple[float, ...] = DEFAULT_BANDWIDTH_GRID,
    folds: int = 5,
) -> float:
    """Pick the grid bandwidth with the lowest k-fold prediction error.

    Folds are contiguous index blocks: the keys are i.i.d. so block folds
    are unbiased, and the split is deterministic.
    """
    if data.n < folds:
        raise ParameterError("need at least one sample per fold")
    bounds = np.linspace(0, data.n, folds + 1, dtype=int)
    scores = []
    for bw in grid:
        err = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mask = np.ones(data.n, dtype=bool)
            mask[lo:hi] = False
            train = NWDataset(
                data.keys[mask], data.values[mask], data.truth, data.noise_std
            )
            pred = nw_estimate_batch(data.keys[lo:hi], train, bw, w)
            err += float(np.sum((pred - data.values[lo:hi]) ** 2))
        scores.append(err)
    return float(grid[int(np.argmin(scores))])


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------


def _map_seeds(fn, seeds: int, jobs: int) -> list:
    """Run one closure per seed, optionally on a thread pool, in seed order."""
    if jobs <= 1:
        return [fn(s) for s in range(seeds)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, range(seeds)))


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
    low: float = -np.pi
    high: float = np.pi
    bandwidth_grid: tuple[float, ...] = DEFAULT_BANDWIDTH_GRID
    oracle_points: int = 200
    consistent_t: float = 0.05
    consistent_points: int = 2000


@dataclass(frozen=True)
class SparseMSEResult:
    euclidean: MSEReport
    elliptical: MSEReport
    per_seed_euclidean: np.ndarray
    per_seed_elliptical: np.ndarray
    bandwidths_euclidean: np.ndarray
    bandwidths_elliptical: np.ndarray
    p_value_less: float  # one-sided paired test: elliptical < euclidean


def _variability_weights(cfg, truth, rng) -> EllipticalWeights:
    sampler = uniform_sampler(cfg.low, cfg.high, truth.dim)
    if cfg.weights_source == "oracle":
        est = oracle_variability(truth, sampler, cfg.oracle_points, rng)
    elif cfg.weights_source == "consistent":
        pts = sampler(rng, cfg.consistent_points)
        est = estimate_consistent(truth, pts, cfg.consistent_t)
    else:
        raise ParameterError(f"unknown weights_source {cfg.weights_source!r}")
    return apply_scaling(est.raw, cfg.scaling)


def _report(label: str, bandwidths, per_seed, cfg_n, seeds) -> MSEReport:
    per_seed = np.asarray(per_seed)
    return MSEReport(
        estimator=label,
        bandwidth=float(np.mean(bandwidths)),
        n=cfg_n,
        mse=float(per_seed.mean()),
        seeds=seeds,
        stderr=float(per_seed.std(ddof=1) / np.sqrt(seeds)),
    )


def _sparse_one_seed(cfg: SparseMSEConfig, s: int) -> tuple[float, float, float, float]:
    rng = derive_rng(cfg.seed, _NS_SPARSE, s)
    data = sample_dataset(cfg.truth, cfg.n, cfg.noise_std, rng, cfg.low, cfg.high)
    w_euc = identity_weights(cfg.truth.dim)
    w_ell = _variability_weights(cfg, cfg.truth, rng)
    bwe = cross_validate_bandwidth(data, w_euc, cfg.bandwidth_grid)
    bwm = cross_validate_bandwidth(data, w_ell, cfg.bandwidth_grid)
    queries = rng.uniform(cfg.low, cfg.high, (cfg.n_queries, cfg.truth.dim))
    target = cfg.truth(queries)
    pred_e = nw_estimate_batch(queries, data, bwe, w_euc)
    pred_m = nw_estimate_batch(queries, data, bwm, w_ell)
    return (
        float(np.mean((pred_e - target) ** 2)),
        float(np.mean((pred_m - target) ** 2)),
        bwe,
        bwm,
    )


def run_sparse_mse_experiment(cfg: SparseMSEConfig, jobs: int = 1) -> SparseMSEResult:
    """Held-out MSE of Euclidean vs weighted kernels on the same data.

    Each seed draws its own dataset and queries; bandwidths are selected per
    estimator by cross-validation, and errors are measured against the
    noiseless truth at freshly sampled queries.  Seeds are independent, so
    ``jobs`` > 1 maps them over a thread pool; results are gathered in seed
    order either way.
    """
    if cfg.seeds < 5:
        raise ParameterError("need at least 5 seeds")
    rows = _map_seeds(lambda s: _sparse_one_seed(cfg, s), cfg.seeds, jobs)
    euc = np.asarray([r[0] for r in rows])
    ell = np.asarray([r[1] for r in rows])
    bw_e = [r[2] for r in rows]
    bw_m = [r[3] for r in rows]
    if np.allclose(ell, euc):
        p = 1.0  # identical samples carry no directional evidence
    else:
        p = float(stats.ttest_rel(ell, euc, alternative="less").pvalue)
    return SparseMSEResult(
        euclidean=_report("euclidean", bw_e, euc, cfg.n, cfg.seeds),
        elliptical=_report("elliptical", bw_m, ell, cfg.n, cfg.seeds),
        per_seed_euclidean=euc,
        per_seed_elliptical=ell,
        bandwidths_euclidean=np.asarray(bw_e),
        bandwidths_elliptical=np.asarray(bw_m),
        p_value_less=p,
    )


@dataclass(frozen=True)
class EdgeConfig:
    truth: SyntheticFunction = field(
        default_factory=lambda: piecewise_step((1.0, 0.0), (0.0, 1.0), coord=0, dim=2)
    )
    n: int = 200
    noise_std: float = 0.3
    seeds: int = 20
    seed: int = 0
    query_offset: float = 0.3
    low: float = -1.0
    high: float = 1.0
    bandwidth_grid: tuple[float, ...] = DEFAULT_BANDWIDTH_GRID
    est_t: float = 0.1
    est_points: int = 2000
    scaling: str = "maxscale"


@dataclass(frozen=True)
class EdgeResult:
    euclidean_mean: float
    elliptical_mean: float
    per_seed_euclidean: np.ndarray
    per_seed_elliptical: np.ndarray
    piece_distance: float


def _edge_distance(data, w, bandwidth, q1, q2) -> float:
    est = unit_rows(nw_estimate_batch(np.vstack([q1, q2]), data, bandwidth, w))
    return float(np.linalg.norm(est[0] - est[1]))


def _edge_one_seed(cfg: EdgeConfig, q1, q2, s: int) -> tuple[float, float]:
    rng = derive_rng(cfg.seed, _NS_EDGE, s)
    data = sample_dataset(cfg.truth, cfg.n, cfg.noise_std, rng, cfg.low, cfg.high)
    w_euc = identity_weights(cfg.truth.dim)
    pts = rng.uniform(cfg.low, cfg.high, (cfg.est_points, cfg.truth.dim))
    raw = estimate_consistent(cfg.truth, pts, cfg.est_t).raw
    w_ell = apply_scaling(raw, cfg.scaling)
    bwe = cross_validate_bandwidth(data, w_euc, cfg.bandwidth_grid)
    bwm = cross_validate_bandwidth(data, w_ell, cfg.bandwidth_grid)
    return (
        _edge_distance(data, w_euc, bwe, q1, q2),
        _edge_distance(data, w_ell, bwm, q1, q2),
    )


def run_edge_preservation_experiment(cfg: EdgeConfig, jobs: int = 1) -> EdgeResult:
    """How well the two kernels keep adjacent constant pieces apart.

    Queries sit symmetrically on either side of the step; estimates are
    normalized before the distance is taken, matching the normalized-output
    setting in which the separation guarantee is stated.  The step is
    invisible to infinitesimal derivatives, so the weights come from the
    centered-difference estimator at finite probe width ``est_t``.
    """
    if cfg.seeds < 1:
        raise ParameterError("need at least one seed")
    truth = cfg.truth
    q1 = np.zeros(truth.dim)
    q2 = np.zeros(truth.dim)
    q1[0] = -cfg.query_offset
    q2[0] = cfg.query_offset
    rows = _map_seeds(lambda s: _edge_one_seed(cfg, q1, q2, s), cfg.seeds, jobs)
    euc = np.asarray([r[0] for r in rows])
    ell = np.asarray([r[1] for r in rows])
    f1 = unit_rows(truth(q1)[None, :])[0]
    f2 = unit_rows(truth(q2)[None, :])[0]
    return EdgeResult(
        euclidean_mean=float(np.mean(euc)),
        elliptical_mean=float(np.mean(ell)),
        per_seed_euclidean=euc,
        per_seed_elliptical=ell,
        piece_distance=float(np.linalg.norm(f1 - f2)),
    )


def check_lipschitz_transfer(
    f: SyntheticFunction,
    w: EllipticalWeights,
    n_pairs: int,
    rng: np.random.Generator,
    low: float = -3.0,
    high: float = 3.0,
) -> float:
    """Max violation of ||f(q) - f(k)|| <= (sum_i G_i / sqrt(m_i)) d(q, k).

    Returns max ratio minus the bound over random pairs; nonpositive means
    the smoothness transfer holds on every sampled pair.  Coincident pairs
    have both sides zero and are skipped.
    """
    if f.gradient_bounds is None:
        raise ParameterError(f"{f.name} does not expose gradient bounds")
    if w.dim != f.dim:
        raise ShapeError("weight dimension must match the function dimension")
    bound = float(np.sum(f.gradient_bounds / np.sqrt(w.m)))
    qs = rng.uniform(low, high, (n_pairs, f.dim))
    ks = rng.uniform(low, high, (n_pairs, f.dim))
    diff = qs - ks
    dists = np.sqrt(np.einsum("nd,d->n", diff * diff, w.m))
    nums = np.linalg.norm(f(qs) - f(ks), axis=1)
    live = dists > 0
    if not np.any(live):
        return -bound
    ratios = nums[live] / dists[live]
    return float(ratios.max() - bound)
