"""Property suites behind the ``verify`` subcommand: derivative checks,
perturbation bounds and reduction/equivalence identities, each reporting its
worst observed slack.  A suite passes when its slack is nonpositive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionConfig, elliptical_attention, masa, masa_jacobian, standard_attention
from .metric import apply_scaling, compute_kappa, identity_weights, robustness_bound
from .numerics import derive_rng, finite_diff_jacobian, softmax_rows

_NS_VERIFY = 21

#: Relative tolerance for analytic-vs-central-difference Jacobian agreement.
JACOBIAN_RTOL = 1e-6

#: Absolute tolerance for the weighted-softmax / Gaussian-kernel identity.
EQUIVALENCE_ATOL = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    slack: float  # max observed violation; <= 0 means the property held
    detail: str


def _random_instance(rng, n_max=8, d_max=6, key_range=2.0):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    keys = rng.uniform(-key_range, key_range, (n, d))
    q = rng.uniform(-key_range, key_range, d)
    w = apply_scaling(rng.uniform(0.0, 1.0, d), "maxscale")
    return q, keys, w


def suite_masa_jacobian(
    n_instances: int = 1000, seed: int = 0, kappa_offset: float = 0.0
) -> SuiteResult:
    """Analytic weighted-softmax Jacobian vs central differences, plus the
    entrywise |J_ji| <= kappa_ij * m_i envelope.

    ``kappa_offset`` shifts every coefficient and exists only as a negative
    control: a nonzero offset must make the suite fail.
    """
    rng = derive_rng(seed, _NS_VERIFY, 1)
    worst_rel = 0.0
    worst_bound = -np.inf
    for _ in range(n_instances):
        q, keys, w = _random_instance(rng)
        jac = masa_jacobian(q, keys, w)
        fd = finite_diff_jacobian(lambda x: masa(x, keys, w), q)
        rel = np.max(np.abs(jac - fd) / (1.0 + np.abs(fd)))
        worst_rel = max(worst_rel, float(rel))
        envelope = (compute_kappa(keys) + kappa_offset).T * w.m[None, :]
        worst_bound = max(worst_bound, float(np.max(np.abs(jac) - envelope)))
    slack = max(worst_rel - JACOBIAN_RTOL, worst_bound)
    return SuiteResult(
        name="masa-jacobian",
        passed=slack <= 0.0,
        slack=slack,
        detail=f"max rel fd error {worst_rel:.3e}, max envelope excess {worst_bound:.3e}",
    )


def suite_robustness_bound(
    n_instances: int = 100, n_eps: int = 1000, seed: int = 0
) -> SuiteResult:
    """Empirical output change never exceeds the analytic bound per unit
    perturbation, at unit temperature, for perturbation norms in [1e-3, 1]."""
    rng = derive_rng(seed, _NS_VERIFY, 2)
    worst = -np.inf
    for _ in range(n_instances):
        q, keys, w = _random_instance(rng)
        d = q.size
        values = rng.uniform(-2.0, 2.0, (keys.shape[0], int(rng.integers(1, 5))))
        bound = robustness_bound(keys, values, w)
        base = masa(q, keys, w) @ values
        dirs = rng.standard_normal((n_eps, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norms = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), n_eps))
        eps = dirs * norms[:, None]
        moved = softmax_rows((q + eps) @ (keys * w.m).T) @ values
        ratios = np.linalg.norm(moved - base[None, :], axis=1) / norms
        worst = max(worst, float(np.max(ratios - bound)))
    return SuiteResult(
        name="robustness-bound",
        passed=worst <= 0.0,
        slack=worst,
        detail=f"max (ratio - bound) {worst:.3e}",
    )


def suite_identity_reduction(n_instances: int = 50, seed: int = 0) -> SuiteResult:
    """With an identity metric the weighted kernel must reproduce the plain
    kernel bit for bit, including through the layer-difference path."""
    rng = derive_rng(seed, _NS_VERIFY, 3)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        v_prev = rng.standard_normal((n, d))
        cfg = AttentionConfig(head_dim=d, weights=identity_weights(d))
        std = standard_attention(q, k, v, cfg)
        ell = elliptical_attention(q, k, v, v_prev, cfg, delta=1.0)
        same_bits = (
            std.logits.tobytes() == ell.logits.tobytes()
            and std.attn.tobytes() == ell.attn.tobytes()
            and std.h.tobytes() == ell.h.tobytes()
        )
        if not same_bits:
            worst = max(worst, float(np.max(np.abs(std.logits - ell.logits))), 1e-300)
    return SuiteResult(
        name="identity-reduction",
        passed=worst == 0.0,
        slack=worst,
        detail="bitwise equality of logits, attention and outputs",
    )


def suite_nw_equivalence(n_instances: int = 200, seed: int = 0) -> SuiteResult:
    """With keys normalized to unit weighted norm, weighted-softmax scores
    equal normalized Gaussian kernel weights exp(-d(q,k)^2 / 2) / sum."""
    rng = derive_rng(seed, _NS_VERIFY, 4)
    worst = 0.0
    for _ in range(n_instances):
        q, keys, w = _random_instance(rng)
        mnorm = np.sqrt(np.einsum("nd,d->n", keys * keys, w.m))
        keys = keys / mnorm[:, None]  # unit weighted norm
        probs = masa(q, keys, w)
        diff = q[None, :] - keys
        d2 = np.einsum("nd,d->n", diff * diff, w.m)
        gauss = np.exp(-(d2 - d2.min()) / 2.0)
        gauss /= gauss.sum()
        worst = max(worst, float(np.max(np.abs(probs - gauss))))
    return SuiteResult(
        name="nw-equivalence",
        passed=worst <= EQUIVALENCE_ATOL,
        slack=worst - EQUIVALENCE_ATOL,
        detail=f"max weight discrepancy {worst:.3e}",
    )


def run_all_suites(seed: int = 0, kappa_offset: float = 0.0) -> list[SuiteResult]:
    return [
        suite_masa_jacobian(seed=seed, kappa_offset=kappa_offset),
        suite_robustness_bound(seed=seed),
        suite_identity_reduction(seed=seed),
        suite_nw_equivalence(seed=seed),
    ]
