"""Property suites behind the ``verify`` subcommand: derivative checks,
perturbation bounds and reduction/equivalence identities, each reporting its
worst observed slack.  A suite passes when its slack is nonpositive.

A random instance is drawn as n, d, the (n, d) keys, the (d,) query, then the
(d,) uniform row maxscaled into its weights.  Attention is ``weighted_kernel``'s,
the kernel training runs.  The Jacobian suite (``masa-jacobian``) draws its
instances one after another from its stream, then evaluates each (n, d) shape as
one stack: every instance keeps its own bits, and a max is exact in any order.
The nw-equivalence suite stacks its instances the same way.  The identity-reduction
suite instead draws value stacks for the model's metric path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .attention import attention_jacobian, split_heads, weighted_kernel
from .metric import compute_kappa, robustness_bound, scale_rows, sq_distances
from .numerics import central_differences, derive_rng

_NS_VERIFY = 21

#: random instances: 2..N_MAX keys of dim 2..D_MAX, entries uniform in +-KEY_RANGE
_N_MAX, _D_MAX, _KEY_RANGE = 8, 6, 2.0

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


def _random_instance(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, keys, u) in draw order; maxscaling u gives the instance's weights."""
    n = int(rng.integers(2, _N_MAX + 1))
    d = int(rng.integers(2, _D_MAX + 1))
    keys = rng.uniform(-_KEY_RANGE, _KEY_RANGE, (n, d))
    q = rng.uniform(-_KEY_RANGE, _KEY_RANGE, d)
    return q, keys, rng.uniform(0.0, 1.0, d)


def suite_masa_jacobian(n_instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Analytic attention Jacobian vs central differences of the kernel, plus the
    entrywise |J_ji| <= kappa_ij * m_i envelope, one stack per (n, d) shape."""
    rng = derive_rng(seed, _NS_VERIFY, 1)
    groups: dict[tuple[int, ...], list] = {}
    for _ in range(n_instances):
        q, keys, u = _random_instance(rng)
        groups.setdefault(keys.shape, []).append((q, keys, u))
    worst_rel = 0.0
    worst_bound = -np.inf
    for group in groups.values():
        # axis 0 is the instance, axis 1 its one query point: (G, 1, ...) throughout
        q, keys, u = (np.stack(a)[:, None] for a in zip(*group))
        m = scale_rows(u, "maxscale")
        jac = attention_jacobian(q, keys, m)
        fd = central_differences(lambda x: weighted_kernel(  # one query row at a time
            x[..., None, :], keys, keys, m[..., None, :], 1.0, causal=False
        ).attn[..., 0, :], q).swapaxes(-1, -2)
        rel = np.max(np.abs(jac - fd) / (1.0 + np.abs(fd)))
        worst_rel = max(worst_rel, float(rel))
        envelope = compute_kappa(keys).swapaxes(-1, -2) * m[..., None, :]
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
        q, keys, u = _random_instance(rng)
        m = scale_rows(u, "maxscale")
        d = q.size
        values = rng.uniform(-2.0, 2.0, (keys.shape[0], int(rng.integers(1, 5))))
        bound = robustness_bound(keys, values, m)
        base = weighted_kernel(q, keys, values, m, 1.0, causal=False).h
        dirs = rng.standard_normal((n_eps, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norms = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), n_eps))
        eps = dirs * norms[:, None]
        moved = weighted_kernel(q + eps, keys, values, m, 1.0, causal=False).h
        ratios = np.linalg.norm(moved - base[None, :], axis=1) / norms
        worst = max(worst, float(np.max(ratios - bound)))
    return SuiteResult(
        name="robustness-bound",
        passed=worst <= 0.0,
        slack=worst,
        detail=f"max (ratio - bound) {worst:.3e}",
    )


def suite_identity_reduction(n_instances: int = 50, seed: int = 0) -> SuiteResult:
    """Identity scaling on the model's causal path must reproduce the plain
    kernel bit for bit: ``model._metric_rows`` estimates per-position rows from
    (v, v_prev) as a metric-weighted layer does, and the causal kernel runs on
    the head stacks once with those rows and once with no metric."""
    rng = derive_rng(seed, _NS_VERIFY, 3)
    worst = 0.0
    for _ in range(n_instances):
        batch, heads = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        t_len, dh = int(rng.integers(2, 25)), int(rng.integers(2, 7))
        q, k, v, v_prev = (rng.standard_normal((batch, t_len, heads * dh)) for _ in range(4))
        m = model._metric_rows(v, v_prev, heads, "identity", 1.0)
        qh, kh, vh, mh = (split_heads(a.reshape(batch * t_len, -1), batch, heads)
                          for a in (q, k, v, m))
        temp = float(np.sqrt(dh))
        std = weighted_kernel(qh, kh, vh, 1.0, temp, causal=True)
        ell = weighted_kernel(qh, kh, vh, mh, temp, causal=True)
        fields = ("logits", "attn", "h")
        if any(getattr(std, f).tobytes() != getattr(ell, f).tobytes() for f in fields):
            worst = max(worst, float(np.max(np.abs(std.logits - ell.logits))), 1e-300)
    return SuiteResult(
        name="identity-reduction",
        passed=worst == 0.0,
        slack=worst,
        detail="bitwise equality of logits, attention and outputs",
    )


def suite_nw_equivalence(n_instances: int = 200, seed: int = 0) -> SuiteResult:
    """With keys normalized to unit weighted norm, weighted-softmax scores
    equal normalized Gaussian kernel weights exp(-d(q,k)^2 / 2) / sum, one
    stack per (n, d) shape.  Each instance's distances are its own calls."""
    rng = derive_rng(seed, _NS_VERIFY, 4)
    groups: dict[tuple[int, ...], list] = {}
    for _ in range(n_instances):
        q, keys, u = _random_instance(rng)
        m = scale_rows(u, "maxscale")
        keys = keys / np.sqrt(sq_distances(keys, 0.0, m))[:, None]  # unit weighted norm
        groups.setdefault(keys.shape, []).append((q, keys, m, sq_distances(q, keys, m)))
    worst = 0.0
    for group in groups.values():
        q, keys, m, d2 = (np.stack(a) for a in zip(*group))
        probs = weighted_kernel(q[:, None], keys, keys, m[:, None], 1.0, causal=False).attn[:, 0]
        gauss = np.exp(-(d2 - d2.min(axis=-1, keepdims=True)) / 2.0)
        gauss /= gauss.sum(axis=-1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(probs - gauss))))
    return SuiteResult(
        name="nw-equivalence",
        passed=worst <= EQUIVALENCE_ATOL,
        slack=worst - EQUIVALENCE_ATOL,
        detail=f"max weight discrepancy {worst:.3e}",
    )


def run_all_suites(seed: int = 0) -> list[SuiteResult]:
    return [
        suite_masa_jacobian(seed=seed),
        suite_robustness_bound(seed=seed),
        suite_identity_reduction(seed=seed),
        suite_nw_equivalence(seed=seed),
    ]
