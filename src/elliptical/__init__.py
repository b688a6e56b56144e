"""Self-attention with a diagonal Mahalanobis metric.

The metric stretches query neighborhoods along directions in which the
underlying key-to-value function varies least; its weights are estimated
from the change in value vectors between consecutive layers.  The package
bundles the metric itself, the variability estimators with their oracles,
attention kernels with analytic sensitivity bounds, a kernel-regression
laboratory, and a toy character-level transformer with collapse and
robustness diagnostics.
"""

from .attention import AttentionOutput, attention_jacobian, weighted_kernel
from .estimators import (
    SyntheticFunction,
    estimate_consistent,
    estimate_overlayers,
    oracle_variability,
)
from .metric import (
    compute_kappa,
    robustness_bound,
    scale_rows,
    sq_distances,
)
from .model import ModelConfig, TrainParams, corrupt_tokens, diagnose, forward, train
from .numerics import make_rng, softmax_rows
from .nwlab import NWDataset, nw_estimate_batch, run_sparse_mse_experiment

__all__ = [
    "AttentionOutput",
    "ModelConfig",
    "NWDataset",
    "SyntheticFunction",
    "TrainParams",
    "attention_jacobian",
    "compute_kappa",
    "corrupt_tokens",
    "diagnose",
    "estimate_consistent",
    "estimate_overlayers",
    "forward",
    "make_rng",
    "nw_estimate_batch",
    "oracle_variability",
    "robustness_bound",
    "run_sparse_mse_experiment",
    "scale_rows",
    "softmax_rows",
    "sq_distances",
    "train",
    "weighted_kernel",
]
