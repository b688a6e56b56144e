"""Public surface: every exported name resolves, importing the package stays
cheap, and ``python -m elliptical`` runs the command line."""

import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import elliptical


EXPORTS = [
    "AttentionOutput", "ModelConfig", "NWDataset", "SyntheticFunction", "TrainParams",
    "attention_jacobian", "compute_kappa", "corrupt_tokens", "diagnose", "estimate_consistent",
    "estimate_overlayers", "forward", "make_rng", "nw_estimate_batch", "oracle_variability",
    "robustness_bound", "run_sparse_mse_experiment", "scale_rows", "softmax_rows",
    "sq_distances", "train", "weighted_kernel",
]


def test_exports_are_pinned():
    assert elliptical.__all__ == EXPORTS


def test_test_only_code_is_gone():
    # one weighted distance (metric.sq_distances); the Jacobian and smoothness
    # oracles live in tests/oracles.py; one metric-weighted attention, the
    # model's causal path (model._metric_rows, then attention.weighted_kernel),
    # which verify checks in place of the matrix-vector masa; a metric is one
    # plain array of weights, as scale_rows returns it; numerics.ordered_map is the
    # one thread map; a CLI key is its default (or its type when required), and a
    # tape node keeps only its backward closure
    from elliptical import attention, autodiff, cli, estimators, metric, numerics, nwlab

    gone = [(metric, "mahalanobis_distance"), (numerics, "finite_diff_jacobian"),
            (numerics, "as_vector"), (nwlab, "check_lipschitz_transfer"),
            (nwlab, "_weighted_sq_dists"), (nwlab, "_map_seeds"),
            (elliptical, "mahalanobis_distance"),
            (elliptical, "finite_diff_jacobian"), (cli, "Option"), (cli, "_parse_str"),
            (autodiff.Tensor, "_parents")]
    gone += [(module, name) for name in ("AttentionConfig", "standard_attention",
                                         "elliptical_attention", "_check_qkv",
                                         "masa", "masa_jacobian")
             for module in (attention, elliptical)]
    wrappers = {metric: ("EllipticalWeights", "apply_scaling", "identity_weights"),
                estimators: ("VariabilityEstimate",)}
    gone += [(where, name) for home, names in wrappers.items() for name in names
             for where in (home, elliptical)]
    assert [name for module, name in gone if hasattr(module, name)] == []
    assert "gradient_bounds" not in {f.name for f in fields(estimators.SyntheticFunction)}
    assert autodiff.Tensor.__repr__ is object.__repr__


def test_test_only_knobs_and_fields_are_gone():
    # points come in as an array, the lab's records keep only the fields that
    # something reads, and the finite-difference step is numerics.FD_STEP
    from elliptical import estimators, model, numerics, nwlab

    assert [m for m in (estimators, elliptical) if hasattr(m, "uniform_sampler")] == []
    assert [f.name for f in fields(nwlab.NWDataset)] == ["keys", "values"]
    assert [f.name for f in fields(nwlab.MSEReport)] == ["bandwidth", "mse", "stderr"]
    assert "layer" not in {f.name for f in fields(model.AttentionLayerState)}
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (numerics.central_differences, estimators.piecewise_step,
                         estimators.oracle_variability)}
    assert "h" not in params["central_differences"]
    assert "coord" not in params["piecewise_step"]
    assert params["oracle_variability"] == ["f", "sample_points"]


def test_every_export_resolves():
    missing = [name for name in elliptical.__all__ if not hasattr(elliptical, name)]
    assert missing == []
    assert len(set(elliptical.__all__)) == len(elliptical.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from elliptical import *", namespace)
    assert set(elliptical.__all__) <= set(namespace)


def _checkout_env() -> dict:
    src = str(Path(elliptical.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_import_loads_no_scipy():
    # scipy.stats is most of a cold start; only nw-sparse and estimator-bench
    # need it, and they import it where they call it
    code = (
        "import sys, elliptical, elliptical.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_checkout_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_module_entry_point_runs_verify(tmp_path):
    # ``python -m elliptical`` works from a checkout, without the console script
    proc = subprocess.run([sys.executable, "-m", "elliptical", "verify", "--set", f"out={tmp_path / 'v'}"],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "v" / "verify.csv").exists()
