"""Public surface: every exported name resolves, each check that a caller of one
can trip raises, importing the package stays cheap, and ``python -m elliptical``
runs the command line."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import elliptical
from elliptical.autodiff import GradTape, leaf
from elliptical.model import init_params, synthetic_corpus
from elliptical.numerics import ParameterError


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
    # one thread map and numerics.cpu_count the one CPU count; a CLI key is its default (or its type when required), a
    # tape node keeps only its backward closure, and the linear target is an oracle
    from elliptical import attention, autodiff, cli, estimators, metric, model, numerics, nwlab

    gone = [(metric, "mahalanobis_distance"), (numerics, "finite_diff_jacobian"),
            (numerics, "as_vector"), (nwlab, "check_lipschitz_transfer"),
            (nwlab, "_weighted_sq_dists"), (nwlab, "_map_seeds"), (nwlab, "_fit_workers"),
            (elliptical, "mahalanobis_distance"),
            (elliptical, "finite_diff_jacobian"), (cli, "Option"), (cli, "_parse_str"),
            (autodiff.Tensor, "_parents"), (estimators, "linear_function")]
    # one error class for bad input: numerics.ParameterError, which model.TrainingError extends
    gone += [(module, name) for name in ("ShapeError", "EvaluationError", "InputError")
             for module in (numerics, model, elliptical)]
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


def test_one_error_class_for_bad_input():
    # every package check raises ParameterError (training's divergence is one too), so the
    # CLI's one error clause reaches every check; UsageError is the CLI's own exit 2
    from elliptical import cli, model

    modules = [importlib.import_module(f"elliptical.{info.name}")
               for info in pkgutil.iter_modules(elliptical.__path__) if info.name != "__main__"]
    defined = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    assert defined == {ParameterError, model.TrainingError, cli.UsageError}


def test_test_only_knobs_and_fields_are_gone():
    # points come in as an array, the lab's records keep only the fields that
    # something reads, the finite-difference step is numerics.FD_STEP, and the edge
    # experiment works out its own thread count
    from elliptical import estimators, model, numerics, nwlab

    assert [m for m in (estimators, elliptical) if hasattr(m, "uniform_sampler")] == []
    assert [f.name for f in fields(nwlab.NWDataset)] == ["keys", "values"]
    assert [f.name for f in fields(nwlab.MSEReport)] == ["bandwidth", "mse", "stderr"]
    assert "layer" not in {f.name for f in fields(model.AttentionLayerState)}
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (numerics.central_differences, estimators.piecewise_step,
                         estimators.oracle_variability, nwlab.run_edge_preservation_experiment)}
    assert "h" not in params["central_differences"]
    assert "coord" not in params["piecewise_step"]
    assert params["oracle_variability"] == ["f", "sample_points"]
    assert params["run_edge_preservation_experiment"] == ["cfg"]


_TINY = elliptical.ModelConfig(vocab_size=5, layers=1, heads=1, head_dim=4, embed_dim=4,
                               ff_dim=4, context=8)


def _forward_with(name, shape):
    """The public ``forward`` on a tiny model whose parameter ``name`` is zeros of ``shape``."""
    params = init_params(_TINY)
    params[name] = leaf(np.zeros(shape))
    return elliptical.forward([0, 1, 2], params, _TINY, GradTape())


def _sine_at_infinity():
    with np.errstate(invalid="ignore"):  # sin(inf) is NaN, and numpy warns of it
        return elliptical.SyntheticFunction("sine", 1, 1, np.sin)([[np.inf]])


#: each check in the package that a caller of an exported name can trip, where numpy
#: would raise nothing or something else: (call, exception, message fragment)
PUBLIC_INPUT_PROBES = {
    # numpy would broadcast a (1, 1) bias over the whole row
    "forward-bias-not-a-row": (lambda: _forward_with("l0.b1", (1, 1)), ParameterError, "add"),
    # an (out_dim, n) output has the elements of an (n, out_dim) one and would reshape silently
    "synthetic-function-transposed-output": (
        lambda: elliptical.SyntheticFunction("t", 2, 2, lambda p: p.T)(np.zeros((3, 2))),
        ParameterError, "returned shape"),
    "synthetic-function-non-finite-output": (_sine_at_infinity, ParameterError, "non-finite"),
    **{f"estimate-consistent-t-{t}": (
        lambda t=t: elliptical.estimate_consistent(np.sin, np.zeros((2, 1)), t),
        ParameterError, "t must be positive") for t in (0.0, float("nan"))},
    # the model would train, but the corruption token would have no embedding row
    "train-corpus-vocabulary-too-large": (
        lambda: elliptical.train(synthetic_corpus(0, 100), _TINY, elliptical.TrainParams(1)),
        ParameterError, "vocabulary"),
    "nw-estimate-batch-vector-queries": (
        lambda: elliptical.nw_estimate_batch(
            np.zeros(2), elliptical.NWDataset(np.zeros((5, 2)), np.zeros((5, 1))), 0.5, np.ones(2)),
        ParameterError, "2-D"),
    "nw-dataset-row-mismatch": (
        lambda: elliptical.NWDataset(np.zeros((3, 2)), np.zeros((2, 1))),
        ParameterError, "one row per sample"),
    # the package does not check an inner dimension: numpy's matmul reports it
    "forward-weight-inner-dimension": (
        lambda: _forward_with("l0.wq", (3, 4)), ValueError, "matmul"),
}


@pytest.mark.parametrize("probe", sorted(PUBLIC_INPUT_PROBES))
def test_public_input_check(probe):
    call, error, message = PUBLIC_INPUT_PROBES[probe]
    with pytest.raises(error, match=message):
        call()


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
