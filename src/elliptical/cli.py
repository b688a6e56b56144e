"""Experiment runner: every subsystem behind one executable with flat
``key = value`` config files, per-key CLI overrides, seeded reproducibility
and CSV outputs.  Identical (config, seed) pairs produce byte-identical
output files.

Subcommands: nw-sparse, edge-preserve, estimator-bench, train-lm, diagnose,
verify.  The environment variable ELLIPTICAL_OUT sets the root for relative
output directories; exit status is 0 only when everything passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, get_type_hints

import numpy as np

from . import estimators, model, nwlab, verification
from .attention import minmax_scale_rows
from .numerics import ParameterError, derive_rng

_NS_BENCH = 41

EXPERIMENT_CSV_HEADER = ("experiment", "estimator", "seed", "n", "bandwidth", "metric", "value")

#: seed column value for rows aggregated over all seeds
AGGREGATE_SEED = -1


class UsageError(Exception):
    """Bad config or flags; reported with the offending key, exit status 2."""


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


#: a schema maps each key to its default, or to its type when the key is
#: required; the parser follows from that type, so a float key's default is a float
_PARSERS = {int: int, float: _parse_float, bool: _parse_bool, str: str}


def _options(cls, skip: tuple[str, ...] = ()) -> dict[str, Any]:
    """One key per dataclass field: its default, or its type if it has none."""
    types = get_type_hints(cls)
    return {
        f.name: types[f.name] if f.default is MISSING else f.default
        for f in fields(cls)
        if f.name not in skip
    }


def _build(cls, cfg: dict[str, Any], **given):
    """``cls`` from the config keys that name its fields; ``given`` wins."""
    kwargs = {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}
    return cls(**{**kwargs, **given})


def _check_at_least(cfg: dict[str, Any], low: int, *keys: str) -> None:
    for key in keys:
        if cfg[key] < low:
            raise UsageError(f"bad value for key {key!r}: need at least {low}, got {cfg[key]}")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {ln}: expected key = value")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _read_text(path: Path, error: type[Exception]) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config(schema: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    raw: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file {path} does not exist")
        raw.update(parse_config_text(_read_text(path, UsageError)))
    for item in args.set:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    cfg: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in schema:
            raise UsageError(f"unknown config key {key!r}")
        spec = schema[key]
        try:
            cfg[key] = _PARSERS[spec if isinstance(spec, type) else type(spec)](value)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad value for key {key!r}: {exc}") from exc
    for key, spec in schema.items():
        if key in cfg:
            continue
        if isinstance(spec, type):
            raise UsageError(f"missing required key {key!r}")
        cfg[key] = spec
    if not 0 <= cfg.get("seed", 0) < 2**64:  # a seed outside would alias one inside
        raise UsageError(f"bad value for key 'seed': need 0 <= seed < 2**64, got {cfg['seed']}")
    if not 0 <= cfg.get("corrupt_rate", 0) <= 1:  # a probability, checked before any work
        raise UsageError(f"bad value for key 'corrupt_rate': need 0 <= corrupt_rate <= 1, got {cfg['corrupt_rate']}")
    return cfg


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolve_out_dir(out: str) -> Path:
    """The output path; the first write makes it, so a run that fails first leaves none."""
    root = os.environ.get("ELLIPTICAL_OUT", ".")
    path = Path(out)
    return path if path.is_absolute() else Path(root) / path


def write_config_echo(out_dir: Path, cfg: dict[str, Any]) -> None:
    lines = [f"{key} = {_format_value(cfg[key])}" for key in sorted(cfg)]
    (out_dir / "config_echo.txt").write_text("\n".join(lines) + "\n")


def write_csv(
    path: Path, header: tuple[str, ...], rows: list[tuple], comment: str | None = None
) -> None:
    """Fixed CSV dialect: optional ``# comment`` line, mandatory header, comma
    separator, LF endings."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# nw-sparse.
# ---------------------------------------------------------------------------

NW_SPARSE_SCHEMA = {
    **_options(nwlab.SparseMSEConfig, skip=("truth",)),
    "n": int,
    "dim": 5,
    "truth": "sparse",  # sparse | equal
    "out": "out/nw-sparse",
}


def _nw_truth(kind: str, dim: int):
    if kind == "sparse":
        return estimators.sparse_sinusoid(dim, [0], [1.0], [2])
    if kind == "equal":
        return estimators.separable_sinusoid(np.ones(dim), np.ones(dim))
    raise UsageError(f"bad value for key 'truth': {kind!r}")


def cmd_nw_sparse(cfg: dict[str, Any], out_dir: Path, jobs: int) -> int:
    _check_at_least(cfg, 1, "dim")
    truth = _nw_truth(cfg["truth"], cfg["dim"])
    result = nwlab.run_sparse_mse_experiment(
        _build(nwlab.SparseMSEConfig, cfg, truth=truth), jobs=jobs
    )
    rows = []
    for s in range(cfg["seeds"]):
        for label, mses, bws in (
            ("euclidean", result.per_seed_euclidean, result.bandwidths_euclidean),
            ("elliptical", result.per_seed_elliptical, result.bandwidths_elliptical),
        ):
            rows.append(
                ("nw-sparse", label, s, cfg["n"], float(bws[s]), "mse", float(mses[s]))
            )
    for label, report in (("euclidean", result.euclidean), ("elliptical", result.elliptical)):
        rows.append(("nw-sparse", label, AGGREGATE_SEED, cfg["n"], report.bandwidth, "mse_mean", report.mse))
        rows.append(("nw-sparse", label, AGGREGATE_SEED, cfg["n"], report.bandwidth, "mse_stderr", report.stderr))
    rows.append(("nw-sparse", "elliptical", AGGREGATE_SEED, cfg["n"], result.elliptical.bandwidth, "p_value_less", result.p_value_less))

    pooled = float(np.hypot(result.euclidean.stderr, result.elliptical.stderr))
    gap = result.elliptical.mse - result.euclidean.mse
    if cfg["truth"] == "sparse":
        passed = gap < 0 and result.p_value_less < 0.05
        verdict = f"elliptical < euclidean, p={result.p_value_less:.4g}"
    else:
        passed = abs(gap) <= 2.0 * pooled
        verdict = f"|gap|={abs(gap):.4g} vs 2*pooled_se={2 * pooled:.4g}"
    rows.append(("nw-sparse", "both", AGGREGATE_SEED, cfg["n"], 0.0, "direction_pass", float(passed)))
    write_csv(out_dir / "results.csv", EXPERIMENT_CSV_HEADER, rows)
    print(f"nw-sparse direction: {'PASS' if passed else 'FAIL'} ({verdict})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# edge-preserve.
# ---------------------------------------------------------------------------

EDGE_SCHEMA = {
    **_options(nwlab.EdgeConfig),
    "n": int,
    "out": "out/edge-preserve",
}


def cmd_edge_preserve(cfg: dict[str, Any], out_dir: Path, jobs: int) -> int:
    result = nwlab.run_edge_preservation_experiment(_build(nwlab.EdgeConfig, cfg), jobs=jobs)
    rows = []
    for s in range(cfg["seeds"]):
        rows.append(("edge-preserve", "euclidean", s, cfg["n"], 0.0, "estimate_distance", float(result.per_seed_euclidean[s])))
        rows.append(("edge-preserve", "elliptical", s, cfg["n"], 0.0, "estimate_distance", float(result.per_seed_elliptical[s])))
    rows.append(("edge-preserve", "euclidean", AGGREGATE_SEED, cfg["n"], 0.0, "distance_mean", result.euclidean_mean))
    rows.append(("edge-preserve", "elliptical", AGGREGATE_SEED, cfg["n"], 0.0, "distance_mean", result.elliptical_mean))
    rows.append(("edge-preserve", "both", AGGREGATE_SEED, cfg["n"], 0.0, "piece_distance", result.piece_distance))
    passed = result.elliptical_mean >= result.euclidean_mean
    rows.append(("edge-preserve", "both", AGGREGATE_SEED, cfg["n"], 0.0, "direction_pass", float(passed)))
    write_csv(out_dir / "results.csv", EXPERIMENT_CSV_HEADER, rows)
    print(
        f"edge-preserve direction: {'PASS' if passed else 'FAIL'} "
        f"(elliptical {result.elliptical_mean:.4g} vs euclidean {result.euclidean_mean:.4g})"
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# estimator-bench.
# ---------------------------------------------------------------------------

BENCH_SCHEMA = {
    "seeds": 20,
    "seed": 0,
    "n": 2048,
    "delta": 1.0,
    "noise_std": 0.01,
    "out": "out/estimator-bench",
}


def cmd_estimator_bench(cfg: dict[str, Any], out_dir: Path) -> int:
    _check_at_least(cfg, 1, "seeds", "n")
    from scipy import stats  # here, not at module level: it is the package's slowest import

    catalog = estimators.ranking_catalog()
    rows = []

    taus = []
    for s in range(cfg["seeds"]):
        rng = derive_rng(cfg["seed"], _NS_BENCH, s)
        pair = estimators.simulate_layer_pair(
            catalog, cfg["n"], cfg["delta"], cfg["noise_std"], rng
        )
        over = estimators.estimate_overlayers(pair.v_curr, pair.v_prev, cfg["delta"])[-1]
        oracle = estimators.oracle_variability(catalog, rng.uniform(-np.pi, np.pi, (200, catalog.dim)))
        tau = float(stats.kendalltau(over, oracle).statistic)
        taus.append(tau)
        rows.append(("estimator-bench", "overlayers", s, cfg["n"], 0.0, "kendall_tau", tau))
    rows.append(("estimator-bench", "overlayers", AGGREGATE_SEED, cfg["n"], 0.0, "kendall_tau_min", float(np.min(taus))))

    mixed = estimators.separable_sinusoid([1.0, 1.0, 0.0], [1, 1, 1], [0.0, np.pi / 2, 0.0])
    sizes, errors = estimators.consistency_error_curve(
        mixed, (100, 1000, 10_000, 100_000), t=0.01, seeds=5, seed=cfg["seed"]
    )
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    for n_mc, err in zip(sizes, errors):
        rows.append(("estimator-bench", "consistent", AGGREGATE_SEED, int(n_mc), 0.0, "mean_abs_error", float(err)))
    rows.append(("estimator-bench", "consistent", AGGREGATE_SEED, cfg["n"], 0.0, "loglog_slope", slope))

    for sigma in (0.01, 0.1):
        rng = derive_rng(cfg["seed"], _NS_BENCH, 10_000 + int(sigma * 1000))
        slack = estimators.noise_drift_slack(catalog, sigma, 10_000, rng)
        rows.append(("estimator-bench", "overlayers", AGGREGATE_SEED, 10_000, 0.0, f"noise_slack_sigma_{sigma}", slack))

    write_csv(out_dir / "results.csv", EXPERIMENT_CSV_HEADER, rows)
    print(
        f"estimator-bench: min kendall tau {np.min(taus):.3f}, "
        f"consistency slope {slope:.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# train-lm.
# ---------------------------------------------------------------------------

CORPUS_SCHEMA = {
    "corpus": "synthetic",  # synthetic | alternating | file
    "corpus_file": "",
    "corpus_length": 8192,
    "corpus_symbols": 12,
    "corpus_order": 2,
}

TRAIN_SCHEMA = {
    **CORPUS_SCHEMA,
    **_options(model.ModelConfig, skip=("vocab_size",)),
    **_options(model.TrainParams),
    "eval_tokens": 1024,
    "corrupt": False,
    "corrupt_rate": model.CORRUPT_RATE,
    "resume": "",
    "out": "out/train-lm",
}


def _build_corpus(cfg: dict[str, Any]) -> model.Corpus:
    kind = cfg["corpus"]
    if kind == "synthetic":
        return model.synthetic_corpus(
            cfg["seed"], cfg["corpus_length"], cfg["corpus_symbols"], cfg["corpus_order"]
        )
    if kind == "alternating":
        return model.alternating_corpus(cfg["corpus_length"])
    if kind == "file":
        path = Path(cfg["corpus_file"])
        if not cfg["corpus_file"] or not path.exists():
            raise FileNotFoundError(f"corpus file {cfg['corpus_file']!r} does not exist")
        return model.corpus_from_text(_read_text(path, model.InputError))
    raise UsageError(f"bad value for key 'corpus': {kind!r}")


def cmd_train_lm(cfg: dict[str, Any], out_dir: Path) -> int:
    _check_at_least(cfg, 2, "eval_tokens")  # tokens[-0:] would be the whole corpus
    corpus = _build_corpus(cfg)
    eval_count = min(cfg["eval_tokens"], corpus.tokens.size // 4)
    train_tokens = corpus.tokens[: corpus.tokens.size - eval_count]
    eval_tokens = corpus.tokens[corpus.tokens.size - eval_count :]
    train_corpus = model.Corpus(train_tokens, corpus.charset)

    mcfg = _build(model.ModelConfig, cfg, vocab_size=corpus.vocab_size)
    tp = _build(model.TrainParams, cfg)
    if cfg["resume"]:
        ckpt_path = Path(cfg["resume"])
        if not ckpt_path.exists():
            raise FileNotFoundError(f"checkpoint {ckpt_path} does not exist")
        ckpt = model.load_checkpoint(ckpt_path)
        if ckpt.cfg != mcfg:
            raise UsageError("resume checkpoint was trained with a different config")
        result = model.train(train_corpus, mcfg, tp, ckpt.params, ckpt.opt, ckpt.step)
    else:
        result = model.train(train_corpus, mcfg, tp)

    out_dir.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(out_dir / "checkpoint.bin", result.params, mcfg, result.opt, result.steps_done)
    first_step = result.steps_done - cfg["steps"]
    write_csv(
        out_dir / "loss.csv",
        ("step", "loss"),
        [(first_step + i, float(l)) for i, l in enumerate(result.losses)],
    )
    metrics: list[tuple] = [
        ("ppl_clean", model.perplexity(result.params, mcfg, eval_tokens))
    ]
    if cfg["corrupt"]:
        rng = derive_rng(cfg["seed"], model.NS_EVAL, 1)
        metrics.append(
            (
                "ppl_corrupt",
                model.perplexity(
                    result.params, mcfg, eval_tokens, corrupt_rate=cfg["corrupt_rate"], rng=rng
                ),
            )
        )
    write_csv(out_dir / "metrics.csv", ("metric", "value"), metrics)
    print(f"train-lm: {cfg['steps']} steps, final loss {result.losses[-1] if result.losses else float('nan'):.4f}")
    return 0


# ---------------------------------------------------------------------------
# diagnose.
# ---------------------------------------------------------------------------

DIAGNOSE_SCHEMA = {
    "checkpoint": str,
    **CORPUS_SCHEMA,
    "eval_tokens": 512,
    "epsilons": "0.01,0.1,1.0",
    "corrupt_rate": model.CORRUPT_RATE,
    "seed": 0,
    "out": "out/diagnose",
}


def _parse_epsilons(text: str) -> tuple[float, ...]:
    try:
        scales = tuple(float(x) for x in text.split(",") if x)
    except ValueError:
        scales = ()
    if not scales or not all(0.0 < s < np.inf for s in scales):  # NaN fails too
        raise UsageError(f"bad value for key 'epsilons': {text!r}; need finite, positive scales")
    return scales


def cmd_diagnose(cfg: dict[str, Any], out_dir: Path) -> int:
    _check_at_least(cfg, 2, "eval_tokens")
    epsilons = _parse_epsilons(cfg["epsilons"])
    ckpt_path = Path(cfg["checkpoint"])
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint {ckpt_path} does not exist")
    ckpt = model.load_checkpoint(ckpt_path)
    corpus_cfg = dict(cfg)
    corpus_cfg["seed"] = ckpt.cfg.seed  # eval stream follows the trained model
    corpus = _build_corpus(corpus_cfg)
    if corpus.vocab_size != ckpt.cfg.vocab_size:
        raise ParameterError(f"corpus vocab_size {corpus.vocab_size} != checkpoint's {ckpt.cfg.vocab_size}")
    eval_tokens = corpus.tokens[-cfg["eval_tokens"] :]
    rng = derive_rng(cfg["seed"], model.NS_EVAL, 2)
    report = model.diagnose(
        ckpt.params, ckpt.cfg, eval_tokens, epsilons, rng, corrupt_rate=cfg["corrupt_rate"]
    )

    rows: list[tuple] = []
    for li in range(ckpt.cfg.layers):
        rows.append(("cosine_similarity", li + 1, report.cosine_by_layer[li]))
    for li in range(ckpt.cfg.layers):
        rows.append(("head_distance", li + 1, report.head_distance_by_layer[li]))
    for si, scale in enumerate(epsilons):
        for li in range(ckpt.cfg.layers):
            rows.append((f"robustness_eps_{scale}", li + 1, float(report.robustness[li, si])))
    write_csv(out_dir / "diagnostics.csv", ("metric", "layer", "value"), rows)
    write_csv(
        out_dir / "metrics.csv",
        ("metric", "value"),
        [
            ("ppl_clean", report.ppl_clean),
            ("ppl_corrupt", report.ppl_corrupt),
            ("robustness_sup", report.robustness_sup),
        ],
    )

    for stale in out_dir.glob("heatmap_l*_h*.csv"):  # an earlier run's, maybe more heads
        stale.unlink()
    for li, maps in enumerate(report.attention):
        for h, attn in enumerate(maps):
            scaled = minmax_scale_rows(attn)
            write_csv(
                out_dir / f"heatmap_l{li + 1}_h{h}.csv",
                ("query",) + tuple(f"key{j}" for j in range(scaled.shape[1])),
                [(i,) + tuple(float(x) for x in row) for i, row in enumerate(scaled)],
                comment="rows min-max scaled to [0,1]; constant rows map to all zeros",
            )
    n_maps = sum(len(maps) for maps in report.attention)
    print(f"diagnose: wrote per-layer metrics and {n_maps} heatmaps")
    return 0


# ---------------------------------------------------------------------------
# verify.
# ---------------------------------------------------------------------------

VERIFY_SCHEMA = {
    "seed": 0,
    "out": "out/verify",
}


def cmd_verify(cfg: dict[str, Any], out_dir: Path) -> int:
    results = verification.run_all_suites(seed=cfg["seed"])
    rows = [(r.name, int(r.passed), r.slack, r.detail) for r in results]
    write_csv(out_dir / "verify.csv", ("suite", "passed", "slack", "detail"), rows)
    for r in results:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} (max slack {r.slack:.3e}; {r.detail})")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

COMMANDS: dict[str, tuple[dict[str, Any], Callable[..., int]]] = {
    "nw-sparse": (NW_SPARSE_SCHEMA, cmd_nw_sparse),
    "edge-preserve": (EDGE_SCHEMA, cmd_edge_preserve),
    "estimator-bench": (BENCH_SCHEMA, cmd_estimator_bench),
    "train-lm": (TRAIN_SCHEMA, cmd_train_lm),
    "diagnose": (DIAGNOSE_SCHEMA, cmd_diagnose),
    "verify": (VERIFY_SCHEMA, cmd_verify),
}


class _Parser(argparse.ArgumentParser):
    """argparse's errors, its subcommands' too, become one-line UsageErrors."""

    def error(self, message: str):
        raise UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="elliptical",
        description="Experiment runner for metric-weighted attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="flat key = value config file")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a single config key",
        )
        if name in ("nw-sparse", "edge-preserve"):  # the commands that map over seeds
            cmd.add_argument("--jobs", type=int, default=1, help="threads across seeds")
    try:
        args = parser.parse_args(argv)
        schema, runner = COMMANDS[args.command]
        jobs = getattr(args, "jobs", None)
        if jobs is not None and jobs < 1:
            raise UsageError(f"bad value for --jobs: need at least 1, got {jobs}")
        cfg = load_config(schema, args)
        out_dir = resolve_out_dir(cfg["out"])
        code = runner(cfg, out_dir) if jobs is None else runner(cfg, out_dir, jobs)
        # only a run that finished echoes its config, beside its outputs
        write_config_echo(out_dir, cfg)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, model.InputError, model.TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
