"""Benchmark of the elliptical package: three seeded workloads, end-to-end
metrics from untraced runs and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload lm-train --seed 1 --seconds 35 --trace 0

Three loops drive the package's public functions (one process, BLAS pinned
to one thread, at most nproc worker threads):

  train  three variants (standard, elliptical maxscale, meanscale) share one
         init and one corpus and train interleaved step by step, alternating
         their order each round.
  eval   load_checkpoint, clean and corrupted-context perplexity, one
         per-sequence forward per 64-token window, diagnose.  Forward only:
         no backward pass and no optimiser.
  lab    nw-sparse kernel regression over a block of seeds at jobs = nproc,
         plus the verify property suites.  No tape, no model.

Every run must report every metric, so every workload runs all three loops,
interleaved over the whole run; a workload is the number of units of each
loop per cycle (``MIX``), which gives its own loop just over half the time.
Set-up (a fresh interpreter's imports; corpus, init, training and writing
the eval checkpoint) is repeated and its median reported; the run ends with
save_checkpoint of every variant, as train-lm does.

End-to-end times are medians of samples scaled to a reference host speed,
measured by a fixed kernel of the benchmark's own before every unit (see
``REFERENCE_MS``); the wall-clock samples stay in the details.

The last line of standard output is the result; the line before it holds
the run's details (machine facts, load, reference-kernel times, wall-clock
samples, loss digests, failures).  ``--trace 1`` reports the per-layer metrics
instead, from units traced in alternation with untraced ones, and writes
every span to ``perfbench/_runs/``.  ``--smoke`` shrinks every size so the
schema can be checked in seconds; its timings mean nothing.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

WORKLOADS = ("lm-train", "lm-eval", "lab")
VARIANTS = (
    ("standard", False, "maxscale"),
    ("elliptical", True, "maxscale"),
    ("meanscale", True, "meanscale"),
)


def _pin_blas() -> None:
    # before numpy loads: lab runs nproc worker threads, each must stay one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


#: glibc serves allocations above its mmap threshold with fresh mappings and
#: raises the threshold after freeing one, so whether the package's large
#: arrays are page-faulted in on every call depends on allocation history.
#: Left dynamic, whole runs landed in one of two modes (2,048-token
#: perplexity 60 or 83 ms, peak RSS 214 or 177 MB).  A fixed threshold keeps
#: every run on one path.
MMAP_THRESHOLD = 32 * 1024 * 1024


def _pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(
        mallopt(m_mmap_threshold, MMAP_THRESHOLD)
        and mallopt(m_trim_threshold, 2 * MMAP_THRESHOLD)
    )


PACKAGE_MODULES = (
    "numerics", "autodiff", "estimators", "metric", "attention", "nwlab", "model",
    "verification",
)


def _import_package():
    if not (SRC / "elliptical" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'elliptical'}")
    sys.path.insert(0, str(SRC))
    import importlib

    import numpy
    import scipy

    modules = {m: importlib.import_module(f"elliptical.{m}") for m in PACKAGE_MODULES}
    return numpy, scipy, modules


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use; ``SMOKE`` is the schema-check config."""

    corpus_tokens: int = 12288
    eval_tokens: int = 2048
    model: dict = field(
        default_factory=lambda: dict(
            layers=4, heads=2, head_dim=16, embed_dim=32, ff_dim=64, context=64
        )
    )
    batch: int = 8
    ckpt_steps: int = 10
    corrupt_draws: int = 4
    diagnose_tokens: int = 512
    epsilons: tuple = (0.01, 0.1, 1.0)
    nw_n: int = 500
    nw_dim: int = 5
    nw_queries: int = 500
    nw_block: int = 5
    setup_repeats: int = 3
    digest_steps: int = 8
    reference_reps: int = 60


SMOKE = Sizes(
    corpus_tokens=1024,
    eval_tokens=128,
    model=dict(layers=2, heads=2, head_dim=4, embed_dim=8, ff_dim=16, context=16),
    batch=2,
    ckpt_steps=2,
    corrupt_draws=1,
    diagnose_tokens=64,
    epsilons=(0.1,),
    nw_n=80,
    nw_dim=3,
    nw_queries=40,
    nw_block=5,
    setup_repeats=2,
    digest_steps=2,
    reference_reps=2,
)


# ---------------------------------------------------------------------------
# Summary statistics.
# ---------------------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, int, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples).  With 10 samples or fewer no such
    percentile exists and the smallest sample stands in.
    """
    s = sorted(xs)
    n = len(s)
    idx = max(n - 11, 0)
    return float(s[idx]), int(100 * (idx + 1) // n), n


def window_spans(n_tokens: int, context: int) -> list[tuple[int, int]]:
    """The (start, end) windows ``perplexity`` scores: context+1 tokens every
    context tokens; a window scores end - start - 1 targets."""
    window = context + 1
    spans = []
    for start in range(0, max(n_tokens - window + 1, 1), context):
        end = min(start + window, n_tokens)
        if end - start >= 2:
            spans.append((start, end))
    return spans


# ---------------------------------------------------------------------------
# The run: operations, checks, units.
# ---------------------------------------------------------------------------


class Run:
    """One benchmark process: sizes, seed, op accounting and the tracer."""

    def __init__(self, np, modules, sizes: Sizes, seed: int, tracer, workdir: Path):
        self.np = np
        self.m = modules
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = Reference(np, sizes.reference_reps)
        self.reference_ms: list[float] = []
        self.samples: dict[str, list[tuple[float, int]]] = {}
        self.walls: list[tuple[str, str | None, bool, float, int]] = []
        self.detail: dict = {}

    def calibrate(self) -> None:
        """Time the reference kernel once more."""
        self.reference_ms.append(self.reference.ms())

    def sample(self, key: str, seconds: float) -> None:
        """Record a wall time with the index of the latest calibration."""
        self.samples.setdefault(key, []).append((seconds, len(self.reference_ms) - 1))

    def scaled(self, key: str) -> list[float]:
        """Samples scaled to the reference host speed.

        Each sample is multiplied by REFERENCE_MS over the median reference
        time of the calibrations around it (``SPEED_WINDOW`` on each side),
        which follows drifts of host speed but not single noisy readings.
        """
        return [self.scale(secs, i) for secs, i in self.samples[key]]

    def scale(self, secs: float, i: int) -> float:
        if not self.reference_ms:
            return secs
        nearby = self.reference_ms[max(i - SPEED_WINDOW, 0) : i + SPEED_WINDOW + 1]
        return secs * REFERENCE_MS / median(nearby)

    def op(self, label: str, fn, check=None):
        """Run one operation; it fails when it raises or its check fails.

        Returns (result, seconds); result is None on failure.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, not fatal
            secs = time.perf_counter() - start
            self._fail(label, traceback.format_exc(limit=3))
            return None, secs
        secs = time.perf_counter() - start
        if check is not None:
            problem = check(result)
            if problem:
                self._fail(label, problem)
                return None, secs
        return result, secs

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label}: {why.strip()}")

    @contextmanager
    def unit(self, kind: str, variant: str | None, index: int):
        """One unit, timed; traced units alternate with untraced ones."""
        traced = self.tracer is not None and index % 2 == 0
        with self.tracer.unit(kind, variant) if traced else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                wall = time.perf_counter() - start
                self.walls.append((kind, variant, traced, wall, len(self.reference_ms) - 1))


# ---------------------------------------------------------------------------
# lm-train.
# ---------------------------------------------------------------------------


class TrainLoop:
    """Three variants on one init and one corpus, stepped one at a time."""

    def __init__(self, run: Run):
        model, sz = run.m["model"], run.sizes
        self.run = run
        corpus = model.synthetic_corpus(run.seed, sz.corpus_tokens)
        self.corpus = model.Corpus(corpus.tokens[: -sz.eval_tokens], corpus.charset)
        self.eval_tokens = corpus.tokens[-sz.eval_tokens :]
        self.tp = model.TrainParams(steps=1, batch_size=sz.batch)
        self.state = {}
        for name, elliptical, scaling in VARIANTS:
            cfg = model.ModelConfig(
                vocab_size=corpus.vocab_size,
                elliptical=elliptical,
                scaling=scaling,
                seed=run.seed,
                **sz.model,
            )
            params = model.init_params(cfg)
            self.state[name] = {
                "cfg": cfg, "params": params, "opt": model.AdamState(params),
                "step": 0, "losses": [],
            }
        self.rounds = 0

    def _step(self, name: str) -> None:
        run, st = self.run, self.state[name]
        np, model = run.np, run.m["model"]

        def step():
            return model.train(
                self.corpus, st["cfg"], self.tp, st["params"], st["opt"], st["step"]
            )

        def check(res):
            if len(res.losses) != 1 or not np.isfinite(res.losses[0]):
                return "loss is not finite"
            if st["step"] == 0 and abs(res.losses[0] - math.log(st["cfg"].vocab_size)) > 0.1:
                return f"first loss {res.losses[0]} is not near log(vocab)"
            return None

        with run.unit("train", name, self.rounds):
            res, secs = run.op(f"train {name} step {st['step']}", step, check)
        st["step"] += 1
        if res is not None:
            st["losses"].extend(res.losses)
            run.sample(f"train.{name}", secs)

    def unit(self) -> None:
        """One round: every variant steps once, order alternating by round."""
        order = VARIANTS if self.rounds % 2 == 0 else VARIANTS[::-1]
        for name, _, _ in order:
            self._step(name)
        self.rounds += 1

    def save(self) -> None:
        """save_checkpoint for every variant."""
        run, model = self.run, self.run.m["model"]
        for i, (name, _, _) in enumerate(VARIANTS):
            st = self.state[name]
            path = run.workdir / f"{name}.ckpt"
            with run.unit("save", name, i):
                run.op(
                    f"save {name}",
                    lambda: model.save_checkpoint(
                        path, st["params"], st["cfg"], st["opt"], st["step"]
                    ),
                    lambda _: None if path.stat().st_size > 0 else "empty checkpoint",
                )

    def report(self) -> dict:
        sz = self.run.sizes
        digests = {}
        for name, st in self.state.items():
            head = self.run.np.asarray(st["losses"][: sz.digest_steps], dtype="<f8")
            digests[name] = {
                "steps": st["step"],
                "first_losses_sha256": hashlib.sha256(head.tobytes()).hexdigest()[:16],
                "digest_steps": int(head.size),
                "final_loss": st["losses"][-1] if st["losses"] else None,
            }
        return {"rounds": self.rounds, "loss_digests": digests}


# ---------------------------------------------------------------------------
# lm-eval.
# ---------------------------------------------------------------------------


class EvalLoop:
    """Forward-only work on one checkpoint and one eval stream."""

    def __init__(self, run: Run, checkpoint: Path, eval_tokens):
        self.run = run
        self.checkpoint = checkpoint
        self.tokens = eval_tokens
        self.clean_ppl = None
        self.iters = 0
        self.cosine = None  # mean final-layer cosine over the last iteration's windows

    @staticmethod
    def setup(run: Run, trainer: "TrainLoop") -> "EvalLoop":
        """Train an elliptical checkpoint on the shared corpus and write it."""
        model, sz = run.m["model"], run.sizes
        cfg = trainer.state["elliptical"]["cfg"]
        res = model.train(
            trainer.corpus, cfg, model.TrainParams(steps=sz.ckpt_steps, batch_size=sz.batch)
        )
        path = run.workdir / "eval.ckpt"
        model.save_checkpoint(path, res.params, cfg, res.opt, res.steps_done)
        return EvalLoop(run, path, trainer.eval_tokens)

    def unit(self) -> None:
        run, sz = self.run, self.run.sizes
        np, model, numerics = run.np, run.m["model"], run.m["numerics"]
        with run.unit("eval", None, self.iters):
            ckpt, _ = run.op(
                "load_checkpoint",
                lambda: model.load_checkpoint(self.checkpoint),
                lambda c: None if c.params.keys() == c.opt.m.keys() else "tables disagree",
            )
            if ckpt is None:
                self.iters += 1
                return
            params, cfg = ckpt.params, ckpt.cfg
            n_scored = sum(b - a - 1 for a, b in window_spans(self.tokens.size, cfg.context))

            def clean_check(ppl):
                if not np.isfinite(ppl) or ppl < 1.0:
                    return f"perplexity {ppl}"
                if self.clean_ppl is not None and ppl != self.clean_ppl:
                    return f"perplexity {ppl!r} differs from {self.clean_ppl!r}"
                return None

            ppl, secs = run.op(
                "perplexity clean", lambda: model.perplexity(params, cfg, self.tokens), clean_check
            )
            run.sample("eval.ppl_s_per_token", secs / n_scored)
            if ppl is not None:
                self.clean_ppl = ppl
            for draw in range(sz.corrupt_draws):
                rng = numerics.derive_rng(run.seed, 109, draw)
                _, secs = run.op(
                    f"perplexity corrupt {draw}",
                    lambda: model.perplexity(
                        params, cfg, self.tokens, corrupt_rate=0.025, rng=rng,
                        corrupt_targets=False,
                    ),
                    lambda p: None if np.isfinite(p) and p >= 1.0 else f"perplexity {p}",
                )
                run.sample("eval.ppl_s_per_token", secs / n_scored)

            logits_by_start = {}
            cos = []
            for w in range(self.tokens.size // cfg.context):
                seq = self.tokens[w * cfg.context : (w + 1) * cfg.context]

                def window():
                    return model.forward(seq, params, cfg, model.GradTape())

                out, secs = run.op(
                    f"forward window {w}", window,
                    lambda o: None if np.all(np.isfinite(o[0].value)) else "non-finite logits",
                )
                run.sample("eval.window_s", secs)
                if out is not None:
                    logits_by_start[w * cfg.context] = out[0].value
                    cos.append(model.mean_pairwise_cosine(out[1][-1].representation))
            if cos:
                self.cosine = float(np.mean(cos))
            if ppl is not None:
                run.op(
                    "perplexity equals per-window forward NLL",
                    lambda: self._window_nll_ppl(params, cfg, logits_by_start),
                    lambda ref: None if abs(ref - ppl) <= 1e-12 * abs(ppl)
                    else f"stacked {ppl!r} vs per-window {ref!r}",
                )

            _, secs = run.op(
                "diagnose",
                lambda: model.diagnose(
                    params, cfg, self.tokens[-sz.diagnose_tokens :], sz.epsilons,
                    numerics.derive_rng(run.seed, model.NS_EVAL, 2),
                ),
                self._diagnose_check,
            )
            run.sample("eval.diagnose_s", secs)
        self.iters += 1

    def _window_nll_ppl(self, params, cfg, logits_by_start) -> float:
        """exp(mean NLL) over the perplexity windows, from per-sequence forward."""
        np, model, numerics = self.run.np, self.run.m["model"], self.run.m["numerics"]
        total, count = 0.0, 0
        for a, b in window_spans(self.tokens.size, cfg.context):
            logits = logits_by_start.get(a)
            if logits is None or logits.shape[0] != b - a - 1:
                logits = model.forward(self.tokens[a : b - 1], params, cfg, model.GradTape())[0].value
            probs = numerics.softmax_rows(logits)
            targets = self.tokens[a + 1 : b]
            total += float(-np.log(probs[np.arange(targets.size), targets]).sum())
            count += targets.size
        return float(np.exp(total / count))

    def _diagnose_check(self, rep):
        np = self.run.np
        values = np.concatenate(
            [rep.cosine_by_layer, rep.head_distance_by_layer, rep.robustness.ravel(),
             [rep.ppl_clean, rep.ppl_corrupt, rep.robustness_sup]]
        )
        if not np.all(np.isfinite(values)):
            return "non-finite diagnostics"
        if rep.robustness_sup <= 0 or max(abs(c) for c in rep.cosine_by_layer) > 1 + 1e-12:
            return "diagnostics out of range"
        return None

    def report(self) -> dict:
        return {
            "iterations": self.iters,
            "clean_perplexity": self.clean_ppl,
            "final_layer_cosine": self.cosine,
        }


# ---------------------------------------------------------------------------
# lab.
# ---------------------------------------------------------------------------


class LabLoop:
    """nw-sparse seed blocks at jobs = nproc and the verify suites, in turn."""

    def __init__(self, run: Run):
        sz = run.sizes
        self.run = run
        self.truth = run.m["estimators"].sparse_sinusoid(sz.nw_dim, [0], [1.0], [2])
        self.iters = 0
        self.blocks = 0
        self.verifies = 0

    def nw_block(self, jobs: int, label: str):
        run, nwlab, sz = self.run, self.run.m["nwlab"], self.run.sizes
        cfg = nwlab.SparseMSEConfig(
            truth=self.truth, n=sz.nw_n, n_queries=sz.nw_queries, seeds=sz.nw_block,
            seed=run.seed * 1_000_003 + self.blocks,
        )

        def check(res):
            if not (res.elliptical.mse < res.euclidean.mse and res.p_value_less < 0.05):
                return (
                    f"sparse direction: elliptical {res.elliptical.mse} vs euclidean "
                    f"{res.euclidean.mse}, p={res.p_value_less}"
                )
            return None

        self.blocks += 1
        return run.op(label, lambda: nwlab.run_sparse_mse_experiment(cfg, jobs=jobs), check)

    def unit(self) -> None:
        """One nw-sparse block, or one run of the verify suites."""
        run, verification = self.run, self.run.m["verification"]
        if self.iters % 2 == 0:
            with run.unit("lab", "nw", self.blocks):
                _, secs = self.nw_block(run.nproc, f"nw-sparse block {self.blocks}")
            run.sample("lab.nw_seed_s", secs / run.sizes.nw_block)
        else:

            def check(results):
                bad = [r.name for r in results if not r.passed]
                return f"suites failed: {bad}" if bad else None

            with run.unit("lab", "verify", self.verifies):
                _, secs = run.op(
                    "verify", lambda: verification.run_all_suites(seed=run.seed), check
                )
            run.sample("lab.verify_s", secs)
            self.verifies += 1
        self.iters += 1

    def parallel_efficiency(self) -> float:
        """Untraced baseline: one block at jobs=1 against one at jobs=nproc."""
        _, t_par = self.nw_block(self.run.nproc, "nw-sparse baseline jobs=nproc")
        _, t_one = self.nw_block(1, "nw-sparse baseline jobs=1")
        return t_one / (self.run.nproc * t_par)

    def report(self) -> dict:
        return {"nw_blocks": self.blocks, "verify_runs": self.verifies, "jobs": self.run.nproc}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, span, quantity, unit kind, variant).
# Quantities are per unit of that kind: "ms" inclusive, "self_ms", "calls",
# or "count:<key>" from a counter.  "train" pools the three variants.
# ---------------------------------------------------------------------------

_TAPE_ROWS = [
    ("block_causal_attention", ("fwd", "bwd")),
    ("slice_cols", ("fwd", "bwd")),
    ("concat_cols", ("fwd", "bwd")),
    ("matmul", ("fwd", "bwd")),
    ("layer_norm", ("fwd", "bwd")),
    ("embedding", ("bwd",)),
    ("add", ("fwd", "bwd")),
    ("relu", ("fwd", "bwd")),
    ("cross_entropy", ("fwd", "bwd")),
]

PER_LAYER = [
    (f"autodiff.{op}.{part}_ms", "ms", f"autodiff.{op}.{part}", "ms", "train", None)
    for op, parts in _TAPE_ROWS
    for part in parts
] + [
    ("autodiff.block_causal_attention.calls", "count", "autodiff.block_causal_attention.fwd", "calls", "train", None),
    ("autodiff.block_causal_attention.flops_computed", "flop", "autodiff.block_causal_attention.fwd", "count:flops", "train", None),
    ("autodiff.block_causal_attention.bytes_computed", "B", "autodiff.block_causal_attention.fwd", "count:bytes", "train", None),
    ("autodiff.backward.self_ms", "ms", "autodiff.backward", "self_ms", "train", None),
    ("autodiff.nodes_per_step", "count", "autodiff.backward", "count:nodes", "train", None),
    ("estimators.prefix_overlayers_raw.ms", "ms", "estimators.prefix_overlayers_raw", "ms", "train", "elliptical"),
    ("estimators.prefix_overlayers_raw.calls", "count", "estimators.prefix_overlayers_raw", "calls", "train", "elliptical"),
    ("estimators.oracle_variability.ms", "ms", "estimators.oracle_variability", "ms", "lab", "nw"),
    ("metric.apply_scaling.ms", "ms", "metric.apply_scaling", "ms", "train", "meanscale"),
    ("metric.apply_scaling.calls", "count", "metric.apply_scaling", "calls", "train", "meanscale"),
    ("metric.apply_scaling.useful_ratio", "ratio", "metric.apply_scaling", "ratio:useful", "train", "meanscale"),
    ("metric.compute_kappa.ms", "ms", "metric.compute_kappa", "ms", "lab", "verify"),
    ("metric.compute_kappa.calls", "count", "metric.compute_kappa", "calls", "lab", "verify"),
    ("metric.robustness_bound.ms", "ms", "metric.robustness_bound", "ms", "lab", "verify"),
    ("attention.weighted_kernel.ms", "ms", "attention.weighted_kernel", "ms", "eval", None),
    ("attention.weighted_kernel.calls", "count", "attention.weighted_kernel", "calls", "eval", None),
    ("attention.masa.ms", "ms", "attention.masa", "ms", "lab", "verify"),
    ("attention.masa.calls", "count", "attention.masa", "calls", "lab", "verify"),
    ("attention.masa_jacobian.ms", "ms", "attention.masa_jacobian", "ms", "lab", "verify"),
    ("model.train.self_ms", "ms", "model.train", "self_ms", "train", None),
    ("model._metric_rows.self_ms", "ms", "model._metric_rows", "self_ms", "train", "meanscale"),
    ("model.AdamState.step.ms", "ms", "model.AdamState.step", "ms", "train", None),
    ("model.save_checkpoint.ms", "ms", "model.save_checkpoint", "ms", "save", None),
    ("model.save_checkpoint.bytes", "B", "model.save_checkpoint", "count:bytes", "save", None),
    ("model.load_checkpoint.ms", "ms", "model.load_checkpoint", "ms", "eval", None),
    ("model.perplexity.ms", "ms", "model.perplexity", "ms", "eval", None),
    ("model.forward.ms", "ms", "model.forward", "ms", "eval", None),
    ("model.forward.calls", "count", "model.forward", "calls", "eval", None),
    ("model.diagnose.self_ms", "ms", "model.diagnose", "self_ms", "eval", None),
    ("model.synthetic_corpus.ms", "ms", "model.synthetic_corpus", "ms", "setup", None),
    ("numerics.softmax_rows.ms", "ms", "numerics.softmax_rows", "ms", "eval", None),
    ("numerics.softmax_rows.calls", "count", "numerics.softmax_rows", "calls", "eval", None),
    ("numerics.finite_diff_jacobian.ms", "ms", "numerics.finite_diff_jacobian", "ms", "lab", "verify"),
    ("numerics.finite_diff_jacobian.calls", "count", "numerics.finite_diff_jacobian", "calls", "lab", "verify"),
    ("numerics.derive_rng.calls", "count", "numerics.derive_rng", "calls", "lab", "nw"),
    ("nwlab.cross_validate_bandwidth.ms", "ms", "nwlab.cross_validate_bandwidth", "ms", "lab", "nw"),
    ("nwlab.nw_estimate_batch.ms", "ms", "nwlab.nw_estimate_batch", "ms", "lab", "nw"),
    ("nwlab.nw_estimate_batch.calls", "count", "nwlab.nw_estimate_batch", "calls", "lab", "nw"),
    ("nwlab.nw_estimate_batch.bytes_computed", "B", "nwlab.nw_estimate_batch", "count:bytes", "lab", "nw"),
    ("nwlab.nw_estimate_batch.flops_computed", "flop", "nwlab.nw_estimate_batch", "count:flops", "lab", "nw"),
    ("nwlab.sample_dataset.ms", "ms", "nwlab.sample_dataset", "ms", "lab", "nw"),
] + [
    (f"verification.{suite}.ms", "ms", f"verification.{suite}", "ms", "lab", "verify")
    for suite in (
        "suite_masa_jacobian", "suite_robustness_bound",
        "suite_identity_reduction", "suite_nw_equivalence",
    )
]


def per_layer_metrics(run: Run, efficiency: float) -> dict:
    tracer = run.tracer
    incl, self_ms, calls = tracer.totals()
    units_of: dict[tuple[str, str | None], list[int]] = {}
    for uid, (kind, variant) in enumerate(tracer.units):
        units_of.setdefault((kind, None), []).append(uid)
        units_of.setdefault((kind, variant), []).append(uid)

    out = {}
    for name, unit, span, qty, kind, variant in PER_LAYER:
        uids = units_of.get((kind, variant), [])
        if qty == "ms":
            total = sum(incl.get((span, u), 0.0) for u in uids)
        elif qty == "self_ms":
            total = sum(self_ms.get((span, u), 0.0) for u in uids)
        elif qty == "calls":
            total = sum(calls.get((span, u), 0) for u in uids)
        elif qty.startswith("count:"):
            key = qty.split(":", 1)[1]
            total = sum(tracer.counts.get((span, u, key), 0.0) for u in uids)
        else:  # ratio:<key>, a counter over calls
            key = qty.split(":", 1)[1]
            hits = sum(tracer.counts.get((span, u, key), 0.0) for u in uids)
            n = sum(calls.get((span, u), 0) for u in uids)
            out[name] = {"value": hits / n if n else 0.0, "unit": unit}
            continue
        out[name] = {"value": total / len(uids) if uids else 0.0, "unit": unit}

    # exact counts: calls per unit of every traced function, by unit kind
    per_unit: dict[str, dict[str, float]] = {}
    for (span, uid), n in calls.items():
        kind, variant = tracer.units[uid]
        key = f"{kind}:{variant}" if variant else kind
        per_unit.setdefault(key, {}).setdefault(span, 0)
        per_unit[key][span] += n / len(units_of[(kind, variant)])
    run.detail["calls_per_unit"] = per_unit

    out["nwlab.parallel_efficiency"] = {"value": efficiency, "unit": "ratio"}
    # tracing overhead: traced minus untraced median step (scaled), per variant
    coverage = []
    for name, _, _ in VARIANTS:
        steps = [(t, w, i) for k, v, t, w, i in run.walls if k == "train" and v == name]
        traced = [w for t, w, _ in steps if t]
        on = [run.scale(w, i) for t, w, i in steps if t]
        off = [run.scale(w, i) for t, w, i in steps if not t]
        overhead = (median(on) - median(off)) * 1e3 if on and off else 0.0
        out[f"trace.overhead_ms.{name}"] = {"value": overhead, "unit": "ms"}
        # share of the traced step covered by spans directly under model.train
        uids = units_of.get(("train", name), [])
        step = sum(incl.get(("model.train", u), 0.0) for u in uids)
        own = sum(self_ms.get(("model.train", u), 0.0) for u in uids)
        wall = sum(traced) * 1e3
        coverage.append((step - own) / wall if wall else 0.0)
    out["trace.step_coverage"] = {"value": min(coverage), "unit": "ratio"}
    out["host.reference_ms"] = {"value": median(run.reference_ms), "unit": "ms"}
    return out


# ---------------------------------------------------------------------------
# Machine facts.
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


#: Host speed on a shared machine drifts by 20-30% over tens of seconds (one
#: fixed training step measured 26-40 ms median in consecutive 4-s blocks),
#: which would swamp the differences the benchmark exists to show.  So a
#: fixed reference kernel is timed before every unit, and every end-to-end
#: time except setup_s is scaled by REFERENCE_MS over the median kernel time
#: of the SPEED_WINDOW calibrations on each side of its unit.  REFERENCE_MS
#: is near the kernel's median on the reference host (2 vCPUs, numpy 2.4,
#: OpenBLAS 0.3.31 on one thread), so scaled times read as ms there.
REFERENCE_MS = 2.0
SPEED_WINDOW = 8


class Reference:
    """A fixed kernel of the benchmark's own, mixing interpreter work with
    small matrix products like the package's.  The package never runs it, so
    its time tracks only the host's speed."""

    def __init__(self, np, reps: int):
        rng = np.random.default_rng(20240619)
        self.np, self.reps = np, reps
        self.a = rng.standard_normal((64, 16))
        self.b = rng.standard_normal((16, 64))

    def ms(self) -> float:
        """Median of three passes."""
        np, times = self.np, []
        for _ in range(3):
            start = time.perf_counter()
            acc = 0.0
            for _ in range(self.reps):
                s = self.a @ self.b
                acc += float(np.exp(s - s.max(axis=1, keepdims=True)).sum())
                for j in range(40):
                    acc += j * 0.5
            times.append((time.perf_counter() - start) * 1e3)
        return median(times)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


#: units of each loop per cycle.  Every run must report every metric, so
#: every workload runs all three loops, interleaved over the whole run so each
#: sees the same host conditions; the workload's own loop takes just over
#: half the time (train round ~0.19 s, eval iteration ~0.55 s, lab unit
#: ~0.9 s on the reference host), and lab, whose units are longest and
#: noisiest, never less than a fifth.  Counts, not measured time, fix the
#: order, so a faster loop does not change which units run.
MIX = {
    "lm-train": {"train": 16, "eval": 2, "lab": 2},
    "lm-eval": {"train": 5, "eval": 6, "lab": 2},
    "lab": {"train": 5, "eval": 2, "lab": 3},
}


def _setup(run: Run):
    """Everything that must exist before the first timed operation."""
    trainer = TrainLoop(run)
    return trainer, EvalLoop.setup(run, trainer), LabLoop(run)


def interleave(
    run: Run, loops: dict, weights: dict, seconds: float, min_units: int = 2
) -> None:
    """Smooth weighted round-robin over the loops' units until ``seconds``
    pass and every loop has run ``min_units`` units; the order is fixed by
    the weights alone.  The host's speed is measured before every unit."""
    total = sum(weights.values())
    credit = {k: 0 for k in loops}
    done = {k: 0 for k in loops}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(done.values()) < min_units:
        for k in credit:
            credit[k] += weights[k]
        key = max(credit, key=credit.get)
        credit[key] -= total
        run.calibrate()
        loops[key].unit()
        done[key] += 1


def import_seconds(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing the package, ``repeats`` times."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import elliptical"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return times


def run_workload(run: Run, workload: str, seconds: float) -> dict:
    """Set up several times (median), then run the workload's mix."""
    import_times = import_seconds(run.sizes.setup_repeats)
    setup_times = []
    for i in range(run.sizes.setup_repeats):
        with run.unit("setup", None, i):
            start = time.perf_counter()
            trainer, evaluator, lab = _setup(run)
            setup_times.append(time.perf_counter() - start)
    run.detail["import_s_samples"] = import_times
    run.detail["setup_work_s_samples"] = setup_times

    interleave(run, {"train": trainer, "eval": evaluator, "lab": lab}, MIX[workload], seconds)
    trainer.save()  # as train-lm ends
    efficiency = lab.parallel_efficiency() if run.tracer is not None else 0.0

    run.detail["train"] = trainer.report()
    run.detail["eval"] = evaluator.report()
    run.detail["lab"] = lab.report()
    return {"setup_s": median(import_times) + median(setup_times), "efficiency": efficiency}


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    """Every end-to-end metric; times are scaled to the reference host speed
    (the details line keeps the wall-clock samples and medians)."""
    s = {k: run.scaled(k) for k in run.samples}
    out = {"setup_s": (setup_s, "s")}
    tails = {}
    for name, _, _ in VARIANTS:
        out[f"train_step_ms.{name}"] = (1e3 * median(s[f"train.{name}"]), "ms")
    for name in ("standard", "elliptical"):
        value, pct, n = tail(s[f"train.{name}"])
        out[f"train_step_ms.{name}.tail"] = (1e3 * value, "ms")
        tails[name] = {"percentile": pct, "samples": n}
    run.detail["tails"] = tails
    out["elliptical_overhead"] = (
        out["train_step_ms.elliptical"][0] / out["train_step_ms.standard"][0], "ratio"
    )
    out["eval_tokens_per_s"] = (1.0 / median(s["eval.ppl_s_per_token"]), "tokens/s")
    out["window_forward_ms"] = (1e3 * median(s["eval.window_s"]), "ms")
    out["diagnose_ms"] = (1e3 * median(s["eval.diagnose_s"]), "ms")
    out["nw_seed_s"] = (median(s["lab.nw_seed_s"]), "s")
    out["verify_s"] = (median(s["lab.verify_s"]), "s")
    out["ok_ops_ratio"] = ((run.attempted - run.failed) / run.attempted, "ratio")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    run.detail["wall_medians_s"] = {
        k: median([secs for secs, _ in v]) for k, v in run.samples.items()
    }
    run.detail["wall_samples"] = {
        k: [(round(secs, 6), i) for secs, i in v] for k, v in run.samples.items()
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, schema check only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _pin_blas()
    allocator_pinned = _pin_allocator()
    np, scipy, modules = _import_package()
    import_s = time.perf_counter() - _T_START
    from layertrace import Tracer

    sizes = SMOKE if args.smoke else Sizes()
    load_before = os.getloadavg()
    tracer = Tracer(modules) if args.trace else None
    workdir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(np, modules, sizes, args.seed, tracer, workdir)
    try:
        times = run_workload(run, args.workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer_metrics(run, times["efficiency"])
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        run.detail["trace_file"] = str(trace_path.relative_to(ROOT))
        run.detail["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end_metrics(run, times["setup_s"])

    run.detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        machine=dict(machine_facts(np, scipy), mmap_threshold_pinned=allocator_pinned),
        import_s=import_s,
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        reference_ms=[round(x, 4) for x in run.reference_ms],
        failures=run.failures,
    )
    print(json.dumps({"detail": run.detail}, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
