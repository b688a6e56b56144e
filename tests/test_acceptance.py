"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavyweight statistical criteria (6, 7, 9) dominate the runtime.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import elliptical
from elliptical import estimators, model, nwlab, verification
from elliptical.autodiff import GradTape, backward
from elliptical.cli import main
from elliptical.numerics import derive_rng, make_rng

from oracles import linear_function

# -- frozen thresholds -------------------------------------------------------

#: criterion 4d; calibration run (separable catalog, 20 seeds, n=2048,
#: delta=1, sigma=0.01) observed min Kendall tau 1.0; threshold = min - 0.05
KENDALL_TAU_THRESHOLD = 0.95

#: criterion 9: training length per model (10 models total); long enough for
#: matched clean quality between the variants, short enough for the budget
DIRECTION_STEPS = 800
DIRECTION_SEEDS = 5

#: criterion 9b: corruption draws averaged per seed; a single draw's gap is
#: dominated by which positions happen to be swapped
CORRUPTION_DRAWS = 8


def _passline(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def _snapshot(root):
    """Every file under ``root``, by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _default_corpus():
    corpus = model.synthetic_corpus(0, 12288)
    eval_tokens = corpus.tokens[-2048:]
    train_corpus = model.Corpus(corpus.tokens[:-2048], corpus.charset)
    return train_corpus, eval_tokens


class TestCriterion1IdentityReduction:
    def test_attention_level_bitwise(self):
        # the model's causal metric path with identity scaling vs the plain kernel
        result = verification.suite_identity_reduction(n_instances=200, seed=101)
        assert result.passed and result.slack == 0.0, result.detail

    def test_model_level_bitwise_loss_curve(self, monkeypatch):
        train_corpus, _ = _default_corpus()
        base = dict(vocab_size=train_corpus.vocab_size, seed=11)
        tp = model.TrainParams(steps=200, batch_size=8)
        std = model.train(train_corpus, model.ModelConfig(elliptical=False, **base), tp)
        # the identity model runs the metric estimator on every layer after the first
        calls = []
        real = model._metric_rows
        monkeypatch.setattr(
            model, "_metric_rows", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        idn_cfg = model.ModelConfig(elliptical=True, scaling="identity", **base)
        idn = model.train(train_corpus, idn_cfg, tp)
        assert len(calls) == tp.steps * (idn_cfg.layers - 1)
        assert std.losses == idn.losses
        for name in std.params:
            assert np.array_equal(std.params[name].value, idn.params[name].value)
            assert np.array_equal(std.opt.m[name], idn.opt.m[name])
            assert np.array_equal(std.opt.v[name], idn.opt.v[name])
        _passline(1, "identity reduction")


class TestCriterion2JacobianSuite:
    def test_analytic_jacobian_and_envelope(self):
        result = verification.suite_masa_jacobian(n_instances=1000, seed=0)
        assert result.passed, result.detail
        _passline(2, "weighted-softmax jacobian")


class TestCriterion3PerturbationBound:
    def test_bound_never_violated(self):
        result = verification.suite_robustness_bound(n_instances=100, n_eps=1000, seed=0)
        assert result.passed, result.detail
        _passline(3, "perturbation bound")


class TestCriterion4EstimatorFidelity:
    def test_all_four_parts(self):
        # (a) centered difference exact on linear maps
        rng = make_rng(104)
        a = rng.standard_normal((4, 6))
        lin = linear_function(a)
        pts = rng.uniform(-3, 3, (37, 6))
        est = estimators.estimate_consistent(lin, pts, t=0.3)
        assert np.max(np.abs(est - np.abs(a).sum(axis=0))) <= 1e-10

        # (b) sine case within 0.02 of the closed form
        f = estimators.separable_sinusoid([1.0, 0.0], [1, 1])
        pts = derive_rng(0, 104, 1).uniform(-np.pi, np.pi, (10_000, 2))
        est = estimators.estimate_consistent(f, pts, t=0.01)
        assert abs(est[0] - 2.0 / np.pi) <= 0.02
        assert est[1] == 0.0

        # (c) Monte-Carlo convergence rate -1/2 on the log-log fit
        mixed = estimators.separable_sinusoid(
            [1.0, 1.0, 0.0], [1, 1, 1], [0.0, np.pi / 2, 0.0]
        )
        sizes, errors = estimators.consistency_error_curve(
            mixed, (100, 1000, 10_000, 100_000), t=0.01, seeds=20, seed=0
        )
        slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
        assert abs(slope - (-0.5)) <= 0.2, f"slope {slope}"

        # (d) layer-difference estimator ranks like the oracle
        catalog = estimators.ranking_catalog()
        taus = []
        for s in range(20):
            rng = derive_rng(0, 41, s)
            pair = estimators.simulate_layer_pair(catalog, 2048, 1.0, 0.01, rng)
            over = estimators.estimate_overlayers(pair.v_curr, pair.v_prev, 1.0)[-1]
            oracle = estimators.oracle_variability(catalog, rng.uniform(-np.pi, np.pi, (200, catalog.dim)))
            taus.append(float(stats.kendalltau(over, oracle).statistic))
        assert min(taus) >= KENDALL_TAU_THRESHOLD, f"min tau {min(taus)}"
        _passline(4, "estimator fidelity")


class TestCriterion5NoiseDrift:
    def test_noise_bound_both_scales(self):
        catalog = estimators.ranking_catalog()
        for i, sigma in enumerate((0.01, 0.1)):
            slack = estimators.noise_drift_slack(
                catalog, sigma, 10_000, derive_rng(0, 105, i)
            )
            assert slack <= 0.0, f"sigma={sigma}: slack {slack}"
        _passline(5, "noise drift bound")


class TestCriterion6SparseMSEDirection:
    def test_sparse_truth_direction(self):
        truth = estimators.sparse_sinusoid(5, [0], [1.0], [2])
        res = nwlab.run_sparse_mse_experiment(
            nwlab.SparseMSEConfig(truth=truth, n=500, seeds=20, seed=0)
        )
        assert res.elliptical.mse < res.euclidean.mse
        assert res.p_value_less < 0.05, f"p={res.p_value_less}"

    def test_equal_variability_null(self):
        truth = estimators.separable_sinusoid(np.ones(5), np.ones(5))
        res = nwlab.run_sparse_mse_experiment(
            nwlab.SparseMSEConfig(truth=truth, n=500, seeds=20, seed=0)
        )
        gap = abs(res.elliptical.mse - res.euclidean.mse)
        pooled = float(np.hypot(res.euclidean.stderr, res.elliptical.stderr))
        assert gap <= 2.0 * pooled, f"gap {gap} vs 2*pooled {2 * pooled}"
        _passline(6, "sparse-MSE direction")


class TestCriterion7EdgePreservation:
    def test_direction_over_twenty_seeds(self):
        res = nwlab.run_edge_preservation_experiment(nwlab.EdgeConfig(seeds=20, seed=0))
        assert res.elliptical_mean >= res.euclidean_mean, (
            f"elliptical {res.elliptical_mean} < euclidean {res.euclidean_mean}"
        )
        _passline(7, "edge preservation")


class TestCriterion8ToyLM:
    def test_alternation_perplexity(self):
        corpus = model.alternating_corpus(2048)
        cfg = model.ModelConfig(
            vocab_size=corpus.vocab_size, layers=2, heads=2, head_dim=8,
            embed_dim=16, ff_dim=32, context=32, elliptical=True, seed=1,
        )
        res = model.train(corpus, cfg, model.TrainParams(steps=200, lr=1e-2, batch_size=4))
        ppl = model.perplexity(res.params, cfg, corpus.tokens[:512])
        assert ppl < 1.1, f"alternation perplexity {ppl}"

    def test_stop_gradient_invariant(self):
        train_corpus, _ = _default_corpus()
        cfg = model.ModelConfig(
            vocab_size=train_corpus.vocab_size, layers=3, heads=2, head_dim=8,
            embed_dim=16, ff_dim=32, context=32, elliptical=True, seed=2,
        )
        params = model.init_params(cfg)
        toks = train_corpus.tokens[:25]

        def run(tamper):
            tape = GradTape()
            logits, states = model.forward(toks[:-1], params, cfg, tape)
            if tamper:  # the metric rows the attention nodes copied: no gradient path
                for st in states[1:]:
                    st.metric[...] = 1e6
            loss = tape.cross_entropy(logits, toks[1:])
            for p in params.values():
                p.grad = None
            backward(tape, loss)
            return {k: p.grad.copy() for k, p in params.items() if p.grad is not None}

        clean = run(False)
        tampered = run(True)
        assert clean.keys() == tampered.keys()
        for name in clean:
            assert np.array_equal(clean[name], tampered[name]), name

    def test_causal_integrity_hundred_prefixes(self):
        train_corpus, _ = _default_corpus()
        cfg = model.ModelConfig(vocab_size=train_corpus.vocab_size, elliptical=True, seed=3)
        params = model.init_params(cfg)
        rng = make_rng(108)
        for _ in range(100):
            t_len = int(rng.integers(2, cfg.context + 1))
            toks = rng.integers(0, cfg.vocab_size, t_len)
            cut = int(rng.integers(1, t_len))
            other = toks.copy()
            other[cut:] = rng.integers(0, cfg.vocab_size, t_len - cut)
            la, _ = model.forward(toks, params, cfg, GradTape())
            lb, _ = model.forward(other, params, cfg, GradTape())
            assert np.array_equal(la.value[:cut], lb.value[:cut])
        _passline(8, "toy LM suite")


@pytest.fixture(scope="module")
def seed_runs():
    """Paired training runs for criterion 9: both variants share their
    initialization per seed; the corruption gap corrupts the conditioning
    stream only and scores the true continuations (the downstream form of
    the perturbation bound), averaged over several corruption draws."""
    train_corpus, eval_tokens = _default_corpus()
    rows = []
    for seed in range(DIRECTION_SEEDS):
        per_variant = {}
        for elliptical in (False, True):
            cfg = model.ModelConfig(
                vocab_size=train_corpus.vocab_size, seed=seed, elliptical=elliptical
            )
            res = model.train(
                train_corpus, cfg, model.TrainParams(steps=DIRECTION_STEPS, batch_size=8)
            )
            clean = model.perplexity(res.params, cfg, eval_tokens)
            gaps = []
            for draw in range(CORRUPTION_DRAWS):
                corrupt = model.perplexity(
                    res.params, cfg, eval_tokens,
                    corrupt_rate=0.025,
                    rng=derive_rng(seed, 109, draw),
                    corrupt_targets=False,
                )
                gaps.append(corrupt - clean)
            window_cos = []
            for w in range(eval_tokens.size // cfg.context):
                toks = eval_tokens[w * cfg.context : (w + 1) * cfg.context]
                tape = GradTape()
                _, states = model.forward(toks, res.params, cfg, tape)
                window_cos.append(
                    model.mean_pairwise_cosine(states[-1].representation)
                )
            per_variant[elliptical] = (
                float(np.mean(window_cos)),
                float(np.mean(gaps)),
            )
        rows.append(per_variant)
    return rows


class TestCriterion9DirectionAnalogs:
    def test_final_layer_cosine_direction(self, seed_runs):
        # Known red at this scale: the collapse differential needs many
        # trained layers to accumulate, and a 4-layer toy shows a ~+0.002
        # null-to-adverse paired difference instead.  Kept as stated; see
        # README ("Known red") for the measurement survey.
        std = np.mean([r[False][0] for r in seed_runs])
        ell = np.mean([r[True][0] for r in seed_runs])
        assert ell <= std, f"cosine: elliptical {ell} > standard {std}"

    def test_corruption_gap_direction(self, seed_runs):
        std = np.mean([r[False][1] for r in seed_runs])
        ell = np.mean([r[True][1] for r in seed_runs])
        assert ell <= std, f"gap: elliptical {ell} > standard {std}"
        _passline(9, "collapse/robustness directions")


class TestCriterion10CliDeterminism:
    SUBCOMMANDS = {
        "nw-sparse": ["--set", "n=80", "--set", "seeds=5", "--set", "n_queries=40",
                      "--set", "dim=3", "--set", "out=r"],
        "edge-preserve": ["--set", "n=60", "--set", "seeds=5",
                          "--set", "est_points=200", "--set", "out=r"],
        "estimator-bench": ["--set", "seeds=3", "--set", "n=256", "--set", "out=r"],
        "train-lm": ["--set", "steps=3", "--set", "layers=2", "--set", "heads=2",
                     "--set", "head_dim=4", "--set", "embed_dim=8", "--set", "ff_dim=16",
                     "--set", "context=16", "--set", "corpus_length=1024",
                     "--set", "eval_tokens=128", "--set", "batch_size=2",
                     "--set", "out=r"],
        "verify": ["--set", "out=r"],
    }

    #: sets on which the thread fan-outs run: nw-sparse maps its seeds over threads from
    #: n = MIN_FANOUT_N, and a 512-token eval stream is 31 windows of 16 tokens, which
    #: perplexity splits into parts of at least MIN_PART_WINDOWS on two or more CPUs
    FANOUT = {
        "nw-sparse": ["--set", f"n={nwlab.MIN_FANOUT_N}", "--set", "seeds=5",
                      "--set", "n_queries=40", "--set", "dim=3", "--set", "out=r"],
        "train-lm": [*SUBCOMMANDS["train-lm"], "--set", "corpus_length=2048",
                     "--set", "eval_tokens=512"],  # a later --set wins
    }

    def test_every_subcommand_reruns_byte_identical(self, tmp_path, monkeypatch):
        for name, args in self.SUBCOMMANDS.items():
            roots = (tmp_path / f"{name}-1", tmp_path / f"{name}-2")
            for root in roots:
                monkeypatch.setenv("ELLIPTICAL_OUT", str(root))
                assert main([name, *args]) in (0, 1)
            assert _snapshot(roots[0]) == _snapshot(roots[1]), name

        # diagnose needs a checkpoint to exist first
        monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
        assert main(["train-lm", *self.SUBCOMMANDS["train-lm"][:-2], "--set", "out=m"]) == 0
        ckpt = tmp_path / "m" / "checkpoint.bin"
        diag_args = ["--set", f"checkpoint={ckpt}", "--set", "corpus_length=1024",
                     "--set", "eval_tokens=64", "--set", "epsilons=0.1", "--set", "out=r"]
        roots = (tmp_path / "diagnose-1", tmp_path / "diagnose-2")
        for root in roots:
            monkeypatch.setenv("ELLIPTICAL_OUT", str(root))
            assert main(["diagnose", *diag_args]) == 0
        assert _snapshot(roots[0]) == _snapshot(roots[1])
        _passline(10, "CLI determinism")

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: no second count to compare")
    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path):
        # each command runs in a child process pinned to one CPU, then in one on every
        # CPU this process may use; the thread counts follow, the bytes may not
        src = str(Path(elliptical.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        ckpt = tmp_path / "one" / "train-lm-fanout" / "r" / "checkpoint.bin"
        runs = {
            **self.SUBCOMMANDS,
            **{f"{name}-fanout": args for name, args in self.FANOUT.items()},
            "diagnose-fanout": ["--set", f"checkpoint={ckpt}", "--set", "corpus_length=2048",
                                "--set", "eval_tokens=512", "--set", "epsilons=0.1",
                                "--set", "out=r"],
        }
        cpus = os.sched_getaffinity(0)
        for label, cpuset in (("one", {min(cpus)}), ("all", cpus)):
            for run, args in runs.items():
                proc = subprocess.run(
                    [sys.executable, "-m", "elliptical", run.removesuffix("-fanout"), *args],
                    env={**env, "ELLIPTICAL_OUT": str(tmp_path / label / run)},
                    preexec_fn=lambda cpuset=cpuset: os.sched_setaffinity(0, cpuset),
                    capture_output=True, text=True,
                )
                assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
        assert _snapshot(tmp_path / "one") == _snapshot(tmp_path / "all")
