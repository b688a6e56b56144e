"""Toy transformer: forward contracts, training behavior, corruption
harness, diagnostics and checkpoint round-trips."""

import errno
import io
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptical import model, numerics
from elliptical.autodiff import GradTape, backward, leaf
from elliptical.metric import scale_rows
from elliptical.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    METRIC_WARMUP,
    MIN_PART_WINDOWS,
    NS_CORPUS,
    AdamState,
    Corpus,
    ModelConfig,
    TrainParams,
    TrainingError,
    alternating_corpus,
    corpus_from_text,
    corrupt_tokens,
    diagnose,
    forward,
    init_params,
    load_checkpoint,
    mean_head_distance,
    mean_pairwise_cosine,
    param_table,
    perplexity,
    save_checkpoint,
    synthetic_corpus,
    train,
    _metric_rows,
)
from elliptical.numerics import ParameterError, derive_rng, make_rng, softmax_rows


def _tiny_cfg(vocab, elliptical=False, scaling="maxscale", seed=0, layers=2):
    return ModelConfig(
        vocab_size=vocab, layers=layers, heads=2, head_dim=8, embed_dim=16,
        ff_dim=32, context=32, elliptical=elliptical, scaling=scaling, seed=seed,
    )


def _one_head_cfg(vocab):
    # one head: the attention node's head split is a view of the q/k/v arrays
    return ModelConfig(vocab_size=vocab, layers=3, heads=1, head_dim=16, embed_dim=16,
                       ff_dim=32, context=32, elliptical=True)


class TestConfig:
    def test_embed_dim_must_factor(self):
        with pytest.raises(ParameterError):
            ModelConfig(vocab_size=10, heads=3, head_dim=8, embed_dim=16)

    def test_elliptical_needs_two_layers(self):
        with pytest.raises(ParameterError):
            ModelConfig(vocab_size=10, layers=1, heads=2, head_dim=8,
                        embed_dim=16, elliptical=True)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ParameterError, match="delta"):
            ModelConfig(vocab_size=10, heads=2, head_dim=8, embed_dim=16, delta=delta)


class TestCorpora:
    def test_synthetic_corpus_is_deterministic(self):
        a = synthetic_corpus(3, 500)
        b = synthetic_corpus(3, 500)
        assert np.array_equal(a.tokens, b.tokens)
        assert a.vocab_size == len(a.charset) + 1
        assert a.tokens.max() < len(a.charset)

    @pytest.mark.parametrize("n_symbols", [2, 12, 26])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_synthetic_corpus_matches_searchsorted_loop(self, n_symbols, order):
        for seed, length in ((0, 1), (1, 257), (9, 3000)):
            # the per-token np.searchsorted loop the list-and-bisect form replaced
            rng = derive_rng(seed, NS_CORPUS, 0)
            n_states = n_symbols**order
            cum = np.cumsum(softmax_rows(2.5 * rng.standard_normal((n_states, n_symbols))), axis=1)
            draws = rng.random(length)
            ref = np.empty(length, dtype=np.int64)
            state = 0
            for t in range(length):
                sym = int(np.searchsorted(cum[state], draws[t]))
                ref[t] = sym
                state = (state * n_symbols + sym) % n_states
            tokens = synthetic_corpus(seed, length, n_symbols, order).tokens
            assert tokens.dtype == ref.dtype and tokens.shape == ref.shape
            assert np.array_equal(tokens, ref), (seed, length)

    def test_alternating_corpus(self):
        c = alternating_corpus(10)
        assert np.array_equal(c.tokens, [0, 1] * 5)

    def test_corpus_from_text(self):
        c = corpus_from_text("abcabc")
        assert c.charset == "abc"
        assert np.array_equal(c.tokens, [0, 1, 2, 0, 1, 2])


class TestCorruptTokens:
    def test_rate_zero_is_identity(self):
        toks = make_rng(0).integers(0, 10, 100)
        assert np.array_equal(corrupt_tokens(toks, 0.0, 10, make_rng(1)), toks)

    def test_rate_one_replaces_everything(self):
        toks = make_rng(2).integers(0, 10, 100)
        assert np.all(corrupt_tokens(toks, 1.0, 10, make_rng(3)) == 10)

    def test_seeded_replacement_count_is_binomial(self):
        n, rate = 10_000, 0.025
        first = corrupt_tokens(np.zeros(n, dtype=np.int64), rate, 7, make_rng(4))
        again = corrupt_tokens(np.zeros(n, dtype=np.int64), rate, 7, make_rng(4))
        assert np.array_equal(first, again)
        counts = [
            int((corrupt_tokens(np.zeros(n, dtype=np.int64), rate, 7, make_rng(s)) == 7).sum())
            for s in range(100)
        ]
        assert abs(np.mean(counts) - n * rate) <= 3.0 * np.sqrt(n * rate * (1 - rate))

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            corrupt_tokens(np.zeros(5, dtype=np.int64), 1.5, 0, make_rng(5))


class TestForward:
    def test_token_range_checked(self):
        corpus = synthetic_corpus(0, 600)
        cfg = _tiny_cfg(corpus.vocab_size)
        params = init_params(cfg)
        with pytest.raises(ParameterError, match="token id outside the vocabulary"):
            forward(np.array([corpus.vocab_size]), params, cfg, GradTape())
        with pytest.raises(ParameterError, match=rf"need length in \[1, {cfg.context}\]"):
            forward(np.zeros(cfg.context + 1, dtype=int), params, cfg, GradTape())
        for ambiguous in (np.array(3), np.zeros((2, 3, 4), dtype=int)):
            with pytest.raises(ParameterError, match="tokens must be 1-D or a 2-D stack"):
                forward(ambiguous, params, cfg, GradTape())

    def test_single_token_shapes(self):
        cfg = _tiny_cfg(13)
        params = init_params(cfg)
        logits, states = forward(np.array([5]), params, cfg, GradTape())
        assert logits.value.shape == (1, 13)
        assert len(states) == cfg.layers
        for st in states:
            for a in (st.queries, st.keys, st.values, st.metric, st.representation):
                assert a.shape == (1, cfg.embed_dim)
        rep = diagnose(params, cfg, np.array([5, 3]), (0.1,), make_rng(12))
        for maps in rep.attention:
            for attn in maps:
                np.testing.assert_array_equal(attn, [[1.0]])

    def test_fixed_seed_fixed_input_is_bitwise_stable(self):
        cfg = _tiny_cfg(13, elliptical=True)
        toks = make_rng(6).integers(0, 13, 20)
        a, _ = forward(toks, init_params(cfg), cfg, GradTape())
        b, _ = forward(toks, init_params(cfg), cfg, GradTape())
        assert a.value.tobytes() == b.value.tobytes()

    def test_standard_flag_reduces_to_plain_transformer_bitwise(self):
        corpus = synthetic_corpus(1, 600)
        toks = corpus.tokens[:24]
        cfg_std = _tiny_cfg(corpus.vocab_size, elliptical=False)
        cfg_idn = _tiny_cfg(corpus.vocab_size, elliptical=True, scaling="identity")
        params = init_params(cfg_std)
        a, _ = forward(toks, params, cfg_std, GradTape())
        b, _ = forward(toks, params, cfg_idn, GradTape())
        assert a.value.tobytes() == b.value.tobytes()

    def test_causal_integrity_logits_ignore_future(self):
        corpus = synthetic_corpus(2, 600)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical=True)
        params = init_params(cfg)
        rng = make_rng(7)
        for _ in range(25):
            t_len = int(rng.integers(4, cfg.context + 1))
            toks = rng.integers(0, corpus.vocab_size, t_len)
            cut = int(rng.integers(1, t_len))
            other = toks.copy()
            other[cut:] = rng.integers(0, corpus.vocab_size, t_len - cut)
            la, _ = forward(toks, params, cfg, GradTape())
            lb, _ = forward(other, params, cfg, GradTape())
            assert np.array_equal(la.value[:cut], lb.value[:cut])

    def test_layer_one_always_standard(self):
        cfg = _tiny_cfg(13, elliptical=True)
        params = init_params(cfg)
        toks = make_rng(8).integers(0, 13, 16)
        _, states = forward(toks, params, cfg, GradTape())
        assert all(st.metric.shape == (16, cfg.embed_dim) for st in states)
        assert np.all(states[0].metric == 1.0)
        assert np.any(states[1].metric != 1.0)  # row 15 has METRIC_WARMUP samples

    def test_identity_mode_runs_the_layer_difference_path(self, monkeypatch):
        # identity scaling estimates its rows like every other mode; scaling makes them ones
        modes = []
        real = model._metric_rows
        monkeypatch.setattr(
            model, "_metric_rows", lambda *a, **kw: modes.append(a[3]) or real(*a, **kw)
        )
        cfg = _tiny_cfg(13, elliptical=True, scaling="identity", layers=3)
        toks = make_rng(9).integers(0, 13, METRIC_WARMUP + 4)
        _, states = forward(toks, init_params(cfg), cfg, GradTape())
        assert modes == ["identity"] * (cfg.layers - 1)
        assert all(np.all(st.metric == 1.0) for st in states)


#: standard plus every scaling mode of the metric-weighted variant
VARIANTS = (
    (False, "maxscale"),
    (True, "maxscale"),
    (True, "meanscale"),
    (True, "unscaled"),
    (True, "identity"),
)


class TestStackedPath:
    """Training and perplexity run ``forward`` on stacks of sequences; each
    block of a stack must be exactly what ``forward`` gives on it alone."""

    def _trained(self, corpus, elliptical, scaling):
        cfg = _tiny_cfg(corpus.vocab_size, elliptical, scaling, seed=5, layers=3)
        return cfg, train(corpus, cfg, TrainParams(steps=3, batch_size=2)).params

    def test_single_sequence_matches_forward_bitwise(self):
        corpus = synthetic_corpus(16, 600)
        toks = corpus.tokens[:32]  # longer than METRIC_WARMUP: the metric is live
        for elliptical, scaling in VARIANTS:
            cfg, params = self._trained(corpus, elliptical, scaling)
            ref, states = forward(toks, params, cfg, GradTape())
            got, _ = forward(toks[None], params, cfg, GradTape())
            assert ref.value.tobytes() == got.value.tobytes(), (elliptical, scaling)
            live = elliptical and scaling != "identity"
            assert live == bool(np.any(states[-1].metric != 1.0))

    def test_each_block_of_a_stack_matches_forward_bitwise(self):
        # t_len = 1 is left out: numpy routes a one-row matmul differently,
        # which can move a stacked block by an ulp.
        corpus = synthetic_corpus(17, 600)
        for elliptical, scaling in VARIANTS:
            cfg, params = self._trained(corpus, elliptical, scaling)
            for t_len in range(2, cfg.context + 1):
                stack = corpus.tokens[: 3 * t_len].reshape(3, t_len)
                got, _ = forward(stack, params, cfg, GradTape())
                for b, seq in enumerate(stack):
                    ref, _ = forward(seq, params, cfg, GradTape())
                    block = got.value[b * t_len : (b + 1) * t_len]
                    assert ref.value.tobytes() == block.tobytes(), (scaling, t_len, b)


class TestMetricRows:
    def test_matches_per_row_reference_loop_bitwise(self):
        batch, t_len, heads, dh, delta = 3, METRIC_WARMUP + 6, 2, 4, 0.7
        rng = make_rng(18)
        v_curr = rng.standard_normal((batch, t_len, heads * dh))
        v_prev = rng.standard_normal((batch, t_len, heads * dh))
        v_prev[1] = v_curr[1]  # no variability in block 1: identity rows
        for mode in ("maxscale", "meanscale", "unscaled", "identity"):
            got = _metric_rows(v_curr, v_prev, heads, mode, delta)
            ref = np.empty((batch * t_len, heads * dh))
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                for b in range(batch):
                    total = np.zeros(dh)  # running sum of |v_curr - v_prev| / delta
                    for t in range(t_len):
                        total = total + np.abs(v_curr[b, t, cols] - v_prev[b, t, cols]) / delta
                        raw = total / (t + 1) if t >= METRIC_WARMUP - 1 else np.zeros(dh)
                        ref[b * t_len + t, cols] = scale_rows(raw, mode)
            assert got.tobytes() == ref.tobytes(), mode
            assert np.all(got[t_len : 2 * t_len] == 1.0)
            for b in range(batch):
                assert np.all(got[b * t_len : b * t_len + METRIC_WARMUP - 1] == 1.0)

    def test_row_t_uses_first_t_plus_one_rows(self):
        # unscaled mode returns the raw estimate (all of it above the floor here)
        batch, t_len, heads, dh, delta = 2, METRIC_WARMUP + 8, 2, 3, 0.5
        rng = make_rng(4)
        v_curr, v_prev = (rng.standard_normal((batch, t_len, heads * dh)) for _ in range(2))
        got = _metric_rows(v_curr, v_prev, heads, "unscaled", delta)
        for b in range(batch):
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                for t in range(METRIC_WARMUP - 1, t_len):
                    diff = v_curr[b, : t + 1, cols] - v_prev[b, : t + 1, cols]
                    expected = np.mean(np.abs(diff), axis=0) / delta
                    np.testing.assert_allclose(got[b * t_len + t, cols], expected, rtol=1e-12)

    def test_last_row_matches_full_estimate(self):
        rng = make_rng(5)
        v_curr, v_prev = (rng.standard_normal((1, METRIC_WARMUP + 4, 2)) for _ in range(2))
        got = _metric_rows(v_curr, v_prev, 1, "unscaled", 1.0)
        expected = np.mean(np.abs(v_curr[0] - v_prev[0]), axis=0)
        np.testing.assert_allclose(got[-1], expected, rtol=1e-12)


def _counted(calls, fn):
    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_everywhere(monkeypatch, calls, original):
    """Count calls to ``original`` under every name the package binds it to."""
    wrapper = _counted(calls, original)
    for name, module in list(sys.modules.items()):
        if name == "elliptical" or name.startswith("elliptical."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


class TestStackedPathStructure:
    """Counts, not timings: a per-row, per-head or per-draw loop shows up as
    extra tape nodes, per-row scaling calls or extra kernel calls."""

    def test_one_attention_node_per_layer_and_no_per_row_scaling(self, monkeypatch):
        from elliptical import attention, metric, model

        calls = {"block_causal_attention": 0, "scale_rows": 0, "weighted_kernel": 0}
        nodes = []
        _count_everywhere(monkeypatch, calls, metric.scale_rows)
        _count_everywhere(monkeypatch, calls, attention.weighted_kernel)
        op = GradTape.block_causal_attention
        monkeypatch.setattr(GradTape, "block_causal_attention", _counted(calls, op))

        def counting_backward(tape, loss):
            nodes.append(len(tape._nodes))
            backward(tape, loss)

        monkeypatch.setattr(model, "backward", counting_backward)
        corpus = synthetic_corpus(19, 12 * 64)
        for scaling in ("maxscale", "meanscale"):
            cfg = ModelConfig(vocab_size=corpus.vocab_size, elliptical=True, scaling=scaling)
            calls.update(dict.fromkeys(calls, 0))
            nodes.clear()
            train(corpus, cfg, TrainParams(steps=1))
            # the fused op's forward pass is the one kernel call of each layer,
            # and every metric layer scales all of its rows in one call
            assert calls == {"block_causal_attention": cfg.layers, "scale_rows": cfg.layers - 1,
                             "weighted_kernel": cfg.layers}
            # 3 embedding nodes, 14 per layer, 3 for the final norm and head, 1 loss
            assert nodes == [63], scaling

    def test_diagnose_calls_the_kernel_once_per_layer_and_scale(self, monkeypatch):
        from elliptical import model

        corpus = synthetic_corpus(20, 600)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical=True, layers=3)
        calls = {"weighted_kernel": 0}
        # diagnose's own calls only: forward's go through the fused op
        monkeypatch.setattr(model, "weighted_kernel", _counted(calls, model.weighted_kernel))
        epsilons = (0.01, 0.1, 1.0)
        rep = diagnose(init_params(cfg), cfg, corpus.tokens[-200:], epsilons, make_rng(3))
        # one call for every head's base map, then one per scale for every draw
        assert calls["weighted_kernel"] == cfg.layers * (1 + len(epsilons))
        assert rep.robustness.shape == (cfg.layers, len(epsilons))


class TestEvaluationTape:
    """``perplexity`` and ``diagnose`` run ``forward`` on a tape that records
    nothing, so no activation outlives its use; the values must be a
    recording pass's, bit for bit."""

    def test_perplexity_and_diagnose_record_no_node(self, monkeypatch):
        recorded = {"nodes": 0}
        new = GradTape._new

        def counting_new(tape, *args):
            recorded["nodes"] += tape._nodes is not None
            return new(tape, *args)

        monkeypatch.setattr(GradTape, "_new", counting_new)
        corpus = synthetic_corpus(21, 600)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical=True, layers=3)
        params = init_params(cfg)
        perplexity(params, cfg, corpus.tokens[:200])
        perplexity(params, cfg, corpus.tokens[:200], corrupt_rate=0.1, rng=make_rng(1))
        diagnose(params, cfg, corpus.tokens[-200:], (0.01, 0.1), make_rng(2))
        assert recorded["nodes"] == 0
        train(corpus, cfg, TrainParams(steps=1, batch_size=1))
        assert recorded["nodes"] > 0  # training's tape does record, and is counted

    @staticmethod
    def _state_bits(st):
        arrays = (st.queries, st.keys, st.values, st.metric, st.representation)
        return [a.view(np.int64) for a in arrays]

    def test_non_recording_forward_matches_recording_bitwise(self):
        corpus = synthetic_corpus(22, 600)
        stack = corpus.tokens[: 3 * 24].reshape(3, 24)  # past the metric warm-up
        for heads in (1, 2):
            for elliptical, scaling in VARIANTS:
                cfg = ModelConfig(
                    vocab_size=corpus.vocab_size, layers=3, heads=heads, head_dim=16 // heads,
                    embed_dim=16, ff_dim=32, context=32, elliptical=elliptical,
                    scaling=scaling, seed=5,
                )
                params = train(corpus, cfg, TrainParams(steps=3, batch_size=2)).params
                (ref, ref_states), (got, got_states) = (
                    forward(stack, params, cfg, GradTape(record=record))
                    for record in (True, False)
                )
                key = (heads, elliptical, scaling)
                assert got._backward is None, key
                assert np.array_equal(ref.value.view(np.int64), got.value.view(np.int64)), key
                assert len(ref_states) == len(got_states) == cfg.layers
                for layer, (a, b) in enumerate(zip(ref_states, got_states)):
                    for x, y in zip(self._state_bits(a), self._state_bits(b)):
                        assert np.array_equal(x, y), (key, layer)
                live = elliptical and scaling != "identity"
                assert live == bool(np.any(ref_states[-1].metric != 1.0)), key


class TestStopGradient:
    def test_tampering_estimator_copies_leaves_gradients_unchanged(self):
        corpus = synthetic_corpus(3, 600)
        toks = corpus.tokens[:17]
        two_heads = _tiny_cfg(corpus.vocab_size, elliptical=True, layers=3)
        for cfg in (two_heads, _one_head_cfg(corpus.vocab_size)):
            params = init_params(cfg)
            scaled = []

            def grads(tamper):
                tape = GradTape()
                logits, states = forward(toks[:-1], params, cfg, tape)
                if tamper:
                    for layer, st in enumerate(states):
                        if st.metric.flags.writeable:  # layer 0 holds read-only ones
                            st.metric *= 3.0
                            scaled.append(layer)
                loss = tape.cross_entropy(logits, toks[1:])
                for p in params.values():
                    p.grad = None
                backward(tape, loss)
                return {k: None if p.grad is None else p.grad.copy() for k, p in params.items()}

            clean = grads(tamper=False)
            tampered = grads(tamper=True)
            assert scaled == [1, 2]
            for name in params:
                if clean[name] is None:
                    assert tampered[name] is None
                else:
                    assert np.array_equal(clean[name], tampered[name]), (cfg.heads, name)

    def test_recorded_arrays_are_read_only(self):
        corpus = synthetic_corpus(3, 600)
        cfg = _one_head_cfg(corpus.vocab_size)
        _, states = forward(corpus.tokens[:17], init_params(cfg), cfg, GradTape())
        for st in states:
            for name in ("queries", "keys", "values", "representation"):
                with pytest.raises(ValueError):
                    getattr(st, name)[0, 0] = 1.0

    def test_backward_matches_fd_with_frozen_metric(self, monkeypatch):
        from elliptical import model

        corpus = synthetic_corpus(4, 600)
        cfg = ModelConfig(vocab_size=corpus.vocab_size, layers=2, heads=2,
                          head_dim=4, embed_dim=8, ff_dim=16, context=16,
                          elliptical=True, seed=4)
        params = init_params(cfg)
        toks = corpus.tokens[: cfg.context + 1]  # the last row is past the warm-up

        tape = GradTape()
        logits, states = forward(toks[:-1], params, cfg, tape)
        frozen = [st.metric.copy() for st in states[1:]]  # layers that estimate one
        assert np.any(frozen[0] != 1.0)
        loss = tape.cross_entropy(logits, toks[1:])
        for p in params.values():
            p.grad = None
        backward(tape, loss)

        pending = []
        # the metric at params, not at the bumped copy
        monkeypatch.setattr(model, "_metric_rows", lambda *args, **kwargs: pending.pop(0))

        def frozen_loss(values, name):
            trial = {k: leaf(v if k != name else values) for k, v in
                     ((k, p.value) for k, p in params.items())}
            t = GradTape()
            pending[:] = frozen
            lg, _ = forward(toks[:-1], trial, cfg, t)
            assert not pending
            return float(t.cross_entropy(lg, toks[1:]).value[0, 0])

        rng = make_rng(9)
        for name in ("l1.wv", "l0.wq", "head.w"):
            value = params[name].value
            grad = params[name].grad
            for _ in range(12):
                idx = (int(rng.integers(value.shape[0])), int(rng.integers(value.shape[1])))
                h = 1e-5 * (1.0 + abs(value[idx]))
                bumped = value.copy()
                bumped[idx] += h
                up = frozen_loss(bumped, name)
                bumped[idx] -= 2 * h
                down = frozen_loss(bumped, name)
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestTraining:
    def test_zero_steps_leaves_model_unchanged(self):
        corpus = synthetic_corpus(5, 600)
        cfg = _tiny_cfg(corpus.vocab_size)
        params = init_params(cfg)
        before = {k: p.value.copy() for k, p in params.items()}
        result = train(corpus, cfg, TrainParams(steps=0), params)
        assert result.losses == []
        for k in params:
            assert np.array_equal(before[k], result.params[k].value)

    def test_loss_decreases_for_both_variants(self):
        corpus = synthetic_corpus(6, 1200)
        for elliptical in (False, True):
            for seed in range(3):
                cfg = _tiny_cfg(corpus.vocab_size, elliptical=elliptical, seed=seed)
                res = train(corpus, cfg, TrainParams(steps=60, batch_size=4))
                early = float(np.mean(res.losses[:5]))
                late = float(np.mean(res.losses[-5:]))
                assert late < early

    def test_alternation_reaches_near_optimal_perplexity(self):
        corpus = alternating_corpus(2048)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical=True, seed=1)
        res = train(corpus, cfg, TrainParams(steps=200, lr=1e-2, batch_size=4))
        ppl = perplexity(res.params, cfg, corpus.tokens[:512])
        assert ppl < 1.1

    def test_identity_scaling_reproduces_standard_loss_curve_bitwise(self):
        corpus = synthetic_corpus(7, 1200)
        cfg_std = _tiny_cfg(corpus.vocab_size, elliptical=False, seed=2)
        cfg_idn = _tiny_cfg(corpus.vocab_size, elliptical=True, scaling="identity", seed=2)
        tp = TrainParams(steps=40, batch_size=4)
        a = train(corpus, cfg_std, tp)
        b = train(corpus, cfg_idn, tp)
        assert a.losses == b.losses
        for k in a.params:
            assert np.array_equal(a.params[k].value, b.params[k].value)

    def test_corpus_size_contract(self):
        corpus = Corpus(np.zeros(50, dtype=np.int64), "ab")
        cfg = _tiny_cfg(3)
        with pytest.raises(ParameterError):
            train(corpus, cfg, TrainParams(steps=1))

    def test_divergence_reports_step(self):
        corpus = synthetic_corpus(8, 600)
        cfg = _tiny_cfg(corpus.vocab_size, seed=3)
        with pytest.raises(TrainingError) as err:
            train(corpus, cfg, TrainParams(steps=3, lr=1e18, batch_size=2))
        assert err.value.step in (0, 1, 2)
        assert isinstance(err.value, ParameterError)  # the CLI's one error clause catches it


class TestPerplexity:
    def test_uniform_logits_give_vocab_size(self):
        corpus = synthetic_corpus(9, 600)
        cfg = _tiny_cfg(corpus.vocab_size)
        params = init_params(cfg)
        for p in params.values():
            p.value[:] = 0.0
        ppl = perplexity(params, cfg, corpus.tokens[:200])
        assert ppl == pytest.approx(cfg.vocab_size, rel=1e-9)

    def test_corruption_uses_generic_token_stream(self):
        corpus = synthetic_corpus(10, 600)
        cfg = _tiny_cfg(corpus.vocab_size)
        params = init_params(cfg)
        clean = perplexity(params, cfg, corpus.tokens[:200])
        corrupted = perplexity(
            params, cfg, corpus.tokens[:200], corrupt_rate=0.5, rng=make_rng(10)
        )
        assert corrupted != clean

    @pytest.mark.parametrize("rate", [-0.5, 1.5])
    def test_rate_outside_unit_interval_raises(self, rate):
        # a skipped negative rate would score the clean stream as the corrupted one
        corpus = synthetic_corpus(10, 600)
        cfg = _tiny_cfg(corpus.vocab_size)
        with pytest.raises(ParameterError, match="rate"):
            perplexity(init_params(cfg), cfg, corpus.tokens[:200], corrupt_rate=rate, rng=make_rng(10))


#: a context past the metric warm-up, and 25 windows: parts of 13 + 12 windows on
#: 2 CPUs and 9 + 8 + 8 on 3
_PART_CONTEXT, _PART_WINDOWS = 20, 25


class TestPerplexityParts:
    """``perplexity`` runs its window stack as one contiguous part per CPU, with at
    least MIN_PART_WINDOWS windows a part; the float it returns must not move."""

    @staticmethod
    def _model(elliptical, scaling):
        corpus = synthetic_corpus(31, 1200)
        cfg = ModelConfig(
            vocab_size=corpus.vocab_size, layers=3, heads=2, head_dim=4, embed_dim=8,
            ff_dim=16, context=_PART_CONTEXT, elliptical=elliptical, scaling=scaling, seed=6,
        )
        train_corpus = Corpus(corpus.tokens[:600], corpus.charset)
        params = train(train_corpus, cfg, TrainParams(steps=3, batch_size=2)).params
        return cfg, params, corpus.tokens[600 : 601 + _PART_WINDOWS * _PART_CONTEXT]

    @staticmethod
    def _per_window(params, cfg, inputs, targets):
        """exp(mean NLL) from one ``forward`` per window, logits joined, one cross-entropy."""
        c = cfg.context
        logits = [
            forward(inputs[a : a + c], params, cfg, GradTape(record=False))[0].value
            for a in range(0, inputs.size - c, c)
        ]
        joined = leaf(np.concatenate(logits))
        nll = GradTape(record=False).cross_entropy(joined, targets[1 : len(logits) * c + 1])
        return float(np.exp(nll.value[0, 0]))

    @staticmethod
    def _count_forward(monkeypatch):
        calls = []
        original = model.forward

        def counted(tokens, *args, **kwargs):
            calls.append(np.shape(tokens))
            return original(tokens, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        return calls

    @pytest.mark.parametrize("elliptical, scaling", VARIANTS)
    def test_every_cpu_count_gives_the_per_window_float(self, set_cpus, elliptical, scaling):
        cfg, params, tokens = self._model(elliptical, scaling)
        generic = cfg.vocab_size - 1
        corrupted = corrupt_tokens(tokens, 0.2, generic, make_rng(3))
        assert not np.array_equal(corrupted, tokens)
        want = [
            self._per_window(params, cfg, tokens, tokens),
            self._per_window(params, cfg, corrupted, corrupted),
            self._per_window(params, cfg, corrupted, tokens),
        ]
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            got = [
                perplexity(params, cfg, tokens),
                perplexity(params, cfg, tokens, 0.2, make_rng(3)),
                perplexity(params, cfg, tokens, 0.2, make_rng(3), corrupt_targets=False),
            ]
            assert got == want, cpus

    def test_two_cpus_run_two_parts_and_a_small_stack_one(self, monkeypatch, set_cpus):
        cfg, params, tokens = self._model(True, "maxscale")
        set_cpus(2)
        calls = self._count_forward(monkeypatch)
        perplexity(params, cfg, tokens)
        assert sorted(calls) == [(12, _PART_CONTEXT), (13, _PART_CONTEXT)]  # threads race
        calls.clear()
        small = 2 * MIN_PART_WINDOWS - 1  # too few windows for two parts
        perplexity(params, cfg, tokens[: small * _PART_CONTEXT + 1])
        assert calls == [(small, _PART_CONTEXT)]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_callers_errstate_holds_in_every_part(self, monkeypatch, set_cpus, cpus):
        cfg, params, tokens = self._model(True, "maxscale")
        params["tok_emb"].value *= 1e200  # layer norm squares the embeddings past the range
        set_cpus(cpus)
        calls = self._count_forward(monkeypatch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            perplexity(params, cfg, tokens)
        assert len(calls) == cpus


class TestDiagnostics:
    def test_identical_rows_have_unit_cosine(self):
        rows = np.tile([[1.0, 2.0, 3.0]], (4, 1))
        assert mean_pairwise_cosine(rows) == pytest.approx(1.0)

    def test_orthogonal_rows_have_zero_cosine(self):
        assert mean_pairwise_cosine(np.eye(2)) == pytest.approx(0.0)

    def test_head_distance_hand_case(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert mean_head_distance([a, b]) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_head_distance_matches_the_pairwise_norm_loop_bitwise(self, heads):
        def pairwise_loop(attn_mats):
            if len(attn_mats) < 2:
                return 0.0
            flats = [a.reshape(-1) for a in attn_mats]
            dists = [float(np.linalg.norm(flats[i] - flats[j]))
                     for i in range(len(flats)) for j in range(i + 1, len(flats))]
            return float(np.mean(dists))

        rng = np.random.default_rng(heads)
        for t in range(1, 65):
            maps = np.stack([np.tril(rng.random((t, t))) for _ in range(heads)])
            maps /= maps.sum(axis=-1, keepdims=True)  # causal rows that sum to 1
            want = pairwise_loop(list(maps))
            assert np.float64(mean_head_distance(list(maps))).tobytes() == np.float64(want).tobytes()
            assert np.float64(mean_head_distance(maps)).tobytes() == np.float64(want).tobytes()

    def test_report_shapes_and_ranges(self):
        corpus = synthetic_corpus(11, 900)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical=True)
        res = train(corpus, cfg, TrainParams(steps=20, batch_size=4))
        rep = diagnose(res.params, cfg, corpus.tokens[-300:], (0.1, 1.0), make_rng(11))
        assert len(rep.cosine_by_layer) == cfg.layers
        assert len(rep.head_distance_by_layer) == cfg.layers
        assert rep.robustness.shape == (cfg.layers, 2)
        assert all(-1.0 <= c <= 1.0 for c in rep.cosine_by_layer)
        assert rep.ppl_clean >= 1.0 and rep.ppl_corrupt >= 1.0
        assert rep.robustness_sup >= rep.robustness.max() - 1e-12
        assert [len(maps) for maps in rep.attention] == [cfg.heads] * cfg.layers
        for maps in rep.attention:
            for attn in maps:
                assert attn.shape == (cfg.context, cfg.context)
                np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(np.triu(attn, k=1) == 0.0)


class TestDiagnoseReference:
    """The batched robustness loop against a per-(head, draw) reference loop:
    same draws, one 2-D kernel call per head and draw, same bits."""

    def test_robustness_and_maps_match_per_head_loop_bitwise(self):
        from elliptical.attention import weighted_kernel
        from elliptical.model import N_DRAWS

        corpus = synthetic_corpus(21, 900)
        for cfg in (_tiny_cfg(corpus.vocab_size, elliptical=True, layers=3),
                    _one_head_cfg(corpus.vocab_size)):
            params = train(corpus, cfg, TrainParams(steps=4, batch_size=2)).params
            toks = corpus.tokens[-200:]
            epsilons = (0.01, 0.3, 1.0)
            rep = diagnose(params, cfg, toks, epsilons, make_rng(8))

            rng = make_rng(8)
            _, states = forward(toks[: cfg.context], params, cfg, GradTape())
            dh, temp = cfg.head_dim, float(np.sqrt(cfg.head_dim))
            ratios = np.zeros((cfg.layers, len(epsilons)))
            sup = 0.0
            for li, st in enumerate(states):
                per_head = [
                    tuple(a[:, h * dh : (h + 1) * dh]
                          for a in (st.queries, st.keys, st.values, st.metric))
                    for h in range(cfg.heads)
                ]
                bases = [weighted_kernel(*qkvm, temp, causal=True) for qkvm in per_head]
                for h, base in enumerate(bases):
                    assert rep.attention[li][h].tobytes() == base.attn.tobytes()
                for si, scale in enumerate(epsilons):
                    acc = []
                    for (q, k, v, m), base in zip(per_head, bases):
                        for _ in range(N_DRAWS):
                            eps = scale * rng.standard_normal(q.shape)
                            moved = weighted_kernel(q + eps, k, v, m, temp, causal=True).h
                            ratio = float(np.linalg.norm(moved - base.h) / np.linalg.norm(eps))
                            acc.append(ratio)
                            sup = max(sup, ratio)
                    ratios[li, si] = float(np.mean(acc))
            assert rep.robustness.tobytes() == ratios.tobytes(), cfg.heads
            assert rep.robustness_sup == sup, cfg.heads


def _report_bytes(rep):
    """Every field of a ``diagnose`` report as bytes, each attention map's included."""
    floats = [rep.ppl_clean, rep.ppl_corrupt, rep.robustness_sup,
              *rep.cosine_by_layer, *rep.head_distance_by_layer]
    return [np.array(floats).tobytes(), rep.robustness.tobytes(),
            *(attn.tobytes() for maps in rep.attention for attn in maps)]


class TestDiagnoseJobs:
    """``diagnose`` runs each layer's robustness and both perplexities as jobs of one
    thread map, on the process's one pool of a thread per CPU, after drawing every unit
    perturbation in one call on the caller's thread; the report must not move by a bit,
    and an overflow or underflow must name the scale the serial (layer, scale) loop meets
    first."""

    @pytest.mark.parametrize("elliptical, scaling",
                             [(False, "maxscale"), (True, "maxscale"), (True, "meanscale")])
    def test_every_cpu_count_gives_the_one_cpu_report(self, set_cpus, elliptical, scaling):
        corpus = synthetic_corpus(24, 900)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical, scaling, layers=3)
        params = train(corpus, cfg, TrainParams(steps=3, batch_size=2)).params
        toks = corpus.tokens[-500:]  # 15 windows: two perplexity parts when run alone
        reports = []
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            rep = diagnose(params, cfg, toks, (0.01, 0.3, 1.0), make_rng(4), corrupt_rate=0.1)
            reports.append(_report_bytes(rep))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_job_per_layer_and_perplexity_on_one_worker_per_cpu(self, monkeypatch, set_cpus, cpus):
        corpus = synthetic_corpus(24, 600)
        cfg = _tiny_cfg(corpus.vocab_size, True, layers=3)
        set_cpus(cpus)
        maps = []
        original = model.ordered_map

        def recorded(fn, items, **kwargs):
            maps.append((len(items), kwargs))
            return original(fn, items, **kwargs)

        monkeypatch.setattr(model, "ordered_map", recorded)
        diagnose(init_params(cfg), cfg, corpus.tokens[-200:], (0.01, 0.1), make_rng(2))
        assert maps[0] == (cfg.layers + 2, {})  # fanned: the pool has one thread per CPU

    def test_perplexity_then_diagnose_run_on_one_pool(self, monkeypatch, set_cpus):
        # the pool is sized by the CPUs, not by the first map's two parts, so the map of
        # diagnose's five jobs that follows runs on the same pool
        corpus = synthetic_corpus(24, 900)
        cfg = _tiny_cfg(corpus.vocab_size, True, layers=3)
        params = init_params(cfg)
        toks = corpus.tokens[-500:]  # 15 windows: two perplexity parts on 3 CPUs
        set_cpus(3)
        made, ran_on, original = [], [], model.ordered_map

        class Recorded(ThreadPoolExecutor):
            def __init__(self, workers, initializer, initargs=()):
                made.append(self)
                self.workers, self.threads = workers, set()

                def init(*args):
                    self.threads.add(threading.get_ident())
                    initializer(*args)

                super().__init__(workers, initializer=init, initargs=initargs)

        def recorded(fn, items, *args, **kwargs):
            threads = set()
            ran_on.append(threads)

            def job(x):
                threads.add(threading.get_ident())
                return fn(x)

            return original(job, items, *args, **kwargs)

        monkeypatch.setattr(numerics, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(model, "ordered_map", recorded)
        perplexity(params, cfg, toks)
        diagnose(params, cfg, toks, (0.01, 0.1), make_rng(2))
        assert [pool.workers for pool in made] == [3]
        # the two maps, then diagnose's two perplexities, each inline on a pool thread
        assert len(ran_on) == 4
        assert all(threads and threads <= made[0].threads for threads in ran_on)
        assert threading.get_ident() not in made[0].threads

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("epsilons, named", [
        ((1e200, 1e308), "1e+200"),  # layer 0's 1e200 norm overflows before the 1e308 draw
        ((1e308, 1e200), "1e+308"),  # the first draw overflows
        ((1e-4, 1e308), "1e+308"),   # a good scale, then a draw that overflows
    ])
    def test_the_first_overflow_in_loop_order_is_named(self, set_cpus, cpus, epsilons, named):
        corpus = synthetic_corpus(24, 600)
        cfg = _tiny_cfg(corpus.vocab_size, True, layers=3)
        set_cpus(cpus)
        with pytest.raises(ParameterError, match=rf"^epsilon scale {re.escape(named)} overflows"):
            diagnose(init_params(cfg), cfg, corpus.tokens[-200:], epsilons, make_rng(5))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("epsilons, named", [
        ((1e-200,), "1e-200"),       # the draw's norm underflows to 0, so its ratio is 0/0
        ((1e-4, 1e-300), "1e-300"),  # a good scale, then a draw whose norm underflows
    ])
    def test_the_first_underflow_in_loop_order_is_named(self, set_cpus, cpus, epsilons, named):
        corpus = synthetic_corpus(24, 600)
        cfg = _tiny_cfg(corpus.vocab_size, True, layers=3)
        set_cpus(cpus)
        with pytest.raises(ParameterError, match=rf"^epsilon scale {re.escape(named)} underflows"):
            diagnose(init_params(cfg), cfg, corpus.tokens[-200:], epsilons, make_rng(5))


class TestCheckpoints:
    def test_round_trip_preserves_everything(self, tmp_path):
        corpus = synthetic_corpus(12, 900)
        cfg = _tiny_cfg(corpus.vocab_size, elliptical=True, seed=5)
        res = train(corpus, cfg, TrainParams(steps=10, batch_size=4))
        path = tmp_path / "model.bin"
        save_checkpoint(path, res.params, cfg, res.opt, res.steps_done)
        loaded = load_checkpoint(path)
        assert loaded.cfg == cfg
        assert loaded.step == 10
        assert loaded.opt.t == res.opt.t
        for k in res.params:
            assert np.array_equal(loaded.params[k].value, res.params[k].value)
            assert np.array_equal(loaded.opt.m[k], res.opt.m[k])

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        corpus = synthetic_corpus(13, 900)
        cfg = _tiny_cfg(corpus.vocab_size, seed=6)

        full = train(corpus, cfg, TrainParams(steps=30, batch_size=4))

        head = train(corpus, cfg, TrainParams(steps=12, batch_size=4))
        path = tmp_path / "head.bin"
        save_checkpoint(path, head.params, cfg, head.opt, head.steps_done)
        loaded = load_checkpoint(path)
        tail = train(
            corpus, cfg, TrainParams(steps=18, batch_size=4),
            loaded.params, loaded.opt, loaded.step,
        )
        assert head.losses + tail.losses == full.losses
        for k in full.params:
            assert np.array_equal(full.params[k].value, tail.params[k].value)

    def test_save_is_byte_stable(self, tmp_path):
        corpus = synthetic_corpus(14, 900)
        cfg = _tiny_cfg(corpus.vocab_size, seed=7)
        res_a = train(corpus, cfg, TrainParams(steps=5, batch_size=4))
        res_b = train(corpus, cfg, TrainParams(steps=5, batch_size=4))
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(pa, res_a.params, cfg, res_a.opt, 5)
        save_checkpoint(pb, res_b.params, cfg, res_b.opt, 5)
        assert pa.read_bytes() == pb.read_bytes()


    def test_damaged_file_raises_naming_it(self, tmp_path):
        cfg = _tiny_cfg(13)
        params = init_params(cfg)
        good = tmp_path / "good.bin"
        save_checkpoint(good, params, cfg, AdamState(params), 0)
        data = good.read_bytes()
        # every table header start (a cut there drops whole tables), plus
        # cuts inside headers and payloads
        cuts = [i for i in range(1, len(data)) if data[i - 1 : i + 2] in (b"\np ", b"\nm ", b"\nv ")]
        cuts += list(range(0, len(data), 97))
        bad = tmp_path / "bad.bin"
        for cut in cuts:
            bad.write_bytes(data[:cut])
            with pytest.raises(ParameterError, match="bad.bin"):
                load_checkpoint(bad)
        lines = data.split(b"\n", 2)
        for garbled in (b"{not json", b'{"step": 0}', lines[1].replace(b'"heads": 2', b'"heads": 3')):
            bad.write_bytes(b"\n".join([lines[0], garbled, lines[2]]))
            with pytest.raises(ParameterError, match="bad.bin"):
                load_checkpoint(bad)


    def test_header_that_disagrees_with_tables_names_the_first_table(self, tmp_path):
        cfg = _tiny_cfg(13)
        params = init_params(cfg)
        good = tmp_path / "good.bin"
        save_checkpoint(good, params, cfg, AdamState(params), 0)
        magic, header, rest = good.read_bytes().split(b"\n", 2)
        bad = tmp_path / "bad.bin"
        for old, new, table in (
            (b'"layers": 2', b'"layers": 3', "table p l2.b1, which its config builds, is missing"),
            (b'"layers": 2', b'"layers": 1', "table p l1.b1 has shape (1, 32); its config builds no such"),
            (b'"context": 32', b'"context": 48', "table p pos_emb has shape (32, 16); its config builds shape (48, 16)"),
            (b'"ff_dim": 32', b'"ff_dim": 24', "table p l0.b1 has shape (1, 32); its config builds shape (1, 24)"),
        ):
            bad.write_bytes(b"\n".join([magic, header.replace(old, new), rest]))
            with pytest.raises(ParameterError, match="bad.bin") as info:
                load_checkpoint(bad)
            assert table in str(info.value)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = _tiny_cfg(13)
        params = init_params(cfg)
        path = tmp_path / "c.bin"
        save_checkpoint(path, params, cfg, AdamState(params), 0)
        before = path.read_bytes()

        class DiskFull(io.FileIO):
            # the device fills up once half the old file's size is written
            def write(self, b):
                if self.tell() + len(b) > len(before) // 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(b)

        monkeypatch.setattr(model, "open", lambda f, mode: DiskFull(f, "w"), raising=False)
        params["tok_emb"].value += 1.0
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, params, cfg, AdamState(params), 5)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_file_loads_whole_or_raises(self, fuzz_checkpoint, data):
        blob, header_bytes, path = fuzz_checkpoint
        if data.draw(st.booleans(), label="cut"):
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            # half the flips land in the magic line and JSON header, half in
            # the table headers, which hold five times as many bytes
            region = data.draw(st.sampled_from(header_bytes), label="region")
            pos = data.draw(st.sampled_from(region), label="byte")
            bit = data.draw(st.integers(0, 7), label="bit")
            damaged = bytearray(blob)
            damaged[pos] ^= 1 << bit
            damaged = bytes(damaged)
        path.write_bytes(damaged)
        try:
            ckpt = load_checkpoint(path)
        except ParameterError as exc:
            assert str(path) in str(exc)
            return
        want = {name: shape for name, shape, _ in param_table(ckpt.cfg)}
        assert {k: p.shape for k, p in ckpt.params.items()} == want
        assert {k: a.shape for k, a in ckpt.opt.m.items()} == want
        assert {k: a.shape for k, a in ckpt.opt.v.items()} == want


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A tiny trained checkpoint's bytes, the offsets of every byte that is
    not table payload (those of the magic line and JSON header, and those of
    the table headers), and a path to write damaged copies to."""
    cfg = ModelConfig(vocab_size=5, layers=2, heads=1, head_dim=2, embed_dim=2,
                      ff_dim=3, context=4, elliptical=True)
    res = train(Corpus(np.arange(64) % 4, "abcd"), cfg, TrainParams(steps=2, batch_size=2))
    path = tmp_path_factory.mktemp("fuzz") / "tiny.bin"
    save_checkpoint(path, res.params, cfg, res.opt, res.steps_done)
    blob = path.read_bytes()
    pos = blob.index(b"\n", blob.index(b"\n") + 1) + 1  # after the magic line and JSON header
    head, tables = list(range(pos)), []
    while pos < len(blob):
        end = blob.index(b"\n", pos) + 1
        tables += range(pos, end)
        _, _, rows, cols = blob[pos:end].split()
        pos = end + 8 * int(rows) * int(cols)
    return blob, (head, tables), path.with_name("damaged.bin")


class TestAdam:
    def test_moments_update_toward_gradient(self):
        params = {"w": leaf(np.zeros((1, 2)))}
        opt = AdamState(params)
        params["w"].grad = np.array([[1.0, -1.0]])
        opt.step(params, TrainParams(steps=1, lr=0.1))
        assert params["w"].value[0, 0] < 0.0
        assert params["w"].value[0, 1] > 0.0

    @staticmethod
    def _params_and_grads(seed, steps, shapes=None):
        rng = make_rng(seed)
        shapes = shapes or {"w": (3, 4), "b": (1, 4), "e": (5, 2)}
        params = {k: leaf(rng.standard_normal(s)) for k, s in shapes.items()}
        # the second parameter has no gradient on every other step, as an
        # unused parameter would
        unused = list(shapes)[1]
        grads = [
            {k: None if k == unused and t % 2 else rng.standard_normal(s) for k, s in shapes.items()}
            for t in range(steps)
        ]
        return params, grads

    def test_flat_step_matches_per_parameter_loop_bitwise(self):
        params, grads = self._params_and_grads(51, 6)
        ref = {k: p.value.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
        ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
        opt, tp = AdamState(params), TrainParams(steps=1, lr=0.01)
        for t, step_grads in enumerate(grads, 1):
            for k, p in params.items():
                p.grad = step_grads[k]
            opt.step(params, tp)
            # the per-parameter update that the flat buffers replaced
            c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            for k in ref:
                g = step_grads[k] if step_grads[k] is not None else np.zeros_like(ref[k])
                ref_m[k] = ADAM_BETA1 * ref_m[k] + (1.0 - ADAM_BETA1) * g
                ref_v[k] = ADAM_BETA2 * ref_v[k] + (1.0 - ADAM_BETA2) * g * g
                ref[k] -= tp.lr * (ref_m[k] / c1) / (np.sqrt(ref_v[k] / c2) + ADAM_EPS)
            for k in ref:
                assert np.array_equal(params[k].value, ref[k]), k
                assert np.array_equal(opt.m[k], ref_m[k]) and np.array_equal(opt.v[k], ref_v[k]), k

    def test_step_after_load_checkpoint_matches_uninterrupted_bitwise(self, tmp_path):
        cfg = _tiny_cfg(13)
        runs = []
        for resumed in (False, True):
            # a checkpoint holds only the tables its config builds
            shapes = {name: shape for name, shape, _ in param_table(cfg)}
            params, grads = self._params_and_grads(52, 6, shapes)
            opt, tp = AdamState(params), TrainParams(steps=1, lr=0.01)
            for t, step_grads in enumerate(grads):
                if resumed and t == 3:
                    save_checkpoint(tmp_path / "c.bin", params, cfg, opt, t)
                    ckpt = load_checkpoint(tmp_path / "c.bin")
                    params, opt = ckpt.params, ckpt.opt
                for k, p in params.items():
                    p.grad = step_grads[k]
                opt.step(params, tp)
            runs.append((params, opt))
        (pa, oa), (pb, ob) = runs
        assert oa.t == ob.t == 6
        for k in pa:
            assert np.array_equal(pa[k].value, pb[k].value), k
            assert np.array_equal(oa.m[k], ob.m[k]) and np.array_equal(oa.v[k], ob.v[k]), k

    def test_step_rejects_other_parameters(self):
        params = {"w": leaf(np.zeros((1, 2)))}
        opt = AdamState(params)
        with pytest.raises(ParameterError):
            opt.step({"u": leaf(np.zeros((1, 2)))}, TrainParams(steps=1))
