"""Character-level decoder-only transformer with metric-weighted attention
wired into every layer after the first, plus the training loop, the token
corruption harness, and collapse/redundancy/robustness diagnostics.

The per-head metric is recomputed each forward pass from the raw value
arrays of the current and previous layer; that computation happens outside
the gradient tape, so training gradients flow through attention but never
through the metric.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .attention import causal_mask, weighted_kernel
from .autodiff import GradTape, Tensor, backward, leaf
from .estimators import prefix_overlayers_raw
from .metric import DEFAULT_FLOOR, SCALING_MODES, scale_rows
from .numerics import ParameterError, derive_rng, softmax_rows

NS_INIT = 1
NS_BATCH = 2
NS_METRIC = 3
NS_CORPUS = 4
NS_EVAL = 5

_CKPT_MAGIC = "ELLIPTICAL-CKPT 1"

#: metric stream index reserved for evaluation-time random scaling, so a
#: random-metric model is still a deterministic function of its config
_EVAL_METRIC_STREAM = 2**31 - 1


class InputError(ValueError):
    """Token ids or sequence lengths violate the model contract."""


class TrainingError(RuntimeError):
    """Training diverged; carries the step at which the loss went non-finite."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    """Token stream plus its character inventory and the reserved swap token."""

    tokens: np.ndarray
    charset: str

    @property
    def generic_id(self) -> int:
        return len(self.charset)

    @property
    def vocab_size(self) -> int:
        # one extra slot for the generic corruption token
        return len(self.charset) + 1


def synthetic_corpus(
    seed: int = 0, length: int = 8192, n_symbols: int = 12, order: int = 2
) -> Corpus:
    """Deterministic Markov-chain text with peaky transition rows.

    ``order`` is the chain memory: the next symbol depends on the previous
    ``order`` symbols, so prediction genuinely requires attending beyond the
    current position.
    """
    if n_symbols < 2 or n_symbols > 26:
        raise ParameterError("n_symbols must be in [2, 26]")
    if order < 1:
        raise ParameterError("order must be at least 1")
    rng = derive_rng(seed, NS_CORPUS, 0)
    n_states = n_symbols**order
    probs = softmax_rows(2.5 * rng.standard_normal((n_states, n_symbols)))
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(length)
    tokens = np.empty(length, dtype=np.int64)
    state = 0
    for t in range(length):
        sym = int(np.searchsorted(cum[state], draws[t]))
        tokens[t] = sym
        state = (state * n_symbols + sym) % n_states
    return Corpus(tokens, "abcdefghijklmnopqrstuvwxyz"[:n_symbols])


def alternating_corpus(length: int = 2048) -> Corpus:
    """The two-symbol alternation task; its optimal perplexity is 1."""
    return Corpus(np.arange(length, dtype=np.int64) % 2, "ab")


def corpus_from_text(text: str) -> Corpus:
    charset = "".join(sorted(set(text)))
    if len(charset) < 2:
        raise ParameterError("corpus needs at least two distinct characters")
    index = {c: i for i, c in enumerate(charset)}
    return Corpus(np.array([index[c] for c in text], dtype=np.int64), charset)


def corrupt_tokens(
    tokens, rate: float, generic_id: int, rng: np.random.Generator
) -> np.ndarray:
    """Independently replace each position by ``generic_id`` with prob ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ParameterError("rate must lie in [0, 1]")
    tokens = np.asarray(tokens, dtype=np.int64)
    swap = rng.random(tokens.size) < rate
    return np.where(swap, generic_id, tokens)


# ---------------------------------------------------------------------------
# Model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    layers: int = 4
    heads: int = 2
    head_dim: int = 16
    embed_dim: int = 32
    ff_dim: int = 64
    context: int = 64
    elliptical: bool = False
    scaling: str = "maxscale"
    delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim != self.heads * self.head_dim:
            raise ParameterError("embed_dim must equal heads * head_dim")
        if self.layers < 1 or (self.elliptical and self.layers < 2):
            raise ParameterError("need layers >= 2 for the metric-weighted variant")
        if self.scaling not in SCALING_MODES:
            raise ParameterError(f"unknown scaling mode {self.scaling!r}")
        if self.vocab_size < 2 or self.context < 1 or self.delta <= 0:
            raise ParameterError("invalid vocab_size, context or delta")


@dataclass
class AttentionLayerState:
    """Per-layer forward-pass record used by later layers and diagnostics.

    ``estimator_values`` holds the (v_curr, v_prev) copies actually read by
    the variability estimator (None on layers that ran without a metric);
    mutating them after the forward pass must not affect gradients.
    """

    layer: int
    head_values: list[np.ndarray]
    estimator_values: list[tuple[np.ndarray, np.ndarray] | None]
    head_queries: list[np.ndarray]
    head_keys: list[np.ndarray]
    head_attn: list[np.ndarray]
    head_metric: list[np.ndarray]
    representation: np.ndarray


def init_params(cfg: ModelConfig) -> dict[str, Tensor]:
    """Fresh parameter leaves, deterministic in cfg.seed."""
    rng = derive_rng(cfg.seed, NS_INIT, 0)
    scale = 0.02
    e, f, v = cfg.embed_dim, cfg.ff_dim, cfg.vocab_size
    params: dict[str, Tensor] = {
        "tok_emb": leaf(scale * rng.standard_normal((v, e))),
        "pos_emb": leaf(scale * rng.standard_normal((cfg.context, e))),
    }
    for li in range(cfg.layers):
        params[f"l{li}.ln1.g"] = leaf(np.ones((1, e)))
        params[f"l{li}.ln1.b"] = leaf(np.zeros((1, e)))
        for name in ("wq", "wk", "wv", "wo"):
            params[f"l{li}.{name}"] = leaf(scale * rng.standard_normal((e, e)))
        params[f"l{li}.ln2.g"] = leaf(np.ones((1, e)))
        params[f"l{li}.ln2.b"] = leaf(np.zeros((1, e)))
        params[f"l{li}.w1"] = leaf(scale * rng.standard_normal((e, f)))
        params[f"l{li}.b1"] = leaf(np.zeros((1, f)))
        params[f"l{li}.w2"] = leaf(scale * rng.standard_normal((f, e)))
        params[f"l{li}.b2"] = leaf(np.zeros((1, e)))
    params["lnf.g"] = leaf(np.ones((1, e)))
    params["lnf.b"] = leaf(np.zeros((1, e)))
    params["head.w"] = leaf(scale * rng.standard_normal((e, v)))
    params["head.b"] = leaf(np.zeros((1, v)))
    return params


#: causal metric warmup: positions with fewer prefix samples than this keep
#: the identity metric, because a 1-to-15-sample mean is mostly noise
#: (the single-layer ``attention.elliptical_attention`` uses no warm-up)
METRIC_WARMUP = 16


def _metric_rows(
    v_curr: np.ndarray,
    v_prev: np.ndarray,
    heads: int,
    mode: str,
    delta: float,
    floor: float = DEFAULT_FLOOR,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-position metric rows for a (batch, t_len, heads * head_dim) stack.

    Row t of each block and head only sees that block's and head's value
    rows <= t, which keeps causal decoding honest.  One prefix mean down the
    time axis covers every block and head.  Rows are scaled in (head, block,
    row) order, the order in which random mode draws.  Returns
    (batch * t_len, heads * head_dim) rows in the merged column layout.
    """
    batch, t_len, width = v_curr.shape
    dh = width // heads

    def time_major(a):  # (batch, t_len, width) -> (t_len, batch * width)
        return a.transpose(1, 0, 2).reshape(t_len, batch * width)

    raw = prefix_overlayers_raw(
        time_major(v_curr), time_major(v_prev), delta, min_samples=METRIC_WARMUP
    )
    by_head = raw.reshape(t_len, batch, heads, dh).transpose(2, 1, 0, 3)
    m = scale_rows(by_head.reshape(-1, dh), mode, floor, rng)
    return m.reshape(heads, batch, t_len, dh).transpose(1, 2, 0, 3).reshape(
        batch * t_len, width
    )


def forward(
    tokens,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tape: GradTape,
    metric_rng: np.random.Generator | None = None,
    metric_overrides: dict[tuple[int, int], np.ndarray] | None = None,
) -> tuple[Tensor, list[AttentionLayerState]]:
    """Causal forward pass; layer 0 always runs with an identity metric.

    ``metric_overrides`` pins the metric rows of (layer, head) pairs to given
    constants, which lets tests freeze the metric while differentiating.
    Each layer's metric is estimated for all heads before overrides apply,
    so in random mode an override leaves the other heads' draws unchanged.
    """
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    t_len = tokens.size
    if t_len < 1 or t_len > cfg.context:
        raise InputError(f"sequence length {t_len} outside [1, {cfg.context}]")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise InputError("token id outside the vocabulary")
    if cfg.scaling == "random" and metric_rng is None:
        metric_rng = derive_rng(cfg.seed, NS_METRIC, _EVAL_METRIC_STREAM)

    x = tape.add(
        tape.embedding(params["tok_emb"], tokens),
        tape.embedding(params["pos_emb"], np.arange(t_len)),
    )
    mask = causal_mask(t_len)
    temp = float(np.sqrt(cfg.head_dim))
    dh = cfg.head_dim
    prev_values: np.ndarray | None = None
    states: list[AttentionLayerState] = []

    for li in range(cfg.layers):
        xn = tape.layer_norm(x, params[f"l{li}.ln1.g"], params[f"l{li}.ln1.b"])
        qm = tape.matmul(xn, params[f"l{li}.wq"])
        km = tape.matmul(xn, params[f"l{li}.wk"])
        vm = tape.matmul(xn, params[f"l{li}.wv"])
        use_metric = cfg.elliptical and li >= 1 and cfg.scaling != "identity"
        if use_metric:
            held = (vm.value.copy(), prev_values.copy())
            m_layer = _metric_rows(
                held[0][None], held[1][None], cfg.heads, cfg.scaling, cfg.delta,
                rng=metric_rng,
            )
        outs, vals, attns, metrics, est_inputs = [], [], [], [], []
        qs_rec, ks_rec = [], []
        for h in range(cfg.heads):
            j0, j1 = h * dh, (h + 1) * dh
            q = tape.slice_cols(qm, j0, j1)
            k = tape.slice_cols(km, j0, j1)
            v = tape.slice_cols(vm, j0, j1)
            if metric_overrides is not None and (li, h) in metric_overrides:
                m = np.asarray(metric_overrides[(li, h)], dtype=np.float64)
                est_inputs.append(None)
            elif use_metric:
                m = m_layer[:, j0:j1]
                est_inputs.append((held[0][:, j0:j1], held[1][:, j0:j1]))
            else:
                m = np.ones(dh)
                est_inputs.append(None)
            qs = tape.mul_const(q, m)
            scores = tape.add_const(
                tape.div_const(tape.matmul(qs, tape.transpose(k)), temp), mask
            )
            attn = tape.softmax_rows(scores)
            outs.append(tape.matmul(attn, v))
            vals.append(v.value)
            attns.append(attn.value.copy())
            metrics.append(m)
            qs_rec.append(q.value.copy())
            ks_rec.append(k.value.copy())
        merged = tape.concat_cols(outs)
        x = tape.add(x, tape.matmul(merged, params[f"l{li}.wo"]))
        x2 = tape.layer_norm(x, params[f"l{li}.ln2.g"], params[f"l{li}.ln2.b"])
        hidden = tape.relu(
            tape.add(tape.matmul(x2, params[f"l{li}.w1"]), params[f"l{li}.b1"])
        )
        x = tape.add(
            x, tape.add(tape.matmul(hidden, params[f"l{li}.w2"]), params[f"l{li}.b2"])
        )
        states.append(
            AttentionLayerState(
                layer=li,
                head_values=[v.copy() for v in vals],
                estimator_values=est_inputs,
                head_queries=qs_rec,
                head_keys=ks_rec,
                head_attn=attns,
                head_metric=metrics,
                representation=x.value.copy(),
            )
        )
        prev_values = vm.value

    xf = tape.layer_norm(x, params["lnf.g"], params["lnf.b"])
    logits = tape.add(tape.matmul(xf, params["head.w"]), params["head.b"])
    return logits, states


def _forward_stacked(
    inputs: np.ndarray,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tape: GradTape,
    metric_rng: np.random.Generator | None = None,
) -> Tensor:
    """Training-path forward over a (batch, t_len) stack of sequences.

    Bit for bit equal to per-sequence :func:`forward` on each sequence
    (attention stays within each sequence, and metric rows are computed per
    sequence and head), but each layer runs as stacked matmuls: one metric
    call and one multi-head attention node per layer.  Returns flat logits of
    shape (batch * t_len, vocab).
    """
    batch, t_len = inputs.shape
    if t_len < 1 or t_len > cfg.context:
        raise InputError(f"sequence length {t_len} outside [1, {cfg.context}]")
    if inputs.min() < 0 or inputs.max() >= cfg.vocab_size:
        raise InputError("token id outside the vocabulary")
    if cfg.scaling == "random" and metric_rng is None:
        metric_rng = derive_rng(cfg.seed, NS_METRIC, _EVAL_METRIC_STREAM)
    flat = inputs.reshape(-1)
    pos = np.tile(np.arange(t_len), batch)
    x = tape.add(
        tape.embedding(params["tok_emb"], flat),
        tape.embedding(params["pos_emb"], pos),
    )
    temp = float(np.sqrt(cfg.head_dim))
    use_metric = cfg.elliptical and cfg.scaling != "identity"
    prev_values: np.ndarray | None = None

    for li in range(cfg.layers):
        xn = tape.layer_norm(x, params[f"l{li}.ln1.g"], params[f"l{li}.ln1.b"])
        qm = tape.matmul(xn, params[f"l{li}.wq"])
        km = tape.matmul(xn, params[f"l{li}.wk"])
        vm = tape.matmul(xn, params[f"l{li}.wv"])
        values = vm.value.reshape(batch, t_len, cfg.embed_dim)
        if use_metric and li >= 1:
            m = _metric_rows(
                values, prev_values, cfg.heads, cfg.scaling, cfg.delta, rng=metric_rng
            )
        else:
            m = 1.0
        merged = tape.block_causal_attention(qm, km, vm, m, temp, batch, cfg.heads)
        x = tape.add(x, tape.matmul(merged, params[f"l{li}.wo"]))
        x2 = tape.layer_norm(x, params[f"l{li}.ln2.g"], params[f"l{li}.ln2.b"])
        hidden = tape.relu(
            tape.add(tape.matmul(x2, params[f"l{li}.w1"]), params[f"l{li}.b1"])
        )
        x = tape.add(
            x, tape.add(tape.matmul(hidden, params[f"l{li}.w2"]), params[f"l{li}.b2"])
        )
        prev_values = values

    xf = tape.layer_norm(x, params["lnf.g"], params["lnf.b"])
    return tape.add(tape.matmul(xf, params["head.w"]), params["head.b"])


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainParams:
    steps: int
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 8


class AdamState:
    """Per-parameter first/second moment accumulators."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.t = 0

    def step(self, params: dict[str, Tensor], tp: TrainParams) -> None:
        self.t += 1
        c1 = 1.0 - tp.beta1**self.t
        c2 = 1.0 - tp.beta2**self.t
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            self.m[name] = tp.beta1 * self.m[name] + (1.0 - tp.beta1) * g
            self.v[name] = tp.beta2 * self.v[name] + (1.0 - tp.beta2) * g * g
            p.value -= tp.lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + tp.eps)


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    opt: AdamState
    losses: list[float]
    steps_done: int


def train(
    corpus: Corpus,
    cfg: ModelConfig,
    tp: TrainParams,
    params: dict[str, Tensor] | None = None,
    opt: AdamState | None = None,
    start_step: int = 0,
) -> TrainResult:
    """Next-token cross-entropy training, deterministic in (cfg.seed, step).

    Batch windows are drawn from a per-step stream keyed by the step index,
    so resuming from a checkpoint continues the exact same sample sequence.
    """
    tokens = corpus.tokens
    if tokens.size < 10 * cfg.context:
        raise ParameterError("corpus must hold at least 10 * context tokens")
    if corpus.vocab_size > cfg.vocab_size:
        raise ParameterError("corpus vocabulary exceeds the model vocabulary")
    if params is None:
        params = init_params(cfg)
    if opt is None:
        opt = AdamState(params)
    losses: list[float] = []
    window = cfg.context + 1
    for step in range(start_step, start_step + tp.steps):
        rng = derive_rng(cfg.seed, NS_BATCH, step)
        metric_rng = (
            derive_rng(cfg.seed, NS_METRIC, step) if cfg.scaling == "random" else None
        )
        offsets = rng.integers(0, tokens.size - window + 1, size=tp.batch_size)
        windows = np.stack([tokens[off : off + window] for off in offsets])
        tape = GradTape()
        logits = _forward_stacked(windows[:, :-1], params, cfg, tape, metric_rng)
        loss = tape.cross_entropy(logits, windows[:, 1:].reshape(-1))
        value = float(loss.value[0, 0])
        if not np.isfinite(value):
            raise TrainingError(step, "loss is not finite")
        for p in params.values():
            p.grad = None
        backward(tape, loss)
        opt.step(params, tp)
        losses.append(value)
    return TrainResult(params, opt, losses, start_step + tp.steps)


def perplexity(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tokens,
    corrupt_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    corrupt_targets: bool = True,
) -> float:
    """exp(mean next-token NLL) over non-overlapping context windows.

    With ``corrupt_targets`` (the word-swap evaluation protocol) the model is
    scored on the corrupted stream itself.  With it off, only the
    conditioning inputs are corrupted and the true continuations are scored,
    which isolates how far contaminated context moves the predictions.
    """
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.size < 2:
        raise InputError("need at least two tokens to evaluate")
    target_stream = toks
    if corrupt_rate > 0.0:
        if rng is None:
            rng = derive_rng(cfg.seed, NS_EVAL, 0)
        toks = corrupt_tokens(toks, corrupt_rate, cfg.vocab_size - 1, rng)
        if corrupt_targets:
            target_stream = toks
    window = cfg.context + 1
    spans = [
        (start, min(start + window, toks.size))
        for start in range(0, max(toks.size - window + 1, 1), cfg.context)
    ]
    full = [s for s in spans if s[1] - s[0] == window]
    rest = [s for s in spans if 2 <= s[1] - s[0] < window]
    total, count = 0.0, 0
    if full:
        stack = np.stack([toks[a:b] for a, b in full])
        tape = GradTape()
        logits = _forward_stacked(stack[:, :-1], params, cfg, tape)
        probs = softmax_rows(logits.value)
        targets = np.stack([target_stream[a + 1 : b] for a, b in full]).reshape(-1)
        total += float(-np.log(probs[np.arange(targets.size), targets]).sum())
        count += targets.size
    for a, b in rest:
        tape = GradTape()
        logits, _ = forward(toks[a : b - 1], params, cfg, tape)
        probs = softmax_rows(logits.value)
        rows = np.arange(b - a - 1)
        total += float(-np.log(probs[rows, target_stream[a + 1 : b]]).sum())
        count += b - a - 1
    return float(np.exp(total / count))


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-layer collapse/redundancy metrics plus eval robustness numbers."""

    cosine_by_layer: list[float]
    head_distance_by_layer: list[float]
    ppl_clean: float
    ppl_corrupt: float
    robustness: np.ndarray  # (layers, len(epsilons)) mean ratio per scale
    robustness_sup: float
    epsilons: tuple[float, ...]


def mean_pairwise_cosine(rows: np.ndarray) -> float:
    """Mean cosine similarity over all unordered row pairs."""
    n = rows.shape[0]
    if n < 2:
        return 1.0
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)
    sims = unit @ unit.T
    return float(sims[np.triu_indices(n, k=1)].mean())


def mean_head_distance(attn_mats: list[np.ndarray]) -> float:
    """Mean Euclidean distance between flattened head attention maps."""
    if len(attn_mats) < 2:
        return 0.0
    flats = [a.reshape(-1) for a in attn_mats]
    dists = [
        float(np.linalg.norm(flats[i] - flats[j]))
        for i in range(len(flats))
        for j in range(i + 1, len(flats))
    ]
    return float(np.mean(dists))


def diagnose(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    eval_tokens,
    epsilons: tuple[float, ...],
    rng: np.random.Generator,
    corrupt_rate: float = 0.025,
    n_draws: int = 8,
) -> DiagnosticsReport:
    """Collapse, head-redundancy and query-perturbation diagnostics.

    Robustness perturbs each layer's recorded per-head queries with Gaussian
    noise at every scale and recomputes that head's attention output with
    the metric held fixed.
    """
    toks = np.asarray(eval_tokens, dtype=np.int64)
    if toks.size < 2:
        raise InputError("need at least two eval tokens")
    window = toks[: min(toks.size, cfg.context + 1)]
    tape = GradTape()
    _, states = forward(window[:-1], params, cfg, tape)

    cosines = [mean_pairwise_cosine(st.representation) for st in states]
    head_dists = [mean_head_distance(st.head_attn) for st in states]

    temp = float(np.sqrt(cfg.head_dim))
    ratios = np.zeros((cfg.layers, len(epsilons)))
    sup = 0.0
    for li, st in enumerate(states):
        for si, scale in enumerate(epsilons):
            acc = []
            for q, k, v, m in zip(
                st.head_queries, st.head_keys, st.head_values, st.head_metric
            ):
                base = weighted_kernel(q, k, v, m, temp, causal=True).h
                for _ in range(n_draws):
                    eps = scale * rng.standard_normal(q.shape)
                    moved = weighted_kernel(q + eps, k, v, m, temp, causal=True).h
                    ratio = float(
                        np.linalg.norm(moved - base) / np.linalg.norm(eps)
                    )
                    acc.append(ratio)
                    sup = max(sup, ratio)
            ratios[li, si] = float(np.mean(acc))

    ppl_clean = perplexity(params, cfg, toks)
    ppl_corrupt = perplexity(params, cfg, toks, corrupt_rate=corrupt_rate, rng=rng)
    return DiagnosticsReport(
        cosine_by_layer=cosines,
        head_distance_by_layer=head_dists,
        ppl_clean=ppl_clean,
        ppl_corrupt=ppl_corrupt,
        robustness=ratios,
        robustness_sup=sup,
        epsilons=tuple(epsilons),
    )


# ---------------------------------------------------------------------------
# Checkpoints: a flat binary container with a config echo, byte-stable for
# identical (config, seed, step) so runs can be compared by file digest.
# ---------------------------------------------------------------------------


def save_checkpoint(
    path, params: dict[str, Tensor], cfg: ModelConfig, opt: AdamState, step: int
) -> None:
    header = {"config": asdict(cfg), "step": step, "adam_t": opt.t}
    with open(path, "wb") as fh:
        fh.write((_CKPT_MAGIC + "\n").encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for kind, table in (("p", {k: p.value for k, p in params.items()}),
                            ("m", opt.m), ("v", opt.v)):
            for name in sorted(table):
                arr = np.ascontiguousarray(table[name], dtype="<f8")
                fh.write(f"{kind} {name} {arr.shape[0]} {arr.shape[1]}\n".encode())
                fh.write(arr.tobytes())


@dataclass
class Checkpoint:
    cfg: ModelConfig
    step: int
    params: dict[str, Tensor]
    opt: AdamState


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        if fh.readline().decode().strip() != _CKPT_MAGIC:
            raise ParameterError(f"{path} is not a model checkpoint")
        header = json.loads(fh.readline().decode())
        tables: dict[str, dict[str, np.ndarray]] = {"p": {}, "m": {}, "v": {}}
        while True:
            line = fh.readline()
            if not line:
                break
            kind, name, rows, cols = line.decode().split()
            rows, cols = int(rows), int(cols)
            buf = fh.read(rows * cols * 8)
            tables[kind][name] = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
    cfg = ModelConfig(**header["config"])
    params = {name: leaf(arr) for name, arr in tables["p"].items()}
    opt = AdamState(params)
    opt.m = tables["m"]
    opt.v = tables["v"]
    opt.t = header["adam_t"]
    return Checkpoint(cfg=cfg, step=header["step"], params=params, opt=opt)
