"""Character-level decoder-only transformer with metric-weighted attention
wired into every layer after the first, plus the training loop, the token
corruption harness, and collapse/redundancy/robustness diagnostics.

The per-head metric is recomputed each forward pass from the raw value
arrays of the current and previous layer; that computation happens outside
the gradient tape, so training gradients flow through attention but never
through the metric.
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .attention import merge_heads, split_heads, weighted_kernel
from .autodiff import GradTape, Tensor, backward, leaf
from .estimators import estimate_overlayers
from .metric import SCALING_MODES, scale_rows
from .numerics import ParameterError, derive_rng, ordered_map, softmax_rows, unit_rows

NS_INIT = 1
NS_BATCH = 2
# stream 3 is unused; renumbering the ids below would move every corpus and eval draw
NS_CORPUS = 4
NS_EVAL = 5

_CKPT_MAGIC = "ELLIPTICAL-CKPT 1"


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
    """Token stream plus its character inventory."""

    tokens: np.ndarray
    charset: str

    @property
    def vocab_size(self) -> int:
        # one extra slot, id len(charset), for the generic corruption token
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
    if length < 0:
        raise ParameterError(f"length must be nonnegative, got {length}")
    rng = derive_rng(seed, NS_CORPUS, 0)
    n_states = n_symbols**order
    probs = softmax_rows(2.5 * rng.standard_normal((n_states, n_symbols)))
    # plain floats and bisect_left: np.searchsorted's side="left" rule on the
    # same float64 values, without a numpy call per token
    cum = np.cumsum(probs, axis=1).tolist()
    symbols = []
    state = 0
    for draw in rng.random(length).tolist():
        sym = bisect.bisect_left(cum[state], draw)
        symbols.append(sym)
        state = (state * n_symbols + sym) % n_states
    return Corpus(np.array(symbols, dtype=np.int64), "abcdefghijklmnopqrstuvwxyz"[:n_symbols])


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
        # a checkpoint header is JSON, so a float or a bool may stand where an int
        # belongs; under ``from __future__ import annotations`` f.type is the type's name
        kinds = {"int": int, "bool": bool, "str": str, "float": (int, float)}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, kinds[f.type]):
                raise ParameterError(f"{f.name} must be {f.type}, got {value!r}")
        for name in ("heads", "head_dim", "ff_dim", "layers"):  # embed_dim = heads * head_dim follows
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.embed_dim != self.heads * self.head_dim:
            raise ParameterError("embed_dim must equal heads * head_dim")
        if self.elliptical and self.layers < 2:
            raise ParameterError("need layers >= 2 for the metric-weighted variant")
        if self.scaling not in SCALING_MODES:
            raise ParameterError(f"unknown scaling mode {self.scaling!r}")
        if self.vocab_size < 2 or self.context < 1 or not 0.0 < self.delta < np.inf:
            raise ParameterError("invalid vocab_size, context or delta")


@dataclass
class AttentionLayerState:
    """Per-layer forward-pass record used by diagnostics and tests.

    Arrays are (rows, heads * head_dim) in the merged column layout, with
    head h in columns [h * head_dim, (h + 1) * head_dim); rows run block by
    block.  They are read-only views of the pass's own arrays, except the
    metric: read-only ones on layers without one, else rows the attention
    node has copied, so editing them cannot reach the gradients.  ``forward``
    returns one per layer, in layer order.
    """

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    metric: np.ndarray
    representation: np.ndarray


#: parameter initialisers: a constant fill, or None for a scaled Gaussian draw
_ONES, _ZEROS, _DRAW = 1.0, 0.0, None


def param_table(cfg: ModelConfig) -> list[tuple[str, tuple[int, int], float | None]]:
    """(name, shape, initialiser) of every parameter, in init_params' draw order."""
    e, f, v = cfg.embed_dim, cfg.ff_dim, cfg.vocab_size
    table = [("tok_emb", (v, e), _DRAW), ("pos_emb", (cfg.context, e), _DRAW)]
    for li in range(cfg.layers):
        table += [(f"l{li}.ln1.g", (1, e), _ONES), (f"l{li}.ln1.b", (1, e), _ZEROS)]
        table += [(f"l{li}.{name}", (e, e), _DRAW) for name in ("wq", "wk", "wv", "wo")]
        table += [
            (f"l{li}.ln2.g", (1, e), _ONES), (f"l{li}.ln2.b", (1, e), _ZEROS),
            (f"l{li}.w1", (e, f), _DRAW), (f"l{li}.b1", (1, f), _ZEROS),
            (f"l{li}.w2", (f, e), _DRAW), (f"l{li}.b2", (1, e), _ZEROS),
        ]
    table += [
        ("lnf.g", (1, e), _ONES), ("lnf.b", (1, e), _ZEROS),
        ("head.w", (e, v), _DRAW), ("head.b", (1, v), _ZEROS),
    ]
    return table


def init_params(cfg: ModelConfig) -> dict[str, Tensor]:
    """Fresh parameter leaves, deterministic in cfg.seed."""
    rng = derive_rng(cfg.seed, NS_INIT, 0)
    return {
        name: leaf(0.02 * rng.standard_normal(shape) if fill is _DRAW else np.full(shape, fill))
        for name, shape, fill in param_table(cfg)
    }


#: causal metric warmup: positions with fewer prefix samples than this keep
#: the identity metric, because a 1-to-15-sample mean is mostly noise
METRIC_WARMUP = 16


def _metric_rows(
    v_curr: np.ndarray,
    v_prev: np.ndarray,
    heads: int,
    mode: str,
    delta: float,
) -> np.ndarray:
    """Per-position metric rows for a (batch, t_len, heads * head_dim) stack.

    Row t of each block and head is ``estimate_overlayers``' mean of
    |v_curr - v_prev| / delta over that block's and head's value rows <= t,
    which keeps causal decoding honest; the first METRIC_WARMUP - 1 rows are
    zero, which scaling turns into the identity metric.  Returns (batch * t_len,
    heads * head_dim) rows in the merged column layout.
    """
    batch, _, width = v_curr.shape
    # the prefix means run along time, column by column, so heads can split after
    raw = split_heads(estimate_overlayers(v_curr, v_prev, delta).reshape(-1, width), batch, heads)
    raw[..., : METRIC_WARMUP - 1, :] = 0.0
    return merge_heads(scale_rows(raw, mode))


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def forward(
    tokens,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tape: GradTape,
) -> tuple[Tensor, list[AttentionLayerState]]:
    """Causal forward pass over a (t_len,) sequence or a (batch, t_len) stack.

    Layer 0 always runs with an identity metric.  Each later layer of the
    metric-weighted variant estimates its metric for every block and head in
    one call, identity scaling included: its rows are ones, and scaling the
    queries by one is exact.  Every layer runs as one multi-head attention
    node in which each block attends only within itself, so a block's logits
    do not depend on the other blocks.  Returns flat (batch * t_len, vocab)
    logits and one state per layer.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2):
        raise InputError(f"tokens must be 1-D or a 2-D stack, not {tokens.ndim}-D")
    stack = np.atleast_2d(tokens)
    batch, t_len = stack.shape
    if batch < 1 or not 1 <= t_len <= cfg.context:
        raise InputError(f"token shape {tokens.shape}: need length in [1, {cfg.context}]")
    if stack.min() < 0 or stack.max() >= cfg.vocab_size:
        raise InputError("token id outside the vocabulary")
    rows, width = batch * t_len, cfg.embed_dim
    ones = np.broadcast_to(np.float64(1.0), (rows, width))
    x = tape.add(
        tape.embedding(params["tok_emb"], stack.reshape(-1)),
        tape.embedding(params["pos_emb"], np.tile(np.arange(t_len), batch)),
    )
    temp = float(np.sqrt(cfg.head_dim))
    prev_values: np.ndarray | None = None
    states: list[AttentionLayerState] = []

    for li in range(cfg.layers):
        xn = tape.layer_norm(x, params[f"l{li}.ln1.g"], params[f"l{li}.ln1.b"])
        qm = tape.matmul(xn, params[f"l{li}.wq"])
        km = tape.matmul(xn, params[f"l{li}.wk"])
        vm = tape.matmul(xn, params[f"l{li}.wv"])
        values = vm.value.reshape(batch, t_len, width)
        m = None
        if cfg.elliptical and li >= 1:
            m = _metric_rows(values, prev_values, cfg.heads, cfg.scaling, cfg.delta)
        merged = tape.block_causal_attention(
            qm, km, vm, 1.0 if m is None else m, temp, batch, cfg.heads
        )
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
                queries=_read_only(qm.value),
                keys=_read_only(km.value),
                values=_read_only(vm.value),
                metric=ones if m is None else m,
                representation=_read_only(x.value),
            )
        )
        prev_values = values

    xf = tape.layer_norm(x, params["lnf.g"], params["lnf.b"])
    logits = tape.add(tape.matmul(xf, params["head.w"]), params["head.b"])
    return logits, states


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


#: Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainParams:
    steps: int
    lr: float = 3e-4
    batch_size: int = 8

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ParameterError(
                f"need steps >= 0 and batch_size >= 1, got {self.steps} and {self.batch_size}"
            )
        if not 0.0 < self.lr < np.inf:  # NaN fails too
            raise ParameterError(f"lr must be finite and positive, got {self.lr}")


class AdamState:
    """Per-parameter first/second moment accumulators in flat buffers, so a
    step is a few in-place ufunc calls.  ``m`` and ``v`` map each name to its
    view of a buffer: write into the views, never rebind them."""

    def __init__(self, params: dict[str, Tensor]):
        sizes = [p.value.size for p in params.values()]
        self._m, self._v, self._g = (np.zeros(sum(sizes)) for _ in range(3))
        cuts = np.cumsum(sizes)[:-1]
        self.m, self.v, self._g_views = (
            {k: part.reshape(p.shape) for (k, p), part in zip(params.items(), np.split(buf, cuts))}
            for buf in (self._m, self._v, self._g)
        )
        self.t = 0

    def step(self, params: dict[str, Tensor], tp: TrainParams) -> None:
        if params.keys() != self.m.keys():
            raise ParameterError("Adam step needs the parameters its state was built for")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, p in params.items():
            self._g_views[name][...] = 0.0 if p.grad is None else p.grad
        # the operation order of m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g
        # and p -= lr * (m / c1) / (sqrt(v / c2) + eps), bit for bit
        g, m, v = self._g, self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        tmp = (1.0 - ADAM_BETA2) * g
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        update = np.divide(m, c1, out=g)  # the gradient is spent: reuse its buffer
        update *= tp.lr
        den = np.divide(v, c2, out=tmp)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        update /= den
        for name, p in params.items():
            p.value -= self._g_views[name]


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
    step = start_step
    try:
        # an overflow or a NaN made from finite values is divergence: stop at its step
        with np.errstate(over="raise", invalid="raise"):
            for step in range(start_step, start_step + tp.steps):
                rng = derive_rng(cfg.seed, NS_BATCH, step)
                offsets = rng.integers(0, tokens.size - window + 1, size=tp.batch_size)
                windows = np.stack([tokens[off : off + window] for off in offsets])
                tape = GradTape()
                # drop the layer states at once: backward does not need them
                logits = forward(windows[:, :-1], params, cfg, tape)[0]
                loss = tape.cross_entropy(logits, windows[:, 1:].reshape(-1))
                value = float(loss.value[0, 0])
                if not np.isfinite(value):
                    raise TrainingError(step, "loss is not finite")
                for p in params.values():
                    p.grad = None
                backward(tape, loss)
                opt.step(params, tp)
                losses.append(value)
    except FloatingPointError as exc:
        raise TrainingError(step, f"diverged ({exc})") from None
    return TrainResult(params, opt, losses, start_step + tp.steps)


#: fewest windows per part of a split perplexity stack.  Each part is one thread's
#: forward pass, and the threads hand the interpreter lock to each other between numpy
#: calls, so small parts gain little.  Measured on 2 vCPUs on the kept thread pool,
#: BLAS on one thread, default elliptical / standard config, median of 100: 15 windows
#: took 16.9 / 15.8 ms whole and 11.6 / 10.7 ms as 8 + 7; 7 windows took 8.2 / 7.3 ms
#: whole and 8.5 / 7.7 ms as 4 + 3, and 6 and 7 windows moved by about 10% either way
#: between runs, so a split of fewer than 14 windows is not a measured gain.
MIN_PART_WINDOWS = 7


def perplexity(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tokens,
    corrupt_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    corrupt_targets: bool = True,
) -> float:
    """exp(mean next-token NLL) over non-overlapping context windows of ``tokens``,
    at least two of them.

    A nonzero ``corrupt_rate`` swaps tokens for the generic one with draws from
    ``rng``, which the caller then passes.  With ``corrupt_targets`` (the word-swap
    evaluation protocol) the model is scored on the corrupted stream itself.  With it
    off, only the conditioning inputs are corrupted and the true continuations are
    scored, which isolates how far contaminated context moves the predictions.

    The window stack runs as k contiguous, near-equal parts, each part's ``forward`` on
    its own thread, and the one cross-entropy scores their logits joined in window order.
    k is the number of CPUs the process may run on, lowered so that each part has at
    least MIN_PART_WINDOWS windows.  No k can move a bit: windows never see each other
    (attention and the metric run per block and head, every other op per row), so a part
    gives the whole stack's logits for its windows, and the NLL mean sums the same values
    in the same order.
    """
    toks = np.asarray(tokens, dtype=np.int64)
    target_stream = toks
    if corrupt_rate != 0.0:  # corrupt_tokens rejects a rate outside [0, 1]
        toks = corrupt_tokens(toks, corrupt_rate, cfg.vocab_size - 1, rng)
        if corrupt_targets:
            target_stream = toks
    # every span has the same length: full windows, or one short stream
    window = cfg.context + 1
    starts = range(0, max(toks.size - window + 1, 1), cfg.context)
    stack = np.stack([toks[a : a + window] for a in starts])
    targets = np.stack([target_stream[a + 1 : a + window] for a in starts]).reshape(-1)
    cpus = len(os.sched_getaffinity(0))
    parts = np.array_split(stack[:, :-1], max(1, min(cpus, len(stack) // MIN_PART_WINDOWS)))
    logits = ordered_map(
        lambda part: forward(part, params, cfg, GradTape(record=False))[0].value, parts, len(parts)
    )
    nll = GradTape(record=False).cross_entropy(Tensor(np.concatenate(logits)), targets)
    return float(np.exp(nll.value[0, 0]))


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
    attention: list[list[np.ndarray]]  # [layer][head] causal attention map


def mean_pairwise_cosine(rows: np.ndarray) -> float:
    """Mean cosine similarity over all unordered row pairs."""
    n = rows.shape[0]
    if n < 2:
        return 1.0
    unit = unit_rows(rows)
    sims = unit @ unit.T
    return float(sims[np.triu_indices(n, k=1)].mean())


def _matrix_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each (t, d) matrix of a (..., t, d) stack, flattened, with
    its bits: one dot product of the matrix's entries with themselves, then its root."""
    flat = a.reshape(-1, 1, a.shape[-2] * a.shape[-1])
    return np.sqrt(np.matmul(flat, flat.swapaxes(1, 2))).reshape(-1)


def mean_head_distance(attn_mats: list[np.ndarray]) -> float:
    """Mean Euclidean distance between flattened head attention maps."""
    if len(attn_mats) < 2:
        return 0.0
    maps = np.asarray(attn_mats)
    i, j = np.triu_indices(len(maps), k=1)
    return float(_matrix_norms(maps[i] - maps[j]).mean())


#: Gaussian query perturbations per head and scale in ``diagnose``
N_DRAWS = 8

#: default share of eval tokens swapped for the generic token, in ``diagnose``
#: and as the CLI's ``corrupt_rate``
CORRUPT_RATE = 0.025


def diagnose(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    eval_tokens,
    epsilons: tuple[float, ...],
    rng: np.random.Generator,
    corrupt_rate: float = CORRUPT_RATE,
) -> DiagnosticsReport:
    """Collapse, head-redundancy and query-perturbation diagnostics.

    Robustness perturbs each layer's recorded per-head queries with N_DRAWS
    Gaussian draws at every scale and recomputes the attention output with
    the metric held fixed, in one kernel call per scale.  The report also
    carries every head's attention map over the first context window.

    Every unit perturbation is drawn from ``rng`` first, in one call on the caller's
    thread, in the serial (layer, scale, head, draw) order.  Then each layer's robustness
    (base kernel, scaled perturbations, perturbed kernels, ratios), the clean perplexity
    and the corrupted one (whose corruption draws from ``rng`` last) run as
    ``ordered_map`` jobs, one worker per CPU the process may use.  The stream order is
    fixed and layers and windows do not interact, so the report has the same bits at any
    CPU count; a scale whose ratio leaves the float range names the first (layer, scale)
    in loop order where it does, as an overflow, or as an underflow below scale 1.
    """
    toks = np.asarray(eval_tokens, dtype=np.int64)
    if toks.size < 2:
        raise InputError("need at least two eval tokens")
    window = toks[: min(toks.size, cfg.context + 1)]
    _, states = forward(window[:-1], params, cfg, GradTape(record=False))
    temp = float(np.sqrt(cfg.head_dim))
    units = rng.standard_normal(
        (len(states), len(epsilons), cfg.heads, N_DRAWS, window.size - 1, cfg.head_dim))

    def robustness(st: AttentionLayerState, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        merged = (st.queries, st.keys, st.values, st.metric)
        # (heads, 1, t_len, head_dim): the draws broadcast along axis 1
        q, k, v, m = (split_heads(a, 1, cfg.heads).swapaxes(0, 1) for a in merged)
        base = weighted_kernel(q, k, v, m, temp, causal=True)
        acc = np.empty((len(epsilons), cfg.heads * N_DRAWS))  # one ratio per (head, draw)
        for si, (scale, unit) in enumerate(zip(epsilons, draws)):
            try:  # an overflowing norm would read as a zero ratio, a vanishing one as 0/0
                with np.errstate(over="raise", invalid="raise"):
                    eps = scale * unit
                    shift = weighted_kernel(q + eps, k, v, m, temp, causal=True).h - base.h
                    acc[si] = _matrix_norms(shift) / _matrix_norms(eps)
            except FloatingPointError as exc:
                flow = "overflows" if scale >= 1 else "underflows"
                raise ParameterError(f"epsilon scale {scale} {flow} ({exc})") from None
        return base.attn[:, 0], acc

    jobs = [lambda st=st, u=u: robustness(st, u) for st, u in zip(states, units)] + [
        lambda: perplexity(params, cfg, toks),
        lambda: perplexity(params, cfg, toks, corrupt_rate=corrupt_rate, rng=rng),
    ]
    # in job order, so the first error raised is the one the serial loop meets first
    cpus = len(os.sched_getaffinity(0))
    *layers, ppl_clean, ppl_corrupt = ordered_map(lambda job: job(), jobs, cpus)
    attention = [list(maps) for maps, _ in layers]
    acc = np.stack([a for _, a in layers])
    return DiagnosticsReport(
        cosine_by_layer=[mean_pairwise_cosine(st.representation) for st in states],
        head_distance_by_layer=[mean_head_distance(maps) for maps in attention],
        ppl_clean=ppl_clean,
        ppl_corrupt=ppl_corrupt,
        robustness=acc.mean(axis=2),
        robustness_sup=float(acc.max(initial=0.0)),
        attention=attention,
    )


# ---------------------------------------------------------------------------
# Checkpoints: a flat binary container with a config echo, byte-stable for
# identical (config, seed, step) so runs can be compared by file digest.
# ---------------------------------------------------------------------------


def save_checkpoint(
    path, params: dict[str, Tensor], cfg: ModelConfig, opt: AdamState, step: int
) -> None:
    """Write a checkpoint atomically: a sibling temporary file, then one
    ``os.replace``, so a write that fails leaves any earlier file at ``path``
    as it was."""
    header = {"config": asdict(cfg), "step": step, "adam_t": opt.t}
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write((_CKPT_MAGIC + "\n").encode())
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            for kind, table in (("p", {k: p.value for k, p in params.items()}),
                                ("m", opt.m), ("v", opt.v)):
                for name in sorted(table):
                    arr = np.ascontiguousarray(table[name], dtype="<f8")
                    fh.write(f"{kind} {name} {arr.shape[0]} {arr.shape[1]}\n".encode())
                    fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    cfg: ModelConfig
    step: int
    params: dict[str, Tensor]
    opt: AdamState


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file that is not one, is cut short, has a step or
    Adam count that is not an int >= 0 or an Adam count other than its step,
    or holds a table whose name or shape differs from what its config builds
    raises a ParameterError naming it."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != _CKPT_MAGIC.encode():
            raise ParameterError(f"{path} is not a model checkpoint")
        try:
            header = json.loads(fh.readline())
            cfg = ModelConfig(**header["config"])
            step, adam_t = header["step"], header["adam_t"]
            if not all(type(n) is int and n >= 0 for n in (step, adam_t)):  # no bool either
                raise ValueError(f"step {step!r} and adam_t {adam_t!r} must be ints >= 0")
            if adam_t != step:  # Adam's bias correction counts the steps taken
                raise ValueError(f"adam_t {adam_t} differs from step {step}")
            shapes = {name: shape for name, shape, _ in param_table(cfg)}
        except (ValueError, KeyError, TypeError) as exc:
            raise ParameterError(f"{path}: malformed checkpoint header ({exc})") from None
        tables: dict[str, dict[str, np.ndarray]] = {"p": {}, "m": {}, "v": {}}
        while line := fh.readline():
            try:
                kind, name, rows, cols = line.decode().split()
                table, shape = tables[kind], (int(rows), int(cols))
            except (ValueError, KeyError):
                raise ParameterError(f"{path}: malformed table header {line[:40]!r}") from None
            # checked before the read, so a corrupt size never sizes a buffer
            if shapes.get(name) != shape:
                want = "no such table" if name not in shapes else f"shape {shapes[name]}"
                raise ParameterError(
                    f"{path}: table {kind} {name} has shape {shape}; its config builds {want}"
                )
            size = 8 * shape[0] * shape[1]
            buf = fh.read(size)
            if len(buf) != size:
                raise ParameterError(f"{path}: payload of {kind} {name} is cut short")
            table[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    for kind, table in tables.items():
        missing = sorted(shapes.keys() - table.keys())
        if missing:
            raise ParameterError(f"{path}: table {kind} {missing[0]}, which its config builds, is missing")
    params = {name: leaf(arr) for name, arr in tables["p"].items()}
    opt = AdamState(params)
    for name in params:
        opt.m[name][...] = tables["m"][name]
        opt.v[name][...] = tables["v"][name]
    opt.t = adam_t
    return Checkpoint(cfg=cfg, step=step, params=params, opt=opt)
