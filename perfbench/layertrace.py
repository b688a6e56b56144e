"""Outside-in layer tracer for the benchmark.

The tracer never edits the package.  While it is installed it replaces the
package's public functions under every name the package looks them up by
(``model.apply_scaling``, ``nwlab.apply_scaling``, ``autodiff.softmax_rows``
and so on), the ``GradTape`` op methods together with the backward closures
they return, and ``AdamState.step``.  Each call becomes a span: name, start,
end, parent span and unit (the benchmark's step id).  Spans stay in memory
and are written once, when the run ends.

A unit is one timed operation of the benchmark (a training step of one
variant, one eval iteration, one lab iteration, one set-up), so every
per-layer number is a quantity per unit of a named kind.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: functions traced, by the module that defines them; a name the package no
#: longer defines is skipped.  ``model._metric_rows`` is private but holds the
#: per-row scaling loop, which no public function accounts for.
TRACED_FUNCTIONS = {
    "numerics": ("softmax_rows", "finite_diff_jacobian", "derive_rng"),
    "autodiff": ("backward",),
    "estimators": ("prefix_overlayers_raw", "oracle_variability"),
    "metric": ("apply_scaling", "compute_kappa", "robustness_bound"),
    "attention": ("weighted_kernel", "masa", "masa_jacobian"),
    "nwlab": (
        "sample_dataset",
        "cross_validate_bandwidth",
        "nw_estimate_batch",
        "run_sparse_mse_experiment",
    ),
    "model": (
        "synthetic_corpus",
        "init_params",
        "train",
        "perplexity",
        "forward",
        "diagnose",
        "save_checkpoint",
        "load_checkpoint",
        "_metric_rows",
    ),
    "verification": (
        "suite_masa_jacobian",
        "suite_robustness_bound",
        "suite_identity_reduction",
        "suite_nw_equivalence",
        "run_all_suites",
    ),
}


def _block_attention_counts(args, kwargs, result):
    """Computed FLOPs and bytes of one fused causal attention node.

    Per block of t rows and head dim d the forward pass forms q*m (t*d),
    the scores (2*t*t*d), the softmax (about 5*t*t) and p @ v (2*t*t*d);
    the backward pass does four t*t*d products and the softmax adjoint
    (about 4*t*t).  Bytes are those of the arrays read and written, counted
    once each, including the stored (t, t) probabilities.
    """
    q, _k, _v, _m, _temperature, batch = args[:6]
    rows, d = q.value.shape
    t = rows // batch
    fwd_flops = batch * (4 * t * t * d + 5 * t * t) + rows * d
    bwd_flops = batch * (8 * t * t * d + 4 * t * t) + 2 * rows * d
    fwd_bytes = 8 * (5 * rows * d + batch * t * t)  # q k v read, qm and out written
    bwd_bytes = 8 * (8 * rows * d + batch * t * t)  # g q k v qm read, 3 grads written
    return {"flops": fwd_flops + bwd_flops, "bytes": fwd_bytes + bwd_bytes}


def _nw_counts(args, kwargs, result):
    """The (queries, keys, dim) difference tensor nw_estimate_batch builds.

    Counted as computed: sub, square, weighted sum (2) per element.
    """
    queries, data = args[0], args[1]
    elements = int(np.shape(queries)[0]) * data.keys.shape[0] * data.keys.shape[1]
    return {"bytes": 8 * elements, "flops": 4 * elements}


def _scaling_counts(args, kwargs, result):
    """A row is useful when it carries an estimate; warm-up rows are zeros."""
    return {"useful": float(np.any(np.asarray(args[0]) > 0))}


def _backward_counts(args, kwargs, result):
    return {"nodes": len(args[0]._nodes)}


def _checkpoint_counts(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


COUNTERS = {
    "autodiff.block_causal_attention.fwd": _block_attention_counts,
    "nwlab.nw_estimate_batch": _nw_counts,
    "metric.apply_scaling": _scaling_counts,
    "autodiff.backward": _backward_counts,
    "model.save_checkpoint": _checkpoint_counts,
}


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []  # (id, name, start, end, parent, unit)
        self.units: list[tuple[str, str | None]] = []
        self.counts: dict[tuple[str, int, str], float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._unit = -1
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # -- spans --------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        unit = self._unit
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, unit))

    def _count(self, name, hook, args, kwargs, result):
        for key, value in hook(args, kwargs, result).items():
            self.counts[(name, self._unit, key)] += value

    def _wrap_function(self, name, fn):
        hook = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if hook is not None:
                self._count(name, hook, args, kwargs, result)
            return result

        return traced

    def _wrap_op(self, op, method):
        fwd_name, bwd_name = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"
        hook = COUNTERS.get(fwd_name)

        def traced(tape, *args, **kwargs):
            out = self._call(fwd_name, method, (tape,) + args, kwargs)
            if hook is not None:
                self._count(fwd_name, hook, args, kwargs, out)
            inner = out._backward
            if inner is not None:
                out._backward = lambda g: self._call(bwd_name, inner, (g,), {})
            return out

        return traced

    def _build_wrappers(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every patch point."""
        patches = []
        for home, names in TRACED_FUNCTIONS.items():
            for fname in names:
                original = getattr(self.modules[home], fname, None)
                if original is None:
                    continue
                wrapper = self._wrap_function(f"{home}.{fname}", original)
                for mod in self.modules.values():
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, wrapper))
        tape_cls = self.modules["autodiff"].GradTape
        for op, method in vars(tape_cls).items():
            if callable(method) and not op.startswith("_"):
                patches.append((tape_cls, op, self._wrap_op(op, method)))
        adam = self.modules["model"].AdamState
        patches.append((adam, "step", self._wrap_function("model.AdamState.step", adam.step)))
        return patches

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def unit(self, kind: str, variant: str | None = None):
        """Trace one benchmark unit; spans carry its id."""
        self._unit = len(self.units)
        self.units.append((kind, variant))
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self._unit = -1

    # -- aggregation ------------------------------------------------------------

    def totals(self):
        """Per (name, unit): inclusive ms, self ms and calls.

        Self time is a span's duration minus the durations of its children;
        children share the parent's thread, so they never overlap.
        """
        child_ms: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _unit in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        incl: dict[tuple[str, int], float] = defaultdict(float)
        self_ms: dict[tuple[str, int], float] = defaultdict(float)
        calls: dict[tuple[str, int], int] = defaultdict(int)
        for sid, name, start, end, _parent, unit in self.spans:
            dur = (end - start) * 1e3
            incl[(name, unit)] += dur
            self_ms[(name, unit)] += dur - child_ms.get(sid, 0.0)
            calls[(name, unit)] += 1
        return incl, self_ms, calls

    def write(self, path: Path) -> None:
        """Write every span and unit as one compressed archive."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = np.array(
            [(s[0], index[s[1]], s[2], s[3], s[4], s[5]) for s in self.spans],
            dtype=[("id", "i8"), ("name", "i4"), ("start", "f8"), ("end", "f8"),
                   ("parent", "i8"), ("unit", "i4")],
        )
        np.savez_compressed(
            path,
            spans=spans,
            names=np.array(names),
            unit_kinds=np.array([u[0] for u in self.units]),
            unit_variants=np.array([u[1] or "" for u in self.units]),
        )
