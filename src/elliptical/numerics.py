"""Double-precision array plumbing: validated matrices, stable softmax,
counter-based seeded randomness, batched central-difference Jacobians, and
the package's one ordered map over independent jobs.

Everything downstream treats 2-D float64 numpy arrays as the universal
carrier for queries, keys, values and hidden states.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are malformed or incompatible."""


class ParameterError(ValueError):
    """A numeric argument lies outside its allowed range."""


class EvaluationError(ArithmeticError):
    """A user-supplied function returned NaN or infinity."""


def as_matrix(data) -> np.ndarray:
    """Return ``data`` as a finite 2-D float64 array (row-major)."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ShapeError("matrix entries must be finite")
    return a


def as_matrices(data) -> np.ndarray:
    """Return ``data`` as a finite float64 matrix or (..., rows, cols) stack of them."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ShapeError("matrix entries must be finite")
    return a


def softmax_rows(z: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """Exp-normalize each row (last axis) with row-max subtraction.

    ``z`` has any rank >= 1 and every slice along its last axis is a row.
    Entries where the boolean ``where`` (broadcast against ``z``) is False
    skip ``exp`` and come out as exact zeros, as do entries of -inf; every
    row must keep at least one finite entry.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0:
        raise ShapeError("softmax_rows expects an array with at least one axis")
    keep = True if where is None else where
    # array methods, not np.max/np.sum: the wrappers cost more than a small row
    m = z.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    if not np.isfinite(m).all():
        raise ParameterError("softmax_rows: a row has no finite entry")
    e = z - m if where is None else np.subtract(z, m, out=np.zeros_like(z), where=where)
    np.exp(e, out=e, where=keep)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row (last axis) to unit Euclidean norm; zero rows stay zero."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


#: relative step of every central difference: h_pi = FD_STEP * (1 + |x_pi|)
FD_STEP = 1e-5


def central_differences(f: Callable[[np.ndarray], np.ndarray], pts) -> np.ndarray:
    """[..., point, input, output] central-difference Jacobians of a row-wise ``f``,
    (..., rows, dim) -> (..., rows, out), at each row x_p of ``pts``, a (P, dim) matrix or a
    (..., P, dim) stack: entry [..., p, i, o] is (f(x_p + h_pi e_i) - f(x_p - h_pi e_i))_o /
    (2 h_pi), h_pi = FD_STEP (1 + |x_pi|).  ``f`` is called three times, at ``pts`` and at
    every shift of each sign; a non-finite output raises ``EvaluationError``."""
    pts = as_matrices(pts)
    *lead, n, dim = pts.shape
    steps = FD_STEP * (1.0 + np.abs(pts))
    eye = np.eye(dim, dtype=bool)  # row (p, i) of a shifted stack moves coordinate i of point p
    shifted = (np.where(eye, (pts + s)[..., None, :], pts[..., None, :])
               .reshape(*lead, n * dim, dim) for s in (steps, -steps))
    y0, yp, ym = (np.asarray(f(x), dtype=np.float64) for x in (pts, *shifted))
    if not all(np.isfinite(y).all() for y in (y0, yp, ym)):
        raise EvaluationError("function returned a non-finite value")
    return (yp - ym).reshape(*lead, n, dim, -1) / (2.0 * steps[..., None])


def derive_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream, index).

    Philox is keyed by the triple, so there is no global state and streams
    are reproducible and independent across seeds, streams and indices.  A seed
    outside [0, 2**64), or a stream or index outside [0, 2**32), would alias one inside.
    """
    for name, value, bits in (("seed", seed, 64), ("stream", stream, 32), ("index", index, 32)):
        if not 0 <= value < 1 << bits:
            raise ParameterError(f"{name} must lie in [0, 2**{bits}), got {value}")
    key = (seed << 64) | (stream << 32) | index
    return np.random.Generator(np.random.Philox(key=key))


def make_rng(seed: int) -> np.random.Generator:
    """Default stream for ``seed``; identical seeds yield identical streams."""
    return derive_rng(seed, 0, 0)


#: the kept pool: (pid of the process that made it, its thread count, the executor)
_pool: tuple[int, int, ThreadPoolExecutor | None] = (0, 0, None)
#: ``on`` is set in every pool thread, by the executor's initializer
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.on = True


def ordered_map(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(x) for x in items]``, in input order, on a thread pool when ``workers > 1``.

    With ``workers <= 1``, or from a pool thread (a job that maps again), every call runs
    inline on the caller's thread: a nested map on the pool could wait on threads that
    all wait on it.  Otherwise the calls run on the process's one pool, made at the first
    map, replaced by a larger one when a map asks for more threads than it has, and kept,
    so a map may run on more than ``workers`` threads.  A process never uses a pool that
    another process made: the child of a ``fork`` inherits the pool but not its threads.
    Each call runs in its own copy of the caller's ``contextvars`` context, taken on the
    caller's thread, so a caller's ``np.errstate`` holds in the workers (a pool thread
    starts from an empty context), and every call runs, even after one has failed.  The
    first exception in input order is raised here.
    """
    global _pool
    if workers <= 1 or getattr(_pool_thread, "on", False):
        return [fn(x) for x in items]
    pid, size, pool = _pool
    if pid != os.getpid() or size < workers:
        # no lock: racing callers may each make a pool, but every call runs on the pool
        # it holds, and a dropped pool's threads exit once its last call lets go of it
        pool = ThreadPoolExecutor(workers, initializer=_mark_pool_thread)
        _pool = os.getpid(), workers, pool
    futures = [pool.submit(contextvars.copy_context().run, fn, x) for x in items]
    wait(futures)
    return [future.result() for future in futures]
