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
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


class ParameterError(ValueError):
    """Bad input: an argument out of range, mis-shaped or non-finite, or a
    function of the input that returns NaN or infinity."""


def as_matrix(data) -> np.ndarray:
    """Return ``data`` as a finite 2-D float64 array (row-major)."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ParameterError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ParameterError("matrix entries must be finite")
    return a


def as_matrices(data) -> np.ndarray:
    """Return ``data`` as a finite float64 matrix or (..., rows, cols) stack of them."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim < 2:
        raise ParameterError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ParameterError("matrix entries must be finite")
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
        raise ParameterError("softmax_rows expects an array with at least one axis")
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
    every shift of each sign; a non-finite output raises ``ParameterError``."""
    pts = as_matrices(pts)
    *lead, n, dim = pts.shape
    steps = FD_STEP * (1.0 + np.abs(pts))
    eye = np.eye(dim, dtype=bool)  # row (p, i) of a shifted stack moves coordinate i of point p
    shifted = (np.where(eye, (pts + s)[..., None, :], pts[..., None, :])
               .reshape(*lead, n * dim, dim) for s in (steps, -steps))
    y0, yp, ym = (np.asarray(f(x), dtype=np.float64) for x in (pts, *shifted))
    if not all(np.isfinite(y).all() for y in (y0, yp, ym)):
        raise ParameterError("function returned a non-finite value")
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


def cpu_count() -> int:
    """The number of CPUs this process may run on, the package's one count of them."""
    return len(os.sched_getaffinity(0))


#: the process's one pool: (pid of the process that made it, the executor)
_pool: tuple[int, ThreadPoolExecutor | None] = (0, None)
_pool_lock = threading.Lock()
# a fork child copies the lock as some parent thread may hold it, so it takes a fresh one
os.register_at_fork(after_in_child=_pool_lock._at_fork_reinit)
#: ``on`` is set in every pool thread, by the executor's initializer
_pool_thread = threading.local()


def ordered_map(fn: Callable, items: Sequence, *, fan_out: bool = True) -> list:
    """``[fn(x) for x in items]``, in input order, on the process's one thread pool.

    The calls run inline on the caller's thread when ``fan_out`` is false, when there are
    fewer than two items or fewer than two CPUs, or from a pool thread (a job that maps
    again): a nested map on the pool could wait on threads that all wait on it.  The pool
    has ``cpu_count()`` threads and is made once per process, at its first fanned map (a
    ``fork`` child inherits its parent's pool but not its threads).  Each call runs in a
    copy of the caller's ``contextvars`` context, so the caller's ``np.errstate`` holds in
    the workers, and every call runs, even after one has failed; the first exception in
    input order is raised here.
    """
    global _pool
    if not fan_out or len(items) < 2 or getattr(_pool_thread, "on", False) or cpu_count() < 2:
        return [fn(x) for x in items]
    with _pool_lock:  # racing first callers make one pool between them
        if _pool[0] != os.getpid():
            _pool = os.getpid(), ThreadPoolExecutor(
                cpu_count(), initializer=setattr, initargs=(_pool_thread, "on", True))
        pool = _pool[1]
    futures = [pool.submit(contextvars.copy_context().run, fn, x) for x in items]
    wait(futures)
    return [future.result() for future in futures]
