"""Double-precision array plumbing: validated matrices, stable softmax,
counter-based seeded randomness, and a central-difference Jacobian oracle.

Everything downstream treats 2-D float64 numpy arrays as the universal
carrier for queries, keys, values and hidden states.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


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
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix entries must be finite")
    return a


def as_vector(data) -> np.ndarray:
    """Return ``data`` as a finite, flattened 1-D float64 array."""
    v = np.asarray(data, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ShapeError("vector entries must be finite")
    return v


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


def finite_diff_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function at ``x``.

    Column i is (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i) with the step
    scaled by the input magnitude, h_i = h * (1 + |x_i|).  Exact for linear
    maps up to roundoff; the workhorse oracle for every analytic derivative
    in this package.
    """
    if h <= 0:
        raise ParameterError("finite difference step must be positive")
    x = as_vector(x)
    y0 = np.asarray(f(x), dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(y0)):
        raise EvaluationError("function returned a non-finite value")
    jac = np.empty((y0.size, x.size), dtype=np.float64)
    for i in range(x.size):
        hi = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        yp = np.asarray(f(xp), dtype=np.float64).reshape(-1)
        ym = np.asarray(f(xm), dtype=np.float64).reshape(-1)
        if not (np.all(np.isfinite(yp)) and np.all(np.isfinite(ym))):
            raise EvaluationError("function returned a non-finite value")
        jac[:, i] = (yp - ym) / (2.0 * hi)
    return jac


def derive_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream, index).

    Philox is keyed by the triple, so there is no global state and streams
    are reproducible and independent across seeds, streams and indices.
    """
    key = ((seed & _MASK64) << 64) | ((stream & _MASK32) << 32) | (index & _MASK32)
    return np.random.Generator(np.random.Philox(key=key))


def make_rng(seed: int) -> np.random.Generator:
    """Default stream for ``seed``; identical seeds yield identical streams."""
    return derive_rng(seed, 0, 0)
