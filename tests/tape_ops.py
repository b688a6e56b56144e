"""Scalarisers for gradient tests: tape ops that only tests need.

``mul`` and ``sum_all`` record on a ``GradTape`` exactly as its own ops do,
so a test can reduce any output to the scalar loss ``backward`` expects.
"""

import numpy as np

from elliptical.autodiff import GradTape, Tensor, _acc
from elliptical.numerics import ShapeError


def mul(tape: GradTape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: {a.value.shape} vs {b.value.shape}")

    def bwd(g):
        _acc(a, g * b.value)
        _acc(b, g * a.value)

    return tape._new(a.value * b.value, (a, b), bwd)


def sum_all(tape: GradTape, a: Tensor) -> Tensor:
    """The (1, 1) sum of every entry."""

    def bwd(g):
        _acc(a, np.full_like(a.value, g[0, 0]))

    return tape._new(np.array([[a.value.sum()]]), (a,), bwd)
