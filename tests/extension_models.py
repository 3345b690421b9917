"""Exact geometric models of the built depth-3 extensions, one per twist
case: an oracle for collection and freeness in the tests.  The engine
models only the catalogue groups (geometry.catalogue_representation)."""

from fractions import Fraction

from nilbott.exact import IntMatrix
from nilbott.geometry import (
    FlatAffineMap,
    catalogue_representation,
    delta_generators,
    gamma_generators,
)

_HALF = Fraction(1, 2)


def extension_representation(case: int, k: int) -> list:
    """Faithful exact models for the built depth-3 extensions, generator
    order (g, h, n).  Fiber coordinate first for the flat cases."""
    kh = Fraction(k, 2)
    if case == 1:
        return [
            FlatAffineMap(IntMatrix.diagonal([1, 1, -1]), (0, _HALF, 0)),
            FlatAffineMap.translation((kh, 0, 1)),
            FlatAffineMap.translation((1, 0, 0)),
        ]
    if case == 2:
        return [
            FlatAffineMap(IntMatrix.diagonal([1, 1, -1]), (kh, _HALF, 0)),
            FlatAffineMap(IntMatrix.diagonal([-1, 1, 1]), (0, 0, 1)),
            FlatAffineMap.translation((1, 0, 0)),
        ]
    if case == 3:
        if k == 0:
            return catalogue_representation("G2")
        return gamma_generators(k)
    if case == 4:
        return [
            FlatAffineMap(IntMatrix.diagonal([-1, 1, -1]), (kh, _HALF, 0)),
            FlatAffineMap(IntMatrix.diagonal([-1, 1, 1]), (0, 0, 1)),
            FlatAffineMap.translation((1, 0, 0)),
        ]
    if case == 5:
        if k == 0:
            return catalogue_representation("Delta", 0)
        return delta_generators(-k)
    if case == 6:
        return [
            FlatAffineMap(IntMatrix.identity(3), (kh, 1, 0)),
            FlatAffineMap(IntMatrix.diagonal([-1, 1, 1]), (0, 0, 1)),
            FlatAffineMap.translation((1, 0, 0)),
        ]
    if case == 7:
        return [
            FlatAffineMap(IntMatrix.diagonal([-1, 1, 1]), (kh, 1, 0)),
            FlatAffineMap(IntMatrix.diagonal([-1, 1, 1]), (0, 0, 1)),
            FlatAffineMap.translation((1, 0, 0)),
        ]
    raise ValueError(f"unknown case {case}")
