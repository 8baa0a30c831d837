"""Group elements acting on polynomial vectors and matrices.

Two actions are used throughout:

* a volume-preserving linear map together with a parameter shift, acting by
  ``(L, s) . W = L * W(t + s)``;
* its affine extension with a translation part, acting on curves by
  ``(L, a, s) . c = L * c(t + s) + a``.

Determinant-one is validated at construction, in one place: an
:class:`AffineElement` holds its linear part as a :class:`GroupElement`;
it acts, composes and inverts through it and adds the translation algebra.
Invalid matrices are rejected rather than normalized.  Only
:meth:`GroupElement.inverse`, whose determinant is 1 with its input's, and
the section of :mod:`equivariance`, whose determinant is 1 by
construction, build their results without the check.

The action on vectors and matrices is one integer pass,
:func:`vectors.map_columns`: the group matrix is cleared once per call,
each cleared column is Taylor-shifted by s on integers and mapped by the
integer matrix, and each output coefficient is one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import ratlin
from .vectors import PolyMatrix, PolyVector, map_columns

Actable = Union[PolyVector, PolyMatrix]


@dataclass(frozen=True)
class GroupElement:
    """Determinant-one matrix paired with a parameter shift."""

    matrix: ratlin.Matrix
    shift: Fraction

    def __init__(self, matrix: Sequence[Sequence], shift=0):
        frozen = ratlin.freeze(matrix)
        if any(len(row) != len(frozen) for row in frozen):
            raise ValueError("group matrix must be square")
        if ratlin.det(frozen) != 1:
            raise ValueError("group matrix must have determinant 1")
        object.__setattr__(self, "matrix", frozen)
        object.__setattr__(self, "shift", Fraction(shift))

    @classmethod
    def _trusted(cls, matrix: ratlin.Matrix, shift: Fraction) -> "GroupElement":
        """An element of a frozen matrix whose determinant is 1 by
        construction, without checking it again."""
        element = object.__new__(cls)
        object.__setattr__(element, "matrix", matrix)
        object.__setattr__(element, "shift", shift)
        return element

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(ratlin.identity(n), 0)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Product g1 * g2, acting as g1 after g2."""
        return GroupElement(
            ratlin.mat_mul(self.matrix, other.matrix),
            self.shift + other.shift,
        )

    def inverse(self) -> "GroupElement":
        """``(L^-1, -s)``; ``det L^-1 = 1 / det L = 1``."""
        return GroupElement._trusted(ratlin.inverse(self.matrix), -self.shift)

    def apply(self, target: Actable) -> Actable:
        """``L * target(t + s)``, column by column, in one integer pass
        (:func:`vectors.map_columns`); a vector is acted on as one column."""
        if isinstance(target, PolyVector):
            (column,) = map_columns(self.matrix, [target.components], self.shift)
            return PolyVector(column)
        if isinstance(target, PolyMatrix):
            columns = map_columns(self.matrix, zip(*target.rows), self.shift)
            return PolyMatrix(zip(*columns))
        raise TypeError(f"cannot act on {type(target).__name__}")


@dataclass(frozen=True)
class AffineElement:
    """Special-affine map with a parameter shift, acting on curves."""

    # The action induced on tangent vectors, which drops translations.
    linear_part: GroupElement
    translation: tuple[Fraction, ...]

    def __init__(self, matrix: Sequence[Sequence], translation: Sequence, shift=0):
        linear = GroupElement(matrix, shift)
        offset = tuple(Fraction(a) for a in translation)
        if len(offset) != linear.dim:
            raise ValueError("translation dimension mismatch")
        object.__setattr__(self, "linear_part", linear)
        object.__setattr__(self, "translation", offset)

    @classmethod
    def identity(cls, n: int) -> "AffineElement":
        return cls(ratlin.identity(n), (0,) * n, 0)

    @property
    def matrix(self) -> ratlin.Matrix:
        return self.linear_part.matrix

    @property
    def shift(self) -> Fraction:
        return self.linear_part.shift

    @property
    def dim(self) -> int:
        return self.linear_part.dim

    def compose(self, other: "AffineElement") -> "AffineElement":
        linear = self.linear_part.compose(other.linear_part)
        moved = ratlin.mat_vec(self.matrix, other.translation)
        offset = tuple(x + y for x, y in zip(moved, self.translation))
        return AffineElement(linear.matrix, offset, linear.shift)

    def inverse(self) -> "AffineElement":
        linear = self.linear_part.inverse()
        offset = ratlin.mat_vec(linear.matrix, self.translation)
        return AffineElement(linear.matrix, tuple(-x for x in offset), linear.shift)

    def apply(self, curve: PolyVector) -> PolyVector:
        if not isinstance(curve, PolyVector):
            raise TypeError(f"cannot act on {type(curve).__name__}")
        return self.linear_part.apply(curve).translate(self.translation)
