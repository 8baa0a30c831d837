"""Sylvester-type coefficient matrix of a polynomial vector.

For a vector v of dimension n and degree d, the matrix A has 2d+1 rows and
n(d+1) columns: d+1 copies of the transposed coefficient matrix of v are
laid out left to right, each shifted down by one more row; row r of a copy
is the degree-r block of :func:`sharp`.  Multiplying A against the stacked
coefficients of a vector h of degree at most d produces the coefficients
of the scalar product <v, h>, which turns questions about polynomial
identities into exact linear algebra.

Column indices of A are 1-based throughout this module to match the usual
pivot bookkeeping; coefficient-matrix columns elsewhere are 0-based.  The
two conventions meet in :func:`build_sylvester`, in
:meth:`SylvesterSystem.column`, and in :mod:`bezout`, which puts each
pivot coordinate at index ``col - 1`` of the stacked coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from . import ratlin
from .poly import Polynomial
from .vectors import PolyVector, RegularityError


def sharp(v: PolyVector, bound: int) -> tuple[Fraction, ...]:
    """Stack the coefficient matrix of ``v`` column by column.

    Block j of the result (of width n) holds the degree-j coefficients of
    the components, for j = 0..bound.
    """
    if v.degree > bound:
        raise ValueError("vector degree exceeds the stacking bound")
    out: list[Fraction] = []
    for j in range(bound + 1):
        out.extend(c.coeff(j) for c in v.components)
    return tuple(out)


def flat(values: Sequence[Fraction], n: int, bound: int) -> PolyVector:
    """Inverse of :func:`sharp`: rebuild a vector from stacked coefficients."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if len(values) != n * (bound + 1):
        raise ValueError("stacked length does not match n*(bound+1)")
    return PolyVector(Polynomial(values[i::n]) for i in range(n))


@dataclass(frozen=True)
class SylvesterSystem:
    """The matrix A of a vector with its pivot data and reduced columns.

    ``pivot_cols`` are the 1-based indices of columns that are linearly
    independent of all columns to their left; ``basic_nonpivot`` keeps the
    first non-pivotal index of each residue class modulo n, and
    ``reduced_basic`` holds, in the same order, those columns of the
    reduced row-echelon form of A.  ``reduced_e1`` is the first unit vector
    e1 carried through the row operations that take ``[A | e1]`` to reduced
    form: when A has full rank, the vector that holds ``reduced_e1[i]`` at
    ``pivot_cols[i]`` and zeros elsewhere solves ``A b = e1``.  The rank is
    ``nrows - deg gcd(v)``, so it is full exactly when the components of v
    are coprime.  The whole reduced matrix, ``reduced``, is computed on
    first access; nothing on the Bezout or syzygy path reads it.
    """

    n: int
    d: int
    matrix: ratlin.Matrix
    reduced_e1: ratlin.Vector
    reduced_basic: tuple[ratlin.Vector, ...]
    pivot_cols: tuple[int, ...]
    nonpivot_cols: tuple[int, ...]
    basic_nonpivot: tuple[int, ...]

    @cached_property
    def reduced(self) -> ratlin.Matrix:
        """Reduced row-echelon form of A."""
        return ratlin.rref(self.matrix)[0]

    @property
    def nrows(self) -> int:
        return 2 * self.d + 1

    @property
    def ncols(self) -> int:
        return self.n * (self.d + 1)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def apply(self, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product A @ values."""
        return ratlin.mat_vec(self.matrix, [Fraction(x) for x in values])

    def column(self, index: int) -> tuple[Fraction, ...]:
        """Column by 1-based index."""
        if not 1 <= index <= self.ncols:
            raise ValueError("column index out of range")
        return tuple(row[index - 1] for row in self.matrix)


def sylvester_matrix(v: PolyVector) -> ratlin.Matrix:
    """The matrix A of a nonzero vector, with no elimination."""
    if v.is_zero:
        raise RegularityError("vector is zero")
    n, d = v.dim, int(v.degree)
    stacked = sharp(v, d)  # block r holds the degree-r coefficients
    rows = [[Fraction(0)] * (n * (d + 1)) for _ in range(2 * d + 1)]
    for copy in range(d + 1):
        for r in range(d + 1):
            rows[copy + r][copy * n:(copy + 1) * n] = stacked[r * n:(r + 1) * n]
    return tuple(map(tuple, rows))  # coefficients are Fractions already


def build_sylvester(v: PolyVector) -> SylvesterSystem:
    """Construct the Sylvester-type system of a nonzero vector.

    One forward elimination of ``[A | e1]``, its denominators cleared once,
    gives the pivots; only the e1 column and the basic non-pivotal columns
    are back-substituted.
    """
    matrix = sylvester_matrix(v)
    n = v.dim
    ncols = len(matrix[0])
    # A pivot in the e1 column means e1 is not in the span of A.
    echelon = ratlin.Echelon(ratlin.integer_rows(
        [row + (Fraction(i == 0),) for i, row in enumerate(matrix)]
    )[0])
    pivot_cols = tuple(p + 1 for p in echelon.pivots if p < ncols)
    nonpivot = tuple(j for j in range(1, ncols + 1) if j not in pivot_cols)
    seen: set[int] = set()
    basic = []
    for j in nonpivot:
        cls = j % n
        if cls not in seen:
            seen.add(cls)
            basic.append(j)
    e1, *reduced_basic = echelon.columns([ncols, *(j - 1 for j in basic)])
    return SylvesterSystem(
        n=n,
        d=int(v.degree),
        matrix=matrix,
        reduced_e1=e1,
        reduced_basic=tuple(reduced_basic),
        pivot_cols=pivot_cols,
        nonpivot_cols=nonpivot,
        basic_nonpivot=tuple(basic),
    )
