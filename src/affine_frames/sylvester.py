"""Sylvester-type coefficient matrix of a polynomial vector.

For a vector v of dimension n and degree d, the matrix A has 2d+1 rows and
n(d+1) columns: d+1 copies of the transposed coefficient matrix of v are
laid out left to right, each shifted down by one more row; row r of a copy
is the degree-r block of :func:`sharp`.  Multiplying A against the stacked
coefficients of a vector h of degree at most d produces the coefficients
of the scalar product <v, h>, which turns questions about polynomial
identities into exact linear algebra.  :func:`sylvester_matrix` lays out
``L A`` on integers, L the lcm of the coefficient denominators of v, and
every elimination runs on those rows; A in Fractions is built only when
read, which the ``sylvester`` command alone does.

Column indices of A are 1-based throughout this module to match the usual
pivot bookkeeping; coefficient-matrix columns elsewhere are 0-based.  The
two conventions meet where :class:`SylvesterSystem` reads its forward
pass and in the one reader of :mod:`bezout`, which takes 0-based columns
and puts each coordinate at its forward-pass pivot, 0-based too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import ratlin
from .poly import integer_coefficients
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


@dataclass(frozen=True)
class SylvesterSystem:
    """The matrix A of a vector and the forward pass of ``[A | e1]``.

    Every other attribute is read off ``echelon`` on first access, and no
    column is back-substituted until a reader asks for it.  ``pivot_cols``
    are the 1-based indices of columns that are linearly independent of all
    columns to their left; ``basic_nonpivot`` keeps the first non-pivotal
    index of each residue class modulo n.  The rank is ``nrows - deg
    gcd(v)``, so it is full exactly when the components of v are coprime;
    then :mod:`bezout` reads the minimal Bezout vector off the e1 column of
    ``echelon.integer_columns`` and each syzygy off a basic non-pivot one.
    ``reduced``, the reduced form of A, is the A block of that of
    ``[A | e1]``: a pivot in the e1 column sits in a row that is zero on A.
    ``matrix``, A itself in Fractions, is laid out again on first access;
    the elimination never reads it.
    """

    vector: PolyVector
    echelon: ratlin.Echelon = field(compare=False, repr=False)

    @cached_property
    def matrix(self) -> ratlin.Matrix:
        rows, scale = sylvester_matrix(self.vector)
        return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)

    @cached_property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in self.echelon.pivots if p < self.ncols)

    @cached_property
    def nonpivot_cols(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.ncols + 1) if j not in self.pivot_cols)

    @cached_property
    def basic_nonpivot(self) -> tuple[int, ...]:
        first: dict[int, int] = {}
        for j in self.nonpivot_cols:
            first.setdefault(j % self.n, j)
        return tuple(first.values())

    @cached_property
    def reduced(self) -> ratlin.Matrix:
        """Reduced row-echelon form of A."""
        return ratlin.transpose(self.echelon.columns(range(self.ncols)))

    @property
    def n(self) -> int:
        return self.vector.dim

    @cached_property
    def d(self) -> int:
        return int(self.vector.degree)

    @property
    def nrows(self) -> int:
        return 2 * self.d + 1

    @property
    def ncols(self) -> int:
        return self.n * (self.d + 1)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def sylvester_matrix(v: PolyVector) -> tuple[list[list[int]], int]:
    """``L A`` as integer rows, and ``L``, for a nonzero vector's A.

    L is the lcm of the coefficient denominators of v, so the rows are
    those :func:`ratlin.clear_denominators` makes of A, laid out from
    :func:`poly.integer_coefficients` of the components; no elimination.
    """
    if v.is_zero:
        raise RegularityError("vector is zero")
    n, d = v.dim, int(v.degree)
    coefficients, scale = integer_coefficients(v.components)
    rows = [[0] * (n * (d + 1)) for _ in range(2 * d + 1)]
    for c, coeffs in enumerate(coefficients):
        for r, x in enumerate(coeffs):  # degree r sits in row r of copy 0
            if x:
                for copy in range(d + 1):
                    rows[copy + r][copy * n + c] = x
    return rows, scale


def build_sylvester(v: PolyVector) -> SylvesterSystem:
    """Construct the Sylvester-type system of a nonzero vector.

    One forward elimination of ``L [A | e1]`` on the integer rows of
    :func:`sylvester_matrix`, which has the pivots and reduced form of
    ``[A | e1]``; no column is back-substituted here.
    """
    rows, scale = sylvester_matrix(v)
    # A pivot in the e1 column means e1 is not in the span of A.
    for i, row in enumerate(rows):
        row.append(scale if i == 0 else 0)
    return SylvesterSystem(vector=v, echelon=ratlin.Echelon(rows))
