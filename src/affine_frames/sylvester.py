"""Sylvester-type coefficient matrix of a polynomial vector.

For a vector v of dimension n and degree d, the matrix A has 2d+1 rows and
n(d+1) columns: d+1 copies of the transposed coefficient matrix of v are
laid out left to right, each shifted down by one more row; row r of a copy
is the degree-r block of :func:`sharp`.  Multiplying A against the stacked
coefficients of a vector h of degree at most d produces the coefficients
of the scalar product <v, h>, which turns questions about polynomial
identities into exact linear algebra.  :func:`sylvester_matrix` lays out
``L A`` on integers, L the lcm of the coefficient denominators of v, and
every elimination runs on a copy of those rows with e1 appended
(:func:`augmented`); A in Fractions is built only when read, which the
``sylvester`` command alone does.

A :class:`SylvesterSystem` first eliminates only a window: the first
``W = n (ceil(d / (n-1)) + 1)`` columns of A with e1, which are all of
A when n <= 2 or d = 0.  That is exact, not a guess.  A column's
pivot status depends only on the columns to its left, so leftmost-pivot
elimination finds the same pivots on a column prefix as on all of A.  The
solution of ``A x = e1`` supported on pivot columns is unique, and so is
each basic non-pivot column's expression through the pivots to its left.
So when the window has a non-pivot column in n - 1 classes mod n, those
are A's basic non-pivot columns, whose degrees (the µ-degrees) sum to
``d - deg gcd(v)``; a smaller sum is a shared factor.  The µ-degrees of a
generic vector are balanced, at most ``ceil(d / (n-1))``.  For d > 0 a
minimal Bezout vector has lower degree than the last of them: the leading
vectors of the µ-basis span the hyperplane orthogonal to v's leading
vector, where a Bezout vector's leading vector lies too, so the syzygies
would reduce a Bezout vector of higher degree.  So e1 is no pivot of a
window that holds the µ-basis of a coprime vector, and both readers answer
off the one pass that :attr:`SylvesterSystem.reading` chooses: the window
when it holds the µ-basis, else the full pass of ``[A | e1]``, which also
alone gives the pivot data and the reduced form.  A vector whose µ-basis
leaves the window pays for both passes.

The column indices of A that :class:`SylvesterSystem` reports are 1-based,
to match the usual pivot bookkeeping; the passes, :func:`basic_columns`
and the one reader of :mod:`bezout` count columns from 0, as
coefficient-matrix columns are counted elsewhere, and a width is a number
of columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """The matrix A of a vector, laid out once, and its forward passes.

    ``coefficients`` and ``scale`` are ``L v`` and L: the integer
    coefficient lists of the components, lowest power first and without
    trailing zeros, and the lcm of the coefficient denominators of v.
    ``rows`` is ``L A``, laid out from them on first access, and each pass
    eliminates its own :func:`augmented` copy, on first access.
    ``echelon`` is the full pass of ``L [A | e1]``.  ``reading`` is the one
    pass that :mod:`bezout` reads, as ``(echelon, width, basic)``: the pass
    of ``L [A_W | e1]``, W being ``window_cols``, when its non-pivot columns
    reach n - 1 classes mod n, else the full pass; ``basic`` holds those
    classes' first non-pivot columns, 0-based.  It refuses a shared factor
    when their degrees sum below d, and no column is back-substituted until
    a reader asks.  The other attributes are read off the full pass alone.
    ``pivot_cols`` are the 1-based indices of columns that are linearly
    independent of all columns to their left; ``basic_nonpivot`` keeps the
    first non-pivotal index of each residue class modulo n.  The rank is
    ``nrows - deg gcd(v)``, so it is full exactly when the components of v
    are coprime.  ``reduced``, the reduced form of A, is the A block of that
    of ``[A | e1]``: a pivot in the e1 column sits in a row that is zero on
    A.  ``matrix`` is A itself in Fractions; no pass reads it.
    """

    coefficients: list[list[int]]
    scale: int

    @cached_property
    def rows(self) -> list[list[int]]:
        n, d = self.n, self.d
        rows = [[0] * (n * (d + 1)) for _ in range(2 * d + 1)]
        for c, coeffs in enumerate(self.coefficients):
            for r, x in enumerate(coeffs):  # degree r sits in row r of copy 0
                if x:
                    for copy in range(d + 1):
                        rows[copy + r][copy * n + c] = x
        return rows

    @cached_property
    def echelon(self) -> ratlin.Echelon:
        return ratlin.Echelon(augmented(self.rows, self.scale, self.ncols))

    @cached_property
    def reading(self) -> tuple[ratlin.Echelon, int, tuple[int, ...]]:
        width, n = self.window_cols, self.n
        echelon = self.echelon if width == self.ncols else ratlin.Echelon(
            augmented(self.rows, self.scale, width)
        )
        basic = basic_columns(echelon.pivots, width, n)
        if len(basic) < n - 1:  # a µ-degree lies past the window
            echelon, width = self.echelon, self.ncols
            basic = basic_columns(echelon.pivots, width, n)
        if sum(j // n for j in basic) < self.d:
            raise RegularityError("components share a nonconstant factor")
        return echelon, width, basic

    @cached_property
    def matrix(self) -> ratlin.Matrix:
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.rows)

    @cached_property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in self.echelon.pivots if p < self.ncols)

    @cached_property
    def nonpivot_cols(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.ncols + 1) if j not in self.pivot_cols)

    @cached_property
    def basic_nonpivot(self) -> tuple[int, ...]:
        return tuple(j + 1 for j in basic_columns(self.echelon.pivots, self.ncols, self.n))

    @cached_property
    def reduced(self) -> ratlin.Matrix:
        """Reduced row-echelon form of A."""
        return ratlin.transpose(self.echelon.columns(range(self.ncols)))

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @cached_property
    def d(self) -> int:
        return max(map(len, self.coefficients)) - 1

    @property
    def nrows(self) -> int:
        return 2 * self.d + 1

    @property
    def ncols(self) -> int:
        return self.n * (self.d + 1)

    @property
    def window_cols(self) -> int:
        """W = n (ceil(d / (n - 1)) + 1), at most ``ncols``; all of A for n <= 2."""
        return self.n * (-(-self.d // max(1, self.n - 1)) + 1)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def basic_columns(pivots, width: int, n: int) -> tuple[int, ...]:
    """The first non-pivot column of each residue class mod n among the
    first ``width`` columns, ascending, 0-based like ``pivots``."""
    taken, first = set(pivots), {}
    for j in range(width):
        if j not in taken:
            first.setdefault(j % n, j)
    return tuple(first.values())


def sylvester_matrix(v: PolyVector) -> tuple[list[list[int]], int]:
    """``L A`` as integer rows, and ``L``, for a nonzero vector's A.

    L is the lcm of the coefficient denominators of v, so the rows are
    those :func:`ratlin.clear_denominators` makes of A, laid out from
    :func:`poly.integer_coefficients` of the components; no elimination.
    """
    system = _system(v)
    return system.rows, system.scale


def augmented(rows: list[list[int]], scale: int, width: int) -> list[list[int]]:
    """``L [A_E | e1]``, E = ``width``, as new integer rows, from the rows of
    ``L A`` and L that :func:`sylvester_matrix` returns; ``rows`` stay as
    they are, so one layout serves every pass."""
    return [row[:width] + [scale if i == 0 else 0] for i, row in enumerate(rows)]


def build_sylvester(v: PolyVector) -> SylvesterSystem:
    """Construct the Sylvester-type system of a nonzero vector.

    Clears v once, by :func:`poly.integer_coefficients`, and refuses the
    zero vector; nothing is laid out or eliminated until a reader asks.
    """
    return _system(v)


def integer_system(coefficients: list[list[int]], scale: int) -> SylvesterSystem:
    """The system of the nonzero vector ``coefficients / scale``, given by
    integer coefficient lists (lowest power first) over a nonzero integer.

    Put in lowest terms over a positive scale and trimmed, those are ``L v``
    and L, so the system is the one :func:`build_sylvester` makes of that
    vector, with no Fraction built.
    """
    common = math.gcd(scale, *(x for coeffs in coefficients for x in coeffs))
    common = -common if scale < 0 else common
    lowest = [[x // common for x in coeffs] for coeffs in coefficients]
    for coeffs in lowest:
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    return SylvesterSystem(lowest, scale // common)


def _system(v: PolyVector) -> SylvesterSystem:
    if v.is_zero:
        raise RegularityError("vector is zero")
    return SylvesterSystem(*integer_coefficients(v.components))
