"""Sylvester-type coefficient matrix of a polynomial vector.

For a vector v of dimension n and degree d, the matrix A has 2d+1 rows and
n(d+1) columns: d+1 copies of the transposed coefficient matrix of v are
laid out left to right, each shifted down by one more row; row r of a copy
is the degree-r block of :func:`sharp`.  Multiplying A against the stacked
coefficients of a vector h of degree at most d produces the coefficients
of the scalar product <v, h>, which turns questions about polynomial
identities into exact linear algebra.  :meth:`SylvesterSystem.columns`
lays out ``L A`` on integers, a degree block at a time, L the lcm of the
coefficient denominators of v; it is the one layout of A.  A in Fractions
is built only when read, which the ``sylvester`` command alone does.

A :class:`SylvesterSystem` runs one forward pass of ``L A``, which takes
A's columns a degree block (n columns) at a time, as far as a reader
needs.  A column's pivot status depends only on the columns to its left,
so leftmost-pivot elimination finds the same pivots on a column prefix as
on all of A.  The solution of ``A x = e1`` supported on pivot columns is
unique, and so is each basic non-pivot column's expression through the
pivots to its left.  So once the pass has a non-pivot column in n - 1
classes mod n, those are A's basic non-pivot columns, whose degrees (the
µ-degrees) sum to ``d - deg gcd(v)``; a smaller sum is a shared factor.
For d > 0 a minimal Bezout vector has lower degree than the last of them:
the leading vectors of the µ-basis span the hyperplane orthogonal to v's
leading vector, where a Bezout vector's leading vector lies too, so the
syzygies would reduce a Bezout vector of higher degree.  So the pass that
ends at the block of the last basic column (all of A at d = 0) holds L e1
in its span for a coprime vector; the µ-basis is read there
(:attr:`SylvesterSystem.reading`).

The minimal Bezout vector b is read earlier, at its own block
(:attr:`SylvesterSystem.bezout_reading`).  L e1 is brought through each
new block's steps only, and the pass stops at the first block whose rank
holds it: where the reduced column is zero below the rank.  The steps on
a column prefix are the first steps of any longer pass, and later steps
combine only rows below the prefix's rank, invertibly, so L e1 lies in the
span of a prefix exactly when it is zero below that prefix's rank; the
first such prefix ends at block deg b.  The solution there supported on
the prefix's pivots is A's pivot-supported solution, since the prefix's
pivots are A's and pivot columns are independent, so a solution supported
on them is unique.  A shared factor keeps L e1 out of every span, so the
Bezout reading reaches the µ-basis's stopping point, n - 1 basic classes,
and refuses there exactly as ``reading`` does; for a coprime vector of
d > 0 the lemma puts b's block first.  The pivot data and the reduced form
grow the same pass to all of A.

The column indices of A that :class:`SylvesterSystem` reports are 1-based,
to match the usual pivot bookkeeping; the pass, :func:`basic_columns`
and the readers of :mod:`bezout` count columns from 0, as
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
    """The matrix A of a vector and its one forward pass, grown on demand.

    ``coefficients`` and ``scale`` are ``L v`` and L: the integer
    coefficient lists of the components, lowest power first and without
    trailing zeros, and the lcm of the coefficient denominators of v.
    ``echelon`` is the pass of ``L A``.  ``reading`` grows it until its
    non-pivot columns reach n - 1 classes mod n, and is ``(echelon,
    basic)``, ``basic`` holding those classes' first non-pivot columns,
    0-based; it refuses a shared factor when their degrees sum below d.
    ``bezout_reading`` grows it only until its rank holds ``L e1``, and is
    ``(pivots, D x, D)`` there (module docstring).  No other column is
    back-substituted until a reader asks.  The other attributes
    grow the same pass to all of A.  ``pivot_cols`` are the 1-based indices
    of columns that are linearly independent of all columns to their left;
    ``basic_nonpivot`` keeps the first non-pivotal index of each residue
    class modulo n.  The rank is ``nrows - deg gcd(v)``, so it is full
    exactly when the components of v are coprime.  ``columns`` lays out
    ``L A``, the pass's and the degree oracle's one layout of it;
    ``matrix`` is A in Fractions, transposed from those columns, and no
    pass reads it.  :func:`integer_system` is the one constructor.
    """

    coefficients: list[list[int]]
    scale: int

    @cached_property
    def echelon(self) -> ratlin.Echelon:
        return ratlin.Echelon([[]] * self.nrows)

    def _grown(self, blocks: int) -> ratlin.Echelon:
        """The pass, grown to A's first ``blocks`` degree blocks at least."""
        echelon = self.echelon
        echelon.extend(self.columns(range(len(echelon.forward) // self.n, blocks)))
        return echelon

    def columns(self, blocks):
        """Columns of ``L A`` by degree block: column c of block k is L v_c from row k."""
        for k in blocks:
            for coeffs in self.coefficients:
                yield [0] * k + coeffs + [0] * (self.nrows - k - len(coeffs))

    def _basic(self, blocks: int) -> tuple[int, ...] | None:
        """A's basic non-pivot columns once the pass, grown to ``blocks``
        degree blocks, has a non-pivot column in n - 1 classes mod n, else
        None; a shared factor is refused when their degrees sum below d."""
        n = self.n
        basic = basic_columns(self._grown(blocks).pivots, n * blocks, n)
        if len(basic) < n - 1:
            return None
        if sum(j // n for j in basic) < self.d:
            raise RegularityError("components share a nonconstant factor")
        return basic

    @cached_property
    def reading(self) -> tuple[ratlin.Echelon, tuple[int, ...]]:
        # A nonzero vector has n - 1 basic classes among A's columns.
        for blocks in range(1, self.d + 2):
            basic = self._basic(blocks)
            if basic is not None:
                return self.echelon, basic

    @cached_property
    def bezout_reading(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """``(pivots, D x, D)``: the pass's pivots, x the solution of ``L A x
        = L e1`` supported on them, and D the pass's last pivot, with the
        pass grown no further than the first block whose rank holds ``L
        e1``.  ``D x`` is back-substituted at once, since a later reader may
        grow the pass."""
        echelon, done = self.echelon, 0
        column = [self.scale] + [0] * (self.nrows - 1)
        for blocks in range(1, self.d + 2):
            self._grown(blocks)
            column, done = echelon.reduce(column, done), len(echelon.pivots)
            if not any(column[done:]):
                break
            self._basic(blocks)  # refuses a shared factor where ``reading`` does
        return echelon.pivots, echelon._back_substitute(column), echelon.last_pivot

    @cached_property
    def matrix(self) -> ratlin.Matrix:
        columns = self.columns(range(self.d + 1))
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in zip(*columns))

    @cached_property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in self._grown(self.d + 1).pivots)

    @cached_property
    def nonpivot_cols(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.ncols + 1) if j not in self.pivot_cols)

    @cached_property
    def basic_nonpivot(self) -> tuple[int, ...]:
        pivots = self._grown(self.d + 1).pivots
        return tuple(j + 1 for j in basic_columns(pivots, self.ncols, self.n))

    @cached_property
    def reduced(self) -> ratlin.Matrix:
        """Reduced row-echelon form of A."""
        return ratlin.transpose(self._grown(self.d + 1).columns(range(self.ncols)))

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


def build_sylvester(v: PolyVector) -> SylvesterSystem:
    """Construct the Sylvester-type system of a nonzero vector.

    Clears v once, by :func:`poly.integer_coefficients`; nothing is laid
    out or eliminated until a reader asks.
    """
    return integer_system(*integer_coefficients(v.components))


def integer_system(coefficients: list[list[int]], scale: int) -> SylvesterSystem:
    """The system of the nonzero vector ``coefficients / scale``, given by
    integer coefficient lists (lowest power first) over a nonzero integer.

    Put in lowest terms over a positive scale and trimmed, those are ``L v``
    and L, so the system is the one :func:`build_sylvester` makes of that
    vector, with no Fraction built.  The one constructor of a system, and
    so the one place that refuses the zero vector.  The lists become the
    system's, trimmed in place (a Bezout column's can end in zeros), and
    are divided into copies only for a common factor other than 1, never
    that of :func:`poly.integer_coefficients`: ``gcd(L, L v) = 1``.
    """
    common = math.gcd(scale, *(x for coeffs in coefficients for x in coeffs))
    common = -common if scale < 0 else common
    lowest = coefficients if common == 1 else [[x // common for x in c] for c in coefficients]
    for coeffs in lowest:
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    if not any(lowest):
        raise RegularityError("vector is zero")
    return SylvesterSystem(lowest, scale // common)
