"""Exact linear algebra over the rationals.

Matrices are tuples of rows of :class:`fractions.Fraction`.  Every routine
on them is pure (inputs are never mutated) and deterministic: elimination
always takes the leftmost column with a nonzero entry as the next pivot, so
reduced forms and everything read off them are reproducible bit for bit.

Fractions appear only at the boundary.  A routine puts its whole matrix
over one lcm ``L`` of its denominators (:func:`clear_denominators`), which
leaves pivots and the reduced form alone and scales an n x n determinant
by ``L**n``, and runs the one fraction-free kernel, :class:`Echelon`, on
the integer rows: a forward elimination to row-echelon form, then exact
back-substitution of only those columns of the reduced form that are read.
The forward pass is Bareiss's, except that a row with a 0 in the pivot
column is left idle at that step: the factors it skips telescope, so the
step that next eliminates it takes them and its own division as one exact
division, and only a row that becomes the pivot row is caught up on its
own.  Banded matrices such as the Sylvester matrix leave most rows idle
at most steps.
``rank``, ``det`` and pivot lookups stop after the forward pass.  ``rref``
is the one routine that assembles a reduced form, back-substituting every
column; ``rref_with_transform`` and ``inverse`` read theirs off ``rref`` of
``[M | I]``.  Integer results become Fractions once, at the end.  The
polynomial outer product, the source of every polynomial minor, stays on
integers: it builds its own :class:`Echelon` and reads the back-substituted
columns scaled by the last pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def freeze(rows: Iterable[Iterable]) -> Matrix:
    """Copy ``rows`` into an immutable matrix of Fractions."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(zip(*[tuple(row) for row in m])) if m else ()


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(mat_vec(bt, row) for row in a)


def mat_vec(a: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vector:
    if a and len(a[0]) != len(x):
        raise ValueError("dimension mismatch")
    return tuple(sum(c * v for c, v in zip(row, x)) for row in a)


def clear_denominators(
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[int]], int]:
    """Each row times ``L``, and ``L``: the lcm of all their denominators."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    if scale == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [
        [x.numerator * (scale // x.denominator) for x in row] for row in rows
    ], scale


class Echelon:
    """One fraction-free forward elimination, in place, of a list of int lists.

    A caller holding Fractions puts the whole matrix over one lcm first,
    with :func:`clear_denominators`, and hands over lists it does not need
    again (rows of unequal length raise ``ValueError``); afterwards they
    hold the forward rows, the pivot rows in order and then zero rows.  The
    pivot is the first nonzero entry of the leftmost column that has one, as
    in textbook elimination.  Textbook Bareiss overwrites every row below
    the pivot row at every step, with pivot ``p`` in column ``c`` and
    ``prev`` the previous pivot, by ``(p * row - a * pivot_row) // prev``,
    ``a`` being the row's entry in column ``c``; a row with ``a == 0`` is
    just scaled by ``p / prev``.  Here such a row is left alone and records
    ``level``, the pivot it was last scaled to.  Over the steps that skip
    it the factors telescope to ``prev / level``, so the textbook update of
    a row with ``a != 0`` is ``(p * x - a * y) // level`` on its entries x
    as they stand, y those of the pivot row: one division for the catch-up
    and the step.  Column ``c`` becomes 0, and the row's level ``p``.  The
    pivot row alone is brought up to date first, by ``x * prev // level``.
    Every division is exact (Bareiss 1968): every up-to-date entry is a
    minor of the scaled rows.  Rows below the last pivot row end all zero,
    so none is left behind, and the forward rows are the eager loop's, bit
    for bit.  No step touches a pivot row again.

    ``pivots``, ``sign`` (of the row permutation) and ``last_pivot``
    (1 when there is no pivot) come from this pass alone; :meth:`columns`
    back-substitutes only the columns a caller reads.
    """

    def __init__(self, rows: list[list[int]]):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix")
        pivots: list[int] = []
        levels = [1] * nrows  # the pivot each row is scaled to
        prev = sign = 1
        for col in range(ncols):
            row = len(pivots)
            if row == nrows:
                break
            src = next((i for i in range(row, nrows) if rows[i][col]), None)
            if src is None:
                continue
            if src != row:
                rows[row], rows[src] = rows[src], rows[row]
                levels[row], levels[src] = levels[src], levels[row]
                sign = -sign
            top = rows[row]
            if levels[row] != prev:
                top[col:] = [x * prev // levels[row] for x in top[col:]]
            p, right = top[col], top[col + 1:]
            for i in range(row + 1, nrows):
                below = rows[i]
                a = below[col]
                if a:
                    level = levels[i]
                    below[col + 1:] = [
                        (p * x - a * y) // level for x, y in zip(below[col + 1:], right)
                    ]
                    below[col] = 0
                    levels[i] = p
            pivots.append(col)
            prev = p
        self._rows = rows
        self.pivots = tuple(pivots)
        self.sign = sign
        self.last_pivot = prev

    def integer_columns(self, cols: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Columns ``cols`` (0-based) of ``D R``, as integers.

        R is the reduced row-echelon form and D the last pivot.  Row k of
        the forward form U is ``sum_{m >= k} U[k][c_m] R[m]``, so with
        ``p_k = U[k][c_k]``

            D R[k] = (D U[k] - sum_{m > k} U[k][c_m] D R[m]) // p_k,

        exactly, since ``D R`` is integral (Cramer).  The recursion runs
        from the last pivot row up (Nakos, Turner and Williams 1997), one
        scalar at a time, for each requested non-pivot column; a pivot
        column is D times a unit vector.
        """
        cols = tuple(cols)
        pivots, work, d = self.pivots, self._rows, self.last_pivot
        nrows, rank = len(work), len(pivots)
        where = {col: k for k, col in enumerate(pivots)}
        # The nonzero U[k][c_m], m > k, of each pivot row, shared by every column.
        links = [
            [(m, work[k][pivots[m]]) for m in range(k + 1, rank) if work[k][pivots[m]]]
            for k in range(rank)
        ]
        out: dict[int, tuple[int, ...]] = {}
        for j in cols:
            if j in out:
                continue
            scaled = [0] * nrows
            if j in where:
                scaled[where[j]] = d
            else:
                for k in reversed(range(rank)):
                    row = work[k]
                    acc = d * row[j]
                    for m, u in links[k]:
                        acc -= u * scaled[m]
                    scaled[k] = acc // row[pivots[k]]
            out[j] = tuple(scaled)
        return tuple(out[j] for j in cols)

    def columns(self, cols: Iterable[int]) -> tuple[Vector, ...]:
        """Columns ``cols`` (0-based) of the reduced row-echelon form R.

        :meth:`integer_columns` divided by the last pivot, with the pivot
        columns as unit vectors.
        """
        cols = tuple(cols)
        pivots, d = set(self.pivots), self.last_pivot
        return tuple(
            tuple(
                (_ONE if j in pivots else Fraction(x, d)) if x else _ZERO
                for x in column
            )
            for j, column in zip(cols, self.integer_columns(cols))
        )


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and 0-based pivot column indices."""
    echelon = Echelon(clear_denominators(rows)[0])
    columns = echelon.columns(range(len(rows[0]) if rows else 0))
    reduced = tuple(tuple(column[i] for column in columns) for i in range(len(rows)))
    return reduced, echelon.pivots


def rref_with_transform(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Like :func:`rref`, also returning E with ``E @ rows == reduced``.

    Both are blocks of :func:`rref` of ``[rows | I]``: the reduced form is
    the left block and E the right one, so E is unique also when ``rows``
    is rank deficient, and the pivots are those left of the I block.
    """
    ncols = len(rows[0]) if rows else 0
    both, pivots = rref([(*row, *e) for row, e in zip(rows, identity(len(rows)))])
    left = tuple(c for c in pivots if c < ncols)
    return tuple(r[:ncols] for r in both), tuple(r[ncols:] for r in both), left


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(Echelon(clear_denominators(rows)[0]).pivots)


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions or ints."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    work, scale = clear_denominators(rows)
    echelon = Echelon(work)
    if len(echelon.pivots) < n:
        return _ZERO
    return Fraction(echelon.sign * echelon.last_pivot, scale**n)


def inverse(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse requires a square matrix")
    reduced, transform, pivots = rref_with_transform(rows)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return transform
