"""Exact linear algebra over the rationals.

Matrices are tuples of rows of :class:`fractions.Fraction`.  Every routine
on them is pure (inputs are never mutated) and deterministic: elimination
always takes the leftmost column with a nonzero entry as the next pivot, so
reduced forms and everything read off them are reproducible bit for bit.

Fractions appear only at the boundary.  A routine puts its whole matrix
over one lcm ``L`` of its denominators (:func:`clear_denominators`), which
leaves pivots and the reduced form alone and scales an n x n determinant
by ``L**n``, and runs the one fraction-free kernel, :class:`Echelon`, on
the integer rows: a forward elimination (Bareiss's), then exact
back-substitution of only the non-pivot columns of the reduced form that
are read.  Every determinant and signed maximal minor is read off a pass
in one place, :attr:`Echelon.determinant` and :meth:`Echelon.cofactors`
(one back-substituted column).  ``rref`` back-substitutes every column,
and ``rref_with_transform`` reads its blocks off ``rref`` of ``[M | I]``;
``inverse`` back-substitutes only the right block of one pass of
``[M | I]``.  Integer results become Fractions once, at the end.
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
    out = tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )
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
    """One fraction-free forward elimination, taken a column at a time.

    Takes integer rows, which it never changes; a caller holding Fractions
    puts the whole matrix over one lcm first, with :func:`clear_denominators`
    (rows of unequal length raise ``ValueError``).  The pass keeps its own
    forward form U, column by column, in ``forward``.  The pivot is the
    first nonzero entry of the leftmost column that has one, as in textbook
    elimination.  Textbook Bareiss (1968) overwrites every row below the
    pivot row at every step, with pivot ``p`` in column ``c`` and ``prev``
    the previous pivot, by ``(p * row - a * pivot_row) // prev``, ``a``
    being the row's entry in column ``c``; a row with ``a == 0`` is just
    scaled by ``p / prev``.  Here such a row is left alone and records
    ``level``, the pivot it was last scaled to.  Over the steps that skip it
    the factors telescope to ``prev / level``, so the textbook update of a
    row with ``a != 0`` is ``(p * x - a * y) // level`` on its entries x as
    they stand, y those of the pivot row: one division for the catch-up and
    the step.  The pivot row alone is brought up to date first, by
    ``x * prev // level``.  Every division is exact: every up-to-date entry
    is a minor of the scaled rows.

    Each step is logged; a column is brought through the steps in order
    (:meth:`reduce`), skipping each entry that is 0 with 0 in the pivot
    row, and pivots if it is nonzero at or below the rank.  Each entry goes
    through the textbook loop's operations in its order, so U, the pivots,
    ``sign`` (of the row permutation) and ``last_pivot`` (1 when there is
    no pivot) are that loop's, bit for bit, however :meth:`extend` splits
    the columns.  :meth:`integer_columns` back-substitutes only the
    non-pivot columns a caller reads, and :meth:`solve` a column that does
    not join the pass.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix")
        self.forward: list[list[int]] = []
        self.pivots: tuple[int, ...] = ()
        self.sign = self.last_pivot = 1
        self._levels = [1] * len(rows)  # the pivot each row is scaled to
        self._steps: list[tuple] = []  # (k, src, prev, level, p, eliminated) per step
        self._links: list[list[tuple[int, int]]] = []  # nonzero U[k][c_m], m > k
        self.extend(zip(*rows))

    def extend(self, columns: Iterable[Sequence[int]]) -> None:
        """Take ``columns`` into the pass, right of those it has."""
        levels, pivots, reduce = self._levels, list(self.pivots), self.reduce
        for column in columns:
            col, row = reduce(column), len(pivots)
            src = next(filter(col.__getitem__, range(row, len(col))), None)
            if src is not None:
                if src != row:
                    col[row], col[src] = col[src], col[row]
                    levels[row], levels[src] = levels[src], levels[row]
                    self.sign = -self.sign
                prev, level = self.last_pivot, levels[row]
                p = col[row] = col[row] * prev // level
                eliminated = [
                    (i, col[i], levels[i]) for i in range(row + 1, len(col)) if col[i]
                ]
                for i, _, _ in eliminated:
                    levels[i], col[i] = p, 0
                self._steps.append((row, src, prev, level, p, eliminated))
                for k, links in enumerate(self._links):
                    if col[k]:
                        links.append((row, col[k]))
                self._links.append([])
                pivots.append(len(self.forward))
                self.last_pivot = p
            self.forward.append(col)
        self.pivots = tuple(pivots)

    def reduce(self, column: Sequence[int], start: int = 0) -> list[int]:
        """``column`` brought through the logged steps from step ``start``
        on, as a new list, without becoming a pivot: its entries in the
        coordinates of U.  Steps are logged once and never change, so a
        column reduced through the first ``start`` steps and continued here
        has the bits of one reduced from step 0."""
        col = list(column)
        if len(col) != len(self._levels):
            raise ValueError("column length differs from the number of rows")
        for k, src, prev, level, p, eliminated in self._steps[start:] if start else self._steps:
            if src != k:
                col[k], col[src] = col[src], col[k]
            y = col[k]
            if y:
                if level != prev:
                    y = col[k] = y * prev // level
                for i, a, lev in eliminated:
                    col[i] = (p * col[i] - a * y) // lev
            else:
                for i, a, lev in eliminated:
                    if col[i]:
                        col[i] = p * col[i] // lev
        return col

    def solve(self, column: Sequence[int]) -> tuple[int, ...] | None:
        """``D x`` for the solution x of ``M x = column`` supported on the
        pivot columns, entry k at pivot k as in :meth:`integer_columns`,
        or None when ``column`` is outside the span of M's columns."""
        reduced = self.reduce(column)
        if any(reduced[len(self.pivots):]):
            return None
        return self._back_substitute(reduced)

    def integer_columns(self, cols: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Columns ``cols`` (0-based) of ``D R``, as integers: pivot column k
        is ``D e_k`` without work, any other is back-substituted."""
        at = {c: k for k, c in enumerate(self.pivots)}
        out = []
        for j in cols:
            k = at.get(j)
            if k is None:
                out.append(self._back_substitute(self.forward[j]))
            else:
                unit = [0] * len(self._levels)
                unit[k] = self.last_pivot
                out.append(tuple(unit))
        return tuple(out)

    def _back_substitute(self, reduced: Sequence[int]) -> tuple[int, ...]:
        """The column of ``D R`` whose column of U is ``reduced``.

        R is the reduced row-echelon form and D the last pivot.  Row k of
        U is ``sum_{m >= k} U[k][c_m] R[m]``, so with ``p_k = U[k][c_k]``

            D R[k] = (D U[k] - sum_{m > k} U[k][c_m] D R[m]) // p_k,

        exactly, since ``D R`` is integral (Cramer).  The recursion runs
        from the last pivot row up (Nakos, Turner and Williams 1997), one
        scalar at a time.
        """
        scaled = [0] * len(self._levels)
        for k in reversed(range(len(self._steps))):
            acc = self.last_pivot * reduced[k]
            for m, u in self._links[k]:
                acc -= u * scaled[m]
            scaled[k] = acc // self._steps[k][4]
        return tuple(scaled)

    @property
    def determinant(self) -> int:
        """At full row rank ``sign * last_pivot``, the pivot block's determinant; else 0."""
        return self.sign * self.last_pivot if len(self.pivots) == len(self._levels) else 0

    def cofactors(self) -> tuple[int, ...]:
        """The n signed maximal minors c of a pass of n - 1 rows and n
        columns: ``c_i`` is ``(-1)**i`` times the minor that omits column i,
        so ``x . c = det [x ; M]``.  With no rows (n = 1) c is (1,).

        All are 0 below rank n - 1.  Otherwise one column f is not a pivot,
        ``c_f = (-1)**f * sign * D`` (D the last pivot), and c spans M's
        kernel, since each row of M pairs with it to a determinant with a
        repeated row.  So does ``e_f - sum_r R[r, f] e_{p_r}`` (R the reduced
        form, p_r row r's pivot), hence ``c_{p_r} = -c_f R[r, f]`` (Cramer).
        """
        n = len(self._levels) + 1
        if n == 1:
            return (1,)
        if len(self.forward) != n:
            raise ValueError("cofactors take n - 1 rows of n columns")
        if len(self.pivots) < n - 1:
            return (0,) * n
        (free,) = set(range(n)).difference(self.pivots)
        sign = self.sign if free % 2 == 0 else -self.sign
        at = dict(zip(self.pivots, self._back_substitute(self.forward[free])))
        return tuple(-sign * at[j] if j in at else sign * self.last_pivot for j in range(n))

    def columns(self, cols: Iterable[int]) -> tuple[Vector, ...]:
        """Columns ``cols`` (0-based) of the reduced row-echelon form R:
        :meth:`integer_columns` divided by the last pivot, an entry equal to
        it being 1."""
        d = self.last_pivot
        return tuple(
            tuple(_ONE if x == d else Fraction(x, d) if x else _ZERO for x in column)
            for column in self.integer_columns(cols)
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
    return Fraction(Echelon(work).determinant, scale**n)


def inverse(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    """Inverse of a square matrix of Fractions or ints, off one pass.

    ``[L M | L I]``, L the lcm of M's denominators, has full row rank, and
    its reduced form is ``[I | M^-1]`` exactly when M is invertible, that
    is when no pivot lands right of column n - 1.  Only the right block is
    back-substituted (:meth:`Echelon.columns`).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse requires a square matrix")
    work, scale = clear_denominators(rows)
    echelon = Echelon(
        [[*row, *(scale if i == j else 0 for j in range(n))] for i, row in enumerate(work)]
    )
    if n and echelon.pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return tuple(zip(*echelon.columns(range(n, 2 * n))))
