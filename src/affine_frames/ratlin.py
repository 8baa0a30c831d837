"""Exact linear algebra over the rationals.

Matrices are tuples of rows of :class:`fractions.Fraction`.  Every routine
is pure (inputs are never mutated) and deterministic: elimination always
takes the leftmost column with a nonzero entry as the next pivot, so reduced
forms and everything read off them are reproducible bit for bit.

Fractions appear only at the boundary: every elimination runs one
fraction-free integer Gauss-Jordan kernel, :func:`_eliminate`, and its
results become Fractions once, at the end.
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
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vector:
    if a and len(a[0]) != len(x):
        raise ValueError("dimension mismatch")
    return tuple(sum(c * v for c, v in zip(row, x)) for row in a)


def _integer_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those lcms."""
    width = len(rows[0]) if rows else 0
    work, scales = [], []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        scale = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return work, scales


def _eliminate(work: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan reduce integer rows in place.

    The pivot is the first nonzero entry of the leftmost column that has
    one, as in textbook elimination.  A step with pivot ``p`` replaces every
    other row by ``(p * row - a * pivot_row) // prev``, where ``a`` is the
    row's entry in the pivot column and ``prev`` the previous pivot.  The
    division is exact (Bareiss 1968): every entry is a minor of the scaled rows.
    At the end each pivot row holds the last pivot ``D`` in its pivot column
    and zeros in the other pivot columns, and every other row is zero.

    Returns the pivot columns, ``D`` (1 when there is no pivot) and the sign
    of the row permutation.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots: list[int] = []
    prev = sign = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        src = next((i for i in range(row, nrows) if work[i][col]), None)
        if src is None:
            continue
        if src != row:
            work[row], work[src] = work[src], work[row]
            sign = -sign
        top = work[row]
        p = top[col]
        for i in range(nrows):
            if i != row:
                a = work[i][col]
                work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        pivots.append(col)
        prev = p
        row += 1
    return pivots, prev, sign


def _divided(row: Sequence[int], d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and 0-based pivot column indices."""
    work, _ = _integer_rows(rows)
    pivots, d, _ = _eliminate(work)
    return tuple(_divided(row, d) for row in work), tuple(pivots)


def rref_with_transform(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Like :func:`rref`, also returning E with ``E @ rows == reduced``.

    E is the right block of the reduced form of ``[rows | I]``, so it is
    unique also when ``rows`` is rank deficient.
    """
    ncols = len(rows[0]) if rows else 0
    work, scales = _integer_rows(rows)
    for i, (row, scale) in enumerate(zip(work, scales)):
        row.extend(scale if i == j else 0 for j in range(len(work)))
    pivots, d, _ = _eliminate(work)
    reduced = tuple(_divided(row[:ncols], d) for row in work)
    transform = tuple(_divided(row[ncols:], d) for row in work)
    return reduced, transform, tuple(c for c in pivots if c < ncols)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    work, _ = _integer_rows(rows)
    return len(_eliminate(work)[0])


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions or ints."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    work, scales = _integer_rows(rows)
    pivots, d, sign = _eliminate(work)
    return Fraction(sign * d, math.prod(scales)) if len(pivots) == n else _ZERO


def inverse(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse requires a square matrix")
    reduced, transform, pivots = rref_with_transform(rows)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return transform
