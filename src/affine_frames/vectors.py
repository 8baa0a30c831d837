"""Vectors and matrices of polynomials.

A :class:`PolyVector` models a polynomial curve or tangent vector, a
:class:`PolyMatrix` a polynomial matrix whose columns are such vectors.  The
degree of a vector is the maximum of its component degrees; the degree of a
matrix is the sum of its column degrees.  Both follow the absorbing
``NEG_INF`` convention for zero entries.  :func:`require_regular` checks a
vector once and returns it as a :class:`RegularVector`, which carries the
:class:`PivotProfile` found on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import ratlin
from .poly import NEG_INF, Polynomial, Scalar, poly_gcd


class RegularityError(ValueError):
    """An input vector or curve fails a structural precondition."""


def _as_poly(entry) -> Polynomial:
    if isinstance(entry, Polynomial):
        return entry
    if isinstance(entry, (int, Fraction)):
        return Polynomial.constant(entry)
    return Polynomial(entry)


class PolyVector:
    """Immutable column vector of polynomials."""

    __slots__ = ("components",)

    components: tuple[Polynomial, ...]

    def __init__(self, components: Iterable):
        object.__setattr__(
            self, "components", tuple(_as_poly(c) for c in components)
        )
        if not self.components:
            raise ValueError("vector needs at least one component")

    def __setattr__(self, name, value):
        raise AttributeError("PolyVector is immutable")

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> Polynomial:
        return self.components[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"PolyVector([{', '.join(str(c) for c in self.components)}])"

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int | float:
        return max(c.degree for c in self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __add__(self, other: "PolyVector") -> "PolyVector":
        if not isinstance(other, PolyVector):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return PolyVector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        if not isinstance(other, PolyVector):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return PolyVector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "PolyVector":
        return PolyVector(-c for c in self.components)

    def scale(self, factor) -> "PolyVector":
        """Multiply every component by a scalar or polynomial."""
        factor = _as_poly(factor) if not isinstance(factor, Polynomial) else factor
        return PolyVector(c * factor for c in self.components)

    def shift(self, s: Scalar) -> "PolyVector":
        """Reparametrized vector ``v(t + s)``."""
        return PolyVector(c.shift(s) for c in self.components)

    def derivative(self) -> "PolyVector":
        return PolyVector(c.derivative() for c in self.components)

    def dot(self, other: "PolyVector") -> Polynomial:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = Polynomial.zero()
        for a, b in zip(self, other):
            out = out + a * b
        return out

    def translate(self, offset: Sequence[Fraction]) -> "PolyVector":
        if len(offset) != self.dim:
            raise ValueError("dimension mismatch")
        return PolyVector(c + Fraction(a) for c, a in zip(self, offset))

    def linear_map(self, matrix: Sequence[Sequence[Fraction]]) -> "PolyVector":
        """Left multiplication by a constant matrix."""
        if any(len(row) != self.dim for row in matrix):
            raise ValueError("dimension mismatch")
        out = []
        for row in matrix:
            acc = Polynomial.zero()
            for coef, comp in zip(row, self.components):
                acc = acc + comp * Fraction(coef)
            out.append(acc)
        return PolyVector(out)

    def gcd(self) -> Polynomial:
        """Monic gcd of the nonzero components."""
        nonzero = [c for c in self.components if not c.is_zero]
        if not nonzero:
            raise RegularityError("gcd of the zero vector is undefined")
        g = nonzero[0]
        for c in nonzero[1:]:
            g = poly_gcd(g, c)
        return g.monic()

    def coefficient_matrix(self, width: int | None = None) -> ratlin.Matrix:
        """n x (d+1) matrix of coefficients, columns in ascending degree."""
        if width is None:
            if self.is_zero:
                raise ValueError("zero vector has no coefficient matrix")
            width = int(self.degree) + 1
        elif self.degree != NEG_INF and width < self.degree + 1:
            raise ValueError("width below the vector degree")
        return tuple(
            tuple(c.coeff(j) for j in range(width)) for c in self.components
        )

    def evaluate(self, x: Scalar) -> tuple[Fraction, ...]:
        return tuple(c.evaluate(x) for c in self.components)


class PolyMatrix:
    """Immutable matrix of polynomials, stored by rows."""

    __slots__ = ("rows",)

    rows: tuple[tuple[Polynomial, ...], ...]

    def __init__(self, rows: Iterable[Iterable]):
        frozen = tuple(tuple(_as_poly(e) for e in row) for row in rows)
        if not frozen or not frozen[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(frozen[0]) for row in frozen):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[PolyVector]) -> "PolyMatrix":
        if not columns:
            raise ValueError("matrix must be nonempty")
        n = columns[0].dim
        if any(col.dim != n for col in columns):
            raise ValueError("columns differ in dimension")
        return cls(
            tuple(col[i] for col in columns) for i in range(n)
        )

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one, zero = Polynomial.one(), Polynomial.zero()
        return cls(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows
        )
        return f"PolyMatrix({body})"

    def entry(self, i: int, j: int) -> Polynomial:
        return self.rows[i][j]

    def column(self, j: int) -> PolyVector:
        return PolyVector(row[j] for row in self.rows)

    def columns(self) -> list[PolyVector]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(zip(*self.rows))

    @property
    def degree(self) -> int | float:
        total: int | float = 0
        for j in range(self.ncols):
            total += max(row[j].degree for row in self.rows)
        return total

    def shift(self, s: Scalar) -> "PolyMatrix":
        return PolyMatrix(
            tuple(e.shift(s) for e in row) for row in self.rows
        )

    def linear_map(self, matrix: Sequence[Sequence[Fraction]]) -> "PolyMatrix":
        """Left multiplication by a constant matrix."""
        if any(len(row) != self.nrows for row in matrix):
            raise ValueError("dimension mismatch")
        out = []
        for lrow in matrix:
            new_row = []
            for j in range(self.ncols):
                acc = Polynomial.zero()
                for coef, prow in zip(lrow, self.rows):
                    acc = acc + prow[j] * Fraction(coef)
                new_row.append(acc)
            out.append(new_row)
        return PolyMatrix(out)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.nrows):
            new_row = []
            for j in range(other.ncols):
                acc = Polynomial.zero()
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                new_row.append(acc)
            out.append(new_row)
        return PolyMatrix(out)

    def scale_column(self, j: int, factor) -> "PolyMatrix":
        cols = self.columns()
        cols[j] = cols[j].scale(factor)
        return PolyMatrix.from_columns(cols)

    def determinant(self) -> Polynomial:
        """Exact determinant, evaluated at integer points by :func:`ratlin.det`
        and interpolated."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        return _det_interpolate(self.rows)

    def inverse_unimodular(self) -> "PolyMatrix":
        """Inverse of a matrix with nonzero constant determinant."""
        d = self.determinant()
        if d.is_zero or not d.is_constant:
            raise ValueError("inverse requires a nonzero constant determinant")
        n = self.nrows
        if n == 1:
            return PolyMatrix([[Polynomial.one() / d.coeff(0)]])
        adj = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [
                    [self.rows[r][c] for c in range(n) if c != i]
                    for r in range(n) if r != j
                ]
                cof = _det_interpolate(minor)
                if (i + j) % 2:
                    cof = -cof
                row.append(cof / d.coeff(0))
            adj.append(row)
        return PolyMatrix(adj)

    def evaluate(self, x: Scalar) -> ratlin.Matrix:
        return tuple(
            tuple(e.evaluate(x) for e in row) for row in self.rows
        )


def _det_interpolate(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant by evaluation at integer points and interpolation.

    Every term of the determinant takes one entry from each row and each
    column, so its degree is at most D, the smaller of the sum of the row
    max-degrees and the sum of the column max-degrees.  That bound holds
    whatever cancels, so the values at the D + 1 points ``0..D`` fix the
    determinant.  Each row is scaled by the lcm of its coefficient
    denominators; the values are then determinants of integer matrices,
    taken by :func:`ratlin.det`, and Newton's forward differences with the
    integer weights ``D!/k!`` interpolate them.  One division by ``D!``
    times the product of the row scales gives the rational coefficients.
    """
    bound = min(
        sum(max(e.degree for e in row) for row in rows),
        sum(max(e.degree for e in col) for col in zip(*rows)),
    )
    if bound == NEG_INF:
        return Polynomial.zero()
    work, denominator = [], 1
    for row in rows:
        scale = math.lcm(*(c.denominator for e in row for c in e.coeffs))
        work.append([
            [c.numerator * (scale // c.denominator) for c in reversed(e.coeffs)]
            for e in row
        ])
        denominator *= scale
    values = [
        ratlin.det([[_horner(e, x) for e in row] for row in work]).numerator
        for x in range(bound + 1)
    ]
    for k in range(1, bound + 1):
        for i in range(bound, k - 1, -1):
            values[i] -= values[i - 1]
    # values[k] is now the k-th forward difference at 0; expand
    # sum_k values[k] * D!/k! * x(x-1)...(x-k+1) by nested multiplication.
    coeffs, weight = [values[bound]], 1
    for k in range(bound - 1, -1, -1):
        weight *= k + 1
        shifted = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        shifted[0] += values[k] * weight
        coeffs = shifted
    denominator *= weight
    return Polynomial(Fraction(c, denominator) for c in coeffs)


def _horner(descending: Sequence[int], x: int) -> int:
    acc = 0
    for c in descending:
        acc = acc * x + c
    return acc


def outer_product(vectors: Sequence[PolyVector]) -> PolyVector:
    """Generalized cross product of n-1 vectors in dimension n.

    Component i carries the sign ``(-1)**i`` times the minor that omits row
    i, so ``w.dot(outer_product(us)) == det([w | us])`` columnwise.
    """
    if not vectors:
        raise ValueError("outer product needs at least one vector")
    n = vectors[0].dim
    if len(vectors) != n - 1 or any(v.dim != n for v in vectors):
        raise ValueError("outer product takes n-1 vectors of dimension n")
    comps = []
    for i in range(n):
        minor = [
            [vec[r] for vec in vectors] for r in range(n) if r != i
        ]
        d = _det_interpolate(minor)
        comps.append(d if i % 2 == 0 else -d)
    return PolyVector(comps)


@dataclass(frozen=True)
class PivotProfile:
    """Rightmost independent column choice of a coefficient matrix.

    ``indices`` are 0-based ascending column indices of the coefficient
    matrix; the last is always the degree.  ``k`` is the rightmost column
    index not selected (-1 when every column is).  ``det_vbar`` is the
    determinant of the selected square submatrix.

    Special-linear maps and parameter shifts leave the profile unchanged:
    the first multiplies the coefficient matrix on the left by a
    determinant-one matrix, the second adds to each column a combination of
    the columns to its right.
    """

    indices: tuple[int, ...]
    k: int
    det_vbar: Fraction


def pivot_profile(v: PolyVector) -> PivotProfile:
    """Select the columns independent of all columns to their right.

    These are the pivot columns of the coefficient matrix read right to
    left, found by one forward elimination of the column-reversed matrix.
    Its pivot columns are the selected submatrix with the n columns in
    reverse order, so ``det_vbar`` is their determinant, read off the same
    pass, times ``(-1)**(n(n-1)/2)``.
    """
    if v.is_zero:
        raise RegularityError("vector is zero")
    d, n = int(v.degree), v.dim
    echelon = ratlin.Echelon([row[::-1] for row in v.coefficient_matrix()])
    if len(echelon.pivots) < n:
        raise RegularityError("components are linearly dependent")
    indices = tuple(d - p for p in reversed(echelon.pivots))
    k = max(set(range(d + 1)) - set(indices), default=-1)
    sign = echelon.sign * (-1) ** (n * (n - 1) // 2)
    det_vbar = Fraction(sign * echelon.last_pivot, math.prod(echelon.scales))
    return PivotProfile(indices, k, det_vbar)


class RegularVector(PolyVector):
    """A vector that passed :func:`require_regular`, with its pivot profile.

    Get one from :func:`require_regular` (or ``validate_curve`` for a
    curve's tangent); the constructor trusts the profile it is given.
    Arithmetic on it returns plain :class:`PolyVector` values.
    """

    __slots__ = ("profile",)

    profile: PivotProfile

    def __init__(self, components: Iterable, profile: PivotProfile):
        super().__init__(components)
        object.__setattr__(self, "profile", profile)


def require_regular(v: PolyVector) -> RegularVector:
    """``v`` as a :class:`RegularVector`; :class:`RegularityError` unless regular.

    Regular means: unit gcd, linearly independent components, and degree at
    least the dimension.  A :class:`RegularVector` is returned unchanged.
    """
    if isinstance(v, RegularVector):
        return v
    if v.is_zero:
        raise RegularityError("vector is zero")
    if v.gcd() != Polynomial.one():
        raise RegularityError("components share a nonconstant factor")
    profile = pivot_profile(v)
    if v.degree < v.dim:
        raise RegularityError("degree is below the dimension")
    return RegularVector(v, profile)
