"""Vectors and matrices of polynomials.

A :class:`PolyVector` models a polynomial curve or tangent vector, a
:class:`PolyMatrix` a polynomial matrix whose columns are such vectors.  The
degree of a vector is the maximum of its component degrees; the degree of a
matrix is the sum of its column degrees.  Both follow the absorbing
``NEG_INF`` convention for zero entries.  :func:`require_regular` checks a
vector once and returns it as a :class:`RegularVector`, which carries the
:class:`PivotProfile` found on the way.

The pairing ``dot`` and the matrix product ``@`` are sums of products,
computed by :func:`poly.sum_of_products` (``@`` pairs rows with columns).  A
constant linear map, after a parameter shift or not, runs on integers too:
:func:`map_columns` clears the constant matrix once, shifts each cleared
column by the one integer Taylor shift, maps it, and makes one ``Fraction``
per output coefficient.  :meth:`PolyMatrix.linear_map` is its unshifted
case, a vector mapped as a one-column matrix, and the group action its
shifted one.

:func:`outer_product` is the one routine for polynomial minors: the
:meth:`ratlin.Echelon.cofactors` of one integer pass per point are all n
signed minors there, and each is interpolated once.  A determinant is the
Laplace pairing of its first column with the outer product of the others.
Whether syzygies of a coprime vector have an outer product r times it,
:func:`outer_product_is_multiple` reads off one of those minors at as few
points as the quotient's degree needs, with no interpolation.

:meth:`PolyVector.is_coprime` decides unit gcd by two certificates read off
one modular gcd, with denominators cleared and the prime ``PRIME`` not
dividing the leading coefficient of some component f.  A constant gcd of
the components modulo ``PRIME`` proves them coprime over Q (Brown 1971),
since a primitive common factor h divides f in Z[t] (Gauss's lemma), so h
mod ``PRIME`` keeps its degree and divides every reduced component.  A
nonconstant one is lifted to a primitive integer candidate
(:func:`poly.rational_lift`), and a candidate that divides every cleared
component exactly (:func:`poly.divides`) proves a shared factor, whether or
not the prime was lucky.  Only when neither decides (a coefficient past the
lift's bound, an unlucky prime, or ``PRIME`` dividing every leading
coefficient) does the exact gcd of :meth:`PolyVector.gcd`, one
:func:`poly.poly_gcd` of all the components, run.  Both gcds run the one
integer Euclid, :func:`poly.integer_gcd`: mod ``PRIME``, then over Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Sequence

from . import ratlin
from .poly import (
    Polynomial, Scalar, _coerce, divides, from_integers, horner,
    integer_coefficients, integer_gcd, poly_gcd, rational_lift, sum_of_products,
    taylor_shift,
)


PRIME = 2**31 - 1


class RegularityError(ValueError):
    """An input vector or curve fails a structural precondition."""


def _as_poly(entry) -> Polynomial:
    coerced = _coerce(entry)
    return Polynomial(entry) if coerced is None else coerced


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
        return self + (-other)

    def __neg__(self) -> "PolyVector":
        return PolyVector(-c for c in self.components)

    def scale(self, factor) -> "PolyVector":
        """Multiply every component by a number or a polynomial."""
        return PolyVector(c * factor for c in self.components)

    def shift(self, s: Scalar) -> "PolyVector":
        """Reparametrized vector ``v(t + s)``."""
        return PolyVector(c.shift(s) for c in self.components)

    def derivative(self) -> "PolyVector":
        return PolyVector(c.derivative() for c in self.components)

    def dot(self, other: "PolyVector") -> Polynomial:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return sum_of_products(self.components, other.components)

    def translate(self, offset: Sequence[Fraction]) -> "PolyVector":
        if len(offset) != self.dim:
            raise ValueError("dimension mismatch")
        return PolyVector(c + Fraction(a) for c, a in zip(self, offset))

    def linear_map(self, matrix: Sequence[Sequence[Fraction]]) -> "PolyVector":
        """Left multiplication by a constant matrix: the one-column case of
        :meth:`PolyMatrix.linear_map`."""
        return PolyMatrix(zip(self.components)).linear_map(matrix).column(0)

    def gcd(self) -> Polynomial:
        """Monic gcd of the components; ``RegularityError("vector is zero")``."""
        if self.is_zero:
            raise RegularityError("vector is zero")
        return poly_gcd(*self.components)

    def is_coprime(self) -> bool:
        """Whether :meth:`gcd` is one: by the two certificates of the module
        docstring, else by :meth:`gcd` itself, which refuses the zero vector."""
        comps, _ = integer_coefficients([c for c in self.components if not c.is_zero])
        if any(c[-1] % PRIME for c in comps):
            g = integer_gcd(comps, PRIME)
            if g == [1]:
                return True
            divisor = rational_lift(g, PRIME)
            if divisor and all(divides(divisor, c) for c in comps):
                return False
        return self.gcd() == Polynomial.one()

    def coefficient_matrix(self) -> ratlin.Matrix:
        """n x (d+1) matrix of coefficients, columns in ascending degree;
        ``RegularityError("vector is zero")`` for the zero vector."""
        if self.is_zero:
            raise RegularityError("vector is zero")
        width = int(self.degree) + 1
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
        """The matrix of ``columns``, which the constructor refuses if empty."""
        if any(col.dim != columns[0].dim for col in columns):
            raise ValueError("columns differ in dimension")
        return cls(zip(*columns))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(ratlin.identity(n))

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

    def linear_map(self, matrix: Sequence[Sequence[Fraction]]) -> "PolyMatrix":
        """Left multiplication by a constant matrix (:func:`map_columns`)."""
        return PolyMatrix(zip(*map_columns(matrix, zip(*self.rows))))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        columns = other.columns()
        return PolyMatrix(
            [row.dot(col) for col in columns] for row in map(PolyVector, self.rows)
        )

    def determinant(self) -> Polynomial:
        """Exact determinant by the Laplace identity: the first column paired
        with the :func:`outer_product` of the others."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        cols = self.columns()
        return cols[0].dot(outer_product(cols[1:]))

    def inverse_unimodular(self) -> "PolyMatrix":
        """Inverse of a matrix with nonzero constant determinant.

        Row i of the adjugate is ``(-1)**i`` times the outer product of the
        columns other than i, by the Laplace identity, and the determinant
        is row 0 paired with column 0."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        n, cols = self.nrows, self.columns()
        minors = [outer_product(cols[:i] + cols[i + 1:]) for i in range(n)]
        d = cols[0].dot(minors[0])
        if d.is_zero or not d.is_constant:
            raise ValueError("inverse requires a nonzero constant determinant")
        return PolyMatrix(
            minor.scale((-1) ** i / d.coeff(0)) for i, minor in enumerate(minors)
        )

    def evaluate(self, x: Scalar) -> ratlin.Matrix:
        return tuple(
            tuple(e.evaluate(x) for e in row) for row in self.rows
        )


def map_columns(
    matrix: Sequence[Sequence[Fraction]],
    columns: Iterable[Sequence[Polynomial]],
    shift: Fraction = Fraction(0),
) -> list[list[Polynomial]]:
    """``matrix * column(t + shift)`` for each column, in one integer pass.

    The matrix goes over the lcm ``R`` of its denominators once per call.
    Each column goes over the lcm ``L`` of its own and is Taylor-shifted by
    ``shift = a/b`` to its degree D (:func:`poly.taylor_shift`), which puts
    coefficient k of every component over ``L * b**(D - k)``.  The integer
    matrix maps it, and each output coefficient is one division by
    ``R * L * b**(D - k)`` (:func:`poly.from_integers` with b).
    """
    rows, matrix_scale = ratlin.clear_denominators(matrix)
    b = shift.denominator
    out = []
    for column in columns:
        if any(len(row) != len(column) for row in rows):
            raise ValueError("dimension mismatch")
        comps, scale = integer_coefficients(column)
        degree = max(map(len, comps)) - 1
        shifted = [taylor_shift(comp, shift, degree) for comp in comps]
        scale *= matrix_scale
        mapped = []
        for row in rows:
            acc = [0] * (degree + 1)
            for x, comp in zip(row, shifted):
                if x:
                    for k, c in enumerate(comp):
                        acc[k] += x * c
            mapped.append(from_integers(acc, scale, b))
        out.append(mapped)
    return out


def _degree_bound(degrees: Sequence[Sequence[int | float]]) -> int | float:
    """The smaller of the row and the column max-degree sums of a square
    polynomial matrix, given its entries' degrees: a bound on the degree of
    its determinant."""
    return min(sum(map(max, degrees)), sum(map(max, zip(*degrees))))


def _interpolate(values: list[int], denominator: int) -> Polynomial:
    """The polynomial of degree below ``len(values)`` through the points
    ``(x, values[x] / denominator)``, x = 0, 1, ...

    Newton's forward differences with the integer weights ``D!/k!``, D the
    last point, keep the work on integers; one division by ``D!`` times
    ``denominator`` per coefficient gives the rational coefficients.
    """
    values, bound = list(values), len(values) - 1
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
    return from_integers(coeffs, denominator)


def outer_product(vectors: Sequence[PolyVector]) -> PolyVector:
    """Generalized cross product of n-1 vectors in dimension n.

    Component i is ``(-1)**i`` times the minor that omits row i, so
    ``w.dot(outer_product(us)) == det([w | us])`` columnwise; of no vectors
    (n = 1, an empty minor) it is the unit.

    A minor's degree is at most the smaller of its row and column
    max-degree sums, whatever cancels, so its values at ``0..B``, B the
    largest such bound or 0 (a zero vector zeroes every minor), fix it.
    Each vector goes over the lcm of its denominators, and one integer pass
    of their values (by :func:`poly.horner`) per point gives all n minors
    there by Cramer's rule (:meth:`ratlin.Echelon.cofactors`).  Each is
    interpolated once and divided by the product of the vector scales.
    """
    if not vectors:
        return PolyVector([Polynomial.one()])
    n = len(vectors) + 1
    if any(v.dim != n for v in vectors):
        raise ValueError("outer product takes n-1 vectors of dimension n")
    rows = [vec.components for vec in vectors]
    degrees = [[e.degree for e in row] for row in rows]
    bound = max(
        0, *(_degree_bound([row[:i] + row[i + 1:] for row in degrees]) for i in range(n))
    )
    work, denominator = [], 1
    for row in rows:
        comps, scale = integer_coefficients(row)
        work.append([e[::-1] for e in comps])
        denominator *= scale
    values = [_cofactors_at(work, x) for x in range(bound + 1)]
    return PolyVector(_interpolate(column, denominator) for column in zip(*values))


def _cofactors_at(work: Sequence[Sequence[Sequence[int]]], x: int) -> tuple[int, ...]:
    """The n signed minors at x of n-1 rows of integer polynomials, each
    given highest power first: the :meth:`ratlin.Echelon.cofactors` of one
    pass of their values."""
    return ratlin.Echelon([[horner(e, x) for e in row] for row in work]).cofactors()


def outer_product_is_multiple(
    left: Sequence[Sequence[int]],
    scale: int,
    cleared: Sequence[tuple[Sequence[Sequence[int]], int]],
    r: Fraction,
) -> bool:
    """Whether ``outer_product(us) == r * v`` for syzygies u_j of a coprime
    v, read off one minor at as few points as its degree needs.

    v is ``left / scale`` and u_j is ``cleared[j]``, both as
    :func:`poly.integer_coefficients` gives them (coefficient lists, lowest
    power first, over their lcm); every pairing ``v . u_j`` must be 0.

    w = ``outer_product(us)`` is orthogonal to every u_j (``w . u_j`` is a
    determinant with a repeated column), and so is v.  Independent u_j
    leave a line of such vectors over Q(t), so ``w = (p / q) v`` for
    coprime polynomials p and q; q divides every ``p v_k``, so ``gcd(v) =
    1`` makes q a constant and p a polynomial.  Dependent u_j give ``w = 0
    = 0 v``.  Let v_i have the full degree d and B_i bound minor i
    (:func:`_degree_bound`): ``w_i = p v_i`` gives ``deg p <= B_i - d``
    for a nonzero p.  So ``p - r`` has degree at most ``max(B_i - d, 0)``,
    and ``w == r v`` exactly when ``p(x) = w_i(x) / v_i(x)`` is r at one
    more integer point x with ``v_i(x) != 0`` than that, w_i(x) being
    cofactor i of one pass of the syzygies' values, as in
    :func:`outer_product`.  Syzygies whose degrees sum to d have ``B_i <=
    d``, so one point decides.
    """
    d = max(map(len, left)) - 1
    if d < 0:  # no point would be found
        raise RegularityError("vector is zero")
    degrees = [[len(c) - 1 for c in comps] for comps, _ in cleared]
    bound, i = min(
        (_degree_bound([row[:k] + row[k + 1:] for row in degrees]), k)
        for k, c in enumerate(left) if len(c) == d + 1
    )
    work = [[c[::-1] for c in comps] for comps, _ in cleared]
    top = left[i][::-1]
    points = islice((x for x in count() if horner(top, x)), max(bound - d, 0) + 1)
    # w_i(x) is the cofactor over the product of the u_j's scales and v_i(x)
    # is horner(top, x) over scale; cross-multiplied, p(x) = r reads:
    lhs, rhs = scale * r.denominator, r.numerator * math.prod(den for _, den in cleared)
    return all(_cofactors_at(work, x)[i] * lhs == rhs * horner(top, x) for x in points)


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
    left, found by one forward elimination of the column-reversed matrix,
    fed a column at a time until it has n pivots: no later column can
    pivot, and the determinant is final at full row rank.  Its pivot
    columns are the selected submatrix with the n columns in reverse
    order, so ``det_vbar`` is their determinant, read off the same pass,
    times ``(-1)**(n(n-1)/2)``.  :meth:`PolyVector.coefficient_matrix`
    refuses the zero vector before its degree is read.
    """
    work, scale = ratlin.clear_denominators(
        [row[::-1] for row in v.coefficient_matrix()]
    )
    d, n = int(v.degree), v.dim
    echelon = ratlin.Echelon([[]] * n)
    for column in zip(*work):
        echelon.extend([column])
        if len(echelon.pivots) == n:
            break
    else:
        raise RegularityError("components are linearly dependent")
    indices = tuple(d - p for p in reversed(echelon.pivots))
    k = max(set(range(d + 1)) - set(indices), default=-1)
    det_vbar = Fraction((-1) ** (n * (n - 1) // 2) * echelon.determinant, scale**n)
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


def require_regular(v: PolyVector, *, profile: PivotProfile | None = None) -> RegularVector:
    """``v`` as a :class:`RegularVector`; :class:`RegularityError` unless regular.

    Regular means: unit gcd, linearly independent components, and degree at
    least the dimension.  A :class:`RegularVector` is returned unchanged;
    the zero vector is refused by :meth:`PolyVector.is_coprime`.  A caller
    that has ``pivot_profile(v)`` already passes it as ``profile``.
    """
    if isinstance(v, RegularVector):
        return v
    if not v.is_coprime():
        raise RegularityError("components share a nonconstant factor")
    if profile is None:
        profile = pivot_profile(v)
    if v.degree < v.dim:
        raise RegularityError("degree is below the dimension")
    return RegularVector(v, profile)
