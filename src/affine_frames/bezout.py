"""Minimal Bezout vectors and syzygy bases from pivot structure.

Both constructions read coefficients off the reduced Sylvester system of a
vector, so they are deterministic: the minimal Bezout vector is the unique
solution of ``A b = e1`` supported on pivotal columns, and each syzygy basis
element expresses a basic non-pivotal column through the pivotal columns to
its left.  Both are laid out from integer columns of the one forward pass
of A (:mod:`sylvester`), each grown only as far as it reads: ``L e1``
solved on the pass up to the Bezout vector's own degree block
(:attr:`SylvesterSystem.bezout_reading`), and the basic columns of the
pass up to the last basic block (:attr:`SylvesterSystem.reading`).  The
pivots of a column prefix are A's, and both results are unique given the
pivots, so they are what a pass of all of A gives.  A shared factor is
refused at the last basic block, once, before either reader lays
anything out.
A syzygy basis is checked as it is built, on the integer columns it is
read off, by the certificate of :func:`basis_scale` (Song and Goldman
2009): syzygies whose degrees sum to deg v and whose leading vectors are
independent have an outer product proportional to v, and the constant is
read off one small elimination, so the outer product itself is never
interpolated.  Each element's degree and leading vector come from its
integer layout, v's coefficients are the ones its system cleared, and each
coefficient becomes a Fraction once, after the check
(:func:`certified_basis`); :func:`basis_scale` runs the same check on
given vectors, each cleared once.

Being the one member of a normal form, each result can be checked without
being built: :func:`is_minimal_bezout` and :func:`is_mu_basis` read the
conditions that single it out (Hong, Hough and Kogan 2017), given the pivot
columns that :func:`bezout_degree_search` finds on its own and the
pairings their callers computed.  A completion's check runs that oracle's
pass (:func:`_oracle_pass`) once and back-substitutes its reduced
``L e1`` for the minimal Bezout vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .poly import Polynomial, from_integers, integer_coefficients, integer_sum_of_products
from .sylvester import SylvesterSystem, build_sylvester, integer_system, sharp
from .vectors import PolyVector, RegularityError


@dataclass(frozen=True)
class BezoutVector:
    """Vector b with <v, b> = 1 of minimal degree among all such."""

    vector: PolyVector
    degree: int


@dataclass(frozen=True)
class MuBasis:
    """Degree-ordered basis of the syzygy module of a vector.

    ``outer_product(elements)`` equals ``scale * v`` for the nonzero
    rational ``scale``, which :func:`basis_scale` certifies without
    building that product.
    """

    elements: tuple[PolyVector, ...]
    scale: Fraction

    def normalized(self) -> tuple[PolyVector, ...]:
        """Elements with the last divided by ``scale``; their outer product is v."""
        *first, last = self.elements
        return (*first, last.scale(1 / self.scale))


def minimal_bezout(v: PolyVector, system: SylvesterSystem | None = None) -> BezoutVector:
    """Minimal-degree b with ``v . b = 1``, supported on pivotal columns.

    ``L e1`` solved on the system's ``bezout_reading`` pass, which refuses
    a shared factor.  The result is unique among Bezout vectors supported
    on pivotal columns.
    """
    sys = system if system is not None else build_sylvester(v)
    b = _vector(*bezout_column(sys))
    return BezoutVector(b, int(b.degree))


def mu_basis(v: PolyVector, system: SylvesterSystem | None = None) -> MuBasis:
    """Syzygy basis with one element per basic non-pivotal column.

    Read off the basic columns of the system's ``reading`` pass, A's basic
    non-pivot columns, whose degrees are the µ-degrees.  Element degrees
    are ascending and sum to the degree of ``v``.  A shared factor is
    refused, by ``reading``, before the dimension is checked.
    """
    sys = system if system is not None else build_sylvester(v)
    elements, scale = certified_basis(sys)
    return MuBasis(tuple(_vector(*u) for u in elements), scale)


def bezout_column(sys: SylvesterSystem) -> tuple[list[list[int]], int]:
    """The minimal Bezout vector of the system's vector on integers, ``L e1``
    solved on the pass grown to its own degree block, the system's
    ``bezout_reading`` (:mod:`sylvester`): its component coefficient
    lists, lowest power first, and their nonzero denominator, that pass's
    last pivot."""
    pivots, scaled, den = sys.bezout_reading
    return _stacked(sys.n, pivots, scaled), den


def certified_basis(sys: SylvesterSystem) -> tuple[list, Fraction]:
    """The µ-basis of the system's vector on integers, each element as
    ``(coefficient lists, denominator)`` like :func:`bezout_column`, and its
    scale, certified on those integers as :func:`basis_scale` certifies it.

    Element i is basic column c_i of ``D R`` with -D at c_i, over -D, off
    the ``reading`` pass; it has degree ``c_i // n`` and its leading vector
    is block ``c_i // n`` of its layout.  The vector's own coefficients are
    the system's, cleared once when it was built.
    """
    echelon, basic = sys.reading
    if sys.n < 2:
        raise RegularityError("syzygies need dimension at least 2")
    den = -echelon.last_pivot
    elements = [
        (_stacked(sys.n, echelon.pivots, scaled, (j, den)), den)
        for j, scaled in zip(basic, echelon.integer_columns(basic))
    ]
    degrees = [j // sys.n for j in basic]
    return elements, _scale(sys.coefficients, sys.scale, sys.d, degrees, elements)


def _vector(coefficients: list[list[int]], den: int) -> PolyVector:
    """The vector ``coefficients / den``, one Fraction per nonzero coefficient."""
    return PolyVector(from_integers(nums, den) for nums in coefficients)


def _stacked(n: int, pivots, scaled, *entries) -> list[list[int]]:
    """The component coefficient lists, lowest power first, of a column of
    ``D R`` (D the last pivot, R the reduced form) put at the pivot columns
    and the ``(column, value)`` ``entries`` right of them, up to the last
    block that holds a nonzero."""
    entries = [*((col, x) for col, x in zip(pivots, scaled) if x), *entries]
    nums = [0] * (entries[-1][0] + 1)
    for col, x in entries:
        nums[col] = x
    return [nums[i::n] for i in range(n)]


def basis_scale(v: PolyVector, elements) -> Fraction:
    """The nonzero r with ``outer_product(elements) == r * v``, for a coprime v.

    Certified, not computed from the product: with d the degree of v, the
    elements must be n - 1 syzygies (``v . u_i == 0``, on integers with v
    and each element cleared once) whose degrees sum to d and whose leading
    vectors (the coefficients of ``t**deg u_i``) have a nonzero maximal
    minor, by one elimination.  Otherwise it raises ``RegularityError``
    (``ValueError`` for elements of another dimension).

    Those conditions prove ``w = outer_product(elements) = r v``.  Each
    component of w is a signed (n-1)-minor of the elements, of degree at
    most d; its ``t**d`` coefficient is the same minor of the leading
    vectors, and their rank makes one of those nonzero, so w has degree d.
    Both v and w are orthogonal to every u_i (``w . u_i`` is a determinant
    with a repeated column), and the u_i span n - 1 dimensions over Q(t)
    since w is nonzero, so ``w = (p / q) v`` for coprime polynomials p, q.
    Then q divides every ``p v_i``, hence ``gcd(v) = 1``, and p has degree
    ``deg w - deg v = 0``.  With the leading vectors over the elements'
    denominators q_i, w_i has ``t**d`` coefficient ``c_i / (q_1 ...
    q_{n-1})``, c their :meth:`ratlin.Echelon.cofactors`; r is its
    quotient by ``v_i[d]`` at any i with c_i nonzero.
    """
    left, scale = integer_coefficients(v.components)
    cleared = [integer_coefficients(u.components) for u in elements]
    return _scale(left, scale, int(v.degree), [u.degree for u in elements], cleared)


def _scale(left, scale: int, d: int, degrees, elements) -> Fraction:
    """:func:`basis_scale` for ``v = left / scale`` of degree d, and elements
    given as ``(coefficient lists, denominator)`` with their degrees."""
    n = len(left)
    if len(elements) == n - 1 and sum(degrees) == d:
        minors = ratlin.Echelon([
            [c[e] if e < len(c) else 0 for c in coefficients]
            for e, (coefficients, _) in zip(degrees, elements)
        ]).cofactors()
        if any(minors) and not any(
            any(integer_sum_of_products(left, coefficients)) for coefficients, _ in elements
        ):
            i = next(i for i, c in enumerate(minors) if c)
            dens = math.prod(den for _, den in elements)
            return Fraction(minors[i] * scale, dens * left[i][d])
    raise RegularityError("syzygy basis is not proportional to input")


def bezout_degree_search(
    v: PolyVector, bound: int | None = None
) -> tuple[int | None, tuple[int, ...]]:
    """Smallest degree e that makes ``v . b = 1`` solvable, and A's pivots.

    Independent oracle: b of degree at most e exists exactly when e1 is in the
    span of A_e, the columns of A that encode coefficients up to degree e.  It
    runs one forward elimination of A_E, E being ``bound`` clamped to [0, d]
    (``None`` for d), and reduces e1 through its steps.  If e1 is in the
    span, let k be the last nonzero entry of the reduced e1.  Eliminating the
    first w columns is the same for every prefix, and later steps only
    combine rows below the r_w pivot rows found by then, invertibly; so e1 is
    in the span of the first w columns exactly when the reduced e1 is zero
    below row r_w, that is when ``pivots[k] < w``, and the minimal degree
    is ``pivots[k] // n``.  A reduced e1 nonzero below the rank means e > E:
    it raises for a shared factor, which :meth:`PolyVector.is_coprime`
    tells below d, and otherwise returns ``(None, ())``.  A pass costs more
    than linearly in its width, so a caller that knows a Bezout vector bounds
    it by that vector's degree.  The oracle reads only A's columns, laid
    out by :meth:`SylvesterSystem.columns`, and its own pass, never a
    system's pass, so it stays independent of the pivot-supported
    construction and can certify minimality.

    The second value holds the 0-based pivot columns of A among its first
    ``n * (e + 1)``, read off the same pass.  A column of A is a pivot when
    it is independent of the columns to its left, which no column to its
    right can change; and the leftmost-pivot elimination finds exactly those
    columns.  So the pivots of A_E are A's, and since ``E >= e`` they hold
    every pivot that :func:`is_minimal_bezout` reads.
    :func:`sylvester.integer_system` refuses the zero vector before its
    degree is read.
    """
    return _oracle_pass(v, bound)[:2]


def _oracle_pass(v: PolyVector, bound: int | None):
    """:func:`bezout_degree_search`'s two values, then its system, its pass
    and ``L e1`` reduced through that pass.

    Back-substituting that reduced ``L e1``, zero past row k, on the pass
    of A_E gives b*: it solves ``A_E x = e1`` on A_E's pivots among its
    first ``n (e + 1)`` columns, which are A's since E >= e.  A's pivot
    columns are independent, so b* is A's one pivot-supported Bezout
    vector, the one :func:`minimal_bezout` reads off a system's pass.
    """
    # L A_E has the pivots of A_E, and L e1 lies in its span when e1 lies in A_E's.
    system = integer_system(*integer_coefficients(v.components))
    n, d = system.n, system.d
    top = d if bound is None else max(0, min(bound, d))
    echelon = ratlin.Echelon([[]] * system.nrows)
    echelon.extend(system.columns(range(top + 1)))
    pivots = echelon.pivots
    e1 = echelon.reduce([system.scale] + [0] * (system.nrows - 1))
    if any(e1[len(pivots):]):
        if top == d or not v.is_coprime():
            raise RegularityError("components share a nonconstant factor")
        return None, (), system, echelon, e1
    k = max(i for i, x in enumerate(e1) if x)
    degree = pivots[k] // n
    return degree, tuple(p for p in pivots if p < n * (degree + 1)), system, echelon, e1


def is_minimal_bezout(
    b: PolyVector, degree: int, pivots: tuple[int, ...], pairing: Polynomial
) -> bool:
    """Whether ``b`` is ``minimal_bezout(v).vector``, without building it,
    given the ``pairing`` ``v . b`` its caller computed.

    ``degree`` and ``pivots`` are what :func:`bezout_degree_search` returns
    for v (or the same pivots from another pass over A).  The minimal
    Bezout vector has that degree, pairs with v to one, and is supported on
    pivot columns of A; A's pivot columns are independent, so no other
    vector does all three.
    """
    if b.degree != degree or pairing != Polynomial.one():
        return False
    support = set(pivots)
    return all(j in support for j, x in enumerate(sharp(b, degree)) if x)


def is_mu_basis(w: PolyVector, elements, pairings, scaled_last: bool = False) -> bool:
    """Whether ``elements`` are ``mu_basis(w).elements``, without building them,
    given the ``pairings`` ``w . u_i`` their caller computed, paired with
    the elements in order by a strict ``zip``.

    With ``scaled_last`` the last element may be any nonzero multiple of
    that one, as in a completion.  Refuses w as :func:`mu_basis` does: the
    zero vector by :meth:`PolyVector.is_coprime`, before its degree is read.

    Let e be the degree of w and c_i the last nonzero index of the stacked
    coefficients ``sharp(u_i, e)``.  When the c_i ascend, lie in distinct
    classes mod n and have degrees ``c_i // n`` summing to e, each column
    ``c_i + n k`` of A_w is a non-pivot column, since ``t**k u_i`` is a
    syzygy that ends there.  There are ``(n-1)(e+1) - e`` of them, which is
    ``n(e+1) - rank A_w`` for a coprime w, so they are all the non-pivot
    columns, and the basic ones are the c_i.  A syzygy with a 1 at c_i and
    every other nonzero at a pivot column is then element i of the basis,
    since the pivot columns are independent.  No elimination is needed.
    """
    if not w.is_coprime():
        raise RegularityError("components share a nonconstant factor")
    n, e = w.dim, w.degree
    if n < 2:
        raise RegularityError("syzygies need dimension at least 2")
    if len(elements) != n - 1 or any(
        u.dim != n or u.is_zero or u.degree > e for u in elements
    ):
        return False
    last = []
    for u in elements:
        top = int(u.degree)
        last.append(n * top + max(i for i, c in enumerate(u) if c.degree == top))
    classes = {c % n: c for c in last}
    if (
        last != sorted(set(last))
        or len(classes) != len(last)
        or sum(c // n for c in last) != e
    ):
        return False
    for i, (u, c, pairing) in enumerate(zip(elements, last, pairings, strict=True)):
        free = scaled_last and i == n - 2
        if not (free or u[c % n].leading == 1) or not pairing.is_zero:
            return False
        # The non-pivot columns are the c_j + n k; u has no other one.
        for j, x in enumerate(sharp(u, e)):
            if x and j != c and j % n in classes and j >= classes[j % n]:
                return False
    return True
