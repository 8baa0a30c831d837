"""Completion of a polynomial vector to a unimodular polynomial matrix.

``minimal_completion`` realizes the minimal-degree construction: take a
minimal Bezout vector b of v, then a µ-basis (syzygy basis) syz of b with
``outer_product(syz) == scale * b``, certified without building that
product (:func:`bezout.certified_basis`, the check of
:func:`bezout.basis_scale`: syzygies of b, degrees summing to deg b,
independent leading vectors).  By the Laplace identity, ``det [v | syz] =
v . outer_product(syz) = scale * (v . b) = scale``, so dividing the last
syzygy by the µ-basis scale gives determinant one at degree
``deg v + deg b``, which is the least possible.  No determinant or outer
product is computed; the exact check ``v . b == 1`` stands in for them.
All of it runs on integers: b is ``L e1`` solved on v's Sylvester pass,
paired with v's cleared coefficients and laid out as its own
Sylvester system from its own integer coefficients; the certificate reads
the µ-basis columns of that system's pass, and the last one is divided by
the scale as it becomes Fractions.  Both are pivot-supported normal forms,
which move with a parameter shift of v: ``minimal_completion(v(t + s))``
is ``minimal_completion(v)(t + s)`` (proof in :mod:`frames`).

``quillen_suslin`` builds instead a matrix Q with ``v^T Q = e1^T`` from the
same ingredients computed for v itself; its inverse transpose is a
completion too, generally of larger degree.  ``nonminimal_completion`` is a
deliberately wasteful variant used as a foil when studying how degree
behaves under equivariance.

``verify_completion`` checks a claimed completion, and whether it is the
one ``minimal_completion`` builds, by the normal-form certificates of
:mod:`bezout`; it never builds a completion itself.  It runs the degree
oracle's pass once, up front, and checks one b: with v first, v's minimal
Bezout vector b* read off that pass where the later columns certify
against it, so no outer product is built; otherwise the interpolated
outer product of the later columns.  :func:`frames.verify_frame` is this
check of a frame mapped back by its section's linear part.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bezout
from .bezout import (
    _scale, _stacked, _vector, bezout_column, certified_basis, is_minimal_bezout, is_mu_basis,
    minimal_bezout, mu_basis,
)
from .poly import NEG_INF, Polynomial, integer_coefficients, integer_sum_of_products
from .sylvester import SylvesterSystem, build_sylvester, integer_system
from .vectors import PolyMatrix, PolyVector, RegularityError, outer_product


@dataclass(frozen=True)
class Completion:
    """Unimodular matrix whose first column is the completed vector."""

    matrix: PolyMatrix
    bezout_degree: int


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of checking a claimed completion against its vector.

    ``reproducible`` says that the matrix is the one :func:`minimal_completion`
    builds, from :func:`verify_completion`; from :func:`frames.verify_frame`,
    that the whole stored frame is the one :func:`frames.moving_frame` builds.
    """

    first_column_matches: bool
    determinant_one: bool
    degree: int
    minimal_degree: int | None
    minimal: bool
    reproducible: bool

    @property
    def is_completion(self) -> bool:
        return self.first_column_matches and self.determinant_one


def _assemble(v: PolyVector, system: SylvesterSystem, coefficients, scale: int) -> Completion:
    """``[v | syz]`` for the µ-basis syz of ``b = coefficients / scale``, of
    determinant one; ``system`` is v's, whose cleared coefficients pair
    with b's on integers.

    The determinant is ``v . b`` once the last syzygy is divided by the
    scale (module docstring), so a ``b`` that is no Bezout vector of ``v``
    is caught here.  Only the last column is scaled, each of its
    coefficients one Fraction, so the output is deterministic and the
    column degrees are untouched.
    """
    if not _pairs_to_one(system, coefficients, scale):
        raise RegularityError("assembled matrix is not unimodular")
    b = integer_system(coefficients, scale)
    (*first, (last, den)), r = certified_basis(b)
    last = [[x * r.denominator for x in nums] for nums in last]
    columns = [v, *(_vector(*u) for u in first), _vector(last, den * r.numerator)]
    return Completion(PolyMatrix.from_columns(columns), b.d)


def minimal_completion(v: PolyVector) -> Completion:
    """Complete ``v`` to a determinant-one matrix of least degree.

    v is cleared once, by :func:`build_sylvester`; its minimal Bezout
    vector stays an integer column from its Sylvester pass to the µ-basis
    of that vector, and each output coefficient becomes a Fraction once.
    """
    if v.dim < 2:
        raise RegularityError("completion needs dimension at least 2")
    system = build_sylvester(v)
    return _assemble(v, system, *bezout_column(system))


def verify_completion(m: PolyMatrix, v: PolyVector) -> CompletionReport:
    """Check first-column equality, determinant one, degree minimality, and
    whether ``m`` is the matrix :func:`minimal_completion` builds.

    The determinant is ``m[:, 0] . b`` for ``b = outer_product(m[:, 1:])``,
    by Laplace expansion along the first column, and that b is also what
    the certificate checks: m is the minimal completion exactly when b is
    the minimal Bezout vector of v (:func:`is_minimal_bezout`) and the later
    columns are the µ-basis of b with the last one scaled
    (:func:`is_mu_basis`), since ``v . b = 1`` pins that scale; each
    ``b . m[:, i]``, i > 0, is a determinant with a repeated column, zero
    without computing.  The certificate needs e and A_v's pivots among its
    first ``n * (e + 1)`` columns, both from the degree oracle's one pass,
    which runs before b is read.

    With the first column v, b has degree at most B, the sum of the later
    columns' degrees, so the pass is bounded by B, and one that finds no
    degree within B pins the determinant as not one.  Otherwise b comes
    from one of two sources.  With v first, one back-substitution on the
    pass gives b*, A_v's pivot-supported Bezout vector; when the later
    columns certify against b* (:func:`_unimodular`), ``b = r b*`` and the
    determinant is r, with no outer product built.  Later columns that fail
    that certificate, and a first column other than v (whose pass covers
    all of A_v), leave b interpolated.  Nothing is rebuilt.

    Raises as :func:`minimal_completion` does when v has no completion: the
    pass refuses the zero vector and a shared factor, and n = 1 is refused
    after the oracle runs where m's one entry is one.
    """
    if m.nrows != m.ncols:
        raise ValueError("completion matrix must be square")
    if m.nrows != v.dim:
        raise ValueError("matrix and vector dimensions differ")
    degree = m.degree
    if degree == NEG_INF:
        raise RegularityError("completion matrix has a zero column")
    columns = m.columns()
    first, later = columns[0] == v, columns[1:]
    # det m = columns[0] . outer_product(later), of degree at most B: with v
    # first, det m = 1 puts the least Bezout degree e at most B.
    bound = sum(int(c.degree) for c in later) if first else None
    if v.dim < 2:
        # Where minimal_completion(v) would refuse v, so does its certificate;
        # at det m = 1 the oracle refuses a zero or non-coprime v first.
        if columns[0][0] == Polynomial.one():
            bezout._oracle_pass(v, bound)
        raise RegularityError("completion needs dimension at least 2")
    e, pivots, system, echelon, e1 = bezout._oracle_pass(v, bound)
    det_one = e is not None
    if det_one:
        certified = None
        if first:
            # b*, A's pivot-supported solution of A x = e1 (bezout._oracle_pass).
            scaled = echelon._back_substitute(e1)
            star = _stacked(system.n, echelon.pivots, scaled), echelon.last_pivot
            certified = _unimodular(system, star, e, later)
        if certified is None:
            b = outer_product(later)
            det_one = columns[0].dot(b) == Polynomial.one()
        else:
            b, det_one = _vector(*star), certified
    minimal_degree = e + int(v.degree) if det_one else None
    reproducible = det_one and first and (
        is_minimal_bezout(b, e, pivots, Polynomial.one())
        and is_mu_basis(b, later, [Polynomial.zero()] * (v.dim - 1), scaled_last=True)
    )
    return CompletionReport(
        first_column_matches=first,
        determinant_one=det_one,
        degree=int(degree),
        minimal_degree=minimal_degree,
        minimal=degree == minimal_degree,
        reproducible=reproducible,
    )


def _unimodular(system: SylvesterSystem, star, degree: int, later) -> bool | None:
    """Whether ``det [u | later]`` is one, u the system's vector and
    ``star`` its b* of that degree, as ``(coefficient lists,
    denominator)``; None when b* does not pair with u to one or the later
    columns do not certify against b*.

    Columns that :func:`bezout.basis_scale`'s certificate passes against b*
    (syzygies of b*, degrees summing to deg b*, independent leading
    vectors) have ``outer_product(later) = r b*``, so the determinant is
    ``u . r b* = r`` by Laplace expansion along the first column.
    """
    if not _pairs_to_one(system, *star):
        return None
    cleared = [integer_coefficients(c.components) for c in later]
    try:
        return _scale(*star, degree, [c.degree for c in later], cleared) == 1
    except RegularityError:
        return None


def _pairs_to_one(system: SylvesterSystem, coefficients, den: int) -> bool:
    """Whether ``coefficients / den`` pairs with the system's vector to one,
    on integers."""
    pairing = integer_sum_of_products(system.coefficients, coefficients)
    return pairing[:1] == [system.scale * den] and not any(pairing[1:])


def quillen_suslin(v: PolyVector) -> PolyMatrix:
    """Matrix Q with ``v^T Q = e1^T`` built from Bezout and syzygy data of v.

    The syzygy basis is normalized so its outer product is exactly v; the
    Bezout column comes first.
    """
    if v.dim < 2:
        raise RegularityError("dimension at least 2 required")
    system = build_sylvester(v)
    bez = minimal_bezout(v, system)
    return PolyMatrix.from_columns([bez.vector, *mu_basis(v, system).normalized()])


def nonminimal_completion(v: PolyVector) -> Completion:
    """Completion through an inflated Bezout vector.

    The minimal Bezout vector is bumped by ``t**deg(v1)`` times the highest
    degree syzygy element, which stays a Bezout vector but raises the degree
    of the result by ``deg v1 + deg w`` over the input degree.
    """
    if v.dim < 2:
        raise RegularityError("completion needs dimension at least 2")
    if v[0].is_zero:
        raise RegularityError("first component must be nonzero")
    system = build_sylvester(v)
    syz = mu_basis(v, system)
    bez = minimal_bezout(v, system)
    bump = syz.elements[-1].scale(Polynomial.monomial(int(v[0].degree)))
    return _assemble(v, system, *integer_coefficients((bez.vector + bump).components))
