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
the scale as it becomes Fractions.

``quillen_suslin`` builds instead a matrix Q with ``v^T Q = e1^T`` from the
same ingredients computed for v itself; its inverse transpose is a
completion too, generally of larger degree.  ``nonminimal_completion`` is a
deliberately wasteful variant used as a foil when studying how degree
behaves under equivariance.

``verify_completion`` checks a claimed completion, and whether it is the
one ``minimal_completion`` builds, by the normal-form certificates of
:mod:`bezout`; it never builds a completion itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bezout import (
    _vector, bezout_column, bezout_degree_search, certified_basis, is_minimal_bezout,
    is_mu_basis, minimal_bezout, mu_basis,
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

    ``reproducible`` says that the matrix is the one :func:`minimal_completion` builds.
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
    pairing = integer_sum_of_products(system.coefficients, coefficients)
    if pairing[:1] != [system.scale * scale] or any(pairing[1:]):
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
    first ``n * (e + 1)`` columns, both from one
    :func:`bezout_degree_search` pass; with the first column v, b is a
    Bezout vector of v, so ``deg b >= e`` bounds the pass.  Nothing is
    rebuilt.

    Raises as :func:`minimal_completion` does when v has no completion: on
    the zero vector, the oracle at determinant one, else ``v.is_coprime()``.
    """
    return _certificate(m, v, m.columns(), v)


def _certificate(
    m: PolyMatrix, v: PolyVector, columns: list[PolyVector], u: PolyVector
) -> CompletionReport:
    """The report of :func:`verify_completion` on ``m`` as a completion of
    ``v``, certified on ``columns`` with the degree oracle run on ``u``:
    m's columns and v, or others that keep m's determinant, its certificate
    and the column-prefix ranks of A_v.  m is refused first when it is not
    square of v's dimension or has a zero column."""
    if m.nrows != m.ncols:
        raise ValueError("completion matrix must be square")
    if m.nrows != v.dim:
        raise ValueError("matrix and vector dimensions differ")
    degree = m.degree
    if degree == NEG_INF:
        raise RegularityError("completion matrix has a zero column")
    first = m.column(0) == v
    b = outer_product(columns[1:])
    pairing = columns[0].dot(b)
    det_one = pairing == Polynomial.one()
    minimal_degree, minimal = None, False
    if det_one:
        # The oracle rejects a zero or non-coprime v before its degree is read.
        e, pivots = bezout_degree_search(u, int(b.degree) if first else None)
        minimal_degree = e + int(v.degree)
        minimal = degree == minimal_degree
    # Where minimal_completion(v) would refuse v, so does its certificate.
    if v.dim < 2:
        raise RegularityError("completion needs dimension at least 2")
    if not det_one and not v.is_coprime():
        raise RegularityError("components share a nonconstant factor")
    reproducible = det_one and first and (
        is_minimal_bezout(columns[0], b, e, pivots, pairing=pairing)
        and is_mu_basis(
            b, columns[1:], scaled_last=True, pairings=[Polynomial.zero()] * (v.dim - 1)
        )
    )
    return CompletionReport(
        first_column_matches=first,
        determinant_one=det_one,
        degree=int(degree),
        minimal_degree=minimal_degree,
        minimal=minimal,
        reproducible=reproducible,
    )


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
