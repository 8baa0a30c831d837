"""Completion of a polynomial vector to a unimodular polynomial matrix.

``minimal_completion`` realizes the minimal-degree construction: take a
minimal Bezout vector b of v, then a µ-basis (syzygy basis) syz of b with
``outer_product(syz) == scale * b``.  By the Laplace identity,
``det [v | syz] = v . outer_product(syz) = scale * (v . b) = scale``, so
dividing the last syzygy by the µ-basis scale gives determinant one at
degree ``deg v + deg b``, which is the least possible.  No determinant is
computed; the exact check ``v . b == 1`` stands in for it.

``quillen_suslin`` builds instead a matrix Q with ``v^T Q = e1^T`` from the
same ingredients computed for v itself; its inverse transpose is a
completion too, generally of larger degree.  ``nonminimal_completion`` is a
deliberately wasteful variant used as a foil when studying how degree
behaves under equivariance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bezout import bezout_degree_search, minimal_bezout, mu_basis
from .poly import NEG_INF, Polynomial
from .sylvester import build_sylvester
from .vectors import PolyMatrix, PolyVector, RegularityError


@dataclass(frozen=True)
class Completion:
    """Unimodular matrix whose first column is the completed vector."""

    matrix: PolyMatrix
    bezout_degree: int


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of checking a claimed completion against its vector."""

    first_column_matches: bool
    determinant_one: bool
    degree: int
    minimal_degree: int | None
    minimal: bool

    @property
    def is_completion(self) -> bool:
        return self.first_column_matches and self.determinant_one


def _assemble(v: PolyVector, b: PolyVector) -> PolyMatrix:
    """``[v | syz]`` for the µ-basis syz of ``b``, of determinant one.

    The determinant is ``v . b`` once the last syzygy is divided by the
    scale (module docstring), so a ``b`` that is no Bezout vector of ``v``
    is caught here.  Only the last column is scaled, so the output is
    deterministic and the column degrees are untouched.
    """
    if v.dot(b) != Polynomial.one():
        raise RegularityError("assembled matrix is not unimodular")
    return PolyMatrix.from_columns([v, *mu_basis(b).normalized()])


def minimal_completion(v: PolyVector) -> Completion:
    """Complete ``v`` to a determinant-one matrix of least degree."""
    if v.dim < 2:
        raise RegularityError("completion needs dimension at least 2")
    bez = minimal_bezout(v)
    return Completion(_assemble(v, bez.vector), bez.degree)


def verify_completion(m: PolyMatrix, v: PolyVector) -> CompletionReport:
    """Check first-column equality, determinant one, and degree minimality."""
    if m.nrows != m.ncols:
        raise ValueError("completion matrix must be square")
    if m.nrows != v.dim:
        raise ValueError("matrix and vector dimensions differ")
    degree = m.degree
    if degree == NEG_INF:
        raise RegularityError("completion matrix has a zero column")
    first = m.column(0) == v
    det_one = m.determinant() == Polynomial.one()
    minimal_degree = None
    minimal = False
    if det_one:
        # The oracle rejects a zero or non-coprime v before its degree is read.
        minimal_degree = bezout_degree_search(v) + int(v.degree)
        minimal = degree == minimal_degree
    return CompletionReport(
        first_column_matches=first,
        determinant_one=det_one,
        degree=int(degree),
        minimal_degree=minimal_degree,
        minimal=minimal,
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
    inflated = bez.vector + bump
    return Completion(_assemble(v, inflated), int(inflated.degree))
