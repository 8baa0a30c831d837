"""Completion of a polynomial vector to a unimodular polynomial matrix.

``minimal_completion`` realizes the minimal-degree construction: take a
minimal Bezout vector b of v, then a syzygy basis of b; the square matrix
with columns v and the syzygy elements has constant determinant, and
dividing the last column by it gives determinant one at degree
``deg v + deg b``, which is the least possible.

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


def _assemble(first: PolyVector, rest: tuple[PolyVector, ...]) -> PolyMatrix:
    """Join columns and normalize the determinant by scaling the last one.

    Only the last column is touched so the output is deterministic and the
    column degrees are untouched.
    """
    m = PolyMatrix.from_columns([first, *rest])
    detval = m.determinant()
    if detval.is_zero or not detval.is_constant:
        raise RegularityError("assembled matrix is not unimodular")
    return m.scale_column(m.ncols - 1, 1 / detval.coeff(0))


def minimal_completion(v: PolyVector) -> Completion:
    """Complete ``v`` to a determinant-one matrix of least degree."""
    if v.dim < 2:
        raise RegularityError("completion needs dimension at least 2")
    bez = minimal_bezout(v)
    syz = mu_basis(bez.vector)
    return Completion(_assemble(v, syz.elements), bez.degree)


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
    syz = mu_basis(v, system)
    cols = list(syz.elements)
    cols[-1] = cols[-1].scale(1 / syz.scale)
    return PolyMatrix.from_columns([bez.vector, *cols])


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
    inflated_syz = mu_basis(inflated)
    return Completion(_assemble(v, inflated_syz.elements), int(inflated.degree))
