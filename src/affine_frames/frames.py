"""Moving frames along polynomial curves.

A curve qualifies when its tangent vector never vanishes (over the
algebraic closure), its image spans the ambient space affinely, and its
degree exceeds the dimension.  That is, when its tangent is a regular
vector, which :func:`validate_curve` returns.  The frame attaches the
equivariant minimal completion of the tangent, yielding a determinant-one
matrix of polynomials whose first column is the tangent and which transforms
covariantly under special-affine maps and parameter shifts.
:func:`verify_frame` checks a stored frame with one inversion of its
section and one action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import CompletionReport, _certificate, verify_completion
from .equivariance import canonical_shape_violations, equivariant_completion_with_section
from .groups import GroupElement
from .vectors import (
    PolyMatrix, PolyVector, RegularityError, RegularVector, pivot_profile, require_regular,
)


@dataclass(frozen=True)
class CurveRejection:
    """Names every failed admissibility condition."""

    failures: tuple[str, ...]


@dataclass(frozen=True)
class FrameResult:
    """Frame matrix with the section data that produced it."""

    matrix: PolyMatrix
    section: GroupElement
    canonical_tangent: PolyVector
    bezout_degree: int


def validate_curve(c: PolyVector) -> RegularVector | CurveRejection:
    """The curve's tangent, checked once; collects all failures, raises none."""
    failures = []
    tangent = c.derivative()
    profile = None
    if tangent.is_zero:
        failures.append("tangent vector is identically zero")
        failures.append("curve lies in a proper affine subspace")
    else:
        if not tangent.is_coprime():
            failures.append("tangent vanishes at a parameter value")
        try:
            profile = pivot_profile(tangent)
        except RegularityError:
            failures.append("curve lies in a proper affine subspace")
    if c.degree <= c.dim:
        failures.append("degree does not exceed the dimension")
    if failures:
        return CurveRejection(tuple(failures))
    return RegularVector(tangent, profile)


def moving_frame(tangent: RegularVector) -> FrameResult:
    """Equivariant minimal-degree frame along a curve, from its checked tangent.

    ``tangent`` is what :func:`validate_curve` returns.  The first column of
    the frame is the tangent; the whole matrix has determinant one and
    minimal degree among completions of the tangent.
    """
    completion, g, reduced = equivariant_completion_with_section(tangent)
    return FrameResult(
        matrix=completion.matrix,
        section=g,
        canonical_tangent=reduced,
        bezout_degree=completion.bezout_degree,
    )


def verify_frame(
    m: PolyMatrix, tangent: PolyVector, g: GroupElement, w: PolyVector
) -> tuple[bool, CompletionReport]:
    """Whether ``g`` is the section of ``tangent`` with canonical vector
    ``w``, and m's :class:`completion.CompletionReport` against the tangent,
    whose ``reproducible`` says that m is g applied to the minimal
    completion of ``g^-1 . tangent``.  m is what :func:`moving_frame` builds
    exactly when both hold and the Bezout degree matches the report's.

    g is the section when it maps w to the tangent and w has the canonical
    shape: then section(w) = 1, and by equivariance section(tangent) = g.
    A g of another size is none, and :func:`completion.verify_completion`
    checks m as it stands.  Else g is inverted once and acts once, on m,
    and the certificate is read off ``M = g^-1 . m``, which has m's
    determinant and column degrees.  When m's first column is the tangent,
    ``g . w`` is the tangent exactly when ``M[:, 0]`` is w, as the action is
    exact and invertible; otherwise w is mapped forward.  The action keeps
    the pivot profile, so w's shape is checked on the tangent's.  The
    degree oracle runs on ``u = L^-1 . tangent`` for ``g = (L, s)``: with
    the tangent first in m, ``M[:, 0](t) = u(t - s)``, so its Sylvester
    matrix is ``S A_u U`` with S invertible and U unit upper triangular, and
    their column prefixes have equal ranks.
    """
    tangent = require_regular(tangent)
    n = tangent.dim
    # m of another shape is refused by verify_completion before any action.
    if (g.dim, m.nrows, m.ncols) != (n, n, n):
        return False, verify_completion(m, tangent)
    inverse = g.inverse()
    columns = inverse.apply(m).columns()
    report = _certificate(m, tangent, columns, tangent.linear_map(inverse.matrix))
    maps = w.dim == n and (
        columns[0] == w if report.first_column_matches else g.apply(w) == tangent
    )
    is_section = maps and not canonical_shape_violations(RegularVector(w, tangent.profile))
    return is_section, report
