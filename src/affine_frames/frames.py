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

from dataclasses import dataclass, replace

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


def verify_frame(frame: FrameResult, tangent: PolyVector) -> CompletionReport:
    """The :class:`completion.CompletionReport` of the frame's matrix m
    against the tangent; its ``reproducible`` says that the whole frame is
    what :func:`moving_frame` builds.

    g is inverted once and acts once, on m, and the certificate is read off
    ``M = g^-1 . m``, which has m's determinant and column degrees.  It
    holds only with the tangent first in m, so ``g . w`` is the tangent
    exactly when ``M[:, 0]`` is the stored w; with w of canonical shape
    (checked on the tangent's profile, which the action keeps) g is then
    the tangent's section.  The stored Bezout degree must be the least.
    The degree oracle runs on ``u = L^-1 . tangent`` for ``g = (L, s)``:
    ``M[:, 0](t) = u(t - s)``, so its Sylvester matrix is ``S A_u U`` with S
    invertible and U unit upper triangular, of equal prefix ranks.  Its
    one pass runs first, bounded as :func:`completion.verify_completion`
    bounds it when m's first column is the tangent, and the degree sum B of
    M's later columns is m's.  At s = 0, ``M[:, 0]`` is u itself, so the
    certificate reads b off that pass as a completion's does; any other
    shift interpolates b, unless the pass finds no Bezout degree within B.
    With a g of another size m is checked as it stands and is not
    reproducible.
    """
    tangent = require_regular(tangent)
    n = tangent.dim
    m, g, w = frame.matrix, frame.section, frame.canonical_tangent
    # m of another shape is refused by verify_completion before any action.
    if (g.dim, m.nrows, m.ncols) != (n, n, n):
        return replace(verify_completion(m, tangent), reproducible=False)
    inverse = g.inverse()
    columns = inverse.apply(m).columns()
    report = _certificate(m, tangent, columns, tangent.linear_map(inverse.matrix))
    reproducible = report.reproducible and (
        columns[0] == w
        and not canonical_shape_violations(RegularVector(w, tangent.profile))
        and frame.bezout_degree == report.minimal_degree - int(tangent.degree)
    )
    return replace(report, reproducible=reproducible)
