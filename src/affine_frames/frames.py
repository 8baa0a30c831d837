"""Moving frames along polynomial curves.

A curve qualifies when its tangent vector never vanishes (over the
algebraic closure), its image spans the ambient space affinely, and its
degree exceeds the dimension.  That is, when its tangent is a regular
vector, which :func:`validate_curve` returns.  The frame attaches the
equivariant minimal completion of the tangent, yielding a determinant-one
matrix of polynomials whose first column is the tangent and which transforms
covariantly under special-affine maps and parameter shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivariance import equivariant_completion_with_section
from .groups import GroupElement
from .poly import Polynomial
from .vectors import PolyMatrix, PolyVector, RegularityError, RegularVector, pivot_profile


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
        if tangent.gcd() != Polynomial.one():
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
