"""Moving frames along polynomial curves.

A curve qualifies when its tangent vector never vanishes (over the
algebraic closure), its image spans the ambient space affinely, and its
degree exceeds the dimension: when its tangent is a regular vector, which
:func:`validate_curve` returns.  The frame is the minimal completion of the
canonical tangent w conjugated by the section g = (L, s), a determinant-one
matrix of least degree whose first column is the tangent and which
transforms covariantly under special-affine maps and parameter shifts.  As
``w(t) = u(t - s)`` for ``u = L^-1 . v``, and the minimal completion
commutes with parameter shifts, it is ``L . minimal_completion(u)``.

For h of degree at most E, ``w . h = [u . h(t + s)](t - s)``, so ``A_w = S
A_u U``: S, the shift of a product by -s, is invertible with ``S e1 = e1``,
and U maps h's stacked coefficients to those of ``h(t + s)``.  U is unit
upper triangular in A's column order, so A_w and A_u have the same pivot
columns P.  In each class mod n the non-pivot columns are closed upward
(``nonpivot_indices_periodic``), so the pivots are closed downward; U moves
each component's coefficients only to lower degrees and keeps the top one,
so it keeps support on P.  ``A_u U b_w = S^-1 e1 = e1`` then makes ``b_w(t
+ s) = U b_w`` the pivot-supported Bezout vector b_u of u, which is unique
(Hong, Hough and Kogan 2017), of the same degree.  The same argument on
``A_{b_w} = S A_{b_u} U`` takes each µ-basis element of b_w, supported on P
and one basic non-pivot column, to b_u's, and the scale r with them.  A
shared factor is refused at the same prefix rank, with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import ratlin
from .completion import CompletionReport, minimal_completion, verify_completion
from .equivariance import _canonical_pass, canonical_shape_violations
from .groups import GroupElement
from .poly import from_integers, taylor_shift
from .vectors import (
    PolyMatrix, PolyVector, RegularityError, RegularVector, map_columns, pivot_profile,
    require_regular,
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
    """Equivariant minimal-degree frame along a curve, from its checked tangent
    (what :func:`validate_curve` returns): ``L . minimal_completion(u)``.

    Row m of w holds ``nums[k] / (den * b**(d - k))`` at column k, for s =
    a/b; row m of ``u = w(t + s)`` is nums Taylor-shifted by the integer a,
    over the same denominators (:func:`poly.taylor_shift`).
    """
    g, w, rows, b = _canonical_pass(tangent)
    a, d = Fraction(g.shift.numerator), int(w.degree)
    u = PolyVector(from_integers(taylor_shift(nums, a, d), den, b) for nums, den in rows)
    completion = minimal_completion(u)
    later = map_columns(g.matrix, completion.matrix.columns()[1:])
    matrix = PolyMatrix.from_columns([tangent, *map(PolyVector, later)])
    return FrameResult(matrix, g, w, completion.bezout_degree)


def verify_frame(frame: FrameResult, tangent: PolyVector) -> CompletionReport:
    """The :class:`completion.CompletionReport` of the frame's matrix m
    against the tangent; its ``reproducible`` says that the whole frame is
    what :func:`moving_frame` builds.

    The tangent and m are mapped by ``L^-1``, for the stored g = (L, s), in
    one pass; that keeps m's determinant, column degrees and first-column
    match, and the least Bezout degree, so the report is
    :func:`completion.verify_completion` of ``L^-1 . m`` against ``u = L^-1
    . tangent``.  g is the tangent's section when the stored w has ``w(t +
    s) = u`` and the canonical shape (on the tangent's profile, which the
    action keeps).  With a g of another size m is checked as it stands, and
    is not reproducible.
    """
    tangent = require_regular(tangent)
    m, g, w = frame.matrix, frame.section, frame.canonical_tangent
    # m of another shape is refused by verify_completion before any action.
    if (g.dim, m.nrows, m.ncols) != (tangent.dim,) * 3:
        return replace(verify_completion(m, tangent), reproducible=False)
    u, *columns = map(PolyVector, map_columns(ratlin.inverse(g.matrix), [tangent, *m.columns()]))
    report = verify_completion(PolyMatrix.from_columns(columns), u)
    reproducible = report.reproducible and (
        w.shift(g.shift) == u
        and not canonical_shape_violations(RegularVector(w, tangent.profile))
        and frame.bezout_degree == report.minimal_degree - int(tangent.degree)
    )
    return replace(report, reproducible=reproducible)
