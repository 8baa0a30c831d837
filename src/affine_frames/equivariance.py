"""Group sections and the equivariant completion pipeline.

The sections pick a distinguished group element for each regular vector:

* ``linear_section`` reads a determinant-one matrix off the rightmost
  linearly independent columns of the coefficient matrix;
* ``shift_section`` reads a parameter shift off the first coefficient column
  excluded from that choice;
* ``section`` combines the two so that moving the vector by a group element
  moves the section by the same element.

Conjugating the minimal completion by the section makes it equivariant
without raising the degree.  ``canonical_form`` reduces a vector to the
distinguished representative of its orbit, whose coefficient matrix has a
rigid staircase shape checked by ``canonical_shape_violations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import ratlin
from .completion import Completion, minimal_completion
from .groups import GroupElement
from .vectors import PolyMatrix, PolyVector, RegularityError, require_regular


@dataclass(frozen=True)
class PivotProfile:
    """Rightmost independent column choice of a coefficient matrix.

    ``indices`` are 0-based ascending column indices of the coefficient
    matrix; the last is always the degree.  ``k`` is the rightmost column
    index not selected (-1 when every column is).  ``det_vbar`` is the
    determinant of the selected square submatrix.
    """

    indices: tuple[int, ...]
    k: int
    det_vbar: Fraction


def pivot_profile(v: PolyVector) -> PivotProfile:
    """Select the columns independent of all columns to their right.

    These are the pivot columns of the coefficient matrix read right to left.
    """
    if v.is_zero:
        raise RegularityError("vector is zero")
    coeffs = v.coefficient_matrix()
    d = int(v.degree)
    pivots = ratlin.Echelon([row[::-1] for row in coeffs]).pivots
    if len(pivots) < v.dim:
        raise RegularityError("components are linearly dependent")
    indices = tuple(sorted(d - p for p in pivots))
    excluded = [c for c in range(d + 1) if c not in set(indices)]
    k = max(excluded) if excluded else -1
    submatrix = tuple(tuple(row[c] for c in indices) for row in coeffs)
    return PivotProfile(indices, k, ratlin.det(submatrix))


def linear_section(v: PolyVector) -> ratlin.Matrix:
    """Determinant-one matrix from the selected coefficient columns.

    The selected submatrix keeps its columns in ascending order and the last
    one is divided by the determinant.
    """
    return _linear_section(v, pivot_profile(v))


def _linear_section(v: PolyVector, profile: PivotProfile) -> ratlin.Matrix:
    coeffs = v.coefficient_matrix()
    cols = list(profile.indices)
    matrix = [[row[c] for c in cols] for row in coeffs]
    return ratlin.freeze(
        [row[:-1] + [row[-1] / profile.det_vbar] for row in matrix]
    )


def shift_section(v: PolyVector) -> Fraction:
    """Parameter shift equalizing two coefficients around the gap column.

    Requires a regular vector; the relevant denominator is structurally
    nonzero once the vector is reduced by the linear section.
    """
    require_regular(v)
    profile = pivot_profile(v)
    k = profile.k
    d = int(v.degree)
    n = v.dim
    reduced = v.linear_map(ratlin.inverse(_linear_section(v, profile)))
    component = reduced[n - (d - k - 1) - 1]
    denom = (k + 1) * component.coeff(k + 1)
    if denom == 0:
        raise RegularityError("degenerate shift denominator")
    return component.coeff(k) / denom


def section(v: PolyVector) -> GroupElement:
    """Equivariant section: shift first, then the linear part of the result."""
    s = shift_section(v)
    recentered = v.shift(-s)
    return GroupElement(linear_section(recentered), s)


def canonical_form(v: PolyVector) -> PolyVector:
    """Distinguished orbit representative ``section(v)^-1 . v``."""
    return section(v).inverse().apply(v)


def canonical_shape_violations(w: PolyVector) -> list[str]:
    """Structural constraints satisfied exactly by canonical vectors.

    Selected column j must be the j-th standard basis vector, except the
    last, which is ``det_vbar`` times the final one; entries right of a
    row's selected column vanish; and the gap column has a zero in the row
    used by the shift section.
    """
    profile = pivot_profile(w)
    coeffs = w.coefficient_matrix()
    n = w.dim
    d = int(w.degree)
    k = profile.k
    problems: list[str] = []
    if profile.indices[-1] != d:
        problems.append("last selected column is not the degree column")
    for j, col in enumerate(profile.indices):
        expected_row = j
        for i in range(n):
            value = coeffs[i][col]
            if j == n - 1:
                want = profile.det_vbar if i == expected_row else 0
            else:
                want = 1 if i == expected_row else 0
            if value != want:
                problems.append(f"selected column {col} row {i}: {value}")
    for i in range(n):
        bound = profile.indices[i]
        for col in range(bound + 1, d + 1):
            if col in profile.indices:
                continue
            if coeffs[i][col] != 0:
                problems.append(f"entry ({i},{col}) right of pivot is nonzero")
    if k >= 0:
        row = n - (d - k - 1) - 1
        if coeffs[row][k] != 0:
            problems.append(f"gap column {k} row {row} is nonzero")
    return problems


def equivariant_completion_with_section(
    v: PolyVector,
) -> tuple[Completion, GroupElement, PolyVector]:
    """Equivariant minimal completion plus the section and reduced vector."""
    g = section(v)
    reduced = g.inverse().apply(v)
    base = minimal_completion(reduced)
    return (
        Completion(g.apply(base.matrix), base.bezout_degree),
        g,
        reduced,
    )


def equivariant_completion(v: PolyVector) -> Completion:
    """Minimal completion conjugated by the section, hence equivariant."""
    return equivariant_completion_with_section(v)[0]


def equivariantize(
    completion_map: Callable[[PolyVector], Completion],
) -> Callable[[PolyVector], Completion]:
    """Turn any completion map into an equivariant one by conjugation."""

    def wrapped(v: PolyVector) -> Completion:
        g = section(v)
        base = completion_map(g.inverse().apply(v))
        return Completion(g.apply(base.matrix), base.bezout_degree)

    return wrapped
