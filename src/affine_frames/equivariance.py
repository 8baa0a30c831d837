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

from fractions import Fraction
from typing import Callable

from . import ratlin
from .completion import Completion, minimal_completion
from .groups import GroupElement
from .vectors import PivotProfile, pivot_profile  # re-exported with the sections
from .vectors import PolyVector, RegularityError, RegularVector, require_regular


def linear_section(v: PolyVector) -> ratlin.Matrix:
    """Determinant-one matrix from the selected coefficient columns.

    The selected submatrix keeps its columns in ascending order and the last
    one is divided by the determinant.  Requires a regular vector.
    """
    v = require_regular(v)
    *first, last = v.profile.indices
    return ratlin.freeze(
        [row[c] for c in first] + [row[last] / v.profile.det_vbar]
        for row in v.coefficient_matrix()
    )


def shift_section(v: PolyVector) -> Fraction:
    """Parameter shift equalizing two coefficients around the gap column.

    Requires a regular vector; the relevant denominator is structurally
    nonzero once the vector is reduced by the linear section.
    """
    v = require_regular(v)
    k = v.profile.k
    d = int(v.degree)
    n = v.dim
    reduced = v.linear_map(ratlin.inverse(linear_section(v)))
    component = reduced[n - (d - k - 1) - 1]
    denom = (k + 1) * component.coeff(k + 1)
    if denom == 0:
        raise RegularityError("degenerate shift denominator")
    return component.coeff(k) / denom


def section(v: PolyVector) -> GroupElement:
    """Equivariant section: shift first, then the linear part of the result.

    The recentered vector keeps the pivot profile of ``v``.
    """
    v = require_regular(v)
    s = shift_section(v)
    recentered = RegularVector(v.shift(-s), v.profile)
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
    for j, col in enumerate(profile.indices):
        unit = profile.det_vbar if j == n - 1 else 1
        for i in range(n):
            value = coeffs[i][col]
            if value != (unit if i == j else 0):
                problems.append(f"selected column {col} row {i}: {value}")
    for i in range(n):
        for col in range(profile.indices[i] + 1, d + 1):
            if col not in profile.indices and coeffs[i][col] != 0:
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
    return Completion(g.apply(base.matrix), base.bezout_degree), g, reduced


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
