"""Group sections and the equivariant completion pipeline.

The sections pick a distinguished group element for each regular vector:

* ``linear_section`` reads a determinant-one matrix off the rightmost
  linearly independent columns of the coefficient matrix;
* ``shift_section`` reads a parameter shift off the first coefficient column
  excluded from that choice, by one determinant;
* ``section`` combines the two so that moving the vector by a group element
  moves the section by the same element.

Conjugating the minimal completion by the section makes it equivariant
without raising the degree.  ``canonical_form`` reduces a vector to the
distinguished representative of its orbit, whose coefficient matrix has a
rigid staircase shape checked by ``canonical_shape_violations``;
``section_and_canonical`` returns the section and that vector from one pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import ratlin
from .completion import Completion, minimal_completion
from .groups import GroupElement
from .vectors import PivotProfile, pivot_profile  # re-exported with the sections
from .vectors import PolyVector, RegularVector, require_regular


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
    """Parameter shift equalizing two coefficients around the gap column k.

    In ``linear_section(v)^-1 . v`` the row selecting column k + 1 holds 1
    there (``det_vbar`` in the last row), so by Cramer's rule the shift is
    one determinant over ``(k + 1) * det_vbar``, which never vanishes: the
    selected columns are independent, and degree >= n gives k >= 0.
    """
    v = require_regular(v)
    k = v.profile.k
    columns = [k if c == k + 1 else c for c in v.profile.indices]
    minor = ratlin.det([[row[c] for c in columns] for row in v.coefficient_matrix()])
    return minor / ((k + 1) * v.profile.det_vbar)


def _section_and_recentered(v: PolyVector) -> tuple[GroupElement, RegularVector]:
    """Section g = (L, s) of ``v`` and ``v(t - s)``, shifting v once."""
    v = require_regular(v)
    s = shift_section(v)
    recentered = RegularVector(v.shift(-s), v.profile)  # the action keeps the profile
    return GroupElement(linear_section(recentered), s), recentered


def section(v: PolyVector) -> GroupElement:
    """Equivariant section: shift first, then the linear part of the result."""
    return _section_and_recentered(v)[0]


def section_and_canonical(v: PolyVector) -> tuple[GroupElement, RegularVector]:
    """Section g of ``v`` and the canonical vector ``g^-1 . v``, shifting v once."""
    g, recentered = _section_and_recentered(v)
    canonical = recentered.linear_map(ratlin.inverse(g.matrix))
    return g, RegularVector(canonical, recentered.profile)


def canonical_form(v: PolyVector) -> PolyVector:
    """Distinguished orbit representative ``section(v)^-1 . v``."""
    return section_and_canonical(v)[1]


def canonical_shape_violations(w: PolyVector) -> list[str]:
    """Structural constraints satisfied exactly by canonical vectors.

    Selected column j must be the j-th standard basis vector, except the
    last, which is ``det_vbar`` times the final one; entries right of a
    row's selected column vanish; and the gap column has a zero in the row
    used by the shift section.  A :class:`RegularVector` brings its own
    profile.
    """
    profile = w.profile if isinstance(w, RegularVector) else pivot_profile(w)
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
    completion_map: Callable[[PolyVector], Completion] | None = None,
) -> tuple[Completion, GroupElement, PolyVector]:
    """``completion_map`` conjugated by the section, plus section and reduced vector.

    The map defaults to :func:`minimal_completion`, looked up at call time.
    """
    g, reduced = section_and_canonical(v)
    base = (completion_map or minimal_completion)(reduced)
    return Completion(g.apply(base.matrix), base.bezout_degree), g, reduced


def equivariantize(
    completion_map: Callable[[PolyVector], Completion],
) -> Callable[[PolyVector], Completion]:
    """Turn any completion map into an equivariant one by conjugation."""
    return lambda v: equivariant_completion_with_section(v, completion_map)[0]


# Minimal completion conjugated by the section, hence equivariant.
equivariant_completion = equivariantize(minimal_completion)
