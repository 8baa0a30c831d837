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

That pass runs on integers from the cleared vector to the output.  The
coefficient rows of v go over the lcm ``L_v`` of their denominators once.
The shift s = a/b is one integer minor of the rows.  The rows are
Taylor-shifted by -s on integers (:func:`poly.taylor_shift`), which puts
column j of ``v(t - s)`` over ``b**(d - j) * L_v``; g's matrix is read off
the selected shifted columns, and the canonical vector
``w = L^-1 . v(t - s)`` off one :class:`ratlin.Echelon` of them, with one
Fraction per coefficient.  ``linear_section`` and ``shift_section`` read
the same formulas off the unshifted rows.  The equivariant completion acts
by g (one integer pass, :mod:`groups`) on the later columns only: the first
column of a completion of w is w, and ``g . w`` is v.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import ratlin
from .completion import Completion, minimal_completion
from .groups import GroupElement
from .poly import from_integers, integer_coefficients, taylor_shift
from .vectors import PivotProfile, pivot_profile  # re-exported with the sections
from .vectors import PolyMatrix, PolyVector, RegularVector, require_regular


def _cleared(v: RegularVector) -> tuple[list[list[int]], int]:
    """The coefficient rows of ``v`` over the lcm ``L_v`` of their
    denominators, each padded to d + 1 entries, d the degree, and ``L_v``."""
    rows, scale = integer_coefficients(v.components)
    width = int(v.degree) + 1
    return [row + [0] * (width - len(row)) for row in rows], scale


def _shift(profile: PivotProfile, rows: list[list[int]], scale: int) -> Fraction:
    """The shift section off the cleared rows (:func:`shift_section`)."""
    k, n = profile.k, len(rows)
    columns = [k if c == k + 1 else c for c in profile.indices]
    minor = ratlin.Echelon([[row[c] for c in columns] for row in rows]).determinant
    return Fraction(minor, scale**n) / ((k + 1) * profile.det_vbar)


def _linear(
    profile: PivotProfile, rows: list[list[int]], scale: int, b: int
) -> ratlin.Matrix:
    """The linear section off rows whose column j is over ``scale *
    b**(d - j)`` (:func:`linear_section`): entry (i, m) of ``L`` is
    ``rows[i][c_m] / f_m``, with ``f_m = scale * b**(d - c_m)`` below the
    last selected column, the degree, and ``f = scale * det_vbar`` there."""
    (*first, last), det = profile.indices, profile.det_vbar
    return tuple(
        (*(Fraction(row[c], scale * b ** (last - c)) for c in first),
         Fraction(row[last] * det.denominator, scale * det.numerator))
        for row in rows
    )


def linear_section(v: PolyVector) -> ratlin.Matrix:
    """Determinant-one matrix from the selected coefficient columns.

    The selected submatrix keeps its columns in ascending order and the last
    one, the degree column, is divided by the determinant.  Requires a
    regular vector.
    """
    v = require_regular(v)
    return _linear(v.profile, *_cleared(v), 1)


def shift_section(v: PolyVector) -> Fraction:
    """Parameter shift equalizing two coefficients around the gap column k.

    In ``linear_section(v)^-1 . v`` the row selecting column k + 1 holds 1
    there (``det_vbar`` in the last row), so by Cramer's rule the shift is
    one determinant over ``(k + 1) * det_vbar``, which never vanishes: the
    selected columns are independent, and degree >= n gives k >= 0.  The
    determinant is that of the cleared rows, over ``L_v**n``.
    """
    v = require_regular(v)
    return _shift(v.profile, *_cleared(v))


def _section_pass(
    v: PolyVector,
) -> tuple[GroupElement, RegularVector, list[list[int]], int]:
    """``(g, v, rows, b)``: the section g = (L, s) of ``v``, s = a/b, and
    ``v(t - s)`` as the integer rows that ``L`` is read off.

    g is built without eliminating its determinant again, which is 1 by
    construction.  Let V be the coefficient matrix of v, S its selected
    columns and T the Taylor shift by -s, which adds to each coefficient
    column multiples of the columns to its right.  Each column not in S
    lies in the span of the columns of S to its right, since S is read
    right to left.  So each shifted column ``(V T)[:, c]``, c in S, is
    ``V[:, c]`` plus a combination of the columns of S right of c, that is
    ``(V T)[:, S] = V[:, S] M`` with M unit triangular, and ``det (V T)[:,
    S] = det V[:, S] = det_vbar``.  L is ``(V T)[:, S]`` with its last
    column divided by ``det_vbar``, so ``det L = det_vbar / det_vbar = 1``.
    """
    v = require_regular(v)
    rows, scale = _cleared(v)
    s = _shift(v.profile, rows, scale)
    shifted = [taylor_shift(row, -s, len(row) - 1) for row in rows]
    b = s.denominator
    return GroupElement._trusted(_linear(v.profile, shifted, scale, b), s), v, shifted, b


def section(v: PolyVector) -> GroupElement:
    """Equivariant section: shift first, then the linear part of the result."""
    return _section_pass(v)[0]


def section_and_canonical(v: PolyVector) -> tuple[GroupElement, RegularVector]:
    """Section g of ``v`` and the canonical vector ``g^-1 . v``, from one pass.

    With C the selected columns of the shifted rows, ``L = C diag(f)^-1``
    (:func:`_linear`), so row m of ``w = L^-1 . v(t - s)`` at column j is
    ``f_m (C^-1 E_j)_m / (scale * b**(d - j))``, E_j the shifted column j.
    One :class:`ratlin.Echelon` of C gives ``D C^-1 E_j``, D its last pivot:
    ``D e_m`` at the selected column c_m, and a :meth:`~ratlin.Echelon.solve`
    elsewhere.  Each coefficient of w becomes one Fraction.
    """
    g, v, rows, b = _section_pass(v)
    indices, det = v.profile.indices, v.profile.det_vbar
    echelon = ratlin.Echelon([[row[c] for c in indices] for row in rows])
    units = dict(zip(indices, echelon.integer_columns(range(len(indices)))))
    solved = [
        units[j] if j in units else echelon.solve(column)
        for j, column in enumerate(zip(*rows))
    ]
    (*first, last), pivot = indices, echelon.last_pivot
    factors = [(b ** (last - c), pivot) for c in first]
    factors.append((det.numerator, pivot * det.denominator))
    canonical = (
        from_integers([x[m] * num for x in solved], den, b)
        for m, (num, den) in enumerate(factors)
    )
    return g, RegularVector(canonical, v.profile)


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
    A :class:`Completion` has the completed vector w as its first column,
    and ``g . w`` is v exactly, so only the later columns are acted on; a
    map that breaks that contract has its whole matrix acted on.
    """
    g, reduced = section_and_canonical(v)
    base = (completion_map or minimal_completion)(reduced)
    first, *later = zip(*base.matrix.rows)
    if first == reduced.components:
        acted = g.apply(PolyMatrix(zip(*later))).rows
        matrix = PolyMatrix((x, *row) for x, row in zip(v, acted))
    else:
        matrix = g.apply(base.matrix)
    return Completion(matrix, base.bezout_degree), g, reduced


def equivariantize(
    completion_map: Callable[[PolyVector], Completion],
) -> Callable[[PolyVector], Completion]:
    """Turn any completion map into an equivariant one by conjugation."""
    return lambda v: equivariant_completion_with_section(v, completion_map)[0]


# Minimal completion conjugated by the section, hence equivariant.
equivariant_completion = equivariantize(minimal_completion)
