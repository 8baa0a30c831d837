"""Curve validation and the moving frame pipeline."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affine_frames import (
    CurveRejection,
    PolyMatrix,
    Polynomial,
    PolyVector,
    RegularityError,
    RegularVector,
    bezout_degree_search,
    moving_frame,
    pivot_profile,
    ratlin,
    require_regular,
    validate_curve,
)

from conftest import (
    p,
    quartic_tangent,
    quintic_curve,
    random_affine,
    random_generic_curve,
    random_rational_curve,
    vec,
)


def test_validate_accepts_generic():
    tangent = validate_curve(vec((0, 1), (0, 0, 1), (1, 0, 0, 0, 1)))
    assert isinstance(tangent, RegularVector)
    assert tangent.dim == 3
    assert tangent.degree == 3
    assert tangent.profile == pivot_profile(tangent)
    assert isinstance(validate_curve(quintic_curve()), RegularVector)


def test_validate_rejects_low_degree():
    outcome = validate_curve(vec((0, 1), (0, 0, 1), (0, 0, 0, 1)))
    assert isinstance(outcome, CurveRejection)
    assert outcome.failures == ("degree does not exceed the dimension",)


def test_validate_rejects_affine_subspace():
    outcome = validate_curve(vec((0, 1), (0, 1), (1, 0, 0, 0, 1)))
    assert isinstance(outcome, CurveRejection)
    assert "curve lies in a proper affine subspace" in outcome.failures


def test_validate_rejects_vanishing_tangent():
    outcome = validate_curve(vec((0, 0, 1), (0, 0, 0, 0, 1)))
    assert isinstance(outcome, CurveRejection)
    assert outcome.failures == ("tangent vanishes at a parameter value",)


def test_validate_rejects_constant_curve():
    outcome = validate_curve(vec((1,), (2,), (3,)))
    assert isinstance(outcome, CurveRejection)
    assert "tangent vector is identically zero" in outcome.failures
    assert "degree does not exceed the dimension" in outcome.failures


@st.composite
def curves_at_the_regularity_boundary(draw):
    """n from 2 to 4 and degree at most 6: the antiderivative of a random
    tangent, of one of degree below n (a curve of degree at most n), of one
    with a planted factor t + a, of one whose last component is a
    combination of the others, or a constant curve (zero tangent).  A
    tangent component whose drawn coefficients are all 0 is zero."""
    n = draw(st.integers(2, 4))
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    kinds = ("random", "random", "short", "planted", "dependent", "zero")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return PolyVector(Polynomial((draw(small),)) for _ in range(n))
    size = {"short": n, "planted": 5}.get(kind, 6)
    tangent = [
        Polynomial(draw(st.lists(small, min_size=1, max_size=size))) for _ in range(n)
    ]
    if kind == "planted":
        factor = Polynomial((draw(small), 1))
        tangent = [c * factor for c in tangent]
    elif kind == "dependent":
        weights = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
        tangent[-1] = sum((c * w for c, w in zip(tangent, weights)), Polynomial())
    return PolyVector(
        Polynomial([draw(small), *(a / (i + 1) for i, a in enumerate(c.coeffs))])
        for c in tangent
    )


@settings(max_examples=150, deadline=None)
@given(curves_at_the_regularity_boundary())
def test_validate_curve_is_require_regular_of_the_tangent(c):
    """The curve rule of ``validate_curve`` and the vector rule of
    ``require_regular`` are one rule: a curve passes exactly when its
    tangent is regular and its degree exceeds n, with the same profile."""
    outcome = validate_curve(c)
    try:
        regular = require_regular(c.derivative())
    except RegularityError:
        regular = None
    accepted = regular is not None and c.degree > c.dim
    assert isinstance(outcome, RegularVector) == accepted
    if accepted:
        assert outcome.components == regular.components
        assert outcome.profile == regular.profile
    else:
        assert isinstance(outcome, CurveRejection) and outcome.failures


def test_tangent_golden():
    tangent = validate_curve(vec((0, 1), (0, 0, 1), (1, 0, 0, 0, 1)))
    assert tangent == vec((1,), (0, 2), (0, 0, 0, 4))
    assert validate_curve(quintic_curve()) == quartic_tangent()


def test_tangent_translation_invariant():
    base = quintic_curve()
    moved = base.translate([Fraction(5), Fraction(-1, 2), Fraction(7, 3)])
    assert validate_curve(base) == validate_curve(moved)


def test_moving_frame_quintic_golden():
    frame = moving_frame(validate_curve(quintic_curve()))
    assert frame.matrix == PolyMatrix(
        [
            [p(1, 0, 2, 1, 1), p(0), p(0, Fraction(16, 27))],
            [p(2, 0, 3, 1, 2), p(Fraction(27, 40)),
             p(Fraction(-34, 27), Fraction(-22, 27))],
            [p(3, 5, 4, 1, 3), p(Fraction(243, 80)),
             p(Fraction(-113, 27), Fraction(-65, 9))],
        ]
    )
    assert frame.matrix.degree == 5
    assert frame.bezout_degree == 1
    assert frame.section.shift == Fraction(1, 3)
    assert frame.canonical_tangent == vec(
        (Fraction(-1, 3), 1),
        (Fraction(-1, 27), 0, 0, 1),
        (Fraction(325, 81), 0, Fraction(25, 3), 0, 5),
    )


def test_moving_frame_inverts_shifts_and_maps_nothing(monkeypatch):
    """One frame runs the section, the canonical tangent and the action on
    integers: no matrix inverse, no Fraction Taylor shift, no constant
    linear map, and no determinant: the section's matrix has determinant
    one by construction and is not checked again."""
    rng = random.Random(63)
    tangents = [validate_curve(quintic_curve())]
    tangents += [validate_curve(random_rational_curve(rng, n)) for n in (2, 3, 4)]
    calls = dict.fromkeys(("inverse", "det", "shift", "linear_map"), 0)

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(ratlin, "inverse", counting("inverse", ratlin.inverse))
    monkeypatch.setattr(ratlin, "det", counting("det", ratlin.det))
    monkeypatch.setattr(Polynomial, "shift", counting("shift", Polynomial.shift))
    monkeypatch.setattr(
        PolyMatrix, "linear_map", counting("linear_map", PolyMatrix.linear_map)
    )
    for tangent in tangents:
        frame = moving_frame(tangent)
        assert frame.matrix.column(0) == tangent
    assert calls == {"inverse": 0, "det": 0, "shift": 0, "linear_map": 0}


def test_moving_frame_monomial_curve():
    tangent = validate_curve(vec((0, 1), (0, 0, 1), (1, 0, 0, 0, 1)))
    frame = moving_frame(tangent)
    assert frame.matrix.column(0) == vec((1,), (0, 2), (0, 0, 0, 4))
    assert frame.matrix.determinant() == p(1)
    assert frame.matrix.degree == 3
    assert frame.bezout_degree == 0


def test_moving_frame_contract_random():
    rng = random.Random(61)
    for _ in range(20):
        tangent = validate_curve(random_generic_curve(rng))
        frame = moving_frame(tangent)
        assert frame.matrix.column(0) == tangent
        assert frame.matrix.determinant() == p(1)
        assert frame.matrix.degree == tangent.degree + bezout_degree_search(
            tangent
        )[0]


def test_moving_frame_equivariance():
    rng = random.Random(62)
    for _ in range(15):
        curve = random_generic_curve(rng)
        a = random_affine(rng, 3)
        moved = validate_curve(a.apply(curve))
        assert isinstance(moved, RegularVector)
        left = moving_frame(moved).matrix
        right = a.linear_part.apply(moving_frame(validate_curve(curve)).matrix)
        assert left == right


def test_moving_frame_translation_invariance():
    tangent = validate_curve(quintic_curve())
    moved = validate_curve(
        quintic_curve().translate([Fraction(9), Fraction(-4), Fraction(1, 7)])
    )
    assert moving_frame(moved).matrix == moving_frame(tangent).matrix


def test_genericity_closed_under_action():
    rng = random.Random(63)
    for _ in range(15):
        curve = random_generic_curve(rng)
        a = random_affine(rng, 3)
        assert isinstance(validate_curve(a.apply(curve)), RegularVector)


def test_pointwise_unit_volume():
    frame = moving_frame(validate_curve(quintic_curve()))
    for t0 in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7)):
        assert ratlin.det(frame.matrix.evaluate(t0)) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4, 5)), st.booleans())
def test_frame_is_equivariant_and_minimal_in_dimensions_2_to_5(seed, n, rational):
    rng = random.Random(seed)
    if rational:
        curve = random_rational_curve(rng, n)
    else:
        curve = random_generic_curve(rng, n, max_degree=n + 3)
    a = random_affine(rng, n)
    tangent = validate_curve(curve)
    frame = moving_frame(tangent)
    moved = moving_frame(validate_curve(a.apply(curve)))
    assert moved.matrix == a.linear_part.apply(frame.matrix)
    assert frame.matrix.column(0) == tangent
    assert frame.matrix.degree == tangent.degree + bezout_degree_search(tangent)[0]
    assert frame.matrix.determinant() == p(1)
