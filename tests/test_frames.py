"""Curve validation and the moving frame pipeline."""

import random
from fractions import Fraction

import pytest

from affine_frames import (
    CurveRejection,
    PolyMatrix,
    RegularVector,
    bezout_degree_search,
    moving_frame,
    pivot_profile,
    ratlin,
    validate_curve,
)

from conftest import (
    p,
    quartic_tangent,
    quintic_curve,
    random_affine,
    random_generic_curve,
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
        )


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
