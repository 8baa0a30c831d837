"""Shared constructors and seeded random generators."""

from __future__ import annotations

import random
from fractions import Fraction

from affine_frames import (
    AffineElement,
    CurveRejection,
    GroupElement,
    Polynomial,
    PolyVector,
    RegularityError,
    require_regular,
    validate_curve,
)


def p(*coeffs) -> Polynomial:
    return Polynomial(Fraction(c) for c in coeffs)


def vec(*rows) -> PolyVector:
    return PolyVector(p(*row) for row in rows)


def quintic_curve() -> PolyVector:
    return vec(
        (0, 1, 0, Fraction(2, 3), Fraction(1, 4), Fraction(1, 5)),
        (0, 2, 0, 1, Fraction(1, 4), Fraction(2, 5)),
        (0, 3, Fraction(5, 2), Fraction(4, 3), Fraction(1, 4), Fraction(3, 5)),
    )


def quartic_tangent() -> PolyVector:
    return vec((1, 0, 2, 1, 1), (2, 0, 3, 1, 2), (3, 5, 4, 1, 3))


def random_regular_vector(
    rng: random.Random, n: int | None = None, max_degree: int = 8
) -> PolyVector:
    """Small-coefficient regular vector; retries until all conditions hold."""
    while True:
        dim = n if n is not None else rng.choice((2, 3, 4))
        degree = rng.randint(dim, max_degree)
        rows = []
        for _ in range(dim):
            rows.append([rng.randint(-9, 9) for _ in range(degree + 1)])
        rows[rng.randrange(dim)][degree] = rng.choice((1, 2, 3, -1, -2))
        candidate = vec(*rows)
        try:
            require_regular(candidate)
        except RegularityError:
            continue
        if candidate.degree == degree:
            return candidate


def random_unimodular(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Product of elementary shears, so the determinant is exactly 1."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        lam = Fraction(rng.randint(-3, 3))
        for col in range(n):
            rows[i][col] += lam * rows[j][col]
    return rows


def random_group(rng: random.Random, n: int) -> GroupElement:
    shift = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return GroupElement(random_unimodular(rng, n), shift)


def random_affine(rng: random.Random, n: int) -> AffineElement:
    shift = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    offset = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    return AffineElement(random_unimodular(rng, n), offset, shift)


def random_generic_curve(
    rng: random.Random, n: int = 3, max_degree: int = 7
) -> PolyVector:
    """Curve whose tangent is a random regular vector, so it is generic."""
    while True:
        tangent = random_regular_vector(rng, n, max_degree - 1)
        comps = []
        for component in tangent:
            coeffs = [Fraction(rng.randint(-4, 4))]
            coeffs.extend(
                c / (i + 1) for i, c in enumerate(component.coeffs)
            )
            comps.append(Polynomial(coeffs))
        curve = PolyVector(comps)
        if not isinstance(validate_curve(curve), CurveRejection):
            return curve
