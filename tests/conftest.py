"""Shared constructors and seeded random generators."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

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


_BIG = 2**200
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

# Integers, small rationals and 200-bit rationals.
coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(-99, 99, max_denominator=12),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


def polynomials_up_to(size: int):
    """The zero polynomial, arbitrary coefficients, and pairwise coprime
    denominators (coefficient i over the i-th prime), whose lcm is largest;
    at most ``size`` coefficients."""
    return st.one_of(
        st.just(Polynomial()),
        st.lists(coefficients, max_size=size).map(Polynomial),
        st.lists(st.integers(-9, 9), max_size=size).map(
            lambda nums: Polynomial(Fraction(a, q) for a, q in zip(nums, _PRIMES))
        ),
    )


polynomials = polynomials_up_to(9)


def p(*coeffs) -> Polynomial:
    return Polynomial(Fraction(c) for c in coeffs)


def vec(*rows) -> PolyVector:
    return PolyVector(p(*row) for row in rows)


def flat(values, n: int, bound: int) -> PolyVector:
    """Inverse of ``sharp``: rebuild a vector from stacked coefficients."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if len(values) != n * (bound + 1):
        raise ValueError("stacked length does not match n*(bound+1)")
    return PolyVector(Polynomial(values[i::n]) for i in range(n))


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


def random_rational_curve(rng: random.Random, n: int) -> PolyVector:
    """Generic curve of degree n + 1 to n + 3 whose coefficients are p/q
    with |p| and q below 2**8."""
    while True:
        degree = rng.randint(n + 1, n + 3)
        curve = PolyVector(
            Polynomial(
                Fraction(rng.randint(-255, 255), rng.randint(1, 255))
                for _ in range(degree + 1)
            )
            for _ in range(n)
        )
        if not isinstance(validate_curve(curve), CurveRejection):
            return curve
