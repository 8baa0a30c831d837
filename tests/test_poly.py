"""Exact univariate polynomial arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_frames import NEG_INF, Polynomial, poly_gcd
from affine_frames.poly import (
    divides, from_integers, integer_gcd, rational_lift, taylor_shift,
)
from affine_frames.vectors import PRIME

from conftest import coefficients, p, polynomials, polynomials_up_to


def reference_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid with Fraction long division."""
    while b:
        a, b = b, _remainder(a, b)
    return a.monic()


def _remainder(a: Polynomial, b: Polynomial) -> Polynomial:
    rem = list(a.coeffs)
    lead, size = b.leading, len(b.coeffs)
    while len(rem) >= size:
        factor, shift = rem[-1] / lead, len(rem) - size
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return Polynomial(rem)


def test_trailing_zeros_trimmed():
    assert p(1, 2, 0, 0) == p(1, 2)
    assert p(0, 0, 0) == Polynomial.zero()
    assert p(1, 2, 0).coeffs == (Fraction(1), Fraction(2))


@pytest.mark.parametrize(
    "nums, den",
    [
        ([3, 0, -4], 1),
        ([0, 6, 0, -9, 0, 0], 6),
        ([5, -10, 15, 0], 10),
        ([0, 0], 7),
    ],
)
def test_from_integers_takes_a_signed_denominator(nums, den):
    """``nums`` over -den is ``-nums`` over den: ``Fraction`` normalizes the
    sign, a zero numerator is the shared zero either way, and trailing zeros
    are trimmed."""
    flipped = from_integers(list(nums), -den)
    negated = from_integers([-x for x in nums], den)
    assert flipped == negated == Polynomial(Fraction(-x, den) for x in nums)
    assert flipped.coeffs == negated.coeffs
    assert all(
        (x is y) == (x == 0) for x, y in zip(flipped.coeffs, negated.coeffs)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)), max_size=8),
    st.integers(-30, 30).filter(bool),
    st.integers(1, 5),
)
@example([], 3, 2)
@example([0, 0, 0], -4, 3)
@example([0, 5, 0, 0], 6, 2)
def test_from_integers_matches_fraction_reference(nums, den, b):
    """Coefficient k is ``nums[k] / (den * b**(D - k))``, D counting the
    trailing zeros, which are then trimmed; ``nums`` is left unchanged."""
    given_nums = list(nums)
    out = from_integers(nums, den, b)
    top = len(nums) - 1
    expected = Polynomial(Fraction(x, den * b ** (top - k)) for k, x in enumerate(nums))
    assert out.coeffs == expected.coeffs
    assert all(type(c) is Fraction for c in out.coeffs)
    assert nums == given_nums


def test_degree_and_zero_sentinel():
    assert Polynomial.zero().degree == NEG_INF
    assert Polynomial.zero().is_zero
    assert p(5).degree == 0
    assert p(0, 0, 7).degree == 2
    assert Polynomial.monomial(4).degree == 4
    assert max(NEG_INF, 3) == 3
    assert NEG_INF + 5 == NEG_INF


def test_constructors():
    assert Polynomial.one() == p(1)
    assert Polynomial.constant(Fraction(3, 2)) == p(Fraction(3, 2))
    assert Polynomial.monomial(3, 2) == p(0, 0, 0, 2)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        Polynomial.monomial(-1)
    with pytest.raises(AttributeError):
        Polynomial.one().coeffs = ()


def test_coeff_accessor():
    q = p(1, 0, 3)
    assert q.coeff(0) == 1
    assert q.coeff(1) == 0
    assert q.coeff(2) == 3
    assert q.coeff(9) == 0
    assert Polynomial.zero().coeff(0) == 0


def test_arithmetic():
    a = p(1, 2)
    b = p(3, 0, 1)
    assert a + b == p(4, 2, 1)
    assert b - a == p(2, -2, 1)
    assert -a == p(-1, -2)
    assert a * b == p(3, 6, 1, 2)
    assert a * Fraction(1, 2) == p(Fraction(1, 2), 1)
    assert Fraction(2) * a == p(2, 4)
    assert a / 2 == p(Fraction(1, 2), 1)
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(TypeError):
        a + "1"
    with pytest.raises(TypeError):
        a * "1"
    with pytest.raises(TypeError):
        "1" - a
    with pytest.raises(TypeError):
        a / "1"


def test_cancellation_in_sum():
    a = p(1, 0, 2)
    b = p(3, 0, -2)
    assert (a + b).degree == 0


def test_shift_golden():
    # (t+1)^2 = t^2 + 2t + 1
    assert Polynomial.monomial(2).shift(1) == p(1, 2, 1)
    assert p(0, 0, 0, 1).shift(-1) == p(-1, 3, -3, 1)
    assert p(4, 1).shift(Fraction(1, 3)) == p(Fraction(13, 3), 1)


def test_shift_composes():
    rng = random.Random(202)
    for _ in range(40):
        q = Polynomial(Fraction(rng.randint(-5, 5)) for _ in range(6))
        s1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert q.shift(s1).shift(s2) == q.shift(s1 + s2)
        assert q.shift(s1).shift(-s1) == q


def test_shift_evaluation_identity():
    q = p(2, -1, 0, 5)
    s = Fraction(3, 2)
    for t0 in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        assert q.shift(s).evaluate(t0) == q.evaluate(t0 + s)


# Fraction references for the integer kernels; the constructor trims zeros.
def shift_reference(q: Polynomial, s: Fraction) -> Polynomial:
    """Horner in (t + s): multiply by (t + s), then add the next coefficient."""
    acc: list[Fraction] = []
    for c in reversed(q.coeffs):
        acc = [Fraction(0)] + acc
        for i in range(len(acc) - 1):
            acc[i] += s * acc[i + 1]
        acc[0] += c
    return Polynomial(acc)


def product_reference(a: Polynomial, b: Polynomial) -> Polynomial:
    prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return Polynomial(prod)


@settings(max_examples=100, deadline=None)
@given(polynomials, st.one_of(st.just(0), coefficients))
def test_shift_matches_fraction_horner(q, s):
    shifted = q.shift(s)
    assert shifted.coeffs == shift_reference(q, Fraction(s)).coeffs
    assert all(type(c) is Fraction for c in shifted.coeffs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)), max_size=8),
    st.one_of(st.just(0), coefficients),
    st.integers(0, 4),
)
def test_taylor_shift_to_any_degree_matches_fraction_horner(nums, s, extra):
    """Shifted to a degree above its own, as a vector's components are,
    coefficient k of ``p(t + s)`` is ``e[k] / b**(degree - k)``."""
    s = Fraction(s)
    degree = len(nums) - 1 + extra
    shifted = taylor_shift(nums, s, degree)
    assert len(shifted) == degree + 1
    assert all(type(x) is int for x in shifted)
    expected = shift_reference(Polynomial(nums), s)
    assert from_integers(shifted, 1, s.denominator) == expected
    assert from_integers([3 * x for x in shifted], 3, s.denominator) == expected


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials)
def test_product_matches_fraction_convolution(a, b):
    prod = a * b
    assert prod.coeffs == product_reference(a, b).coeffs
    assert all(type(c) is Fraction for c in prod.coeffs)


def sum_reference(a: Polynomial, b: Polynomial, sign: int = 1) -> Polynomial:
    """``a + sign * b``, coefficient by coefficient."""
    acc = [Fraction(0)] * max(len(a.coeffs), len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        acc[i] += x
    for i, y in enumerate(b.coeffs):
        acc[i] += sign * y
    return Polynomial(acc)


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, coefficients)
def test_sum_and_difference_match_fraction_loops(a, b, c):
    """``+`` and ``-`` run on the product kernel with unit weights, also
    with a number on either side."""
    const = Polynomial.constant(c)
    cases = [
        (a + b, sum_reference(a, b)),
        (a - b, sum_reference(a, b, -1)),
        (b - a, sum_reference(b, a, -1)),
        (a + c, sum_reference(a, const)),
        (c + a, sum_reference(a, const)),
        (a - c, sum_reference(a, const, -1)),
        (c - a, sum_reference(const, a, -1)),
        (a - a, Polynomial.zero()),
    ]
    for got, expected in cases:
        assert got.coeffs == expected.coeffs
        assert all(type(x) is Fraction for x in got.coeffs)


def test_sum_edge_cases():
    zero = Polynomial.zero()
    assert (zero + zero).is_zero and (zero - zero).is_zero
    assert zero - p(1, Fraction(2, 3)) == p(-1, Fraction(-2, 3))
    # unequal lengths whose top coefficients cancel
    assert p(1, 2, 3) + p(Fraction(1, 2), 0, -3) == p(Fraction(3, 2), 2)
    assert p(Fraction(1, 6), Fraction(1, 4)) - p(Fraction(1, 6), Fraction(1, 4)) == zero
    assert 1 - p(1) == zero and p(0, 1) + Fraction(1, 3) == p(Fraction(1, 3), 1)


def test_derivative():
    assert p(1, 2, 3).derivative() == p(2, 6)
    assert p(7).derivative().is_zero
    assert Polynomial.zero().derivative().is_zero
    # d/dt(t^4 + 1) = 4t^3
    assert p(1, 0, 0, 0, 1).derivative() == p(0, 0, 0, 4)


def test_monic_and_leading():
    q = p(2, 0, 4)
    assert q.leading == 4
    assert q.monic() == p(Fraction(1, 2), 0, 1)
    with pytest.raises(ValueError):
        Polynomial.zero().monic()
    with pytest.raises(ValueError, match="no leading coefficient"):
        Polynomial().leading


def test_evaluate():
    q = p(1, -1, 2)
    assert q.evaluate(0) == 1
    assert q.evaluate(2) == 7
    assert q.evaluate(Fraction(1, 2)) == 1


def test_str_forms():
    assert str(Polynomial.zero()) == "0"
    assert str(p(1)) == "1"
    rendered = str(p(1, Fraction(-1, 2), 0, 2))
    assert "t" in rendered
    assert "t^3" in rendered


def test_poly_gcd():
    a = p(-1, 0, 1)  # (t-1)(t+1)
    b = p(1, 2, 1)  # (t+1)^2
    assert poly_gcd(a, b) == p(1, 1)
    assert poly_gcd(a, Polynomial.zero()) == a.monic()
    with pytest.raises(ValueError, match="gcd of zero"):
        poly_gcd(Polynomial.zero(), Polynomial.zero())
    assert poly_gcd(p(3), a) == p(1)
    g = poly_gcd(p(2, 2), p(4, 4))
    assert g == p(1, 1)
    assert g.leading == 1
    # Any number of polynomials, in one run.
    assert poly_gcd(a, Polynomial.zero(), b, p(3, 3)) == p(1, 1)
    assert poly_gcd(p(0, 6, -4)) == p(0, Fraction(-3, 2), 1)
    with pytest.raises(ValueError, match="gcd of zero"):
        poly_gcd()


def test_integer_gcd_examples():
    assert integer_gcd([]) == []
    assert integer_gcd([[], []]) == []
    assert integer_gcd([[0, 6, -4]]) == [0, -3, 2]
    assert integer_gcd([[-2, 0, 2], [2, 4, 2]]) == [1, 1]
    assert integer_gcd([[0, 0, -4], [0, 6]]) == [0, 1]
    assert integer_gcd([[5], [0, 1]]) == [1]
    # t and t + 7 share t modulo 7 only.
    assert integer_gcd([[0, 1], [7, 1]]) == [1]
    assert integer_gcd([[0, 1], [7, 1]], 7) == [0, 1]


def _residues(coeffs, unit: int) -> list[int]:
    """``unit`` times the rational ``coeffs``, each reduced mod ``PRIME``."""
    return [unit * c.numerator * pow(c.denominator, -1, PRIME) % PRIME for c in coeffs]


LIFT_BOUND = math.isqrt(PRIME // 2)
_lifted = st.builds(Fraction, st.integers(-LIFT_BOUND, LIFT_BOUND), st.integers(1, LIFT_BOUND))


@settings(max_examples=100, deadline=None)
@given(st.lists(_lifted, min_size=1, max_size=5), st.integers(1, PRIME - 1))
def test_rational_lift_round_trip(low, unit):
    """A monic polynomial with coefficients inside the bound, times any unit
    mod ``PRIME``, lifts to its primitive integer form."""
    monic = [Fraction(c) for c in low] + [Fraction(1)]
    scale = math.lcm(*(c.denominator for c in monic))
    cleared = [int(c * scale) for c in monic]
    content = math.gcd(*cleared)
    assert rational_lift(_residues(monic, unit), PRIME) == [x // content for x in cleared]


def test_rational_lift_examples():
    assert rational_lift(_residues([Fraction(-2), Fraction(1)], 5), PRIME) == [-2, 1]
    assert rational_lift(_residues([Fraction(32767, 32766), 1], 3), PRIME) == [32767, 32766]
    assert rational_lift(_residues([Fraction(-32767, 32765), 0, 1], 1), PRIME) == [
        -32767, 0, 32765,
    ]
    # Past the bound, a numerator or a denominator of 32768, 10**9 or 3 * 10**9.
    for c in (32768, Fraction(1, 32768), Fraction(10**9, 7), Fraction(1, 3 * 10**9)):
        assert rational_lift(_residues([Fraction(c), 1], 1), PRIME) is None
        assert rational_lift(_residues([1, Fraction(c), 1], 7), PRIME) is None


def test_divides_examples():
    assert divides([-1, 1], [1, 0, -1])  # 1 - t^2 = (1 - t)(1 + t)
    assert not divides([1, 1], [1, 0, 1])  # remainder 2
    assert not divides([1, 2], [1, 1])  # 2 does not divide the lead 1
    assert not divides([1, 2], [1, 1, 2])  # quotient t, remainder 1
    # Negative leading coefficients, on either side.
    assert divides([1, -2], [-1, 0, 4])  # (1 - 2t)(-1 - 2t)
    assert divides([-1, -2], [1, 4, 4])
    assert not divides([3, -2], [1, 0, 4])
    # A constant divides by every coefficient.
    assert divides([3], [3, 6, -9]) and divides([-3], [3, 6, -9])
    assert not divides([3], [3, 6, -8])
    # A divisor of higher degree divides only zero.
    assert not divides([0, 1], [5])
    assert divides([0, 1], [])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda d: d[-1]),
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), max_size=3),
)
def test_divides_matches_the_fraction_remainder(d, quotient, remainder):
    """For a primitive divisor, division in Z[t] is division in Q[t]."""
    content = math.gcd(*d)
    d = [x // content for x in d]
    product = Polynomial(d) * Polynomial(quotient)
    f = product + Polynomial(remainder)
    assert divides(d, [int(c) for c in f.coeffs]) == (not _remainder(f, Polynomial(d)))
    assert divides(d, [int(c) for c in product.coeffs])


# Integer polynomials with a content of up to 12, and planted factors of
# degree 0-3 with leading coefficients of either sign.
integer_polynomials = st.builds(
    lambda nums, content: Polynomial(content * x for x in nums),
    st.lists(st.integers(-9, 9), max_size=6),
    st.integers(-12, 12).filter(bool),
)
factors = st.builds(
    lambda low, lead: Polynomial(low + [lead]),
    st.lists(st.fractions(-9, 9, max_denominator=6), max_size=3),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2)]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(polynomials_up_to(6), integer_polynomials),
    st.one_of(polynomials_up_to(6), integer_polynomials),
    factors,
)
def test_poly_gcd_matches_the_reference(a, b, factor):
    a, b = a * factor, b * factor
    if not a and not b:
        with pytest.raises(ValueError, match="gcd of zero"):
            poly_gcd(a, b)
        return
    g = poly_gcd(a, b)
    assert g == reference_gcd(a, b)
    assert not _remainder(g, factor)
