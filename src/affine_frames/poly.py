"""Univariate polynomials with exact rational coefficients.

Coefficients are stored densely in ascending order of the power of ``t`` and
trailing zeros are trimmed, so equal polynomials compare equal structurally.
The zero polynomial has degree ``NEG_INF``, a sentinel that behaves
absorbingly under ``max`` and addition, never an integer.

Sums, products, pairings and the Taylor shift run on integers: coefficients
go over the lcm of their denominators (:func:`ratlin.clear_denominators`,
the one clearing helper, which every elimination uses too), the inner loops
multiply and add integers, and :func:`from_integers`, the one way back,
makes each output coefficient one ``Fraction``.  :func:`taylor_shift` is
the one integer Taylor shift (Horner's, by the numerator of s, on
coefficients scaled by powers of its denominator b); :meth:`Polynomial.shift`,
the group action and the section pass run it and pass b to
:func:`from_integers`.  :func:`sum_of_products` is the one kernel for
``sum(a_i * b_i)``: ``*`` calls it with one pair, ``+`` and ``-`` with two
and the unit weights, ``PolyVector.dot`` and ``PolyMatrix.__matmul__``
with n.  Its integer loop, :func:`integer_sum_of_products`, also serves
callers that hold cleared coefficients already.  Multiplying by a number
scales each coefficient.  :func:`horner` is the integer Horner.
:func:`integer_gcd` is the one Euclid, by pseudo-remainders on integers,
reduced mod a prime or divided by their content; a polynomial divides only
by a number, and :func:`poly_gcd` is the exact run made monic.  A gcd mod a
prime lifts to a primitive integer candidate by rational reconstruction
(:func:`rational_lift`), and :func:`divides` is exact division of integer
coefficient lists, which proves such a candidate a common factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .ratlin import clear_denominators

NEG_INF = float("-inf")
_ZERO = Fraction(0)

Scalar = Union[int, Fraction]


class Polynomial:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, power: int) -> Fraction:
        """Coefficient of ``t**power`` (zero beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products((self, other), _PLUS)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products((self, other), _MINUS)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products((other, self), _MINUS)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products([self], [other])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return Polynomial(c / scalar for c in self.coeffs)

    def shift(self, s: Scalar) -> "Polynomial":
        """Reparametrized polynomial ``p(t + s)``: :func:`taylor_shift` of
        the coefficients over the lcm ``L`` of their denominators, and one
        Fraction per coefficient (:func:`from_integers` with s's denominator)."""
        s = Fraction(s)
        if s == 0 or not self.coeffs:
            return self
        [work], scale = integer_coefficients([self])
        return from_integers(taylor_shift(work, s, len(work) - 1), scale, s.denominator)

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            raise ValueError("zero polynomial cannot be made monic")
        return self / self.coeffs[-1]

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if power == 0:
                parts.append(str(c))
            else:
                base = "t" if power == 1 else f"t^{power}"
                if c == 1:
                    parts.append(base)
                elif c == -1:
                    parts.append(f"-{base}")
                else:
                    parts.append(f"{c}*{base}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


_PLUS = (Polynomial.one(), Polynomial.one())
_MINUS = (Polynomial.one(), Polynomial.constant(-1))


def integer_coefficients(polys: Sequence[Polynomial]) -> tuple[list[list[int]], int]:
    """Each polynomial's coefficients times ``L``, and ``L``: the lcm of all
    their denominators."""
    return clear_denominators([p.coeffs for p in polys])


def sum_of_products(
    lefts: Sequence[Polynomial], rights: Sequence[Polynomial]
) -> Polynomial:
    """``sum(a * b for a, b in zip(lefts, rights))`` on integers: each side
    over the lcm of its own denominators, one division per coefficient."""
    left, l_scale = integer_coefficients(lefts)
    right, r_scale = integer_coefficients(rights)
    return from_integers(integer_sum_of_products(left, right), l_scale * r_scale)


def integer_sum_of_products(
    lefts: Sequence[Sequence[int]], rights: Sequence[Sequence[int]]
) -> list[int]:
    """The coefficients, lowest power first and untrimmed, of
    ``sum(a * b)`` over paired integer coefficient lists."""
    pairs = list(zip(lefts, rights))
    acc = [0] * max((len(a) + len(b) - 1 for a, b in pairs if a and b), default=0)
    for a_coeffs, b_coeffs in pairs:
        for i, a in enumerate(a_coeffs):
            if a:
                for j, b in enumerate(b_coeffs):
                    acc[i + j] += a * b
    return acc


def horner(descending: Sequence[int], x: int) -> int:
    """Value at ``x`` of integer coefficients given highest power first."""
    acc = 0
    for c in descending:
        acc = acc * x + c
    return acc


def taylor_shift(coeffs: Sequence[int], s: Fraction, degree: int) -> list[int]:
    """Integers ``e`` such that coefficient k of ``p(t + s)`` is
    ``e[k] / b**(degree - k)``, for ``s = a/b`` in lowest terms and p the
    polynomial of the integer coefficients ``coeffs`` (lowest power first),
    of degree at most ``degree``.

    With m the degree of p, ``c_i * b**(degree - i)`` are the coefficients
    of ``q(t) = b**degree * p(t / b)``, and Horner's Taylor shift by the
    integer a (von zur Gathen and Gerhard 1997) turns them into those of
    ``q(t + a) = b**degree * p((t + a) / b)``; substituting ``b t`` for t
    gives the claim.  The shift runs over the m + 1 coefficients of p and
    pads the rest with zeros, so every component of a vector shifted to the
    vector's degree comes out over the same power of b per coefficient.
    """
    a, b = s.numerator, s.denominator
    work, top = list(coeffs), len(coeffs) - 1
    if b != 1:
        power = b ** (degree - top)
        for i in range(top, -1, -1):
            work[i] *= power
            power *= b
    if a:
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                work[j] += a * work[j + 1]
    return work + [0] * (degree - top)


def from_integers(nums: Sequence[int], den: int, b: int = 1) -> Polynomial:
    """The polynomial with coefficients ``nums[k] / (den * b**(D - k))``,
    ``D = len(nums) - 1``, for any nonzero ``den`` (``Fraction`` normalizes
    the sign): one Fraction per nonzero coefficient, ``nums`` unchanged.  A
    :func:`taylor_shift` by ``a/b`` of coefficients over ``den`` passes b."""
    coeffs: list[Fraction] = []
    for x in reversed(nums):
        if x or coeffs:
            coeffs.append(Fraction(x, den) if x else _ZERO)
        den *= b
    coeffs.reverse()
    out = Polynomial.__new__(Polynomial)
    object.__setattr__(out, "coeffs", tuple(coeffs))
    return out


def _coerce(value) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


def poly_gcd(*polys: Polynomial) -> Polynomial:
    """Monic greatest common divisor: one :func:`integer_gcd` of all the
    polynomials over the lcm of their denominators, divided by its lead."""
    g = integer_gcd(integer_coefficients(polys)[0])
    if not g:
        raise ValueError("gcd of zero polynomials is undefined")
    return from_integers(g, g[-1])


def integer_gcd(polys: Sequence[Sequence[int]], modulus: int = 0) -> list[int]:
    """Gcd of integer polynomials, coefficients lowest power first, by Euclid
    on pseudo-remainders (Brown 1971); ``[]`` if all are zero.

    Each remainder is reduced mod the prime ``modulus`` if one is given,
    else divided by its content and given a positive lead, so that the
    sequence is the primitive remainder sequence over Z and its last term
    the primitive gcd.  ``[1]`` as soon as a remainder is constant.
    """
    g: list[int] = []
    for f in polys:
        f = _reduced(list(f), modulus)
        while f:
            if len(f) == 1:
                return [1]
            g, f = f, _reduced(_pseudo_remainder(g, f), modulus)
    return g


def rational_lift(g: Sequence[int], modulus: int) -> list[int] | None:
    """The primitive integer polynomial with a positive lead whose monic form
    reduces to ``g`` made monic mod the prime ``modulus``, or None.

    Each coefficient of the monic ``g`` is lifted to the one fraction a/b
    with ``|a|, b <= isqrt(modulus // 2)`` congruent to it, read off the
    extended Euclid of the modulus and the residue (Wang, Guy and Davenport
    1982); None when some coefficient has no such fraction.  Each fraction
    is in lowest terms (a common divisor of the Euclid's remainder and
    cofactor divides the prime, and the cofactor is below it), so the monic
    form over the lcm of the denominators is primitive.  ``g`` is trimmed,
    of degree at least one, with coefficients in ``[0, modulus)``.
    """
    bound = math.isqrt(modulus // 2)
    inverse = pow(g[-1], -1, modulus)
    lifted = []
    for c in g:
        r0, r1, s0, s1 = modulus, c * inverse % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound:
            return None
        lifted.append((r1 if s1 > 0 else -r1, abs(s1)))
    scale = math.lcm(*(b for _, b in lifted))
    return [a * (scale // b) for a, b in lifted]


def divides(d: Sequence[int], f: Sequence[int]) -> bool:
    """Whether the nonzero integer polynomial ``d`` divides ``f`` in Z[t]
    (coefficients lowest power first, ``d`` trimmed): one long division, on
    integers, that stops at the first quotient coefficient its lead does not
    divide.  For a primitive ``d`` this is division in Q[t] (Gauss's lemma).
    """
    rem, lead, top = list(f), d[-1], len(d) - 1
    for k in range(len(rem) - 1, top - 1, -1):
        q, r = divmod(rem[k], lead)
        if r:
            return False
        if q:
            for i in range(top):
                rem[k - top + i] -= q * d[i]
    return not any(rem[:top])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """``lead(b)**(deg a - deg b + 1) * a`` mod ``b`` (``a`` itself if its
    degree is lower), untrimmed, for ``b`` of degree at least one."""
    lead, tail = b[-1], b[:-1]
    while len(a) >= len(b):
        q, cut = a[-1], len(a) - len(b)
        a = [lead * x for x in a[:cut]] + [
            lead * x - q * y for x, y in zip(a[cut:-1], tail)
        ]
    return a


def _reduced(a: list[int], modulus: int) -> list[int]:
    """``a`` mod ``modulus`` if that is nonzero, else over its content with
    a positive lead; trailing zeros trimmed."""
    if modulus:
        a = [x % modulus for x in a]
    while a and not a[-1]:
        a.pop()
    if a and not modulus:
        content = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
        a = [x // content for x in a]
    return a
