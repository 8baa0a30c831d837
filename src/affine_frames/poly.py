"""Univariate polynomials with exact rational coefficients.

Coefficients are stored densely in ascending order of the power of ``t`` and
trailing zeros are trimmed, so equal polynomials compare equal structurally.
The zero polynomial has degree ``NEG_INF``, a sentinel that behaves
absorbingly under ``max`` and addition, never an integer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

NEG_INF = float("-inf")

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return Polynomial(prod)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return Polynomial(c / scalar for c in self.coeffs)

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            factor = rem[-1] / dlead
            shift = len(rem) - dlen
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dlen:
                break
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Division known to leave no remainder; raise if it does."""
        if len(other.coeffs) == 1:
            return self / other.coeffs[0]
        quot, rem = divmod(self, other)
        if not rem.is_zero:
            raise ValueError("division is not exact")
        return quot

    def shift(self, s: Scalar) -> "Polynomial":
        """Reparametrized polynomial ``p(t + s)``."""
        s = Fraction(s)
        if s == 0 or not self.coeffs:
            return self
        # Horner in (t + s): multiply-by-(t+s) is a shift plus scalar add.
        acc: list[Fraction] = []
        for c in reversed(self.coeffs):
            acc = [Fraction(0)] + acc
            for i in range(len(acc) - 1):
                acc[i] += s * acc[i + 1]
            acc[0] += c
        return Polynomial(acc)

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


def _coerce(value) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        raise ValueError("gcd of zero polynomials is undefined")
    return a.monic()
