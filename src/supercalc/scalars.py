"""Exact complex-rational scalars.

All algebraic kernels in this package compute over Q(i): complex numbers
whose real and imaginary parts are exact `fractions.Fraction` values, so
that identities can be tested as exact equalities rather than within a
tolerance.  Floating point only enters through the quadrature path.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

_NumberLike = Union[int, Fraction, "CRat"]


class CRat:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        # hot path: avoid re-normalizing values that are already Fractions
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    @staticmethod
    def coerce(value: _NumberLike) -> "CRat":
        if isinstance(value, CRat):
            return value
        if isinstance(value, (int, Fraction)):
            return CRat(value)
        raise TypeError(f"cannot interpret {value!r} as an exact complex rational")

    def __add__(self, other: _NumberLike) -> "CRat":
        if type(other) is not CRat:
            other = CRat.coerce(other)
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: _NumberLike) -> "CRat":
        if type(other) is not CRat:
            other = CRat.coerce(other)
        return CRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: _NumberLike) -> "CRat":
        return CRat.coerce(other) - self

    def __mul__(self, other: _NumberLike) -> "CRat":
        if type(other) is not CRat:
            other = CRat.coerce(other)
        sim, oim = self.im, other.im
        if not sim and not oim:
            return CRat(self.re * other.re)
        return CRat(
            self.re * other.re - sim * oim,
            self.re * oim + sim * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: _NumberLike) -> "CRat":
        other = CRat.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return CRat(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other: _NumberLike) -> "CRat":
        return CRat.coerce(other) / self

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def __pow__(self, n: int) -> "CRat":
        if not isinstance(n, int):
            raise TypeError("only integer powers are exact")
        if n < 0:
            return CRat(1) / self ** (-n)
        out = CRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CRat(other)
        if not isinstance(other, CRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return float(self.re)

    def __repr__(self):
        return f"CRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_crat(self)


def _format_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_crat(c: CRat) -> str:
    """Render like ``3``, ``-1/2``, ``2i``, ``1+2i`` or ``1/2-3/4i``."""
    if c.im == 0:
        return _format_rat(c.re)
    im_part = "i" if abs(c.im) == 1 else _format_rat(abs(c.im)) + "i"
    sign = "-" if c.im < 0 else "+"
    if c.re == 0:
        return ("-" if c.im < 0 else "") + im_part
    return f"{_format_rat(c.re)}{sign}{im_part}"


_RAT = r"\d+(?:/\d+)?"
_PURE_REAL = re.compile(rf"^[+-]?{_RAT}$")
_PURE_IMAG = re.compile(rf"^(?P<sign>[+-]?)(?P<mag>{_RAT})?i$")
_REAL_IMAG = re.compile(rf"^(?P<re>[+-]?{_RAT})(?P<sign>[+-])(?P<mag>{_RAT})?i$")
_ZERO_DENOMINATOR = re.compile(r"/0+(?!\d)")


def parse_crat(text: str) -> CRat:
    """Inverse of :func:`format_crat`."""
    if not isinstance(text, str):
        raise ValueError(f"scalar literal {text!r} is not a string")
    text = text.strip()
    if _ZERO_DENOMINATOR.search(text):
        raise ValueError(f"zero denominator in scalar literal {text!r}")
    if _PURE_REAL.match(text):
        return CRat(Fraction(text))
    m = _PURE_IMAG.match(text)
    if m:
        mag = Fraction(m.group("mag")) if m.group("mag") else Fraction(1)
        return CRat(0, -mag if m.group("sign") == "-" else mag)
    m = _REAL_IMAG.match(text)
    if m:
        mag = Fraction(m.group("mag")) if m.group("mag") else Fraction(1)
        return CRat(
            Fraction(m.group("re")), -mag if m.group("sign") == "-" else mag
        )
    raise ValueError(f"bad scalar literal: {text!r}")
