"""Exact complex-rational scalars.

All algebraic kernels in this package compute over Q(i), so that
identities can be tested as exact equalities rather than within a
tolerance.  A scalar is stored as a Gaussian-integer numerator over one
positive integer denominator, (a + b*i) / d, with gcd(a, b, d) == 1; the
form is unique, so equality compares three ints.  Sums and products of
scalars with denominator 1, the common case, need no gcd at all.
Floating point only enters through the quadrature path.

A plain `int` on either side of +, - or * is used as it is, with no
`CRat` built for it, and every result of `CRat` arithmetic is a `CRat`.
The graded kernel stores int numerators over one element denominator
and uses a `CRat` with d == 1 only as a Gaussian-integer numerator (see
`graded_poly`); its `.terms` view reads a value as an `int` when it is
an integer and as a `CRat` otherwise.  `CRat(3) == 3` with equal hashes,
so which type holds a value never shows; a scalar that the library
returns is a `CRat`.  An operand that is not an `int`, `Fraction` or
`CRat` makes `CRat` arithmetic return `NotImplemented`, so Python tries
the other operand's reflected operator: `CRat(2) * x` and `CRat(2) - x`
work for an element x as `2 * x` does, and a float, str or None still
raises `TypeError`.

`unsigned_literal` is the one reader of literal text: ``n[/d][i]`` read
with `int()` and reduced once in `_crat`.  The expression reader's number
tokens go straight to it, and `parse_crat` sends it each signless part.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class CRat:
    """A complex number (a + b*i) / d with integers a, b and d, d > 0 and
    gcd(a, b, d) == 1.  Immutable; `re` and `im` give the parts as
    `Fraction`."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(value: int | Fraction | CRat) -> "CRat":
        if isinstance(value, CRat):
            return value
        if isinstance(value, int):
            return _crat(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _crat(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as an exact complex rational")

    def __add__(self, other: int | Fraction | CRat) -> "CRat":
        if type(other) is not CRat:
            if type(other) is int:
                return _crat(self._a + other * self._d, self._b, self._d)
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = CRat.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _crat(self._a + other._a, self._b + other._b, d)
        return _crat(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: int | Fraction | CRat) -> "CRat":
        if type(other) is not CRat:
            if type(other) is int:
                return _crat(self._a - other * self._d, self._b, self._d)
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = CRat.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _crat(self._a - other._a, self._b - other._b, d)
        return _crat(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other: int | Fraction | CRat) -> "CRat":
        if type(other) is int:
            return _crat(other * self._d - self._a, -self._b, self._d)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return CRat.coerce(other) - self

    def __mul__(self, other: int | Fraction | CRat) -> "CRat":
        if type(other) is not CRat:
            if type(other) is int:
                return _crat(self._a * other, self._b * other, self._d)
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = CRat.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b and not e:
            return _crat(a * c, 0, self._d * other._d)
        return _crat(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: int | Fraction | CRat) -> "CRat":
        if type(other) is not CRat:
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = CRat.coerce(other)
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self._a, self._b
        return _crat(f * (a * c + b * e), f * (b * c - a * e), self._d * n)

    def __rtruediv__(self, other: int | Fraction | CRat) -> "CRat":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return CRat.coerce(other) / self

    def __neg__(self) -> "CRat":
        return _crat(-self._a, -self._b, self._d)

    def __pow__(self, n: int) -> "CRat":
        if not isinstance(n, int):
            raise TypeError("only integer powers are exact")
        if n < 0:
            return CRat(1) / self ** (-n)
        return _power(self, n, CRat(1))

    def conjugate(self) -> "CRat":
        return _crat(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __eq__(self, other) -> bool:
        if isinstance(other, CRat):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._d == other.denominator and self._a == other.numerator
        return NotImplemented

    def __hash__(self):
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return hash(a) if not b else hash((a, b))
        if not b:
            return hash(Fraction(a, d))
        return hash((Fraction(a, d), Fraction(b, d)))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __float__(self) -> float:
        if self._b:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self._a / self._d

    def __repr__(self):
        return f"CRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_crat(self)


_SCALARS = (int, Fraction, CRat)  # the operands of arithmetic; any other type gets NotImplemented
_new = object.__new__
_set_a = CRat._a.__set__
_set_b = CRat._b.__set__
_set_d = CRat._d.__set__


def _crat(a: int, b: int, d: int) -> CRat:
    """The one constructor of results: (a + b*i) / d with d > 0, reduced
    here unless d == 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    c = _new(CRat)
    _set_a(c, a)
    _set_b(c, b)
    _set_d(c, d)
    return c


def _power(base, k: int, one):
    """base ** k by repeated squaring, with `one` for k == 0: the power
    routine of every ring in the package."""
    if k < 0:
        raise ValueError("negative powers are not supported; use the inverse")
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return one if out is None else out


def _format_rat(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_crat(c: CRat) -> str:
    """Render like ``3``, ``-1/2``, ``2i``, ``1+2i`` or ``1/2-3/4i``."""
    return _format_complex(c._a, c._b, c._d)


def _format_complex(a: int, b: int, d: int) -> str:
    """`format_crat` of (a + b*i) / d, d > 0, reduced or not."""
    if not b:
        return _format_rat(a, d)
    im_part = "i" if abs(b) == d else _format_rat(abs(b), d) + "i"
    sign = "-" if b < 0 else "+"
    if not a:
        return ("-" if b < 0 else "") + im_part
    return f"{_format_rat(a, d)}{sign}{im_part}"


_UNSIGNED = re.compile(r"\d+(?:/\d+)?i?|i")
_REAL_IMAG = re.compile(r"([+-]?)(\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)?i")
_ZERO_DENOMINATOR = re.compile(r"/0+(?!\d)")


def unsigned_literal(text: str, literal: str | None = None) -> CRat:
    """The value of ``n[/d][i]`` or a bare ``i``, a shape that the caller
    has matched; a zero denominator is refused, naming `literal`, the
    whole literal as written (`text` by default)."""
    imag = text[-1] == "i"
    n, _, d = (text[:-1] if imag else text).partition("/")
    a = int(n) if n else 1
    q = int(d) if d else 1
    if not q:
        raise ValueError(f"zero denominator in scalar literal {literal or text!r}")
    return _crat(0, a, q) if imag else _crat(a, 0, q)


def parse_crat(text: str) -> CRat:
    """Inverse of :func:`format_crat`: ``3``, ``-1/2``, ``2i``, ``-i``,
    ``1+2i`` or ``1/2-3/4i``, spaces around it allowed; each signless
    part is read by `unsigned_literal`."""
    if not isinstance(text, str):
        raise ValueError(f"scalar literal {text!r} is not a string")
    text = text.strip()
    sign = text[:1]
    body = text[1:] if sign == "-" or sign == "+" else text
    if _UNSIGNED.fullmatch(body):
        c = unsigned_literal(body, text)
        return -c if sign == "-" else c
    if m := _REAL_IMAG.fullmatch(text):
        re_sign, re_part, im_sign, im_part = m.groups()
        a = unsigned_literal(re_part, text)
        b = unsigned_literal(f"{im_part or ''}i", text)
        return (-a if re_sign == "-" else a) + (-b if im_sign == "-" else b)
    # other text names a zero denominator when it has "/0" (as in "3/0x"),
    # as the CLI has always said
    if _ZERO_DENOMINATOR.search(text):
        raise ValueError(f"zero denominator in scalar literal {text!r}")
    raise ValueError(f"bad scalar literal: {text!r}")
