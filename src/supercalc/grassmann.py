"""Exact arithmetic in the Grassmann algebra Lambda_N and its complex
supernumbers.

A supernumber is a superfunction of the patch with no even coordinates:
`Supernumber` is a `graded_poly.GradedPoly` on `function_carrier(0, N)`,
whose packed monomial key is exactly the generator bitmask (bit k set =
generator x_{k+1} present).  So `.terms` maps masks to the exact
coefficients (an `int` or a `CRat`, a view of the kernel's numerators
over one denominator), every reordering sign is absorbed into the
coefficient, and equality is exact.  Its ring
operations and its left derivative (`partial_xi`) are those of the one
kernel; every result of arithmetic on a supernumber is a supernumber.

This module adds what is particular to Lambda_N: body and soul, the
inverse, the package's one degree reversal J (`reversal`), complex
conjugation (DEWITT is J after KOSZUL), and the text and JSON formats,
whose multi-indices are the masks' generator labels; the text format
prints each coefficient from its numerator over `den`.
"""

from __future__ import annotations

import enum
from typing import Mapping

# GeneratorMismatch and Parity are kernel names that callers import from here too
from .graded_poly import GeneratorMismatch, GradedPoly, Parity, _element, _pair, function_carrier, indices_of, mask_of
from .scalars import CRat, _crat, _format_complex

MultiIndex = tuple[int, ...]


class Convention(enum.Enum):
    """Complex-conjugation convention for products of odd quantities.

    KOSZUL: (zw)* = z* w*.
    DEWITT: (zw)* = (-1)^{parity(z) parity(w)} z* w*, which reverses factor
    order and makes the product of two real odd supernumbers imaginary.
    """

    KOSZUL = "koszul"
    DEWITT = "dewitt"


DEFAULT_CONVENTION = Convention.KOSZUL


class NotInvertible(ZeroDivisionError):
    """Raised when a supernumber has zero body."""


class Supernumber(GradedPoly):
    """Element of Lambda_N over Q(i): `Supernumber(N, {mask: c})`."""

    __slots__ = ()
    _keeps_type = True

    def __init__(self, n: int, terms: Mapping[int, object] | None = None):
        if n < 0:
            raise ValueError("generator count must be >= 0")
        for mask in terms or ():
            if not 0 <= mask < 1 << n:
                raise ValueError(f"mask {mask} outside 0..{(1 << n) - 1} for {n} generators")
        super().__init__(function_carrier(0, n), terms)

    @property
    def n(self) -> int:
        """The number N of generators."""
        return self.carrier.nu

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_indices(n: int, terms: Mapping[MultiIndex, object]) -> "Supernumber":
        return Supernumber(n, {mask_of(idx, n): c for idx, c in terms.items()})

    @staticmethod
    def scalar(n: int, value) -> "Supernumber":
        c, den = _pair(value)
        return _element(Supernumber, function_carrier(0, n), {0: c} if c else {}, den)

    @staticmethod
    def unit(n: int) -> "Supernumber":
        return Supernumber.scalar(n, 1)

    @staticmethod
    def zero(n: int) -> "Supernumber":
        return Supernumber(n)

    @staticmethod
    def generator(n: int, index: int) -> "Supernumber":
        return _element(Supernumber, function_carrier(0, n), {mask_of((index,), n): 1})

    @staticmethod
    def generators(n: int) -> list["Supernumber"]:
        return [Supernumber.generator(n, i) for i in range(1, n + 1)]

    # -- structure maps -----------------------------------------------

    def body(self) -> CRat:
        c = self.nums.get(0, 0)
        return _crat(c, 0, self.den) if type(c) is int else _crat(c._a, c._b, self.den)

    def soul(self) -> "Supernumber":
        return self._new({m: c for m, c in self.nums.items() if m}, self.den)

    def even_part(self) -> "Supernumber":
        return self.parity_part(0)

    def odd_part(self) -> "Supernumber":
        return self.parity_part(1)

    def inverse(self) -> "Supernumber":
        """Multiplicative inverse; the geometric series in the soul
        truncates exactly after N terms by nilpotency."""
        b = self.body()
        if not b:
            raise NotInvertible("supernumber has zero body")
        s = self.soul()
        out = Supernumber.zero(self.n)
        power = Supernumber.unit(self.n)
        for k in range(self.n + 1):
            coeff = (CRat(-1) ** k) / (b ** (k + 1))
            out = out + power * coeff
            if k < self.n:
                power = power * s
                if power.is_zero():
                    break
        return out

    def conjugate(self, convention: Convention = DEFAULT_CONVENTION) -> "Supernumber":
        """Complex conjugation.  KOSZUL conjugates coefficients in place;
        DEWITT is the `reversal` J of the KOSZUL conjugate."""
        out = _element(Supernumber, self.carrier, {m: c.conjugate() for m, c in self.nums.items()}, self.den)
        return reversal(out) if convention is Convention.DEWITT else out

    # -- rendering ----------------------------------------------------

    def __repr__(self):
        return f"Supernumber({self.n}, {format_supernumber(self)!r})"

    def __str__(self):
        return format_supernumber(self)


def reversal(z: Supernumber) -> Supernumber:
    """J: reverse each generator monomial, i.e. scale degree p by
    (-1)^{p(p-1)/2}; an involution that fixes the degrees 0 and 1 mod 4."""
    out = {}
    for mask, c in z.nums.items():
        p = mask.bit_count()
        out[mask] = -c if (p * (p - 1) // 2) & 1 else c
    return _element(Supernumber, z.carrier, out, z.den)


# -- text and JSON serialization --------------------------------------


def format_supernumber(z: Supernumber) -> str:
    """Canonical text form like ``3 + 2*x1^x2`` (x_i are the generators),
    each coefficient printed from its numerator over `z.den`."""
    nums, den = z.nums, z.den
    if not nums:
        return "0"
    chunks = []
    for _, indices, m in sorted((m.bit_count(), indices_of(m), m) for m in nums):
        c = nums[m]
        a, b = (c, 0) if type(c) is int else (c._a, c._b)
        mono = "^".join([f"x{i}" for i in indices])
        if not indices:
            text = _format_complex(a, b, den)
        elif not b and a == den:
            text = mono
        elif not b and a == -den:
            text = f"-{mono}"
        else:
            c = _format_complex(a, b, den)
            text = f"({c})*{mono}" if a and b else f"{c}*{mono}"
        chunks.append(text)
    return " + ".join(chunks).replace(" + -", " - ")  # no chunk holds a blank


def from_json_terms(data: Mapping[str, str], n: int) -> Supernumber:
    from .scalars import parse_crat

    terms: dict[MultiIndex, CRat] = {}
    for key, val in data.items():
        indices = tuple(int(tok) for tok in key.split(",")) if key else ()
        terms[indices] = parse_crat(val)
    return Supernumber.from_indices(n, terms)
