"""Exact arithmetic in the Grassmann algebra Lambda_N and its complex
supernumbers.

A supernumber is stored as a sparse map from canonical generator
multi-indices to exact complex-rational coefficients.  Multi-indices are
held internally as bitmasks (bit k set = generator x_{k+1} present), kept
strictly increasing by construction; every reordering sign is absorbed
into the coefficient when a term is created.  This makes representation
unique, so equality tests are exact.

This module also holds the sparse term routines shared by the two
kernels, `Supernumber` here and `graded_poly.GradedPoly`, which also
holds the polynomials in the real variables and the mixed functions
sum_I f_I(x) xi^I: `_accumulate` (add terms, drop the keys that cancel),
`_sum`, `_scale`, `_neg`, `_product` under a monomial rule and
`_map_terms`; powers use `scalars._power`.  The monomial rule of
supernumbers is `_mask_mono`: disjoint masks multiply to their union with
the `merge_sign` sign.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from typing import Iterable, Mapping

from .scalars import CRat, _power

MultiIndex = tuple[int, ...]


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1
    MIXED = "mixed"


class Convention(enum.Enum):
    """Complex-conjugation convention for products of odd quantities.

    KOSZUL: (zw)* = z* w*.
    DEWITT: (zw)* = (-1)^{parity(z) parity(w)} z* w*, which reverses factor
    order and makes the product of two real odd supernumbers imaginary.
    """

    KOSZUL = "koszul"
    DEWITT = "dewitt"


DEFAULT_CONVENTION = Convention.KOSZUL


class GeneratorMismatch(ValueError):
    """Raised when operands live in Grassmann algebras of different rank."""


class NotInvertible(ZeroDivisionError):
    """Raised when a supernumber has zero body."""


def mask_of(indices: Iterable[int], n: int) -> int:
    """Bitmask of a strictly increasing multi-index with labels in 1..n."""
    mask = 0
    prev = 0
    for idx in indices:
        if not 1 <= idx <= n:
            raise ValueError(f"generator label {idx} outside 1..{n}")
        if idx <= prev:
            raise ValueError(f"multi-index {tuple(indices)} not strictly increasing")
        prev = idx
        mask |= 1 << (idx - 1)
    return mask


def indices_of(mask: int) -> MultiIndex:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(a: int, b: int) -> int:
    """Sign (+1/-1) of sorting the concatenation of two disjoint masks.

    Counts pairs (i in a, j in b) with i > j; each costs one transposition.
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    return -1 if swaps & 1 else 1


# -- sparse term routines ------------------------------------------------
#
# Supernumber and GradedPoly both hold an element as a dict from a
# canonical monomial key to a nonzero coefficient, and do their ring
# arithmetic through the routines below.  A type supplies only its
# monomial rule, rule(a, b, nu) -> (key, sign), or None when the product
# of the two monomials vanishes.

_SCALARS = (int, Fraction, CRat)


def _accumulate(out: dict, terms) -> dict:
    """Add (key, coefficient) pairs into `out`, dropping keys that cancel.

    Incoming coefficients are nonzero, so only sums are tested for zero.
    """
    for key, c in terms:
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            c = prev + c
            if c.is_zero():
                del out[key]
            else:
                out[key] = c
    return out


def _sum(a: dict, b: dict) -> dict:
    return _accumulate(dict(a), b.items())


def _scale(terms: dict, c) -> dict:
    return {k: v * c for k, v in terms.items()} if not c.is_zero() else {}


def _neg(terms: dict) -> dict:
    return {k: -v for k, v in terms.items()}


def _product_terms(a: dict, b: dict, rule, nu: int):
    for ka, ca in a.items():
        for kb, cb in b.items():
            hit = rule(ka, kb, nu)
            if hit is not None:
                c = ca * cb
                yield hit[0], (c if hit[1] > 0 else -c)


def _product(a: dict, b: dict, rule, nu: int) -> dict:
    return _accumulate({}, _product_terms(a, b, rule, nu))


def _map_terms(terms: dict, rule, arg) -> dict:
    """Accumulate rule(key, coeff, arg) -> (key, coeff) | None over terms."""
    return _accumulate({}, filter(None, (rule(k, c, arg) for k, c in terms.items())))


def _parity(seen: set[int]) -> Parity:
    """Parity of an element from the set of its terms' parities; zero
    counts as even."""
    if len(seen) > 1:
        return Parity.MIXED
    return Parity.ODD if 1 in seen else Parity.EVEN


def _hash(space, terms: dict) -> int:
    return hash((space, frozenset(terms.items())))


def _mask_mono(a: int, b: int, nu: int) -> tuple[int, int] | None:
    """Monomial rule of xi masks: None when a generator repeats."""
    if a & b:
        return None
    return a | b, merge_sign(a, b)


class Supernumber:
    """Element of Lambda_N over Q(i)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, CRat] | None = None, _canonical=False):
        if n < 0:
            raise ValueError("generator count must be >= 0")
        object.__setattr__(self, "n", n)
        if terms is None:
            clean: dict[int, CRat] = {}
        elif _canonical:
            clean = terms  # a fresh dict, or the terms of another immutable element
        else:
            clean = {}
            limit = 1 << n
            for mask, coeff in terms.items():
                if mask >= limit or mask < 0:
                    raise ValueError(f"multi-index {indices_of(mask)} exceeds {n} generators")
                c = CRat.coerce(coeff)
                if not c.is_zero():
                    clean[mask] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Supernumber is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_indices(n: int, terms: Mapping[MultiIndex, object]) -> "Supernumber":
        return Supernumber(n, {mask_of(idx, n): CRat.coerce(c) for idx, c in terms.items()})

    @staticmethod
    def scalar(n: int, value) -> "Supernumber":
        return Supernumber(n, {0: CRat.coerce(value)})

    @staticmethod
    def unit(n: int) -> "Supernumber":
        return Supernumber.scalar(n, 1)

    @staticmethod
    def zero(n: int) -> "Supernumber":
        return Supernumber(n)

    @staticmethod
    def generator(n: int, index: int) -> "Supernumber":
        return Supernumber(n, {mask_of((index,), n): CRat(1)})

    @staticmethod
    def generators(n: int) -> list["Supernumber"]:
        return [Supernumber.generator(n, i) for i in range(1, n + 1)]

    # -- ring structure -----------------------------------------------

    def _check(self, other: "Supernumber") -> None:
        if self.n != other.n:
            raise GeneratorMismatch(f"operands over {self.n} vs {other.n} generators")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Supernumber.scalar(self.n, other)
        if not isinstance(other, Supernumber):
            return NotImplemented
        self._check(other)
        return Supernumber(self.n, _sum(self.terms, other.terms), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return Supernumber(self.n, _neg(self.terms), _canonical=True)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Supernumber) else Supernumber.scalar(self.n, -CRat.coerce(other)))

    def __rsub__(self, other):
        return Supernumber.scalar(self.n, other) - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Supernumber(self.n, _scale(self.terms, CRat.coerce(other)), _canonical=True)
        if not isinstance(other, Supernumber):
            return NotImplemented
        self._check(other)
        return Supernumber(self.n, _product(self.terms, other.terms, _mask_mono, 0), _canonical=True)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, Supernumber.unit(self.n))

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Supernumber.scalar(self.n, other)
        if not isinstance(other, Supernumber):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return _hash(self.n, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure maps -----------------------------------------------

    def body(self) -> CRat:
        return self.terms.get(0, CRat(0))

    def soul(self) -> "Supernumber":
        return Supernumber(self.n, {m: c for m, c in self.terms.items() if m}, _canonical=True)

    def even_part(self) -> "Supernumber":
        return Supernumber(
            self.n, {m: c for m, c in self.terms.items() if not m.bit_count() & 1}, _canonical=True
        )

    def odd_part(self) -> "Supernumber":
        return Supernumber(
            self.n, {m: c for m, c in self.terms.items() if m.bit_count() & 1}, _canonical=True
        )

    def parity(self) -> Parity:
        return _parity({m.bit_count() & 1 for m in self.terms})

    def inverse(self) -> "Supernumber":
        """Multiplicative inverse; the geometric series in the soul
        truncates exactly after N terms by nilpotency."""
        b = self.body()
        if b.is_zero():
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
        """Complex conjugation.

        KOSZUL conjugates coefficients in place.  DEWITT additionally
        reverses each generator monomial, i.e. multiplies a degree-p term
        by (-1)^{p(p-1)/2}.
        """
        out: dict[int, CRat] = {}
        for m, c in self.terms.items():
            cc = c.conjugate()
            if convention is Convention.DEWITT:
                p = m.bit_count()
                if (p * (p - 1) // 2) & 1:
                    cc = -cc
            out[m] = cc
        return Supernumber(self.n, out, _canonical=True)

    # -- rendering ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[MultiIndex, CRat]]:
        return [
            (indices_of(m), self.terms[m])
            for m in sorted(self.terms, key=lambda m: (m.bit_count(), indices_of(m)))
        ]

    def __repr__(self):
        return f"Supernumber({self.n}, {format_supernumber(self)!r})"

    def __str__(self):
        return format_supernumber(self)


# -- text and JSON serialization --------------------------------------


def format_supernumber(z: Supernumber) -> str:
    """Canonical text form like ``3 + 2*x1^x2`` (x_i are the generators)."""
    if z.is_zero():
        return "0"
    chunks = []
    for indices, coeff in z.sorted_terms():
        mono = "^".join(f"x{i}" for i in indices)
        if not indices:
            text = str(coeff)
        elif coeff == CRat(1):
            text = mono
        elif coeff == CRat(-1):
            text = f"-{mono}"
        else:
            c = str(coeff)
            if "+" in c[1:] or "-" in c[1:]:
                c = f"({c})"
            text = f"{c}*{mono}"
        chunks.append(text)
    out = chunks[0]
    for chunk in chunks[1:]:
        if chunk.startswith("-"):
            out += " - " + chunk[1:]
        else:
            out += " + " + chunk
    return out


def parse_supernumber(text: str, n: int) -> Supernumber:
    """Parse the canonical text form back into a supernumber."""
    from .exprlang import evaluate_supernumber_text

    return evaluate_supernumber_text(text, n)


def to_json_terms(z: Supernumber) -> dict[str, str]:
    """JSON term map {"": "3", "1,2": "2"}; lossless round trip."""
    return {
        ",".join(str(i) for i in indices): str(coeff) for indices, coeff in z.sorted_terms()
    }


def from_json_terms(data: Mapping[str, str], n: int) -> Supernumber:
    from .scalars import parse_crat

    terms: dict[MultiIndex, CRat] = {}
    for key, val in data.items():
        indices = tuple(int(tok) for tok in key.split(",")) if key else ()
        terms[indices] = parse_crat(val)
    return Supernumber.from_indices(n, terms)


def dumps(z: Supernumber) -> str:
    return json.dumps({"n": z.n, "terms": to_json_terms(z)}, sort_keys=True)


def loads(text: str) -> Supernumber:
    data = json.loads(text)
    return from_json_terms(data["terms"], data["n"])
