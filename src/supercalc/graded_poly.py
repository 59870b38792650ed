"""Graded-commutative polynomial kernel over mixed coordinates.

Every ring element of the package is one kind of object: a polynomial in
four generator families over a coordinate patch with n even and nu odd
coordinates,

    even coordinates   x_a           (a = 1..n,      any exponent)
    odd  coordinates   xi_alpha      (alpha = 1..nu, exponent <= 1)
    odd  auxiliaries   one per x_a   (exponent <= 1)
    even auxiliaries   one per xi_alpha (any exponent)

The auxiliaries mean different things per carrier kind: for forms they
are the differentials dx_a (odd!) and dxi_alpha (even), for densities
the contravariant slots along d/dx_a and d/dxi_alpha, and function
carriers have none.  Supernumbers are the functions of a patch with
n = 0 (`grassmann.Supernumber`), polynomials in x those with nu = 0.
All products follow the one sign rule - swapping two odd generators
costs a minus sign - so the exchange behaviour of differentials, slots
and coordinates never needs case analysis.

A monomial is one int key, laid out by the patch (n, nu) alone: the low
nu + n bits hold the odd generators, xi_1..xi_nu and then the odd
auxiliaries, one bit each; above them each even generator, x_1..x_n and
then the even auxiliaries, has a FIELD-bit exponent field whose top bit
is a guard.  So a product of monomials is the sum of their keys:
`a & b & odd` finds a repeated odd generator, `merge_sign` on the odd
bits gives the reordering sign, and an exponent past MAX_EXPONENT runs
into a guard bit and is refused with a ValueError.  Every reordering sign
is absorbed into the exact coefficient, so the representation is unique
and equality is exact.  On
`function_carrier(0, N)` a key is exactly the xi bitmask (Monagan and
Pearce pack monomials the same way; "POLY: a new polynomial data
structure for Maple 17", 2013).

Key bits are decoded here and in `fock`: `fock.apply` and
`fock.translate` read exponent fields and odd bits through
`Carrier.shift`, FIELD and _FIELD_MASK.  Other modules combine keys
through a carrier's masks and offsets (`allowed`, `shift`).
`Carrier.pack` and `Carrier.unpack` convert a key from and to the tuple
view (x exponents,
xi mask, odd-aux mask, even-aux exponents), exponents as sorted (index,
exponent) pairs; `split_xi` and `join_xi` take a superfunction apart by
xi mask and put it back; `GradedPoly.substitute` is the one evaluation
at images of the generators (linear pullbacks, the Berezin change of
variables).  The sparse term routines live here too: `_accumulate` and
`_product`.  A derivative along one generator anticommutes an odd
generator to the front and drops it, or lowers an even one's exponent by
one; distinct keys stay distinct, so `GradedPoly._derive` is one dict
comprehension with nothing to accumulate.  A sum of components times
derivatives, sum_A c_A * dw/dx^A (i(X) and L(X) on forms, e(F) on
densities, a vector field X(F), a Clifford gamma), is one pass of
`_derivation_sum` over the numerators and denominator of w into one
dict, with no derivative or product dict per component; the c_A enter as
their `_derivation_terms`, built once per operator, with numerators
rescaled to the lcm of their denominators.  The exterior differential d
of the form algebra and the divergence b of the density algebra are one
one-dict pass, `_differential_nums`, over the moves that the patch's
layout memo lists for the carrier kind: each term adds its image terms,
with the signs the products dx_a * dw/dx_a would carry, straight into
the result, and no ring product is formed.

An element stores integer numerators over one element denominator, as
FLINT's `fmpq_poly` does (Hart, "FLINT: Fast Library for Number
Theory", ICMS 2010): `nums` maps each key to a nonzero numerator, a
Python `int` or, where complex arithmetic made it, a `scalars.CRat`
with denominator 1 (a Gaussian integer), and `den >= 1` is one int for
the whole element.  The form is canonical, gcd(den, every real and
imaginary numerator part) == 1, so equality compares `den` and the
dict.  Products, sums, derivatives, d and b run on the numerators, which
stay ints in C for real coefficients, and every result is built by the
one constructor `_element(cls, carrier, nums, den)`, which divides out
the content with one gcd pass in `_normal`, free when den == 1.
`.terms` is a read-only view of the values, computed on each access: an
`int` when a value is an integer and a `CRat` otherwise.  `CRat(3) == 3`
with equal hashes, so which type holds a value never shows.  A scalar
that leaves the library (a body, an integral, an inner product) is a
`CRat`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping

from .scalars import _SCALARS, CRat, _crat, _format_complex, _power

FIELD = 32  # bits per exponent field of an even generator
MAX_EXPONENT = (1 << (FIELD - 1)) - 1  # the top bit of a field is its guard
_FIELD_MASK = (1 << FIELD) - 1


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1
    MIXED = "mixed"


class GeneratorMismatch(ValueError):
    """Raised when operands live over different generator sets."""


def carrier_mismatch(left: "Carrier", right: "Carrier") -> GeneratorMismatch:
    """The error of arithmetic between elements of two carriers."""
    return GeneratorMismatch(f"carriers differ: {left} vs {right}")


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


def indices_of(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
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


# -- carriers -------------------------------------------------------------


class Kind(enum.Enum):
    FUNCTION = "function"
    FORM = "form"
    DENSITY = "density"


@dataclass(frozen=True)
class Carrier:
    """Generator universe: coordinate counts plus the auxiliary meaning.
    The key layout depends on (n, nu) only, so carriers of one patch
    share their keys."""

    n: int
    nu: int
    kind: Kind = Kind.FUNCTION
    odd: int = field(init=False, repr=False, compare=False)  # bits of the odd generators
    guards: int = field(init=False, repr=False, compare=False)  # guard bit of every field
    allowed: int = field(init=False, repr=False, compare=False)  # bits a key may set

    def __post_init__(self):
        if self.n < 0 or self.nu < 0:
            raise ValueError("coordinate counts must be >= 0")
        base = self.n + self.nu
        # the top bit of each of the base fields: a geometric series in 2^FIELD
        guards = ((1 << FIELD * base) - 1) // ((1 << FIELD) - 1) << (base + FIELD - 1)
        if self.kind is Kind.FUNCTION:
            allowed = (1 << self.nu) - 1 | ((1 << FIELD * self.n) - 1) << base
        else:
            allowed = (1 << (base + FIELD * base)) - 1
        object.__setattr__(self, "odd", (1 << base) - 1)
        object.__setattr__(self, "guards", guards)
        object.__setattr__(self, "allowed", allowed & ~guards)

    def aux_labels(self) -> tuple[str, str]:
        if self.kind is Kind.FORM:
            return "dx", "dxi"
        if self.kind is Kind.DENSITY:
            return "@x", "@xi"  # slots along d/dx_a and d/dxi_alpha
        return "", ""

    def shift(self, k: int) -> int:
        """Offset of the exponent field of even generator k: x_k for
        k <= n, the even auxiliary k - n above."""
        return self.n + self.nu + FIELD * (k - 1)

    def pack(self, mono) -> int:
        """The key of (x exponents, xi mask, odd-aux mask, even-aux
        exponents), exponents as (index, exponent) pairs."""
        x_exps, xi, ao, ae = mono
        key = 0
        for count, offset, exps in ((self.n, 0, x_exps), (self.nu, self.n, ae)):
            for i, e in exps:
                if e > MAX_EXPONENT:
                    raise ValueError(f"exponent {e} exceeds {MAX_EXPONENT}")
                if not 1 <= i <= count or e <= 0:
                    raise ValueError(f"monomial {mono} outside {self}")
                key += e << self.shift(offset + i)
        if xi < 0 or ao < 0 or xi >> self.nu or ao >> self.n or key & ~self.allowed:
            raise ValueError(f"monomial {mono} outside {self}")
        return key | xi | ao << self.nu

    def unpack(self, key: int) -> tuple:
        """The tuple view of a key, inverse to `pack`."""
        fields = key >> (self.n + self.nu)
        exps = []
        k = 1
        while fields:
            if fields & _FIELD_MASK:
                exps.append((k, fields & _FIELD_MASK))
            fields >>= FIELD
            k += 1
        x_exps = tuple(p for p in exps if p[0] <= self.n)
        ae = tuple((k - self.n, e) for k, e in exps if k > self.n)
        return x_exps, key & ((1 << self.nu) - 1), key >> self.nu & ((1 << self.n) - 1), ae


@cache
def function_carrier(n: int, nu: int) -> Carrier:
    return Carrier(n, nu, Kind.FUNCTION)


@cache
def form_carrier(n: int, nu: int) -> Carrier:
    return Carrier(n, nu, Kind.FORM)


@cache
def density_carrier(n: int, nu: int) -> Carrier:
    return Carrier(n, nu, Kind.DENSITY)


# -- sparse term routines ---------------------------------------------------
#
# Term dicts map an int key to a nonzero numerator: an int, or a CRat with
# denominator 1.  The routines below never see the element denominator,
# except `_normal`, `_sum`, `_derivation_sum` and `_value`.


def _pair(value) -> tuple:
    """A scalar as (numerator, denominator); a bool or a Fraction is
    read as a CRat."""
    c = value if type(value) is int or type(value) is CRat else CRat.coerce(value)
    if type(c) is int:
        return c, 1
    return (c._a if not c._b else c if c._d == 1 else _crat(c._a, c._b, 1)), c._d


def _value(c, den: int):
    """The coefficient that the numerator c stands for over den: an int
    when it is an integer, else a CRat."""
    if type(c) is not int:
        if c._b:
            return c if den == 1 else _crat(c._a, c._b, den)
        c = c._a  # a real result of Gaussian arithmetic
    return c // den if not c % den else _crat(c, 0, den)


def _numerators(carrier: Carrier, terms: Mapping) -> tuple[dict, int]:
    """(nums, den) of a map from key to scalar, with one lcm pass; the
    lcm of reduced denominators leaves no common content."""
    pairs = {}
    den = 1
    for key, value in terms.items():
        if not isinstance(key, int) or key & ~carrier.allowed:
            raise ValueError(f"monomial key {key!r} outside {carrier}")
        c, d = _pair(value)
        if c:
            pairs[key] = c, d
            den = lcm(den, d)
    return {key: c if d == den else c * (den // d) for key, (c, d) in pairs.items()}, den


def _normal(nums: dict, den: int) -> tuple[dict, int]:
    """(nums, den) with the content, gcd(den, every numerator part),
    divided out; zero gets den 1.  Free when den == 1."""
    if den == 1:
        return nums, 1
    g = den
    for c in nums.values():
        g = gcd(g, c) if type(c) is int else gcd(g, c._a, c._b)
        if g == 1:
            return nums, den
    return {k: c // g if type(c) is int else _crat(c._a // g, c._b // g, 1) for k, c in nums.items()}, den // g


def _sum(a: dict, da: int, b: dict, db: int, sign: int = 1) -> tuple[dict, int]:
    """Numerators and denominator of a/da + sign * b/db over lcm(da, db),
    before the content is divided out."""
    if not a:
        return (dict(b) if sign == 1 else {k: -c for k, c in b.items()}), db
    if da == db:
        out, fb = dict(a), sign
    else:
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = {k: c * fa for k, c in a.items()} if fa != 1 else dict(a)
        da = den
    return _accumulate(out, b.items() if fb == 1 else ((k, c * fb) for k, c in b.items())), da


def _accumulate(out: dict, terms) -> dict:
    """Add (key, value) pairs into `out`, dropping keys that cancel.

    Incoming coefficients are nonzero, so only sums are tested for zero.
    """
    for key, c in terms:
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            c = prev + c
            if not c:
                del out[key]
            else:
                out[key] = c
    return out


def _check_exponents(carrier: Carrier, keys) -> None:
    """Refuse keys in which an exponent has run into its guard bit."""
    if keys and reduce(or_, keys) & carrier.guards:
        top = max(e for k in keys for part in carrier.unpack(k)[::3] for _, e in part)
        raise ValueError(f"exponent {top} exceeds {MAX_EXPONENT}")


def _product(a: dict, b: dict, carrier: Carrier) -> dict:
    """Terms of a product: keys add, a repeated odd generator kills the
    term, and `merge_sign` of the odd bits gives its sign."""
    odd = carrier.odd
    right = [(kb, kb & odd, cb) for kb, cb in b.items()]
    out: dict = {}
    for ka, ca in a.items():
        oa = ka & odd
        for kb, ob, cb in right:
            if oa & ob:
                continue
            c = ca * cb
            if oa and ob and merge_sign(oa, ob) < 0:
                c = -c
            key = ka + kb
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                c = prev + c
                if not c:
                    del out[key]
                else:
                    out[key] = c
    _check_exponents(carrier, out)
    return out


def _derivation_terms(carrier: Carrier, pairs) -> tuple:
    """The c_A of a derivation sum, taken once per operator: the carrier,
    the lcm of their denominators, and per (c_A, bit, shift) of `pairs`
    (the odd generator `bit`, or bit 0 and the exponent field at `shift`)
    bit, shift and c_A's (key, odd bits, numerator) list over that lcm."""
    odd = carrier.odd
    den = 1
    for comp, _, _ in pairs:
        den = lcm(den, comp.den)
    rows = []
    for comp, bit, shift in pairs:
        f = den // comp.den
        rows.append((bit, shift, [(kc, kc & odd, cc * f if f != 1 else cc) for kc, cc in comp.nums.items()]))
    return carrier, den, rows


def _derivation_sum(nums: dict, den: int, terms: tuple) -> tuple[dict, int]:
    """Numerators and denominator of sum_A c_A * (derivative of nums / den
    along generator A) for the `_derivation_terms` of the c_A, content not
    divided out: each derivative term is multiplied into c_A's numerators
    straight into one dict under `_product`'s sign rule."""
    carrier, lead, rows = terms
    odd = carrier.odd
    items = nums.items()
    out: dict = {}
    for bit, shift, left in rows:
        for kw, cw in items:
            if bit:
                if not kw & bit:
                    continue
                kw ^= bit
                if (kw & (bit - 1)).bit_count() & 1:
                    cw = -cw
            else:
                e = kw >> shift & _FIELD_MASK
                if not e:
                    continue
                kw -= 1 << shift
                cw *= e
            ow = kw & odd
            for kc, oc, cc in left:
                if oc & ow:
                    continue
                c = cc * cw
                if oc and ow and merge_sign(oc, ow) < 0:
                    c = -c
                key = kc + kw
                prev = out.get(key)
                if prev is None:
                    out[key] = c
                else:
                    c = prev + c
                    if not c:
                        del out[key]
                    else:
                        out[key] = c
    _check_exponents(carrier, out)
    return out, lead * den


# one differential pass for d on forms and b on densities


@cache
def _differential_layout(n: int, nu: int) -> tuple:
    """The moves of d on the forms and of b on the densities of the patch
    (n, nu), indexed by `kind is Kind.DENSITY` so no call hashes an Enum.
    A lowering move (shift, bit, want, delta) applies where key & bit ==
    want; a raising move (bit, step) where the xi_alpha bit is set."""
    shift = function_carrier(n, nu).shift
    x = [(shift(a), 1 << (nu + a - 1)) for a in range(1, n + 1)]
    xi = [(shift(n + alpha), 1 << (alpha - 1)) for alpha in range(1, nu + 1)]
    return (
        (tuple((s, bit, 0, bit - (1 << s)) for s, bit in x), tuple((bit, (1 << s) - bit) for s, bit in xi)),
        (tuple((s, bit, bit, -bit - (1 << s)) for s, bit in x + xi), ()),
    )


def _differential_nums(nums: dict, carrier: Carrier) -> dict:
    """Numerators of dw = sum_A dx^A (dw/dx^A) on a form carrier, or of
    bw = sum_A d/dx^A applied to the first slot on a density carrier, in
    one dict.  d lowers x_a and sets the odd dx_a, or clears xi_alpha and
    raises the even dxi_alpha; b lowers x_a and clears its slot, or lowers
    the xi_alpha slot and clears xi_alpha.  Each move is signed by the odd
    bits below its bit, as the products dx_a * dw/dx_a would be."""
    kind = carrier.kind
    if kind is Kind.FUNCTION:
        raise ValueError(f"no differential on {carrier}")
    lowering, raising = _differential_layout(carrier.n, carrier.nu)[kind is Kind.DENSITY]
    guards = carrier.guards
    out: dict = {}
    for key, c in nums.items():
        for shift, bit, want, delta in lowering:
            if key & bit == want:
                e = key >> shift & _FIELD_MASK
                if not e:
                    continue
                k = -c * e if (key & (bit - 1)).bit_count() & 1 else c * e
                target = key + delta
                prev = out.get(target)
                if prev is None:
                    out[target] = k
                else:
                    k = prev + k
                    if not k:
                        del out[target]
                    else:
                        out[target] = k
        for bit, step in raising:
            if key & bit:
                target = key + step
                if target & guards:
                    _check_exponents(carrier, (target,))
                k = -c if (key & (bit - 1)).bit_count() & 1 else c
                prev = out.get(target)
                if prev is None:
                    out[target] = k
                else:
                    k = prev + k
                    if not k:
                        del out[target]
                    else:
                        out[target] = k
    return out


def _has_coordinates(carrier: Carrier, keys) -> bool:
    """Whether some key holds a factor x_a or xi_alpha."""
    return bool(keys) and bool(reduce(or_, keys) & function_carrier(carrier.n, carrier.nu).allowed)


def _degree_of_key(carrier: Carrier, key: int) -> int:
    """Auxiliary degree: odd auxiliaries plus even-auxiliary exponents."""
    degree = (key >> carrier.nu & ((1 << carrier.n) - 1)).bit_count()
    fields = key >> carrier.shift(carrier.n + 1)
    while fields:
        degree += fields & _FIELD_MASK
        fields >>= FIELD
    return degree


class GradedPoly:
    """Sparse element of the graded-commutative algebra of a carrier:
    `GradedPoly(carrier, {key: value})`, stored as `nums` over `den`."""

    __slots__ = ("carrier", "nums", "den")
    _keeps_type = False  # whether arithmetic results keep the subclass

    def __init__(self, carrier: Carrier, terms: Mapping | None = None):
        nums, den = _numerators(carrier, terms) if terms else ({}, 1)
        _init(self, carrier, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _new(self, nums: dict, den: int = 1) -> "GradedPoly":
        """The element nums / den of this carrier, content divided out:
        every result of arithmetic, of this type when the class keeps it
        and a plain `GradedPoly` otherwise."""
        return _element(type(self) if self._keeps_type else GradedPoly, self.carrier, nums, den)

    @property
    def terms(self) -> Mapping:
        """The coefficient of every key, read-only and computed from the
        numerators on each access: an int when integral, else a CRat."""
        den = self.den
        return MappingProxyType({k: _value(c, den) for k, c in self.nums.items()})

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(carrier: Carrier) -> "GradedPoly":
        return GradedPoly(carrier)

    @staticmethod
    def scalar(carrier: Carrier, value) -> "GradedPoly":
        c, den = _pair(Fraction(value) if isinstance(value, str) else value)
        return _element(GradedPoly, carrier, {0: c}, den) if c else GradedPoly(carrier)

    @staticmethod
    def unit(carrier: Carrier) -> "GradedPoly":
        return GradedPoly.scalar(carrier, 1)

    @staticmethod
    def coordinate(carrier: Carrier, a: int) -> "GradedPoly":
        if not 1 <= a <= carrier.n:
            raise ValueError(f"even coordinate index {a} outside 1..{carrier.n}")
        return _element(GradedPoly, carrier, {1 << carrier.shift(a): 1})

    @staticmethod
    def odd_coordinate(carrier: Carrier, alpha: int) -> "GradedPoly":
        if not 1 <= alpha <= carrier.nu:
            raise ValueError(f"odd coordinate index {alpha} outside 1..{carrier.nu}")
        return _element(GradedPoly, carrier, {1 << (alpha - 1): 1})

    @staticmethod
    def aux_odd(carrier: Carrier, a: int) -> "GradedPoly":
        """dx_a on a form carrier, the slot along d/dx_a on a density one."""
        if carrier.kind is Kind.FUNCTION:
            raise ValueError("function carrier has no auxiliary generators")
        if not 1 <= a <= carrier.n:
            raise ValueError(f"auxiliary index {a} outside 1..{carrier.n}")
        return _element(GradedPoly, carrier, {1 << (carrier.nu + a - 1): 1})

    @staticmethod
    def aux_even(carrier: Carrier, alpha: int) -> "GradedPoly":
        """dxi_alpha on a form carrier, the slot along d/dxi_alpha else."""
        if carrier.kind is Kind.FUNCTION:
            raise ValueError("function carrier has no auxiliary generators")
        if not 1 <= alpha <= carrier.nu:
            raise ValueError(f"auxiliary index {alpha} outside 1..{carrier.nu}")
        return _element(GradedPoly, carrier, {1 << carrier.shift(carrier.n + alpha): 1})

    # -- ring operations --------------------------------------------------

    def _check(self, other: "GradedPoly"):
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise carrier_mismatch(self.carrier, other.carrier)

    def _operand(self, other) -> tuple[dict, int] | None:
        """(nums, den) of a scalar or of an element of this carrier; None
        for anything else."""
        if isinstance(other, GradedPoly):
            self._check(other)
            return other.nums, other.den
        if isinstance(other, _SCALARS):
            c, den = _pair(other)
            return ({0: c}, den) if c else ({}, 1)
        return None

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self._new(*_sum(self.nums, self.den, *operand))

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self._new(*_sum(self.nums, self.den, *operand, -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            self._check(other)
            return self._new(_product(self.nums, other.nums, self.carrier), self.den * other.den)
        if isinstance(other, _SCALARS):
            c, den = _pair(other)
            return self._new({k: v * c for k, v in self.nums.items()} if c else {}, self.den * den)
        return NotImplemented

    __rmul__ = __mul__  # reached only with a scalar on the left, which commutes

    def __pow__(self, k: int):
        return _power(self, k, self._new({0: 1}))

    def __eq__(self, other):
        if isinstance(other, GradedPoly):
            return self.carrier == other.carrier and self.den == other.den and self.nums == other.nums
        if isinstance(other, _SCALARS):
            nums, den = self._operand(other)
            return self.den == den and self.nums == nums
        return NotImplemented

    def __hash__(self):
        """A scalar element (every key 0, zero included) hashes as its
        scalar, since it compares equal to it."""
        nums = self.nums
        if not nums:
            return hash(0)
        if len(nums) == 1 and 0 in nums:
            return hash(_value(nums[0], self.den))
        return hash((self.carrier, self.den, frozenset(nums.items())))

    def is_zero(self) -> bool:
        return not self.nums

    # -- structure ------------------------------------------------------

    def parity(self) -> Parity:
        """EVEN, ODD or MIXED; zero counts as even."""
        seen = {(k & self.carrier.odd).bit_count() & 1 for k in self.nums}
        return Parity.MIXED if len(seen) > 1 else Parity.ODD if 1 in seen else Parity.EVEN

    def degrees(self) -> set[int]:
        """Auxiliary degrees present (form degree / density degree)."""
        return {_degree_of_key(self.carrier, k) for k in self.nums}

    def degree_part(self, p: int) -> "GradedPoly":
        return self._new({k: c for k, c in self.nums.items() if _degree_of_key(self.carrier, k) == p}, self.den)

    def parity_part(self, parity: int) -> "GradedPoly":
        nums = {k: c for k, c in self.nums.items() if (k & self.carrier.odd).bit_count() & 1 == parity}
        return self._new(nums, self.den)

    # -- derivations ------------------------------------------------------

    def _derive(self, index: int, count: int, offset: int, odd: bool) -> "GradedPoly":
        """The derivative along generator `index` of a family of `count`,
        which starts after `offset` odd bits or exponent fields; the
        index is checked before the bit is built."""
        if not 1 <= index <= count:
            raise ValueError(f"index {index} outside 1..{count}")
        items = self.nums.items()
        if odd:
            bit = 1 << (offset + index - 1)
            low = bit - 1
            nums = {k ^ bit: -c if (k & low).bit_count() & 1 else c for k, c in items if k & bit}
        else:
            shift = self.carrier.shift(offset + index)
            step = 1 << shift
            nums = {k - step: c * e for k, c in items if (e := k >> shift & _FIELD_MASK)}
        return self._new(nums, self.den)

    def partial_x(self, a: int) -> "GradedPoly":
        """d/dx_a, an even derivation."""
        return self._derive(a, self.carrier.n, 0, False)

    def partial_xi(self, alpha: int) -> "GradedPoly":
        """Left derivative d/dxi_alpha, an odd derivation: anticommute
        xi_alpha to the front (past lower-index xi factors) and drop it."""
        return self._derive(alpha, self.carrier.nu, 0, True)

    def partial_aux_odd(self, a: int) -> "GradedPoly":
        """Odd derivation along the odd auxiliary a (dx_a or the x_a slot);
        the prefix sign counts all xi factors plus lower odd auxiliaries."""
        return self._derive(a, self.carrier.n, self.carrier.nu, True)

    def partial_aux_even(self, alpha: int) -> "GradedPoly":
        """Even derivation along the even auxiliary alpha."""
        return self._derive(alpha, self.carrier.nu, self.carrier.n, False)

    # -- conversions ------------------------------------------------------

    def substitute(self, x_images, odd_images) -> "GradedPoly":
        """This element with x_a replaced by x_images[a - 1] and the odd
        generator at key bit j by odd_images[j - 1], images on this
        carrier; even auxiliaries stay.  The odd images multiply in key
        order, so no sign is added."""
        carrier = self.carrier
        base, top = carrier.n + carrier.nu, carrier.shift(carrier.n + 1)
        out = self._new({})
        for key, c in self.nums.items():
            term = self._new({key >> top << top: c}, self.den)
            for j in indices_of(key & carrier.odd):
                term = term * odd_images[j - 1]
            for a in range(carrier.n):
                if e := key >> base + FIELD * a & _FIELD_MASK:
                    term = term * x_images[a] ** e
            out = out + term
        return out

    def with_carrier(self, carrier: Carrier) -> "GradedPoly":
        """Reinterpret in another carrier over the same patch (embedding a
        function into a form/density algebra, or relabelling aux); the
        keys do not move."""
        if (carrier.n, carrier.nu) != (self.carrier.n, self.carrier.nu):
            raise GeneratorMismatch("carriers cover different coordinate patches")
        if self.nums and reduce(or_, self.nums) & ~carrier.allowed:
            raise ValueError(f"element has generators outside {carrier}")
        return _element(GradedPoly, carrier, self.nums, self.den)

    def coefficient_function(self) -> "GradedPoly":
        """Drop to the function carrier; requires degree 0."""
        return self.with_carrier(function_carrier(self.carrier.n, self.carrier.nu))

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        if not self.nums:
            return "0"
        ao_label, ae_label = self.carrier.aux_labels()
        den, bits = self.den, []
        monos = ((self.carrier.unpack(k), c) for k, c in self.nums.items())
        for (x_exps, xi, ao, ae), c in sorted(monos, key=_print_order):
            factors = []
            for idx, e in x_exps:
                factors.append(f"x{idx}" + (f"^{e}" if e > 1 else ""))
            factors += [f"xi{i}" for i in indices_of(xi)]
            factors += [f"{ao_label}{i}" for i in indices_of(ao)]
            for idx, e in ae:
                factors.append(f"{ae_label}{idx}" + (f"^{e}" if e > 1 else ""))
            mono_txt = "*".join(factors) if factors else "1"
            a, b = (c, 0) if type(c) is int else (c._a, c._b)
            bits.append(f"({_format_complex(a, b, den)})*{mono_txt}")
        return " + ".join(bits)


_new_object = object.__new__
_set_carrier = GradedPoly.carrier.__set__
_set_nums = GradedPoly.nums.__set__
_set_den = GradedPoly.den.__set__


def _init(x: GradedPoly, carrier: Carrier, nums: dict, den: int) -> None:
    """Fill the slots of x in an `__init__`; nums and den are canonical."""
    _set_carrier(x, carrier)
    _set_nums(x, nums)
    _set_den(x, den)


def _element(cls, carrier: Carrier, nums: dict, den: int = 1) -> GradedPoly:
    """The element nums / den of class cls, content divided out: the one
    constructor of every result."""
    if den != 1:
        nums, den = _normal(nums, den)
    x = _new_object(cls)
    _set_carrier(x, carrier)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _print_order(term):
    """Sort key of a (tuple view, coefficient) pair: degree, xi count,
    auxiliaries, xi labels, then x exponents."""
    (x_exps, xi, ao, ae), _ = term
    return (ao.bit_count() + sum(e for _, e in ae), xi.bit_count(), indices_of(ao), ae, indices_of(xi), x_exps)


# -- superfunctions by xi mask ----------------------------------------------


def split_xi(f: GradedPoly) -> dict[int, GradedPoly]:
    """The coefficients f_I(x) of a superfunction F = sum_I f_I(x) xi^I,
    keyed by xi mask I, each on `function_carrier(n, 0)`."""
    if f.carrier.kind is not Kind.FUNCTION:
        raise TypeError(f"{f.carrier} is not a function carrier")
    nu = f.carrier.nu
    groups: dict[int, dict] = {}
    for key, c in f.nums.items():
        groups.setdefault(key & ((1 << nu) - 1), {})[key >> nu] = c
    ring = function_carrier(f.carrier.n, 0)
    return {mask: _element(GradedPoly, ring, nums, f.den) for mask, nums in groups.items()}


def join_xi(mask: int, key: int, nu: int) -> int:
    """The key of x^k xi^I on `function_carrier(n, nu)`, for the key k of
    x^k on `function_carrier(n, 0)`: the inverse of `split_xi`."""
    return key << nu | mask
