"""Graded-commutative polynomial kernel over mixed coordinates.

Everything downstream of the plain Grassmann algebra (superfunctions of
(x, xi), exterior forms, tensor densities, Fock-state payloads) lives in
one kind of object: a polynomial in four generator families over a
coordinate patch with n even and nu odd coordinates,

    even coordinates   x_a           (a = 1..n,      any exponent)
    odd  coordinates   xi_alpha      (alpha = 1..nu, exponent <= 1)
    odd  auxiliaries   one per x_a   (exponent <= 1)
    even auxiliaries   one per xi_alpha (any exponent)

The auxiliaries mean different things per carrier kind: for forms they
are the differentials dx_a (odd!) and dxi_alpha (even), for densities
the contravariant slots along d/dx_a and d/dxi_alpha, and function
carriers have none.  All products follow the one sign rule - swapping
two odd generators costs a minus sign - so the exchange behaviour of
differentials, slots and coordinates never needs case analysis.

Monomials are stored canonically (x exponents, xi bitmask, odd-aux
bitmask, even-aux exponents) with every reordering sign absorbed into
the exact complex-rational coefficient.  Ring arithmetic and the four
derivations run through the shared sparse term routines of `grassmann`;
the monomial rule here is `mul_mono` on these 4-tuples.  The exterior
differential d of the form algebra and the divergence b of the density
algebra are term rules too (`_exterior_d_terms`, `_divergence_terms`):
one pass over the terms, each term yielding its image terms with the
signs the products dx_a * dw/dx_a would carry, and no ring product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .grassmann import (
    _SCALARS,
    GeneratorMismatch,
    Parity,
    _hash,
    _map_terms,
    _neg,
    _parity,
    _product,
    _scale,
    _sum,
    indices_of,
    merge_sign,
)
from .scalars import CRat, _power

ExpTuple = tuple[tuple[int, int], ...]  # sorted ((index, exponent), ...)
Mono = tuple[ExpTuple, int, int, ExpTuple]  # (x_exps, xi_mask, aux_odd_mask, aux_even_exps)

EMPTY: ExpTuple = ()


class Kind(enum.Enum):
    FUNCTION = "function"
    FORM = "form"
    DENSITY = "density"


@dataclass(frozen=True)
class Carrier:
    """Generator universe: coordinate counts plus the auxiliary meaning."""

    n: int
    nu: int
    kind: Kind = Kind.FUNCTION

    def __post_init__(self):
        if self.n < 0 or self.nu < 0:
            raise ValueError("coordinate counts must be >= 0")

    def aux_labels(self) -> tuple[str, str]:
        if self.kind is Kind.FORM:
            return "dx", "dxi"
        if self.kind is Kind.DENSITY:
            return "@x", "@xi"  # slots along d/dx_a and d/dxi_alpha
        return "", ""


def _merge_exps(a: ExpTuple, b: ExpTuple) -> ExpTuple:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for idx, e in b:
        merged[idx] = merged.get(idx, 0) + e
    return tuple(sorted(merged.items()))


def _mono_parity(mono: Mono) -> int:
    return (mono[1].bit_count() + mono[2].bit_count()) & 1


def _mono_degree(mono: Mono) -> int:
    return mono[2].bit_count() + sum(e for _, e in mono[3])


def _d_exps(exps: ExpTuple, idx: int) -> tuple[ExpTuple, int] | None:
    """Lower the exponent of generator idx by one: (new exponents, old
    exponent), or None when idx is absent."""
    for pos, (i, e) in enumerate(exps):
        if i == idx:
            return exps[:pos] + (((i, e - 1),) if e > 1 else ()) + exps[pos + 1:], e
    return None


# term rules for _map_terms


def _d_x(mono: Mono, c: CRat, a: int):
    hit = _d_exps(mono[0], a)
    if hit is not None:
        return (hit[0], mono[1], mono[2], mono[3]), c * hit[1]


def _d_xi(mono: Mono, c: CRat, bit: int):
    x_exps, xi, ao, ae = mono
    if xi & bit:
        return (x_exps, xi & ~bit, ao, ae), -c if (xi & (bit - 1)).bit_count() & 1 else c


def _d_aux_odd(mono: Mono, c: CRat, bit: int):
    x_exps, xi, ao, ae = mono
    if ao & bit:
        before = xi.bit_count() + (ao & (bit - 1)).bit_count()
        return (x_exps, xi, ao & ~bit, ae), -c if before & 1 else c


def _d_aux_even(mono: Mono, c: CRat, alpha: int):
    hit = _d_exps(mono[3], alpha)
    if hit is not None:
        return (mono[0], mono[1], mono[2], hit[0]), c * hit[1]


# term generators for the differentials d and b


def _exterior_d_terms(terms: Mapping[Mono, CRat]):
    """Terms of dw = sum_A dx^A (dw/dx^A) on the form algebra.  Putting the
    odd dx_a in front passes every xi and the lower dx; dxi_alpha is even,
    so only d/dxi_alpha's own prefix sign counts."""
    for (x_exps, xi, ao, ae), c in terms.items():
        odd = xi.bit_count()
        for a, _ in x_exps:
            bit = 1 << (a - 1)
            if not ao & bit:
                lowered, e = _d_exps(x_exps, a)
                k = c * e
                yield (lowered, xi, ao | bit, ae), -k if (odd + (ao & (bit - 1)).bit_count()) & 1 else k
        rest = xi
        while rest:
            bit = rest & -rest
            rest ^= bit
            raised = _merge_exps(ae, ((bit.bit_length(), 1),))
            yield (x_exps, xi ^ bit, ao, raised), -c if (xi & (bit - 1)).bit_count() & 1 else c


def _divergence_terms(terms: Mapping[Mono, CRat]):
    """Terms of bw = sum_A d/dx^A applied to the first slot, the mirror of
    `_exterior_d_terms`: drop the x_a slot and lower x_a, or lower the
    xi_alpha slot and drop xi_alpha."""
    for (x_exps, xi, ao, ae), c in terms.items():
        odd = xi.bit_count()
        for a, _ in x_exps:
            bit = 1 << (a - 1)
            if ao & bit:
                lowered, e = _d_exps(x_exps, a)
                k = c * e
                yield (lowered, xi, ao ^ bit, ae), -k if (odd + (ao & (bit - 1)).bit_count()) & 1 else k
        for alpha, _ in ae:
            bit = 1 << (alpha - 1)
            if xi & bit:
                lowered, e = _d_exps(ae, alpha)
                k = c * e
                yield (x_exps, xi ^ bit, ao, lowered), -k if (xi & (bit - 1)).bit_count() & 1 else k


def mul_mono(a: Mono, b: Mono, nu: int) -> tuple[Mono, int] | None:
    """Product of canonical monomials: (result, sign), or None when an
    odd generator repeats."""
    if (a[1] & b[1]) or (a[2] & b[2]):
        return None
    odd_a = a[1] | (a[2] << nu)
    odd_b = b[1] | (b[2] << nu)
    sign = merge_sign(odd_a, odd_b)
    mono = (_merge_exps(a[0], b[0]), a[1] | b[1], a[2] | b[2], _merge_exps(a[3], b[3]))
    return mono, sign


class GradedPoly:
    """Sparse element of the graded-commutative algebra of a carrier."""

    __slots__ = ("carrier", "terms")

    def __init__(self, carrier: Carrier, terms: Mapping[Mono, CRat] | None = None, _canonical=False):
        object.__setattr__(self, "carrier", carrier)
        if terms is None:
            clean: dict[Mono, CRat] = {}
        elif _canonical:
            clean = terms  # a fresh dict, or the terms of another immutable element
        else:
            clean = {}
            for mono, c in terms.items():
                self._validate(carrier, mono)
                c = CRat.coerce(c)
                if not c.is_zero():
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoly is immutable")

    @staticmethod
    def _validate(carrier: Carrier, mono: Mono):
        x_exps, xi_mask, ao_mask, ae_exps = mono
        if xi_mask >> carrier.nu or any(not 1 <= i <= carrier.n or e <= 0 for i, e in x_exps):
            raise ValueError(f"monomial {mono} outside carrier {carrier}")
        if carrier.kind is Kind.FUNCTION and (ao_mask or ae_exps):
            raise ValueError("function carrier admits no auxiliary generators")
        if ao_mask >> carrier.n or any(not 1 <= i <= carrier.nu or e <= 0 for i, e in ae_exps):
            raise ValueError(f"monomial {mono} outside carrier {carrier}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(carrier: Carrier) -> "GradedPoly":
        return GradedPoly(carrier)

    @staticmethod
    def scalar(carrier: Carrier, value) -> "GradedPoly":
        c = CRat.coerce(Fraction(value) if isinstance(value, str) else value)
        if c.is_zero():
            return GradedPoly(carrier)
        return GradedPoly(carrier, {(EMPTY, 0, 0, EMPTY): c}, _canonical=True)

    @staticmethod
    def unit(carrier: Carrier) -> "GradedPoly":
        return GradedPoly.scalar(carrier, 1)

    @staticmethod
    def coordinate(carrier: Carrier, a: int) -> "GradedPoly":
        if not 1 <= a <= carrier.n:
            raise ValueError(f"even coordinate index {a} outside 1..{carrier.n}")
        return GradedPoly(carrier, {(((a, 1),), 0, 0, EMPTY): CRat(1)}, _canonical=True)

    @staticmethod
    def odd_coordinate(carrier: Carrier, alpha: int) -> "GradedPoly":
        if not 1 <= alpha <= carrier.nu:
            raise ValueError(f"odd coordinate index {alpha} outside 1..{carrier.nu}")
        return GradedPoly(carrier, {(EMPTY, 1 << (alpha - 1), 0, EMPTY): CRat(1)}, _canonical=True)

    @staticmethod
    def aux_odd(carrier: Carrier, a: int) -> "GradedPoly":
        """dx_a on a form carrier, the slot along d/dx_a on a density one."""
        if carrier.kind is Kind.FUNCTION:
            raise ValueError("function carrier has no auxiliary generators")
        if not 1 <= a <= carrier.n:
            raise ValueError(f"auxiliary index {a} outside 1..{carrier.n}")
        return GradedPoly(carrier, {(EMPTY, 0, 1 << (a - 1), EMPTY): CRat(1)}, _canonical=True)

    @staticmethod
    def aux_even(carrier: Carrier, alpha: int) -> "GradedPoly":
        """dxi_alpha on a form carrier, the slot along d/dxi_alpha else."""
        if carrier.kind is Kind.FUNCTION:
            raise ValueError("function carrier has no auxiliary generators")
        if not 1 <= alpha <= carrier.nu:
            raise ValueError(f"auxiliary index {alpha} outside 1..{carrier.nu}")
        return GradedPoly(carrier, {(EMPTY, 0, 0, ((alpha, 1),)): CRat(1)}, _canonical=True)

    # -- ring operations --------------------------------------------------

    def _check(self, other: "GradedPoly"):
        if self.carrier != other.carrier:
            raise GeneratorMismatch(f"carriers differ: {self.carrier} vs {other.carrier}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = GradedPoly.scalar(self.carrier, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check(other)
        return GradedPoly(self.carrier, _sum(self.terms, other.terms), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.carrier, _neg(self.terms), _canonical=True)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = GradedPoly.scalar(self.carrier, other)
        return self + (-other)

    def __rsub__(self, other):
        return GradedPoly.scalar(self.carrier, other) - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return GradedPoly(self.carrier, _scale(self.terms, CRat.coerce(other)), _canonical=True)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check(other)
        terms = _product(self.terms, other.terms, mul_mono, self.carrier.nu)
        return GradedPoly(self.carrier, terms, _canonical=True)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, GradedPoly.unit(self.carrier))

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = GradedPoly.scalar(self.carrier, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.carrier == other.carrier and self.terms == other.terms

    def __hash__(self):
        return _hash(self.carrier, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ------------------------------------------------------

    def parity(self) -> Parity:
        return _parity({_mono_parity(m) for m in self.terms})

    def degrees(self) -> set[int]:
        """Auxiliary degrees present (form degree / density degree)."""
        return {_mono_degree(m) for m in self.terms}

    def degree_part(self, p: int) -> "GradedPoly":
        return GradedPoly(
            self.carrier,
            {m: c for m, c in self.terms.items() if _mono_degree(m) == p},
            _canonical=True,
        )

    def parity_part(self, parity: int) -> "GradedPoly":
        return GradedPoly(
            self.carrier,
            {m: c for m, c in self.terms.items() if _mono_parity(m) == parity},
            _canonical=True,
        )

    # -- derivations ------------------------------------------------------

    def partial_x(self, a: int) -> "GradedPoly":
        """d/dx_a, an even derivation."""
        if not 1 <= a <= self.carrier.n:
            raise ValueError(f"index {a} outside 1..{self.carrier.n}")
        return GradedPoly(self.carrier, _map_terms(self.terms, _d_x, a), _canonical=True)

    def partial_xi(self, alpha: int) -> "GradedPoly":
        """Left derivative d/dxi_alpha, an odd derivation: anticommute
        xi_alpha to the front (past lower-index xi factors) and drop it."""
        if not 1 <= alpha <= self.carrier.nu:
            raise ValueError(f"index {alpha} outside 1..{self.carrier.nu}")
        return GradedPoly(self.carrier, _map_terms(self.terms, _d_xi, 1 << (alpha - 1)), _canonical=True)

    def partial_aux_odd(self, a: int) -> "GradedPoly":
        """Odd derivation along the odd auxiliary a (dx_a or the x_a slot);
        the prefix sign counts all xi factors plus lower odd auxiliaries."""
        if not 1 <= a <= self.carrier.n:
            raise ValueError(f"index {a} outside 1..{self.carrier.n}")
        return GradedPoly(self.carrier, _map_terms(self.terms, _d_aux_odd, 1 << (a - 1)), _canonical=True)

    def partial_aux_even(self, alpha: int) -> "GradedPoly":
        """Even derivation along the even auxiliary alpha."""
        if not 1 <= alpha <= self.carrier.nu:
            raise ValueError(f"index {alpha} outside 1..{self.carrier.nu}")
        return GradedPoly(self.carrier, _map_terms(self.terms, _d_aux_even, alpha), _canonical=True)

    # -- conversions ------------------------------------------------------

    def with_carrier(self, carrier: Carrier) -> "GradedPoly":
        """Reinterpret in another carrier over the same patch (embedding a
        function into a form/density algebra, or relabelling aux)."""
        if (carrier.n, carrier.nu) != (self.carrier.n, self.carrier.nu):
            raise GeneratorMismatch("carriers cover different coordinate patches")
        for mono in self.terms:
            self._validate(carrier, mono)
        return GradedPoly(carrier, self.terms, _canonical=True)

    def coefficient_function(self) -> "GradedPoly":
        """Drop to the function carrier; requires degree 0."""
        if any(_mono_degree(m) for m in self.terms):
            raise ValueError("element carries auxiliary generators")
        return self.with_carrier(Carrier(self.carrier.n, self.carrier.nu, Kind.FUNCTION))

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, CRat]]:
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __repr__(self):
        if self.is_zero():
            return "0"
        ao_label, ae_label = self.carrier.aux_labels()
        bits = []
        for (x_exps, xi, ao, ae), c in self.sorted_terms():
            factors = []
            for idx, e in x_exps:
                factors.append(f"x{idx}" + (f"^{e}" if e > 1 else ""))
            factors += [f"xi{i}" for i in indices_of(xi)]
            factors += [f"{ao_label}{i}" for i in indices_of(ao)]
            for idx, e in ae:
                factors.append(f"{ae_label}{idx}" + (f"^{e}" if e > 1 else ""))
            mono_txt = "*".join(factors) if factors else "1"
            bits.append(f"({c})*{mono_txt}")
        return " + ".join(bits)


def _mono_sort_key(mono: Mono):
    x_exps, xi, ao, ae = mono
    return (
        _mono_degree(mono),
        xi.bit_count(),
        indices_of(ao),
        ae,
        indices_of(xi),
        x_exps,
    )


def function_carrier(n: int, nu: int) -> Carrier:
    return Carrier(n, nu, Kind.FUNCTION)


def form_carrier(n: int, nu: int) -> Carrier:
    return Carrier(n, nu, Kind.FORM)


def density_carrier(n: int, nu: int) -> Carrier:
    return Carrier(n, nu, Kind.DENSITY)
