"""Berezin integration and mixed integro-differential integration.

The Berezin integral over nu Grassmann variables is the iterated left
derivative d/dxi_nu ... d/dxi_1 (innermost first), i.e. extraction of the
top-monomial coefficient.  It is the unique operator annihilated by, and
annihilating, the Grassmann derivatives, which makes DI = ID = 0 the
defining pair of properties.

A mixed function F(x, xi) keeps, for every Grassmann multi-index, a
coefficient that is either an exact polynomial in the real variables or
an arbitrary callable (the quadrature path).  A polynomial coefficient is
the xi-free part of the superfunction algebra (DeWitt, *Supermanifolds*,
1992), a `GradedPoly` on `function_carrier(n, 0)`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from . import quadrature
from .exactmat import det, from_rows
from .grassmann import (
    GeneratorMismatch,
    Supernumber,
    _map_terms,
    _mask_mono,
    _product,
    _sum,
    indices_of,
    mask_of,
    merge_sign,
)
from .graded_poly import EMPTY, GradedPoly, function_carrier
from .polynomials import from_json_poly, integrate_box, to_json_poly
from .scalars import CRat

Coefficient = Union[GradedPoly, Callable[..., float]]


class Normalization(enum.Enum):
    """Prefactor of the Berezin integral, kept symbolic for exactness."""

    ONE = 0
    SQRT_2PI_I = 1  # (2 pi i)^{1/2}
    INV_SQRT_2PI_I = -1  # (2 pi i)^{-1/2}


@dataclass(frozen=True)
class WeightedScalar:
    """An exact scalar times (2 pi i)^{half_power/2}."""

    coeff: CRat
    half_power: int = 0

    def __mul__(self, other: "WeightedScalar") -> "WeightedScalar":
        return WeightedScalar(self.coeff * other.coeff, self.half_power + other.half_power)

    def __complex__(self) -> complex:
        return complex(self.coeff) * complex(2j * math.pi) ** (self.half_power / 2)


@dataclass(frozen=True)
class Domain:
    """Box of integration for the real variables, plus a quadrature
    tolerance for black-box coefficients."""

    bounds: tuple[tuple, ...]
    tol: float = 1e-10

    @staticmethod
    def box(*bounds) -> "Domain":
        return Domain(tuple((lo, hi) for lo, hi in bounds))


# -- Grassmann derivative ------------------------------------------------


def _derive_term(mask: int, coeff, bit: int):
    """Left derivative of one term along the generator `bit`, or None."""
    if mask & bit:
        return mask & ~bit, _negate(coeff) if (mask & (bit - 1)).bit_count() & 1 else coeff


def grassmann_derivative(f, mu: int):
    """Left derivative d/dxi_mu: anticommute xi_mu to the front, drop it.

    Accepts a Supernumber or a MixedFunction and returns the same type.
    """
    if isinstance(f, Supernumber):
        if not 1 <= mu <= f.n:
            raise ValueError(f"generator index {mu} outside 1..{f.n}")
        return Supernumber(f.n, _map_terms(f.terms, _derive_term, 1 << (mu - 1)), _canonical=True)
    if isinstance(f, MixedFunction):
        if not 1 <= mu <= f.nu:
            raise ValueError(f"generator index {mu} outside 1..{f.nu}")
        terms = _map_terms(f.terms, _derive_term, 1 << (mu - 1))
        return MixedFunction(f.n, f.nu, terms, _canonical=True)
    raise TypeError(f"cannot differentiate {type(f).__name__}")


def _negate(coeff: Coefficient) -> Coefficient:
    if callable(coeff):
        return lambda *xs, _c=coeff: -_c(*xs)
    return -coeff


# -- Berezin integral ----------------------------------------------------


def berezin_integral(f, normalization: Normalization = Normalization.ONE):
    """Iterated left derivative d/dxi_nu ... d/dxi_1 applied to f.

    For a Supernumber this is the coefficient of the full monomial
    (a scalar); for a MixedFunction it is that coefficient as a function
    of the real variables.  A non-unit normalization wraps scalar results
    in :class:`WeightedScalar`.
    """
    if isinstance(f, Supernumber):
        result = f
        for mu in range(1, f.n + 1):
            result = grassmann_derivative(result, mu)
        value = result.body()
        if normalization is Normalization.ONE:
            return value
        return WeightedScalar(value, normalization.value)
    if isinstance(f, MixedFunction):
        result = f
        for mu in range(1, f.nu + 1):
            result = grassmann_derivative(result, mu)
        if normalization is not Normalization.ONE:
            raise TypeError("symbolic normalization applies to scalar results only")
        return result.terms.get(0, GradedPoly.zero(function_carrier(f.n, 0)))
    raise TypeError(f"cannot integrate {type(f).__name__}")


# -- mixed functions -----------------------------------------------------


class MixedFunction:
    """F(x, xi) = sum over Grassmann multi-indices of f_I(x) xi^I."""

    __slots__ = ("n", "nu", "terms")

    def __init__(self, n: int, nu: int, terms: Mapping[int, Coefficient] | None = None, _canonical=False):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nu", nu)
        clean: dict[int, Coefficient] = {}
        if terms:
            ring = function_carrier(n, 0)
            for mask, coeff in terms.items():
                if mask < 0 or mask >= 1 << nu:
                    raise ValueError(f"multi-index {indices_of(mask)} exceeds {nu} generators")
                if isinstance(coeff, (int, Fraction, CRat)):
                    coeff = GradedPoly.scalar(ring, coeff)
                if isinstance(coeff, GradedPoly):
                    if coeff.carrier != ring:
                        raise ValueError(f"coefficient over {coeff.carrier}, not a polynomial in {n} variables")
                    if not _canonical and coeff.is_zero():
                        continue
                clean[mask] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MixedFunction is immutable")

    @staticmethod
    def from_indices(n: int, nu: int, terms: Mapping[tuple[int, ...], Coefficient]) -> "MixedFunction":
        return MixedFunction(n, nu, {mask_of(idx, nu): c for idx, c in terms.items()})

    def is_polynomial(self) -> bool:
        return all(isinstance(c, GradedPoly) for c in self.terms.values())

    def _check(self, other: "MixedFunction"):
        if (self.n, self.nu) != (other.n, other.nu):
            raise GeneratorMismatch("mixed functions over different spaces")

    def __add__(self, other: "MixedFunction") -> "MixedFunction":
        self._check(other)
        if not (self.is_polynomial() and other.is_polynomial()):
            raise TypeError("addition needs polynomial coefficients")
        return MixedFunction(self.n, self.nu, _sum(self.terms, other.terms), _canonical=True)

    def __neg__(self):
        return MixedFunction(
            self.n, self.nu, {m: _negate(c) for m, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "MixedFunction") -> "MixedFunction":
        self._check(other)
        if not (self.is_polynomial() and other.is_polynomial()):
            raise TypeError("products need polynomial coefficients")
        terms = _product(self.terms, other.terms, _mask_mono, 0)
        return MixedFunction(self.n, self.nu, terms, _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, MixedFunction):
            return NotImplemented
        if (self.n, self.nu) != (other.n, other.nu):
            return False
        if not (self.is_polynomial() and other.is_polynomial()):
            raise TypeError("equality is exact only for polynomial coefficients")
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("unhashable")

    def top_coefficient(self) -> Coefficient:
        full = (1 << self.nu) - 1
        return self.terms.get(full, GradedPoly.zero(function_carrier(self.n, 0)))

    def __repr__(self):
        bits = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), indices_of(m))):
            mono = "^".join(f"xi{i}" for i in indices_of(mask)) or "1"
            bits.append(f"({self.terms[mask]!r})*{mono}")
        return f"MixedFunction({self.n}|{self.nu}: " + (" + ".join(bits) or "0") + ")"


def tensor_product(f: MixedFunction, g: MixedFunction) -> MixedFunction:
    """F(x, xi) G(y, eta) as a function on the combined space; the second
    factor's real and Grassmann variables are relabelled after the first's,
    so no reordering signs arise."""
    if not (f.is_polynomial() and g.is_polynomial()):
        raise TypeError("tensor products need polynomial coefficients")
    n = f.n + g.n
    ring = function_carrier(n, 0)
    lift_f = {m: GradedPoly(ring, p.terms, _canonical=True) for m, p in f.terms.items()}
    lift_g = {}
    for m, p in g.terms.items():
        shifted = {(tuple((i + f.n, e) for i, e in mono[0]), 0, 0, EMPTY): c for mono, c in p.terms.items()}
        lift_g[m << f.nu] = GradedPoly(ring, shifted, _canonical=True)
    return MixedFunction(n, f.nu + g.nu, _product(lift_f, lift_g, _mask_mono, 0), _canonical=True)


# -- change of variables -------------------------------------------------


def change_of_variables_check(f: Supernumber, a: Sequence[Sequence]) -> tuple[CRat, CRat]:
    """Both sides of the linear substitution rule for Berezin integrals.

    With theta = A zeta, returns (lhs, rhs) where

        lhs = d/dzeta_1 ... d/dzeta_nu applied to F(A zeta)
        rhs = det(A) * d/dtheta_1 ... d/dtheta_nu applied to F

    Derivative products are composed right-to-left (the highest-index
    derivative acts first) on both sides.
    """
    nu = f.n
    mat = from_rows(a)
    if len(mat) != nu or any(len(r) != nu for r in mat):
        raise ValueError(f"substitution matrix must be {nu} x {nu}")
    d = det(mat)
    if d.is_zero():
        raise ValueError("substitution matrix is singular")
    zetas = Supernumber.generators(nu)
    images = []
    for i in range(nu):
        img = Supernumber.zero(nu)
        for j in range(nu):
            img = img + zetas[j] * mat[i][j]
        images.append(img)
    composed = Supernumber.zero(nu)
    for mask, c in f.terms.items():
        term = Supernumber.scalar(nu, c)
        for idx in indices_of(mask):
            term = term * images[idx - 1]
        composed = composed + term

    def top_derivatives(g: Supernumber) -> CRat:
        for mu in range(g.n, 0, -1):  # operator product d_1 d_2 ... d_nu
            g = grassmann_derivative(g, mu)
        return g.body()

    return top_derivatives(composed), d * top_derivatives(f)


# -- mixed integration ---------------------------------------------------


def mixed_integral(f: MixedFunction, domain: Domain):
    """Berezin-integrate the Grassmann variables, then integrate the top
    coefficient over the real box.  Exact (CRat) for polynomial
    coefficients, floating point via quadrature for callables."""
    top = berezin_integral(f)
    if isinstance(top, GradedPoly):
        return integrate_box(top, domain.bounds)
    if f.n != 1:
        raise NotImplementedError("quadrature path supports one real variable")
    (lo, hi), = domain.bounds
    return quadrature.integrate(top, float(lo), float(hi), tol=domain.tol)


def raised_components(d: MixedFunction) -> dict[int, GradedPoly]:
    """Index raising with the alternating symbol: for an ordered index set
    I with ordered complement J, the raised component is the sign of the
    (J, I) shuffle times the stored J component.  This is the placement
    that makes the pairing below agree exactly with multiplication
    followed by mixed integration."""
    if not d.is_polynomial():
        raise TypeError("index raising needs polynomial coefficients")
    full = (1 << d.nu) - 1
    out: dict[int, GradedPoly] = {}
    for mask_j, coeff in d.terms.items():
        mask_i = full & ~mask_j
        sign = merge_sign(mask_j, mask_i)
        out[mask_i] = coeff if sign > 0 else -coeff
    return out


def lambda_apply(d: MixedFunction, f: MixedFunction) -> GradedPoly:
    """(Lambda F)(x, 0): contract the raised components of D against the
    left derivatives of F, lowest derivative index acting first."""
    d._check(f)
    if not f.is_polynomial():
        raise TypeError("Lambda operator needs polynomial coefficients")
    total = GradedPoly.zero(function_carrier(f.n, 0))
    for mask_i, dcoeff in raised_components(d).items():
        g = f
        for idx in indices_of(mask_i):
            g = grassmann_derivative(g, idx)
        part = g.terms.get(0)
        if part is None:
            continue
        total = total + dcoeff * part
    return total


def density_pairing(d: MixedFunction, f: MixedFunction, domain: Domain):
    """Pair a scalar density D against F through the integro-differential
    operator route; equals mixed_integral(D * F, domain) exactly for
    polynomial data."""
    return integrate_box(lambda_apply(d, f), domain.bounds)


# -- JSON ----------------------------------------------------------------


def to_json_mixed(f: MixedFunction) -> dict:
    if not f.is_polynomial():
        raise TypeError("only polynomial mixed functions serialize")
    return {
        "n": f.n,
        "nu": f.nu,
        "terms": {
            ",".join(str(i) for i in indices_of(mask)): to_json_poly(coeff)
            for mask, coeff in sorted(f.terms.items())
        },
    }


def from_json_mixed(
    data: Mapping, integrands: Mapping[str, Callable[[float], float]] | None = None
) -> MixedFunction:
    """Inverse of :func:`to_json_mixed`.  A term whose value is a string
    names a black-box coefficient in `integrands`."""
    n, nu = int(data["n"]), int(data["nu"])
    integrands = integrands or {}
    if not isinstance(data.get("terms"), Mapping):
        raise ValueError('"terms" is missing or not a JSON object')
    terms: dict[int, Coefficient] = {}
    for key, value in data["terms"].items():
        mask = mask_of(tuple(int(tok) for tok in key.split(",")) if key else (), nu)
        if isinstance(value, str):
            if value not in integrands:
                raise ValueError(f"unknown integrand {value!r}; known: {sorted(integrands)}")
            terms[mask] = integrands[value]
        elif isinstance(value, Mapping):
            terms[mask] = from_json_poly(value, n)
        else:
            raise ValueError(f"term {key!r}: {value!r} is neither a polynomial nor an integrand")
    return MixedFunction(n, nu, terms)
