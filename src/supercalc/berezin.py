"""Berezin integration and mixed integro-differential integration.

The Berezin integral over nu Grassmann variables is the iterated left
derivative d/dxi_nu ... d/dxi_1 (innermost first), i.e. extraction of the
top-monomial coefficient.  It is the unique operator annihilated by, and
annihilating, the Grassmann derivatives, which makes DI = ID = 0 the
defining pair of properties.

A mixed function F(x, xi) = sum_I f_I(x) xi^I with polynomial
coefficients is an element of the superfunction algebra (DeWitt,
*Supermanifolds*, 1992): a `GradedPoly` on `function_carrier(n, nu)`,
built from its coefficients by `MixedFunction`.  A supernumber is the
case n = 0, so the one left derivative of the kernel, `partial_xi`,
serves both.  The Berezin integral of a superfunction is a polynomial in
x on `function_carrier(n, 0)`, and of a supernumber a scalar.  The
coefficients f_I are read and written through the kernel's
`split_xi`/`join_xi`.  A coefficient that is an arbitrary callable (the
quadrature path) makes a `BlackBox` instead, a record that only
integrates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from . import quadrature
from .exactmat import det, from_rows
from .graded_poly import (
    _SCALARS,
    GradedPoly,
    Kind,
    _element,
    function_carrier,
    join_xi,
    mask_of,
    merge_sign,
    split_xi,
)
from .grassmann import Supernumber
from .polynomials import from_json_poly, integrate_box
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


def grassmann_derivative(f, mu: int):
    """Left derivative d/dxi_mu: anticommute xi_mu to the front, drop it.

    Accepts a Supernumber or a superfunction and returns the same type.
    """
    return _exact(f).partial_xi(mu)


# -- Berezin integral ----------------------------------------------------


def berezin_integral(f, normalization: Normalization = Normalization.ONE):
    """Iterated left derivative d/dxi_nu ... d/dxi_1 applied to f.

    For a Supernumber this is the coefficient of the full monomial
    (a scalar); for a superfunction it is that coefficient as a polynomial
    in the real variables.  A non-unit normalization wraps scalar results
    in :class:`WeightedScalar`.
    """
    n, nu = _exact(f).carrier.n, f.carrier.nu
    for alpha in range(1, nu + 1):
        f = f.partial_xi(alpha)
    if isinstance(f, Supernumber):
        value = f.body()
        return value if normalization is Normalization.ONE else WeightedScalar(value, normalization.value)
    if normalization is not Normalization.ONE:
        raise TypeError("symbolic normalization applies to scalar results only")
    return split_xi(f).get(0, GradedPoly.zero(function_carrier(n, 0)))


# -- mixed functions -----------------------------------------------------


def _exact(f) -> GradedPoly:
    """f itself if it is a superfunction; a black box has no exact
    arithmetic."""
    if isinstance(f, GradedPoly) and f.carrier.kind is Kind.FUNCTION:
        return f
    raise TypeError(f"{type(f).__name__} is not a mixed function with polynomial coefficients")


def _coefficients(n: int, nu: int, terms: Mapping[int, object]):
    """The (mask, coefficient) pairs of a nested map: masks checked,
    scalars lifted to polynomials in n variables, callables as given."""
    ring = function_carrier(n, 0)
    for mask, coeff in terms.items():
        if not 0 <= mask < 1 << nu:
            raise ValueError(f"xi mask {mask} outside 0..{(1 << nu) - 1}")
        if isinstance(coeff, _SCALARS):
            coeff = GradedPoly.scalar(ring, coeff)
        if isinstance(coeff, GradedPoly):
            if coeff.carrier != ring:
                raise ValueError(f"coefficient over {coeff.carrier}, not a polynomial in {n} variables")
        elif not callable(coeff):
            raise TypeError(f"coefficient {coeff!r} is neither a polynomial nor a callable")
        yield mask, coeff


class MixedFunction(GradedPoly):
    """`MixedFunction(n, nu, {mask: f_I})` is sum_I f_I(x) xi^I, with each
    f_I a polynomial on `function_carrier(n, 0)` or a scalar.  Arithmetic
    on it gives plain `GradedPoly` elements of the same carrier.  A map
    with a callable coefficient gives a :class:`BlackBox`."""

    __slots__ = ()

    def __new__(cls, n: int, nu: int, terms: Mapping[int, Coefficient] | None = None):
        if terms and any(callable(c) for c in terms.values()):
            return BlackBox(n, nu, dict(_coefficients(n, nu, terms)))
        return super().__new__(cls)

    def __init__(self, n: int, nu: int, terms: Mapping[int, Coefficient] | None = None):
        flat = {
            join_xi(mask, key, nu): c
            for mask, coeff in _coefficients(n, nu, terms or {})
            for key, c in coeff.terms.items()
        }
        super().__init__(function_carrier(n, nu), flat)


@dataclass(frozen=True, eq=False)
class BlackBox:
    """A mixed function with a callable coefficient, kept as the nested
    map {xi mask: polynomial or callable}.  It only integrates: sums,
    products, equality and serialization need exact coefficients."""

    n: int
    nu: int
    terms: Mapping[int, Coefficient]

    def __eq__(self, other):
        raise TypeError("equality is exact only for polynomial coefficients")

    def top(self) -> Coefficient:
        """The coefficient of xi_1 ... xi_nu, which d/dxi_nu ... d/dxi_1
        returns with sign +1."""
        return self.terms.get((1 << self.nu) - 1, GradedPoly.zero(function_carrier(self.n, 0)))


def tensor_product(f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """F(x, xi) G(y, eta) as a function on the combined space; the second
    factor's real and Grassmann variables are relabelled after the first's,
    so no reordering signs arise and no two terms meet."""
    n, nu = _exact(f).carrier.n, f.carrier.nu
    out = function_carrier(n + _exact(g).carrier.n, nu + g.carrier.nu)
    g_nums = [(g.carrier.unpack(k), c) for k, c in g.nums.items()]
    nums = {
        out.pack((xf + tuple((i + n, e) for i, e in xg), mf | mg << nu, 0, ())): cf * cg
        for (xf, mf, _, _), cf in ((f.carrier.unpack(k), c) for k, c in f.nums.items())
        for (xg, mg, _, _), cg in g_nums
    }
    return _element(GradedPoly, out, nums, f.den * g.den)


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
    images = [sum((z * c for z, c in zip(zetas, row)), Supernumber.zero(nu)) for row in mat]

    def top_derivatives(g: Supernumber) -> CRat:
        for mu in range(g.n, 0, -1):  # operator product d_1 d_2 ... d_nu
            g = grassmann_derivative(g, mu)
        return g.body()

    return top_derivatives(f.substitute((), images)), d * top_derivatives(f)


# -- mixed integration ---------------------------------------------------


def mixed_integral(f, domain: Domain):
    """Berezin-integrate the Grassmann variables, then integrate the top
    coefficient over the real box.  Exact (CRat) for polynomial
    coefficients, floating point via quadrature for callables."""
    if not isinstance(f, BlackBox):
        return integrate_box(berezin_integral(f), domain.bounds)
    top = f.top()
    if not callable(top):
        return integrate_box(top, domain.bounds)
    if f.n != 1:
        raise NotImplementedError("quadrature path supports one real variable")
    (lo, hi), = domain.bounds
    return quadrature.integrate(top, float(lo), float(hi), tol=domain.tol)


def raised_components(d: GradedPoly) -> dict[int, GradedPoly]:
    """Index raising with the alternating symbol: for an ordered index set
    I with ordered complement J, the raised component is the sign of the
    (J, I) shuffle times the stored J component.  This is the placement
    that makes the pairing below agree exactly with multiplication
    followed by mixed integration."""
    groups = split_xi(_exact(d))
    full = (1 << d.carrier.nu) - 1
    out: dict[int, GradedPoly] = {}
    for mask_j, coeff in groups.items():
        mask_i = full & ~mask_j
        out[mask_i] = coeff if merge_sign(mask_j, mask_i) > 0 else -coeff
    return out


def lambda_apply(d: GradedPoly, f: GradedPoly) -> GradedPoly:
    """(Lambda F)(x, 0): contract the raised components of D against the
    left derivatives of F, lowest derivative index acting first.  At
    xi = 0 those derivatives along I leave exactly F's coefficient f_I."""
    raised, parts = raised_components(d), split_xi(_exact(f))
    d._check(f)
    total = GradedPoly.zero(function_carrier(f.carrier.n, 0))
    for mask_i, dcoeff in raised.items():
        part = parts.get(mask_i)
        if part is not None:
            total = total + dcoeff * part
    return total


def density_pairing(d: GradedPoly, f: GradedPoly, domain: Domain):
    """Pair a scalar density D against F through the integro-differential
    operator route; equals mixed_integral(D * F, domain) exactly for
    polynomial data."""
    return integrate_box(lambda_apply(d, f), domain.bounds)


# -- JSON ----------------------------------------------------------------


def from_json_mixed(
    data: Mapping, integrands: Mapping[str, Callable[[float], float]] | None = None
) -> GradedPoly | BlackBox:
    """The mixed function of a JSON object {"n", "nu", "terms"}: each term
    maps comma-joined Grassmann indices to a polynomial (see
    `from_json_poly`), or to a string naming a black-box coefficient in
    `integrands`."""
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
