"""Lifting analytic functions of one variable to superanalytic functions.

Given the derivatives of f at an (exact rational) base point, the value on
a supernumber z is the Taylor sum around the body, which terminates after
N steps because the soul is nilpotent:

    f(z) = sum_{k=0}^{N} f^(k)(body(z)) soul(z)^k / k!

Seeds supply symbolic derivatives, so the whole pipeline stays exact.
Transcendental function values at nonzero rational points (for example
exp(1)) are not rational; those seeds restrict their exact domain
accordingly rather than rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .grassmann import Supernumber
from .scalars import CRat, parse_crat


class SeedDomainError(ValueError):
    """Base point outside the seed's exact domain."""


@dataclass(frozen=True)
class AnalyticSeed:
    """Derivative table of an analytic function.

    ``derivative(k, base)`` must return the exact k-th derivative at
    ``base`` for every 0 <= k <= N that a caller needs; raising
    :class:`SeedDomainError` marks base points it cannot represent
    exactly.
    """

    name: str
    derivative: Callable[[int, CRat], CRat]

    def value(self, base: CRat) -> CRat:
        return self.derivative(0, base)


def _at_zero(name: str, cycle: Sequence[int]) -> AnalyticSeed:
    """The seed exact only at base 0 whose k-th derivative there is
    cycle[k % len(cycle)]."""
    values = [CRat(c) for c in cycle]

    def derivative(k: int, base: CRat) -> CRat:
        if not base.is_zero():
            raise SeedDomainError(f"{name} is exact only at base 0")
        return values[k % len(values)]

    return AnalyticSeed(name, derivative)


def _reciprocal_derivative(k: int, base: CRat) -> CRat:
    if base.is_zero():
        raise SeedDomainError("reciprocal undefined at 0")
    return (CRat(-1) ** k) * math.factorial(k) / (base ** (k + 1))


def polynomial_seed(coeffs: Sequence) -> AnalyticSeed:
    """Seed for c0 + c1 t + c2 t^2 + ...; exact at every base point."""
    cs = [parse_crat(c) if isinstance(c, str) else CRat.coerce(c) for c in coeffs]

    def derivative(k: int, base: CRat) -> CRat:
        total = CRat(0)
        for m in range(k, len(cs)):
            total = total + cs[m] * math.perm(m, k) * base ** (m - k)
        return total

    return AnalyticSeed(name="polynomial", derivative=derivative)


EXP = _at_zero("exp", (1,))
EXP_NEG = _at_zero("exp_neg", (1, -1))
SIN = _at_zero("sin", (0, 1, 0, -1))
COS = _at_zero("cos", (1, 0, -1, 0))
RECIPROCAL = AnalyticSeed("reciprocal", _reciprocal_derivative)
IDENTITY = AnalyticSeed("identity", polynomial_seed([0, 1]).derivative)

_BUILTINS = {seed.name: seed for seed in (EXP, EXP_NEG, SIN, COS, RECIPROCAL, IDENTITY)}


def seed_by_name(name: str) -> AnalyticSeed:
    """Look up a built-in seed; ``polynomial:c0,c1,...`` builds one."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name.startswith("polynomial:"):
        return polynomial_seed(name.split(":", 1)[1].split(","))
    raise ValueError(f"unknown seed {name!r}; known: {sorted(_BUILTINS)} or polynomial:c0,c1,...")


def lift(seed: AnalyticSeed, z: Supernumber) -> Supernumber:
    """Superanalytic continuation of the seed, evaluated at z."""
    base = z.body()
    s = z.soul()
    out = Supernumber.scalar(z.n, seed.derivative(0, base))
    power = Supernumber.unit(z.n)
    factorial = 1
    for k in range(1, z.n + 1):
        power = power * s
        if power.is_zero():
            break
        factorial *= k
        out = out + power * (seed.derivative(k, base) / factorial)
    return out
