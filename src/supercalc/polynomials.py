"""Exact polynomials in n real variables over Q(i): the xi-free part of
the superfunction algebra, a `GradedPoly` on `function_carrier(n, 0)`.

This module adds the dense-exponent constructor `Polynomial`, the exact
box integral `integrate_box`, and the JSON format, whose keys are dense
exponent tuples such as "2,0".
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from .graded_poly import GradedPoly, function_carrier
from .scalars import CRat, parse_crat

Expts = tuple[int, ...]


class Polynomial(GradedPoly):
    """`Polynomial(2, {(2, 0): c})` is c*x1^2.  Arithmetic on it gives plain
    `GradedPoly` elements of the same carrier."""

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Expts, object] | None = None):
        carrier = function_carrier(n, 0)
        sparse = {}
        for exps, c in (terms or {}).items():
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n} variables")
            sparse[carrier.pack((tuple((i, e) for i, e in enumerate(exps, 1) if e), 0, 0, ()))] = c
        super().__init__(carrier, sparse)

    @property
    def n(self) -> int:
        return self.carrier.n


def _dense(p: GradedPoly, key: int) -> Expts:
    exps = dict(p.carrier.unpack(key)[0])
    return tuple(exps.get(i, 0) for i in range(1, p.carrier.n + 1))


def integrate_box(p: GradedPoly, bounds: Sequence[tuple]) -> CRat:
    """Exact definite integral of a polynomial over a product of intervals.

    A power bound^(k+1) with more decimal digits than the interpreter
    converts to text (`sys.get_int_max_str_digits`) is refused before it is
    formed: its cost grows with k without bound."""
    n = p.carrier.n
    if len(bounds) != n:
        raise ValueError("bounds/variable count mismatch")
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in bounds]
    scale = [max(math.log10(max(abs(e.numerator), e.denominator)) for e in ends) for ends in box]
    limit = sys.get_int_max_str_digits()
    total = CRat(0)
    for key, c in p.terms.items():
        factor = CRat(1)
        for i, k in enumerate(_dense(p, key)):
            lo, hi = box[i]
            digits = (k + 1) * scale[i]
            if limit and digits > limit:
                raise ValueError(f"x{i + 1}^{k} on [{lo}, {hi}]: about {digits:.0f} digits, more than {limit}")
            factor = factor * ((hi ** (k + 1) - lo ** (k + 1)) / (k + 1))
        total = total + c * factor
    return total


def from_json_poly(data: Mapping[str, str], n: int) -> Polynomial:
    terms: dict[Expts, CRat] = {}
    for key, val in data.items():
        exps = tuple(int(tok) for tok in key.split(",")) if key else (0,) * n
        if len(exps) != n:
            raise ValueError(f"exponent key {key!r} does not have {n} entries")
        terms[exps] = parse_crat(val)
    return Polynomial(n, terms)
