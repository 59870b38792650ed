"""Cross-checks of the per-type monomial rules behind the shared sparse
term routines.

Supernumber, Polynomial and MixedFunction each multiply through their own
monomial rule; GradedPoly multiplies through `mul_mono`, written
independently.  Mapping one type's terms into a GradedPoly carrier must
commute with sums and products, so a sign or exponent slip in one rule
shows up here.  A naive product over index tuples checks Supernumber
without using the shared routines at all.
"""

import random

import pytest

from supercalc import randomgen as rg
from supercalc.forms import function_to_mixed, function_to_polynomial
from supercalc.graded_poly import EMPTY, GradedPoly, function_carrier
from supercalc.grassmann import Supernumber, indices_of, mask_of
from supercalc.polynomials import Polynomial
from supercalc.scalars import CRat


def as_graded(z: Supernumber) -> GradedPoly:
    return GradedPoly(function_carrier(0, z.n), {((), m, 0, ()): c for m, c in z.terms.items()})


def poly_as_graded(p) -> GradedPoly:
    terms = {}
    for exps, c in p.terms.items():
        terms[(tuple((i + 1, e) for i, e in enumerate(exps) if e), 0, 0, EMPTY)] = c
    return GradedPoly(function_carrier(p.n, 0), terms)


def mixed_as_graded(f) -> GradedPoly:
    terms = {}
    for mask, p in f.terms.items():
        for exps, c in p.terms.items():
            terms[(tuple((i + 1, e) for i, e in enumerate(exps) if e), mask, 0, EMPTY)] = c
    return GradedPoly(function_carrier(f.n, f.nu), terms)


def naive_product(a: Supernumber, b: Supernumber) -> Supernumber:
    """Concatenate index tuples and bubble-sort them, one sign per swap."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            word = list(indices_of(ma) + indices_of(mb))
            if len(set(word)) < len(word):
                continue
            sign = 1
            for i in range(len(word)):
                for j in range(len(word) - 1 - i):
                    if word[j] > word[j + 1]:
                        word[j], word[j + 1] = word[j + 1], word[j]
                        sign = -sign
            key = tuple(word)
            out[key] = out.get(key, CRat(0)) + ca * cb * sign
    return Supernumber(a.n, {mask_of(k, a.n): c for k, c in out.items()})


def test_supernumber_rule_matches_graded_poly():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(12):
            a = rg.supernumber(rng, n, terms=rng.randint(1, 8))
            b = rg.supernumber(rng, n, terms=rng.randint(1, 8))
            assert as_graded(a + b) == as_graded(a) + as_graded(b)
            assert as_graded(a - b) == as_graded(a) - as_graded(b)
            assert as_graded(a * b) == as_graded(a) * as_graded(b)
            assert a * b == naive_product(a, b)
            assert as_graded(a ** 3) == as_graded(a) ** 3


def test_polynomial_rule_matches_graded_poly():
    rng = random.Random(12)
    for n in range(1, 4):
        for _ in range(12):
            p = rg.polynomial(rng, n, max_degree=3, terms=rng.randint(1, 5))
            q = rg.polynomial(rng, n, max_degree=3, terms=rng.randint(1, 5))
            assert function_to_polynomial(poly_as_graded(p) * poly_as_graded(q)) == p * q
            assert function_to_polynomial(poly_as_graded(p) + poly_as_graded(q)) == p + q
            assert function_to_polynomial(poly_as_graded(p) ** 2) == p ** 2


def test_mixed_function_rule_matches_graded_poly():
    rng = random.Random(13)
    for n, nu in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
        for _ in range(8):
            f = rg.mixed_function(rng, n, nu)
            g = rg.mixed_function(rng, n, nu)
            assert function_to_mixed(mixed_as_graded(f) * mixed_as_graded(g)) == f * g
            assert function_to_mixed(mixed_as_graded(f) + mixed_as_graded(g)) == f + g


def test_negative_powers_raise():
    for x in (
        Supernumber.generator(2, 1),
        Polynomial.variable(1, 1),
        GradedPoly.coordinate(function_carrier(1, 0), 1),
    ):
        with pytest.raises(ValueError):
            x ** -1
