"""Cross-checks of the per-type monomial rules behind the shared sparse
term routines.

Supernumber multiplies its xi masks through its own rule, `_mask_mono`;
GradedPoly multiplies through `mul_mono`, written independently.  Mapping
a supernumber's terms into a GradedPoly carrier must commute with sums and
products, so a sign slip in one rule shows up here.  A naive product over
index tuples checks Supernumber without using the shared routines at all.
Polynomials in x and mixed functions sum_I f_I(x) xi^I are GradedPoly
already; the dense-exponent constructor of polynomials is checked against
products of coordinates.
"""

import random
from fractions import Fraction

import pytest

from supercalc import randomgen as rg
from supercalc.berezin import MixedFunction, from_json_mixed, to_json_mixed
from supercalc.graded_poly import GradedPoly, function_carrier
from supercalc.grassmann import Supernumber, indices_of, mask_of
from supercalc.polynomials import Polynomial
from supercalc.scalars import CRat


def as_graded(z: Supernumber) -> GradedPoly:
    return GradedPoly(function_carrier(0, z.n), {((), m, 0, ()): c for m, c in z.terms.items()})


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


def test_negative_powers_raise():
    for x in (
        Supernumber.generator(2, 1),
        Polynomial.variable(1, 1),
        GradedPoly.coordinate(function_carrier(1, 0), 1),
    ):
        with pytest.raises(ValueError):
            x ** -1


def test_dense_constructor_is_a_product_of_coordinates():
    rng = random.Random(12)
    for n in range(1, 4):
        carrier = function_carrier(n, 0)
        for _ in range(12):
            exps = [0] * n
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(n)] += 1
            c = rg.crat(rng)
            expected = GradedPoly.scalar(carrier, c)
            for a, e in enumerate(exps, start=1):
                expected = expected * GradedPoly.coordinate(carrier, a) ** e
            assert Polynomial(n, {tuple(exps): c}) == expected


def test_mixed_json_key_order():
    """Grassmann keys by mask; polynomial keys by total degree, then by
    the dense exponent tuple."""
    x1, x2 = (Polynomial.variable(2, a) for a in (1, 2))
    coeff = 3 * x2 ** 2 + x1 * x2 + Polynomial.constant(2, Fraction(1, 2)) + 5 * x1 ** 2 - x2 * CRat(0, 1)
    f = MixedFunction(2, 2, {0b10: coeff, 0b11: x2 * x1 ** 3, 0: x1})
    data = to_json_mixed(f)
    assert data == {
        "n": 2,
        "nu": 2,
        "terms": {
            "": {"1,0": "1"},
            "2": {"0,0": "1/2", "0,1": "-i", "0,2": "3", "1,1": "1", "2,0": "5"},
            "1,2": {"3,1": "1"},
        },
    }
    assert [list(p) for p in data["terms"].values()] == [["1,0"], ["0,0", "0,1", "0,2", "1,1", "2,0"], ["3,1"]]
    assert list(data["terms"]) == ["", "2", "1,2"]
    assert from_json_mixed(data) == f
