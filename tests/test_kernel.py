"""Cross-checks of the one graded kernel.

Every ring element is a `GradedPoly` with int-packed monomial keys: a
product adds keys, and the odd generators' reordering sign comes from
their low bits.  The rules below are an independent copy of the earlier
tuple-keyed kernel, whose monomials were (x exponents, xi mask, odd-aux
mask, even-aux exponents): `mul_mono` merged exponent pairs through
dicts and the derivations walked the pairs.  On seeded elements of every
carrier kind over every patch with 0 <= n, nu <= 3, products, the four
partial derivatives, d and b must agree with the packed kernel term for
term, read through `Carrier.unpack`.  The test-side rules count their
signs by pairwise comparison of generator labels and share no code with
the kernel.  A naive product over index tuples checks `Supernumber`,
whose keys are the xi masks themselves.  Exponents past the field width
are refused, and the dense-exponent constructor of polynomials is
checked against products of coordinates.  `GradedPoly.substitute` is
checked by properties that use no substitution code: the generators as
their own images leave every element unchanged, scalars for the x_a
evaluate each term's x monomial, and substitution of random linear
images is multiplicative.
"""

import math
import random
from fractions import Fraction

import pytest

from supercalc import randomgen as rg
from supercalc.berezin import MixedFunction, from_json_mixed
from supercalc.forms import CoordinateSystem, op_d_form, op_divergence
from supercalc.graded_poly import (
    FIELD,
    MAX_EXPONENT,
    Carrier,
    GradedPoly,
    Kind,
    density_carrier,
    form_carrier,
    function_carrier,
    indices_of,
    mask_of,
)
from supercalc.grassmann import Supernumber
from supercalc.polynomials import Polynomial
from supercalc.scalars import CRat

PATCHES = [(n, nu) for n in range(4) for nu in range(4)]
CARRIERS = [make(n, nu) for n, nu in PATCHES for make in (function_carrier, form_carrier, density_carrier)]


# -- the tuple-keyed rules, kept test-side ----------------------------------


def _sign(a: int, b: int) -> int:
    """Sign of sorting the generators of mask a followed by those of b."""
    bits_a, bits_b = ([i for i in range(m.bit_length()) if m >> i & 1] for m in (a, b))
    swaps = sum(1 for i in bits_a for j in bits_b if i > j)
    return -1 if swaps % 2 else 1


def _merge_exps(a, b):
    merged = dict(a)
    for idx, e in b:
        merged[idx] = merged.get(idx, 0) + e
    return tuple(sorted(merged.items()))


def mul_mono(a, b, nu):
    if (a[1] & b[1]) or (a[2] & b[2]):
        return None
    sign = _sign(a[1] | (a[2] << nu), b[1] | (b[2] << nu))
    return (_merge_exps(a[0], b[0]), a[1] | b[1], a[2] | b[2], _merge_exps(a[3], b[3])), sign


def _d_exps(exps, idx):
    for pos, (i, e) in enumerate(exps):
        if i == idx:
            return exps[:pos] + (((i, e - 1),) if e > 1 else ()) + exps[pos + 1:], e
    return None


def _d_x(mono, c, a):
    hit = _d_exps(mono[0], a)
    if hit is not None:
        return (hit[0], mono[1], mono[2], mono[3]), c * hit[1]


def _d_xi(mono, c, bit):
    x_exps, xi, ao, ae = mono
    if xi & bit:
        return (x_exps, xi & ~bit, ao, ae), -c if (xi & (bit - 1)).bit_count() & 1 else c


def _d_aux_odd(mono, c, bit):
    x_exps, xi, ao, ae = mono
    if ao & bit:
        before = xi.bit_count() + (ao & (bit - 1)).bit_count()
        return (x_exps, xi, ao & ~bit, ae), -c if before & 1 else c


def _d_aux_even(mono, c, alpha):
    hit = _d_exps(mono[3], alpha)
    if hit is not None:
        return (mono[0], mono[1], mono[2], hit[0]), c * hit[1]


def _exterior_d_terms(terms):
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


def _divergence_terms(terms):
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


def _collect(pairs) -> dict:
    out = {}
    for mono, c in pairs:
        out[mono] = out.get(mono, CRat(0)) + c
    return {mono: c for mono, c in out.items() if not c.is_zero()}


def old_product(a: dict, b: dict, nu: int) -> dict:
    hits = ((mul_mono(ma, mb, nu), ca * cb) for ma, ca in a.items() for mb, cb in b.items())
    return _collect((hit[0], c * hit[1]) for hit, c in hits if hit is not None)


def old_map(terms: dict, rule, arg) -> dict:
    return _collect(filter(None, (rule(m, c, arg) for m, c in terms.items())))


# -- seeded elements -----------------------------------------------------------


def random_view(rng, carrier, count=4) -> dict:
    """A seeded element in the tuple view, with exponents up to 3."""
    aux = carrier.kind is not Kind.FUNCTION
    out = {}
    for _ in range(count):
        x = tuple((a, rng.randint(1, 3)) for a in range(1, carrier.n + 1) if rng.random() < 0.5)
        xi = rng.randrange(1 << carrier.nu)
        ao = rng.randrange(1 << carrier.n) if aux else 0
        ae = tuple((al, rng.randint(1, 3)) for al in range(1, carrier.nu + 1) if aux and rng.random() < 0.4)
        out[(x, xi, ao, ae)] = rg.crat(rng)
    return {m: c for m, c in out.items() if not c.is_zero()}


def packed(carrier, view: dict) -> GradedPoly:
    return GradedPoly(carrier, {carrier.pack(m): c for m, c in view.items()})


def view_of(f: GradedPoly) -> dict:
    assert all(type(k) is int for k in f.terms)
    return {f.carrier.unpack(k): c for k, c in f.terms.items()}


@pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: f"{c.kind.value}-{c.n}-{c.nu}")
def test_packed_kernel_matches_tuple_rules(carrier):
    rng = random.Random(f"{carrier.kind.value}-{carrier.n}-{carrier.nu}")
    n, nu = carrier.n, carrier.nu
    for _ in range(6):
        a, b = random_view(rng, carrier), random_view(rng, carrier)
        pa, pb = packed(carrier, a), packed(carrier, b)
        assert view_of(pa) == a
        assert view_of(pa * pb) == old_product(a, b, nu)
        for i in range(1, n + 1):
            assert view_of(pa.partial_x(i)) == old_map(a, _d_x, i)
            assert view_of(pa.partial_aux_odd(i)) == old_map(a, _d_aux_odd, 1 << (i - 1))
        for i in range(1, nu + 1):
            assert view_of(pa.partial_xi(i)) == old_map(a, _d_xi, 1 << (i - 1))
            assert view_of(pa.partial_aux_even(i)) == old_map(a, _d_aux_even, i)
        for derive, count in ((pa.partial_x, n), (pa.partial_aux_odd, n), (pa.partial_xi, nu), (pa.partial_aux_even, nu)):
            for i in (0, count + 1):
                with pytest.raises(ValueError, match=rf"index {i} outside 1\.\.{count}$"):
                    derive(i)
        coords = CoordinateSystem(n, nu)
        if carrier.kind is Kind.FORM:
            assert view_of(op_d_form(coords)(pa)) == _collect(_exterior_d_terms(a))
        if carrier.kind is Kind.DENSITY:
            assert view_of(op_divergence(coords)(pa)) == _collect(_divergence_terms(a))


@pytest.mark.parametrize("n, nu", PATCHES)
def test_builders_write_int_keys(n, nu):
    rng = random.Random(10 * n + nu)
    coords = CoordinateSystem(n, nu)
    elements = [rg.superfunction(rng, coords), rg.mixed_function(rng, n, nu)]
    elements += [rg.form(rng, coords, 2), rg.density(rng, coords, 2), rg.supernumber(rng, nu)]
    for f in elements:
        assert {f.carrier.pack(m) for m in view_of(f)} == set(f.terms)


def test_supernumber_keys_are_xi_masks():
    z = Supernumber.generator(2, 1) * Supernumber.generator(2, 2)
    assert type(z) is Supernumber and z.terms == {0b11: CRat(1)}
    assert function_carrier(0, 3).pack(((), 0b101, 0, ())) == 0b101


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
            assert a * b == naive_product(a, b)


# -- exponent limits -----------------------------------------------------------


def test_exponent_overflow_is_refused():
    ring = function_carrier(2, 1)
    x1, x2 = GradedPoly.coordinate(ring, 1), GradedPoly.coordinate(ring, 2)
    with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}"):
        x1 ** 2**31
    with pytest.raises(ValueError, match=f"exponent {2**31} exceeds {MAX_EXPONENT}"):
        Polynomial(1, {(2**31,): 1})
    top = x1 ** 2**30 * x1 ** (2**30 - 1)
    assert view_of(top) == {(((1, MAX_EXPONENT),), 0, 0, ()): CRat(1)}
    both = top * x2 ** MAX_EXPONENT
    assert view_of(both) == {(((1, MAX_EXPONENT), (2, MAX_EXPONENT)), 0, 0, ()): CRat(1)}
    with pytest.raises(ValueError, match="exceeds"):
        both * x1
    with pytest.raises(ValueError, match="exceeds"):
        x2 * both
    forms = form_carrier(1, 1)
    w = GradedPoly(forms, {forms.pack(((), 1, 0, ((1, MAX_EXPONENT),))): 1})
    with pytest.raises(ValueError, match="exceeds"):
        op_d_form(CoordinateSystem(1, 1))(w)


def test_guards_are_the_top_bit_of_every_field():
    """`Carrier.guards` in closed form equals the sum of the guard bits,
    one per exponent field of the n + nu even generators and auxiliaries."""
    for base in range(301):
        expected = sum(1 << (base + FIELD * k - 1) for k in range(1, base + 1))
        for kind in Kind:
            carrier = Carrier(base // 2, base - base // 2, kind)
            assert carrier.guards == expected, (base, kind)
            assert carrier.guards & carrier.allowed == 0


def test_negative_powers_raise():
    for x in (
        Supernumber.generator(2, 1),
        Polynomial(1, {(1,): 1}),
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
    """`from_json_mixed` reads Grassmann keys and the dense exponent keys of
    each polynomial in any order."""
    ring = function_carrier(2, 0)
    x1, x2 = (GradedPoly.coordinate(ring, a) for a in (1, 2))
    coeff = 3 * x2 ** 2 + x1 * x2 + GradedPoly.scalar(ring, Fraction(1, 2)) + 5 * x1 ** 2 - x2 * CRat(0, 1)
    f = MixedFunction(2, 2, {0b10: coeff, 0b11: x2 * x1 ** 3, 0: x1})
    terms = {
        "": {"1,0": "1"},
        "2": {"0,0": "1/2", "0,1": "-i", "0,2": "3", "1,1": "1", "2,0": "5"},
        "1,2": {"3,1": "1"},
    }
    assert from_json_mixed({"n": 2, "nu": 2, "terms": terms}) == f
    shuffled = {key: dict(reversed(poly.items())) for key, poly in reversed(terms.items())}
    assert list(shuffled) == ["1,2", "2", ""] and list(shuffled["2"])[0] == "2,0"
    assert from_json_mixed({"terms": shuffled, "nu": 2, "n": 2}) == f


# -- substitution --------------------------------------------------------------


def _generators(carrier: Carrier) -> tuple[list, list]:
    """The x_a, and the odd generators in key-bit order: the xi_alpha, then
    the odd auxiliaries of a form or density carrier."""
    xs = [GradedPoly.coordinate(carrier, a) for a in range(1, carrier.n + 1)]
    odd = [GradedPoly.odd_coordinate(carrier, alpha) for alpha in range(1, carrier.nu + 1)]
    if carrier.kind is not Kind.FUNCTION:
        odd += [GradedPoly.aux_odd(carrier, a) for a in range(1, carrier.n + 1)]
    return xs, odd


def _linear(rng, gens: list, zero: GradedPoly) -> GradedPoly:
    """A seeded linear combination of gens."""
    return sum((g * rg.crat(rng) for g in gens), zero)


@pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: f"{c.kind.value}-{c.n}-{c.nu}")
def test_substituting_each_generator_for_itself_changes_nothing(carrier):
    rng = random.Random(f"substitute-{carrier.kind.value}-{carrier.n}-{carrier.nu}")
    xs, odd = _generators(carrier)
    for _ in range(6):
        f = packed(carrier, random_view(rng, carrier))
        assert f.substitute(xs, odd) == f


@pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: f"{c.kind.value}-{c.n}-{c.nu}")
def test_substituting_scalars_for_x_evaluates_the_x_part(carrier):
    """With x_a -> t_a and the odd generators kept, each term's x monomial
    becomes prod t_a^e, evaluated here on the tuple view."""
    rng = random.Random(f"evaluate-{carrier.kind.value}-{carrier.n}-{carrier.nu}")
    _, odd = _generators(carrier)
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(carrier.n)]
    x_images = [GradedPoly.scalar(carrier, t) for t in values]
    for _ in range(6):
        view, want = random_view(rng, carrier), {}
        for (x, xi, ao, ae), c in view.items():
            rest = ((), xi, ao, ae)
            want[rest] = want.get(rest, 0) + c * math.prod(values[a - 1] ** e for a, e in x)
        assert packed(carrier, view).substitute(x_images, odd) == packed(carrier, want)


def test_substituting_linear_images_is_multiplicative():
    """Substitution is a ring map: on random linear images of the
    generators, substituting into a product gives the product of the
    substitutions.  On the (2, 2) form carrier the even auxiliaries dxi
    stay; on Lambda_3 the result is a `Supernumber`."""
    rng = random.Random(32)
    coords = CoordinateSystem(2, 2)
    zero = GradedPoly.zero(coords.forms)
    xs, odd = _generators(coords.forms)
    for _ in range(4):
        x_images = [_linear(rng, xs, zero) for _ in xs]
        odd_images = [_linear(rng, odd, zero) for _ in odd]
        f, g = (sum((rg.form(rng, coords, p) for p in range(3)), zero) for _ in range(2))
        left = (f * g).substitute(x_images, odd_images)
        assert left == f.substitute(x_images, odd_images) * g.substitute(x_images, odd_images)
    zetas = Supernumber.generators(3)
    for _ in range(12):
        images = [_linear(rng, zetas, Supernumber.zero(3)) for _ in zetas]
        a, b = rg.supernumber(rng, 3), rg.supernumber(rng, 3)
        assert type(a.substitute((), images)) is Supernumber
        assert (a * b).substitute((), images) == a.substitute((), images) * b.substitute((), images)
