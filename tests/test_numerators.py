"""The stored form of the graded kernel: integer numerators over one
element denominator.

A reference model keeps every coefficient as a pair of `Fraction`s (real
and imaginary part) and runs the kernel's term rules on those values
(products, sums, d and b) and its own rules for the four partial
derivative families, on the tuple view of a key.  On seeded elements of
every carrier kind over 0 <= n, nu <= 3, with rational and Gaussian
coefficients, the kernel must give the same values, `==` must agree
with the model and equal elements must hash equal.  Every result must
be canonical: den > 0, no zero numerator, gcd(den, every numerator part)
== 1, and den == 1 exactly when every value is a Gaussian integer.

`randomgen._randint` must consume a generator exactly as
`random.Random.randint` does, since every seeded trial depends on it.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import randomgen as rg
from supercalc.forms import CoordinateSystem, op_d_form, op_divergence
from supercalc.graded_poly import (
    GradedPoly,
    _accumulate,
    _differential_nums,
    _element,
    _product,
    density_carrier,
    form_carrier,
    function_carrier,
)
from supercalc.grassmann import Supernumber
from supercalc.scalars import CRat, _crat


class Q:
    """A value of Q(i) as two Fractions, for the reference model."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        other = q(other)
        return Q(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Q(-self.re, -self.im)

    def __sub__(self, other):
        return self + -q(other)

    def __mul__(self, other):
        other = q(other)
        return Q(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        other = q(other)
        return self.re == other.re and self.im == other.im

    def crat(self) -> CRat:
        return CRat(self.re, self.im)


def q(value) -> Q:
    if isinstance(value, Q):
        return value
    if isinstance(value, CRat):
        return Q(value.re, value.im)
    return Q(value)


def draw_value(rng: random.Random) -> Q:
    """A rational, sometimes Gaussian, value with small denominators."""
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.3 else 0
    return Q(re, im)


def draw_model(rng: random.Random, carrier, terms: int) -> dict:
    """{key: Q} with random monomials of the carrier; some values cancel."""
    aux = carrier.kind.value != "function"
    out: dict = {}
    for _ in range(terms):
        x = tuple((i, rng.randint(1, 2)) for i in range(1, carrier.n + 1) if rng.random() < 0.5)
        xi = rng.randrange(1 << carrier.nu)
        ao = rng.randrange(1 << carrier.n) if aux else 0
        ae = tuple((i, rng.randint(1, 2)) for i in range(1, carrier.nu + 1) if aux and rng.random() < 0.4)
        value = draw_value(rng)
        if value:
            _accumulate(out, [(carrier.pack((x, xi, ao, ae)), value)])
    return out


def model_derivative(carrier, model: dict, family: str, index: int) -> dict:
    """The model's own derivative rule on the tuple view (x exponents, xi
    mask, odd-aux mask, even-aux exponents): an even generator ("x",
    "aux_even") has its exponent lowered and multiplies the value by it;
    an odd one ("xi", "aux_odd") is moved to the front past the odd
    factors before it, every xi and then the lower odd auxiliaries, and
    dropped."""
    out: dict = {}
    for key, value in model.items():
        x, xi, ao, ae = carrier.unpack(key)
        if family in ("x", "aux_even"):
            exps = dict(x if family == "x" else ae)
            e = exps.pop(index, 0)
            if not e:
                continue
            if e > 1:
                exps[index] = e - 1
            lowered = tuple(sorted(exps.items()))
            mono = (lowered, xi, ao, ae) if family == "x" else (x, xi, ao, lowered)
            value = value * e
        else:
            mask = xi if family == "xi" else ao
            bit = 1 << (index - 1)
            if not mask & bit:
                continue
            before = bin(mask & (bit - 1)).count("1") + (bin(xi).count("1") if family == "aux_odd" else 0)
            mono = (x, xi ^ bit, ao, ae) if family == "xi" else (x, xi, ao ^ bit, ae)
            value = -value if before % 2 else value
        target = carrier.pack(mono)
        assert target not in out, "two terms of one derivative met"
        out[target] = value
    return out


def element(carrier, model: dict) -> GradedPoly:
    return GradedPoly(carrier, {k: v.crat() for k, v in model.items()})


def assert_canonical(f: GradedPoly):
    assert type(f.den) is int and f.den >= 1
    parts = []
    for c in f.nums.values():
        assert c, "a zero numerator is stored"
        if type(c) is int:
            parts.append(c)
        else:
            assert type(c) is CRat and c._d == 1
            parts += [c._a, c._b]
    assert gcd(f.den, *parts) == 1
    gaussian_integers = all(v.re.denominator == 1 and v.im.denominator == 1 for v in map(q, f.terms.values()))
    assert (f.den == 1) == gaussian_integers
    for v in f.terms.values():
        assert type(v) is (int if q(v).im == 0 and q(v).re.denominator == 1 else CRat)


def assert_matches(f: GradedPoly, model: dict):
    assert_canonical(f)
    assert {k: q(v) for k, v in f.terms.items()} == model
    assert f == element(f.carrier, model) and hash(f) == hash(element(f.carrier, model))


CARRIERS = st.builds(
    lambda make, n, nu: make(n, nu),
    st.sampled_from([function_carrier, form_carrier, density_carrier]),
    st.integers(0, 3),
    st.integers(0, 3),
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(CARRIERS, st.integers(0, 2**32 - 1))
def test_kernel_matches_the_fraction_pair_model(carrier, seed):
    rng = random.Random(seed)
    ma, mb = draw_model(rng, carrier, rng.randint(0, 6)), draw_model(rng, carrier, rng.randint(0, 6))
    a, b = element(carrier, ma), element(carrier, mb)
    assert_matches(a, ma)
    assert_matches(b, mb)

    assert_matches(a + b, _accumulate(dict(ma), mb.items()))
    assert_matches(a - b, _accumulate(dict(ma), ((k, -v) for k, v in mb.items())))
    assert_matches(a - a, {})
    assert_matches(a * b, _product(ma, mb, carrier))
    s = draw_value(rng)
    for scalar in (s.crat(), rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))):
        scaled = {k: v * q(scalar) for k, v in ma.items() if v * q(scalar)}
        assert_matches(a * scalar, scaled)
        assert_matches(scalar * a, scaled)
    for i in range(1, carrier.n + 1):
        assert_matches(a.partial_x(i), model_derivative(carrier, ma, "x", i))
        assert_matches(a.partial_aux_odd(i), model_derivative(carrier, ma, "aux_odd", i))
    for alpha in range(1, carrier.nu + 1):
        assert_matches(a.partial_xi(alpha), model_derivative(carrier, ma, "xi", alpha))
        assert_matches(a.partial_aux_even(alpha), model_derivative(carrier, ma, "aux_even", alpha))
    coords = CoordinateSystem(carrier.n, carrier.nu)
    if carrier == coords.forms:
        assert_matches(op_d_form(coords)(a), _differential_nums(ma, carrier))
    if carrier == coords.densities:
        assert_matches(op_divergence(coords)(a), _differential_nums(ma, carrier))

    # == and hash follow the values, however an element was reached
    assert (a == b) == (ma == mb)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    assert a * 6 * Fraction(1, 6) == a and hash(a * 6 * Fraction(1, 6)) == hash(a)
    body = GradedPoly.scalar(carrier, s.crat())
    assert body == s.crat() and hash(body) == hash(s.crat())


def test_crat_defers_to_elements():
    """A CRat on the left of +, - or * hands an element to the element's
    reflected operator, as an int or a Fraction does."""
    x = CoordinateSystem(1, 1).x(1)
    g = Supernumber.generator(2, 1)
    half = CRat(Fraction(1, 2), 1)
    for e in (x, g, x * 3 + 1):
        assert CRat(2) * e == 2 * e == e * CRat(2)
        assert CRat(2) + e == 2 + e == e + CRat(2)
        assert CRat(2) - e == 2 - e == -(e - CRat(2))
        assert half * e == e * half and (half + e) - e == half and (half - e) + e == half
    assert type(CRat(2) - g) is Supernumber and (CRat(2) - g).terms == {0: 2, 1: -1}
    with pytest.raises(TypeError):
        CRat(2) / g
    with pytest.raises(TypeError):
        g / CRat(2)


def test_supernumber_results_are_canonical():
    rng = random.Random(4)
    for nu in range(5):
        for _ in range(10):
            z, w = rg.supernumber(rng, nu), rg.supernumber(rng, nu, ensure_body=True)
            for f in (z, w, z * w, z + w, z - z, w.inverse(), z.conjugate(), z.soul(), z.even_part()):
                assert isinstance(f, Supernumber)
                assert_canonical(f)
            assert w * w.inverse() == 1


def test_element_divides_out_content():
    """`_element` is the one constructor of results: it divides the gcd of
    den and every real and imaginary numerator part out of any input."""
    carrier = function_carrier(2, 1)
    k, k2 = carrier.pack((((1, 1),), 1, 0, ())), carrier.pack((((2, 3),), 0, 0, ()))
    f = _element(GradedPoly, carrier, {k: 2, k2: 4}, 6)
    assert (f.nums, f.den) == ({k: 1, k2: 2}, 3) and type(f) is GradedPoly
    g = _element(GradedPoly, carrier, {k: _crat(2, 4, 1), k2: 6}, 4)
    assert (g.nums, g.den) == ({k: _crat(1, 2, 1), k2: 3}, 2)
    h = _element(GradedPoly, carrier, {k: _crat(2, 3, 1), k2: 6}, 4)
    assert (h.nums, h.den) == ({k: _crat(2, 3, 1), k2: 6}, 4)
    for z in (_element(GradedPoly, carrier, {}, 6), _element(Supernumber, function_carrier(0, 2), {}, 5)):
        assert (z.nums, z.den) == ({}, 1) and z.is_zero()
    s = _element(Supernumber, function_carrier(0, 2), {1: 3, 3: -9}, 12)
    assert type(s) is Supernumber and (s.nums, s.den) == ({1: 1, 3: -3}, 4)
    for x in (f, g, h, s):
        assert_canonical(x)


# -- identical-stream integer draws ------------------------------------------

# every (a, b) that randomgen draws from: spans, denominators, degrees,
# indices, masks of up to 8 generators and parity signatures
RANGES = sorted(
    {(a, b) for a in range(-4, 5) for b in range(a, 5)} | {(0, (1 << n) - 1) for n in range(9)} | {(1, 6), (0, 5)}
)


def test_randint_draws_the_randint_stream():
    for seed in range(20):
        ours, twin = random.Random(seed), random.Random(seed)
        for a, b in RANGES:
            for _ in range(3):
                assert rg._randint(ours, a, b) == twin.randint(a, b), (seed, a, b)
            assert ours.random() == twin.random()
        assert ours.getstate() == twin.getstate()
