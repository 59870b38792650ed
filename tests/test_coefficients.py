"""The coefficient convention of the term dicts.

An element stores int numerators (a `CRat` Gaussian integer for a value
with an imaginary part) over one denominator, and `.terms` reads a
coefficient as an `int` when it is an integer and a `CRat` otherwise.
`CRat(3) == 3` with equal hashes, so which type a value was given as
must never show: elements built with int coefficients and with
`CRat(int)` coefficients store the same numerators, compare and hash
equal and print the same bytes.  A scalar element hashes as its scalar,
and every scalar that leaves the library is a `CRat`.
"""

import random
from fractions import Fraction

import pytest

from supercalc import exactmat
from supercalc import randomgen as rg
from supercalc.berezin import (
    Domain,
    MixedFunction,
    Normalization,
    berezin_integral,
    change_of_variables_check,
    density_pairing,
    grassmann_derivative,
    lambda_apply,
    mixed_integral,
)
from supercalc.clifford import matrix_of, reversal
from supercalc.fock import FockAlgebraSpec, dual_product, inner_product, spanning_states, translate
from supercalc.forms import CoordinateSystem, SuperDensity, SuperForm, integrate_density
from supercalc.graded_poly import GradedPoly, density_carrier, form_carrier, function_carrier
from supercalc.grassmann import Supernumber, format_supernumber
from supercalc.polynomials import Polynomial, integrate_box
from supercalc.scalars import CRat

PATCHES = [(n, nu) for n in range(3) for nu in range(3)]


def as_crat(f):
    """The same element, of the same type, with every coefficient a `CRat`."""
    terms = {k: CRat.coerce(c) for k, c in f.terms.items()}
    if isinstance(f, Supernumber):
        return Supernumber(f.n, terms)
    g = GradedPoly(f.carrier, terms)
    return type(f)(f.coords, g) if isinstance(f, (SuperForm, SuperDensity)) else g


def int_elements(rng, n, nu):
    """Seeded elements with some int coefficients, over the patch (n, nu)."""
    coords = CoordinateSystem(n, nu)
    out = [rg.superfunction(rng, coords), rg.mixed_function(rng, n, nu), rg.supernumber(rng, nu, complex_ok=False)]
    out += [rg.form(rng, coords, 2), rg.density(rng, coords, 1)]
    return out


# -- which type holds a value never shows -------------------------------------


@pytest.mark.parametrize("n, nu", PATCHES)
def test_int_and_crat_coefficients_agree(n, nu):
    rng = random.Random(31 * n + nu)
    for _ in range(4):
        for f in int_elements(rng, n, nu):
            g = as_crat(f)
            assert (g.nums, g.den) == (f.nums, f.den)
            assert f == g and g == f and hash(f) == hash(g)
            assert repr(f) == repr(g)
            assert f * f == g * g == f * g and hash(f * f) == hash(g * g)
            assert f + g == f * 2 == 2 * g
            if isinstance(f, Supernumber):
                assert format_supernumber(f) == format_supernumber(g)


def test_seeded_elements_hold_int_coefficients():
    """The convention is the point of the representation: integer draws
    and int arithmetic store `int`, so they run in C, and an integral
    value reads as an `int` whatever type it was given as."""
    rng = random.Random(3)
    coords = CoordinateSystem(2, 2)
    f, g = rg.superfunction(rng, coords, terms=8), rg.superfunction(rng, coords, terms=8)
    ints = [c for c in f.terms.values() if type(c) is int]
    assert ints and all(type(c) in (int, CRat) for c in (f * g).terms.values())
    whole = GradedPoly(f.carrier, {k: c for k, c in f.terms.items() if type(c) is int})
    assert all(type(c) is int for c in (whole * whole + whole - 3 * whole).terms.values())
    fc = coords.functions
    for basis in (GradedPoly.unit(fc), coords.x(1), coords.xi(2), coords.dx(1), coords.dxi(1), Supernumber.generator(3, 2)):
        assert [type(c) for c in basis.terms.values()] == [int]
    assert [type(c) for c in (coords.x(1) ** 0).terms.values()] == [int]
    assert [type(c) for c in GradedPoly.scalar(fc, True).terms.values()] == [int]
    assert [type(c) for c in GradedPoly.scalar(fc, Fraction(3)).terms.values()] == [int]
    assert GradedPoly.scalar(fc, True) == GradedPoly.scalar(fc, 1) == GradedPoly.scalar(fc, Fraction(1))


def test_zero_coefficients_are_never_stored():
    rng = random.Random(5)
    for n, nu in PATCHES:
        for f in int_elements(rng, n, nu):
            g = as_crat(f)
            for zero in (f - f, g - g, f - g, g - f, f + (-g), f * 0, g * CRat(0)):
                assert zero.terms == {} and zero == 0 and hash(zero) == hash(0)
    fc = function_carrier(1, 1)
    assert GradedPoly(fc, {0: 0, 1: CRat(0), 1 << fc.shift(1): Fraction(0)}).terms == {}
    assert Supernumber(2, {0: 0, 1: CRat(0)}).terms == {}


# -- a scalar element hashes as its scalar ------------------------------------


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2), CRat(3), CRat(Fraction(-2, 3)), CRat(1, 2), CRat(0, 1)])
def test_scalar_elements_hash_as_their_scalar(value):
    elements = [
        GradedPoly.scalar(function_carrier(1, 1), value),
        GradedPoly.scalar(form_carrier(2, 1), value),
        GradedPoly.scalar(density_carrier(0, 0), value),
        Supernumber.scalar(2, value),
        GradedPoly.scalar(function_carrier(2, 0), value),
        Polynomial(2, {(0, 0): value}),
    ]
    for element in elements:
        assert element == value and value == element
        assert hash(element) == hash(value)
        assert value in {element} and element in {value}
        assert len({element, value}) == 1
    assert Supernumber(2) == 0 and len({Supernumber(2), 0}) == 1
    assert GradedPoly.zero(form_carrier(1, 1)) == 0 and hash(GradedPoly.zero(form_carrier(1, 1))) == hash(0)


def test_non_scalar_hash_does_not_depend_on_construction():
    coords = CoordinateSystem(2, 1)
    a = coords.x(1) * coords.xi(1) * 3 + 1
    b = 1 + GradedPoly(coords.functions, {k: CRat(c) for k, c in (coords.x(1) * coords.xi(1) * 3).terms.items()})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != 1 and a != 3


# -- scalars that leave the library are CRat ----------------------------------


def test_scalars_leaving_the_library_are_crat():
    rng = random.Random(11)
    # a supernumber with int terms and with no body term
    z = Supernumber.from_indices(2, {(): 3, (1,): 2, (1, 2): -5})
    soul_only = Supernumber.from_indices(2, {(1,): 2, (1, 2): -5})
    for value in (z.body(), soul_only.body(), Supernumber.zero(2).body()):
        assert type(value) is CRat
    assert soul_only.body() == 0 and z.body() == 3
    for f in (z, soul_only, Supernumber.from_indices(2, {(1, 2): 4})):
        value = berezin_integral(f)
        assert type(value) is CRat and value == f.terms.get(0b11, 0)
        assert type(berezin_integral(f, Normalization.SQRT_2PI_I).coeff) is CRat
        assert all(type(side) is CRat for side in change_of_variables_check(f, [[2, 1], [0, 1]]))
    assert type(berezin_integral(grassmann_derivative(z, 1))) is CRat

    # integrals over a box, of polynomials and superfunctions with int terms
    p = Polynomial(2, {(1, 0): 2, (0, 0): 3})
    box = [(0, 1), (0, 2)]
    assert type(integrate_box(p, box)) is CRat and integrate_box(p, box) == 8
    assert type(integrate_box(Polynomial(2), box)) is CRat
    f = MixedFunction(1, 2, {0b11: Polynomial(1, {(2,): 3}), 0b01: 4})
    dom = Domain.box((0, 1))
    assert type(mixed_integral(f, dom)) is CRat and mixed_integral(f, dom) == 1
    assert type(mixed_integral(MixedFunction(1, 2, {0b01: 4}), dom)) is CRat
    assert type(integrate_density(f, dom.bounds)) is CRat
    # lambda_apply gives a polynomial; density_pairing integrates it to a scalar
    d, g = rg.mixed_function(rng, 1, 2), rg.mixed_function(rng, 1, 2)
    assert isinstance(lambda_apply(d, g), GradedPoly)
    assert type(density_pairing(d, g, dom)) is CRat
    assert density_pairing(d, g, dom) == mixed_integral(d * g, dom)

    # Fock inner and dual products of states with int coefficients
    spec = FockAlgebraSpec(1, 1)
    states = spanning_states(spec, max_occupation=2)
    s = states[0] * 2 + states[1]
    assert all(type(c) is int for c in s.terms.values())
    assert type(inner_product(s, s)) is CRat
    assert inner_product(s, s) == 5
    assert type(dual_product(translate(s, "density"), translate(s, "form"))) is CRat

    # exactmat on matrices of integer values from clifford.matrix_of
    for dim in (1, 2, 3):
        m = matrix_of(reversal, dim)
        assert all(type(x) is CRat for row in m for x in row)
        det = exactmat.det(m)
        assert type(det) is CRat and det in (1, -1)
        inv = exactmat.inverse(m)
        assert all(type(x) is CRat for row in inv for x in row)
        assert inv == m
        assert exactmat.matmul(m, inv) == exactmat.dense(exactmat.scalar(1 << dim, 1))
    gamma = matrix_of(lambda w: Supernumber.generator(2, 1) * w + grassmann_derivative(w, 1), 2)
    assert all(type(x) is CRat for row in gamma for x in row)
    assert type(exactmat.det(gamma)) is CRat and exactmat.det(gamma) == 1
    assert exactmat.inverse(gamma) == gamma
    assert type(exactmat.minor_det(gamma, [0, 1], [0, 1])) is CRat
