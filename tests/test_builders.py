"""Exactness guard for the term-by-term builders, differentials and
contractions.

`randomgen.superfunction`, `randomgen.form`/`density`, the operators
`d` and `b`, and the one-pass derivation sums i(X), e(F) on densities
and X(F) write their terms straight into term dicts.  The reference
versions below build the same things as sums of products of one-term
`GradedPoly` elements and derivatives, which is how the ring defines
them.  On seeded inputs over every patch with 0 <= n, nu <= 3 the two
must agree term for term, and must consume the same random draws.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from supercalc import randomgen as rg
from supercalc.forms import (
    CoordinateSystem,
    SuperDensity,
    SuperForm,
    SuperVectorField,
    _Homogeneous,
    op_d_form,
    op_divergence,
    op_e_density,
    op_i_form,
    op_lie_form,
)
from supercalc.graded_poly import MAX_EXPONENT, GradedPoly, _element
from supercalc.grassmann import GeneratorMismatch
from supercalc.scalars import CRat

PATCHES = [(n, nu) for n in range(4) for nu in range(4)]
DEGREES = range(5)


# -- product-based references ----------------------------------------------


def ref_superfunction(rng, coords, terms=4, max_degree=2, parity=None):
    fc = coords.functions
    out = GradedPoly.zero(fc)
    for _ in range(terms):
        t = GradedPoly.scalar(fc, rg.crat(rng, complex_ok=False))
        for _ in range(rng.randint(0, max_degree)):
            if coords.n:
                t = t * GradedPoly.coordinate(fc, rng.randint(1, coords.n))
        if coords.nu:
            for _ in range(rng.randint(0, min(coords.nu, 2))):
                t = t * GradedPoly.odd_coordinate(fc, rng.randint(1, coords.nu))
        out = out + t
    if parity is not None:
        out = out.parity_part(parity)
        if out.is_zero() and parity == 0:
            out = GradedPoly.scalar(fc, rng.randint(1, 3))
        if out.is_zero() and parity == 1 and coords.nu:
            out = GradedPoly.odd_coordinate(fc, rng.randint(1, coords.nu))
    return out


def ref_homogeneous(rng, coords, degree, blades, cls):
    carrier = cls.carrier_of(coords)
    acc = GradedPoly.zero(carrier)
    for _ in range(blades):
        blade = GradedPoly.unit(carrier)
        d = 0
        guard = 0
        while d < degree and guard < 30:
            guard += 1
            if coords.nu and (not coords.n or rng.random() < 0.5):
                blade = blade * GradedPoly.aux_even(carrier, rng.randint(1, coords.nu))
                d += 1
            elif coords.n:
                new = blade * GradedPoly.aux_odd(carrier, rng.randint(1, coords.n))
                if new.is_zero():
                    continue
                blade = new
                d += 1
        if d < degree:
            continue
        acc = acc + ref_superfunction(rng, coords).with_carrier(carrier) * blade
    return cls(coords, acc.degree_part(degree))


def ref_d(coords, w):
    out = GradedPoly.zero(coords.forms)
    for a in range(1, coords.n + 1):
        out = out + coords.dx(a) * w.partial_x(a)
    for alpha in range(1, coords.nu + 1):
        out = out + coords.dxi(alpha) * w.partial_xi(alpha)
    return out


def ref_b(coords, w):
    out = GradedPoly.zero(coords.densities)
    for a in range(1, coords.n + 1):
        out = out + w.partial_aux_odd(a).partial_x(a)
    for alpha in range(1, coords.nu + 1):
        out = out + w.partial_aux_even(alpha).partial_xi(alpha)
    return out


def ref_i(x, w):
    forms = x.coords.forms
    out = GradedPoly.zero(forms)
    for a, comp in enumerate(x.bose, start=1):
        out = out + comp.with_carrier(forms) * w.partial_aux_odd(a)
    for alpha, comp in enumerate(x.fermi, start=1):
        out = out + comp.with_carrier(forms) * w.partial_aux_even(alpha)
    return out


def ref_lie(x, w):
    """The Cartan formula L(X) = [i(X), d] = i(X) d + (-1)^|X| d i(X),
    from the product-based references."""
    coords = x.coords
    return ref_i(x, ref_d(coords, w)) + ref_d(coords, ref_i(x, w)) * (-1 if x.parity else 1)


def ref_e_density(coords, f, u):
    dens = coords.densities
    out = GradedPoly.zero(dens)
    for a in range(1, coords.n + 1):
        out = out + f.partial_x(a).with_carrier(dens) * u.partial_aux_odd(a)
    for alpha in range(1, coords.nu + 1):
        out = out + f.partial_xi(alpha).with_carrier(dens) * u.partial_aux_even(alpha)
    return out


def ref_apply(x, f):
    out = GradedPoly.zero(x.coords.functions)
    for a, comp in enumerate(x.bose, start=1):
        out = out + comp * f.partial_x(a)
    for alpha, comp in enumerate(x.fermi, start=1):
        out = out + comp * f.partial_xi(alpha)
    return out


# -- side by side ------------------------------------------------------------


def twin(seed, build, ref):
    """Run build and ref on equal generators; both results and the next
    draw of each generator."""
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    new, old = build(new_rng), ref(old_rng)
    return new, old, new_rng.random(), old_rng.random()


@pytest.mark.parametrize("n,nu", PATCHES)
def test_superfunction_matches_products(n, nu):
    coords = CoordinateSystem(n, nu)
    for seed in range(40):
        for parity in (None, 0, 1):
            kw = {"terms": 1 + seed % 6, "max_degree": seed % 4, "parity": parity}
            new, old, nxt_new, nxt_old = twin(
                seed, lambda r: rg.superfunction(r, coords, **kw), lambda r: ref_superfunction(r, coords, **kw)
            )
            assert new.carrier == old.carrier
            assert new.terms == old.terms, (n, nu, seed, parity)
            assert nxt_new == nxt_old, (n, nu, seed, parity)


@pytest.mark.parametrize("n,nu", PATCHES)
def test_forms_and_densities_match_products(n, nu):
    coords = CoordinateSystem(n, nu)
    for build, cls in ((rg.form, SuperForm), (rg.density, SuperDensity)):
        for degree in DEGREES:
            for seed in range(12):
                new, old, nxt_new, nxt_old = twin(
                    1000 * degree + seed,
                    lambda r: build(r, coords, degree),
                    lambda r: ref_homogeneous(r, coords, degree, 3, cls),
                )
                assert type(new) is cls and new.degree == old.degree
                assert new.terms == old.terms, (cls.__name__, n, nu, degree, seed)
                assert nxt_new == nxt_old, (cls.__name__, n, nu, degree, seed)


@pytest.mark.parametrize("n,nu", PATCHES)
def test_draws_build_without_revalidating(n, nu, monkeypatch):
    """No form, density or superfunction draw runs the validating
    constructor, and what a draw builds passes it unchanged."""
    coords = CoordinateSystem(n, nu)

    def refuse(self, coords, poly):
        raise AssertionError("a draw ran _Homogeneous.__init__")

    rng = random.Random(41 * n + nu)
    with monkeypatch.context() as patch:
        patch.setattr(_Homogeneous, "__init__", refuse)
        drawn = [(cls, build(rng, coords, degree)) for degree in DEGREES for build, cls in ((rg.form, SuperForm), (rg.density, SuperDensity))]
        for parity in (None, 0, 1):
            rg.superfunction(rng, coords, parity=parity)
    for cls, w in drawn:
        rebuilt = cls(coords, _element(GradedPoly, w.carrier, w.nums, w.den))
        assert type(w) is cls and w.carrier == cls.carrier_of(coords)
        assert rebuilt == w and rebuilt.degree == w.degree, (cls.__name__, n, nu, w)


@pytest.mark.parametrize("n,nu", PATCHES)
def test_d_and_b_match_products(n, nu):
    coords = CoordinateSystem(n, nu)
    d, b = op_d_form(coords), op_divergence(coords)
    rng = random.Random(17 * n + nu)
    for degree in DEGREES:
        for _ in range(8):
            w = rg.form(rng, coords, degree)
            assert d(w).terms == ref_d(coords, w).terms, (n, nu, degree, w)
            u = rg.density(rng, coords, degree)
            assert b(u).terms == ref_b(coords, u).terms, (n, nu, degree, u)


def test_d_and_b_refuse_the_other_carrier():
    coords = CoordinateSystem(1, 1)
    with pytest.raises(GeneratorMismatch):
        op_d_form(coords)(GradedPoly.unit(coords.densities))
    with pytest.raises(GeneratorMismatch):
        op_divergence(coords)(GradedPoly.unit(coords.forms))


def assert_canonical(p):
    """den > 0, no zero numerator, and gcd(den, every numerator part) == 1."""
    assert p.den > 0 and all(p.nums.values())
    g = p.den
    for c in p.nums.values():
        g = gcd(g, c) if type(c) is int else gcd(g, c._a, c._b)
    assert g == 1 or not p.nums, p


def gaussian(rng):
    """A random Gaussian rational with a nonzero imaginary part."""
    return CRat(rg.rational(rng), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))


def scaled_field(rng, coords, parity, complex_comps):
    """A random field of the given parity; with complex_comps, every
    component times its own Gaussian scalar."""
    x = rg.vector_field(rng, coords, parity)
    if not complex_comps:
        return x
    return SuperVectorField(
        coords, tuple(c * gaussian(rng) for c in x.bose), tuple(c * gaussian(rng) for c in x.fermi), parity
    )


@pytest.mark.parametrize("n,nu", PATCHES)
def test_contractions_match_products(n, nu):
    coords = CoordinateSystem(n, nu)
    rng = random.Random(31 * n + nu)
    for parity in (0, 1):
        for complex_comps in (False, True):
            for _ in range(3):
                x = scaled_field(rng, coords, parity, complex_comps)
                f = rg.superfunction(rng, coords, parity=parity)
                if complex_comps:
                    f = f * gaussian(rng)
                i_x, e_f = op_i_form(x), op_e_density(coords, f)
                got = x.apply(f)
                assert got == ref_apply(x, f), (n, nu, parity, x, f)
                assert_canonical(got)
                for degree in range(4):
                    w = rg.form(rng, coords, degree)
                    got = i_x(w)
                    assert got.carrier == coords.forms
                    assert got.terms == ref_i(x, w).terms, (n, nu, parity, degree, w)
                    assert_canonical(got)
                    u = rg.density(rng, coords, degree)
                    got = e_f(u)
                    assert got.carrier == coords.densities
                    assert got.terms == ref_e_density(coords, f, u).terms, (n, nu, parity, degree, u)
                    assert_canonical(got)


def test_contractions_keep_the_exponent_guard():
    """A product term past MAX_EXPONENT is refused, as `_product` refuses it."""
    coords = CoordinateSystem(1, 1)
    fc = coords.functions
    big = GradedPoly(fc, {MAX_EXPONENT << fc.shift(1): 1})  # x1^MAX_EXPONENT
    x = SuperVectorField.make(coords, [big], [0], 0)
    x1 = coords.x(1)
    message = f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}"
    slot = GradedPoly.aux_odd(coords.densities, 1)
    for thunk in (
        lambda: op_i_form(x)(x1.with_carrier(coords.forms) * coords.dx(1)),
        lambda: x.apply(x1 * x1),
        lambda: op_e_density(coords, big)(slot * (x1 * x1).with_carrier(coords.densities)),
    ):
        with pytest.raises(ValueError, match=message):
            thunk()


@pytest.mark.parametrize("n,nu", PATCHES)
def test_lie_derivative_matches_products(n, nu):
    """The one-pass L(X) against the Cartan formula of products."""
    coords = CoordinateSystem(n, nu)
    rng = random.Random(37 * n + nu)
    for parity in (0, 1):
        for complex_comps in (False, True):
            for _ in range(2):
                x = scaled_field(rng, coords, parity, complex_comps)
                lie = op_lie_form(x)
                assert lie.parity == parity
                for degree in DEGREES:
                    w = rg.form(rng, coords, degree)
                    got = lie(w)
                    assert got.carrier == coords.forms
                    assert got.terms == ref_lie(x, w).terms, (n, nu, parity, degree, w)
                    assert_canonical(got)
