"""Exactness guard for the term-by-term builders and differentials.

`randomgen.superfunction`, `randomgen.form`/`density` and the operators
`d` and `b` write their terms straight into term dicts.  The reference
versions below build the same things as sums of products of one-term
`GradedPoly` elements and derivatives, which is how the ring defines
them.  On seeded inputs over every patch with 0 <= n, nu <= 3 the two
must agree term for term, and must consume the same random draws.
"""

import random

import pytest

from supercalc import randomgen as rg
from supercalc.forms import CoordinateSystem, SuperDensity, SuperForm, op_d_form, op_divergence
from supercalc.graded_poly import GradedPoly
from supercalc.grassmann import GeneratorMismatch

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
