"""Operators compose on numerators: sums, composites and brackets of form
and density operators give the same elements as the element arithmetic
on their images, and applying one builds one element."""

import itertools
import random

import pytest

from supercalc import forms
from supercalc import graded_poly
from supercalc import randomgen as rg
from supercalc import suites
from supercalc.forms import (
    CoordinateSystem,
    op_d_form,
    op_divergence,
    op_e_density,
    op_e_form,
    op_i_density,
    op_i_form,
    op_lie_density,
    op_lie_form,
    op_mult,
    op_mult_density,
)
from supercalc.graded_poly import GeneratorMismatch, GradedPoly
from supercalc.scalars import CRat
from supercalc.suites import DEFAULT_MIXES


def _operators(rng: random.Random, c: CoordinateSystem):
    """(name, operator) pairs on forms and on densities: d or b, and i(X),
    L(X), e(F) and M(F) for seeded X and F of either parity."""
    out = {"forms": [("d", op_d_form(c))], "densities": [("b", op_divergence(c))]}
    for parity in (0, 1) if c.nu else (0,):
        x = rg.vector_field(rng, c, parity)
        f = rg.superfunction(rng, c, parity=parity)
        if f.is_zero():
            f = c.x(1) if c.n else c.xi(1)
        out["forms"] += [(f"i{parity}", op_i_form(x)), (f"L{parity}", op_lie_form(x)),
                         (f"e{parity}", op_e_form(c, f)), (f"M{parity}", op_mult(c, f))]
        out["densities"] += [(f"i{parity}", op_i_density(x)), (f"L{parity}", op_lie_density(x)),
                             (f"e{parity}", op_e_density(c, f)), (f"M{parity}", op_mult_density(c, f))]
    return out


@pytest.mark.parametrize("mix", DEFAULT_MIXES, ids=str)
def test_numerator_algebra_equals_element_algebra(mix):
    c = CoordinateSystem(*mix)
    rng = random.Random(2900 + 10 * mix[0] + mix[1])
    max_deg = 2 if c.nu else min(2, c.n)
    ops = _operators(rng, c)
    operands = {
        "forms": [rg.form(rng, c, rng.randint(0, max_deg)) for _ in range(2)],
        "densities": [rg.density(rng, c, rng.randint(0, max_deg)) for _ in range(2)],
    }
    for kind, table in ops.items():
        for (pn, p), (qn, q) in itertools.product(table, repeat=2):
            sign = CRat(-1 if p.parity * q.parity else 1)
            for w in operands[kind]:
                pq, qp = p(q(w)), q(p(w))
                assert (p @ q)(w) == pq, (kind, pn, qn)
                assert (p + q)(w) == p(w) + q(w), (kind, pn, qn)
                assert (p - q)(w) == p(w) - q(w), (kind, pn, qn)
                assert (-p)(w) == -p(w), (kind, pn)
                assert p.graded_bracket(q)(w) == pq - qp * sign, (kind, pn, qn)


def test_composite_parity_and_carrier_rules():
    """Operators on different carriers refuse to combine when the result is
    built, not when it is applied; a composite with an operator of mixed
    parity has parity None, as a sum does."""
    c = CoordinateSystem(2, 1)
    d, b = op_d_form(c), op_divergence(c)
    other = op_d_form(CoordinateSystem(1, 1))
    for make in (lambda: d + b, lambda: d - other, lambda: d @ b, lambda: b @ d,
                 lambda: d.graded_bracket(other), lambda: d.graded_bracket(b)):
        with pytest.raises(GeneratorMismatch, match="operators on different carriers"):
            make()
    mixed = d + op_mult(c, 1)
    assert mixed.parity is None
    assert (mixed @ d).parity is None and (d @ mixed).parity is None
    assert (d @ d).parity == 0 and (d @ op_mult(c, c.x(1))).parity == 1
    w = rg.form(random.Random(5), c, 1)
    assert (mixed @ d)(w) == d(d(w)) + d(w)
    with pytest.raises(GeneratorMismatch, match="not a form"):
        (d @ d)(rg.density(random.Random(5), c, 1))


# rows that compare an operator image with element arithmetic on their inputs
ELEMENT_ROWS = {
    "forms: ladder pairs {i(d_a), e(x^k)} = delta, [i(d_xi), e(xi)] = delta",
    "forms: i(odd X) is an even derivation over wedge",
    "densities: L(d/dx^A) acts as d/dx^A",
    "densities: bracket Lie = classical component formula (bosonic)",
    "densities: [b, i(X)]+ = d_mu(X^mu .) on scalars (bosonic)",
}


@pytest.mark.parametrize("mix", DEFAULT_MIXES, ids=str)
def test_a_table_row_builds_one_element(mix, monkeypatch):
    """Each operator row of `suites.IDENTITIES` is one operator expression:
    evaluating it on one tuple builds exactly one `GradedPoly`."""
    c = CoordinateSystem(*mix)
    families = suites._trial_set(random.Random(29), c)
    built = []
    element = graded_poly._element

    def counting(*args, **kwargs):
        built.append(args[1])
        return element(*args, **kwargs)

    monkeypatch.setattr(graded_poly, "_element", counting)
    monkeypatch.setattr(forms, "_element", counting)
    rows = [row for row in suites.IDENTITIES if row.scope(c) and row.name not in ELEMENT_ROWS]
    assert len(rows) >= 15
    for row in rows:
        for elements in itertools.product(*(families[name] for name in row.families)):
            built.clear()
            assert row.deviation(*elements).is_zero(), row.name
            assert len(built) == 1, (row.name, len(built))


# -- d, b and the slot element by a second route ----------------------------


def _slot_element_by_products(x):
    """Slots times components by element arithmetic."""
    densities = x.coords.densities
    out = GradedPoly.zero(densities)
    for a, comp in enumerate(x.bose, start=1):
        out = out + GradedPoly.aux_odd(densities, a) * comp.with_carrier(densities)
    for alpha, comp in enumerate(x.fermi, start=1):
        out = out + GradedPoly.aux_even(densities, alpha) * comp.with_carrier(densities)
    return out


@pytest.mark.parametrize("mix", DEFAULT_MIXES, ids=str)
def test_slot_element_matches_the_element_route(mix):
    c = CoordinateSystem(*mix)
    rng = random.Random(3000 + 10 * mix[0] + mix[1])
    mixed_dens = 0
    for parity in (0, 1):
        for _ in range(15):
            x = rg.vector_field(rng, c, parity)
            got = forms.slot_element(x)
            assert type(got) is GradedPoly and got.carrier == c.densities
            assert got == _slot_element_by_products(x), (mix, parity)
            mixed_dens += len({comp.den for comp in x.bose + x.fermi if not comp.is_zero()}) > 1
    assert mixed_dens  # the components were brought over a common denominator


@pytest.mark.parametrize("mix", DEFAULT_MIXES + ((10, 0), (0, 5)), ids=str)
def test_d_and_b_by_partial_derivatives(mix):
    """d = sum_A dy^A dw/dy^A from `partial_x`/`partial_xi` and element
    products, and b = sum_A d/dy^A composed with the derivative along the
    slot of d/dy^A, against the one-dict pass of `op_d_form` and
    `op_divergence`, on the widest patches the CLI takes as well."""
    c = CoordinateSystem(*mix)
    rng = random.Random(3100 + 10 * mix[0] + mix[1])
    f, s = c.forms, c.densities
    d, b = op_d_form(c), op_divergence(c)
    max_deg = 3 if c.nu else min(3, c.n)
    for _ in range(40):
        w = rg.form(rng, c, rng.randint(0, max_deg))
        want = GradedPoly.zero(f)
        for a in range(1, c.n + 1):
            want = want + GradedPoly.aux_odd(f, a) * w.partial_x(a)
        for alpha in range(1, c.nu + 1):
            want = want + GradedPoly.aux_even(f, alpha) * w.partial_xi(alpha)
        assert d(w) == want, (mix, w)
        v = rg.density(rng, c, rng.randint(0, max_deg))
        want = GradedPoly.zero(s)
        for a in range(1, c.n + 1):
            want = want + v.partial_aux_odd(a).partial_x(a)
        for alpha in range(1, c.nu + 1):
            want = want + v.partial_aux_even(alpha).partial_xi(alpha)
        assert b(v) == want, (mix, v)
