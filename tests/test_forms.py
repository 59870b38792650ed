import random
from fractions import Fraction

import pytest

from supercalc import randomgen as rg
from supercalc.forms import (
    CoordinateSystem,
    Operator,
    SuperDensity,
    SuperForm,
    SuperVectorField,
    contract_iX,
    divergence,
    exterior_d,
    insert_iX,
    integrate_density,
    lie_derivative,
    op_d_form,
    op_divergence,
    op_e_density,
    op_e_form,
    op_i_form,
    op_lie_form,
    op_mult,
    pairing,
    total_differential,
    wedge,
)
from supercalc.graded_poly import MAX_EXPONENT, GeneratorMismatch, GradedPoly, function_carrier
from supercalc.grassmann import Parity
from supercalc.polynomials import integrate_box
from supercalc.scalars import CRat
from supercalc.suites import _trial_set, commutator_table


def test_wedge_symmetry_rules():
    c = CoordinateSystem(2, 2)
    dx1, dx2, dxi1, dxi2 = c.dx(1), c.dx(2), c.dxi(1), c.dxi(2)
    assert dx1 * dx2 == -(dx2 * dx1)
    assert dxi1 * dxi2 == dxi2 * dxi1
    assert (dx1 * dx1).is_zero()
    assert not (dxi1 * dxi1).is_zero()
    w1 = SuperForm(c, dx1)
    w2 = SuperForm(c, dxi1)
    assert wedge(w1, w2).degree == 2


def test_form_parity_counts_bosonic_differentials():
    c = CoordinateSystem(2, 2)
    w = SuperForm(c, c.dx(1) * c.dxi(1))
    assert w.parity() is Parity.ODD  # one bosonic differential
    w2 = SuperForm(c, c.dx(1) * c.dx(2))
    assert w2.parity() is Parity.EVEN


def test_exterior_d_examples():
    c = CoordinateSystem(2, 2)
    x1 = c.x(1).with_carrier(c.forms)
    w = SuperForm(c, x1 * c.dx(2))
    assert exterior_d(w) == SuperForm(c, c.dx(1) * c.dx(2))
    xi1 = SuperForm.from_function(c, c.xi(1))
    assert exterior_d(xi1) == SuperForm(c, c.dxi(1))
    assert exterior_d(exterior_d(xi1)).is_zero()


def test_d_keeps_the_exponent_guard_on_the_xi_move():
    """d trades xi1 for dxi1, raising the even exponent: past MAX_EXPONENT
    it refuses the form, and up to it it builds the top power."""
    c = CoordinateSystem(1, 1)
    d, forms = op_d_form(c), c.forms
    xi_dxi = lambda e: GradedPoly(forms, {forms.pack(((), 0b1, 0, ((1, e),))): 1})  # xi1 * dxi1^e
    with pytest.raises(ValueError, match=f"^exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}$"):
        d(xi_dxi(MAX_EXPONENT))
    assert d(xi_dxi(MAX_EXPONENT - 1)).terms == {forms.pack(((), 0, 0, ((1, MAX_EXPONENT),))): 1}


def test_constructor_refusals():
    c = CoordinateSystem(2, 1)
    with pytest.raises(ValueError, match=r"inhomogeneous degrees \[1, 2\]"):
        SuperForm(c, c.dx(1) + c.dx(1) * c.dxi(1))
    with pytest.raises(GeneratorMismatch, match="not a density"):
        SuperDensity(c, c.dx(1))
    with pytest.raises(GeneratorMismatch, match="not a form"):
        SuperForm(CoordinateSystem(1, 1), c.dx(1))


def test_dd_zero_random_mixed():
    rng = random.Random(21)
    c = CoordinateSystem(2, 2)
    for k in range(40):
        w = rg.form(rng, c, k % 4)
        assert exterior_d(exterior_d(w)).is_zero()


def test_divergence_example_and_bb():
    c2 = CoordinateSystem(2, 0)
    dens = SuperDensity(
        c2,
        GradedPoly.aux_odd(c2.densities, 1) * c2.x(1).with_carrier(c2.densities)
        + GradedPoly.aux_odd(c2.densities, 2) * c2.x(2).with_carrier(c2.densities),
    )
    out = divergence(dens)
    assert out == SuperDensity.from_function(c2, 2)
    with pytest.raises(ValueError):
        divergence(out)  # degree 0
    rng = random.Random(22)
    c3 = CoordinateSystem(3, 0)
    for k in range(20):
        u = rg.density(rng, c3, 2)
        assert divergence(u) == op_divergence(c3)(u)
        if u.degree >= 2:
            dd = op_divergence(c3)(op_divergence(c3)(u))
            assert dd.is_zero()
    cg = CoordinateSystem(0, 3)
    for k in range(20):
        u = rg.density(rng, cg, 2 + k % 2)
        assert op_divergence(cg)(op_divergence(cg)(u)).is_zero()


def test_contraction_examples():
    c2 = CoordinateSystem(2, 0)
    vol = SuperForm(c2, c2.dx(1) * c2.dx(2))
    d1 = SuperVectorField.coordinate_basis(c2, ("x", 1))
    assert contract_iX(d1, vol) == SuperForm(c2, c2.dx(2))
    with pytest.raises(ValueError):
        contract_iX(d1, SuperForm.from_function(c2, 1))
    for label in [("x", 0), ("x", 3), ("xi", 0), ("xi", 2)]:
        with pytest.raises(ValueError, match=rf"{label[0]} index {label[1]} outside 1\.\.[12]"):
            SuperVectorField.coordinate_basis(CoordinateSystem(2, 1), label)


def test_insertion_cyclic_example():
    # 2-density with component F^{12} = 1 in three dimensions: inserting
    # the third coordinate direction gives the cyclic three-term sum,
    # which in canonical order is the single slot monomial y1 y2 y3
    c3 = CoordinateSystem(3, 0)
    f12 = GradedPoly.aux_odd(c3.densities, 1) * GradedPoly.aux_odd(c3.densities, 2)
    dens = SuperDensity(c3, f12)
    x3 = SuperVectorField.coordinate_basis(c3, ("x", 3))
    ins = insert_iX(x3, dens)
    want = f12 * GradedPoly.aux_odd(c3.densities, 3)
    assert ins == SuperDensity(c3, want)
    assert ins.degree == 3


def test_grassmann_contraction_is_even_derivation():
    rng = random.Random(23)
    c = CoordinateSystem(0, 2)
    xi_dir = SuperVectorField.coordinate_basis(c, ("xi", 1))
    i_op = op_i_form(xi_dir)
    for _ in range(15):
        w = rg.form(rng, c, rng.randint(0, 3))
        v = rg.form(rng, c, rng.randint(0, 3))
        assert (i_op(w * v) - (i_op(w) * v + w * i_op(v))).is_zero()


def test_lie_derivative_examples():
    c = CoordinateSystem(2, 1)
    d1 = SuperVectorField.coordinate_basis(c, ("x", 1))
    rng = random.Random(24)
    for _ in range(10):
        w = rg.form(rng, c, rng.randint(0, 2))
        got = lie_derivative(d1, w)
        assert got == w.partial_x(1)
    # L_X(f w) = (Xf) w + f L_X(w) for even X
    x_field = rg.vector_field(rng, c, 0)
    f = rg.superfunction(rng, c, parity=0)
    for _ in range(5):
        w = rg.form(rng, c, 1)
        lhs = lie_derivative(x_field, SuperForm(c, f.with_carrier(c.forms) * w))
        rhs = SuperForm(
            c,
            x_field.apply(f).with_carrier(c.forms) * w
            + f.with_carrier(c.forms) * lie_derivative(x_field, w),
        )
        assert lhs == rhs
    # constant form along a constant field
    const_field = SuperVectorField.make(c, [1, 2], [0], parity=0)
    const_form = SuperForm(c, c.dx(1) * c.dx(2))
    assert lie_derivative(const_field, const_form).is_zero()


def test_lie_derivative_on_the_generators():
    """L(X) takes x_a to X^a, xi_alpha to X^alpha, and dx_a and dxi_alpha
    to (-1)^|X| dX^a and (-1)^|X| dX^alpha."""
    rng = random.Random(27)
    for n, nu in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 3)):
        c = CoordinateSystem(n, nu)
        for parity in (0, 1):
            for _ in range(3):
                x = rg.vector_field(rng, c, parity)
                lie = op_lie_form(x)
                sign = -1 if parity else 1
                for a in range(1, n + 1):
                    assert lie(c.x(a).with_carrier(c.forms)) == x.bose[a - 1].with_carrier(c.forms)
                    assert lie(c.dx(a)) == total_differential(c, x.bose[a - 1]) * sign
                for alpha in range(1, nu + 1):
                    assert lie(c.xi(alpha).with_carrier(c.forms)) == x.fermi[alpha - 1].with_carrier(c.forms)
                    assert lie(c.dxi(alpha)) == total_differential(c, x.fermi[alpha - 1]) * sign


def test_lie_derivative_needs_no_bracket(monkeypatch):
    """L(X) is built and applied without the graded bracket, i(X) or d,
    so the row [i(X), d] = L(X) checks the Cartan formula against an
    implementation of its own."""
    rng = random.Random(28)
    cases = []
    for n, nu in ((2, 0), (0, 2), (2, 2), (3, 1)):
        c = CoordinateSystem(n, nu)
        for parity in (0, 1):
            x = rg.vector_field(rng, c, parity)
            w = rg.form(rng, c, rng.randint(0, 3))
            cases.append((x, w, op_i_form(x).graded_bracket(op_d_form(c))(w)))

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket route was called")

    monkeypatch.setattr(Operator, "graded_bracket", refuse)
    monkeypatch.setattr("supercalc.forms.op_i_form", refuse)
    monkeypatch.setattr("supercalc.forms.op_d_form", refuse)
    with pytest.raises(AssertionError, match="bracket route"):
        op_d_form(CoordinateSystem(1, 0)).graded_bracket(op_d_form(CoordinateSystem(1, 0)))
    for x, w, want in cases:
        assert op_lie_form(x)(w) == want
        assert lie_derivative(x, SuperForm(x.coords, w)) == want


def test_lie_on_densities_and_functions():
    c = CoordinateSystem(1, 1)
    rng = random.Random(25)
    x_field = rg.vector_field(rng, c, 0)
    f = rg.superfunction(rng, c)
    assert lie_derivative(x_field, f) == x_field.apply(f)
    u = rg.density(rng, c, 1)
    out = lie_derivative(x_field, u)
    assert isinstance(out, SuperDensity)


def test_operator_degree_shifts():
    c = CoordinateSystem(2, 2)
    rng = random.Random(26)
    w = rg.form(rng, c, 1)
    e_op = op_e_form(c, c.x(1))
    assert SuperForm(c, e_op(w)).degree == 2
    i_op = op_i_form(SuperVectorField.coordinate_basis(c, ("x", 1)))
    out = i_op(w)
    if not out.is_zero():
        assert SuperForm(c, out).degree == 0
    u = rg.density(rng, c, 1)
    ins = insert_iX(SuperVectorField.coordinate_basis(c, ("xi", 1)), u)
    assert ins.degree == 2


def test_complex_does_not_terminate():
    c = CoordinateSystem(0, 2)
    high = GradedPoly.aux_even(c.forms, 1) ** (c.nu + 2)
    assert not high.is_zero()
    assert SuperForm(c, high).degree == c.nu + 2


def test_commutator_table_all_mixes():
    rng = random.Random(27)
    for mix in ((2, 0), (0, 2), (2, 2), (3, 1)):
        coords = CoordinateSystem(*mix)
        for res in commutator_table(coords, _trial_set(rng, coords)):
            assert res.failures == 0, f"{mix}: {res.name}"


# (name, cases) of every check of run_complexes(seed=0, trials=4, table_cases=3)
# on the default patches: where the operators are built must not change what
# the table counts, nor the rng draws behind the filtered families
COMPLEXES_CASES = [
    ('(2,0) dd = 0', 4),
    ('(2,0) bb = 0', 4),
    ('(2,0) wedge graded commutativity', 1),
    ('(2,0) forms: dd = 0', 3),
    ('(2,0) forms: [e(F), e(G)] = 0', 12),
    ('(2,0) forms: [i(X), i(Y)] = 0', 12),
    ('(2,0) forms: [i(X), e(F)] = M(XF)', 32),
    ('(2,0) forms: [d, e(F)] = 0', 8),
    ('(2,0) forms: [i(X), d] = L(X)', 8),
    ('(2,0) forms: [d, L(X)] = 0', 8),
    ('(2,0) forms: [d, M(F)] = e(F)', 8),
    ('(2,0) forms: [L(X), L(Y)] = L([X, Y])', 8),
    ('(2,0) forms: [L(X), e(F)] = (-1)^X e(XF)', 16),
    ('(2,0) forms: [L(X), M(F)] = M(XF)', 16),
    ('(2,0) forms: [L(X), i(Y)] = i([X, Y])', 8),
    ('(2,0) forms: d = sum e(x^A) L(d/dx^A)', 3),
    ('(2,0) forms: ladder pairs {i(d_a), e(x^k)} = delta, [i(d_xi), e(xi)] = delta', 12),
    ('(2,0) forms: i(odd X) is an even derivation over wedge', 0),
    ('(2,0) densities: bb = 0', 3),
    ('(2,0) densities: [e(F), e(G)] = 0', 8),
    ('(2,0) densities: [i(X), i(Y)] = 0', 8),
    ('(2,0) densities: [b, e(F)] = 0', 8),
    ('(2,0) densities: [e(F), i(X)]+ = M(XF) (bosonic)', 32),
    ('(2,0) densities: [b, L(X)] = 0', 8),
    ('(2,0) densities: b = sum e(x^A) L(d/dx^A)', 3),
    ('(2,0) densities: L(d/dx^A) acts as d/dx^A', 6),
    ('(2,0) densities: bracket Lie = classical component formula (bosonic)', 12),
    ('(2,0) densities: [b, i(X)]+ = d_mu(X^mu .) on scalars (bosonic)', 16),
    ('(0,2) dd = 0', 4),
    ('(0,2) bb = 0', 4),
    ('(0,2) wedge graded commutativity', 1),
    ('(0,2) complex continues above degree nu', 2),
    ('(0,2) forms: dd = 0', 3),
    ('(0,2) forms: [e(F), e(G)] = 0', 12),
    ('(0,2) forms: [i(X), i(Y)] = 0', 12),
    ('(0,2) forms: [i(X), e(F)] = M(XF)', 32),
    ('(0,2) forms: [d, e(F)] = 0', 8),
    ('(0,2) forms: [i(X), d] = L(X)', 8),
    ('(0,2) forms: [d, L(X)] = 0', 8),
    ('(0,2) forms: [d, M(F)] = e(F)', 8),
    ('(0,2) forms: [L(X), L(Y)] = L([X, Y])', 8),
    ('(0,2) forms: [L(X), e(F)] = (-1)^X e(XF)', 16),
    ('(0,2) forms: [L(X), M(F)] = M(XF)', 16),
    ('(0,2) forms: [L(X), i(Y)] = i([X, Y])', 8),
    ('(0,2) forms: d = sum e(x^A) L(d/dx^A)', 3),
    ('(0,2) forms: ladder pairs {i(d_a), e(x^k)} = delta, [i(d_xi), e(xi)] = delta', 12),
    ('(0,2) forms: i(odd X) is an even derivation over wedge', 8),
    ('(0,2) densities: bb = 0', 3),
    ('(0,2) densities: [e(F), e(G)] = 0', 8),
    ('(0,2) densities: [i(X), i(Y)] = 0', 8),
    ('(0,2) densities: [b, e(F)] = 0', 8),
    ('(0,2) densities: [b, L(X)] = 0', 8),
    ('(0,2) densities: b = sum e(x^A) L(d/dx^A)', 3),
    ('(0,2) densities: L(d/dx^A) acts as d/dx^A', 6),
    ('(0,2) scalar-density integral matches mixed integral', 5),
    ('(2,2) dd = 0', 4),
    ('(2,2) bb = 0', 4),
    ('(2,2) wedge graded commutativity', 1),
    ('(2,2) complex continues above degree nu', 2),
    ('(2,2) forms: dd = 0', 3),
    ('(2,2) forms: [e(F), e(G)] = 0', 12),
    ('(2,2) forms: [i(X), i(Y)] = 0', 12),
    ('(2,2) forms: [i(X), e(F)] = M(XF)', 32),
    ('(2,2) forms: [d, e(F)] = 0', 8),
    ('(2,2) forms: [i(X), d] = L(X)', 8),
    ('(2,2) forms: [d, L(X)] = 0', 8),
    ('(2,2) forms: [d, M(F)] = e(F)', 8),
    ('(2,2) forms: [L(X), L(Y)] = L([X, Y])', 8),
    ('(2,2) forms: [L(X), e(F)] = (-1)^X e(XF)', 16),
    ('(2,2) forms: [L(X), M(F)] = M(XF)', 16),
    ('(2,2) forms: [L(X), i(Y)] = i([X, Y])', 8),
    ('(2,2) forms: d = sum e(x^A) L(d/dx^A)', 3),
    ('(2,2) forms: ladder pairs {i(d_a), e(x^k)} = delta, [i(d_xi), e(xi)] = delta', 24),
    ('(2,2) forms: i(odd X) is an even derivation over wedge', 8),
    ('(2,2) densities: bb = 0', 3),
    ('(2,2) densities: [e(F), e(G)] = 0', 8),
    ('(2,2) densities: [i(X), i(Y)] = 0', 8),
    ('(2,2) densities: [b, e(F)] = 0', 8),
    ('(2,2) densities: [b, L(X)] = 0', 8),
    ('(2,2) densities: b = sum e(x^A) L(d/dx^A)', 3),
    ('(2,2) densities: L(d/dx^A) acts as d/dx^A', 12),
    ('(2,2) scalar-density integral matches mixed integral', 5),
    ('(3,1) dd = 0', 4),
    ('(3,1) bb = 0', 4),
    ('(3,1) wedge graded commutativity', 1),
    ('(3,1) complex continues above degree nu', 2),
    ('(3,1) forms: dd = 0', 3),
    ('(3,1) forms: [e(F), e(G)] = 0', 12),
    ('(3,1) forms: [i(X), i(Y)] = 0', 12),
    ('(3,1) forms: [i(X), e(F)] = M(XF)', 32),
    ('(3,1) forms: [d, e(F)] = 0', 8),
    ('(3,1) forms: [i(X), d] = L(X)', 8),
    ('(3,1) forms: [d, L(X)] = 0', 8),
    ('(3,1) forms: [d, M(F)] = e(F)', 8),
    ('(3,1) forms: [L(X), L(Y)] = L([X, Y])', 8),
    ('(3,1) forms: [L(X), e(F)] = (-1)^X e(XF)', 16),
    ('(3,1) forms: [L(X), M(F)] = M(XF)', 16),
    ('(3,1) forms: [L(X), i(Y)] = i([X, Y])', 8),
    ('(3,1) forms: d = sum e(x^A) L(d/dx^A)', 3),
    ('(3,1) forms: ladder pairs {i(d_a), e(x^k)} = delta, [i(d_xi), e(xi)] = delta', 30),
    ('(3,1) forms: i(odd X) is an even derivation over wedge', 4),
    ('(3,1) densities: bb = 0', 3),
    ('(3,1) densities: [e(F), e(G)] = 0', 8),
    ('(3,1) densities: [i(X), i(Y)] = 0', 8),
    ('(3,1) densities: [b, e(F)] = 0', 2),
    ('(3,1) densities: [b, L(X)] = 0', 8),
    ('(3,1) densities: b = sum e(x^A) L(d/dx^A)', 3),
    ('(3,1) densities: L(d/dx^A) acts as d/dx^A', 12),
    ('(3,1) scalar-density integral matches mixed integral', 5),
]


def test_complexes_case_counts_are_pinned():
    from supercalc.suites import run_complexes

    report = run_complexes(seed=0, trials=4, table_cases=3)
    assert [(check.name, check.cases) for check in report.checks] == COMPLEXES_CASES
    assert all(check.ok for check in report.checks)


def test_commutator_table_builds_each_lie_derivative_once(monkeypatch):
    """On patch (2, 2) a trial set builds L(X) on forms at most once per
    field, per bracket field and per coordinate direction, and the table
    call builds none."""
    import supercalc.suites as suites

    builds = []
    monkeypatch.setattr(suites, "op_lie_form", lambda x: builds.append(x) or op_lie_form(x))
    coords = CoordinateSystem(2, 2)
    trial = _trial_set(random.Random(31), coords)
    assert len(builds) <= len(trial["fields"]) + len(trial["field pairs"]) + len(trial["coordinates"]) == 12
    built = len(builds)
    assert all(res.failures == 0 for res in commutator_table(coords, trial))
    assert len(builds) == built


def test_vector_field_parity_validation():
    c = CoordinateSystem(1, 1)
    with pytest.raises(ValueError):
        SuperVectorField.make(c, [c.xi(1)], [0], parity=0)  # odd bosonic comp


def test_integrate_density_examples():
    c = CoordinateSystem(1, 2)
    f = (
        c.x(1) * c.xi(1) * c.xi(2)
    )  # f(x) xi1 xi2 with f = x
    assert integrate_density(f, ((0, 1),)) == CRat(Fraction(1, 2))
    # independent of the top monomial: zero
    g = c.x(1) * c.xi(1)
    assert integrate_density(g, ((0, 1),)) == CRat(0)
    # scalar-density wrapper accepted
    dens = SuperDensity.from_function(c, f)
    assert integrate_density(dens, ((0, 1),)) == CRat(Fraction(1, 2))
    with pytest.raises(ValueError):
        integrate_density(SuperDensity(c, GradedPoly.aux_odd(c.densities, 1)), ((0, 1),))


def test_integrate_density_matches_mixed_route():
    rng = random.Random(28)
    c = CoordinateSystem(2, 2)
    bounds = ((0, 1), (-1, 2))
    for _ in range(20):
        fn = rg.superfunction(rng, c, terms=5)
        direct = integrate_density(fn, bounds)
        # read the xi1*xi2 terms of F directly, with no derivative, and
        # integrate them over the box
        ring = function_carrier(2, 0)
        monos = ((fn.carrier.unpack(k), c) for k, c in fn.terms.items())
        top = {ring.pack((x, 0, 0, ())): c for (x, xi, _, _), c in monos if xi == 0b11}
        via_top = integrate_box(GradedPoly(ring, top), bounds)
        assert direct == via_top


def test_pairing_degree_orthogonality_and_weights():
    c = CoordinateSystem(1, 1)
    dens1 = SuperDensity(c, GradedPoly.aux_even(c.densities, 1))
    form1 = SuperForm(c, c.dxi(1))
    assert pairing(dens1, form1) == GradedPoly.unit(c.functions)
    form2 = SuperForm(c, c.dxi(1) ** 2)
    dens2 = SuperDensity(c, GradedPoly.aux_even(c.densities, 1) ** 2)
    assert pairing(dens2, form2) == GradedPoly.scalar(c.functions, 2)  # 2! weight
    assert pairing(dens1, form2).is_zero()  # degree mismatch


def test_each_scope_is_load_bearing():
    """Each scoped row's own deviation is nonzero off its scope, on seeded
    entries of the mixed patch (2, 2), each carrying its operators."""
    from supercalc.suites import IDENTITIES, Product, _field, _function

    rows = {row.name: row for row in IDENTITIES}
    c = CoordinateSystem(2, 2)
    rng = random.Random(30)
    forms = [rg.form(rng, c, degree) for degree in (1, 2, 3)]
    densities = [rg.density(rng, c, degree) for degree in (1, 2, 3)]
    functions = [_function(c, rg.superfunction(rng, c, parity=k % 2)) for k in range(8)]
    fields = [_field(rg.vector_field(rng, c, k % 2)) for k in range(4)]
    products = [Product(x, f, _function(c, x.x.apply(f.f))) for x in fields for f in functions]
    odd_functions = [f for f in functions if f.f.parity() is Parity.ODD]
    odd_products = [xf for xf in products if xf.field.x.parity == 1]

    # [b, e(F)] = 0 takes no odd F on mixed patches, and fails for one
    trial = _trial_set(rng, c)
    assert not any(f.f.parity() is Parity.ODD for f in trial["b-closed functions"])
    b_e = rows["densities: [b, e(F)] = 0"].deviation
    patch = trial["patch"][0]
    assert any(not b_e(patch, f, u).is_zero() for f in odd_functions for u in densities)

    # [e(F), i(X)]+ = M(XF) on densities is bosonic only, and fails at nu > 0
    e_i = rows["densities: [e(F), i(X)]+ = M(XF) (bosonic)"]
    assert not e_i.scope(c)
    assert any(not e_i.deviation(xf, u).is_zero() for xf in products for u in densities)

    # [L(X), e(F)] = (-1)^X e(XF): the deviation is [L(X), e(F)] + e(XF) for
    # an odd X, so leaving the sign out subtracts e(XF) twice
    lie_e = rows["forms: [L(X), e(F)] = (-1)^X e(XF)"].deviation
    unsigned = [
        lie_e(xf, w) - op_e_form(c, xf.field.x.apply(xf.function.f))(w) * 2
        for xf in odd_products
        for w in forms
    ]
    assert any(not dev.is_zero() for dev in unsigned)


def test_contraction_operators_refuse_the_other_carrier():
    """i(X) on forms and e(F) on densities take only their own carrier."""
    c = CoordinateSystem(2, 1)
    x = SuperVectorField.coordinate_basis(c, ("x", 1))
    f = c.x(1) * c.x(2) + c.x(1)
    form = c.dx(1) * c.dxi(1) * 3
    density = GradedPoly.aux_odd(c.densities, 1) * GradedPoly.aux_even(c.densities, 1)
    for op, wrong in ((op_i_form(x), density), (op_e_density(c, f), form)):
        for operand in (wrong, c.x(1) * c.xi(1)):
            with pytest.raises(GeneratorMismatch):
                op(operand)
    assert not op_i_form(x)(form).is_zero() and not op_e_density(c, f)(density).is_zero()


def test_brackets_refuse_an_operator_of_mixed_parity():
    """A sum of an even and an odd operator has no parity, so a graded
    bracket with it names the mixed parity."""
    c = CoordinateSystem(1, 1)
    mixed = op_d_form(c) + op_mult(c, 1)
    assert mixed.parity is None
    for make in (
        lambda: mixed.graded_bracket(op_d_form(c)),
        lambda: op_d_form(c).graded_bracket(mixed),
    ):
        with pytest.raises(ValueError, match="mixed parity"):
            make()
    even = op_mult(c, c.x(1))
    assert (even + even).graded_bracket(op_d_form(c)).parity == 1


def test_vector_field_refuses_components_of_another_patch():
    c = CoordinateSystem(1, 1)
    with pytest.raises(GeneratorMismatch):
        SuperVectorField(c, (CoordinateSystem(2, 1).x(1),), (GradedPoly.zero(c.functions),), 0)
    with pytest.raises(GeneratorMismatch):
        SuperVectorField(c, (GradedPoly.unit(c.forms),), (GradedPoly.zero(c.functions),), 0)
