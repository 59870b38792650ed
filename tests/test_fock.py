import math
import random
from fractions import Fraction

import pytest

from supercalc import quadrature
from supercalc import randomgen as rg
from supercalc.berezin import berezin_integral
from supercalc.fock import (
    REPRESENTATIONS,
    FockAlgebraSpec,
    FockState,
    ModeError,
    apply,
    dual_product,
    inner_product,
    spanning_states,
    translate,
)
from supercalc import graded_poly
from supercalc.graded_poly import MAX_EXPONENT, Carrier, GradedPoly
from supercalc.grassmann import Supernumber
from supercalc.scalars import CRat

SPEC = FockAlgebraSpec(2, 2)


def comm(o1, o2, s, anti=False):
    a = apply(o1, apply(o2, s))
    b = apply(o2, apply(o1, s))
    return a + b if anti else a - b


def test_number_operator_on_single_quantum():
    vac = FockState.vacuum(SPEC)
    z1 = apply(("b+", 1), vac)
    assert apply(("b+", 1), apply(("b", 1), z1)) == z1


def test_fermionic_nilpotency():
    vac = FockState.vacuum(SPEC)
    assert apply(("f+", 1), apply(("f+", 1), vac)).is_zero()


def test_mode_bounds():
    vac = FockState.vacuum(SPEC)
    with pytest.raises(ModeError):
        apply(("b", 3), vac)
    with pytest.raises(ModeError):
        apply(("f+", 0), vac)


@pytest.mark.parametrize("rep", REPRESENTATIONS)
def test_apply_refuses_unknown_names_and_modes(rep):
    vac = FockState.vacuum(SPEC, rep)
    for op in (("q", 1), ("b-", 1), ("q", 3), ("bb", 5)):
        with pytest.raises(ValueError, match="unknown ladder operator"):
            apply(op, vac)
    for op in (("b", 0), ("b+", 3), ("f", 3), ("f+", 0)):
        with pytest.raises(ModeError):
            apply(op, vac)


@pytest.mark.parametrize("rep", REPRESENTATIONS)
def test_algebra_relations(rep):
    states = spanning_states(SPEC, rep, max_occupation=2)
    vac = FockState.vacuum(SPEC, rep)
    for op in (("b", 1), ("b", 2), ("f", 1), ("f", 2)):
        assert apply(op, vac).is_zero()
    for s in states:
        for i in (1, 2):
            for j in (1, 2):
                want = s.scale(1 if i == j else 0)
                assert (comm(("b", i), ("b+", j), s) - want).is_zero()
                assert (comm(("f", i), ("f+", j), s, anti=True) - want).is_zero()
                assert comm(("b", i), ("b", j), s).is_zero()
                assert comm(("f", i), ("f", j), s, anti=True).is_zero()
                for o1 in (("b", i), ("b+", i)):
                    for o2 in (("f", j), ("f+", j)):
                        assert comm(o1, o2, s).is_zero()


def test_form_representation_is_differential_operators():
    # b+ multiplies by the even differential, f+ by the odd one
    spec = FockAlgebraSpec(1, 1)
    vac = FockState.vacuum(spec, "form")
    carrier = spec.carrier("form")
    assert apply(("b+", 1), vac) == GradedPoly.aux_even(carrier, 1)
    assert apply(("f+", 1), vac) == GradedPoly.aux_odd(carrier, 1)


def test_state_constructor_refusals():
    spec = FockAlgebraSpec(1, 1)
    with pytest.raises(ValueError, match="unknown representation 'spinor'"):
        FockState(spec, "spinor", GradedPoly.unit(spec.carrier("form")))
    carrier = spec.carrier("form")
    for generator in (GradedPoly.coordinate, GradedPoly.odd_coordinate):
        with pytest.raises(ValueError, match="constant coefficients"):
            FockState(spec, "form", generator(carrier, 1))
    state = FockState.vacuum(spec, "form")
    with pytest.raises((TypeError, ValueError)):
        state * GradedPoly.coordinate(carrier, 1)


def test_translate_intertwines_everything():
    states = spanning_states(SPEC, "holomorphic", max_occupation=3)
    ops = [(kind, i) for kind in ("b", "b+", "f", "f+") for i in (1, 2)]
    for rep in ("form", "density"):
        for s in states:
            for op in ops:
                assert (translate(apply(op, s), rep) - apply(op, translate(s, rep))).is_zero()
            assert (translate(translate(s, rep), "holomorphic") - s).is_zero()
    vac = FockState.vacuum(SPEC)
    assert translate(vac, "form") == FockState.vacuum(SPEC, "form")


def test_inner_product_vacuum_and_moments():
    vac = FockState.vacuum(SPEC)
    assert inner_product(vac, vac) == CRat(1)
    z1 = apply(("b+", 1), vac)
    assert inner_product(z1, z1) == CRat(1)
    z1sq = apply(("b+", 1), z1)
    assert inner_product(z1sq, z1sq) == CRat(2)


def test_bosonic_moments_against_gaussian_quadrature():
    # the radial Gaussian moment integral gives n! with the unit-norm
    # normalization: integral_0^inf r^(2n) e^(-r^2) 2r dr = n!
    for n in range(5):
        value = quadrature.integrate(
            lambda r, _n=n: (r ** (2 * _n)) * math.exp(-r * r) * 2 * r, 0.0, 12.0, tol=1e-12
        )
        assert abs(value - math.factorial(n)) < 1e-9
        state = FockState.vacuum(SPEC)
        for _ in range(n):
            state = apply(("b+", 1), state)
        assert inner_product(state, state) == CRat(math.factorial(n))


def test_fermionic_inner_product_against_berezin_oracle():
    # single mode: represent zeta as xi1 and its conjugate as xi2, then
    # <f|g> equals the Berezin integral of g(zeta) f*(zbar) (1 + zeta zbar)
    def berezin_inner(f_coeffs, g_coeffs):
        zeta = Supernumber.generator(2, 1)
        zbar = Supernumber.generator(2, 2)
        a0, a1 = f_coeffs
        b0, b1 = g_coeffs
        fbar = Supernumber.scalar(2, a0.conjugate()) + zbar * a1.conjugate()
        g = Supernumber.scalar(2, b0) + zeta * b1
        weight = Supernumber.unit(2) + zeta * zbar
        return berezin_integral(g * fbar * weight)

    spec1 = FockAlgebraSpec(0, 1)
    rng = random.Random(41)
    for _ in range(20):
        a = (rg.crat(rng), rg.crat(rng))
        b = (rg.crat(rng), rg.crat(rng))
        vac = FockState.vacuum(spec1)
        f_state = vac.scale(a[0]) + apply(("f+", 1), vac).scale(a[1])
        g_state = vac.scale(b[0]) + apply(("f+", 1), vac).scale(b[1])
        assert inner_product(f_state, g_state) == berezin_inner(a, b)


def test_adjointness_and_cauchy_schwarz():
    rng = random.Random(42)
    states = spanning_states(SPEC, "holomorphic", max_occupation=3)

    def random_state():
        out = FockState.vacuum(SPEC).scale(0)
        for _ in range(4):
            out = out + rng.choice(states).scale(rg.crat(rng))
        return out

    for _ in range(25):
        f, g = random_state(), random_state()
        for i in (1, 2):
            assert inner_product(f, apply(("b+", i), g)) == inner_product(apply(("b", i), f), g)
            assert inner_product(f, apply(("f+", i), g)) == inner_product(apply(("f", i), f), g)
        nf = inner_product(f, f)
        assert nf.im == 0 and nf.re >= 0
        assert inner_product(f, g).abs2() <= (nf * inner_product(g, g)).re


def test_dual_product_examples():
    spec = FockAlgebraSpec(1, 1)
    d_state = apply(("b+", 1), FockState.vacuum(spec, "density"))
    w_state = apply(("b+", 1), FockState.vacuum(spec, "form"))
    assert dual_product(d_state, w_state) == CRat(1)
    assert dual_product(d_state, w_state, volume=Fraction(3, 2)) == CRat(Fraction(3, 2))
    mismatched = apply(("f+", 1), w_state)
    assert dual_product(d_state, mismatched) == CRat(0)


def test_dual_product_degree_orthogonality_exhaustive():
    states = spanning_states(SPEC, "holomorphic", max_occupation=4)
    by_degree = {}
    for s in states:
        occ = s.total_occupation()
        deg = max(occ) if occ else 0
        if deg <= 4:
            by_degree.setdefault(deg, []).append(s)
    for p, sp in by_degree.items():
        for q, sq in by_degree.items():
            if p == q:
                continue
            assert dual_product(translate(sp[0], "density"), translate(sq[0], "form")) == CRat(0)


def test_dual_product_bilinear():
    rng = random.Random(43)
    states = spanning_states(SPEC, "holomorphic", max_occupation=2)
    for _ in range(10):
        f = rng.choice(states).scale(rg.crat(rng))
        g = rng.choice(states).scale(rg.crat(rng))
        h = rng.choice(states).scale(rg.crat(rng))
        lhs = dual_product(translate(f, "density"), translate(g + h, "form"))
        rhs = dual_product(translate(f, "density"), translate(g, "form")) + dual_product(
            translate(f, "density"), translate(h, "form")
        )
        assert lhs == rhs


def test_number_operators_commute_and_project():
    states = spanning_states(SPEC, "holomorphic", max_occupation=3)
    for s in states[:30]:
        for i in (1, 2):
            for j in (1, 2):
                ni = lambda t: apply(("b+", i), apply(("b", i), t))
                mj = lambda t: apply(("f+", j), apply(("f", j), t))
                assert (ni(mj(s)) - mj(ni(s))).is_zero()
                assert (mj(mj(s)) - mj(s)).is_zero()


ORACLE_SPECS = [FockAlgebraSpec(nb, nf) for nb, nf in ((0, 2), (2, 0), (1, 3), (3, 1), (2, 2))]
LADDER_NAMES = ("b", "b+", "f", "f+")


def seeded_states(rng, spec, count=6, terms=5):
    """Multi-term states with Gaussian coefficients over a denominator
    that never cancels (every real part is k/7 with 7 not dividing k)."""
    carrier = spec.carrier("holomorphic")
    out = []
    for _ in range(count):
        coeffs = {}
        for _ in range(terms):
            bose = tuple((i, e) for i in range(1, spec.n_bose + 1) if (e := rng.randint(0, 3)))
            key = carrier.pack((bose, rng.getrandbits(spec.n_fermi) if spec.n_fermi else 0, 0, ()))
            coeffs[key] = CRat(Fraction(rng.choice((-3, -1, 2, 5)), 7), Fraction(rng.randint(-4, 4), 5))
        state = FockState(spec, "holomorphic", GradedPoly(carrier, coeffs))
        assert state.den != 1
        out.append(state)
    return out


def element_route(op, s):
    """A ladder operator as a generator product or a derivative of the
    graded kernel."""
    name, i = op
    carrier = s.carrier
    if s.rep == "holomorphic":
        routes = {
            "b": lambda: s.partial_x(i),
            "b+": lambda: GradedPoly.coordinate(carrier, i) * s,
            "f": lambda: s.partial_xi(i),
            "f+": lambda: GradedPoly.odd_coordinate(carrier, i) * s,
        }
    else:
        routes = {
            "b": lambda: s.partial_aux_even(i),
            "b+": lambda: GradedPoly.aux_even(carrier, i) * s,
            "f": lambda: s.partial_aux_odd(i),
            "f+": lambda: GradedPoly.aux_odd(carrier, i) * s,
        }
    return routes[name]()


def pack_route(s, to):
    """The carrier and numerators of `translate` through the tuple view."""
    if to == s.rep:
        return s.carrier, s.nums
    target = s.spec.carrier(to)
    nums = {}
    for key, c in s.nums.items():
        x_exps, xi, ao, ae = mono = s.carrier.unpack(key)
        if s.rep == "holomorphic":
            mono = ((), 0, xi, x_exps)
        elif to == "holomorphic":
            mono = (ae, ao, 0, ())
        nums[target.pack(mono)] = c
    return target, nums


def ladder_ops(spec):
    return [(name, i) for name in LADDER_NAMES for i in range(1, (spec.n_bose if name[0] == "b" else spec.n_fermi) + 1)]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
@pytest.mark.parametrize("rep", REPRESENTATIONS)
def test_apply_matches_the_element_route(spec, rep):
    rng = random.Random(51)
    for s in seeded_states(rng, spec):
        s = translate(s, rep)
        for op in ladder_ops(spec):
            got, want = apply(op, s), element_route(op, s)
            assert type(got) is FockState and got.carrier == s.carrier
            assert (got.nums, got.den) == (want.nums, want.den), op


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_translate_matches_the_pack_route(spec):
    rng = random.Random(52)
    for holo in seeded_states(rng, spec):
        for source in REPRESENTATIONS:
            s = translate(holo, source)
            for to in REPRESENTATIONS:
                got = translate(s, to)
                target, nums = pack_route(s, to)
                assert type(got) is FockState and got.rep == to
                assert (got.carrier, got.nums, got.den) == (target, nums, s.den), (source, to)


def test_ladder_and_translate_need_no_product_or_derivative(monkeypatch):
    """`apply` and `translate` share no path with the graded product, the
    derivatives or the tuple view, so the CCR/CAR rows check a kernel of
    their own."""
    rng = random.Random(53)
    cases = []
    for spec in ORACLE_SPECS:
        for holo in seeded_states(rng, spec, count=2):
            for rep in REPRESENTATIONS:
                s = translate(holo, rep)
                cases += [(op, s, element_route(op, s)) for op in ladder_ops(spec)]
                cases += [(to, s, pack_route(s, to)) for to in REPRESENTATIONS]

    def refuse(*args, **kwargs):
        raise AssertionError("the element route was called")

    monkeypatch.setattr(GradedPoly, "__mul__", refuse)
    monkeypatch.setattr(GradedPoly, "_derive", refuse)
    monkeypatch.setattr(graded_poly, "_product", refuse)
    monkeypatch.setattr(Carrier, "pack", refuse)
    monkeypatch.setattr(Carrier, "unpack", refuse)
    with pytest.raises(AssertionError, match="element route"):
        GradedPoly.unit(SPEC.carrier("form")).partial_aux_even(1)
    for op, s, want in cases:
        if isinstance(op, str):
            got = translate(s, op)
            assert (got.carrier, got.nums, got.den) == (want[0], want[1], s.den)
        else:
            got = apply(op, s)
            assert (got.nums, got.den) == (want.nums, want.den)


@pytest.mark.parametrize("rep", ("holomorphic", "form"))
def test_creation_refuses_an_exponent_past_the_guard(rep):
    carrier = SPEC.carrier("holomorphic")
    top = FockState(SPEC, "holomorphic", GradedPoly(carrier, {carrier.pack((((1, MAX_EXPONENT),), 0, 0, ())): 3}))
    with pytest.raises(ValueError, match="exceeds"):
        apply(("b+", 1), translate(top, rep))
    assert apply(("b+", 2), translate(top, rep)).den == 1


def test_apply_refuses_what_is_not_a_state():
    with pytest.raises(TypeError, match="FockState"):
        apply(("b", 1), GradedPoly.unit(SPEC.carrier("holomorphic")))
    with pytest.raises(ValueError, match="unknown ladder operator"):
        apply(("q", 1), GradedPoly.unit(SPEC.carrier("holomorphic")))
