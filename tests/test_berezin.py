import math
import random
from fractions import Fraction

import pytest

from supercalc import randomgen as rg
from supercalc.berezin import (
    Domain,
    MixedFunction,
    Normalization,
    WeightedScalar,
    berezin_integral,
    change_of_variables_check,
    density_pairing,
    from_json_mixed,
    grassmann_derivative,
    lambda_apply,
    mixed_integral,
    raised_components,
    tensor_product,
)
from supercalc.graded_poly import GradedPoly, function_carrier, indices_of
from supercalc.grassmann import GeneratorMismatch, Supernumber
from supercalc.polynomials import Polynomial
from supercalc.scalars import CRat


def _x(n: int, a: int) -> GradedPoly:
    """The coordinate x_a of the polynomials in n variables."""
    return GradedPoly.coordinate(function_carrier(n, 0), a)


def _constant(n: int, value) -> GradedPoly:
    """The constant polynomial in n variables."""
    return GradedPoly.scalar(function_carrier(n, 0), value)


def test_left_derivative_examples():
    x1, x2 = Supernumber.generators(2)
    assert grassmann_derivative(x1 * x2, 1) == x2
    assert grassmann_derivative(x1 * x2, 2) == -x1  # one transposition
    with pytest.raises(ValueError):
        grassmann_derivative(x1, 3)
    with pytest.raises(ValueError, match=r"index 0 outside 1\.\.2$"):
        grassmann_derivative(x1, 0)


def test_derivatives_anticommute():
    rng = random.Random(3)
    for k in range(60):
        nu = 2 + k % 3
        f = rg.supernumber(rng, nu)
        lam, mu = 1 + k % nu, 1 + (k + 1) % nu
        fwd = grassmann_derivative(grassmann_derivative(f, lam), mu)
        back = grassmann_derivative(grassmann_derivative(f, mu), lam)
        assert (fwd + back).is_zero()


def test_berezin_integral_examples():
    a_plus_b = Supernumber.scalar(1, 5) + Supernumber.generator(1, 1) * 7
    assert berezin_integral(a_plus_b) == CRat(7)
    x1, x2 = Supernumber.generators(2)
    assert berezin_integral(x1 * x2) == CRat(1)


def test_integral_of_derivative_vanishes():
    rng = random.Random(5)
    for k in range(60):
        nu = 1 + k % 4
        f = rg.supernumber(rng, nu)
        mu = 1 + k % nu
        assert berezin_integral(grassmann_derivative(f, mu)) == CRat(0)


def test_derivation_property_integration_by_parts():
    rng = random.Random(6)
    for k in range(40):
        nu = 2 + k % 3
        f, g = rg.supernumber(rng, nu), rg.supernumber(rng, nu)
        mu = 1 + k % nu
        assert berezin_integral(grassmann_derivative(f * g, mu)) == CRat(0)


def test_normalization_tag():
    z = Supernumber.generator(1, 1) * 7
    tagged = berezin_integral(z, Normalization.SQRT_2PI_I)
    assert tagged == WeightedScalar(CRat(7), 1)
    squared = tagged * tagged
    assert squared.half_power == 2  # (2 pi i)^1
    assert complex(squared) == pytest.approx(49 * 2j * math.pi)


def test_change_of_variables_scale():
    f = Supernumber.generator(1, 1)
    lhs, rhs = change_of_variables_check(f, [[2]])
    assert lhs == rhs == CRat(2)


def test_change_of_variables_swap():
    x1, x2 = Supernumber.generators(2)
    lhs, rhs = change_of_variables_check(x1 * x2, [[0, 1], [1, 0]])
    assert lhs == rhs  # det = -1 balances the reordering sign


def test_change_of_variables_random():
    rng = random.Random(9)
    for k in range(60):
        nu = 1 + k % 4
        f = rg.supernumber(rng, nu)
        a = rg.invertible_rational_matrix(rng, nu)
        lhs, rhs = change_of_variables_check(f, a)
        assert lhs == rhs
    with pytest.raises(ValueError):
        change_of_variables_check(Supernumber.generator(2, 1), [[1, 1], [1, 1]])


def test_mixed_integral_polynomial():
    f = MixedFunction(1, 2, {0b11: _x(1, 1)})
    assert mixed_integral(f, Domain.box((0, 1))) == CRat(Fraction(1, 2))


def test_mixed_integral_missing_top_term():
    f = MixedFunction(1, 2, {0b01: _x(1, 1)})
    assert mixed_integral(f, Domain.box((0, 1))) == CRat(0)


def test_mixed_integral_gaussian():
    f = MixedFunction(1, 2, {0b11: lambda x: math.exp(-x * x)})
    value = mixed_integral(f, Domain(((-8.0, 8.0),), tol=1e-12))
    assert abs(value - math.sqrt(math.pi)) < 1e-10


def test_raised_components_shuffle_signs():
    # D = xi1 over two generators: the raised slot sits on xi2 with the
    # (complement, target) shuffle sign +1 for (1),(2) and -1 for (2),(1)
    d = MixedFunction(0, 2, {0b01: _constant(0, 1)})
    raised = raised_components(d)
    assert raised == {0b10: _constant(0, 1)}
    d2 = MixedFunction(0, 2, {0b10: _constant(0, 1)})
    assert raised_components(d2) == {0b01: -_constant(0, 1)}


def test_density_pairing_examples():
    dom = Domain.box((0, 1))
    f0 = _x(1, 1)  # f0(x) = x
    d = MixedFunction(1, 2, {0b11: _constant(1, 1)})
    f = MixedFunction(1, 2, {0: f0})
    assert density_pairing(d, f, dom) == CRat(Fraction(1, 2))
    d1 = MixedFunction(1, 2, {0: _constant(1, 1)})
    f12 = MixedFunction(1, 2, {0b11: f0})
    assert density_pairing(d1, f12, dom) == CRat(Fraction(1, 2))


def test_density_pairing_equals_product_integral():
    rng = random.Random(12)
    dom = Domain.box((0, 1))
    for _ in range(60):
        d = rg.mixed_function(rng, 1, 3)
        f = rg.mixed_function(rng, 1, 3)
        assert density_pairing(d, f, dom) == mixed_integral(d * f, dom)


def test_lambda_apply_matches_coefficient_pairing():
    rng = random.Random(13)
    for _ in range(20):
        d = rg.mixed_function(rng, 1, 3)
        f = rg.mixed_function(rng, 1, 3)
        prod, ring = d * f, function_carrier(1, 0)
        monos = ((prod.carrier.unpack(k), c) for k, c in prod.terms.items())
        top = {ring.pack((x, 0, 0, ())): c for (x, xi, _, _), c in monos if xi == 0b111}
        assert lambda_apply(d, f) == GradedPoly(ring, top)


def test_fubini_factorized():
    rng = random.Random(14)
    for _ in range(15):
        f1 = rg.mixed_function(rng, 1, 2)
        f2 = rg.mixed_function(rng, 1, 1)
        i1 = mixed_integral(f1, Domain.box((0, 1)))
        i2 = mixed_integral(f2, Domain.box((-1, 1)))
        assert mixed_integral(tensor_product(f1, f2), Domain.box((0, 1), (-1, 1))) == i1 * i2
        assert mixed_integral(tensor_product(f2, f1), Domain.box((-1, 1), (0, 1))) == i2 * i1


def mixed_json(f: GradedPoly) -> dict:
    """The JSON object of a mixed function, written from the `.terms` view
    with `str` of each coefficient."""
    n = f.carrier.n
    terms: dict = {}
    for key, c in f.terms.items():
        x_exps, mask, _, _ = f.carrier.unpack(key)
        exps = dict(x_exps)
        poly = terms.setdefault(",".join(map(str, indices_of(mask))), {})
        poly[",".join(str(exps.get(a, 0)) for a in range(1, n + 1))] = str(c)
    return {"n": n, "nu": f.carrier.nu, "terms": terms}


def test_mixed_function_json_round_trip():
    rng = random.Random(15)
    for _ in range(10):
        f = rg.mixed_function(rng, 2, 3)
        assert from_json_mixed(mixed_json(f)) == f


def test_polynomial_variable_count_mismatch():
    one_var = Polynomial(1, {(1,): 1})
    two_vars = Polynomial(2, {(1, 1): 1})
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(GeneratorMismatch):
            op(one_var, two_vars)
        with pytest.raises(GeneratorMismatch):
            op(two_vars, one_var)


def test_from_json_mixed_resolves_named_integrands():
    data = {"n": 1, "nu": 2, "terms": {"1,2": "gaussian", "": {"0": "3"}}}
    gaussian = lambda x: math.exp(-x * x)  # noqa: E731
    f = from_json_mixed(data, {"gaussian": gaussian})
    assert f.terms[0b11] is gaussian
    assert f.terms[0] == Polynomial(1, {(0,): 3})
    value = mixed_integral(f, Domain(((-8.0, 8.0),), tol=1e-12))
    assert abs(value - math.sqrt(math.pi)) < 1e-10
    for integrands in (None, {"other": gaussian}):
        with pytest.raises(ValueError, match="unknown integrand 'gaussian'"):
            from_json_mixed(data, integrands)


def test_mixed_function_is_a_superfunction():
    f = MixedFunction(1, 1, {1: _x(1, 1)}) * MixedFunction(1, 1, {0: 2})
    assert type(f) is GradedPoly and f.carrier == function_carrier(1, 1)
    assert f == GradedPoly(function_carrier(1, 1), {function_carrier(1, 1).pack((((1, 1),), 0b1, 0, ())): 2})
    with pytest.raises(ValueError, match="xi mask"):
        MixedFunction(1, 1, {-1: 1})
    with pytest.raises(ValueError, match="not a polynomial in 1 variables"):
        MixedFunction(1, 1, {0: _x(2, 1)})


GAUSSIAN = lambda x: math.exp(-x * x)  # noqa: E731


@pytest.mark.parametrize(
    "op",
    [
        lambda box, f: box + f,
        lambda box, f: f + box,
        lambda box, f: box * f,
        lambda box, f: f * box,
        lambda box, f: box == box,
        lambda box, f: f == box,
        lambda box, f: tensor_product(box, f),
        lambda box, f: tensor_product(f, box),
        lambda box, f: raised_components(box),
        lambda box, f: lambda_apply(box, f),
        lambda box, f: lambda_apply(f, box),
        lambda box, f: density_pairing(box, f, Domain.box((0, 1))),
        lambda box, f: density_pairing(f, box, Domain.box((0, 1))),
        lambda box, f: grassmann_derivative(box, 1),
        lambda box, f: berezin_integral(box),
    ],
    ids=[
        "add", "radd", "mul", "rmul", "eq", "req", "tensor", "rtensor", "raise",
        "lambda-d", "lambda-f", "pairing-d", "pairing-f", "derivative", "berezin",
    ],
)
def test_black_box_has_no_exact_operations(op):
    box = MixedFunction(1, 2, {0b11: GAUSSIAN, 0b01: _x(1, 1)})
    with pytest.raises(TypeError):
        op(box, MixedFunction(1, 2, {0: 1}))


def test_black_box_with_polynomial_top_integrates_exactly():
    box = MixedFunction(2, 2, {0b01: GAUSSIAN, 0b11: Polynomial(2, {(1, 2): 3})})
    assert box.terms[0b01] is GAUSSIAN
    assert mixed_integral(box, Domain.box((0, 1), (0, 2))) == CRat(4)  # (1/2) * 8
    assert mixed_integral(MixedFunction(2, 2, {0b01: GAUSSIAN}), Domain.box((0, 1), (0, 2))) == CRat(0)
