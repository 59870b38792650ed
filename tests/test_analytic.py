import random
from fractions import Fraction

import pytest

from supercalc import randomgen as rg
from supercalc.analytic import (
    COS,
    EXP,
    EXP_NEG,
    IDENTITY,
    RECIPROCAL,
    SIN,
    SeedDomainError,
    lift,
    polynomial_seed,
    seed_by_name,
)
from supercalc.exprlang import Context, evaluate
from supercalc.grassmann import Parity, Supernumber


def test_lift_exp_nilpotent():
    # e^s = 1 + s exactly when s^2 = 0
    x1, x2 = Supernumber.generators(2)
    s = x1 * x2
    assert lift(EXP, s) == Supernumber.unit(2) + s


def test_lift_reciprocal_matches_inverse():
    x1, x2 = Supernumber.generators(2)
    z = Supernumber.scalar(2, 2) + x1 * x2
    assert lift(RECIPROCAL, z) == z.inverse()
    rng = random.Random(11)
    for k in range(30):
        n = 2 + k % 4
        z = rg.supernumber(rng, n, ensure_body=True)
        assert lift(RECIPROCAL, z) == z.inverse()


def test_lift_identity():
    rng = random.Random(2)
    for _ in range(10):
        z = rg.supernumber(rng, 3)
        assert lift(IDENTITY, z) == z


def test_lift_even_parity_preserved():
    rng = random.Random(5)
    for _ in range(20):
        z = rg.supernumber(rng, 4).even_part().soul()
        out = lift(EXP, z)
        assert out.parity() in (Parity.EVEN,)


def test_exp_additivity_for_commuting_souls():
    rng = random.Random(8)
    for _ in range(30):
        z = rg.supernumber(rng, 4).soul().even_part()
        w = rg.supernumber(rng, 4).soul().even_part()
        assert lift(EXP, z) * lift(EXP, w) == lift(EXP, z + w)


def test_composition_reciprocal_of_exp():
    rng = random.Random(13)
    for _ in range(20):
        z = rg.supernumber(rng, 4).soul().even_part()
        assert lift(RECIPROCAL, lift(EXP, z)) == lift(EXP_NEG, z)


def test_trig_seeds_at_zero():
    zero_soul = Supernumber.generator(3, 1) * Supernumber.generator(3, 2)
    # sin(s) = s, cos(s) = 1 for s^2 = 0
    assert lift(SIN, zero_soul) == zero_soul
    assert lift(COS, zero_soul) == Supernumber.unit(3)


def test_zero_soul_gives_plain_value():
    seed = polynomial_seed([1, 0, 2])  # 1 + 2 t^2
    z = Supernumber.scalar(2, Fraction(3, 2))
    assert lift(seed, z) == Supernumber.scalar(2, Fraction(1) + 2 * Fraction(9, 4))


def test_seed_domain_errors():
    with pytest.raises(SeedDomainError):
        lift(RECIPROCAL, Supernumber.generator(2, 1) + Supernumber.zero(2))
    with pytest.raises(SeedDomainError):
        lift(EXP, Supernumber.scalar(2, 1) + Supernumber.generator(2, 1))


def test_seed_registry():
    assert seed_by_name("exp") is EXP
    poly = seed_by_name("polynomial:0,1")
    z = Supernumber.scalar(2, 5)
    assert lift(poly, z) == z
    with pytest.raises(ValueError):
        seed_by_name("nope")


# A superfunction f(u, v) = sum_I [prod_k lift(seed_k, u)] v^I of an even
# argument u and an odd one v is an expression of the reader, with u and v
# bound to supernumbers.


def test_eval_superfunction_product_case():
    # f(u, v) = u * v at u = 1 + x1 x2, v = x3
    x1, x2, x3 = Supernumber.generators(3)
    u = Supernumber.unit(3) + x1 * x2
    out = evaluate("lift[identity](u)*v", Context(0, 3, {"u": u, "v": x3}))
    assert out == x3 + x1 * x2 * x3


def test_eval_superfunction_exp_coefficient():
    x1, x2, x3 = Supernumber.generators(3)
    out = evaluate("lift[exp](u)*v", Context(0, 3, {"u": x1 * x2, "v": x3}))
    assert out == x3 + x1 * x2 * x3


def test_eval_superfunction_even_only():
    # f(u) = u^2 at u = 3
    out = evaluate("lift[polynomial:0,0,1](u)", Context(0, 2, {"u": Supernumber.scalar(2, 3)}))
    assert out == Supernumber.scalar(2, 9)
