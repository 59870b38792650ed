import math
from fractions import Fraction

import pytest

from supercalc import quadrature

RULES = [
    (15, quadrature._NODES, quadrature._WEIGHTS),
    (30, quadrature._NODES_30, quadrature._WEIGHTS_30),
]


def legendre(n, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, exact for a Fraction x."""
    previous, current = Fraction(1), x
    for k in range(1, n):
        previous, current = current, ((2 * k + 1) * x * current - k * previous) / (k + 1)
    return current, previous


@pytest.mark.parametrize("n, nodes, weights", RULES)
def test_each_node_is_a_root_of_the_legendre_polynomial_to_one_ulp(n, nodes, weights):
    assert len(nodes) == len(weights) == n
    for x in nodes:
        below, _ = legendre(n, Fraction(math.nextafter(x, -2)))
        above, _ = legendre(n, Fraction(math.nextafter(x, 2)))
        assert below * above < 0, x


@pytest.mark.parametrize("n, nodes, weights", RULES)
def test_the_rule_integrates_every_power_below_2n(n, nodes, weights):
    for k in range(2 * n):
        exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
        rule = sum(Fraction(w) * Fraction(x) ** k for x, w in zip(nodes, weights))
        assert abs(float(rule - exact)) <= 1e-14, k


@pytest.mark.parametrize("n, nodes, weights", RULES)
def test_weights_follow_the_derivative_formula(n, nodes, weights):
    for x, w in zip(nodes, weights):
        x = Fraction(x)
        p, p_before = legendre(n, x)
        slope = n * (x * p - p_before) / (x * x - 1)
        expected = 2 / ((1 - x * x) * slope * slope)
        assert abs(float((Fraction(w) - expected) / expected)) <= 1e-12, x


@pytest.mark.parametrize("n, nodes, weights", RULES)
def test_nodes_ascend_and_the_rule_is_mirror_symmetric(n, nodes, weights):
    assert list(nodes) == sorted(set(nodes))
    assert nodes == tuple(-x for x in reversed(nodes))
    assert weights == tuple(reversed(weights))


@pytest.mark.parametrize("n, nodes, weights", RULES)
def test_tables_equal_numpy_leggauss_bit_for_bit(n, nodes, weights):
    np = pytest.importorskip("numpy")
    x, w = np.polynomial.legendre.leggauss(n)
    assert (nodes, weights) == (tuple(map(float, x)), tuple(map(float, w)))


def test_gaussian_converges_inside_the_panel_budget():
    gauss = lambda x: math.exp(-x * x)  # noqa: E731
    for lo, hi, tol in [(-8, 8, 1e-12), (-8, 8, 1e-14), (-100, 100, 1e-14), (-1000, 1000, 1e-12)]:
        assert quadrature.integrate(gauss, lo, hi, tol=tol) == pytest.approx(math.sqrt(math.pi), abs=1e-11)


def test_panel_budget_stops_a_tolerance_that_never_converges():
    calls = 0

    def gauss(x):
        nonlocal calls
        calls += 1
        return math.exp(-x * x)

    with pytest.raises(ValueError, match=f"within {quadrature.MAX_PANELS} panels"):
        quadrature.integrate(gauss, -1000, 1000, tol=1e-13)
    assert calls <= 45 * quadrature.MAX_PANELS
