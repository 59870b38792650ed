import math

import pytest

from supercalc import quadrature


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
