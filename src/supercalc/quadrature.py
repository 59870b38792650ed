"""Adaptive Gauss-Legendre quadrature for black-box real integrands.

Deterministic recursive bisection on a fixed 15-point rule; results do
not depend on evaluation scheduling.  Only the floating-point integration
path uses this; polynomial integrands are integrated exactly elsewhere.

The tolerance halves at every split, so a tolerance near roundoff on a
wide interval can bisect without converging for a very long time.  The
work is therefore bounded by a fixed number of panels (one panel is one
15- plus 30-point evaluation of a subinterval).

The 15- and 30-point rules are literal tables: the `repr` of numpy
2.4.6's `numpy.polynomial.legendre.leggauss(n)`, so bit-identical to it.
`tests/test_quadrature.py` pins them without numpy (roots of P_n in
exact arithmetic, exactness for x^k with k < 2n, the weight formula,
symmetry) and, where numpy is installed, against `leggauss` itself.
"""

from __future__ import annotations

from typing import Callable

_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
)
_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)
_NODES_30 = (
    -0.9968934840746495, -0.9836681232797472, -0.9600218649683075,
    -0.9262000474292743, -0.8825605357920527, -0.8295657623827684,
    -0.7677774321048262, -0.6978504947933158, -0.6205261829892429,
    -0.5366241481420199, -0.44703376953808915, -0.3527047255308781,
    -0.25463692616788985, -0.15386991360858354, -0.0514718425553177,
    0.0514718425553177, 0.15386991360858354, 0.25463692616788985,
    0.3527047255308781, 0.44703376953808915, 0.5366241481420199,
    0.6205261829892429, 0.6978504947933158, 0.7677774321048262,
    0.8295657623827684, 0.8825605357920527, 0.9262000474292743,
    0.9600218649683075, 0.9836681232797472, 0.9968934840746495,
)
_WEIGHTS_30 = (
    0.007968192496169034, 0.01846646831109169, 0.02878470788332254,
    0.03879919256962683, 0.04840267283059379, 0.05749315621761923,
    0.06597422988218044, 0.0737559747377049, 0.08075589522941996,
    0.08689978720108285, 0.09212252223778594, 0.09636873717464392,
    0.09959342058679493, 0.10176238974840528, 0.10285265289355859,
    0.10285265289355859, 0.10176238974840528, 0.09959342058679493,
    0.09636873717464392, 0.09212252223778594, 0.08689978720108285,
    0.08075589522941996, 0.0737559747377049, 0.06597422988218044,
    0.05749315621761923, 0.04840267283059379, 0.03879919256962683,
    0.02878470788332254, 0.01846646831109169, 0.007968192496169034,
)

# The gaussian on -100,100 at tolerance 1e-14 takes 12 435 panels (0.5 s on
# a 2-core host); on -1000,1000 at 1e-13 it would take 268 711 (9.4 s).
MAX_PANELS = 20_000
MAX_DEPTH = 40  # a panel this many bisections deep is accepted as it is


def _fixed(f: Callable[[float], float], a: float, b: float, nodes, weights) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return float(half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights)))


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Raises ValueError when the tolerance is not met within MAX_PANELS
    panels."""
    panels = 0

    def recurse(lo: float, hi: float, budget: float, depth: int) -> float:
        nonlocal panels
        panels += 1
        if panels > MAX_PANELS:
            raise ValueError(
                f"quadrature to tolerance {tol:g} on [{a:g}, {b:g}] did not converge "
                f"within {MAX_PANELS} panels"
            )
        coarse = _fixed(f, lo, hi, _NODES, _WEIGHTS)
        fine = _fixed(f, lo, hi, _NODES_30, _WEIGHTS_30)
        if abs(fine - coarse) <= budget or depth >= MAX_DEPTH:
            return fine
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, budget / 2, depth + 1) + recurse(mid, hi, budget / 2, depth + 1)

    if a == b:
        return 0.0
    return recurse(float(a), float(b), float(tol), 0)
