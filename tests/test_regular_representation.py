"""The sign rule of Lambda_N against its regular representation.

Left multiplication by the generator x_k is the 2^N x 2^N creation
matrix c_k of the Jordan-Wigner construction.  On the basis monomial of
mask m (bit k - 1 set when x_k is present, generators in increasing
order) it gives 0 when x_k is present, and otherwise
(-1)^popcount(m & (2^(k-1) - 1)) times the monomial m | 2^(k-1).  A
supernumber z acts as L(z) = sum_I z_I c_I, where c_I = c_i1 ... c_ip
for i1 < ... < ip.  These matrices come from that rule alone and call
nothing in `graded_poly`, so a slip in `merge_sign`, which signs every
kernel product, shows as L(ab) != L(a) L(b).  The left derivative
d/dx_k is the transpose of c_k, and the inverse of a supernumber with a
nonzero body is the inverse matrix, found by exact Gauss-Jordan
elimination in `exactmat` rather than by the soul's geometric series.
"""

import random

import pytest

from supercalc import exactmat
from supercalc import randomgen as rg
from supercalc.berezin import grassmann_derivative


def creation(n: int, k: int) -> dict:
    """c_k as {(row mask, column mask): +-1}."""
    bit = 1 << (k - 1)
    return {(m | bit, m): (-1) ** (m & (bit - 1)).bit_count() for m in range(1 << n) if not m & bit}


def matmul(a: dict, b: dict) -> dict:
    rows: dict = {}
    for (j, k), y in b.items():
        rows.setdefault(j, []).append((k, y))
    out: dict = {}
    for (i, j), x in a.items():
        for k, y in rows.get(j, ()):
            out[i, k] = out.get((i, k), 0) + x * y
    return {ik: v for ik, v in out.items() if v}


def regular(z) -> dict:
    """L(z) = sum_I z_I c_I, with each c_I multiplied out from the right."""
    out: dict = {}
    for mask, coeff in z.terms.items():
        c = {(m, m): 1 for m in range(1 << z.n)}
        for k in range(z.n, 0, -1):
            if mask >> (k - 1) & 1:
                c = matmul(creation(z.n, k), c)
        for ij, v in c.items():
            out[ij] = out.get(ij, 0) + coeff * v
    return {ij: v for ij, v in out.items() if v}


@pytest.mark.parametrize("n", range(1, 6))
def test_products_match_the_regular_representation(n):
    rng = random.Random(70 + n)
    for _ in range(8):
        a, b = rg.supernumber(rng, n, terms=2 * n), rg.supernumber(rng, n, terms=2 * n)
        assert {m: v for (m, col), v in regular(a).items() if col == 0} == a.terms
        assert regular(a * b) == matmul(regular(a), regular(b))


@pytest.mark.parametrize("n", range(1, 6))
def test_left_derivative_is_the_transposed_creation_matrix(n):
    rng = random.Random(80 + n)
    for _ in range(8):
        z = rg.supernumber(rng, n, terms=2 * n)
        for k in range(1, n + 1):
            image = {}
            for (row, col), sign in creation(n, k).items():
                if row in z.terms:
                    image[col] = sign * z.terms[row]
            assert grassmann_derivative(z, k).terms == image


def dense(m: dict, n: int) -> list:
    """The 2^n x 2^n `exactmat` matrix of a {(row, column): value} dict."""
    return exactmat.from_rows([[m.get((r, col), 0) for col in range(1 << n)] for r in range(1 << n)])


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_matches_the_inverse_regular_matrix(n):
    """L(z^-1) is the exact Gauss-Jordan inverse of L(z), and L(z) L(z^-1)
    is the identity, for z with a nonzero body."""
    rng = random.Random(90 + n)
    identity = {(m, m): 1 for m in range(1 << n)}
    for _ in range(3):
        z = rg.supernumber(rng, n, terms=2 * n, ensure_body=True)
        inv = z.inverse()
        assert dense(regular(inv), n) == exactmat.inverse(dense(regular(z), n))
        assert matmul(regular(z), regular(inv)) == identity
