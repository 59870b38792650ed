"""Exact matrices over Q(i) - just enough linear algebra for the metric
and Clifford layers (determinant, inverse, products).  Entries are exact
scalars, a plain `int` or a :class:`~supercalc.scalars.CRat`
(`from_rows` and `clifford.matrix_of` make `CRat` entries), so a zero
test is `not x`.
`det` and `inverse` return `CRat` values; no pivot tolerance is ever
involved.

A matrix is a dense list of rows, but the products cost what the nonzero
entries cost: `matmul` lists each row of its right factor as (column,
entry) pairs once per call and multiplies only nonzero by nonzero, so a
near signed-permutation matrix such as a Clifford gamma costs about one
exact product per row.  Every zero that `zeros`, `identity`, `matmul`,
`madd` and `mscale` create is the one shared immutable `ZERO` (an exact
product of nonzero scalars is never zero, so only sums are tested);
`madd` and `mscale` pass it through untouched, and list comparison
matches it by identity before comparing values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import CRat

Matrix = list[list[int | CRat]]

ZERO = CRat(0)
_ONE = CRat(1)


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[CRat.coerce(Fraction(v) if isinstance(v, str) else v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    inner, cols = len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise ValueError("shape mismatch")
    b_pairs = [[(j, x) for j, x in enumerate(row) if x is not ZERO and x] for row in b]
    out = []
    for ai in a:
        acc: dict[int, int | CRat] = {}
        summed = False
        for aik, bk in zip(ai, b_pairs):
            if not bk or aik is ZERO or not aik:
                continue
            for j, x in bk:
                if j in acc:
                    acc[j] = acc[j] + aik * x
                    summed = True
                else:
                    acc[j] = aik * x
        row = [ZERO] * cols
        for j, v in acc.items():
            if not summed or v:
                row[j] = v
        out.append(row)
    return out


def madd(a: Matrix, b: Matrix) -> Matrix:
    return [
        [y if x is ZERO else x if y is ZERO else (x + y) or ZERO for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def mscale(a: Matrix, s) -> Matrix:
    s = CRat.coerce(s)
    if not s:
        return zeros(len(a), len(a[0]) if a else 0)
    return [[x if x is ZERO else x * s for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def det(a: Matrix) -> CRat:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(a)
    m = [row[:] for row in a]
    sign = CRat(1)
    result = CRat(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return CRat(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = CRat.coerce(m[col][col])
        result = result * p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if not f:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return result * sign


def inverse(a: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan; raises ValueError when singular."""
    n = len(a)
    m = [row[:] + [_ONE if j == i else ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        p = CRat.coerce(m[col][col])
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            if not f:
                continue
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def minor_det(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> CRat:
    """Determinant of the submatrix a[rows][cols] (0-based indices)."""
    return det([[a[r][c] for c in cols] for r in rows])
