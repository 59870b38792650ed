"""Dense exact matrices over Q(i) - just enough linear algebra for the
metric and Clifford layers (determinant, inverse, products).  Entries are
:class:`~supercalc.scalars.CRat`; no pivot tolerance is ever involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import CRat

Matrix = list[list[CRat]]


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[CRat.coerce(Fraction(v) if isinstance(v, str) else v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[CRat(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[CRat(0) for _ in range(cols)] for _ in range(rows)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise ValueError("shape mismatch")
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik.is_zero():
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] = oi[j] + aik * bk[j]
    return out

def madd(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(a: Matrix, s) -> Matrix:
    s = CRat.coerce(s)
    return [[x * s for x in row] for row in a]


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
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return CRat(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result = result * p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f.is_zero():
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return result * sign


def inverse(a: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan; raises ValueError when singular."""
    n = len(a)
    m = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            if f.is_zero():
                continue
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def minor_det(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> CRat:
    """Determinant of the submatrix a[rows][cols] (0-based indices)."""
    return det([[a[r][c] for c in cols] for r in rows])
