"""Exact matrices over Q(i) - just enough linear algebra for the metric
and Clifford layers (determinant, inverse, products).  Entries are exact
scalars, a plain `int` or a :class:`~supercalc.scalars.CRat`
(`from_rows` and the products make `CRat` entries), so a zero test is
`not x`.
`det` and `inverse` return `CRat` values; no pivot tolerance is ever
involved.

A matrix is a dense list of rows, but the products cost what the nonzero
entries cost.  `matmul`, `bracket` and `product_sum` share one private
row kernel: it reads each operand once into rows of nonzero (column,
numerator) pairs, split into real and imaginary parts, as integers over
one denominator, the lcm of the entries' denominators (FLINT's
`fmpq_mat` keeps a rational matrix the same way).  Products and sums run
on the ints, and each nonzero result entry is made once by
`scalars._crat`, so a near signed-permutation matrix such as a Clifford
gamma costs about one int product per row and a real matrix never
touches an imaginary part.  `bracket(a, b, sign)` is ab + sign*ba, both
products read from the same rows, so an anticommutator or commutator
costs one read of each operand.  `product_sum` is sum c * ab over
(a, b, c) with exact rational coefficients c: every term is brought over
the lcm of the terms' denominators (operands' times coefficient's) and
c folds into its integer sign, so a linear combination of products makes
each result entry once, with no `mscale` or `madd` pass.  Every zero that
`zeros`, `identity`, `matmul`, `bracket`, `product_sum`, `madd` and
`mscale` create is the one shared immutable `ZERO`; `madd` and `mscale`
pass it through untouched, and list comparison matches it by identity
before comparing values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import lcm
from operator import is_not, or_
from typing import Iterable, Sequence

from .scalars import CRat, _crat

Matrix = list[list[int | CRat]]

ZERO = CRat(0)
_ONE = CRat(1)


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[CRat.coerce(Fraction(v) if isinstance(v, str) else v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def _rows(m: Matrix) -> tuple[list, list | None, int]:
    """m's nonzero entries as (real rows, imaginary rows or None, den):
    row i of each part lists (column, int numerator) pairs of nonzero
    parts over den, the lcm of the entries' denominators.  m is read as
    one flat list, so its rows must all have the same length."""
    cols = len(m[0]) if m else 0
    flat = list(chain.from_iterable(m))
    nonzero = list(compress(count(), map(is_not, flat, repeat(ZERO))))
    den = lcm(*{x._d for x in map(flat.__getitem__, nonzero) if type(x) is not int})
    re_rows = [[] for _ in m]
    im_rows = [[] for _ in m]
    for p in nonzero:
        x = flat[p]
        i, j = divmod(p, cols)
        if type(x) is int:
            if x:
                re_rows[i].append((j, x * den))
        else:
            f = den // x._d
            if x._a:
                re_rows[i].append((j, x._a * f))
            if x._b:
                im_rows[i].append((j, x._b * f))
    return re_rows, (im_rows if any(im_rows) else None), den


def _products(rows: int, cols: int, terms: list[tuple], den: int) -> Matrix:
    """The row kernel: sum over `terms` of sign * left @ right, where each
    term is (left, right, sign, imag) on the int rows of `_rows`, and
    `imag` says whether it adds to the imaginary part.  Each row sums
    into dense int lists, so a cancelled entry reads 0 like an untouched
    one; every result entry is over `den`."""
    imaginary = any(t[3] for t in terms)
    out = []
    for i in range(rows):
        acc_re = [0] * cols
        acc_im = [0] * cols if imaginary else acc_re
        for left, right, sign, imag in terms:
            acc = acc_im if imag else acc_re
            for k, x in left[i]:
                sx = sign * x
                for j, y in right[k]:
                    acc[j] += sx * y
        row = [ZERO] * cols
        if imaginary:
            for j in compress(count(), map(or_, acc_re, acc_im)):
                row[j] = _crat(acc_re[j], acc_im[j], den)
        else:
            for j in compress(count(), acc_re):
                row[j] = _crat(acc_re[j], 0, den)
        out.append(row)
    return out


def _terms(a: tuple, b: tuple, sign: int) -> list[tuple]:
    """The real and imaginary parts of sign * ab as row-kernel terms:
    (ar + i ai)(br + i bi) = ar br - ai bi + i (ar bi + ai br)."""
    ar, ai, _ = a
    br, bi, _ = b
    terms = [(ar, br, sign, False)]
    if ai is not None:
        terms.append((ai, br, sign, True))
        if bi is not None:
            terms.append((ai, bi, -sign, False))
    if bi is not None:
        terms.append((ar, bi, sign, True))
    return terms


def matmul(a: Matrix, b: Matrix) -> Matrix:
    inner, cols = len(b), len(b[0]) if b else 0
    if any(len(r) != inner for r in a) or any(len(r) != cols for r in b):
        raise ValueError("shape mismatch")
    ra, rb = _rows(a), _rows(b)
    return _products(len(a), cols, _terms(ra, rb, 1), ra[2] * rb[2])


def _square(n: int, *ms: Matrix) -> bool:
    return all(len(m) == n and all(len(r) == n for r in m) for m in ms)


def bracket(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """ab + sign * ba for square matrices of one size: the anticommutator
    for sign 1 and the commutator for sign -1.  Each operand is read
    once for both products."""
    n = len(a)
    if not _square(n, a, b):
        raise ValueError("bracket needs two square matrices of one size")
    ra, rb = _rows(a), _rows(b)
    return _products(n, n, _terms(ra, rb, 1) + _terms(rb, ra, sign), ra[2] * rb[2])


def product_sum(triples: Iterable[tuple[Matrix, Matrix, int | Fraction]]) -> Matrix:
    """sum c * (a @ b) over the (a, b, c) of `triples`, for square matrices
    of one size and exact rational coefficients c (`int` or `Fraction`),
    in one row-kernel call: term k is over da_k * db_k * dc_k, its
    operands' denominators times its coefficient's, every term is brought
    over the lcm of those, and c's numerator is the term's integer sign."""
    triples = list(triples)
    if not triples:
        raise ValueError("product_sum needs at least one term")
    n = len(triples[0][0])
    if not all(_square(n, a, b) for a, b, _ in triples):
        raise ValueError("product_sum needs square matrices of one size")
    if any(type(c) is not int and type(c) is not Fraction for _, _, c in triples):
        raise TypeError("product_sum coefficients are int or Fraction")
    reads = [(_rows(a), _rows(b), Fraction(c)) for a, b, c in triples]
    den = lcm(*(ra[2] * rb[2] * c.denominator for ra, rb, c in reads))
    terms = []
    for ra, rb, c in reads:
        terms += _terms(ra, rb, c.numerator * (den // (ra[2] * rb[2] * c.denominator)))
    return _products(n, n, terms, den)


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
