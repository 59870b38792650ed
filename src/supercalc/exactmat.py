"""Exact matrices over Q(i) - just enough linear algebra for the metric
and Clifford layers (determinant, inverse, products), in two forms.

A dense matrix is a list of rows of exact scalars, a plain `int` or a
:class:`~supercalc.scalars.CRat` (`from_rows` and the products make `CRat`
entries), so a zero test is `not x`.  `det`, `inverse`, `matmul`, `madd`,
`mscale` and `transpose` work on it; `det` and `inverse` return `CRat`
values, and no pivot tolerance is ever involved.  Every zero that `zeros`,
`dense`, `matmul`, `madd` and `mscale` create is the one shared
immutable `ZERO`; `madd` and `mscale` pass it through untouched,
and list comparison matches it by identity before comparing values.

A :class:`NumMatrix` holds the same matrix as integer numerators over one
denominator, as FLINT's `fmpq_mat` does: rows of nonzero (column, int)
pairs, split into real and imaginary parts (None when there is none),
with the content divided out, so the form is canonical and `==` is tuple
equality.  Three functions cross between the forms: `read` (dense to
numerators, over the lcm of the entries' denominators), `dense` (back,
each nonzero entry made once by `scalars._crat`) and `scalar(n, c)`, c
times the identity.  The Clifford layer writes its gammas as numerator
matrices and stays on them.

One private row kernel makes every product, on numerator rows, so a near
signed-permutation matrix such as a Clifford gamma costs about one int
product per row and a real matrix never touches an imaginary part.
`bracket(a, b, sign)` is ab + sign*ba, both products on the rows as they
are held.  `product_sum` is sum c * ab over (a, b, c) with exact rational
coefficients c: every term is brought over the lcm of the terms'
denominators (operands' times coefficient's) and c folds into its integer
sign, so a linear combination of products makes each result entry once.
Both take and return numerator matrices only.  `matmul` keeps dense
matrices in and out: it reads both operands, runs the kernel and makes
the result dense.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import is_not, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .scalars import CRat, _crat

Matrix = list[list[int | CRat]]

ZERO = CRat(0)
_ONE = CRat(1)


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[CRat.coerce(Fraction(v) if isinstance(v, str) else v) for v in row] for row in rows]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


class NumMatrix(NamedTuple):
    """A rows x cols matrix over Q(i) as integer numerators over one
    denominator: row i of `re` (and of `im`, the imaginary part, or None
    when there is none) lists the (column, nonzero int) pairs of row i in
    ascending column order, and every entry is over `den`.  `_num_matrix`
    divides the content out, so the form is canonical (the zero matrix
    has den 1 and empty rows) and `==` is tuple equality."""

    rows: int
    cols: int
    re: tuple
    im: tuple | None
    den: int


def _num_matrix(rows: int, cols: int, re: Sequence, im: Sequence | None, den: int) -> NumMatrix:
    """The canonicalizing constructor: rows of (column, int) pairs in
    ascending column order with no zero int, each over `den > 0`; the gcd
    of den and every numerator is divided out, and an imaginary part with
    no entry becomes None."""
    if im is not None and not any(im):
        im = None
    g = den
    for row in chain(re, im or ()):
        if g == 1:
            break
        g = gcd(g, *map(itemgetter(1), row))
    if g != 1:
        re = [[(j, x // g) for j, x in row] for row in re]
        im = im and [[(j, x // g) for j, x in row] for row in im]
        den //= g
    return NumMatrix(rows, cols, tuple(map(tuple, re)), im and tuple(map(tuple, im)), den)


def read(m: Matrix) -> NumMatrix:
    """The numerator matrix of a dense matrix of `int` or `CRat` entries,
    over the lcm of the entries' denominators.  m is read as one flat
    list, so a matrix with rows of different lengths is refused."""
    cols = len(m[0]) if m else 0
    if any(len(r) != cols for r in m):
        raise ValueError("shape mismatch: rows of different lengths")
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
    return _num_matrix(len(m), cols, re_rows, im_rows, den)


def dense(m: NumMatrix) -> Matrix:
    """m as a dense list of rows of `CRat` entries; a zero entry is the
    shared `ZERO`."""
    out = zeros(m.rows, m.cols)
    for row, re_row, im_row in zip(out, m.re, m.im or repeat(())):
        ims = dict(im_row)
        for j, a in re_row:
            row[j] = _crat(a, ims.pop(j, 0), m.den)
        for j, b in ims.items():
            row[j] = _crat(0, b, m.den)
    return out


def scalar(n: int, c: int | Fraction | CRat) -> NumMatrix:
    """c times the n x n identity."""
    c = CRat.coerce(c)
    re = [[(i, c._a)] if c._a else [] for i in range(n)]
    im = [[(i, c._b)] if c._b else [] for i in range(n)]
    return _num_matrix(n, n, re, im, c._d)


def _products(rows: int, cols: int, terms: list[tuple], den: int) -> NumMatrix:
    """The row kernel: sum over `terms` of sign * left @ right, where each
    term is (left, right, sign, imag) on numerator rows, and `imag` says
    whether it adds to the imaginary part.  Each row sums into dense int
    lists, so a cancelled entry is left out like an untouched one; every
    result entry is over `den`."""
    imaginary = any(t[3] for t in terms)
    re_rows, im_rows = [], []
    for i in range(rows):
        acc_re = [0] * cols
        acc_im = [0] * cols if imaginary else acc_re
        for left, right, sign, imag in terms:
            acc = acc_im if imag else acc_re
            for k, x in left[i]:
                sx = sign * x
                for j, y in right[k]:
                    acc[j] += sx * y
        re_rows.append(tuple(compress(enumerate(acc_re), acc_re)))
        if imaginary:
            im_rows.append(tuple(compress(enumerate(acc_im), acc_im)))
    return _num_matrix(rows, cols, re_rows, im_rows if imaginary else None, den)


def _terms(a: NumMatrix, b: NumMatrix, sign: int) -> list[tuple]:
    """The real and imaginary parts of sign * ab as row-kernel terms:
    (ar + i ai)(br + i bi) = ar br - ai bi + i (ar bi + ai br)."""
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    terms = [(ar, br, sign, False)]
    if ai is not None:
        terms.append((ai, br, sign, True))
        if bi is not None:
            terms.append((ai, bi, -sign, False))
    if bi is not None:
        terms.append((ar, bi, sign, True))
    return terms


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product of two dense matrices, through their numerator
    matrices."""
    inner, cols = len(b), len(b[0]) if b else 0
    if any(len(r) != inner for r in a) or any(len(r) != cols for r in b):
        raise ValueError("shape mismatch")
    na, nb = read(a), read(b)
    return dense(_products(len(a), cols, _terms(na, nb, 1), na.den * nb.den))


def _size(name: str, *ms: NumMatrix) -> int:
    """The one size of square numerator matrices; a dense list of rows is
    refused, there is no second path for it."""
    if any(type(m) is not NumMatrix for m in ms):
        raise TypeError(f"{name} takes NumMatrix operands; `read` makes one")
    n = ms[0].rows
    if any(m.rows != n or m.cols != n for m in ms):
        raise ValueError(f"{name} needs square matrices of one size")
    return n


def bracket(a: NumMatrix, b: NumMatrix, sign: int) -> NumMatrix:
    """ab + sign * ba for square numerator matrices of one size: the
    anticommutator for sign 1 and the commutator for sign -1, both
    products on the operands' rows as they are held."""
    n = _size("bracket", a, b)
    return _products(n, n, _terms(a, b, 1) + _terms(b, a, sign), a.den * b.den)


def product_sum(triples: Iterable[tuple[NumMatrix, NumMatrix, int | Fraction]]) -> NumMatrix:
    """sum c * (a @ b) over the (a, b, c) of `triples`, for square numerator
    matrices of one size and exact rational coefficients c (`int` or
    `Fraction`), in one row-kernel call: term k is over da_k * db_k * dc_k,
    its operands' denominators times its coefficient's, every term is
    brought over the lcm of those, and c's numerator is the term's
    integer sign."""
    triples = list(triples)
    if not triples:
        raise ValueError("product_sum needs at least one term")
    n = _size("product_sum", *chain.from_iterable(t[:2] for t in triples))
    if any(type(c) is not int and type(c) is not Fraction for _, _, c in triples):
        raise TypeError("product_sum coefficients are int or Fraction")
    triples = [(a, b, Fraction(c)) for a, b, c in triples]
    den = lcm(*(a.den * b.den * c.denominator for a, b, c in triples))
    terms = []
    for a, b, c in triples:
        terms += _terms(a, b, c.numerator * (den // (a.den * b.den * c.denominator)))
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
