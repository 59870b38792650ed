"""The exact matrix kernel against a naive triple loop and, when sympy is
installed, against sympy's exact rational matrices."""

import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from supercalc import exactmat
from supercalc.metric import Metric, pullback_metric
from supercalc.scalars import CRat


def identity(n):
    """The dense n x n identity."""
    return exactmat.dense(exactmat.scalar(n, 1))


def naive_matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), CRat(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_matrix(rng, rows, cols, zero_fill):
    """A Q(i) matrix with about `zero_fill` of its entries zero, one zero
    row and one zero column when the shape allows, and some entries with
    an imaginary part."""

    def entry():
        if rng.random() < zero_fill:
            return CRat(0)
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.4 else 0
        return CRat(re, im)

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        m[rng.randrange(rows)] = [CRat(0)] * cols
    if cols > 1:
        zero_col = rng.randrange(cols)
        for row in m:
            row[zero_col] = CRat(0)
    return m


def as_shared_zeros(m):
    """The same matrix with its zeros replaced by the kernel's shared zero."""
    return [[x if x else exactmat.ZERO for x in row] for row in m]


SHAPES = [(1, 1, 1), (2, 3, 4), (5, 2, 3), (4, 4, 4), (7, 6, 1), (8, 8, 8)]
CASES = [
    (seed, rows, inner, cols, fill)
    for seed, (rows, inner, cols) in enumerate(SHAPES)
    for fill in (0.0, 0.3, 0.6, 0.9)
]


@pytest.mark.parametrize("seed, rows, inner, cols, fill", CASES)
def test_matmul_equals_naive_triple_loop(seed, rows, inner, cols, fill):
    rng = random.Random(f"matmul:{seed}:{fill}")
    a = random_matrix(rng, rows, inner, fill)
    b = random_matrix(rng, inner, cols, fill)
    want = naive_matmul(a, b)
    # zeros as fresh CRat(0) objects and as the shared zero must agree
    assert exactmat.matmul(a, b) == want
    assert exactmat.matmul(as_shared_zeros(a), as_shared_zeros(b)) == want


@pytest.mark.parametrize("seed, rows, inner, cols, fill", CASES)
def test_madd_and_mscale_equal_entrywise(seed, rows, inner, cols, fill):
    rng = random.Random(f"madd:{seed}:{fill}")
    a = random_matrix(rng, rows, cols, fill)
    b = random_matrix(rng, rows, cols, fill)
    neg_a = [[-x for x in row] for row in a]
    for x, y in ((a, b), (as_shared_zeros(a), as_shared_zeros(b)), (a, neg_a)):
        want = [[p + q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]
        assert exactmat.madd(x, y) == want
    for s in (CRat(0), 1, -1, Fraction(-3, 7), CRat(2, -5)):
        want = [[x * CRat.coerce(s) for x in row] for row in a]
        assert exactmat.mscale(a, s) == want
        assert exactmat.mscale(as_shared_zeros(a), s) == want


def test_cancelling_sums_give_the_shared_zero():
    a = exactmat.from_rows([[1, 1], [0, 2]])
    b = exactmat.from_rows([[1, 0], [-1, 0]])
    product = exactmat.matmul(a, b)
    assert product == exactmat.from_rows([[0, 0], [-2, 0]])
    assert product[0][0] is exactmat.ZERO
    assert exactmat.madd(a, exactmat.mscale(a, -1))[0][0] is exactmat.ZERO
    assert exactmat.madd(a, exactmat.mscale(a, -1)) == exactmat.zeros(2, 2)


def test_products_with_identity_and_zeros():
    rng = random.Random(3)
    a = random_matrix(rng, 4, 4, 0.5)
    assert exactmat.matmul(identity(4), a) == a
    assert exactmat.matmul(a, identity(4)) == a
    assert exactmat.matmul(a, exactmat.zeros(4, 2)) == exactmat.zeros(4, 2)


def test_shape_mismatch_is_refused():
    with pytest.raises(ValueError, match="shape mismatch"):
        exactmat.matmul(exactmat.zeros(2, 3), exactmat.zeros(2, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        exactmat.matmul([[CRat(1)], [CRat(1), CRat(2)]], identity(2))


def test_empty_factors():
    """An empty right factor gives an empty product, as `bracket` and
    `product_sum` do on empty matrices, unless the left factor has
    columns to contract."""
    assert exactmat.matmul([], []) == []
    assert exactmat.matmul([[]], []) == [[]]
    empty = exactmat.read([])
    assert exactmat.dense(exactmat.bracket(empty, empty, 1)) == []
    assert exactmat.dense(exactmat.product_sum([(empty, empty, 1)])) == []
    with pytest.raises(ValueError, match="shape mismatch"):
        exactmat.matmul([[CRat(1)]], [])
    assert pullback_metric(Metric.from_matrix([]), []).g == []


def test_ragged_right_operand_is_refused():
    """An operand is read as one flat list, so a right-hand factor with
    rows of different lengths is a shape error, not a misread."""
    with pytest.raises(ValueError, match="shape mismatch"):
        exactmat.matmul(identity(2), [[CRat(1)], [CRat(1), CRat(2)]])
    with pytest.raises(ValueError, match="shape mismatch"):
        exactmat.matmul(identity(2), [[CRat(1), CRat(2), CRat(3)], [CRat(1), CRat(2)]])


def random_scalar_matrix(rng, n, zero_fill):
    """An n x n matrix mixing `int`, rational and Gaussian `CRat` entries
    with fresh, non-shared `CRat(0)` zeros."""

    def entry():
        r = rng.random()
        if r < zero_fill:
            return CRat(0)
        if r < zero_fill + (1 - zero_fill) / 3:
            return rng.randint(-9, 9) or 1
        return random_matrix(rng, 1, 1, 0.0)[0][0]

    return [[entry() for _ in range(n)] for _ in range(n)]


BRACKET_CASES = [
    (seed, n, fill) for seed, n in enumerate((1, 2, 4, 5, 8)) for fill in (0.0, 0.3, 0.6, 0.9)
]


@pytest.mark.parametrize("seed, n, fill", BRACKET_CASES)
@pytest.mark.parametrize("sign", (1, -1))
def test_bracket_equals_two_products(seed, n, fill, sign):
    rng = random.Random(f"bracket:{seed}:{fill}")
    shapes = (random_matrix(rng, n, n, fill), random_scalar_matrix(rng, n, fill))
    for a in shapes:
        for b in shapes:
            want = exactmat.madd(exactmat.matmul(a, b), exactmat.mscale(exactmat.matmul(b, a), sign))
            got = exactmat.bracket(exactmat.read(a), exactmat.read(b), sign)
            assert exactmat.dense(got) == want
            assert got == exactmat.read(want)
            assert got == exactmat.bracket(
                exactmat.read(as_shared_zeros(a)), exactmat.read(as_shared_zeros(b)), sign
            )
            got = exactmat.dense(got)
            assert all(type(x) is CRat for row in got for x in row)
            assert all(x is exactmat.ZERO for row in got for x in row if not x)


def test_row_kernel_on_mixed_entries():
    """`matmul` on int, rational and Gaussian entries with fresh zeros
    against the naive triple loop; every entry of the result is a `CRat`."""
    rng = random.Random("mixed")
    for n, fill in ((3, 0.0), (4, 0.5), (6, 0.8)):
        a, b = random_scalar_matrix(rng, n, fill), random_scalar_matrix(rng, n, fill)
        got = exactmat.matmul(a, b)
        assert got == naive_matmul(a, b)
        assert all(type(x) is CRat for row in got for x in row)
        assert all(x is exactmat.ZERO for row in got for x in row if not x)


def test_cancelling_bracket_gives_the_shared_zero():
    """A bracket that cancels is the canonical zero, den 1 with empty rows,
    and made dense it is all the shared zero."""
    a = exactmat.read(exactmat.from_rows([[1, "1/2"], [0, 2]]))
    b = exactmat.read(random_matrix(random.Random(4), 2, 2, 0.0))
    assert a.den == 2 and b.den > 1
    ident = exactmat.scalar(2, 1)
    zero = exactmat.NumMatrix(2, 2, ((), ()), None, 1)
    for m in (a, b):
        assert exactmat.dense(exactmat.bracket(m, m, -1)) == exactmat.zeros(2, 2)
        assert all(x is exactmat.ZERO for row in exactmat.dense(exactmat.bracket(m, m, -1)) for x in row)
        assert exactmat.dense(exactmat.bracket(m, ident, -1)) == exactmat.zeros(2, 2)
        assert exactmat.bracket(m, m, -1) == exactmat.bracket(m, ident, -1) == zero
    # anticommuting matrices: [[0, 1], [1, 0]] and [[1, 0], [0, -1]]
    x = exactmat.read(exactmat.from_rows([[0, 1], [1, 0]]))
    z = exactmat.read(exactmat.from_rows([[1, 0], [0, -1]]))
    assert all(e is exactmat.ZERO for row in exactmat.dense(exactmat.bracket(x, z, 1)) for e in row)
    assert exactmat.bracket(x, z, 1) == zero
    assert exactmat.dense(exactmat.bracket(x, x, 1)) == exactmat.mscale(identity(2), 2)
    assert exactmat.bracket(x, x, 1) == exactmat.scalar(2, 2)


def test_bracket_refuses_non_square_matrices():
    for a, b in (
        (exactmat.zeros(2, 3), exactmat.zeros(2, 3)),
        (identity(2), identity(3)),
        (identity(2), exactmat.zeros(2, 3)),
    ):
        a, b = exactmat.read(a), exactmat.read(b)
        with pytest.raises(ValueError, match="square"):
            exactmat.bracket(a, b, 1)
        with pytest.raises(ValueError, match="square"):
            exactmat.bracket(b, a, -1)
    # a ragged matrix has no numerator matrix to bracket
    with pytest.raises(ValueError, match="shape mismatch"):
        exactmat.read([[CRat(1)], [CRat(1), CRat(2)]])


def test_bracket_and_product_sum_take_only_numerator_matrices():
    """Dense lists of rows are refused, not read: there is one path."""
    num = exactmat.scalar(2, 1)
    dense = exactmat.dense(num)
    for a, b in ((dense, dense), (dense, num), (num, dense)):
        with pytest.raises(TypeError, match="NumMatrix operands"):
            exactmat.bracket(a, b, 1)
        with pytest.raises(TypeError, match="NumMatrix operands"):
            exactmat.product_sum([(a, b, 1)])


@pytest.mark.parametrize("seed, n, fill", BRACKET_CASES)
def test_numerator_form_is_canonical(seed, n, fill):
    """`read` and `dense` are inverse to each other; rows list nonzero
    numerators in ascending column order, the content is divided out,
    an imaginary part with no entry is None, and a product that brings
    in a common factor is reduced back to the same tuple."""
    rng = random.Random(f"canonical:{seed}:{fill}")
    for m in (random_matrix(rng, n, n, fill), random_scalar_matrix(rng, n, fill), exactmat.zeros(n, n)):
        num = exactmat.read(m)
        assert exactmat.dense(num) == m
        assert exactmat.read(exactmat.dense(num)) == num
        assert exactmat.read(as_shared_zeros(m)) == num
        rows = [*num.re, *(num.im or ())]
        assert all([j for j, _ in row] == sorted({j for j, _ in row}) for row in rows)
        numerators = [x for row in rows for _, x in row]
        assert all(numerators) and math.gcd(num.den, *numerators) == 1
        assert num.im is None or any(num.im)
        if not numerators:
            assert num == exactmat.NumMatrix(n, n, ((),) * n, None, 1)
        scaled = exactmat.product_sum([(num, exactmat.scalar(n, Fraction(6, 5)), Fraction(5, 6))])
        assert scaled == num


def test_scalar_is_c_times_the_identity():
    for n in (0, 1, 3):
        for c in (0, 1, -2, Fraction(3, 4), CRat(Fraction(1, 2), -3), CRat(0, 1)):
            ident = exactmat.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
            assert exactmat.scalar(n, c) == exactmat.read(exactmat.mscale(ident, c))
    assert exactmat.scalar(3, 0) == exactmat.NumMatrix(3, 3, ((),) * 3, None, 1)
    assert exactmat.scalar(2, Fraction(3, 4)) == exactmat.NumMatrix(2, 2, (((0, 3),), ((1, 3),)), None, 4)


PRODUCT_SUM_CASES = [
    (seed, n, fill) for seed, n in enumerate((1, 2, 3, 5, 8)) for fill in (0.0, 0.4, 0.8)
]


@pytest.mark.parametrize("seed, n, fill", PRODUCT_SUM_CASES)
def test_product_sum_equals_matmul_mscale_madd(seed, n, fill):
    """Sums of one to four products with int and Fraction coefficients on
    Gaussian and mixed int/rational entries, against `matmul`, `mscale`
    and `madd`; every entry is a `CRat` and every zero the shared one."""
    rng = random.Random(f"product_sum:{seed}:{fill}")
    mats = [random_matrix(rng, n, n, fill), random_scalar_matrix(rng, n, fill),
            random_matrix(rng, n, n, fill), identity(n)]
    coefficients = [1, -1, 2, 0, Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4)]
    for terms in range(1, 5):
        for _ in range(3):
            triples = [(rng.choice(mats), rng.choice(mats), rng.choice(coefficients)) for _ in range(terms)]
            want = reduce(exactmat.madd, (exactmat.mscale(exactmat.matmul(a, b), c) for a, b, c in triples))
            nums = [(exactmat.read(a), exactmat.read(b), c) for a, b, c in triples]
            got = exactmat.product_sum(nums)
            assert got == exactmat.read(want)
            assert exactmat.product_sum(iter(nums)) == got
            got = exactmat.dense(got)
            assert got == want
            assert all(type(x) is CRat for row in got for x in row)
            assert all(x is exactmat.ZERO for row in got for x in row if not x)


def test_cancelling_product_sum_gives_the_shared_zero():
    rng = random.Random("product_sum:cancel")
    a, b = exactmat.read(random_matrix(rng, 4, 4, 0.0)), exactmat.read(random_scalar_matrix(rng, 4, 0.3))
    for triples in (
        [(a, b, 1), (a, b, -1)],
        [(a, b, Fraction(1, 2)), (a, b, Fraction(1, 2)), (a, b, -1)],
        [(a, b, Fraction(2, 3)), (b, a, 1), (a, b, Fraction(-2, 3)), (b, a, -1)],
        [(a, b, 0)],
    ):
        got = exactmat.product_sum(triples)
        assert all(x is exactmat.ZERO for row in exactmat.dense(got) for x in row)
        assert got == exactmat.scalar(4, 0)


def test_product_sum_refuses_bad_shapes_and_coefficients():
    for a, b in (
        (exactmat.zeros(2, 3), exactmat.zeros(3, 2)),
        (identity(2), identity(3)),
        (identity(2), exactmat.zeros(2, 3)),
    ):
        ident = exactmat.scalar(len(a), 1)
        a, b = exactmat.read(a), exactmat.read(b)
        with pytest.raises(ValueError, match="square matrices of one size"):
            exactmat.product_sum([(a, b, 1)])
        with pytest.raises(ValueError, match="square matrices of one size"):
            exactmat.product_sum([(ident, ident, 1), (b, a, 1)])
    with pytest.raises(ValueError, match="at least one term"):
        exactmat.product_sum([])
    ident = exactmat.scalar(2, 1)
    for c in (CRat(1), 0.5, True, "1"):
        with pytest.raises(TypeError, match="int or Fraction"):
            exactmat.product_sum([(ident, ident, c)])


def _to_sympy(sympy, m):
    def entry(x):
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )

    return sympy.Matrix([[entry(x) for x in row] for row in m])


def _from_sympy(sympy, m):
    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            re, im = m[i, j].as_real_imag()
            row.append(CRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))))
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy:{seed}")
    n = 2 + seed % 4
    fill = (0.0, 0.4, 0.7)[seed % 3]
    a = random_matrix(rng, n, n + 1, fill)
    b = random_matrix(rng, n + 1, n - 1, fill)
    product = sympy.expand(_to_sympy(sympy, a) * _to_sympy(sympy, b))
    assert exactmat.matmul(a, b) == _from_sympy(sympy, product)
    # a sparse but invertible square matrix: a shifted diagonal plus noise
    sq = [
        [x + (CRat(seed + 2, 1) if i == j else 0) for j, x in enumerate(row)]
        for i, row in enumerate(random_matrix(rng, n, n, 0.6))
    ]
    sq_sympy = _to_sympy(sympy, sq)
    det = sympy.expand(sq_sympy.det())
    assert exactmat.det(sq) == _from_sympy(sympy, sympy.Matrix([[det]]))[0][0]
    if det != 0:
        assert exactmat.inverse(sq) == _from_sympy(sympy, sq_sympy.inv())
