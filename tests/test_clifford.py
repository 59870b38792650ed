import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from supercalc import exactmat, graded_poly
from supercalc import randomgen as rg
from supercalc.clifford import (
    CliffordContext,
    current,
    dirac_gamma_on_forms,
    dirac_operator,
    dirac_operator_gamma_route,
    gamma,
    gamma0,
    gamma0_matrices,
    gamma_matrices,
    matrix_of,
    reversal,
)
from supercalc.grassmann import Supernumber
from supercalc.metric import Metric, MetricError
from supercalc.scalars import CRat


def random_context(rng, d):
    while True:
        g = rg.symmetric_invertible_matrix(rng, d)
        try:
            return CliffordContext.from_matrix(g)
        except ValueError:
            continue


def test_one_dimensional_square():
    ctx = CliffordContext.identity(1)
    op = gamma(ctx, [1])
    for mask in (0, 1):
        basis = Supernumber(1, {mask: CRat(1)})
        assert op(op(basis)) == basis


def test_clifford_relations_flat_two_dimensions():
    ctx = CliffordContext.identity(2)
    gs = gamma_matrices(ctx)
    ident = exactmat.dense(exactmat.scalar(4, 1))
    for a in range(2):
        for b in range(2):
            want = exactmat.mscale(ident, CRat(2 if a == b else 0))
            assert exactmat.dense(exactmat.bracket(gs[a], gs[b], 1)) == want


def test_clifford_relations_minkowski_bruteforce():
    ctx = CliffordContext.minkowski(4)
    gs = gamma_matrices(ctx)
    ident = exactmat.dense(exactmat.scalar(16, 1))
    for a in range(4):
        for b in range(4):
            want = exactmat.mscale(ident, ctx.g_inv[a][b] * 2)
            assert exactmat.dense(exactmat.bracket(gs[a], gs[b], 1)) == want


def test_clifford_relations_random_metrics():
    rng = random.Random(51)
    for d in (1, 2, 3):
        for _ in range(6):
            ctx = random_context(rng, d)
            gs = gamma_matrices(ctx)
            ident = exactmat.dense(exactmat.scalar(1 << d, 1))
            for a in range(d):
                for b in range(d):
                    want = exactmat.mscale(ident, ctx.g_inv[a][b] * 2)
                    assert exactmat.dense(exactmat.bracket(gs[a], gs[b], 1)) == want


def test_gamma_vector_bilinearity():
    rng = random.Random(52)
    ctx = random_context(rng, 3)
    v = [rg.crat(rng, complex_ok=False) for _ in range(3)]
    w = [rg.crat(rng, complex_ok=False) for _ in range(3)]
    gv, gw = gamma(ctx, v), gamma(ctx, w)
    g_vw = sum((ctx.g[a][b] * v[a] * w[b] for a in range(3) for b in range(3)), CRat(0))
    for mask in range(8):
        basis = Supernumber(3, {mask: CRat(1)})
        both = gv(gw(basis)) + gw(gv(basis))
        assert both == basis * (g_vw * 2)


def test_reversal_examples():
    one = Supernumber.unit(2)
    x1, x2 = Supernumber.generators(2)
    assert reversal(one) == one
    assert reversal(x1) == x1
    assert reversal(x1 * x2) == -(x1 * x2)
    rng = random.Random(53)
    for _ in range(20):
        w = rg.supernumber(rng, 4)
        assert reversal(reversal(w)) == w


def test_commuting_copy():
    rng = random.Random(54)
    for d in (2, 3, 4):
        ctx = CliffordContext.identity(d) if d < 4 else CliffordContext.minkowski(4)
        size = 1 << d
        zero = exactmat.zeros(size, size)
        ident = exactmat.dense(exactmat.scalar(1 << d, 1))
        g_low = gamma_matrices(ctx, upper=False)
        g0s = [matrix_of(gamma0(ctx, ctx.basis_vector(a)), d) for a in range(1, d + 1)]
        n0s = [exactmat.read(g0) for g0 in g0s]
        for a in range(d):
            for b in range(d):
                assert exactmat.dense(exactmat.bracket(g_low[a], n0s[b], -1)) == zero
                want = exactmat.mscale(ident, ctx.g[a][b] * 2)
                assert exactmat.dense(exactmat.bracket(n0s[a], n0s[b], 1)) == want
        # J gamma J = gamma0 by construction; check it differs from gamma
        # somewhere (the commutant is non-scalar, so the representation
        # is reducible)
        nonscalar = any(g0 != exactmat.mscale(ident, g0[0][0]) for g0 in g0s)
        assert nonscalar


def test_current_components():
    ctx2 = CliffordContext.identity(2)
    comps = current(ctx2, 0)
    assert list(comps) == [()]
    assert comps[()] == exactmat.scalar(4, 1)
    pair = exactmat.dense(current(ctx2, 2)[(1, 2)])
    g1m, g2m = map(exactmat.dense, gamma_matrices(ctx2, upper=False))
    want = exactmat.mscale(
        exactmat.madd(
            exactmat.matmul(g1m, g2m), exactmat.mscale(exactmat.matmul(g2m, g1m), -1)
        ),
        Fraction(1, 2),
    )
    assert pair == want
    with pytest.raises(ValueError):
        current(ctx2, 3)
    for a in (0, 3):
        with pytest.raises(ValueError, match=rf"basis index {a} outside 1\.\.2"):
            gamma(ctx2, ctx2.basis_vector(a))


def test_gamma_refuses_a_vector_of_the_wrong_length():
    """gamma and gamma0 refuse, when built, a vector whose length is not
    the metric's dimension, and the message names both lengths."""
    ctx = Metric.identity(2)
    for make, v in itertools.product((gamma, gamma0), ([1], [1, 0, 0])):
        with pytest.raises(MetricError, match=rf"vector of length {len(v)} for a metric of dimension 2"):
            make(ctx, v)


def test_current_counts_sum_to_dimension():
    ctx = CliffordContext.identity(4)
    total = 0
    for p in range(5):
        comps = current(ctx, p)
        assert len(comps) == math.comb(4, p)
        total += len(comps)
    assert total == 16


def test_dirac_routes_agree():
    rng = random.Random(56)
    for k in range(8):
        d = 2 + k % 2
        while True:
            g = rg.symmetric_invertible_matrix(rng, d)
            for i in range(d):
                g[i][i] += 4
            try:
                metric = Metric.from_matrix(g)
                break
            except MetricError:
                continue
        coords = metric.coords()
        w = rg.form(rng, coords, k % (d + 1))
        assert (dirac_operator(metric)(w) - dirac_operator_gamma_route(metric)(w)).is_zero()


def test_form_gamma_anticommutators():
    rng = random.Random(57)
    m = Metric.from_matrix([[2, 1], [1, 3]])
    coords = m.coords()
    for k in range(6):
        w = rg.form(rng, coords, k % 3)
        for mu in (1, 2):
            for nu in (1, 2):
                gm = dirac_gamma_on_forms(m, mu)
                gn = dirac_gamma_on_forms(m, nu)
                dev = gm(gn(w)) + gn(gm(w)) - w * (m.g_inv[mu - 1][nu - 1] * 2)
                assert dev.is_zero()


def test_gamma_on_zero_form_is_differential_plus_gradient():
    # on a 0-form f the operator sum_mu gamma^mu d_mu f reduces to
    # df wedge + contraction with the gradient, i.e. just df
    m = Metric.identity(2)
    coords = m.coords()
    f = (coords.x(1) ** 2).with_carrier(coords.forms)
    out = dirac_operator(m)(f)
    d_only = coords.dx(1) * f.partial_x(1) + coords.dx(2) * f.partial_x(2)
    assert (out - d_only).is_zero()


def test_current_matches_permutation_sum():
    """Every rank at D = 3 and 4 against the p!-term definition
    gamma_[I] = (1/p!) sum_sigma sign(sigma) gamma_sigma(1) ... gamma_sigma(p),
    with the sign from the inversion count, on non-diagonal metrics."""
    rng = random.Random(58)
    for d in (3, 4):
        ctx = random_context(rng, d)
        assert any(not ctx.g[i][j].is_zero() for i in range(d) for j in range(d) if i != j)
        lowers = [exactmat.dense(m) for m in gamma_matrices(ctx, upper=False)]
        size = 1 << d
        for p in range(d + 1):
            comps = current(ctx, p)
            assert sorted(comps) == list(itertools.combinations(range(1, d + 1), p))
            for indices, got in comps.items():
                acc = exactmat.zeros(size, size)
                for perm in itertools.permutations(indices):
                    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                    prod = exactmat.dense(exactmat.scalar(1 << d, 1))
                    for i in perm:
                        prod = exactmat.matmul(prod, lowers[i - 1])
                    acc = exactmat.madd(acc, exactmat.mscale(prod, (-1) ** inversions))
                want = exactmat.mscale(acc, Fraction(1, math.factorial(p)))
                assert exactmat.dense(got) == want, (d, indices)


def test_gamma_matrices_hold_crat_entries():
    """The sign-rule builder writes numerator matrices; made dense, an
    integer-valued gamma has `CRat` entries, and a zero one is `ZERO`."""
    for ctx in (Metric.identity(2), Metric.minkowski(4)):
        for upper in (True, False):
            for m in map(exactmat.dense, gamma_matrices(ctx, upper)):
                assert all(type(x) is CRat for row in m for x in row)
                assert all(x is exactmat.ZERO for row in m for x in row if not x)


def _sign_rule_contexts():
    rng = random.Random(59)
    yield from (Metric.identity(d) for d in (1, 2, 3, 4))
    yield Metric.minkowski(4)
    for d in (1, 2, 3, 4):
        for _ in range(3):
            yield random_context(rng, d)


def test_sign_rule_gammas_equal_the_kernel_route():
    """The Jordan-Wigner builder against the matrices of the `Supernumber`
    operators gamma_a = gamma(e_a) and gamma^a = gamma(g^{a.}), read into
    numerator matrices, and made dense against them entry for entry."""
    for ctx in _sign_rule_contexts():
        d = ctx.dim
        lowers, uppers = gamma_matrices(ctx, False), gamma_matrices(ctx, True)
        for a in range(1, d + 1):
            lower = matrix_of(gamma(ctx, ctx.basis_vector(a)), d)
            upper = matrix_of(gamma(ctx, ctx.g_inv[a - 1]), d)
            assert lowers[a - 1] == exactmat.read(lower), (d, a)
            assert uppers[a - 1] == exactmat.read(upper), (d, a)
            assert exactmat.dense(lowers[a - 1]) == lower and exactmat.dense(uppers[a - 1]) == upper, (d, a)
            for m in map(exactmat.dense, (lowers[a - 1], uppers[a - 1])):
                assert all(type(x) is CRat for row in m for x in row)
                assert all(x is exactmat.ZERO for row in m for x in row if not x)


def test_gammas_and_currents_need_no_grassmann_product(monkeypatch):
    """A step towards oracles that share no code: the gamma matrices and
    the current components are built without `merge_sign` or the graded
    product, so a fault there cannot move both sides of the relations."""
    contexts = [ctx for ctx in _sign_rule_contexts()]
    want = [
        (
            gamma_matrices(ctx, True),
            gamma_matrices(ctx, False),
            [current(ctx, p) for p in range(ctx.dim + 1)],
            gamma0_matrices(ctx),
        )
        for ctx in contexts
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the graded product was called")

    monkeypatch.setattr(graded_poly, "merge_sign", refuse)
    monkeypatch.setattr(graded_poly, "_product", refuse)
    with pytest.raises(AssertionError, match="graded product"):
        Supernumber.generator(2, 1) * Supernumber.generator(2, 2)
    for ctx, (uppers, lowers, comps, copies) in zip(contexts, want):
        assert gamma_matrices(ctx, True) == uppers
        assert gamma_matrices(ctx, False) == lowers
        assert [current(ctx, p) for p in range(ctx.dim + 1)] == comps
        assert gamma0_matrices(ctx) == copies


def _assert_shared_zeros(m):
    m = exactmat.dense(m)
    assert all(type(x) is CRat for row in m for x in row)
    assert all(x is exactmat.ZERO for row in m for x in row if not x)


def test_commuting_copy_equals_the_kernel_route():
    """J gamma_a J from the diagonal sign of J against the matrix of the
    `Supernumber` operator gamma0 = reversal . gamma_a . reversal, entry
    for entry: the graded kernel stays on one side of this test."""
    for ctx in _sign_rule_contexts():
        d = ctx.dim
        copies = gamma0_matrices(ctx)
        assert len(copies) == d
        for a in range(1, d + 1):
            assert copies[a - 1] == exactmat.read(matrix_of(gamma0(ctx, ctx.basis_vector(a)), d)), (d, a)
            _assert_shared_zeros(copies[a - 1])


def test_upper_gammas_equal_the_inverse_metric_sum():
    """The sign-rule gamma^a = xi^a wedge + g^{ab} d/dxi^b against
    g^{ab} gamma_b summed entrywise from the lower gammas; the two agree
    only because g^{-1} g = I holds exactly."""
    for ctx in _sign_rule_contexts():
        lowers = [exactmat.dense(m) for m in gamma_matrices(ctx, False)]
        uppers = gamma_matrices(ctx, True)
        for a, row in enumerate(ctx.g_inv):
            want = reduce(exactmat.madd, (exactmat.mscale(m, c) for c, m in zip(row, lowers) if c))
            assert exactmat.dense(uppers[a]) == want, (ctx.dim, a + 1)
            _assert_shared_zeros(uppers[a])


def _antisymmetrized(lowers, indices, d):
    """(1/p!) sum_sigma sign(sigma) gamma_sigma(1) ... gamma_sigma(p) over
    all p! orderings of `indices`, the sign from the inversion count."""
    acc = exactmat.zeros(1 << d, 1 << d)
    for perm in itertools.permutations(indices):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        prod = exactmat.dense(exactmat.scalar(1 << d, 1))
        for i in perm:
            prod = exactmat.matmul(prod, lowers[i - 1])
        acc = exactmat.madd(acc, exactmat.mscale(prod, (-1) ** inversions))
    return exactmat.mscale(acc, Fraction(1, math.factorial(len(indices))))


def test_current_equals_the_antisymmetrizer_on_every_context():
    """Every rank p <= D of `current` against the p!-term definition, on
    the identity for D = 1..4, Minkowski and seeded random metrics."""
    for ctx in _sign_rule_contexts():
        d = ctx.dim
        lowers = [exactmat.dense(m) for m in gamma_matrices(ctx, upper=False)]
        for p in range(d + 1):
            comps = current(ctx, p)
            assert sorted(comps) == list(itertools.combinations(range(1, d + 1), p))
            for indices, got in comps.items():
                assert exactmat.dense(got) == _antisymmetrized(lowers, indices, d), (d, indices)
                _assert_shared_zeros(got)


def test_clifford_matrices_need_no_entrywise_sums(monkeypatch):
    """The gammas, the commuting copy and the currents are written by the
    sign rule and `exactmat.product_sum`, never by `mscale` or `madd`, and
    each current component of rank 2 or more is one row-kernel call."""
    contexts = [ctx for ctx in _sign_rule_contexts()]
    want = [
        (gamma_matrices(ctx, True), gamma0_matrices(ctx), [current(ctx, p) for p in range(ctx.dim + 1)])
        for ctx in contexts
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("an entrywise sum was called")

    kernel_calls = []
    products = exactmat._products

    def counted(*args):
        kernel_calls.append(1)
        return products(*args)

    monkeypatch.setattr(exactmat, "mscale", refuse)
    monkeypatch.setattr(exactmat, "madd", refuse)
    monkeypatch.setattr(exactmat, "_products", counted)
    for ctx, (uppers, copies, comps) in zip(contexts, want):
        kernel_calls.clear()
        assert gamma_matrices(ctx, True) == uppers
        assert gamma0_matrices(ctx) == copies
        assert not kernel_calls
        for p in range(ctx.dim + 1):
            kernel_calls.clear()
            assert current(ctx, p) == comps[p]
            built = sum(math.comb(ctx.dim, rank) for rank in range(2, p + 1))
            assert len(kernel_calls) == built, (ctx.dim, p)


def test_relations_are_stored_as_canonical_scalars():
    """{gamma^a, gamma^b} is the numerator matrix of 2 g^{ab} I, with its
    content divided out: over den 1 for the identity metric, and equal to
    `exactmat.scalar` on every sign-rule context."""
    for d in (1, 2, 3, 4):
        gs = gamma_matrices(Metric.identity(d))
        for a, b in itertools.combinations_with_replacement(range(d), 2):
            got = exactmat.bracket(gs[a], gs[b], 1)
            assert got.den == 1 and got == exactmat.scalar(1 << d, 2 if a == b else 0)
    for ctx in _sign_rule_contexts():
        size = 1 << ctx.dim
        gs, lowers, copies = gamma_matrices(ctx), gamma_matrices(ctx, False), gamma0_matrices(ctx)
        for a, b in itertools.product(range(ctx.dim), repeat=2):
            assert exactmat.bracket(gs[a], gs[b], 1) == exactmat.scalar(size, ctx.g_inv[a][b] * 2)
            assert exactmat.bracket(copies[a], copies[b], 1) == exactmat.scalar(size, ctx.g[a][b] * 2)
            assert exactmat.bracket(lowers[a], copies[b], -1) == exactmat.scalar(size, 0)


def test_suite_brackets_read_no_operand(monkeypatch):
    """`run_clifford` reads a dense matrix only for the dual route's
    `matrix_of` and the D = 2 current reference: `bracket` and
    `product_sum` run on the numerator matrices as they are held."""
    from supercalc.suites import run_clifford

    reads, inside, calls = [], [], []
    read = exactmat.read

    def counted_read(m):
        reads.append(bool(inside))
        return read(m)

    def entered(fn):
        def run(*args):
            calls.append(fn.__name__)
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return run

    monkeypatch.setattr(exactmat, "read", counted_read)
    monkeypatch.setattr(exactmat, "bracket", entered(exactmat.bracket))
    monkeypatch.setattr(exactmat, "product_sum", entered(exactmat.product_sum))
    report = run_clifford(trials=1, seed=0, dims=(3,))
    assert report.ok
    # two contexts (identity and one random metric) times three dual
    # routes, two operands for each of two matmul calls, and the reference
    assert len(reads) == 2 * 3 + 2 * 2 + 1
    assert not any(reads)
    assert {"bracket", "product_sum"} <= set(calls)
