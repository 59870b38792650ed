"""Clifford algebra represented on an exterior algebra.

For a constant symmetric invertible metric on a D-dimensional space, the
operator gamma(v) = (index-lowered v) wedge + contraction-by-v acts on
the 2^D-dimensional exterior algebra over the dual space and satisfies
the Clifford relations.  Conjugating with the degree reversal J yields a
second, commuting copy, which exhibits the representation's commutant
(it is not irreducible: for even D it is a tensor square of the spinor
module).

The exterior-algebra carrier reuses the Grassmann kernel: an element of
Lambda V* is exactly a supernumber on D generators, and the operators
above act on it.  As matrices, operators are dense 2^D x 2^D lists of
exact complex rationals, the strongest brute-force oracle at these
sizes.  `gamma_matrices` writes them from the Jordan-Wigner sign rule
alone: moving generator k past monomial m costs
(-1)^popcount(m & (2^(k-1) - 1)), so no `Supernumber` product (and no
`merge_sign`) builds a gamma or a current component, and the matrix of
the kernel operator (`matrix_of`) is an independent route to the same
entries.  Anticommutators and commutators are `exactmat.bracket`.  The
metric is a `metric.Metric` (`CliffordContext` names the same class).
The current components gamma_[I] come from the one-index
antisymmetrizer: each rank is built from the one below by peeling off
one index with its sign,
gamma_[i1..ip] = (1/p) sum_k (-1)^(k-1) gamma_ik gamma_[I - ik], so no
sum over all p! orderings is formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Callable, Sequence

from . import exactmat
from .berezin import grassmann_derivative
from .exactmat import Matrix
from .forms import SuperForm, SuperVectorField, op_d_form, op_e_form, op_i_form, op_lie_form
from .graded_poly import _element, function_carrier
from .grassmann import Supernumber
from .metric import Metric, MetricError, metric_delta
from .scalars import CRat

ExteriorElement = Supernumber  # Lambda V* on D generators

Endo = Callable[[ExteriorElement], ExteriorElement]

CliffordContext = Metric  # the Clifford layer takes the same constant metric

_ONE = CRat(1)
_MINUS_ONE = CRat(-1)


def contraction(ctx: Metric, v: Sequence) -> Endo:
    """i(v): remove one factor at a time with alternating signs; on the
    generator basis this is the left Grassmann derivative."""
    comps = [CRat.coerce(c) for c in v]

    def run(w: ExteriorElement) -> ExteriorElement:
        out = Supernumber.zero(ctx.dim)
        for b, c in enumerate(comps, start=1):
            if c:
                out = out + grassmann_derivative(w, b) * c
        return out

    return run


def lowered_covector(ctx: Metric, v: Sequence) -> ExteriorElement:
    """The image of v under the metric isomorphism with the dual space."""
    comps = [CRat.coerce(c) for c in v]
    out = Supernumber.zero(ctx.dim)
    for b in range(ctx.dim):
        coeff = CRat(0)
        for a in range(ctx.dim):
            coeff = coeff + ctx.g[b][a] * comps[a]
        if coeff:
            out = out + Supernumber.generator(ctx.dim, b + 1) * coeff
    return out


def gamma(ctx: Metric, v: Sequence) -> Endo:
    """gamma(v) = (lowered v) wedge + i(v); satisfies
    gamma(v) gamma(w) + gamma(w) gamma(v) = 2 g(v, w)."""
    cov = lowered_covector(ctx, v)
    contract = contraction(ctx, v)

    def run(w: ExteriorElement) -> ExteriorElement:
        return cov * w + contract(w)

    return run


def gamma_lower(ctx: Metric, a: int) -> Endo:
    return gamma(ctx, ctx.basis_vector(a))


def gamma_upper(ctx: Metric, a: int) -> Endo:
    """gamma^a = g^{ab} gamma_b, which on generators reads
    xi^a wedge + g^{ab} d/dxi^b."""
    if not 1 <= a <= ctx.dim:
        raise MetricError(f"basis index {a} outside 1..{ctx.dim}")
    row = ctx.g_inv[a - 1]
    mats = [gamma_lower(ctx, b + 1) for b in range(ctx.dim)]

    def run(w: ExteriorElement) -> ExteriorElement:
        out = Supernumber.zero(ctx.dim)
        for b, c in enumerate(row):
            if c:
                out = out + mats[b](w) * c
        return out

    return run


def gamma_upper_symbolic(ctx: Metric, a: int) -> Endo:
    """Independent route: multiply by the generator and add the
    metric-weighted left derivatives directly."""

    def run(w: ExteriorElement) -> ExteriorElement:
        out = Supernumber.generator(ctx.dim, a) * w
        for b in range(1, ctx.dim + 1):
            c = ctx.g_inv[a - 1][b - 1]
            if c:
                out = out + grassmann_derivative(w, b) * c
        return out

    return run


def reversal(w: ExteriorElement) -> ExteriorElement:
    """J: reverse each monomial, i.e. scale degree p by (-1)^{p(p-1)/2};
    an involution."""
    out = {}
    for mask, c in w.nums.items():
        p = mask.bit_count()
        out[mask] = -c if (p * (p - 1) // 2) & 1 else c
    return _element(Supernumber, w.carrier, out, w.den)


def gamma0(ctx: Metric, v: Sequence) -> Endo:
    """The commuting copy J gamma(v) J."""
    inner = gamma(ctx, v)
    return lambda w: reversal(inner(reversal(w)))


# -- dense-matrix materialization ------------------------------------------


def matrix_of(op: Endo, d: int) -> Matrix:
    """The matrix of op on the monomial basis; its entries are CRat, and
    a zero entry is `exactmat.ZERO`."""
    size = 1 << d
    carrier = function_carrier(0, d)
    cols = []
    for mask in range(size):
        col = [exactmat.ZERO] * size
        for r, c in op(_element(Supernumber, carrier, {mask: 1})).terms.items():
            col[r] = CRat.coerce(c)
        cols.append(col)
    return [[cols[c][r] for c in range(size)] for r in range(size)]


def identity_matrix(d: int) -> Matrix:
    return exactmat.identity(1 << d)


def anticommutator_matrix(a: Matrix, b: Matrix) -> Matrix:
    return exactmat.bracket(a, b, 1)


def commutator_matrix(a: Matrix, b: Matrix) -> Matrix:
    return exactmat.bracket(a, b, -1)


def _sign(m: int, k: int) -> int:
    """The Jordan-Wigner sign (-1)^popcount(m & (2^(k-1) - 1)): moving
    generator k past the generators of monomial m below it."""
    return -1 if (m & ((1 << (k - 1)) - 1)).bit_count() & 1 else 1


def _gamma_lower_matrix(ctx: Metric, a: int) -> Matrix:
    """gamma_a from the sign rule alone.  Column m is the image of the
    monomial m: the wedge with g_ba xi^b writes s(m, b) g[b][a] into row
    m | 2^(b-1) for each b not in m, and the derivative d/dxi^a writes
    s(m, a) into row m ^ 2^(a-1) when a is in m.  The wedge rows have one
    bit more than m and the derivative row one less, so no entry is
    written twice."""
    size = 1 << ctx.dim
    out = exactmat.zeros(size, size)
    col = [(1 << b, b + 1, c, -c) for b, row in enumerate(ctx.g) if (c := row[a - 1])]
    bit = 1 << (a - 1)
    for m in range(size):
        for mb, b, c, neg in col:
            if not m & mb:
                out[m | mb][m] = c if _sign(m, b) > 0 else neg
        if m & bit:
            out[m ^ bit][m] = _ONE if _sign(m, a) > 0 else _MINUS_ONE
    return out


def gamma_matrices(ctx: Metric, upper: bool = True) -> list[Matrix]:
    """The matrices of gamma_a, or of gamma^a = g^{ab} gamma_b when
    `upper`, for a = 1..D, built from the sign rule (see
    `_gamma_lower_matrix`) with no `Supernumber` product."""
    lowers = [_gamma_lower_matrix(ctx, a) for a in range(1, ctx.dim + 1)]
    if not upper:
        return lowers
    return [
        reduce(exactmat.madd, (exactmat.mscale(m, c) for c, m in zip(row, lowers) if c))
        for row in ctx.g_inv
    ]


def current(ctx: Metric, p: int) -> dict[tuple[int, ...], Matrix]:
    """Antisymmetrized products gamma_[i1 ... ip] as dense matrices, one
    per increasing index set; the bilinear current against two states is
    a plain matrix sandwich.  Built rank by rank with the one-index
    antisymmetrizer (see the module docstring)."""
    if not 0 <= p <= ctx.dim:
        raise ValueError(f"antisymmetrization rank {p} outside 0..{ctx.dim}")
    if p == 0:
        return {(): identity_matrix(ctx.dim)}
    lowers = gamma_matrices(ctx, upper=False)
    level = {(i,): lowers[i - 1] for i in range(1, ctx.dim + 1)}
    for rank in range(2, p + 1):
        prev, level = level, {}
        for indices in combinations(range(1, ctx.dim + 1), rank):
            terms = (
                exactmat.mscale(
                    exactmat.matmul(lowers[i - 1], prev[indices[:k] + indices[k + 1:]]),
                    Fraction((-1) ** k, rank),
                )
                for k, i in enumerate(indices)
            )
            level[indices] = reduce(exactmat.madd, terms)
    return level


# -- Dirac-type operator on polynomial forms --------------------------------


def dirac_gamma_on_forms(metric, mu: int):
    """gamma^mu on the bosonic form algebra: e(x^mu) + g^{mu nu} i(d/dx^nu).
    Anticommutators reproduce 2 g^{mu nu} on every polynomial form."""
    coords = metric.coords()
    e_part = op_e_form(coords, coords.x(mu))
    terms = [e_part]
    for nu_idx in range(1, metric.dim + 1):
        c = metric.g_inv[mu - 1][nu_idx - 1]
        if not c:
            continue
        field = SuperVectorField.coordinate_basis(coords, ("x", nu_idx))
        i_op = op_i_form(field)
        terms.append(type(i_op)(i_op.parity, lambda w, f=i_op.fn, cc=c: f(w) * cc))
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def dirac_operator(metric):
    """d + metric transpose, acting degreewise on a (possibly mixed
    degree) element of the bosonic form algebra; returns a raw algebra
    element because the image mixes degrees p-1 and p+1."""
    coords = metric.coords()
    d = op_d_form(coords)

    def run(poly):
        out = d(poly)
        for p in sorted(poly.degrees()):
            part = SuperForm(coords, poly.degree_part(p))
            out = out + metric_delta(metric, part)
        return out

    return run


def dirac_operator_gamma_route(metric):
    """The same operator assembled from gamma^mu and coordinate Lie
    derivatives - the dual-route oracle."""
    coords = metric.coords()
    lies = [
        op_lie_form(SuperVectorField.coordinate_basis(coords, ("x", mu)))
        for mu in range(1, metric.dim + 1)
    ]
    gammas = [dirac_gamma_on_forms(metric, mu) for mu in range(1, metric.dim + 1)]

    def run(poly):
        total = None
        for lie, gam in zip(lies, gammas):
            piece = gam(lie(poly))
            total = piece if total is None else total + piece
        return total

    return run
