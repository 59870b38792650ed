"""Clifford algebra represented on an exterior algebra.

For a constant symmetric invertible metric on a D-dimensional space, the
operator gamma(v) = (index-lowered v) wedge + contraction-by-v acts on
the 2^D-dimensional exterior algebra over the dual space and satisfies
the Clifford relations.  Conjugating with the degree reversal J (the
`grassmann.reversal` of DeWitt conjugation) yields a second, commuting
copy, which exhibits the representation's commutant (it is not
irreducible: for even D it is a tensor square of the spinor module).

The exterior-algebra carrier reuses the Grassmann kernel: an element of
Lambda V* is exactly a supernumber on D generators.  `gamma(ctx, v)` is
the one builder of a gamma operator on it: multiplication by the
covector sum_b (g v)_b xi^b plus sum_b v_b d/dxi^b.  So gamma_a is
gamma(e_a) and gamma^a = g^{ab} gamma_b is gamma(g^{a.}), the row a of
the inverse metric.  As matrices, operators are exact 2^D x 2^D
`exactmat.NumMatrix` values, integer numerators over one denominator,
the strongest brute-force oracle at these sizes.  One matrix builder
writes every gamma matrix from the Jordan-Wigner sign rule alone: moving
generator k past monomial m costs (-1)^popcount(m & (2^(k-1) - 1)), and
sum_b w_b xi^b wedge + sum_b v_b d/dxi^b puts that sign times w_k or v_k
at one entry per row and generator, over the lcm of the w and v
denominators.  gamma_a takes w = g_{.a} and v = e_a, gamma^a takes
w = e_a and v = g^{a.}.  J is the diagonal sign (-1)^{p(p-1)/2} on
monomials of degree p, so the commuting copy J gamma_a J is gamma_a with
the numerators negated where J differs at row and column.  No
`Supernumber` product (and no `merge_sign`) builds a gamma, a commuting
copy or a current component, and the dense `CRat` matrix of a kernel
operator (`matrix_of`) is an independent route to the same entries.
Anticommutators and commutators are `exactmat.bracket`, on the
numerators as they are held, and a relation such as
{gamma^a, gamma^b} = 2 g^{ab} compares with `exactmat.scalar`.  The
metric is a `metric.Metric` (`CliffordContext` names the same class).
The current components gamma_[I] come from the one-index
antisymmetrizer: each rank is built from the one below by peeling off
one index with its sign,
gamma_[i1..ip] = (1/p) sum_k (-1)^(k-1) gamma_ik gamma_[I - ik], one
`exactmat.product_sum` per component with the signs and the 1/p folded
into its integer numerators, so no sum over all p! orderings is formed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import mul
from typing import Callable, Sequence

from . import exactmat
from .exactmat import Matrix, NumMatrix
from .forms import SuperForm, SuperVectorField, op_d_form, op_e_form, op_i_form, op_lie_form
from .graded_poly import GradedPoly, _derivation_sum, _derivation_terms, _element, function_carrier
from .grassmann import Supernumber, reversal  # the one J, also exported from here
from .metric import Metric, metric_delta
from .scalars import CRat

ExteriorElement = Supernumber  # Lambda V* on D generators

Endo = Callable[[ExteriorElement], ExteriorElement]

CliffordContext = Metric  # the Clifford layer takes the same constant metric


def gamma(ctx: Metric, v: Sequence) -> Endo:
    """gamma(v) = (lowered v) wedge + i(v): multiplication by the covector
    sum_b (g v)_b xi^b plus sum_b v_b d/dxi^b, the left Grassmann
    derivatives in one `_derivation_sum` pass.  It satisfies
    gamma(v) gamma(w) + gamma(w) gamma(v) = 2 g(v, w)."""
    d = ctx.dim
    v = ctx.vector(v)
    carrier = function_carrier(0, d)
    cov = Supernumber(d, {1 << b: sum(map(mul, row, v), exactmat.ZERO) for b, row in enumerate(ctx.g)})
    terms = _derivation_terms(carrier, [(Supernumber.scalar(d, c), 1 << b, 0) for b, c in enumerate(v) if c])
    return lambda w: cov * w + _element(Supernumber, carrier, *_derivation_sum(w.nums, w.den, terms))


def gamma0(ctx: Metric, v: Sequence) -> Endo:
    """The commuting copy J gamma(v) J."""
    inner = gamma(ctx, v)
    return lambda w: reversal(inner(reversal(w)))


# -- matrices on the monomial basis -----------------------------------------


def matrix_of(op: Endo, d: int) -> Matrix:
    """The matrix of op on the monomial basis; its entries are CRat, and
    a zero entry is `exactmat.ZERO`."""
    carrier = function_carrier(0, d)
    out = exactmat.zeros(1 << d, 1 << d)
    for m in range(1 << d):
        for r, c in op(_element(Supernumber, carrier, {m: 1})).terms.items():
            out[r][m] = CRat.coerce(c)
    return out


def _sign_rule_matrix(d: int, wedge: Sequence[CRat], derive: Sequence[CRat]) -> NumMatrix:
    """The numerator matrix of sum_b wedge[b] xi^b wedge + sum_b derive[b]
    d/dxi^b, for real coefficients (a metric's entries are real), from
    the Jordan-Wigner sign rule alone: moving generator b past monomial m
    costs s(m, b) = (-1)^popcount(m & (2^(b-1) - 1)).  Generator b maps
    column m to row m ^ 2^(b-1), so row r reads column r ^ 2^(b-1):
    s(r, b) wedge[b] when b is in r, s(r, b) derive[b] when it is not,
    over the lcm of the coefficients' denominators.  The columns of the
    generators in r, taken from the highest down, precede r, and those of
    the others, from the lowest up, follow it, so each row comes out in
    ascending column order."""
    den = lcm(*(c._d for c in chain(wedge, derive)))
    gens = [
        (1 << b, (1 << b) - 1, w._a * (den // w._d), v._a * (den // v._d))
        for b, (w, v) in enumerate(zip(wedge, derive))
        if w or v
    ]
    highest_first = gens[::-1]
    rows = []
    for r in range(1 << d):
        row = [
            (r ^ bit, -w if (r & low).bit_count() & 1 else w)
            for bit, low, w, _ in highest_first
            if w and r & bit
        ]
        row += [
            (r ^ bit, -v if (r & low).bit_count() & 1 else v)
            for bit, low, _, v in gens
            if v and not r & bit
        ]
        rows.append(row)
    return exactmat._num_matrix(1 << d, 1 << d, rows, None, den)


def gamma_matrices(ctx: Metric, upper: bool = True) -> list[NumMatrix]:
    """The matrices of gamma_a = g_ba xi^b wedge + d/dxi^a, or when `upper`
    of gamma^a = xi^a wedge + g^{ab} d/dxi^b, for a = 1..D, each written by
    `_sign_rule_matrix` with no `Supernumber` product."""
    d = ctx.dim
    if upper:
        return [_sign_rule_matrix(d, ctx.basis_vector(a), ctx.g_inv[a - 1]) for a in range(1, d + 1)]
    return [
        _sign_rule_matrix(d, [row[a - 1] for row in ctx.g], ctx.basis_vector(a))
        for a in range(1, d + 1)
    ]


def gamma0_matrices(ctx: Metric) -> list[NumMatrix]:
    """The commuting copy J gamma_a J for a = 1..D.  J is diagonal, with
    (-1)^{p(p-1)/2} at a monomial of degree p (see `reversal`), so each
    numerator is that of gamma_a, negated where J differs at its row and
    at its column; a real metric's gammas have no imaginary part."""
    odd = [(p * (p - 1) // 2) & 1 for p in map(int.bit_count, range(1 << ctx.dim))]

    def flip(rows: tuple) -> tuple:
        return tuple(
            tuple((c, x if odd[r] == odd[c] else -x) for c, x in row) for r, row in enumerate(rows)
        )

    return [g._replace(re=flip(g.re)) for g in gamma_matrices(ctx, upper=False)]


def current(ctx: Metric, p: int) -> dict[tuple[int, ...], NumMatrix]:
    """Antisymmetrized products gamma_[i1 ... ip] as numerator matrices, one
    per increasing index set; the bilinear current against two states is
    a plain matrix sandwich.  Built rank by rank with the one-index
    antisymmetrizer (see the module docstring), one
    `exactmat.product_sum` per component."""
    if not 0 <= p <= ctx.dim:
        raise ValueError(f"antisymmetrization rank {p} outside 0..{ctx.dim}")
    if p == 0:
        return {(): exactmat.scalar(1 << ctx.dim, 1)}
    lowers = gamma_matrices(ctx, upper=False)
    level = {(i,): lowers[i - 1] for i in range(1, ctx.dim + 1)}
    for rank in range(2, p + 1):
        prev, level = level, {}
        for indices in combinations(range(1, ctx.dim + 1), rank):
            level[indices] = exactmat.product_sum(
                (lowers[i - 1], prev[indices[:k] + indices[k + 1:]], Fraction((-1) ** k, rank))
                for k, i in enumerate(indices)
            )
    return level


# -- Dirac-type operator on polynomial forms --------------------------------


def dirac_gamma_on_forms(metric, mu: int):
    """gamma^mu on the bosonic form algebra: e(x^mu) + i(g^{mu nu} d/dx^nu),
    one contraction by a constant field.  Anticommutators reproduce
    2 g^{mu nu} on every polynomial form."""
    coords = metric.coords()
    return op_e_form(coords, coords.x(mu)) + op_i_form(
        SuperVectorField.make(coords, metric.g_inv[mu - 1], (), 0)
    )


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
    derivatives, sum_mu gamma^mu L(d/dx^mu) - the dual-route oracle."""
    coords = metric.coords()
    pieces = [
        (dirac_gamma_on_forms(metric, mu), op_lie_form(SuperVectorField.coordinate_basis(coords, ("x", mu))))
        for mu in range(1, metric.dim + 1)
    ]
    return lambda poly: sum((gam(lie(poly)) for gam, lie in pieces), GradedPoly.zero(coords.forms))
