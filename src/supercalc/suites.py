"""Randomized invariant suites behind the ``check`` command.

Each suite draws its trials from a seeded generator, so a fixed seed
reproduces the run byte for byte; reports never include wall-clock data
in their canonical rendering for that reason (timing goes to stderr).

Every suite counts a case one way, `CheckResult.expect`, on the check
that `SuiteReport.check(name)` starts, or returns if already started.
The sampled suites `grassmann`, `berezin` and `linalg` are `Check` rows,
each with its clauses `(holds, message)`, over blocks of draws and one
driver, `evaluate_checks`.  `complexes` runs the table `IDENTITIES`, and
each trial set adds its cases to the row's one check; `metric`, `fock`
and `clifford` are nested enumerations written as loops.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from . import exactmat
from . import randomgen as rg
from .analytic import EXP, EXP_NEG, RECIPROCAL, lift
from .berezin import (
    Domain,
    MixedFunction,
    berezin_integral,
    change_of_variables_check,
    density_pairing,
    grassmann_derivative,
    mixed_integral,
    tensor_product,
)
from .clifford import (
    CliffordContext,
    current,
    dirac_gamma_on_forms,
    dirac_operator,
    dirac_operator_gamma_route,
    gamma,
    gamma0_matrices,
    gamma_matrices,
    matrix_of,
    reversal,
)
from .fock import (
    REPRESENTATIONS,
    FockAlgebraSpec,
    FockState,
    apply,
    dual_product,
    inner_product,
    spanning_states,
    translate,
)
from .forms import (
    CoordinateSystem,
    Operator,
    SuperDensity,
    SuperForm,
    SuperVectorField,
    integrate_density,
    op_d_form,
    op_divergence,
    op_e_density,
    op_e_form,
    op_i_density,
    op_i_form,
    op_lie_density,
    op_lie_form,
    op_mult,
    op_mult_density,
    pairing,
)
from .graded_poly import GradedPoly, _element, function_carrier, split_xi
from .grassmann import Convention, Parity, Supernumber
from .matrices import (
    GradedMatrix,
    GradedVector,
    ParitySignature,
    apply_to_vector,
    conjugate_matrix,
    matmul,
    superhermitian,
    supertranspose,
)
from .metric import (
    Metric,
    MetricError,
    beta_ascending,
    cg_inverse,
    correspondence_cg,
    hodge_star,
    hodge_star_inverse,
    metric_delta,
    pullback_density,
    pullback_form,
    pullback_metric,
    volume_density,
)
from .polynomials import integrate_box
from .scalars import CRat


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, message: str) -> None:
        """Count one case; record `message` when `condition` fails."""
        self.cases += 1
        if not condition:
            self.failures.append(message)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: list[CheckResult] = field(default_factory=list)

    def check(self, name: str) -> CheckResult:
        """The check of the report named `name`: the one already started
        under that name, or else a new one after the others."""
        for result in self.checks:
            if result.name == name:
                return result
        result = CheckResult(name)
        self.checks.append(result)
        return result

    @property
    def failure_count(self) -> int:
        return sum(len(c.failures) for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (seed={self.seed}, trials={self.trials})"]
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            lines.append(f"  {status} {c.name} [{c.cases} cases]")
            for f in c.failures[:5]:
                lines.append(f"    ! {f}")
            if len(c.failures) > 5:
                lines.append(f"    ! ... {len(c.failures) - 5} more")
        lines.append(
            f"  => {'OK' if self.ok else 'FAILURES'} "
            f"({len(self.checks)} checks, {self.failure_count} failures)"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "failures": self.failure_count,
            "checks": [
                {"name": c.name, "cases": c.cases, "failures": list(c.failures)}
                for c in self.checks
            ],
        }


# -- sampled checks ----------------------------------------------------------


class Block(NamedTuple):
    """`count` draws `draw(rng, k)`, k = 0, 1, ..., from the suite's one
    generator.  A draw returns the named inputs that the checks of the
    block share (a draw function returns its `locals()`), `k` among them."""

    count: int
    draw: Callable[[random.Random, int], dict]


class Check(NamedTuple):
    """One reported check over the draws of `block` that `scope` admits.
    Each clause `(holds, message)` counts one case per such draw, and when
    `holds(draw)` is false it records `message` formatted with the draw's
    names; `holds` and `scope` read the names as attributes."""

    name: str
    block: Block
    clauses: Sequence[tuple[Callable[[SimpleNamespace], bool], str]]
    scope: Callable[[SimpleNamespace], bool] = lambda t: True


def evaluate_checks(report: SuiteReport, checks: Sequence[Check]) -> SuiteReport:
    """Add `checks` to `report` in order and evaluate them.  Blocks draw
    from one generator seeded with the report's seed, in the order of
    their first check, so what the checks compute never moves a draw."""
    rng = random.Random(report.seed)
    rows = [(check, report.check(check.name)) for check in checks]
    for block in dict.fromkeys(check.block for check in checks):
        members = [(check, result) for check, result in rows if check.block == block]
        for k in range(block.count):
            names = block.draw(rng, k)
            t = SimpleNamespace(**names)
            for check, result in members:
                if check.scope(t):
                    for holds, message in check.clauses:
                        ok = holds(t)
                        result.expect(ok, "" if ok else message.format_map(names))
    return report


MAX_N = 6  # run_grassmann draws supernumbers over 2..MAX_N generators
MAX_NU = 4  # run_berezin draws supernumbers over 1..MAX_NU generators
N_GEN = 4  # the generators of run_linalg's matrix entries


# -- grassmann core ---------------------------------------------------------


def _linear_part(z: Supernumber) -> dict:
    """The terms of degree 0 and 1, which the reversal J fixes."""
    return {m: c for m, c in z.terms.items() if m & (m - 1) == 0}


def run_grassmann(trials: int = 200, seed: int = 0) -> SuiteReport:
    dewitt = Convention.DEWITT

    def triples(rng, k):
        n = 2 + k % (MAX_N - 1)
        a, b, c = (rg.supernumber(rng, n) for _ in range(3))
        pa, pb = k % 2, k // 2 % 2
        sign = -1 if pa * pb else 1
        ha, hb = (rg.homogeneous_supernumber(rng, n, p) for p in (pa, pb))
        return locals()

    def invertibles(rng, k):
        n = 2 + k % (MAX_N - 1)
        z = rg.supernumber(rng, n, ensure_body=True)
        return locals()

    def conjugates(rng, k):
        n = 2 + k % (MAX_N - 1)
        z, w = rg.supernumber(rng, n), rg.supernumber(rng, n)
        pa, pb = k % 2, k // 2 % 2
        sign = -1 if pa * pb else 1
        ha, hb = (rg.homogeneous_supernumber(rng, n, p) for p in (pa, pb))
        return locals()

    def souls(rng, k):
        n = 2 + k % (MAX_N - 1)
        z, w = (rg.supernumber(rng, n).soul().even_part() for _ in range(2))
        zz = rg.supernumber(rng, n, ensure_body=True)
        return locals()

    ring = Block(trials, triples)
    return evaluate_checks(SuiteReport("grassmann", seed, trials), [
        Check("ring axioms: associativity, distributivity", ring, [
            (lambda t: (t.a * t.b) * t.c == t.a * (t.b * t.c), "assoc #{k} n={n}"),
            (lambda t: t.a * (t.b + t.c) == t.a * t.b + t.a * t.c, "distrib #{k} n={n}"),
        ]),
        Check("graded commutativity on homogeneous pairs", ring,
              [(lambda t: t.ha * t.hb == (t.hb * t.ha) * t.sign, "graded #{k} parities {pa}{pb}")]),
        Check("soul nilpotency soul(z)^(N+1) = 0", ring,
              [(lambda t: (t.a.soul() ** (t.n + 1)).is_zero(), "nilpotency #{k} n={n}")]),
        Check("mul(z, inverse(z)) = 1 on invertible z", Block(trials, invertibles),
              [(lambda t: t.z * t.z.inverse() == Supernumber.unit(t.n), "inverse #{k} n={n}")]),
        Check("conjugation: additivity, product rules, involution", Block(trials, conjugates), [
            (lambda t: (t.z + t.w).conjugate() == t.z.conjugate() + t.w.conjugate(), "additivity #{k}"),
            (lambda t: t.z.conjugate().conjugate() == t.z, "involution #{k}"),
            (lambda t: t.z.conjugate(dewitt).conjugate(dewitt) == t.z
             and _linear_part(t.z.conjugate(dewitt)) == _linear_part(t.z.conjugate()), "dewitt involution #{k}"),
            (lambda t: (t.z * t.w).conjugate() == t.z.conjugate() * t.w.conjugate(), "koszul product rule #{k}"),
            (lambda t: (t.ha * t.hb).conjugate(dewitt) == t.ha.conjugate(dewitt) * t.hb.conjugate(dewitt) * t.sign,
             "dewitt product rule #{k}"),
        ]),
        Check("lifting: exp multiplicativity, reciprocal, composition", Block(trials // 2, souls), [
            (lambda t: lift(EXP, t.z) * lift(EXP, t.w) == lift(EXP, t.z + t.w), "exp additivity #{k}"),
            (lambda t: lift(RECIPROCAL, t.zz) == t.zz.inverse(), "reciprocal #{k}"),
            (lambda t: lift(RECIPROCAL, lift(EXP, t.z)) == lift(EXP_NEG, t.z), "composition #{k}"),
        ]),
    ])


# -- berezin -----------------------------------------------------------------


def run_berezin(trials: int = 200, seed: int = 0) -> SuiteReport:
    unit, wide = Domain.box((0, 1)), Domain.box((-1, 1))

    def singles(rng, k):
        nu = 1 + k % MAX_NU
        f = rg.supernumber(rng, nu)
        lam, mu = 1 + k % nu, 1 + (k + 1) % nu
        return locals()

    def products(rng, k):
        nu = 2 + k % (MAX_NU - 1)
        f, g = rg.supernumber(rng, nu), rg.supernumber(rng, nu)
        return locals()

    def substitutions(rng, k):
        nu = 1 + k % MAX_NU
        f, a = rg.supernumber(rng, nu), rg.invertible_rational_matrix(rng, nu)
        return locals()

    def factors(rng, k):
        f1, f2 = rg.mixed_function(rng, 1, 2), rg.mixed_function(rng, 1, 1)
        i1, i2 = mixed_integral(f1, unit), mixed_integral(f2, wide)
        return locals()

    def pairs(rng, k):
        d, f = rg.mixed_function(rng, 1, 3), rg.mixed_function(rng, 1, 3)
        return locals()

    def gaussian(rng, k):
        fgauss = MixedFunction(1, 2, {0b11: lambda x: math.exp(-x * x)})
        return {"value": mixed_integral(fgauss, Domain(((-8.0, 8.0),), tol=1e-12))}

    first = Block(trials, singles)
    return evaluate_checks(SuiteReport("berezin", seed, trials), [
        Check("left derivatives anticommute", first, [
            (lambda t: (grassmann_derivative(grassmann_derivative(t.f, t.lam), t.mu)
                        + grassmann_derivative(grassmann_derivative(t.f, t.mu), t.lam)).is_zero(), "anticommute #{k}"),
        ], scope=lambda t: t.nu >= 2),
        Check("DI = 0 and ID = 0", first, [
            (lambda t: isinstance(berezin_integral(t.f), CRat), "scalar result #{k}"),
            (lambda t: berezin_integral(grassmann_derivative(t.f, t.lam)) == CRat(0), "ID = 0 #{k} nu={nu}"),
        ]),
        Check("derivation property: integral of d(fg) vanishes", Block(trials // 2, products), [
            (lambda t: berezin_integral(grassmann_derivative(t.f * t.g, 1 + t.k % t.nu)) == CRat(0), "parts #{k}"),
        ]),
        Check("linear change of variables: derivative product vs det", Block(trials, substitutions),
              [(lambda t: operator.eq(*change_of_variables_check(t.f, t.a)), "change of variables #{k} nu={nu}")]),
        Check("Fubini on factorized integrands", Block(trials // 4, factors), [
            (lambda t: mixed_integral(tensor_product(t.f1, t.f2), Domain.box((0, 1), (-1, 1))) == t.i1 * t.i2,
             "fubini order 1 #{k}"),
            (lambda t: mixed_integral(tensor_product(t.f2, t.f1), Domain.box((-1, 1), (0, 1))) == t.i2 * t.i1,
             "fubini order 2 #{k}"),
        ]),
        Check("density pairing equals multiply-then-integrate (n=1, nu=3)", Block(trials, pairs),
              [(lambda t: density_pairing(t.d, t.f, unit) == mixed_integral(t.d * t.f, unit), "pairing #{k}")]),
        Check("gaussian quadrature example reproduces sqrt(pi)", Block(1, gaussian),
              [(lambda t: abs(t.value - math.sqrt(math.pi)) < 1e-10, "got {value!r}, want sqrt(pi) within 1e-10")]),
    ])


# -- graded matrices ----------------------------------------------------------


def _supertranspose_oracle(k: GradedMatrix) -> GradedMatrix:
    """Entrywise sign pattern evaluated directly from the component rule,
    kept deliberately independent of the library implementation."""
    pk = k.parity()
    rows_out, cols_out = len(k.col_sig), len(k.row_sig)
    out = []
    for r in range(rows_out):
        row = []
        for c in range(cols_out):
            pr, pc = k.col_sig[r], k.row_sig[c]
            sign = (-1) ** (((pk + pc) * (pr + pc)) % 2)
            row.append(k.entries[c][r] * sign)
        out.append(row)
    return GradedMatrix(k.col_sig, k.row_sig, out)


def _plain_transpose_rule(ma, mb, sign: int, zero: Supernumber) -> bool:
    """(AB)^T = sign B^T A^T for plain matrices of supernumbers whose
    entries all have one parity each; sign is (-1)^{|A||B|}."""
    inner = range(len(mb))
    return all(
        sum((row[t] * mb[t][j] for t in inner), zero) == sum((mb[t][j] * row[t] * sign for t in inner), zero)
        for j in range(len(mb[0])) for row in ma
    )


def _block_form(m: GradedMatrix, pk: int) -> bool:
    """The supertranspose of [[a, c], [d, b]] on signature (even, odd) with
    parity pk is [[a, (-1)^{pk+1} d], [(-1)^pk c, b]]."""
    (a, c), (d, b) = m.entries
    return supertranspose(m).entries == ((a, d * CRat(1 if pk else -1)), (c * CRat(-1 if pk else 1), b))


def run_linalg(trials: int = 300, seed: int = 0) -> SuiteReport:
    zero, square = Supernumber.zero(N_GEN), ParitySignature.of(1, 1)

    def products(rng, k):
        sig_a, sig_b, sig_c = (rg.parity_signature(rng) for _ in range(3))
        pk, pl = k % 2, k // 2 % 2
        sign = -1 if pk * pl else 1
        km = rg.graded_matrix(rng, sig_a, sig_b, N_GEN, pk)
        lm = rg.graded_matrix(rng, sig_b, sig_c, N_GEN, pl)
        # plain matrices whose entries share the parities pk and pl
        ra, rb, rc = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        ma = rg.homogeneous_entry_matrix(rng, ra, rb, N_GEN, pk)
        mb = rg.homogeneous_entry_matrix(rng, rb, rc, N_GEN, pl)
        kl = matmul(km, lm)
        vec_parity = k // 2 % 2
        coords = tuple(rg.homogeneous_supernumber(rng, N_GEN, (vec_parity + p) % 2, 2) for p in sig_b.parities)
        image = apply_to_vector(km, GradedVector(sig_b, coords))
        want, got = (pk + vec_parity) % 2, image.parity()
        return locals()

    def squares(rng, k):
        pk = k % 2
        m = rg.graded_matrix(rng, square, square, N_GEN, pk)
        return locals()

    pairs = Block(trials, products)
    return evaluate_checks(SuiteReport("linalg", seed, trials), [
        Check("ordinary transpose of homogeneous-entry products", pairs,
              [(lambda t: _plain_transpose_rule(t.ma, t.mb, t.sign, zero), "transpose rule #{k} parities {pk}{pl}")]),
        Check("supertranspose product rule", pairs, [
            (lambda t: supertranspose(t.kl) == matmul(supertranspose(t.lm), supertranspose(t.km)).scale(CRat(t.sign)),
             "sT product #{k} parities {pk}{pl}"),
        ]),
        Check("entrywise conjugation is multiplicative (Koszul)", pairs, [
            (lambda t: conjugate_matrix(t.kl) == matmul(conjugate_matrix(t.km), conjugate_matrix(t.lm)),
             "conjugation multiplicative #{k}"),
        ]),
        Check("superhermitian product rule", pairs, [
            (lambda t: superhermitian(t.kl) == matmul(superhermitian(t.lm), superhermitian(t.km)).scale(CRat(t.sign)),
             "sH product #{k} parities {pk}{pl}"),
            (lambda t: superhermitian(t.km) == supertranspose(conjugate_matrix(t.km)), "sH order independence #{k}"),
        ]),
        Check("double supertranspose matches the sign-rule oracle", pairs, [
            (lambda t: supertranspose(t.km) == _supertranspose_oracle(t.km)
             and supertranspose(supertranspose(t.km)) == _supertranspose_oracle(_supertranspose_oracle(t.km)),
             "oracle #{k}"),
        ]),
        Check("block form of the supertranspose", Block(trials // 3, squares),
              [(lambda t: _block_form(t.m, t.pk), "block form #{k} parity {pk}")]),
        Check("even matrices preserve, odd matrices flip, vector parity", pairs,
              [(lambda t: t.got in (t.want, 0) if all(z.is_zero() for z in t.image.coords) else t.got == t.want,
                "vector parity #{k}: want {want} got {got}")]),
        Check("matrix product parity adds", pairs, [
            (lambda t: t.kl.parity() in ((t.pk + t.pl) % 2, 0) if all(z.is_zero() for row in t.kl.entries for z in row)
             else t.kl.parity() == (t.pk + t.pl) % 2, "product parity #{k}"),
        ]),
    ])


# -- complexes ----------------------------------------------------------------


DEFAULT_MIXES: tuple[tuple[int, int], ...] = ((2, 0), (0, 2), (2, 2), (3, 1))


# The graded Cartan relations of the exterior calculus (DeWitt,
# "Supermanifolds", 2nd ed., 1992), one row per identity.  Each row is
# multilinear in its element families, so `commutator_table` checks it on
# every tuple of the families' product; a row runs only on patches its
# scope admits.  A family entry carries its operators, built once by
# `_trial_set` where the element is drawn: a `Field` its i(X) and L(X), a
# `Function` its e(F) and M(F), each on forms and on densities, a `Pair`
# also the field of [X, Y], a `Product` the function XF, a `Direction`
# d/dx^A and x^A, and the one-entry "patch" family d, b and the
# directions; the rows only compose them.  Relations whose naive
# extension fails off its stated scope are scoped: [e(F), i(X)] = M(XF)
# on densities and the classical oracles are bosonic-sector statements,
# and [b, e(F)] = 0 takes only the functions of the "b-closed functions"
# family (an even F on mixed patches; the obstruction is the mixed second
# derivative of an odd F).  The Lie/e interchange carries the factor
# (-1)^{parity X} required by the graded Jacobi identity.


class Identity(NamedTuple):
    """One row of the table: `deviation(*elements)` must vanish exactly on
    every tuple drawn from `families` when `scope(coords)`."""

    name: str
    scope: Callable[[CoordinateSystem], bool]
    families: tuple[str, ...]
    deviation: Callable[..., GradedPoly]


Field = namedtuple("Field", "x i lie i_density lie_density")
Function = namedtuple("Function", "f e m e_density m_density")
Pair = namedtuple("Pair", "x y bracket")  # fields X, Y and [X, Y]
Product = namedtuple("Product", "field function image")  # fields X, functions F and XF
Direction = namedtuple("Direction", "label field coordinate")  # d/dx^A and x^A
Patch = namedtuple("Patch", "d b directions")


def _field(x: SuperVectorField) -> Field:
    return Field(x, op_i_form(x), op_lie_form(x), op_i_density(x), op_lie_density(x))


def _function(coords: CoordinateSystem, f: GradedPoly) -> Function:
    return Function(f, op_e_form(coords, f), op_mult(coords, f), op_e_density(coords, f), op_mult_density(coords, f))


def _every_patch(coords: CoordinateSystem) -> bool:
    return True


def _bosonic(coords: CoordinateSystem) -> bool:
    return coords.nu == 0


def _ladder(pair, w) -> GradedPoly:
    """[i(d/dx^A), e(x^B)] w - delta_AB w for coordinates A, B of one kind."""
    a, b = pair
    return a.field.i.graded_bracket(b.coordinate.e)(w) - w * CRat(1 if a.label == b.label else 0)


def lie_density_classical(x: SuperVectorField) -> Operator:
    """Textbook component formula for the Lie derivative of a bosonic
    contravariant weight-one density: transport minus gradient insertion
    plus the divergence weight term.  Serves as an independent oracle for
    the bracket definition (purely bosonic fields and coordinates)."""
    coords = x.coords
    if coords.nu or x.parity:
        raise ValueError("classical oracle is for even fields on bosonic patches")

    def run(nums: dict, den: int) -> tuple[dict, int]:
        w = _element(GradedPoly, coords.densities, nums, den)
        out = GradedPoly.zero(coords.densities)
        for a, comp in enumerate(x.bose, start=1):
            out = out + comp.with_carrier(coords.densities) * w.partial_x(a)
        for a in range(1, coords.n + 1):
            for b, comp in enumerate(x.bose, start=1):
                grad = comp.partial_x(a)
                if grad.is_zero():
                    continue
                replaced = GradedPoly.aux_odd(coords.densities, b) * w.partial_aux_odd(a)
                out = out - grad.with_carrier(coords.densities) * replaced
        out = out + x.coordinate_divergence().with_carrier(coords.densities) * w
        return out.nums, out.den

    return Operator(0, coords.densities, run)


def _scalar_divergence(p: Patch, x: Field, f: Function) -> GradedPoly:
    """[b, i(X)]+ on the scalar density f minus d_mu(X^mu f)."""
    densities = x.x.coords.densities
    u = f.f.with_carrier(densities)
    acc = GradedPoly.zero(densities)
    for a, comp in enumerate(x.x.bose, start=1):
        acc = acc + (comp.with_carrier(densities) * u).partial_x(a)
    return p.b.graded_bracket(x.i_density)(u) - acc


IDENTITIES: tuple[Identity, ...] = (
    Identity("forms: dd = 0", _every_patch, ("patch", "forms"), lambda p, w: (p.d @ p.d)(w)),
    Identity("forms: [e(F), e(G)] = 0", _every_patch, ("function pairs", "forms"),
             lambda fg, w: fg[0].e.graded_bracket(fg[1].e)(w)),
    Identity("forms: [i(X), i(Y)] = 0", _every_patch, ("field pairs", "forms"),
             lambda xy, w: xy.x.i.graded_bracket(xy.y.i)(w)),
    Identity("forms: [i(X), e(F)] = M(XF)", _every_patch, ("products", "two forms"),
             lambda xf, w: (xf.field.i.graded_bracket(xf.function.e) - xf.image.m)(w)),
    Identity("forms: [d, e(F)] = 0", _every_patch, ("patch", "functions", "two forms"),
             lambda p, f, w: p.d.graded_bracket(f.e)(w)),
    Identity("forms: [i(X), d] = L(X)", _every_patch, ("patch", "fields", "two forms"),
             lambda p, x, w: (x.i.graded_bracket(p.d) - x.lie)(w)),
    Identity("forms: [d, L(X)] = 0", _every_patch, ("patch", "fields", "two forms"),
             lambda p, x, w: p.d.graded_bracket(x.lie)(w)),
    Identity("forms: [d, M(F)] = e(F)", _every_patch, ("patch", "functions", "two forms"),
             lambda p, f, w: (p.d.graded_bracket(f.m) - f.e)(w)),
    Identity("forms: [L(X), L(Y)] = L([X, Y])", _every_patch, ("field pairs", "two forms"),
             lambda xy, w: (xy.x.lie.graded_bracket(xy.y.lie) - xy.bracket.lie)(w)),
    Identity("forms: [L(X), e(F)] = (-1)^X e(XF)", _every_patch, ("two-function products", "two forms"),
             lambda xf, w: (xf.field.lie.graded_bracket(xf.function.e)
                            - (-xf.image.e if xf.field.x.parity else xf.image.e))(w)),
    Identity("forms: [L(X), M(F)] = M(XF)", _every_patch, ("two-function products", "two forms"),
             lambda xf, w: (xf.field.lie.graded_bracket(xf.function.m) - xf.image.m)(w)),
    Identity("forms: [L(X), i(Y)] = i([X, Y])", _every_patch, ("field pairs", "two forms"),
             lambda xy, w: (xy.x.lie.graded_bracket(xy.y.i) - xy.bracket.i)(w)),
    Identity("forms: d = sum e(x^A) L(d/dx^A)", _every_patch, ("patch", "forms"),
             lambda p, w: sum((a.coordinate.e @ a.field.lie for a in p.directions), -p.d)(w)),
    Identity("forms: ladder pairs {i(d_a), e(x^k)} = delta, [i(d_xi), e(xi)] = delta", _every_patch,
             ("coordinate pairs", "forms"), _ladder),
    Identity("forms: i(odd X) is an even derivation over wedge", _every_patch,
             ("odd fields", "two forms", "two forms"), lambda x, w, v: x.i(w * v) - (x.i(w) * v + w * x.i(v))),
    Identity("densities: bb = 0", _every_patch, ("patch", "densities"), lambda p, u: (p.b @ p.b)(u)),
    Identity("densities: [e(F), e(G)] = 0", _every_patch, ("function pairs", "two densities"),
             lambda fg, u: fg[0].e_density.graded_bracket(fg[1].e_density)(u)),
    Identity("densities: [i(X), i(Y)] = 0", _every_patch, ("field pairs", "two densities"),
             lambda xy, u: xy.x.i_density.graded_bracket(xy.y.i_density)(u)),
    Identity("densities: [b, e(F)] = 0", _every_patch, ("patch", "b-closed functions", "two densities"),
             lambda p, f, u: p.b.graded_bracket(f.e_density)(u)),
    Identity("densities: [e(F), i(X)]+ = M(XF) (bosonic)", _bosonic, ("products", "two densities"),
             lambda xf, u: (xf.function.e_density.graded_bracket(xf.field.i_density) - xf.image.m_density)(u)),
    Identity("densities: [b, L(X)] = 0", _every_patch, ("patch", "fields", "two densities"),
             lambda p, x, u: p.b.graded_bracket(x.lie_density)(u)),
    Identity("densities: b = sum e(x^A) L(d/dx^A)", _every_patch, ("patch", "densities"),
             lambda p, u: sum((a.coordinate.e_density @ a.field.lie_density for a in p.directions), -p.b)(u)),
    Identity("densities: L(d/dx^A) acts as d/dx^A", _every_patch, ("densities", "coordinates"),
             lambda u, a: a.field.lie_density(u)
             - (u.partial_x(a.label[1]) if a.label[0] == "x" else u.partial_xi(a.label[1]))),
    Identity("densities: bracket Lie = classical component formula (bosonic)", _bosonic,
             ("even fields", "densities"),
             lambda x, u: (x.lie_density - lie_density_classical(x.x))(u)),
    Identity("densities: [b, i(X)]+ = d_mu(X^mu .) on scalars (bosonic)", _bosonic,
             ("patch", "even fields", "functions"), _scalar_divergence),
)


def _cyclic_pairs(items: Sequence) -> list[tuple]:
    return [(items[i], items[(i + 1) % len(items)]) for i in range(len(items))]


def _trial_set(rng: random.Random, coords: CoordinateSystem) -> dict[str, Sequence]:
    """Seeded test entries for the identity table, by family name: three
    forms and densities, four parity-homogeneous functions and fields, and
    the slices, cyclic pairs, products and filters of them that the rows
    sample, each function and field with its operators."""
    max_deg = 3 if coords.nu else min(3, coords.n)
    forms = tuple(rg.form(rng, coords, rng.randint(0, max_deg)) for _ in range(3))
    densities = tuple(rg.density(rng, coords, rng.randint(0, max_deg)) for _ in range(3))
    functions = []
    for _ in range(4):
        parity = rng.randint(0, 1) if coords.nu else 0
        fn = rg.superfunction(rng, coords, parity=parity)
        functions.append(_function(coords, GradedPoly.unit(coords.functions) if fn.is_zero() else fn))
    fields = tuple(_field(rg.vector_field(rng, coords, rng.randint(0, 1) if coords.nu else 0)) for _ in range(4))
    even_functions = [f for f in functions if f.f.parity() is not Parity.ODD]
    # function by function, so the first 2 * len(fields) products take the first two functions
    products = [Product(x, f, _function(coords, x.x.apply(f.f))) for f in functions for x in fields]
    directions = tuple(
        Direction((kind, k), _field(SuperVectorField.coordinate_basis(coords, (kind, k))),
                  _function(coords, coords.x(k) if kind == "x" else coords.xi(k)))
        for kind, count in (("x", coords.n), ("xi", coords.nu)) for k in range(1, count + 1)
    )
    return {
        "patch": (Patch(op_d_form(coords), op_divergence(coords), directions),),
        "forms": forms,
        "two forms": forms[:2],
        "densities": densities,
        "two densities": densities[:2],
        "functions": functions,
        "function pairs": _cyclic_pairs(functions),
        "b-closed functions": even_functions if coords.n and coords.nu else functions,
        "fields": fields,
        "field pairs": [Pair(x, y, _field(x.x.bracket(y.x))) for x, y in _cyclic_pairs(fields)],
        "odd fields": tuple(x for x in fields if x.x.parity == 1),
        "even fields": tuple(x for x in fields if x.x.parity == 0),
        "products": products,
        "two-function products": products[: 2 * len(fields)],
        "coordinates": directions,
        "coordinate pairs": [(a, k) for a in directions for k in directions if a.label[0] == k.label[0]],
    }


def commutator_table(report: SuiteReport, coords: CoordinateSystem, families: dict[str, Sequence]) -> None:
    """Evaluate every row of `IDENTITIES` in scope on `coords` over the
    product of its families into the report's check "(n,nu) <row name>",
    one case per tuple; every deviation must be exactly zero."""
    for row in IDENTITIES:
        if row.scope(coords):
            result = report.check(f"({coords.n},{coords.nu}) {row.name}")
            for elements in itertools.product(*(families[name] for name in row.families)):
                result.expect(row.deviation(*elements).is_zero(), f"case #{result.cases}")


def run_complexes(
    trials: int = 200,
    seed: int = 0,
    mixes: Sequence[tuple[int, int]] = DEFAULT_MIXES,
    table_cases: int = 50,
) -> SuiteReport:
    report = SuiteReport("complexes", seed, trials)
    rng = random.Random(seed)

    for n, nu in mixes:
        coords = CoordinateSystem(n, nu)
        d, b = op_d_form(coords), op_divergence(coords)
        dd_op, bb_op = d @ d, b @ b
        max_deg = 3 if nu else min(3, n)

        dd = report.check(f"({n},{nu}) dd = 0")
        bb = report.check(f"({n},{nu}) bb = 0")
        for k in range(trials):
            w = rg.form(rng, coords, k % (max_deg + 1))
            dd.expect(dd_op(w).is_zero(), f"dd #{k}")
            u = rg.density(rng, coords, k % (max_deg + 1))
            bb.expect(bb_op(u).is_zero(), f"bb #{k}")

        wedge_comm = report.check(f"({n},{nu}) wedge graded commutativity")
        for k in range(trials // 4):
            pa, pb = k % 2, (k // 2) % 2
            wa = rg.form(rng, coords, rng.randint(0, max_deg)).parity_part(pa)
            wb = rg.form(rng, coords, rng.randint(0, max_deg)).parity_part(pb)
            sign = CRat(-1 if pa * pb else 1)
            wedge_comm.expect(wa * wb == (wb * wa) * sign, f"wedge #{k}")

        if nu:
            unbounded = report.check(f"({n},{nu}) complex continues above degree nu")
            high = GradedPoly.aux_even(coords.forms, 1) ** (nu + 2)
            unbounded.expect(not high.is_zero(), "dxi^~(nu+2) vanished")
            unbounded.expect(
                not d(
                    GradedPoly.aux_even(coords.forms, 1) ** (nu + 1)
                    * coords.xi(1).with_carrier(coords.forms)
                ).is_zero(),
                "d of high-degree form vanished",
            )

        # operator identity table, each row counted over fresh trial sets
        for _ in range(max(1, math.ceil(table_cases / 3))):
            commutator_table(report, coords, _trial_set(rng, coords))

        if nu:
            cross = report.check(f"({n},{nu}) scalar-density integral matches mixed integral")
            bounds = tuple((0, 1) for _ in range(n))
            ring, full = function_carrier(n, 0), (1 << nu) - 1
            for k in range(max(5, trials // 10)):
                fn = rg.superfunction(rng, coords, terms=5)
                lhs = integrate_density(fn, bounds)
                # the right side reads F's xi_1...xi_nu terms directly, with no derivative
                rhs = integrate_box(split_xi(fn).get(full, GradedPoly.zero(ring)), bounds)
                cross.expect(lhs == rhs, f"cross-check #{k}")

    return report


# -- metric layer --------------------------------------------------------------


def _random_metric(rng: random.Random, d: int) -> Metric:
    """A random real symmetric metric: a symmetric invertible draw with 4
    added on the diagonal, drawn again while that sum is singular."""
    while True:
        g = rg.symmetric_invertible_matrix(rng, d)
        for i in range(d):
            g[i][i] += 4
        try:
            return Metric.from_matrix(g)
        except MetricError:
            continue


def _at(f: GradedPoly, point: Sequence[Fraction]) -> CRat:
    """The value of a function of the x_a at x_a = point[a - 1], read off
    its terms."""
    unpack = f.carrier.unpack
    return sum((c * math.prod(point[a - 1] ** e for a, e in unpack(key)[0]) for key, c in f.terms.items()), CRat(0))


def run_metric(trials: int = 10, seed: int = 0, dims: Sequence[int] = (2, 3)) -> SuiteReport:
    report = SuiteReport("metric", seed, trials)
    rng = random.Random(seed)

    routes = report.check("metric transpose: correspondence route == star route")
    dd0 = report.check("double transpose vanishes")
    bb0 = report.check("double ascent vanishes")
    trip = report.check("correspondence round trip")
    vol = report.check("volume density component squares to det g")
    for d in dims:
        coords = CoordinateSystem(d, 0)
        for k in range(trials):
            metric = _random_metric(rng, d)
            for p in range(0, d + 1):
                w = rg.form(rng, coords, p)
                d1 = metric_delta(metric, w, route="correspondence")
                d2 = metric_delta(metric, w, route="star")
                routes.expect(d1 == d2, f"routes D={d} p={p} #{k}")
                dd0.expect(
                    metric_delta(metric, d1).is_zero() if d1.degree else True,
                    f"deltadelta D={d} p={p} #{k}",
                )
                dens = correspondence_cg(metric, w)
                trip.expect(
                    cg_inverse(metric, dens).plain(metric) == w,
                    f"round trip D={d} p={p} #{k}",
                )
                if p < d:
                    b1 = beta_ascending(metric, dens)
                    bb0.expect(
                        beta_ascending(metric, b1).value.is_zero(),
                        f"betabeta D={d} p={p} #{k}",
                    )
            v = volume_density(metric)
            want = SuperDensity.from_function(coords, 1).scale(CRat(metric.det))
            vol.expect(v.component_squared(metric) == want, f"volume D={d} #{k}")

    star2 = report.check("star examples in two flat dimensions")
    m2 = Metric.identity(2)
    c2 = m2.coords()
    dx1, dx2 = c2.dx(1), c2.dx(2)
    star2.expect(hodge_star(m2, SuperForm(c2, dx1)).plain(m2) == SuperForm(c2, dx2), "star dx1")
    star2.expect(hodge_star(m2, SuperForm(c2, dx2)).plain(m2) == SuperForm(c2, -dx1), "star dx2")
    star2.expect(
        hodge_star_inverse(m2, hodge_star(m2, SuperForm(c2, dx1))).plain(m2) == SuperForm(c2, dx1),
        "star inverse round trip",
    )

    push = report.check("pullback: pairing covariance and volume naturality")
    for k in range(trials):
        d = dims[k % len(dims)]
        coords = CoordinateSystem(d, 0)
        metric = _random_metric(rng, d)
        a = rg.invertible_rational_matrix(rng, d)
        mat = exactmat.from_rows(a)
        det_a = exactmat.det(mat)
        p = k % (d + 1)
        w = rg.form(rng, coords, p)
        dens = rg.density(rng, coords, p)
        lhs = pairing(pullback_density(dens, a), pullback_form(w, a))
        rhs_raw = pairing(dens, w)
        # transport the scalar density by substitution and det factor
        xs = [GradedPoly.coordinate(coords.functions, c + 1) for c in range(d)]
        images = [sum((x * m for x, m in zip(xs, row)), GradedPoly.zero(coords.functions)) for row in mat]
        # and, with no substitution, at x_j = (j + 1) / (k + 1) and at its image under a
        point = [Fraction(c + 2, k + 1) for c in range(d)]
        image = [sum(m * x for m, x in zip(row, point)) for row in a]
        at_point = _at(lhs, point) == _at(rhs_raw, image) * det_a
        push.expect(lhs == rhs_raw.substitute(images, ()) * det_a and at_point, f"pairing pullback #{k}")
        gbar = pullback_metric(metric, a)
        lhs_sq = volume_density(gbar).component_squared(gbar)
        rhs_sq = SuperDensity.from_function(coords, 1).scale(det_a * det_a * CRat(metric.det))
        push.expect(lhs_sq == rhs_sq, f"volume naturality #{k}")

    return report


# -- fock ------------------------------------------------------------------------


def run_fock(
    trials: int = 50,
    seed: int = 0,
    n_bose: int = 2,
    n_fermi: int = 2,
    max_occupation: int = 4,
) -> SuiteReport:
    report = SuiteReport("fock", seed, trials)
    rng = random.Random(seed)

    spec = FockAlgebraSpec(n_bose, n_fermi)
    kinds = ("b", "b+", "f", "f+")
    ladder = [(kind, i) for kind in kinds for i in range(1, (n_fermi if kind[0] == "f" else n_bose) + 1)]
    # Ordered pairs whose second block is the first's or a later one in the
    # order b, b+, f, f+.  The bracket, an anticommutator when both are
    # fermionic, is s on (b_i, b+_i) and (f_i, f+_i) and 0 on every other pair.
    pairs = []
    for o1, o2 in itertools.product(ladder, repeat=2):
        if kinds.index(o1[0]) <= kinds.index(o2[0]):
            anti = o1[0][0] == o2[0][0] == "f"
            text = ("{%s%d, %s%d}" if anti else "[%s%d, %s%d]") % (*o1, *o2)
            pairs.append((o1, o2, anti, o2 == (o1[0] + "+", o1[1]), f"{text} on state"))

    for rep in REPRESENTATIONS:
        states = spanning_states(spec, rep, max_occupation)
        vac = FockState.vacuum(spec, rep)
        table = report.check(f"{rep}: CCR/CAR table with cross-relations")
        table.expect(all(apply(op, vac).is_zero() for op in ladder if "+" not in op[0]), "annihilators kill the vacuum")
        for s in states:
            for o1, o2, anti, delta, text in pairs:
                x, y = apply(o1, apply(o2, s)), apply(o2, apply(o1, s))
                bracket = x + y if anti else x - y
                table.expect((bracket - s if delta else bracket).is_zero(), text)

    inter = report.check("translate intertwines every ladder operator")
    holo_states = spanning_states(spec, "holomorphic", max_occupation)
    for rep in ("form", "density"):
        for s in holo_states:
            for op in ladder:
                lhs = translate(apply(op, s), rep)
                rhs = apply(op, translate(s, rep))
                inter.expect((lhs - rhs).is_zero(), f"intertwine {rep} {op}")
            back = translate(translate(s, rep), "holomorphic")
            inter.expect((back - s).is_zero(), f"round trip {rep}")

    number = report.check("number operators commute; fermionic ones are idempotent")
    for s in holo_states[: max(10, trials // 5)]:
        for i in range(1, n_bose + 1):
            for j in range(1, n_fermi + 1):
                ni = lambda t: apply(("b+", i), apply(("b", i), t))
                mj = lambda t: apply(("f+", j), apply(("f", j), t))
                number.expect((ni(mj(s)) - mj(ni(s))).is_zero(), "commute")
                number.expect((mj(mj(s)) - mj(s)).is_zero(), "idempotent")

    def random_state():
        out = FockState.vacuum(spec).scale(0)
        for _ in range(4):
            out = out + rng.choice(holo_states).scale(rg.crat(rng))
        return out

    adjoint = report.check("creation and annihilation are mutually adjoint")
    cauchy = report.check("Cauchy-Schwarz and positivity")
    for k in range(trials):
        f, g = random_state(), random_state()
        for op_pair in ((("b", 1), ("b+", 1)), (("f", 1), ("f+", 1))):
            down, up = op_pair
            adjoint.expect(
                inner_product(f, apply(up, g)) == inner_product(apply(down, f), g),
                f"adjoint {up} #{k}",
            )
        nf, ng = inner_product(f, f), inner_product(g, g)
        fg = inner_product(f, g)
        cauchy.expect(nf.im == 0 and nf.re >= 0, f"positivity #{k}")
        cauchy.expect(fg.abs2() <= (nf * ng).re, f"cauchy-schwarz #{k}")

    degree = report.check("dual product vanishes off matching degree")
    by_degree: dict[int, list] = {}
    for s in holo_states:
        occ = s.total_occupation()
        if occ and max(occ) <= 4:
            by_degree.setdefault(max(occ), []).append(s)
    for p, group_p in sorted(by_degree.items()):
        for q, group_q in sorted(by_degree.items()):
            if p == q:
                continue
            sd = translate(group_p[0], "density")
            wf = translate(group_q[len(group_q) // 2], "form")
            degree.expect(dual_product(sd, wf) == CRat(0), f"degrees {p} vs {q}")

    bilinear = report.check("dual product matches the bilinear occupation pairing")
    for k in range(trials // 2):
        f, g = random_state(), random_state()
        dp = dual_product(translate(f, "density"), translate(g, "form"))
        want = CRat(0)
        g_terms = g.terms
        for mono, cf in f.terms.items():
            cg = g_terms.get(mono)
            if cg is None:
                continue
            weight = 1
            for _, e in f.carrier.unpack(mono)[0]:
                weight *= math.factorial(e)
            want = want + cf * cg * weight
        bilinear.expect(dp == want, f"bilinear #{k}")

    return report


# -- clifford -----------------------------------------------------------------


def run_clifford(
    trials: int = 20,
    seed: int = 0,
    dims: Sequence[int] = (1, 2, 3, 4),
    metric_spec: str | Sequence[Sequence] | None = None,
) -> SuiteReport:
    report = SuiteReport("clifford", seed, trials)
    rng = random.Random(seed)

    def contexts_for(d: int) -> list[tuple[str, CliffordContext]]:
        if metric_spec == "identity":
            return [("identity", CliffordContext.identity(d))]
        if metric_spec == "minkowski":
            return [("minkowski", CliffordContext.minkowski(d))]
        if isinstance(metric_spec, (list, tuple)):
            return [("custom", CliffordContext.from_matrix(metric_spec))]
        out = [("identity", CliffordContext.identity(d))]
        if d == 4:
            out.append(("minkowski", CliffordContext.minkowski(d)))
        for k in range(trials):
            g = rg.symmetric_invertible_matrix(rng, d)  # symmetric, real and invertible
            out.append((f"random{k}", CliffordContext.from_matrix(g)))
        return out

    relations = report.check("anticommutators equal twice the inverse metric")
    commutant = report.check("reversal-conjugated copy commutes and represents")
    involution = report.check("reversal squares to the identity")
    dual_route = report.check("matrix route equals generator-derivative route")
    for d in dims:
        size = 1 << d
        for label, ctx in contexts_for(d):
            gs = gamma_matrices(ctx)
            for a in range(d):
                for b in range(a, d):
                    relations.expect(
                        exactmat.bracket(gs[a], gs[b], 1) == exactmat.scalar(size, ctx.g_inv[a][b] * 2),
                        f"D={d} {label} ({a+1},{b+1})",
                    )
            g0s = gamma0_matrices(ctx)
            gls = gamma_matrices(ctx, upper=False)
            zero = exactmat.scalar(size, 0)
            for a in range(d):
                for b in range(d):
                    commutant.expect(
                        exactmat.bracket(gls[a], g0s[b], -1) == zero,
                        f"commutant D={d} {label} ({a+1},{b+1})",
                    )
                    if b >= a:
                        commutant.expect(
                            exactmat.bracket(g0s[a], g0s[b], 1) == exactmat.scalar(size, ctx.g[a][b] * 2),
                            f"copy relations D={d} {label} ({a+1},{b+1})",
                        )
            if d >= 2:
                nonscalar = any(g0 != exactmat.scalar(size, exactmat.dense(g0)[0][0]) for g0 in g0s)
                commutant.expect(
                    nonscalar,
                    f"commutant is non-scalar (reducibility witness) D={d} {label}",
                )
            for a in range(1, d + 1):
                dual_route.expect(
                    gs[a - 1] == exactmat.read(matrix_of(gamma(ctx, ctx.g_inv[a - 1]), d)),
                    f"routes D={d} {label} a={a}",
                )
        for k in range(5):
            w = rg.supernumber(rng, d)
            jw = reversal(w)
            involution.expect(reversal(jw) == w and _linear_part(jw) == _linear_part(w), f"J^2 D={d} #{k}")

    counts = report.check("independent current components count binomially")
    d = max(dims)
    ctx = CliffordContext.identity(d)
    total = 0
    for p in range(d + 1):
        comps = current(ctx, p)
        counts.expect(len(comps) == math.comb(d, p), f"C({d},{p})")
        total += len(comps)
    counts.expect(total == 1 << d, "sum of counts = 2^D")
    c2 = current(CliffordContext.identity(2), 2)
    g1m, g2m = map(exactmat.dense, gamma_matrices(CliffordContext.identity(2), upper=False))
    half = exactmat.mscale(
        exactmat.madd(exactmat.matmul(g1m, g2m), exactmat.mscale(exactmat.matmul(g2m, g1m), -1)),
        Fraction(1, 2),
    )
    counts.expect(c2[(1, 2)] == exactmat.read(half), "antisymmetrized pair at D=2")

    dirac = report.check("d + transpose equals the gamma/Lie assembly on forms")
    for k in range(max(5, trials // 4)):
        dmet = 2 + (k % 2)
        metric = _random_metric(rng, dmet)
        coords = metric.coords()
        w = rg.form(rng, coords, k % (dmet + 1))
        lhs = dirac_operator(metric)(w)
        rhs = dirac_operator_gamma_route(metric)(w)
        dirac.expect((lhs - rhs).is_zero(), f"dirac routes #{k}")
        for mu in range(1, dmet + 1):
            for nu_ in range(mu, dmet + 1):
                gm, gn = dirac_gamma_on_forms(metric, mu), dirac_gamma_on_forms(metric, nu_)
                dev = gm.graded_bracket(gn)(w) - w * (metric.g_inv[mu - 1][nu_ - 1] * 2)
                dirac.expect(dev.is_zero(), f"form anticommutator #{k} ({mu},{nu_})")

    return report


# -- all suites -----------------------------------------------------------------


def run_all(trials: int = 50, seed: int = 0) -> list[SuiteReport]:
    reports = []
    reports.append(run_grassmann(trials=max(trials, 50), seed=seed))
    reports.append(run_berezin(trials=max(trials, 40), seed=seed + 1))
    reports.append(run_linalg(trials=max(trials, 40), seed=seed + 2))
    reports.append(run_complexes(trials=max(10, trials // 4), seed=seed + 3, table_cases=12))
    reports.append(run_metric(trials=max(2, trials // 15), seed=seed + 4))
    reports.append(run_fock(trials=max(10, trials // 4), seed=seed + 5, max_occupation=3))
    reports.append(run_clifford(trials=max(3, trials // 10), seed=seed + 6))
    return reports
