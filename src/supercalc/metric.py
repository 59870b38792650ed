"""Metric layer on purely bosonic patches: the form/density
correspondence, Hodge star, metric transpose and its dual-route cousin.

Everything stays exact over Q(i) by carrying sqrt(det g) symbolically:
metric-produced objects hold an integer half-power of det g alongside
their rational payload.  Powers fold in pairs into the coefficients, and
fold completely whenever det g is (plus or minus) a perfect rational
square, e.g. the identity or the mostly-plus Minkowski metric; with the
complexified coefficients a negative determinant folds to an imaginary
factor rather than raising branch questions.

C_g, its inverse, the star and its inverse are one pipeline, `_mapped`:
take the components of a form or density by slot mask, which on a
bosonic patch is the stored auxiliary key of `components()`, send them
to the target masks by a rule of the source degree (the minors of
g^{-1} or g, or the star matrix Q or its inverse), rebuild, and move
the sqrt(det g) tag by one.  The linear pullbacks along x = A xbar build
the images of x and of the differentials or slots on the target carrier
and call the kernel's one substitution routine, `GradedPoly.substitute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt
from typing import Sequence

from . import exactmat
from .exactmat import Matrix, from_rows, minor_det
from .forms import CoordinateSystem, SuperDensity, SuperForm, divergence, exterior_d
from .graded_poly import GradedPoly, indices_of, merge_sign
from .scalars import CRat


def exact_sqrt(q: Fraction) -> CRat | None:
    """sqrt(q) in Q(i) when it exists: q = (p/r)^2 gives p/r, q = -(p/r)^2
    gives i p/r; otherwise None."""
    if q == 0:
        return CRat(0)
    mag = abs(q)
    rn, rd = isqrt(mag.numerator), isqrt(mag.denominator)
    if rn * rn != mag.numerator or rd * rd != mag.denominator:
        return None
    root = Fraction(rn, rd)
    return CRat(root) if q > 0 else CRat(0, root)


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class Metric:
    """Constant symmetric invertible matrix on the bosonic sector."""

    dim: int
    g: Matrix
    g_inv: Matrix
    det: Fraction
    sqrt_det: CRat | None  # folded exact root when available

    @staticmethod
    def from_matrix(rows: Sequence[Sequence]) -> "Metric":
        g = from_rows(rows)
        d = len(g)
        if any(len(r) != d for r in g):
            raise MetricError("metric must be square")
        for i in range(d):
            for j in range(d):
                if g[i][j] != g[j][i]:
                    raise MetricError("metric must be symmetric")
                if not g[i][j].is_real():
                    raise MetricError("metric entries must be real rationals")
        det = exactmat.det(g)
        if not det:
            raise MetricError("metric is degenerate")
        return Metric(d, g, exactmat.inverse(g), det.re, exact_sqrt(det.re))

    @staticmethod
    def identity(d: int) -> "Metric":
        return Metric.from_matrix([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @staticmethod
    def minkowski(d: int = 4) -> "Metric":
        return Metric.from_matrix(
            [[(-1 if i == 0 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
        )

    def coords(self) -> CoordinateSystem:
        return CoordinateSystem(self.dim, 0)

    def basis_vector(self, a: int) -> list[CRat]:
        if not 1 <= a <= self.dim:
            raise MetricError(f"basis index {a} outside 1..{self.dim}")
        return [CRat(1 if i == a - 1 else 0) for i in range(self.dim)]

    def vector(self, v: Sequence) -> list[CRat]:
        """v's components as `CRat`; a vector whose length is not the
        dimension is refused."""
        if len(v) != self.dim:
            raise MetricError(f"vector of length {len(v)} for a metric of dimension {self.dim}")
        return [CRat.coerce(c) for c in v]


@dataclass(frozen=True)
class Scaled:
    """value times (det g)^{half_power / 2}, kept exact."""

    value: object  # SuperForm or SuperDensity
    half_power: int = 0

    def normalized(self, metric: Metric) -> "Scaled":
        k, r = divmod(self.half_power, 2)
        value = self.value
        if k:
            value = value.scale(CRat(metric.det) ** k)
        if r and metric.sqrt_det is not None:
            value = value.scale(metric.sqrt_det)
            r = 0
        return Scaled(value, r)

    def plain(self, metric: Metric):
        out = self.normalized(metric)
        if out.half_power:
            raise MetricError("result carries an unresolved sqrt(det g) factor")
        return out.value

    def component_squared(self, metric: Metric) -> object:
        """The scalar value squared times det^half_power - tag-free, so
        scaled objects over different metrics can be compared."""
        out = self.normalized(metric)
        obj = out.value
        if obj.degree != 0:
            raise MetricError("component_squared applies to scalar payloads")
        sq = type(obj)(obj.coords, obj * obj)
        if out.half_power:
            sq = sq.scale(CRat(metric.det))
        return sq


def _require_bosonic(coords: CoordinateSystem, metric: Metric):
    if coords.nu != 0:
        raise MetricError("metric operations need a purely bosonic patch")
    if coords.n != metric.dim:
        raise MetricError("metric dimension does not match the patch")


def _masks_of_size(d: int, p: int) -> list[int]:
    return [m for m in range(1 << d) if m.bit_count() == p]


def _minor(matrix: Matrix, target: int, source: int) -> CRat:
    """Minor determinant picked by two ordered index sets (as masks)."""
    rows = [i - 1 for i in indices_of(target)]
    cols = [j - 1 for j in indices_of(source)]
    return minor_det(matrix, rows, cols)


def _mapped(metric: Metric, x, cls, rule, step: int) -> Scaled:
    """The pipeline of C_g, its inverse and the star pair.  x is a form or
    density, or a `Scaled` one; for x of degree p, rule(p) gives the
    target slot masks t and factor(t, s).  The result is the `cls` whose
    component at t is sum_s factor(t, s) x_s over x's components by slot
    mask s, tagged with x's sqrt(det g) power moved by `step`; a target
    whose sum cancels gets no component.  On a bosonic patch the stored
    auxiliary key of a component is its slot mask, and a coefficient key
    plus a mask t is the key of the increasing blade t times that
    monomial, with sign +1."""
    half = 0
    if isinstance(x, Scaled):
        x, half = x.value, x.half_power
    _require_bosonic(x.coords, metric)
    targets, factor = rule(x.degree)
    comps = x.components().items()
    zero, carrier = GradedPoly.zero(x.coords.functions), cls.carrier_of(x.coords)
    terms = {}
    for t in targets:
        total = sum((f * c for s, f in comps if (c := factor(t, s))), zero)
        terms.update((key + t, c) for key, c in total.terms.items())
    return Scaled(cls(x.coords, GradedPoly(carrier, terms)), half + step).normalized(metric)


# -- the correspondence C_g ----------------------------------------------


def _minor_rule(matrix: Matrix):
    """The `_mapped` rule of C_g or its inverse: p-masks to p-masks, each
    factor a p x p minor of `matrix`."""
    return lambda p: (_masks_of_size(len(matrix), p), partial(_minor, matrix))


def correspondence_cg(metric: Metric, w: SuperForm) -> Scaled:
    """p-form -> p-density: raise every index with g^{-1} and weight by
    sqrt(det g)."""
    return _mapped(metric, w, SuperDensity, _minor_rule(metric.g_inv), 1)


def cg_inverse(metric: Metric, f: SuperDensity | Scaled) -> Scaled:
    """p-density -> p-form: lower indices, divide by sqrt(det g)."""
    return _mapped(metric, f, SuperForm, _minor_rule(metric.g), -1)


def volume_density(metric: Metric) -> Scaled:
    """The scalar density paired with the coordinate volume form; its
    component is sqrt(det g)."""
    coords = metric.coords()
    unit = SuperDensity.from_function(coords, 1)
    return Scaled(unit, half_power=1).normalized(metric)


# -- Hodge star -----------------------------------------------------------


def _star_rule(metric: Metric, p: int, inverse: bool = False):
    """The star on p-forms as a `_mapped` rule: (star w)_K = s * sum_J
    Q[K][J] w_J over ordered masks, s the sqrt(det g) tag, so the targets
    are the (d - p)-masks and factor reads Q; or, when `inverse`, the
    targets are the p-masks and factor reads Q^-1."""
    d = metric.dim
    ins, outs, full = _masks_of_size(d, p), _masks_of_size(d, d - p), (1 << d) - 1
    q = [[_minor(metric.g_inv, full ^ k, j) * merge_sign(full ^ k, k) for j in ins] for k in outs]
    if inverse:
        return ins, _entry(exactmat.inverse(q), ins, outs)
    return outs, _entry(q, outs, ins)


def _entry(matrix: Matrix, rows: list[int], cols: list[int]):
    """Look up a matrix entry by the masks labelling its row and column."""
    row_of = {m: r for r, m in enumerate(rows)}
    col_of = {m: c for c, m in enumerate(cols)}
    return lambda t, s: matrix[row_of[t]][col_of[s]]


def hodge_star(metric: Metric, w: SuperForm) -> Scaled:
    """Star operator pinned by wedge-pairing against the volume element:
    for every p-form v, v wedge star(w) equals their metric scalar
    product times the volume form."""
    return _mapped(metric, w, SuperForm, partial(_star_rule, metric), 1)


def hodge_star_inverse(metric: Metric, w: SuperForm | Scaled) -> Scaled:
    """The inverse of the star: a (d - p)-form back to its p-form preimage."""
    return _mapped(metric, w, SuperForm, lambda p: _star_rule(metric, metric.dim - p, inverse=True), -1)


# -- metric transpose and its ascending partner ---------------------------


def metric_delta(metric: Metric, w: SuperForm, route: str = "correspondence") -> SuperForm:
    """The transpose of d: pull the form to a density, take the
    divergence, and come back; or the star detour with the matching
    degree sign.  The two routes agree exactly."""
    _require_bosonic(w.coords, metric)
    if w.degree == 0:
        return SuperForm.from_function(w.coords, 0)
    if route == "correspondence":
        dens = correspondence_cg(metric, w)
        return cg_inverse(metric, Scaled(divergence(dens.value), dens.half_power)).plain(metric)
    if route == "star":
        starred = hodge_star(metric, w)
        back = hodge_star_inverse(metric, Scaled(exterior_d(starred.value), starred.half_power)).plain(metric)
        sign = -1 if (w.degree + 1) & 1 else 1
        return back.scale(sign)
    raise ValueError(f"unknown route {route!r}")


def beta_ascending(metric: Metric, f: SuperDensity | Scaled) -> Scaled:
    """The d-conjugate acting on densities: C_g d C_g^{-1}."""
    form = cg_inverse(metric, f)
    inner = correspondence_cg(metric, exterior_d(form.value))
    return Scaled(inner.value, inner.half_power + form.half_power).normalized(metric)


# -- linear coordinate changes (x = A xbar) -------------------------------


def _images(generator, carrier, n: int, entry) -> list[GradedPoly]:
    """The n linear combinations sum_c entry(i, c) generator(carrier, c + 1)."""
    gens = [generator(carrier, c + 1) for c in range(n)]
    return [sum((g * entry(i, c) for c, g in enumerate(gens)), GradedPoly.zero(carrier)) for i in range(n)]


def pullback_form(w: SuperForm, a: Sequence[Sequence]) -> SuperForm:
    """Pull a bosonic form through the substitution x = A xbar: both the
    coordinates in the coefficients and the differentials transform by A."""
    coords = w.coords
    if coords.nu:
        raise MetricError("linear pullback implemented on bosonic patches")
    mat = from_rows(a)
    fc = coords.forms
    x_images = _images(GradedPoly.coordinate, fc, coords.n, lambda i, c: mat[i][c])
    dx_images = _images(GradedPoly.aux_odd, fc, coords.n, lambda i, c: mat[i][c])
    return SuperForm(coords, w.substitute(x_images, dx_images))


def pullback_density(f: SuperDensity, a: Sequence[Sequence]) -> SuperDensity:
    """Transform a weight-one density through x = A xbar: slots transform
    by the inverse matrix and the whole object picks up det A."""
    coords = f.coords
    if coords.nu:
        raise MetricError("linear pullback implemented on bosonic patches")
    mat = from_rows(a)
    inv = exactmat.inverse(mat)
    d = exactmat.det(mat)
    dc = coords.densities
    x_images = _images(GradedPoly.coordinate, dc, coords.n, lambda i, c: mat[i][c])
    slot_images = _images(GradedPoly.aux_odd, dc, coords.n, lambda i, c: inv[c][i])
    return SuperDensity(coords, f.substitute(x_images, slot_images) * d)


def pullback_metric(metric: Metric, a: Sequence[Sequence]) -> Metric:
    mat = from_rows(a)
    at = exactmat.transpose(mat)
    return Metric.from_matrix(
        [[c.re for c in row] for row in exactmat.matmul(at, exactmat.matmul(metric.g, mat))]
    )
