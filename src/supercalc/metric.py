"""Metric layer on purely bosonic patches: the form/density
correspondence, Hodge star, metric transpose and its dual-route cousin.

Everything stays exact over Q(i) by carrying sqrt(det g) symbolically:
metric-produced objects hold an integer half-power of det g alongside
their rational payload.  Powers fold in pairs into the coefficients, and
fold completely whenever det g is (plus or minus) a perfect rational
square, e.g. the identity or the mostly-plus Minkowski metric; with the
complexified coefficients a negative determinant folds to an imaginary
factor rather than raising branch questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from . import exactmat
from .exactmat import Matrix, from_rows, minor_det
from .forms import CoordinateSystem, SuperDensity, SuperForm, divergence, exterior_d
from .graded_poly import GradedPoly, indices_of, mask_of, merge_sign
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

    def scalar_product(self, v: Sequence, w: Sequence) -> CRat:
        v = [CRat.coerce(c) for c in v]
        w = [CRat.coerce(c) for c in w]
        total = CRat(0)
        for a in range(self.dim):
            for b in range(self.dim):
                total = total + self.g[a][b] * v[a] * w[b]
        return total


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


def _components_by_mask(w: SuperForm | SuperDensity) -> dict[int, GradedPoly]:
    """Split a bosonic form/density by its differential (slot) mask."""
    return {mask_of(bose, w.coords.n): f for (bose, _), f in w.components().items()}


def _masks_of_size(d: int, p: int) -> list[int]:
    return [m for m in range(1 << d) if m.bit_count() == p]


def _minor(matrix: Matrix, target: int, source: int) -> CRat:
    """Minor determinant picked by two ordered index sets (as masks)."""
    rows = [i - 1 for i in indices_of(target)]
    cols = [j - 1 for j in indices_of(source)]
    return minor_det(matrix, rows, cols)


def _transform(comps: dict[int, GradedPoly], targets, factor) -> dict[int, GradedPoly]:
    """Components sum_s factor(t, s) comps[s] for each target mask t;
    targets whose sum vanishes are left out."""
    out = {}
    for t in targets:
        total = None
        for s, coeff in comps.items():
            if f := factor(t, s):
                total = coeff * f if total is None else total + coeff * f
        if total is not None and not total.is_zero():
            out[t] = total
    return out


def _rebuild(coords: CoordinateSystem, cls, comps: dict[int, GradedPoly]):
    """Assemble a SuperForm or SuperDensity from its components by slot
    mask: an increasing bosonic blade times a bosonic coefficient monomial
    is the canonical monomial (x_exps, 0, mask, ()) with sign +1."""
    carrier = cls.carrier_of(coords)
    terms = {
        carrier.pack((coeff.carrier.unpack(key)[0], 0, mask, ())): c
        for mask, coeff in comps.items()
        for key, c in coeff.terms.items()
    }
    return cls(coords, GradedPoly(carrier, terms))


# -- the correspondence C_g ----------------------------------------------


def correspondence_cg(metric: Metric, w: SuperForm) -> Scaled:
    """p-form -> p-density: raise every index with g^{-1} and weight by
    sqrt(det g)."""
    _require_bosonic(w.coords, metric)
    targets = _masks_of_size(metric.dim, w.degree)
    out = _transform(_components_by_mask(w), targets, lambda t, s: _minor(metric.g_inv, t, s))
    return Scaled(_rebuild(w.coords, SuperDensity, out), half_power=1).normalized(metric)


def cg_inverse(metric: Metric, f: SuperDensity | Scaled) -> Scaled:
    """p-density -> p-form: lower indices, divide by sqrt(det g)."""
    half = 0
    if isinstance(f, Scaled):
        half = f.half_power
        f = f.value
    _require_bosonic(f.coords, metric)
    targets = _masks_of_size(metric.dim, f.degree)
    out = _transform(_components_by_mask(f), targets, lambda t, s: _minor(metric.g, t, s))
    return Scaled(_rebuild(f.coords, SuperForm, out), half_power=half - 1).normalized(metric)


def volume_density(metric: Metric) -> Scaled:
    """The scalar density paired with the coordinate volume form; its
    component is sqrt(det g)."""
    coords = metric.coords()
    unit = SuperDensity.from_function(coords, 1)
    return Scaled(unit, half_power=1).normalized(metric)


# -- Hodge star -----------------------------------------------------------


def _star_matrix(metric: Metric, p: int) -> tuple[list[int], list[int], Matrix]:
    """Rational part Q of the star on p-forms: (star w)_K = s * sum_J
    Q[K][J] w_J over ordered masks; s is the sqrt(det g) tag."""
    d = metric.dim
    ins = _masks_of_size(d, p)
    outs = _masks_of_size(d, d - p)
    q = [[CRat(0) for _ in ins] for _ in outs]
    full = (1 << d) - 1
    for r, k_mask in enumerate(outs):
        i_mask = full & ~k_mask
        eps = merge_sign(i_mask, k_mask)
        for c, j_mask in enumerate(ins):
            factor = _minor(metric.g_inv, i_mask, j_mask)
            q[r][c] = factor * eps
    return ins, outs, q


def _entry(matrix: Matrix, rows: list[int], cols: list[int]):
    """Look up a matrix entry by the masks labelling its row and column."""
    row_of = {m: r for r, m in enumerate(rows)}
    col_of = {m: c for c, m in enumerate(cols)}
    return lambda t, s: matrix[row_of[t]][col_of[s]]


def hodge_star(metric: Metric, w: SuperForm) -> Scaled:
    """Star operator pinned by wedge-pairing against the volume element:
    for every p-form v, v wedge star(w) equals their metric scalar
    product times the volume form."""
    _require_bosonic(w.coords, metric)
    ins, outs, q = _star_matrix(metric, w.degree)
    out = _transform(_components_by_mask(w), outs, _entry(q, outs, ins))
    return Scaled(_rebuild(w.coords, SuperForm, out), half_power=1).normalized(metric)


def hodge_star_inverse(metric: Metric, w: SuperForm | Scaled) -> Scaled:
    half = 0
    if isinstance(w, Scaled):
        half = w.half_power
        w = w.value
    _require_bosonic(w.coords, metric)
    d = metric.dim
    p = d - w.degree  # the preimage degree
    ins, outs, q = _star_matrix(metric, p)
    out = _transform(_components_by_mask(w), ins, _entry(exactmat.inverse(q), ins, outs))
    return Scaled(_rebuild(w.coords, SuperForm, out), half_power=half - 1).normalized(metric)


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
    return [
        sum((generator(carrier, c + 1) * entry(i, c) for c in range(n)), GradedPoly.zero(carrier))
        for i in range(n)
    ]


def pullback_form(w: SuperForm, a: Sequence[Sequence]) -> SuperForm:
    """Pull a bosonic form through the substitution x = A xbar: both the
    coordinates in the coefficients and the differentials transform by A."""
    coords = w.coords
    if coords.nu:
        raise MetricError("linear pullback implemented on bosonic patches")
    mat = from_rows(a)
    fc = coords.forms
    x_images = _images(GradedPoly.coordinate, coords.functions, coords.n, lambda i, c: mat[i][c])
    dx_images = _images(GradedPoly.aux_odd, fc, coords.n, lambda i, c: mat[i][c])
    return SuperForm(coords, _substitute(w, fc, x_images, dx_images))


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
    x_images = _images(GradedPoly.coordinate, coords.functions, coords.n, lambda i, c: mat[i][c])
    slot_images = _images(GradedPoly.aux_odd, dc, coords.n, lambda i, c: inv[c][i])
    return SuperDensity(coords, _substitute(f, dc, x_images, slot_images) * d)


def pullback_metric(metric: Metric, a: Sequence[Sequence]) -> Metric:
    mat = from_rows(a)
    at = exactmat.transpose(mat)
    return Metric.from_matrix(
        [[c.re for c in row] for row in exactmat.matmul(at, exactmat.matmul(metric.g, mat))]
    )


def _substitute(poly: GradedPoly, carrier, x_images, aux_images) -> GradedPoly:
    out = GradedPoly.zero(carrier)
    for key, c in poly.terms.items():
        x_exps, _xi, ao, _ae = poly.carrier.unpack(key)
        term = GradedPoly.scalar(carrier, c)
        for idx, e in x_exps:
            term = term * x_images[idx - 1].with_carrier(carrier) ** e
        for a_idx in indices_of(ao):
            term = term * aux_images[a_idx - 1]
        out = out + term
    return out
