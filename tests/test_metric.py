import random
from fractions import Fraction

import pytest

from supercalc import exactmat
from supercalc import randomgen as rg
from supercalc.forms import CoordinateSystem, SuperDensity, SuperForm, pairing
from supercalc.graded_poly import GradedPoly
from supercalc.metric import (
    Metric,
    MetricError,
    _mapped,
    beta_ascending,
    cg_inverse,
    correspondence_cg,
    exact_sqrt,
    hodge_star,
    hodge_star_inverse,
    metric_delta,
    pullback_density,
    pullback_form,
    pullback_metric,
    volume_density,
)
from supercalc.scalars import CRat


def random_metric(rng, d):
    while True:
        g = rg.symmetric_invertible_matrix(rng, d)
        for i in range(d):
            g[i][i] += 4
        try:
            return Metric.from_matrix(g)
        except MetricError:
            continue


def test_mapped_leaves_out_cancelled_targets():
    """A target whose sum cancels gets no component."""
    metric = Metric.identity(2)
    coords = metric.coords()
    x = coords.x(1).with_carrier(coords.forms)
    w = SuperForm(coords, x * coords.dx(1) + x * coords.dx(2))
    cancel = _mapped(metric, w, SuperForm, lambda p: ([1], lambda t, s: 1 if s == 1 else -1), 0)
    assert cancel.half_power == 0 and cancel.value.is_zero()
    kept = _mapped(metric, w, SuperForm, lambda p: ([1, 2], lambda t, s: t), 0)
    assert kept.value == SuperForm(coords, x * coords.dx(1) * 2 + x * coords.dx(2) * 4)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(4)) == CRat(2)
    assert exact_sqrt(Fraction(9, 16)) == CRat(Fraction(3, 4))
    assert exact_sqrt(Fraction(-1)) == CRat(0, 1)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(0)) == CRat(0)


def test_metric_validation():
    with pytest.raises(MetricError):
        Metric.from_matrix([[1, 2], [0, 1]])  # not symmetric
    with pytest.raises(MetricError):
        Metric.from_matrix([[1, 1], [1, 1]])  # degenerate
    m = Metric.minkowski(4)
    for a in (0, 5):
        with pytest.raises(MetricError, match=rf"basis index {a} outside 1\.\.4"):
            m.basis_vector(a)
    assert m.det == -1
    assert m.sqrt_det == CRat(0, 1)


def test_metric_vector_refuses_a_vector_of_the_wrong_length():
    """A short or a long vector is refused with the message `gamma`
    gives, not cut to the dimension."""
    m = Metric.identity(2)
    for v in ([1], [1, 2, 3], []):
        with pytest.raises(MetricError, match=rf"vector of length {len(v)} for a metric of dimension 2"):
            m.vector(v)
    assert m.vector([1, Fraction(1, 2)]) == [CRat(1), CRat(Fraction(1, 2))]


def test_correspondence_identity_metric():
    m = Metric.identity(2)
    c = m.coords()
    vol = SuperForm(c, c.dx(1) * c.dx(2))
    dens = correspondence_cg(m, vol)
    slot12 = GradedPoly.aux_odd(c.densities, 1) * GradedPoly.aux_odd(c.densities, 2)
    assert dens.half_power == 0
    assert dens.value == SuperDensity(c, slot12)


def test_correspondence_diag_4_1():
    # raising two indices with diag(1/4, 1) and weighting by sqrt(4) = 2
    m = Metric.from_matrix([[4, 0], [0, 1]])
    c = m.coords()
    dens = correspondence_cg(m, SuperForm(c, c.dx(1) * c.dx(2)))
    slot12 = GradedPoly.aux_odd(c.densities, 1) * GradedPoly.aux_odd(c.densities, 2)
    assert dens.value == SuperDensity(c, slot12 * CRat(Fraction(1, 2)))


def test_correspondence_round_trip():
    rng = random.Random(31)
    for d in (2, 3):
        c = CoordinateSystem(d, 0)
        for k in range(6):
            m = random_metric(rng, d)
            w = rg.form(rng, c, k % (d + 1))
            assert cg_inverse(m, correspondence_cg(m, w)).plain(m) == w


def test_nonbosonic_rejected():
    m = Metric.identity(2)
    c = CoordinateSystem(2, 1)
    w = SuperForm(c, c.dx(1))
    with pytest.raises(MetricError):
        correspondence_cg(m, w)


def test_star_flat_plane():
    # solved from the defining wedge relation: star(dx1) must satisfy
    # dx1 ^ star(dx1) = volume and dx2 ^ star(dx1) = 0
    m = Metric.identity(2)
    c = m.coords()
    assert hodge_star(m, SuperForm(c, c.dx(1))).plain(m) == SuperForm(c, c.dx(2))
    assert hodge_star(m, SuperForm(c, c.dx(2))).plain(m) == SuperForm(c, -c.dx(1))
    one = SuperForm.from_function(c, 1)
    assert hodge_star(m, one).plain(m) == SuperForm(c, c.dx(1) * c.dx(2))
    back = hodge_star_inverse(m, hodge_star(m, SuperForm(c, c.dx(1))))
    assert back.plain(m) == SuperForm(c, c.dx(1))


def test_delta_zero_form():
    m = Metric.identity(2)
    w = SuperForm.from_function(m.coords(), 3)
    assert metric_delta(m, w).is_zero()


def test_delta_routes_agree():
    rng = random.Random(32)
    for d in (2, 3):
        c = CoordinateSystem(d, 0)
        for k in range(8):
            m = random_metric(rng, d)
            for p in range(d + 1):
                w = rg.form(rng, c, p)
                assert metric_delta(m, w, "correspondence") == metric_delta(m, w, "star")


def test_delta_delta_and_beta_beta_vanish():
    rng = random.Random(33)
    for d in (2, 3):
        c = CoordinateSystem(d, 0)
        for k in range(6):
            m = random_metric(rng, d)
            for p in range(1, d + 1):
                w = rg.form(rng, c, p)
                dw = metric_delta(m, w)
                if dw.degree:
                    assert metric_delta(m, dw).is_zero()
            for p in range(0, d):
                dens = correspondence_cg(m, rg.form(rng, c, p))
                assert beta_ascending(m, beta_ascending(m, dens)).value.is_zero()


def test_volume_density_component():
    rng = random.Random(34)
    m = random_metric(rng, 3)
    vol = volume_density(m)
    squared = vol.component_squared(m)
    assert squared == SuperDensity.from_function(m.coords(), 1).scale(CRat(m.det))
    # perfect-square determinant folds to a plain rational component
    m4 = Metric.from_matrix([[4, 0], [0, 1]])
    v4 = volume_density(m4)
    assert v4.half_power == 0
    assert v4.value == SuperDensity.from_function(m4.coords(), 1).scale(2)


def test_unresolved_root_raises_on_plain():
    m = Metric.from_matrix([[2, 0], [0, 1]])  # det 2, irrational root
    scaled = volume_density(m)
    assert scaled.half_power == 1
    with pytest.raises(MetricError):
        scaled.plain(m)


def test_pullback_transformations():
    rng = random.Random(35)
    d = 2
    c = CoordinateSystem(d, 0)
    a = [[1, 2], [0, 1]]
    amat = exactmat.from_rows(a)
    det_a = exactmat.det(amat)
    for k in range(6):
        w = rg.form(rng, c, k % (d + 1))
        dens = rg.density(rng, c, k % (d + 1))
        lhs = pairing(pullback_density(dens, a), pullback_form(w, a))
        # transport the scalar pairing: substitute x = A xbar, weight det A
        raw = pairing(dens, w)
        fc = c.functions
        images = [
            sum(
                (GradedPoly.coordinate(fc, j + 1) * amat[i][j] for j in range(d)),
                GradedPoly.zero(fc),
            )
            for i in range(d)
        ]
        moved = GradedPoly.zero(fc)
        for (x_exps, xi, ao, ae), cc in ((raw.carrier.unpack(k), c) for k, c in raw.terms.items()):
            term = GradedPoly.scalar(fc, cc)
            for idx, e in x_exps:
                term = term * images[idx - 1] ** e
            moved = moved + term
        assert lhs == moved * det_a
    g = random_metric(rng, d)
    gbar = pullback_metric(g, a)
    lhs_sq = volume_density(gbar).component_squared(gbar)
    rhs_sq = SuperDensity.from_function(c, 1).scale(det_a * det_a * CRat(g.det))
    assert lhs_sq == rhs_sq
