"""Curvature, d'Alembertian and conformal change."""

import math

import numpy as np
import pytest

from splitannulus import fields as F, lorentz as L
from splitannulus.errors import DiagonalPoint, IncompatibleMetrics

RNG = np.random.default_rng(2024)
XS = RNG.uniform(0.05, 0.95, 1000)
YS = RNG.uniform(2.05, 2.95, 1000)


def test_dalembertian_flat_product():
    assert L.dalembertian(L.flat(), F.product_xy(),
                          F.AnnulusPoint(0.37, 4.1)) == pytest.approx(2.0)


def test_dalembertian_conformal_covariance():
    # box_{e^{2w} g} f = e^{-2w} box_g f
    g0 = L.desitter()
    w = F.bump_field((0.5, 2.5), (0.45, 0.45), 0.7)
    gw = g0.scaled_by(w)
    f = F.product_xy()
    for x, y in zip(XS[:100], YS[:100]):
        p = F.AnnulusPoint(x, y)
        lhs = L.dalembertian(gw, f, p)
        rhs = math.exp(-2 * w.value(x, y)) * L.dalembertian(g0, f, p)
        assert abs(lhs - rhs) <= 1e-10


def test_dalembertian_desitter_factor():
    # box_{g0} of the de Sitter log factor is -1 (the K(g0) = 1 computation)
    g0 = L.desitter()
    v0 = F.DeSitterLogFactor()
    for x, y in [(0.0, 1.0), (0.3, 2.7), (-1.2, 0.4)]:
        assert L.dalembertian(g0, v0, F.AnnulusPoint(x, y)) == pytest.approx(
            -1.0, abs=1e-12
        )


def test_dalembertian_diagonal_rejected():
    with pytest.raises(DiagonalPoint):
        F.AnnulusPoint(1.0, 1.0 + 1e-16)


def test_curvature_desitter_is_one():
    rep = L.curvature(L.desitter())
    assert np.max(np.abs(rep.K(XS, YS) - 1.0)) <= 1e-10


def test_curvature_flat_is_zero():
    rep = L.curvature(L.flat())
    assert np.max(np.abs(rep.K(XS, YS))) == 0.0


def test_curvature_exponential_product_factor():
    # K(e^{2xy} flat) = -2 e^{-2xy}
    h = L.flat().scaled_by(F.product_xy())
    rep = L.curvature(h)
    assert np.max(np.abs(rep.K(XS, YS) + 2 * np.exp(-2 * XS * YS))) <= 1e-10


def test_curvature_report_consistency():
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.4, 0.4), 0.6))
    assert L.curvature(g).consistency_residual(XS, YS) <= 1e-10


def test_metric_composition_law():
    u1 = F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5)
    u2 = F.bump_field((0.45, 2.55), (0.3, 0.3), -0.3)
    g = L.desitter().scaled_by(u1).scaled_by(u2)
    h = L.desitter().scaled_by(u1 + u2)
    assert np.max(np.abs(g.density(XS, YS) - h.density(XS, YS))) <= 1e-12


def test_density_positivity():
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.4, 0.4), -2.0))
    assert np.all(g.density(XS, YS) > 0)


def test_conformal_change_examples():
    g0 = L.desitter()
    x, y = XS[:200], YS[:200]
    assert L.conformal_change_residual(g0, F.ConstantField(0.0), x, y) == 0.0
    assert L.conformal_change_residual(g0, F.ConstantField(0.7), x, y) <= 1e-12
    bump = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.6)
    assert L.conformal_change_residual(g0, bump, x, y) <= 1e-8


def test_conformal_change_takes_coordinate_arrays():
    # one evaluation on a 2D block of points is the worst of its pointwise
    # residuals
    g0 = L.desitter()
    bump = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.6)
    x, y = XS[:120].reshape(10, 12), YS[:120].reshape(10, 12)
    worst = L.conformal_change_residual(g0, bump, x, y)
    assert 0.0 < worst <= 1e-8
    assert worst == pytest.approx(max(
        L.conformal_change_residual(g0, bump, a, b)
        for a, b in zip(x.ravel(), y.ravel())), rel=1e-12)


def curvature_form_difference(g, u, p):
    """Density of d(du o I) against the curvature-form difference.

    Returns (density, residual): density = 2 u_xy and residual of the
    identity d(du o I) = F_g - F_h for h = e^{2u} g, all as densities
    against dx ^ dy.
    """
    x, y = p.x, p.y
    dens = 2.0 * u.jet(x, y).vxy
    h = g.scaled_by(u)
    diff = L.curvature(g).F_density(x, y) - L.curvature(h).F_density(x, y)
    return float(dens), float(abs(dens - diff))


def test_curvature_form_difference_examples():
    gf = L.flat()
    dens, res = curvature_form_difference(gf, F.ConstantField(0.0),
                                          F.AnnulusPoint(0.3, 2.6))
    assert dens == 0.0 and res == 0.0
    dens, res = curvature_form_difference(gf, F.product_xy(),
                                          F.AnnulusPoint(0.3, 0.9))
    assert dens == pytest.approx(2.0)
    assert res <= 1e-12
    g0 = L.desitter()
    bump = F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5)
    _, res = curvature_form_difference(g0, bump, F.AnnulusPoint(0.52, 2.48))
    assert res <= 1e-8


def test_constant_scaling_curvature_law():
    # K(e^{2c} g) = e^{-2c} K(g)
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.4, 0.4), 0.4))
    c = 0.37
    k1 = L.curvature(g.scaled_by(c)).K(XS, YS)
    k0 = L.curvature(g).K(XS, YS)
    assert np.max(np.abs(k1 - math.exp(-2 * c) * k0)) <= 1e-10


def test_curvature_form_additivity_over_regions():
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5))
    rep = L.curvature(g)
    # quadrant decomposition with matched cells: the whole grid's node
    # set is the union of the quadrants', so additivity is exact up to
    # summation order
    whole = F.QuadratureGrid([(0, 0.5), (0.5, 1)], [(2, 2.5), (2.5, 3)],
                             cells=64)
    parts = 0.0
    for xs in ((0, 0.5), (0.5, 1)):
        for ys in ((2, 2.5), (2.5, 3)):
            quad = F.QuadratureGrid([xs], [ys], cells=32)
            parts += quad.integrate(rep.F_density)
    total = whole.integrate(rep.F_density)
    assert abs(total - parts) <= 1e-12 * max(1.0, abs(total)) * 10


def trace_split(g, q_matrix, p):
    """Trace of a symmetric bilinear form against g in the split basis.

    With a split basis (v1, v2) normalized by g(v1, v2) = 1 the trace is
    2 Q(v1, v2); in the coordinate frame that is 2 Q_xy / g_xy.  In
    particular the trace of the metric itself is 2.
    """
    q = np.asarray(q_matrix, dtype=float)
    return float(2.0 * q[0, 1] / g.bilinear_xy(p.x, p.y))


def test_trace_normalization():
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.4, 0.4), 0.3))
    p = F.AnnulusPoint(0.4, 2.6)
    gxy = g.bilinear_xy(p.x, p.y)
    q = np.array([[0.0, gxy], [gxy, 0.0]])
    assert trace_split(g, q, p) == pytest.approx(2.0, abs=1e-12)


def test_incompatible_metrics():
    with pytest.raises(IncompatibleMetrics):
        L.desitter().factor_relative_to(L.flat())


def test_levi_civita_christoffel_relation():
    # Gamma^x_xx = 2 d_x v for g = e^{2v} dx dy, computed here from the
    # standard Christoffel formula with finite differences of the metric
    # tensor (the connection is not part of the library surface)
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5))
    h = 1e-6
    for x, y in [(0.45, 2.55), (0.6, 2.4), (0.52, 2.61)]:
        m = lambda a, b: g.bilinear_xy(a, b)  # g_xy entry; g_xx = g_yy = 0
        dm_dx = (m(x + h, y) - m(x - h, y)) / (2 * h)
        dm_dy = (m(x, y + h) - m(x, y - h)) / (2 * h)
        # Gamma^x_xx = g^{xy}(2 d_x g_{xy} - d_y g_{xx})/2 = d_x g_xy / g_xy
        gamma_xxx = dm_dx / m(x, y)
        gamma_yyy = dm_dy / m(x, y)
        j = g.total_factor_jet(x, y)
        assert gamma_xxx == pytest.approx(2.0 * float(j.vx), abs=1e-6)
        assert gamma_yyy == pytest.approx(2.0 * float(j.vy), abs=1e-6)
        # mixed symbols vanish: d_y g_{yy} type terms are identically zero
        # in isothermal coordinates (g_xx = g_yy = 0)


def test_pullback_by_mobius_is_isometry():
    g0a = L.desitter(coords="angle")
    phi = F.AngleMobiusMap(np.array([[1.3, 0.2], [0.4, 1.1]]))
    gp = L.pullback_metric(g0a, phi)
    th = RNG.uniform(0, math.pi, 200)
    ps = th + RNG.uniform(0.3, 1.5, 200)
    assert np.max(np.abs(gp.density(th, ps) - g0a.density(th, ps))) <= 1e-10


def test_pullback_preserves_constant_curvature():
    g0a = L.desitter(coords="angle")
    gp = L.pullback_metric(g0a, F.SineFlowMap(0.3, 2))
    th = RNG.uniform(0, math.pi, 200)
    ps = th + RNG.uniform(0.3, 1.5, 200)
    assert np.max(np.abs(L.curvature(gp).K(th, ps) - 1.0)) <= 1e-9
