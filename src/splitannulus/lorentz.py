"""Lorentz metrics on the split annulus in isothermal coordinates.

A compatible metric is stored as a conformal factor against a named
reference: the flat metric (coordinate density 1) or the de Sitter
metric (density 2/(x - y)^2 in an affine chart, 2/sin^2(x - y) in angle
coordinates).  The *density* of a metric is the coefficient of the
metric against the symmetric product of dx and dy; it is also the
coefficient of the volume form against dx ^ dy.  With v the log-density
over 2 (the total isothermal factor):

    box_g f = 2 e^{-2v} d2f/dxdy,      K(g) = -box_g v,
    F_g     = K(g) * omega_g  with density  -2 v_xy.

The split involution is fixed by I(dx) = -dx, I(dy) = +dy, which makes
the density of d(du o I) equal to +2 u_xy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagonalPoint, IncompatibleMetrics
from .fields import (
    AnnulusPoint,
    ConstantField,
    DeSitterAngleLogFactor,
    DeSitterLogFactor,
    DIAG_TOL,
    Jet2,
    PullbackField,
    ScalarField,
    UniformizingFactor,
    as_field,
)

FLAT = "flat"
DESITTER = "desitter"


class SplitMetric:
    """A conformal factor e^{2u} against a named reference metric."""

    def __init__(self, reference, u=None, chart_id="affine", coords="affine"):
        if reference not in (FLAT, DESITTER):
            raise ValueError(f"unknown reference {reference!r}")
        self.reference = reference
        self.u = as_field(u if u is not None else 0.0)
        self.chart_id = chart_id
        self.coords = coords
        if reference == DESITTER:
            self._ref_factor = (
                DeSitterAngleLogFactor() if coords == "angle" else DeSitterLogFactor()
            )
        else:
            self._ref_factor = ConstantField(0.0)

    # -- jets ---------------------------------------------------------------
    def reference_factor(self) -> ScalarField:
        return self._ref_factor

    def total_factor_jet(self, x, y) -> Jet2:
        # the sum folds a zero u (or a flat reference) away
        return (self.u + self._ref_factor).jet(x, y)

    def density(self, x, y):
        return np.exp(2.0 * self.total_factor_jet(x, y).v)

    def bilinear_xy(self, x, y):
        """Value of the metric tensor on (d/dx, d/dy): half the density."""
        return 0.5 * self.density(x, y)

    # -- algebra --------------------------------------------------------------
    def scaled_by(self, w) -> "SplitMetric":
        """The metric e^{2w} g (composition law on conformal factors)."""
        return SplitMetric(self.reference, self.u + as_field(w),
                           chart_id=self.chart_id, coords=self.coords)

    def compatible(self, other) -> bool:
        return (
            self.reference == other.reference
            and self.chart_id == other.chart_id
            and self.coords == other.coords
        )

    def factor_relative_to(self, base: "SplitMetric") -> ScalarField:
        """The field u with self = e^{2u} base."""
        if not self.compatible(base):
            raise IncompatibleMetrics("metrics do not share reference/chart")
        return self.u - base.u


def desitter(coords="affine") -> SplitMetric:
    return SplitMetric(DESITTER, coords=coords)


def flat(coords="affine") -> SplitMetric:
    return SplitMetric(FLAT, coords=coords)


def pullback_metric(g: SplitMetric, phi) -> SplitMetric:
    """Pull back a metric by the diagonal split map of a circle map.

    For the de Sitter reference the pullback of the reference itself is
    e^{2 u_phi} g0 with the uniformizing factor u_phi (identically zero
    exactly when phi is projective); the conformal factor composes.
    """
    if (phi.coords == "angle") != (g.coords == "angle"):
        raise IncompatibleMetrics("map and metric use different coordinates")
    u_new = PullbackField(g.u, phi)
    if g.reference == DESITTER:
        u_new = u_new + UniformizingFactor(phi)
    else:
        raise IncompatibleMetrics("pullback implemented over the de Sitter reference")
    return SplitMetric(g.reference, u_new, chart_id=g.chart_id, coords=g.coords)


@dataclass
class CurvatureReport:
    """Sectional curvature K and curvature 2-form density F = K * density."""

    metric: SplitMetric

    def K(self, x, y):
        j = self.metric.total_factor_jet(x, y)
        return -2.0 * np.exp(-2.0 * j.v) * j.vxy

    def F_density(self, x, y):
        # K * e^{2v} = -2 v_xy exactly; no exponentials needed
        return -2.0 * self.metric.total_factor_jet(x, y).vxy

    def consistency_residual(self, x, y):
        return np.max(np.abs(
            self.F_density(x, y) - self.K(x, y) * self.metric.density(x, y)
        ))


def curvature(g: SplitMetric) -> CurvatureReport:
    return CurvatureReport(g)


def _check_off_diagonal(p: AnnulusPoint):
    if abs(p.x - p.y) <= DIAG_TOL:
        raise DiagonalPoint("evaluation on the diagonal")


def dalembertian(g: SplitMetric, f: ScalarField, p: AnnulusPoint) -> float:
    """box_g f = 2 * density^{-1} * d2f/dxdy at a point."""
    _check_off_diagonal(p)
    return float(dalembertian_values(g, f, p.x, p.y))


def dalembertian_values(g: SplitMetric, f: ScalarField, x, y):
    rho = g.density(x, y)
    return 2.0 * f.jet(x, y).vxy / rho


def conformal_change_residual(g: SplitMetric, u: ScalarField, points) -> float:
    """max |box_g u - K(g) + e^{2u} K(e^{2u} g)| over the sample."""
    h = g.scaled_by(u)
    kg = curvature(g)
    kh = curvature(h)
    worst = 0.0
    for p in points:
        _check_off_diagonal(p)
        x, y = p.x, p.y
        lhs = dalembertian_values(g, u, x, y)
        rhs = kg.K(x, y) - np.exp(2.0 * u.value(x, y)) * kh.K(x, y)
        worst = max(worst, float(abs(lhs - rhs)))
    return worst


def curvature_form_difference(g: SplitMetric, u: ScalarField, p: AnnulusPoint):
    """Density of d(du o I) against the curvature-form difference.

    Returns (density, residual): density = 2 u_xy and residual of the
    identity d(du o I) = F_g - F_h for h = e^{2u} g, all as densities
    against dx ^ dy.
    """
    _check_off_diagonal(p)
    x, y = p.x, p.y
    dens = 2.0 * u.jet(x, y).vxy
    h = g.scaled_by(u)
    diff = curvature(g).F_density(x, y) - curvature(h).F_density(x, y)
    return float(dens), float(abs(dens - diff))


def trace_split(g: SplitMetric, q_matrix, p: AnnulusPoint) -> float:
    """Trace of a symmetric bilinear form against g in the split basis.

    With a split basis (v1, v2) normalized by g(v1, v2) = 1 the trace is
    2 Q(v1, v2); in the coordinate frame that is 2 Q_xy / g_xy.  In
    particular the trace of the metric itself is 2.
    """
    _check_off_diagonal(p)
    q = np.asarray(q_matrix, dtype=float)
    return float(2.0 * q[0, 1] / g.bilinear_xy(p.x, p.y))
