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

from .errors import IncompatibleMetrics
from .fields import (
    AnnulusPoint,
    ConstantField,
    DeSitterLogFactor,
    Jet2,
    PullbackField,
    ScalarField,
    UniformizingFactor,
    _is_zero_field,
    as_field,
)

FLAT = "flat"
DESITTER = "desitter"


class SplitMetric:
    """A conformal factor e^{2u} against a named reference metric."""

    def __init__(self, reference, u=None, coords="affine"):
        if reference not in (FLAT, DESITTER):
            raise ValueError(f"unknown reference {reference!r}")
        self.reference = reference
        self.u = as_field(u if u is not None else 0.0)
        self.coords = coords
        self.ref_factor = (DeSitterLogFactor(coords) if reference == DESITTER
                           else ConstantField(0.0))

    # -- jets ---------------------------------------------------------------
    def total_factor_jet(self, x, y) -> Jet2:
        # the sum folds a zero u (or a flat reference) away
        return (self.u + self.ref_factor).jet(x, y)

    def density(self, x, y):
        return np.exp(2.0 * self.total_factor_jet(x, y).v)

    def bilinear_xy(self, x, y):
        """Value of the metric tensor on (d/dx, d/dy): half the density."""
        return 0.5 * self.density(x, y)

    # -- algebra --------------------------------------------------------------
    def scaled_by(self, w) -> "SplitMetric":
        """The metric e^{2w} g (composition law on conformal factors)."""
        return SplitMetric(self.reference, self.u + as_field(w), coords=self.coords)

    def compatible(self, other) -> bool:
        return self.reference == other.reference and self.coords == other.coords

    def factor_relative_to(self, base: "SplitMetric") -> ScalarField:
        """The field u with self = e^{2u} base."""
        if not self.compatible(base):
            raise IncompatibleMetrics("metrics do not share reference/coords")
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
    if phi.coords != g.coords:
        raise IncompatibleMetrics("map and metric use different coordinates")
    if g.reference != DESITTER:
        raise IncompatibleMetrics("pullback implemented over the de Sitter reference")
    # the zero constant pulls back to itself, which the sum folds away
    u = g.u if _is_zero_field(g.u) else PullbackField(g.u, phi)
    return SplitMetric(g.reference, u + UniformizingFactor(phi), coords=g.coords)


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

    # perfbench/spans.py wraps this method by name
    def consistency_residual(self, x, y):
        return np.max(np.abs(
            self.F_density(x, y) - self.K(x, y) * self.metric.density(x, y)
        ))


def curvature(g: SplitMetric) -> CurvatureReport:
    return CurvatureReport(g)


# perfbench/spans.py wraps this function by name
def dalembertian(g: SplitMetric, f: ScalarField, p: AnnulusPoint) -> float:
    """box_g f = 2 * density^{-1} * d2f/dxdy at a point."""
    return float(dalembertian_values(g, f, p.x, p.y))


def dalembertian_values(g: SplitMetric, f: ScalarField, x, y):
    rho = g.density(x, y)
    return 2.0 * f.jet(x, y).vxy / rho


def conformal_change_residual(g: SplitMetric, u: ScalarField, x, y) -> float:
    """max |box_g u - K(g) + e^{2u} K(e^{2u} g)| over the points (x, y)."""
    lhs = dalembertian_values(g, u, x, y)
    rhs = (curvature(g).K(x, y)
           - np.exp(2.0 * u.value(x, y)) * curvature(g.scaled_by(u)).K(x, y))
    return float(np.max(np.abs(lhs - rhs)))

