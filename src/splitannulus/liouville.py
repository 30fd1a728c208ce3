"""The Liouville action between conformal metrics on the annulus.

For h = e^{2u} g the action is

    S(g, h) = -(1/2) int u F_g + (1/4) int u d(du o I)

with the equivalent single-formula densities (against dx ^ dy)

    definition:  u * (v_g)_xy + (1/2) u u_xy        (F density = -2 v_xy)
    monotone:   (1/2) u * ((v_g)_xy + (v_h)_xy)     (no d(du o I) term)

where v_g, v_h are the total isothermal factors.  Both are exactly
quadratic in u; the variational formula d/dt S(g, e^{2tu}g) =
-(1/2) int u F_g therefore holds to quadrature accuracy at any step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import IncompatibleMetrics, NotC3
from .fields import (
    PolygonalCurve,
    QuadratureGrid,
    ScalarField,
    UniformizingFactor,
    diamond_curve,
    torus_grid,
)
from .lorentz import SplitMetric, curvature, desitter, pullback_metric


@dataclass
class ActionValue:
    value: float
    error_estimate: float
    grid: dict
    formula: str = "definition"
    trail: list = dc_field(default_factory=list)
    sclass: SClassReport = None  # the S-class check made on the way, if any

    def __float__(self):
        return self.value


# The densities keep only the vxy component of each total-factor jet, so
# the other five components are freed before the next jet is built.

def _definition_density(g, u):
    def density(x, y):
        gxy = g.total_factor_jet(x, y).vxy
        ju = u.jet(x, y)
        return ju.v * (gxy + 0.5 * ju.vxy)

    return density


def _monotone_density(g, h, u):
    def density(x, y):
        gxy = g.total_factor_jet(x, y).vxy
        hxy = h.total_factor_jet(x, y).vxy
        return 0.5 * u.jet(x, y).v * (gxy + hxy)

    return density


def _integrate_with_refinement(grid, density, closure=None, band_factor=1.0):
    coarse = grid.integrate(density, closure)
    fine = grid.refine(band_factor).integrate(density, closure)
    return fine, abs(fine - coarse)


def action(g: SplitMetric, h: SplitMetric, grid: QuadratureGrid,
           refine: bool = True) -> ActionValue:
    """S(g, h) by the defining formula.

    With ``refine`` the value is taken on a once-refined grid and the
    difference to the coarse value is the reported error estimate.
    """
    u = h.factor_relative_to(g)
    density = _definition_density(g, u)
    if refine:
        value, err = _integrate_with_refinement(grid, density)
    else:
        value, err = grid.integrate(density), float("nan")
    return ActionValue(value, err, grid.describe(), "definition")


def action_monotone(g: SplitMetric, h: SplitMetric, grid: QuadratureGrid,
                    refine: bool = True) -> ActionValue:
    """S(g, h) by the monotonicity formula (both curvature forms)."""
    u = h.factor_relative_to(g)
    density = _monotone_density(g, h, u)
    if refine:
        value, err = _integrate_with_refinement(grid, density)
    else:
        value, err = grid.integrate(density), float("nan")
    return ActionValue(value, err, grid.describe(), "monotone")


def chasles_residual(g, h, k, grid, refine=True) -> float:
    """|S(g,h) + S(h,k) - S(g,k)|."""
    return abs(
        action(g, h, grid, refine).value
        + action(h, k, grid, refine).value
        - action(g, k, grid, refine).value
    )


def split_invariance_residual(g, h, phi, grid, pulled_grid) -> float:
    """|S(phi* g, phi* h) - S(g, h)| for a diagonal split map."""
    gp = pullback_metric(g, phi)
    hp = pullback_metric(h, phi)
    return abs(action(gp, hp, pulled_grid).value - action(g, h, grid).value)


# ---------------------------------------------------------------------------
# Variation and criticality
# ---------------------------------------------------------------------------

def variational_residual(g: SplitMetric, u: ScalarField, dt: float,
                         grid: QuadratureGrid) -> float:
    """|central difference of S(g, e^{2 t u} g) at 0 + (1/2) int u F_g|.

    The action is exactly quadratic in t, so the central difference
    reproduces the derivative to quadrature/roundoff accuracy for every
    dt; the residual carries no O(dt^2) term to observe.
    """
    s_plus = action(g, g.scaled_by(dt * u), grid).value
    s_minus = action(g, g.scaled_by(-dt * u), grid).value
    cd = (s_plus - s_minus) / (2.0 * dt)
    kg = curvature(g)
    target = grid.integrate(lambda x, y: u.value(x, y) * kg.F_density(x, y))
    return abs(cd + 0.5 * target)


def criticality_test(g: SplitMetric, u: ScalarField, grid: QuadratureGrid):
    """(first variation of area, first variation of the action).

    area_deriv = int u da_g and action_deriv = -(1/2) int u F_g; for a
    constant curvature metric the two are proportional, so area-neutral
    scalings are action-critical.
    """
    area_deriv = grid.integrate(lambda x, y: u.value(x, y) * g.density(x, y))
    kg = curvature(g)
    action_deriv = -0.5 * grid.integrate(
        lambda x, y: u.value(x, y) * kg.F_density(x, y)
    )
    return float(area_deriv), float(action_deriv)


def area_neutral_combination(g, u1, u2, grid):
    """u1 - c u2 with c chosen so the g-area derivative vanishes on grid."""
    a1 = grid.integrate(lambda x, y: u1.value(x, y) * g.density(x, y))
    a2 = grid.integrate(lambda x, y: u2.value(x, y) * g.density(x, y))
    return u1 - (a1 / a2) * u2


# ---------------------------------------------------------------------------
# VB and the S-class
# ---------------------------------------------------------------------------

def vb(f, curve: PolygonalCurve, refinement: int = 6) -> float:
    """Vertical-oscillation variation of f along a polygonal curve.

    Dyadic subdivision of each vertical segment gives a nondecreasing
    lower bound of the supremum over representing tuples; for piecewise
    C^1 restrictions it converges to the total variation along the
    vertical edges.
    """
    ev = (lambda x, y: float(f.value(x, y))) if isinstance(f, ScalarField) else f
    total = 0.0
    n = 2 ** int(refinement)
    for a, b in curve.vertical_segments():
        ys = np.linspace(a.y, b.y, n + 1)
        vals = np.array([ev(a.x, yy) for yy in ys])
        total += float(np.sum(np.abs(np.diff(vals))))
    return total


def vb_converged(f, curve, tol=1e-8, max_refinement=14):
    """VB by dyadic refinement with early stop when two levels agree."""
    prev = vb(f, curve, 0)
    for r in range(1, max_refinement + 1):
        cur = vb(f, curve, r)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur, True
        prev = cur
    return prev, False


def dal_variation_bound(f, grid) -> float:
    """(1/2) int |box_g f| da_g, which is int |f_xy| dx dy, metric free."""
    return grid.integrate(lambda x, y: np.abs(f.jet(x, y).vxy))


@dataclass
class SClassReport:
    sup_u: float
    boundary_decay: list
    Linf_dal: float
    L1_dal: float
    vb: float
    clauses: dict
    verdict: bool


def sclass_report(g: SplitMetric, h: SplitMetric, curve=None,
                  band_width=0.4, n_bands=5, samples=600,
                  sup_max=50.0, decay_min=1.8, linf_max=1e4, l1_max=1e4,
                  vb_max=1e3) -> SClassReport:
    """Numerical S-class diagnostics for the factor u with h = e^{2u} g.

    Clause (1): u essentially bounded; (2): u decays uniformly at the
    boundary, measured as max |u| over nested diagonal bands shrinking
    dyadically; (3): box_g u bounded and integrable; (4): finite VB on a
    polygonal curve.  The decay threshold accepts factor >= decay_min
    per halving: smooth factors decay quadratically (factor 4) while a
    C^1 turning point forces an exactly linear rate (factor 2), so the
    default sits below 2 with margin for sampling noise.
    """
    u = h.factor_relative_to(g)
    if g.coords != "angle":
        raise IncompatibleMetrics("S-class diagnostics run on torus metrics")
    rng = np.random.default_rng(20240901)
    th = rng.uniform(0.0, math.pi, samples)

    maxima = []
    for j in range(n_bands):
        w_hi = band_width / 2 ** j
        w_lo = w_hi / 2.0
        offs = rng.uniform(w_lo, w_hi, samples) * rng.choice([-1, 1], samples)
        vals = np.abs(u.value(th, th + offs))
        maxima.append(float(np.max(vals)))
    noise_floor = 1e-12
    ratios = [
        maxima[j] / maxima[j + 1] if maxima[j + 1] > noise_floor else np.inf
        for j in range(n_bands - 1)
    ]
    sup_u = float(np.max(np.abs(u.value(th, th + rng.uniform(band_width,
                                                             math.pi - band_width,
                                                             samples)))))
    sup_u = max(sup_u, max(maxima))

    bulk_grid = torus_grid(level=1, band=band_width / 2 ** n_bands)
    dal = lambda x, y: 2.0 * u.jet(x, y).vxy / g.density(x, y)
    xs, ys = bulk_grid.X[~bulk_grid.band_mask], bulk_grid.Y[~bulk_grid.band_mask]
    linf = float(np.max(np.abs(dal(xs, ys))))
    l1 = bulk_grid.integrate(lambda x, y: np.abs(2.0 * u.jet(x, y).vxy))

    if curve is None:
        curve = _default_torus_curve(g)
    vb_val, vb_ok = vb_converged(u, curve)

    unbounded = maxima[-1] > max(maxima[0] * 1.2, noise_floor)
    clauses = {
        "1_bounded": bool(np.isfinite(sup_u) and sup_u <= sup_max and not unbounded),
        "2_boundary_decay": bool(
            not unbounded and all(r >= decay_min for r in ratios)
        ),
        "3_dalembertian": bool(
            np.isfinite(linf) and linf <= linf_max and np.isfinite(l1)
            and l1 <= l1_max
        ),
        "4_vb_finite": bool(np.isfinite(vb_val) and vb_val <= vb_max),
    }
    return SClassReport(
        sup_u=sup_u,
        boundary_decay=maxima,
        Linf_dal=linf,
        L1_dal=l1,
        vb=float(vb_val),
        clauses=clauses,
        verdict=all(clauses.values()),
    )


def _default_torus_curve(g):
    # a diamond in angle coordinates away from the breakpoint lines
    return diamond_curve(0.11, 0.93, 1.57, 2.41)


# ---------------------------------------------------------------------------
# Uniformizing metrics
# ---------------------------------------------------------------------------

def uniformizing_action(phi, levels=3, base_cells=48, band=0.08,
                        formula="monotone") -> ActionValue:
    """S(Phi* g0, g0) over the full torus for a C^3 circle map.

    The raw integrand is 0/0 on the diagonal; inside a band of shrinking
    half-width the integrand density is replaced by its diagonal limit,
    a twelfth of the projective Schwarzian (symmetrized in the two
    arguments).  The value converges to zero for any uniformizing
    metric; the refinement trail is reported.
    """
    if phi.coords != "angle":
        raise NotC3("uniformizing action runs on angle-coordinate maps")
    try:
        phi.jets(np.asarray([0.1]))
    except NotImplementedError as exc:  # pragma: no cover
        raise NotC3(str(exc))
    g0 = desitter(coords="angle")
    g = pullback_metric(g0, phi)
    u = UniformizingFactor(phi)

    if formula == "monotone":
        density = _monotone_density(g, g0, g0.factor_relative_to(g))
    else:
        density = _definition_density(g, g0.factor_relative_to(g))

    def closure(x, y):
        return 0.5 * (u.diagonal_limit_density(x) + u.diagonal_limit_density(y))

    breaks = getattr(phi, "breakpoints", ())
    trail = []
    for lv in range(levels + 1):
        grid = torus_grid(level=lv, base_cells=base_cells,
                          band=band / 2 ** lv, breakpoints=breaks)
        trail.append(grid.integrate(density, closure))
    err = abs(trail[-1] - trail[-2]) if len(trail) > 1 else abs(trail[-1])
    return ActionValue(trail[-1], err, grid.describe(), formula, trail)
