"""The Liouville action between conformal metrics on the annulus.

For h = e^{2u} g the action is

    S(g, h) = -(1/2) int u F_g + (1/4) int u d(du o I)

with the equivalent single-formula densities (against dx ^ dy)

    definition:  u * (v_g)_xy + (1/2) u u_xy        (F density = -2 v_xy)
    monotone:   (1/2) u * ((v_g)_xy + (v_h)_xy)     (no d(du o I) term)

where v_g, v_h are the total isothermal factors.  Both are exactly
quadratic in u; the variational formula d/dt S(g, e^{2tu}g) =
-(1/2) int u F_g therefore holds to quadrature accuracy at any step.

Both densities carry u as a factor, so they vanish wherever u does: the
action integrals evaluate them only inside ``u.support_box`` (the union
box of a sum of bumps), and on every node for a u with no box.

The torus actions (curves, uniformizing metrics) pair g = e^{2f} g_ref
with the bare reference h = g_ref, so u = -f and ``torus_density`` takes
the monotone density from one jet of f and one of the reference factor
per node.  The grid ``action_monotone``, which verify compares with the
definition, keeps ``_monotone_density`` and its separate jets of v_g,
v_h and u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import IncompatibleMetrics, NotC3
from .fields import (
    ArcPairRule,
    PolygonalCurve,
    QuadratureGrid,
    ScalarField,
    UniformizingFactor,
    _is_zero_field,
    box_grid,
    diamond_curve,
)
from .lorentz import SplitMetric, curvature, desitter, pullback_metric


@dataclass
class ActionValue:
    value: float
    error_estimate: float
    grid: dict
    trail: list = dc_field(default_factory=list)
    sclass: SClassReport = None  # the S-class check made on the way, if any


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


def refinement_trail(integral, grids) -> ActionValue:
    """``integral`` on ``grids`` from coarse to fine, each grid taken from
    the iterable after the integral on the previous one: the value is the
    finest integral, the error estimate the last step (|I_0| for a single
    level), the trail every integral and ``grid`` the finest description.
    """
    trail = []
    for grid in grids:
        trail.append(integral(grid))
    err = abs(trail[-1] - trail[-2]) if len(trail) > 1 else abs(trail[-1])
    return ActionValue(trail[-1], err, grid.describe(), trail)


def _action(grid, refine, u, density):
    def integral(gr):
        return gr.integrate(density, support=u.support_box)

    if not refine:
        return ActionValue(integral(grid), float("nan"), grid.describe())
    return refinement_trail(integral, (grid, grid.refine()))


def action(g: SplitMetric, h: SplitMetric, grid: QuadratureGrid,
           refine: bool = True) -> ActionValue:
    """S(g, h) by the defining formula.

    With ``refine`` the value is taken on a once-refined grid and the
    difference to the coarse value is the reported error estimate.
    """
    u = h.factor_relative_to(g)
    return _action(grid, refine, u, _definition_density(g, u))


def action_monotone(g: SplitMetric, h: SplitMetric, grid: QuadratureGrid,
                    refine: bool = True) -> ActionValue:
    """S(g, h) by the monotonicity formula (both curvature forms)."""
    u = h.factor_relative_to(g)
    return _action(grid, refine, u, _monotone_density(g, h, u))


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
    dt; the residual carries no O(dt^2) term to observe.  The two actions
    are taken on the once-refined grid, the target integral on ``grid``.
    """
    fine = grid.refine()
    s_plus = action(g, g.scaled_by(dt * u), fine, refine=False).value
    s_minus = action(g, g.scaled_by(-dt * u), fine, refine=False).value
    cd = (s_plus - s_minus) / (2.0 * dt)
    kg = curvature(g)
    target = grid.integrate(lambda x, y: u.value(x, y) * kg.F_density(x, y),
                            support=u.support_box)
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

def vb(f: ScalarField, curve: PolygonalCurve, refinement: int = 6) -> float:
    """Vertical-oscillation variation of f along a polygonal curve.

    Dyadic subdivision of each vertical segment gives a nondecreasing
    lower bound of the supremum over representing tuples; for piecewise
    C^1 restrictions it converges to the total variation along the
    vertical edges.
    """
    segments = curve.vertical_segments()
    if not segments:
        return 0.0
    n = 2 ** int(refinement)
    ys = [np.linspace(a.y, b.y, n + 1) for a, b in segments]
    xs = [np.full_like(y, a.x) for y, (a, _) in zip(ys, segments)]
    # one evaluation for every segment, summed segment by segment
    vals = f.value(np.concatenate(xs), np.concatenate(ys))
    total = 0.0
    for part in np.split(vals, len(segments)):
        total += float(np.sum(np.abs(np.diff(part))))
    return total


_VB_TOL = 1e-8
_VB_MAX_REFINEMENT = 14


def vb_converged(f, curve):
    """VB by dyadic refinement with early stop when two levels agree."""
    prev = vb(f, curve, 0)
    for r in range(1, _VB_MAX_REFINEMENT + 1):
        cur = vb(f, curve, r)
        if abs(cur - prev) <= _VB_TOL * max(1.0, abs(cur)):
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


# The S-class thresholds.  The decay threshold accepts a factor >=
# _DECAY_MIN per halving of the band: smooth factors decay quadratically
# (factor 4) while a C^1 turning point forces an exactly linear rate
# (factor 2), so it sits below 2 with margin for sampling noise.
_BAND_WIDTH = 0.4
_N_BANDS = 5
_SAMPLES = 600
_SUP_MAX = 50.0
_DECAY_MIN = 1.8
_LINF_MAX = 1e4
_L1_MAX = 1e4
_VB_MAX = 1e3
# the VB curve: a diamond in angle coordinates away from the breakpoint lines
_VB_CURVE = diamond_curve(0.11, 0.93, 1.57, 2.41)


def sclass_report(g: SplitMetric, h: SplitMetric) -> SClassReport:
    """Numerical S-class diagnostics for the factor u with h = e^{2u} g.

    Clause (1): u essentially bounded; (2): u decays uniformly at the
    boundary, measured as max |u| over nested diagonal bands shrinking
    dyadically; (3): box_g u bounded and integrable; (4): a finite VB on a
    polygonal curve, converged under dyadic refinement.

    Each sample set is one evaluation: u once on the five band samples
    and the sup sample stacked as rows, one jet of u on the bulk grid for
    both norms of clause (3), and one value call per VB refinement for
    all vertical segments of the curve.
    """
    u = h.factor_relative_to(g)
    if g.coords != "angle":
        raise IncompatibleMetrics("S-class diagnostics run on torus metrics")
    rng = np.random.default_rng(20240901)
    th = rng.uniform(0.0, math.pi, _SAMPLES)

    # the offsets of each band in turn, then those of the sup sample off
    # the bands: one row each, and one evaluation of u on all six rows
    offs = []
    for j in range(_N_BANDS):
        w_hi = _BAND_WIDTH / 2 ** j
        w_lo = w_hi / 2.0
        offs.append(rng.uniform(w_lo, w_hi, _SAMPLES) * rng.choice([-1, 1], _SAMPLES))
    offs.append(rng.uniform(_BAND_WIDTH, math.pi - _BAND_WIDTH, _SAMPLES))
    vals = np.abs(u.value(th, th + np.array(offs)))
    maxima = [float(m) for m in np.max(vals[:_N_BANDS], axis=1)]
    noise_floor = 1e-12
    ratios = [
        maxima[j] / maxima[j + 1] if maxima[j + 1] > noise_floor else np.inf
        for j in range(_N_BANDS - 1)
    ]
    sup_u = max(float(np.max(vals[_N_BANDS])), max(maxima))

    # the torus minus the band |x - y| < w (mod pi) is, in the coordinates
    # (x, d = y - x), the rectangle [0, pi] x [w, pi - w]; the factors are
    # pi-periodic, so y = x + d >= pi needs no wrap
    w = _BAND_WIDTH / 2 ** _N_BANDS
    bulk_grid = box_grid((0.0, math.pi, w, math.pi - w), level=1, base_cells=48)
    dal = []  # box_g u on the nodes of the L1 integral, from its one jet of u

    def l1_density(x, d):
        y = x + d
        uxy2 = 2.0 * u.jet(x, y).vxy
        dal.append(uxy2 / g.density(x, y))
        return np.abs(uxy2)

    l1 = bulk_grid.integrate(l1_density)
    linf = float(np.max(np.abs(dal[0])))

    vb_val, vb_ok = vb_converged(u, _VB_CURVE)

    unbounded = maxima[-1] > max(maxima[0] * 1.2, noise_floor)
    clauses = {
        "1_bounded": bool(np.isfinite(sup_u) and sup_u <= _SUP_MAX and not unbounded),
        "2_boundary_decay": bool(
            not unbounded and all(r >= _DECAY_MIN for r in ratios)
        ),
        "3_dalembertian": bool(
            np.isfinite(linf) and linf <= _LINF_MAX and np.isfinite(l1)
            and l1 <= _L1_MAX
        ),
        "4_vb_finite": bool(vb_ok and np.isfinite(vb_val) and vb_val <= _VB_MAX),
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


# ---------------------------------------------------------------------------
# Actions over the torus
# ---------------------------------------------------------------------------

def torus_trail(density, limit, levels, breaks=()) -> ActionValue:
    """``density`` over the full torus by ``ArcPairRule`` on the arcs cut
    at ``breaks``, at levels 0..``levels``.  The density is 0/0 on the
    diagonal, and ``limit(x)`` is its limit there.
    """
    rules = (ArcPairRule(breaks, lv) for lv in range(levels + 1))
    return refinement_trail(lambda rule: rule.integrate(density, limit), rules)


def torus_density(g: SplitMetric, h: SplitMetric):
    """The monotone density of S(g, h) for h its bare reference metric.

    With f = g.u and the reference factor r, u = -f, v_g = f + r and
    v_h = r, so the density (1/2) u ((v_g)_xy + (v_h)_xy) needs one jet of
    f and one of r per node.  Its operations run in the order of
    ``_monotone_density``, which takes f twice, so the bits are the same;
    v_h is r's jet, never v_g's plus u's.
    """
    if not (g.compatible(h) and _is_zero_field(h.u)):
        raise IncompatibleMetrics("the torus density needs h a bare reference "
                                  "metric of g's kind")
    f, ref = g.u, h.ref_factor

    def density(x, y):
        jf = f.jet(x, y)
        rxy = ref.jet(x, y).vxy
        return 0.5 * (-1.0 * jf.v) * ((jf.vxy + rxy) + rxy)

    return density


def uniformizing_action(phi, levels=3, formula="monotone") -> ActionValue:
    """S(Phi* g0, g0) over the full torus for a piecewise C^3 circle map.

    The raw integrand is 0/0 on the diagonal, where ``ArcPairRule`` takes
    its limit, a twelfth of the projective Schwarzian; the rule's arcs
    end at the map's breakpoints.  The value converges to zero for any
    uniformizing metric; the refinement trail over levels 0..``levels``
    (Gauss order 8 + 4 * level) is reported.
    """
    if phi.coords != "angle":
        raise NotC3("uniformizing action runs on angle-coordinate maps")
    g0 = desitter(coords="angle")
    g = pullback_metric(g0, phi)
    if formula == "monotone":
        density = torus_density(g, g0)
    else:
        density = _definition_density(g, g0.factor_relative_to(g))
    return torus_trail(density, UniformizingFactor(phi).diagonal_limit_density,
                       levels, phi.breakpoints)
