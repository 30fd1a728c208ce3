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

Both come from ``action_density``, one jet per node of each field they
sum, for the grid actions here and for the torus actions of ``curves``
(curve actions, and uniformizing metrics as the curves (phi, phi)), which
pair g = e^{2f} g_ref with the bare reference g_ref.

The module holds the grid actions, the variation and the S-class check,
and the ``refinement_trail`` that every action and the W-volume share.
It reads nothing from ``adsgeom``, ``forms`` or ``curves``: the W-volume
and the action stay independent oracles of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleMetrics
from .fields import (
    Jet2,
    PolygonalCurve,
    QuadratureGrid,
    ScalarField,
    _is_zero_field,
    box_grid,
    diamond_curve,
)
from .lorentz import SplitMetric, curvature


@dataclass
class ActionValue:
    """A refinement trail: built only by ``refinement_trail``."""

    value: float
    error_estimate: float
    rule: object  # the finest rule; reports write its ``describe()``
    trail: list


_ZERO_JET = Jet2(*(None,) * 6)  # the zero constant's: ``_plus`` folds its parts


def _plus(a, b):
    """a + b, with None folded away as ``ScalarField.__add__`` folds zero."""
    if a is None:
        return 0.0 if b is None else b
    return a if b is None else a + b


def _minus(a, b):
    """a + (-1.0) b, as ``ScalarField.__sub__`` forms it, folded as in ``_plus``."""
    return _plus(a, None if b is None else -1.0 * b)


def action_density(g, h, monotone=False):
    """The density of S(g, h), defining or monotone: per node one jet of each
    of g.u, h.u and the reference factor r that is not the zero constant,
    summed to v_g = g.u + r, v_h = h.u + r and u = h.u + (-1.0) g.u in the
    order of ``SumField`` and ``ScaledField``, keeping the bits of their jets."""
    h.factor_relative_to(g)  # metrics of different kinds raise here
    gu, hu, ref = (None if _is_zero_field(f) else f for f in (g.u, h.u, g.ref_factor))

    def density(x, y):
        # the reference's jet, and the arrays it shares, go once r_xy is read
        rxy = None if ref is None else ref.jet(x, y).vxy
        jg, jh = (_ZERO_JET if f is None else f.jet(x, y) for f in (gu, hu))
        u, gxy = _minus(jh.v, jg.v), _plus(jg.vxy, rxy)
        if monotone:
            return 0.5 * u * (gxy + _plus(jh.vxy, rxy))
        return u * (gxy + 0.5 * _minus(jh.vxy, jg.vxy))

    return density


def refinement_trail(integral, rule_at, levels) -> ActionValue:
    """``integral`` on ``rule_at(0)``, ..., ``rule_at(levels - 1)``, coarse to
    fine, each rule built after the trail drops the one before: the value is
    the finest integral, the error estimate the last step (|I_0| for a single
    level), the trail every integral and ``rule`` the finest rule.
    """
    trail = []
    for level in range(levels):
        rule = None  # a rule its caller does not keep is freed here
        rule = rule_at(level)
        trail.append(integral(rule))
    err = abs(trail[-1] - trail[-2]) if len(trail) > 1 else abs(trail[-1])
    return ActionValue(trail[-1], err, rule, trail)


def _action(g, h, grid, refine, monotone=False):
    u = h.factor_relative_to(g)
    density = action_density(g, h, monotone)
    return refinement_trail(
        lambda gr: gr.integrate(density, support=u.support_box),
        lambda level: grid.refine() if level else grid, 2 if refine else 1)


def action(g: SplitMetric, h: SplitMetric, grid: QuadratureGrid,
           refine: bool = True) -> ActionValue:
    """S(g, h) by the defining formula.

    With ``refine`` the value is taken on a once-refined grid and the
    difference to the coarse value is the reported error estimate; without
    it the trail has the one level ``grid``.
    """
    return _action(g, h, grid, refine)


def action_monotone(g: SplitMetric, h: SplitMetric, grid: QuadratureGrid,
                    refine: bool = True) -> ActionValue:
    """S(g, h) by the monotonicity formula (both curvature forms)."""
    return _action(g, h, grid, refine, monotone=True)


def chasles_residual(g, h, k, grid, refine=True) -> float:
    """|S(g,h) + S(h,k) - S(g,k)|."""
    return abs(
        action(g, h, grid, refine).value
        + action(h, k, grid, refine).value
        - action(g, k, grid, refine).value
    )


# ---------------------------------------------------------------------------
# Variation
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


# ---------------------------------------------------------------------------
# VB and the S-class
# ---------------------------------------------------------------------------

def vb(f: ScalarField, curve: PolygonalCurve, refinement: int) -> float:
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

    Each sample set is evaluated once: u once on the five band samples
    and the sup sample stacked as rows, one jet of u per node of the bulk
    grid for both norms of clause (3), taken block by block as
    ``QuadratureGrid.integrate`` walks it (the bulk grid covers the half
    of the band-excluded torus that the swap x <-> y maps onto the other
    half, 128 x 128 nodes), and one value call per VB
    refinement for all vertical segments of the curve.
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
    # pi-periodic, so y = x + d >= pi needs no wrap.  u and g are symmetric,
    # u(x, y) = u(y, x), so the swap (x, d) -> (x + d mod pi, pi - d), of
    # |Jacobian| 1, maps d in [w, pi/2] onto [pi/2, pi - w]: the L1 norm is
    # twice the integral over [0, pi] x [w, pi/2], and the L-infinity norm
    # the maximum over that half.  64 x 64 gauss2 cells: 128 x 128 nodes,
    # one block of BLOCK_NODES.
    w = _BAND_WIDTH / 2 ** _N_BANDS
    bulk_grid = box_grid((0.0, math.pi, w, 0.5 * math.pi), level=1, base_cells=32)
    # max |box_g u| over the nodes of the L1 integral, block by block, from
    # the integral's one jet of u per node
    linf = 0.0

    def l1_density(x, d):
        nonlocal linf
        y = x + d
        uxy2 = 2.0 * u.jet(x, y).vxy
        linf = np.maximum(linf, np.max(np.abs(uxy2 / g.density(x, y))))
        return np.abs(uxy2)

    l1 = 2.0 * bulk_grid.integrate(l1_density)
    linf = float(linf)

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
