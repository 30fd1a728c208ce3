"""Crossratios, diamond areas, crossratio metrics and curve actions.

A crossratio here is a positive 4-point function b satisfying the two
cocycle relations

    b(x, w, X, Y) b(w, y, X, Y) = b(x, y, X, Y),
    b(x, y, W, Y) b(x, y, X, W) = b(x, y, X, Y),

equivalently: log b is the additive area functional of the diamonds
[x, y] x [X, Y].  The cocycle-compatible building block is the diamond
ratio D(x, y, X, Y) = (x-X)(y-Y) / ((x-Y)(y-X)), a slot permutation of
the crossratio normalized by [0, 1, x, inf] = x (namely [x, Y, X, y]).
The metric density of b against ds dt is

    rho(s, t) = d^2/dy dY log b(x, y, X, Y) |_{y=s, Y=t},

independent of the base slots by the cocycles; the anchor family
exp(Area_{g0}) = D^2 reproduces the de Sitter density 2/(s-t)^2, so all
family weights are measured, never assumed.

Shipped families: the PO(2,2) crossratio of a pair of circle maps and
the PSL3 flag-curve crossratio of a pointed convex curve.  Both carry
exact metric densities; a finite-difference density is available for
families without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    DegeneratePairing,
    NonPositiveB,
    NonSmoothB,
    NotC3,
    NotC3AtPoint,
    SClassFail,
)
from .fields import (
    CircleMap,
    Jet2,
    PiecewiseMobiusAngleMap,
    ScalarField,
    UniformizingFactor,
    torus_grid,
)
from .liouville import ActionValue, _monotone_density, sclass_report
from .lorentz import SplitMetric, desitter


# ---------------------------------------------------------------------------
# Classical crossratio and diamonds
# ---------------------------------------------------------------------------

def _bracket(p, q):
    """[p, q] for projective points in affine coordinates (inf allowed)."""
    p_inf = np.isinf(p)
    q_inf = np.isinf(q)
    # homogeneous reps (p, 1) and (1, 0) for infinity
    p1 = np.where(p_inf, 1.0, p)
    p2 = np.where(p_inf, 0.0, 1.0)
    q1 = np.where(q_inf, 1.0, q)
    q2 = np.where(q_inf, 0.0, 1.0)
    return p1 * q2 - p2 * q1


def classical_crossratio(a, b, c, d):
    """(a-c)(b-d) / ((a-b)(c-d)), normalized by [0, 1, x, inf] = x."""
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    pts = np.stack(np.broadcast_arrays(a, b, c, d))
    for i in range(4):
        for j in range(i + 1, 4):
            if np.any(np.abs(_bracket(pts[i], pts[j])) < 1e-13):
                raise CoincidentPoints("crossratio needs pairwise distinct points")
    num = _bracket(a, c) * _bracket(b, d)
    den = _bracket(a, b) * _bracket(c, d)
    return num / den


def diamond_ratio(x, y, X, Y, coords="affine"):
    """(x-X)(y-Y)/((x-Y)(y-X)); sin-differences in angle coordinates."""
    diff = np.sin if coords == "angle" else (lambda v: v)
    return (diff(x - X) * diff(y - Y)) / (diff(x - Y) * diff(y - X))


@dataclass(frozen=True)
class Diamond:
    """The region [x, y] x [X, Y] for a cyclically oriented 4-tuple."""

    x: float
    y: float
    X: float
    Y: float
    coords: str = "affine"

    def __post_init__(self):
        vals = (self.x, self.y, self.X, self.Y)
        if self.coords == "affine":
            ok = all(a < b for a, b in zip(vals, vals[1:]))
        else:
            gaps = [(vals[(i + 1) % 4] - vals[i]) % math.pi for i in range(4)]
            ok = abs(sum(gaps) - math.pi) < 1e-9 and all(g > 0 for g in gaps)
        if not ok:
            raise CoincidentPoints("diamond corners are not cyclically oriented")


class Crossratio:
    """A positive crossratio with an optional exact metric density."""

    def __init__(self, fn, family="custom", coords="affine",
                 exact_density=None, breakpoints=()):
        self.fn = fn
        self.family = family
        self.coords = coords
        self._exact_density = exact_density
        self.breakpoints = tuple(breakpoints)

    def __call__(self, x, y, X, Y):
        return self.fn(x, y, X, Y)

    def cocycle_residuals(self, rng, samples=100, spread=1.0):
        """Worst relative residual of the two cocycle relations."""
        worst = 0.0
        for _ in range(samples):
            if self.coords == "angle":
                base = rng.uniform(0, math.pi)
                gaps = rng.uniform(0.08, 0.5, 5)
                pts = base + np.cumsum(gaps) / np.sum(gaps) * (math.pi - 0.1)
                x, w, y, X, Y = pts
            else:
                pts = np.sort(rng.uniform(-spread, spread, 5))
                x, w, y, X, Y = pts
            r1 = self.fn(x, w, X, Y) * self.fn(w, y, X, Y) / self.fn(x, y, X, Y)
            # second cocycle: intermediate point in the (X, Y) slot pair
            xa, ya, Xa, Wa, Ya = pts
            r2 = (
                self.fn(xa, ya, Wa, Ya) * self.fn(xa, ya, Xa, Wa)
                / self.fn(xa, ya, Xa, Ya)
            )
            worst = max(worst, abs(r1 - 1.0), abs(r2 - 1.0))
        return worst

    def positivity_check(self, rng, samples=200):
        for _ in range(samples):
            if self.coords == "angle":
                base = rng.uniform(0, math.pi)
                gaps = rng.uniform(0.05, 1.0, 4)
                pts = base + np.cumsum(gaps) / np.sum(gaps) * (math.pi - 0.05)
                x, y, X, Y = pts
            else:
                x, y, X, Y = np.sort(rng.uniform(-2.0, 2.0, 4))
            if not self.fn(x, y, X, Y) > 1.0:
                return False
        return True

    def density(self, s, t, step=1e-5):
        """Metric density rho(s, t); exact when the family supplies it."""
        if self._exact_density is not None:
            return self._exact_density(s, t)
        return self._fd_density(s, t, step)

    def _fd_density(self, s, t, step):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        # base slots placed cyclically: x before s, X between s and t
        if self.coords == "angle":
            gap = np.remainder(t - s, math.pi)
            X = s + 0.5 * gap
            x = s - 0.5 * (math.pi - gap)
        else:
            X = 0.5 * (s + t)
            x = s - np.abs(t - s)

        def logb(yy, YY):
            vals = self.fn(x, yy, X, YY)
            if np.any(vals <= 0):
                raise NonPositiveB("crossratio not positive where log is needed")
            return np.log(vals)

        num = (
            logb(s + step, t + step)
            - logb(s + step, t - step)
            - logb(s - step, t + step)
            + logb(s - step, t - step)
        )
        return num / (4.0 * step ** 2)


def reference_crossratio(coords="affine"):
    """The de Sitter anchor: exp of the g0 area of the diamond."""
    return Crossratio(
        lambda x, y, X, Y: diamond_ratio(x, y, X, Y, coords) ** 2,
        family="g0-anchor",
        coords=coords,
        exact_density=(
            (lambda s, t: 2.0 / np.sin(s - t) ** 2)
            if coords == "angle"
            else (lambda s, t: 2.0 / (s - t) ** 2)
        ),
    )


def diamond_area(b: Crossratio, d: Diamond) -> float:
    val = b(d.x, d.y, d.X, d.Y)
    if np.any(val <= 0):
        raise NonPositiveB("b-area needs a positive crossratio value")
    return float(np.log(val))


def crossratio_metric_density(b: Crossratio, s, t, step=1e-5):
    return b.density(s, t, step)


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------

def schwarzian(phi: CircleMap, x):
    """S_phi = phi'''/phi' - (3/2)(phi''/phi')^2 at x."""
    if isinstance(phi, PiecewiseMobiusAngleMap):
        jets = phi.jets_checked(x)
    else:
        jets = phi.jets(x)
        if len(jets) < 4:
            raise NotC3("third derivative unavailable")
    _, d1, d2, d3 = jets
    if np.any(d1 <= 0):
        raise NotC3AtPoint("phi' must be positive")
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def schwarzian_decay_residual(phi: CircleMap, x, eps):
    """|u(x, x + eps)/eps^2 - (projective Schwarzian)/12|.

    The expansion constant is 1/12: the factor ratio expands as
    1 + (eps^2/6) S + o(eps^2) and u is half its logarithm.  In angle
    coordinates the chart cocycle adds 2(phi'^2 - 1) to S.
    """
    u = UniformizingFactor(phi)
    x = np.asarray(x, dtype=float)
    val = u.value(x, x + eps)
    return np.abs(val / eps ** 2 - u.diagonal_limit_density(x))


# ---------------------------------------------------------------------------
# The PO(2,2) family
# ---------------------------------------------------------------------------

class LogMeanExpField(ScalarField):
    """u = (1/2) log( (e^{2u1} + e^{2u2}) / 2 ) with exact jets."""

    def __init__(self, u1, u2):
        self.u1, self.u2 = u1, u2

    def _jet(self, x, y):
        j1 = self.u1.jet(x, y)
        j2 = self.u2.jet(x, y)
        a = np.exp(2.0 * j1.v)
        b = np.exp(2.0 * j2.v)
        s = a + b
        wa, wb = a / s, b / s
        vx = wa * j1.vx + wb * j2.vx
        vy = wa * j1.vy + wb * j2.vy
        vxy = (
            wa * (2 * j1.vx * j1.vy + j1.vxy)
            + wb * (2 * j2.vx * j2.vy + j2.vxy)
            - 2.0 * vx * vy
        )
        vxx = (
            wa * (2 * j1.vx ** 2 + j1.vxx)
            + wb * (2 * j2.vx ** 2 + j2.vxx)
            - 2.0 * vx ** 2
        )
        vyy = (
            wa * (2 * j1.vy ** 2 + j1.vyy)
            + wb * (2 * j2.vy ** 2 + j2.vyy)
            - 2.0 * vy ** 2
        )
        return Jet2(0.5 * np.log(0.5 * s), vx, vy, vxy, vxx, vyy)


class PO22Curve:
    """A positive curve t -> (psi(t), chi(t)) in the product of two circles.

    The associated crossratio is the product of the diamond ratios of
    the two components; its metric density is

        rho(s, t) = (e^{2 u_psi} + e^{2 u_chi}) / sin^2(s - t)

    with the uniformizing factors of the components, and the measured
    circle metric of the family is the de Sitter density 2/sin^2 (any
    projective pair gives it exactly).  The conformal factor against
    the circle metric is therefore the log-mean-exp of u_psi and u_chi.
    """

    family = "po22"

    def __init__(self, chi: CircleMap, psi: CircleMap = None):
        from .fields import IdentityMap

        self.psi = psi if psi is not None else IdentityMap()
        self.chi = chi
        if self.psi.coords != "angle" or chi.coords != "angle":
            raise NotC3("PO(2,2) curves use angle-coordinate maps")
        self.u_psi = UniformizingFactor(self.psi)
        self.u_chi = UniformizingFactor(self.chi)

    def breakpoints(self):
        return tuple(self.psi.breakpoints) + tuple(self.chi.breakpoints)

    def crossratio(self) -> Crossratio:
        def fn(x, y, X, Y):
            px, py, pX, pY = (self.psi(np.asarray(v)) for v in (x, y, X, Y))
            cx, cy, cX, cY = (self.chi(np.asarray(v)) for v in (x, y, X, Y))
            return diamond_ratio(px, py, pX, pY, "angle") * diamond_ratio(
                cx, cy, cX, cY, "angle"
            )

        return Crossratio(
            fn, family="po22", coords="angle",
            exact_density=self.metric_density,
            breakpoints=self.breakpoints(),
        )

    def metric_density(self, s, t):
        up = self.u_psi.value(s, t)
        uc = self.u_chi.value(s, t)
        return (np.exp(2.0 * up) + np.exp(2.0 * uc)) / np.sin(s - t) ** 2

    def circle_metric(self) -> SplitMetric:
        return desitter(coords="angle")

    def conformal_factor(self) -> ScalarField:
        return LogMeanExpField(self.u_psi, self.u_chi)

    def metric(self) -> SplitMetric:
        return self.circle_metric().scaled_by(self.conformal_factor())

    def diagonal_limit_density(self, x):
        return 0.5 * (
            self.u_psi.diagonal_limit_density(x)
            + self.u_chi.diagonal_limit_density(x)
        )

    def reparametrized(self, phi: CircleMap) -> "PO22Curve":
        return PO22Curve(self.chi.compose(phi), self.psi.compose(phi))


# ---------------------------------------------------------------------------
# The PSL3 family
# ---------------------------------------------------------------------------

class PSL3Curve:
    """A pointed convex curve (x(t), l(t)) with its pairing evaluator.

    ``pairing(s, t)`` evaluates <l(s) | x(t)>; the crossratio is the
    four-point pairing quotient, scale invariant in both homogeneous
    representatives.  ``log_pairing_dst`` supplies the exact mixed
    derivative of log pairing when available, which is the metric
    density of the family.
    """

    family = "psl3"

    def __init__(self, x_fn, l_fn, pairing, log_pairing_dst=None,
                 coords="affine"):
        self.x_fn = x_fn
        self.l_fn = l_fn
        self.pairing = pairing
        self.log_pairing_dst = log_pairing_dst
        self.coords = coords

    def incidence_residual(self, ts, step=1e-6):
        """x(t) on l(t) and l(t) tangent there (both should vanish)."""
        inc = np.abs(self.pairing(ts, ts))
        tang = np.abs(
            (self.pairing(ts, ts + step) - self.pairing(ts, ts - step))
            / (2 * step)
        )
        return float(np.max(inc)), float(np.max(tang))

    def crossratio(self) -> Crossratio:
        def fn(t1, t2, s1, s2):
            num = self.pairing(s1, t1) * self.pairing(s2, t2)
            den = self.pairing(s1, t2) * self.pairing(s2, t1)
            if np.any(np.abs(den) < 1e-300):
                raise DegeneratePairing("pairing vanished off the diagonal")
            return num / den

        return Crossratio(
            fn, family="psl3", coords=self.coords,
            exact_density=(
                None if self.log_pairing_dst is None else
                lambda s, t: self.log_pairing_dst(t, s)
            ),
        )

    def conformal_factor(self) -> ScalarField:
        """Factor against the measured circle metric (conic: zero)."""
        from .fields import ConstantField

        if self.log_pairing_dst is None:
            raise NonSmoothB("no exact density; curve action unavailable")
        return ConstantField(0.0)


def psl3_conic(coords="affine") -> PSL3Curve:
    """The conic x(t) = [t^2, t, 1] with tangents l(s) = (1, -2s, s^2).

    <l(s)|x(t)> = (t - s)^2 in affine coordinates; with trigonometric
    representatives the pairing is sin^2(t - s), smooth across the
    chart.  The crossratio metric is the de Sitter density (the conic
    is a circle of the family).
    """
    if coords == "affine":
        def x_fn(t):
            t = np.asarray(t, dtype=float)
            return np.stack([t ** 2, t, np.ones_like(t)], axis=-1)

        def l_fn(s):
            s = np.asarray(s, dtype=float)
            return np.stack([np.ones_like(s), -2 * s, s ** 2], axis=-1)

        def pairing(s, t):
            s = np.asarray(s, dtype=float)
            t = np.asarray(t, dtype=float)
            return (t - s) ** 2

        def log_dst(t, s):
            return 2.0 / (t - s) ** 2

    else:
        def x_fn(t):
            t = np.asarray(t, dtype=float)
            return np.stack(
                [np.sin(t) ** 2, np.sin(t) * np.cos(t), np.cos(t) ** 2], axis=-1
            )

        def l_fn(s):
            s = np.asarray(s, dtype=float)
            return np.stack(
                [np.cos(s) ** 2, -2 * np.sin(s) * np.cos(s), np.sin(s) ** 2],
                axis=-1,
            )

        def pairing(s, t):
            return np.sin(np.asarray(t, dtype=float) - np.asarray(s)) ** 2

        def log_dst(t, s):
            return 2.0 / np.sin(t - s) ** 2

    return PSL3Curve(x_fn, l_fn, pairing, log_dst, coords)


def psl3_crossratio(curve: PSL3Curve) -> Crossratio:
    return curve.crossratio()


def po22_crossratio(chi: CircleMap, psi: CircleMap = None) -> Crossratio:
    return PO22Curve(chi, psi).crossratio()


# ---------------------------------------------------------------------------
# Curve actions
# ---------------------------------------------------------------------------

def _graded_breaks(turning_points, depths=(0.2048, 0.0512, 0.0128, 0.0032,
                                           0.0008)):
    """Turning-point lines plus geometrically graded satellite lines.

    A C^1 turning point makes the action integrand blow up like the
    inverse distance to the corner (t*, t*) (integrably); grading the
    mesh toward the corners restores fast convergence of the smooth
    part while confining the corner error to cells of the innermost
    absolute size.
    """
    out = set()
    for t in turning_points:
        out.add(t % math.pi)
        for d in depths:
            out.add((t + d) % math.pi)
            out.add((t - d) % math.pi)
    return sorted(out)


def curve_action(curve, levels=3, base_cells=48, band=0.08,
                 check_sclass=True) -> ActionValue:
    """Liouville action of a positive curve against its circle metric.

    The metric pair is (g_curve, g_circle) with g_circle measured from
    a projective member of the same family, so no normalization weight
    enters.  Grids align cell edges with the turning-point lines; the
    diagonal band substitutes the Schwarzian limit density of the
    integrand (identically zero on projective pieces).  Piecewise
    curves use corner-graded meshes and a thin fixed band: the excluded
    mass scales linearly with the band width.
    """
    if isinstance(curve, PSL3Curve):
        if curve.coords != "angle":
            raise NonSmoothB("curve actions integrate over the angle torus")
        u = curve.conformal_factor()
        g_circle = desitter(coords="angle")
        g = g_circle.scaled_by(u)
        breaks = ()
        limit = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        piecewise = False
    else:
        g_circle = curve.circle_metric()
        g = curve.metric()
        breaks = curve.breakpoints()
        limit = curve.diagonal_limit_density
        piecewise = len(breaks) > 0

    report = None
    if check_sclass:
        report = sclass_report(g_circle, g)
        if not report.verdict:
            failing = [k for k, ok in report.clauses.items() if not ok]
            raise SClassFail(failing[0], f"S-class clauses failed: {failing}")

    density = _monotone_density(g, g_circle, g_circle.factor_relative_to(g))

    def closure(x, y):
        return 0.5 * (limit(x) + limit(y))

    if piecewise:
        grid_breaks = _graded_breaks(breaks)
    else:
        grid_breaks = breaks

    trail = []
    for lv in range(levels + 1):
        band_lv = 3e-4 if piecewise else band / 2 ** lv
        grid = torus_grid(level=lv, base_cells=base_cells,
                          band=band_lv, breakpoints=grid_breaks)
        trail.append(grid.integrate(density, closure))
    err = abs(trail[-1] - trail[-2]) if len(trail) > 1 else abs(trail[-1])
    return ActionValue(trail[-1], err, grid.describe(), "curve", trail, report)


def reparam_invariance_residual(curve: PO22Curve, phi: CircleMap,
                                levels=2, base_cells=48) -> float:
    """|S(curve o phi) - S(curve)| for a C^3 reparametrization."""
    a = curve_action(curve, levels=levels, base_cells=base_cells,
                     check_sclass=False)
    b = curve_action(curve.reparametrized(phi), levels=levels,
                     base_cells=base_cells, check_sclass=False)
    return abs(a.value - b.value)
