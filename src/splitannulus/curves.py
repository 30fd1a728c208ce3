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
the PSL3 flag-curve crossratio of the conic.  Both carry exact metric
densities; a crossratio without one has no density.

Every action over the torus is a ``curve_action``: the uniformizing
metric Phi* g0 of a circle map phi is the metric of the PO(2,2) curve
(phi, phi), so ``uniformizing_action`` is its curve action.
"""

from __future__ import annotations

import functools
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
)
from .fields import (
    CHARTS,
    ArcPairRule,
    CircleMap,
    ConstantField,
    IdentityMap,
    Jet2,
    ScalarField,
    UniformizingFactor,
    _is_zero_field,
    _schwarzian,
)
from .liouville import ActionValue, action_density, refinement_trail
from .lorentz import SplitMetric, desitter


# ---------------------------------------------------------------------------
# Diamonds
# ---------------------------------------------------------------------------

def diamond_ratio(x, y, X, Y, coords="affine"):
    """D(x-X) D(y-Y) / (D(x-Y) D(y-X)) with the coordinate difference D
    of the chart ``coords``: plain differences, sines in angle coordinates."""
    diff = CHARTS[coords].diff
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
    """A positive crossratio, with its exact metric density if it has one."""

    def __init__(self, fn, family="custom", coords="affine", exact_density=None):
        self.fn = fn
        self.family = family
        self.coords = coords
        self._exact_density = exact_density

    def __call__(self, x, y, X, Y):
        return self.fn(x, y, X, Y)

    def _cyclic_samples(self, rng, samples, k, gap_range, margin):
        """``samples`` cyclically ordered k-tuples, drawn one at a time, as
        k columns: sorted uniform points on [-1, 1] in affine coordinates,
        random gaps summing to pi - margin in angle ones."""
        rows = []
        for _ in range(samples):
            if self.coords == "angle":
                base = rng.uniform(0, math.pi)
                gaps = rng.uniform(*gap_range, k)
                rows.append(base + np.cumsum(gaps) / np.sum(gaps) * (math.pi - margin))
            else:
                rows.append(np.sort(rng.uniform(-1.0, 1.0, k)))
        return np.array(rows).T

    def cocycle_residuals(self, rng, samples=100):
        """Worst relative residual of the two cocycle relations.

        Each crossratio term is evaluated once on all samples; a NaN
        residual on any sample makes the result NaN.
        """
        x, w, y, X, Y = self._cyclic_samples(rng, samples, 5, (0.08, 0.5), 0.1)
        # the second relation takes the same tuple as (x, y, X, W, Y), so
        # both relations begin with the factor b(x, w, X, Y)
        xwXY = self.fn(x, w, X, Y)
        r1 = xwXY * self.fn(w, y, X, Y) / self.fn(x, y, X, Y)
        r2 = xwXY * self.fn(x, w, y, X) / self.fn(x, w, y, Y)
        return float(np.max(np.abs(np.concatenate([r1, r2]) - 1.0)))

    def density(self, s, t):
        """The exact metric density rho(s, t) of the family."""
        if self._exact_density is None:
            raise NonSmoothB(f"the {self.family} crossratio has no exact "
                             "metric density")
        return self._exact_density(s, t)


def reference_crossratio(coords="affine"):
    """The de Sitter anchor: exp of the g0 area of the diamond."""
    diff = CHARTS[coords].diff
    return Crossratio(
        lambda x, y, X, Y: diamond_ratio(x, y, X, Y, coords) ** 2,
        family="g0-anchor",
        coords=coords,
        exact_density=lambda s, t: 2.0 / diff(s - t) ** 2,
    )


def diamond_area(b: Crossratio, d: Diamond) -> float:
    val = b(d.x, d.y, d.X, d.Y)
    if np.any(val <= 0):
        raise NonPositiveB("b-area needs a positive crossratio value")
    return float(np.log(val))


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------

def schwarzian(phi: CircleMap, x):
    """S_phi = phi'''/phi' - (3/2)(phi''/phi')^2 at x.

    NotC3AtPoint at a point within 1e-12 (mod pi) of one of
    ``phi.breakpoints``, where phi has no third derivative.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    for b in phi.breakpoints:
        d = np.remainder(xs - b, math.pi)
        if np.any(np.minimum(d, math.pi - d) < 1e-12):
            raise NotC3AtPoint(f"breakpoint {b} has no third derivative")
    _, d1, d2, d3 = phi.jets(x)
    if np.any(d1 <= 0):
        raise NotC3AtPoint("phi' must be positive")
    return _schwarzian(d1, d2, d3)


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
    """u = (1/2) log( (e^{2u1} + e^{2u2}) / 2 ) with exact jets.

    A zero first factor is folded, as ``ScalarField.__add__`` folds zero:
    e^{2u1} is 1 and every partial of u1 vanishes, so no jet of u1 is
    formed, and u = (1/2) log((1 + e^{2u2}) / 2) and its partials drop the
    terms of u1.  Those terms add a positive zero, so each component keeps
    the bits of the unfolded formula, up to the sign of a zero.
    """

    def __init__(self, u1, u2):
        self.u1, self.u2 = u1, u2

    def _jet(self, x, y):
        j1 = None if _is_zero_field(self.u1) else self.u1.jet(x, y)
        j2 = self.u2.jet(x, y)
        a = 1.0 if j1 is None else np.exp(2.0 * j1.v)
        b = np.exp(2.0 * j2.v)
        s = a + b
        # the weights are formed here, so that a and b are freed on return;
        # the first partials, shared by vxy, vxx and vyy, are each built
        # once, when first read.  The decay bands and the VB read v alone,
        # the S-class L1 vxy alone
        wa = None if j1 is None else a / s
        wb = b / s

        def mean(term):
            """wa term(j1) + wb term(j2), the first term folded with u1."""
            t2 = wb * term(j2)
            return t2 if j1 is None else wa * term(j1) + t2

        vx = functools.cache(lambda: mean(lambda j: j.vx))
        vy = functools.cache(lambda: mean(lambda j: j.vy))

        def vxy():
            return mean(lambda j: 2 * j.vx * j.vy + j.vxy) - 2.0 * vx() * vy()

        def vxx():
            return mean(lambda j: 2 * j.vx ** 2 + j.vxx) - 2.0 * vx() ** 2

        def vyy():
            return mean(lambda j: 2 * j.vy ** 2 + j.vyy) - 2.0 * vy() ** 2

        return Jet2(lambda: 0.5 * np.log(0.5 * s), vx, vy, vxy, vxx, vyy)


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

        return Crossratio(fn, family="po22", coords="angle",
                          exact_density=self.metric_density)

    def metric_density(self, s, t):
        up = self.u_psi.value(s, t)
        uc = self.u_chi.value(s, t)
        return (np.exp(2.0 * up) + np.exp(2.0 * uc)) / np.sin(s - t) ** 2

    def circle_metric(self) -> SplitMetric:
        return desitter(coords="angle")

    def conformal_factor(self) -> ScalarField:
        # the log-mean-exp of two equal factors is that factor: the curve
        # (phi, phi) takes one jet of u_phi per node
        if self.psi is self.chi:
            return self.u_chi
        # psi = identity has the factor zero; its UniformizingFactor jets
        # would cost as much as chi's only to compute zeros
        identity = isinstance(self.psi, IdentityMap)
        u_psi = ConstantField(0.0) if identity else self.u_psi
        return LogMeanExpField(u_psi, self.u_chi)

    def metric(self) -> SplitMetric:
        return self.circle_metric().scaled_by(self.conformal_factor())

    def diagonal_limit_density(self, x):
        if self.psi is self.chi:  # the mean of two equal limits
            return self.u_chi.diagonal_limit_density(x)
        return 0.5 * (
            self.u_psi.diagonal_limit_density(x)
            + self.u_chi.diagonal_limit_density(x)
        )

    def reparametrized(self, phi: CircleMap) -> "PO22Curve":
        return PO22Curve(self.chi.compose(phi), self.psi.compose(phi))


# ---------------------------------------------------------------------------
# The PSL3 family
# ---------------------------------------------------------------------------

class PSL3Conic:
    """The conic x(t) = [t^2, t, 1] with tangents l(s) = (1, -2s, s^2), the
    one pointed convex curve of the PSL3 family the package ships.

    ``pairing(s, t)`` evaluates <l(s) | x(t)> = D(t - s)^2 with the
    coordinate difference D of the chart ``coords``: (t - s)^2 in affine
    coordinates; with the trigonometric representatives x(t) = (sin^2 t,
    sin t cos t, cos^2 t) and l(s) = (cos^2 s, -2 sin s cos s, sin^2 s) it
    is sin^2(t - s), smooth across the chart.  The crossratio is the
    four-point pairing quotient, scale invariant in both homogeneous
    representatives.  Its metric density, the mixed derivative of log
    pairing, is the de Sitter density: the conic is a circle of the
    family, so its factor against the circle metric is zero.
    """

    family = "psl3"

    def __init__(self, coords="affine"):
        self.coords = coords
        self.diff = CHARTS[coords].diff

    def pairing(self, s, t):
        return self.diff(np.asarray(t, dtype=float) - np.asarray(s, dtype=float)) ** 2

    def _coincide(self, s, t):
        """Whether any pair s, t coincides (mod pi in angle coordinates):
        D(t - s) is zero to within the rounding of t - s itself, at most
        4 eps |t - s|.  In the angle chart points pi apart meet, and
        sin(t - s) there is the rounding of t - s against pi, about 1e-16,
        not zero; in the affine chart it holds for t = s alone."""
        d = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        return bool(np.any(np.abs(self.diff(d)) <= 4 * np.finfo(float).eps * np.abs(d)))

    def crossratio(self) -> Crossratio:
        def fn(t1, t2, s1, s2):
            num = self.pairing(s1, t1) * self.pairing(s2, t2)
            den = self.pairing(s1, t2) * self.pairing(s2, t1)
            if (np.any(np.abs(den) < 1e-300) or self._coincide(s1, t2)
                    or self._coincide(s2, t1)):
                raise DegeneratePairing("pairing vanished off the diagonal")
            return num / den

        return Crossratio(
            fn, family="psl3", coords=self.coords,
            exact_density=lambda s, t: 2.0 / self.diff(t - s) ** 2,
        )

    def breakpoints(self):
        return ()

    def circle_metric(self) -> SplitMetric:
        if self.coords != "angle":
            raise NonSmoothB("curve actions integrate over the angle torus")
        return desitter(coords="angle")

    def conformal_factor(self) -> ScalarField:
        """Factor against the measured circle metric: zero on the conic."""
        return ConstantField(0.0)

    def metric(self) -> SplitMetric:
        return self.circle_metric().scaled_by(self.conformal_factor())

    def diagonal_limit_density(self, x):
        return np.zeros_like(x)


# ---------------------------------------------------------------------------
# Curve actions
# ---------------------------------------------------------------------------

def curve_action(curve, levels=3) -> ActionValue:
    """Liouville action of a positive curve against its circle metric.

    The metric pair is (g_curve, g_circle) with g_circle measured from
    a projective member of the same family, so no normalization weight
    enters.  The trail integrates on ``ArcPairRule``s whose arcs end at
    the turning points, with the Schwarzian limit density of the
    integrand on the diagonal (identically zero on projective pieces);
    level ``lv`` of the trail has Gauss order 8 + 4 * lv.  The action is
    finite for a factor in the S-class, which ``sclass_report`` checks.
    """
    g_circle = curve.circle_metric()
    density = action_density(curve.metric(), g_circle, monotone=True)
    return refinement_trail(
        lambda rule: rule.integrate(density, curve.diagonal_limit_density),
        lambda level: ArcPairRule(curve.breakpoints(), level), levels + 1)


def uniformizing_action(phi, levels=3):
    """S(Phi* g0, g0) over the full torus for a piecewise C^3 circle map:
    the curve action of (phi, phi), whose metric is the uniformizing metric
    Phi* g0, and the defining formula's value on the trail's finest rule.

    The value converges to zero for any uniformizing metric.
    """
    curve = PO22Curve(phi, phi)
    av = curve_action(curve, levels)
    density = action_density(curve.metric(), curve.circle_metric())
    return av, av.rule.integrate(density, curve.diagonal_limit_density)


def reparam_invariance_residual(curve: PO22Curve, phi: CircleMap,
                                levels=2) -> float:
    """|S(curve o phi) - S(curve)| for a C^3 reparametrization."""
    a = curve_action(curve, levels=levels)
    b = curve_action(curve.reparametrized(phi), levels=levels)
    return abs(a.value - b.value)
