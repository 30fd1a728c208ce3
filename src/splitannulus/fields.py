"""Charts, scalar fields, circle maps, polygonal curves and quadrature.

Coordinate conventions used throughout the package:

* A point of the projective line carries an affine coordinate ``x``; the
  angle coordinate ``theta`` (period pi) is related by ``x = tan(theta)``.
* The annulus is the product of two projective lines minus the diagonal;
  a chart point is the pair ``(x, y)`` with ``x != y``.
* Scalar fields carry *exact* partial derivatives: every field object
  reports the jet ``(v, vx, vy, vxy, vxx, vyy)``; nothing in the library
  silently falls back to finite differencing.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalPoint,
    NonFiniteDensity,
    NotC3AtPoint,
    NotCyclic,
    OutOfChart,
)

DIAG_TOL = 1e-14


# ---------------------------------------------------------------------------
# Mobius maps of the affine line
# ---------------------------------------------------------------------------

def mobius_apply(m, x):
    """Apply the projective map with matrix ``m`` to affine coordinates."""
    a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
    den = c * x + d
    return (a * x + b) / den


def mobius_inverse(m):
    a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
    return np.array([[d, -b], [-c, a]], dtype=float)


# ---------------------------------------------------------------------------
# Annulus points and chart transitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusPoint:
    """A point (x, y) of the annulus in an affine chart."""

    x: float
    y: float
    chart_id: str = "affine"

    def __post_init__(self):
        if abs(self.x - self.y) <= DIAG_TOL:
            raise DiagonalPoint(f"({self.x}, {self.y}) lies on the diagonal")


def transition(m, p: AnnulusPoint, chart_id=None) -> AnnulusPoint:
    """Apply a shared Mobius chart rotation to both factors of a point."""
    x = mobius_apply(m, p.x)
    y = mobius_apply(m, p.y)
    if not (np.isfinite(x) and np.isfinite(y)):
        raise OutOfChart("chart rotation sends the point to infinity")
    return AnnulusPoint(float(x), float(y), chart_id or p.chart_id)


# ---------------------------------------------------------------------------
# Scalar fields with exact jets
# ---------------------------------------------------------------------------

@dataclass
class Jet2:
    """Second order jet of a scalar field at (possibly arrays of) points."""

    v: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    vxy: np.ndarray
    vxx: np.ndarray
    vyy: np.ndarray

    def __iter__(self):
        return iter((self.v, self.vx, self.vy, self.vxy, self.vxx, self.vyy))


def _broadcast_zero(x, y):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)


class ScalarField:
    """A real function on an annulus chart with exact partials.

    Subclasses implement ``_jet(x, y) -> Jet2``.  An optional support box
    clips the field (and all partials) to zero outside a compact rectangle:
    ``jet`` then calls ``_jet`` only on the nodes inside the closed box and
    writes zeros everywhere else, so ``_jet`` never sees an outside node.
    """

    support_box = None  # (x0, x1, y0, y1) or None

    def jet(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.support_box is None:
            return self._jet(x, y)
        x, y = np.broadcast_arrays(x, y)
        x0, x1, y0, y1 = self.support_box
        idx = np.flatnonzero((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
        j = self._jet(x.ravel()[idx], y.ravel()[idx])
        out = []
        for c in j:
            full = np.zeros(x.size)
            full[idx] = c
            out.append(full.reshape(x.shape))
        return Jet2(*out)

    def _jet(self, x, y):
        raise NotImplementedError

    # pointwise accessors -------------------------------------------------
    def value(self, x, y):
        return self.jet(x, y).v

    def dx(self, x, y):
        return self.jet(x, y).vx

    def dy(self, x, y):
        return self.jet(x, y).vy

    def dxy(self, x, y):
        return self.jet(x, y).vxy

    # arithmetic ----------------------------------------------------------
    # adding the zero constant returns the other operand, so sums such as
    # ``h.u - g.u`` build no jets of zeros
    def __add__(self, other):
        other = as_field(other)
        if _is_zero_field(other):
            return self
        if _is_zero_field(self):
            return other
        return SumField(self, other)

    def __radd__(self, other):
        return as_field(other) + self

    def __sub__(self, other):
        other = as_field(other)
        if _is_zero_field(other):
            return self
        return self + ScaledField(other, -1.0)

    def __rsub__(self, other):
        return as_field(other) - self

    def __mul__(self, c):
        return ScaledField(self, float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return ScaledField(self, -1.0)


class ConstantField(ScalarField):
    def __init__(self, c):
        self.c = float(c)

    def _jet(self, x, y):
        z = _broadcast_zero(x, y)
        return Jet2(z + self.c, z, z, z, z, z)


def as_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    return ConstantField(float(obj))


def _is_zero_field(f):
    return isinstance(f, ConstantField) and f.c == 0.0


def _union_box(a, b):
    if _is_zero_field(a):
        return b.support_box
    if _is_zero_field(b):
        return a.support_box
    if a.support_box is None or b.support_box is None:
        return None
    ax0, ax1, ay0, ay1 = a.support_box
    bx0, bx1, by0, by1 = b.support_box
    return (min(ax0, bx0), max(ax1, bx1), min(ay0, by0), max(ay1, by1))


class SumField(ScalarField):
    def __init__(self, a, b):
        self.a, self.b = a, b
        self.support_box = _union_box(a, b)

    def _jet(self, x, y):
        ja, jb = self.a.jet(x, y), self.b.jet(x, y)
        return Jet2(*(ca + cb for ca, cb in zip(ja, jb)))

    def jet(self, x, y):  # components already clip themselves
        return self._jet(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class ScaledField(ScalarField):
    def __init__(self, a, c):
        self.a, self.c = a, float(c)
        self.support_box = a.support_box

    def _jet(self, x, y):
        return Jet2(*(self.c * comp for comp in self.a.jet(x, y)))

    def jet(self, x, y):
        return self._jet(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class ProductField(ScalarField):
    """Pointwise product of two fields (Leibniz on the jets)."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _jet(self, x, y):
        a, b = self.a.jet(x, y), self.b.jet(x, y)
        return Jet2(
            a.v * b.v,
            a.vx * b.v + a.v * b.vx,
            a.vy * b.v + a.v * b.vy,
            a.vxy * b.v + a.vx * b.vy + a.vy * b.vx + a.v * b.vxy,
            a.vxx * b.v + 2 * a.vx * b.vx + a.v * b.vxx,
            a.vyy * b.v + 2 * a.vy * b.vy + a.v * b.vyy,
        )


class PolynomialField(ScalarField):
    """sum_ij coeffs[i, j] x^i y^j with exact partials."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))

    def _jet(self, x, y):
        from numpy.polynomial import polynomial as P

        c = self.coeffs
        cx = P.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, 1))
        cy = P.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((1, 1))
        cxy = P.polyder(cx, axis=1) if cx.shape[1] > 1 else np.zeros((1, 1))
        cxx = P.polyder(cx, axis=0) if cx.shape[0] > 1 else np.zeros((1, 1))
        cyy = P.polyder(cy, axis=1) if cy.shape[1] > 1 else np.zeros((1, 1))
        return Jet2(
            P.polyval2d(x, y, c),
            P.polyval2d(x, y, cx),
            P.polyval2d(x, y, cy),
            P.polyval2d(x, y, cxy),
            P.polyval2d(x, y, cxx),
            P.polyval2d(x, y, cyy),
        )


def product_xy():
    """The test field u(x, y) = x * y."""
    return PolynomialField([[0.0, 0.0], [0.0, 1.0]])


class BumpField(ScalarField):
    """amplitude * (1 - X^2)^p (1 - Y^2)^p on a box, zero outside.

    With X = (x - cx)/hx, Y = (y - cy)/hy.  For p >= 3 the field joins the
    zero extension with two continuous derivatives, which is what the
    curvature and action integrands need.
    """

    def __init__(self, center, halfwidth, amplitude=1.0, power=4):
        self.cx, self.cy = map(float, center)
        self.hx, self.hy = map(float, halfwidth)
        self.amp = float(amplitude)
        self.p = int(power)
        if self.p < 3:
            raise ValueError("power >= 3 required for a C^2 join")
        self.support_box = (
            self.cx - self.hx,
            self.cx + self.hx,
            self.cy - self.hy,
            self.cy + self.hy,
        )

    def mass(self):
        """Closed form of the integral of the field over the plane."""
        p = self.p
        # int_{-1}^{1} (1 - s^2)^p ds = 2^{2p+1} (p!)^2 / (2p+1)!
        one_d = 2.0 ** (2 * p + 1) * math.factorial(p) ** 2 / math.factorial(2 * p + 1)
        return self.amp * self.hx * self.hy * one_d ** 2

    def _jet(self, x, y):
        X = (x - self.cx) / self.hx
        Y = (y - self.cy) / self.hy
        inside = (np.abs(X) < 1.0) & (np.abs(Y) < 1.0)
        X = np.where(inside, X, 0.0)
        Y = np.where(inside, Y, 0.0)
        p = self.p
        gx = (1.0 - X ** 2) ** p
        gy = (1.0 - Y ** 2) ** p
        gx1 = -2.0 * p * X * (1.0 - X ** 2) ** (p - 1) / self.hx
        gy1 = -2.0 * p * Y * (1.0 - Y ** 2) ** (p - 1) / self.hy
        gx2 = (-2.0 * p * (1.0 - X ** 2) ** (p - 1)
               + 4.0 * p * (p - 1) * X ** 2 * (1.0 - X ** 2) ** (p - 2)) / self.hx ** 2
        gy2 = (-2.0 * p * (1.0 - Y ** 2) ** (p - 1)
               + 4.0 * p * (p - 1) * Y ** 2 * (1.0 - Y ** 2) ** (p - 2)) / self.hy ** 2
        a = self.amp
        return Jet2(
            np.where(inside, a * gx * gy, 0.0),
            np.where(inside, a * gx1 * gy, 0.0),
            np.where(inside, a * gx * gy1, 0.0),
            np.where(inside, a * gx1 * gy1, 0.0),
            np.where(inside, a * gx2 * gy, 0.0),
            np.where(inside, a * gx * gy2, 0.0),
        )


def bump_field(center, halfwidth, amplitude=1.0, power=4):
    return BumpField(center, halfwidth, amplitude, power)


def unit_mass_bump(center, halfwidth, power=4):
    b = BumpField(center, halfwidth, 1.0, power)
    return BumpField(center, halfwidth, 1.0 / b.mass(), power)


class DeSitterLogFactor(ScalarField):
    """v0(x, y) = (1/2) log(2 / (x - y)^2), the de Sitter conformal factor."""

    def _jet(self, x, y):
        d = x - y
        return Jet2(
            0.5 * np.log(2.0 / d ** 2),
            -1.0 / d,
            1.0 / d,
            -1.0 / d ** 2,
            1.0 / d ** 2,
            1.0 / d ** 2,
        )


class DeSitterAngleLogFactor(ScalarField):
    """v0(th, ps) = (1/2) log(2 / sin^2(th - ps)) in angle coordinates."""

    def _jet(self, x, y):
        d = x - y
        s2 = np.sin(d) ** 2
        cot = np.cos(d) / np.sin(d)
        return Jet2(
            0.5 * np.log(2.0 / s2),
            -cot,
            cot,
            -1.0 / s2,
            1.0 / s2,
            1.0 / s2,
        )


class UniformizingFactor(ScalarField):
    """The conformal factor of a pulled-back de Sitter metric.

    For a diagonal split map Phi(x, y) = (phi(x), phi(y)),

        Phi* g0 = e^{2u} g0,
        u = (1/2) log( D(x, y)^2 phi'(x) phi'(y) / D(phi x, phi y)^2 ),

    where D is the coordinate difference in an affine chart and sin of
    the difference in angle coordinates.  Exact jets need phi C^3; for
    piecewise-projective maps the factor is identically zero when both
    arguments sit in the same piece, and that shortcut is taken exactly
    (it also avoids the catastrophic cancellation near the diagonal).
    """

    def __init__(self, phi):
        self.phi = phi
        self.angle = phi.coords == "angle"

    def _jet(self, x, y):
        phi = self.phi
        same = None
        if isinstance(phi, PiecewiseMobiusAngleMap):
            same = phi.piece_index(x) == phi.piece_index(y)
        fx, f1x, f2x, f3x = phi.jets(x)
        fy, f1y, f2y, f3y = phi.jets(y)
        d = x - y
        dd = fx - fy
        if self.angle:
            sd, sD = np.sin(d), np.sin(dd)
            cot_d = np.cos(d) / sd
            cot_D = np.cos(dd) / sD
            inv2_d, inv2_D = 1.0 / sd ** 2, 1.0 / sD ** 2
            v = 0.5 * np.log(sd ** 2 * f1x * f1y / sD ** 2)
        else:
            cot_d, cot_D = 1.0 / d, 1.0 / dd
            inv2_d, inv2_D = 1.0 / d ** 2, 1.0 / dd ** 2
            v = 0.5 * np.log(d ** 2 * f1x * f1y / dd ** 2)
        ax = f2x / (2.0 * f1x)
        ay = f2y / (2.0 * f1y)
        sx = f3x / (2.0 * f1x) - f2x ** 2 / (2.0 * f1x ** 2)
        sy = f3y / (2.0 * f1y) - f2y ** 2 / (2.0 * f1y ** 2)
        j = Jet2(
            v,
            cot_d + ax - f1x * cot_D,
            -cot_d + ay + f1y * cot_D,
            inv2_d - f1x * f1y * inv2_D,
            -inv2_d + sx - f2x * cot_D + f1x ** 2 * inv2_D,
            -inv2_d + sy + f2y * cot_D + f1y ** 2 * inv2_D,
        )
        if same is not None:
            j = Jet2(*(np.where(same, 0.0, c) for c in j))
        return j

    def diagonal_limit_density(self, x):
        """Limit of u * (de Sitter density) / (x - y)^2-free form.

        Returns the diagonal limit of u / D^2, namely a twelfth of the
        projective Schwarzian (the chart Schwarzian plus the angle-chart
        cocycle correction 2(phi'^2 - 1) in angle coordinates).
        """
        phi = self.phi
        if isinstance(phi, PiecewiseMobiusAngleMap):
            if np.ndim(x) == 0 and phi.is_breakpoint(float(x)):
                return np.zeros_like(np.asarray(x, dtype=float))
        f, f1, f2, f3 = phi.jets(x)
        s = f3 / f1 - 1.5 * (f2 / f1) ** 2
        if self.angle:
            s = s + 2.0 * (f1 ** 2 - 1.0)
        return s / 12.0


class LogSinDiagField(ScalarField):
    """c * log|sin(x - y)|: unbounded near the diagonal (S-class failure)."""

    def __init__(self, c=-1.0):
        self.c = float(c)

    def _jet(self, x, y):
        d = x - y
        s2 = np.sin(d) ** 2
        cot = np.cos(d) / np.sin(d)
        c = self.c
        return Jet2(
            0.5 * c * np.log(s2),
            c * cot,
            -c * cot,
            c / s2,
            -c / s2,
            -c / s2,
        )


class PullbackField(ScalarField):
    """(u o Phi)(x, y) = u(phi(x), phi(y)) for a diagonal split map."""

    def __init__(self, inner, phi):
        self.inner = inner
        self.phi = phi

    def _jet(self, x, y):
        px, dpx, d2px, _ = self.phi.jets(x)
        py, dpy, d2py, _ = self.phi.jets(y)
        j = self.inner.jet(px, py)
        return Jet2(
            j.v,
            j.vx * dpx,
            j.vy * dpy,
            j.vxy * dpx * dpy,
            j.vxx * dpx ** 2 + j.vx * d2px,
            j.vyy * dpy ** 2 + j.vy * d2py,
        )


class ClippedField(ScalarField):
    """A field set identically to zero outside a compact rectangle."""

    def __init__(self, inner, box):
        self.inner = inner
        self.support_box = tuple(float(b) for b in box)

    def _jet(self, x, y):
        # the base-class jet() calls this on the nodes inside the box only
        return self.inner.jet(x, y)


def with_support_box(inner: ScalarField, box):
    """Declare a compact support box on an existing field."""
    return ClippedField(inner, box)


def eval_field(f: ScalarField, p: AnnulusPoint):
    """Evaluate the four jets (value, dx, dy, dxy) of ``f`` at a point."""
    if abs(p.x - p.y) <= DIAG_TOL:
        raise DiagonalPoint("field evaluation on the diagonal")
    j = f.jet(p.x, p.y)
    return (float(j.v), float(j.vx), float(j.vy), float(j.vxy))


def check_field_derivatives(f, points, step=1e-5, rtol=1e-6):
    """Compare reported partials with central differences at sample points.

    Returns the worst relative error beyond the floating-point floor of
    the stencil: the cross difference divides four O(|f|) values by
    4 step^2, so eps * max|f| / step^2 of the discrepancy is roundoff,
    not a derivative defect.  The library contract is that shipped
    constructors stay below ``rtol``.
    """
    eps = np.finfo(float).eps
    worst = 0.0
    for (x, y) in points:
        j = f.jet(x, y)
        corners = [
            float(f.value(x + sx * step, y + sy * step))
            for sx in (-1, 1) for sy in (-1, 1)
        ]
        fd_x = (f.value(x + step, y) - f.value(x - step, y)) / (2 * step)
        fd_y = (f.value(x, y + step) - f.value(x, y - step)) / (2 * step)
        fd_xy = (corners[3] - corners[2] - corners[1] + corners[0]) / (
            4 * step ** 2
        )
        scale = max(1.0, abs(j.v), abs(j.vx), abs(j.vy), abs(j.vxy))
        floor1 = eps * max(map(abs, corners)) / step
        floor2 = eps * max(map(abs, corners)) / step ** 2
        worst = max(
            worst,
            max(abs(fd_x - j.vx) - floor1, 0.0) / scale,
            max(abs(fd_y - j.vy) - floor1, 0.0) / scale,
            max(abs(fd_xy - j.vxy) - floor2, 0.0) / scale,
        )
    return worst


# ---------------------------------------------------------------------------
# Circle maps
# ---------------------------------------------------------------------------

class CircleMap:
    """Orientation preserving map of the projective line with exact jets.

    ``jets(t)`` returns ``(phi, phi', phi'', phi''')`` at ``t`` (arrays ok).
    ``coords`` is ``"affine"`` for maps written in an affine chart and
    ``"angle"`` for maps of the angle line (period pi).
    """

    coords = "affine"
    breakpoints = ()
    smoothness = "smooth"  # or "piecewise"

    def jets(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.jets(t)[0]

    def deriv(self, t, order=1):
        return self.jets(t)[order]

    def is_breakpoint(self, t, tol=1e-12):
        return any(abs(self._wrap_dist(t, b)) <= tol for b in self.breakpoints)

    def _wrap_dist(self, a, b):
        if self.coords == "angle":
            d = (a - b) % math.pi
            return min(d, math.pi - d)
        return a - b

    def compose(self, other):
        return ComposedMap(self, other)


class IdentityMap(CircleMap):
    coords = "angle"

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        return t, one, zero, zero


class MobiusMap(CircleMap):
    """phi(x) = (a x + b)/(c x + d) on an affine chart, det > 0."""

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det <= 0:
            raise ValueError("Mobius matrix must have positive determinant")
        self.m = m / math.sqrt(det)

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        a, b = self.m[0]
        c, d = self.m[1]
        den = c * t + d
        if np.any(np.abs(den) < 1e-13):
            raise OutOfChart("Mobius pole inside evaluation set")
        phi = (a * t + b) / den
        d1 = 1.0 / den ** 2
        d2 = -2.0 * c / den ** 3
        d3 = 6.0 * c ** 2 / den ** 4
        return phi, d1, d2, d3


class AngleMobiusMap(CircleMap):
    """The projective action of an SL(2, R) matrix on the angle line.

    Angles parametrize directions (cos t, sin t); the action is smooth and
    pi-periodic with phi'(t) = 1/|M v(t)|^2 > 0.
    """

    coords = "angle"

    def __init__(self, m, lift_offset=None):
        m = np.asarray(m, dtype=float)
        det = np.linalg.det(m)
        if det <= 0:
            raise ValueError("matrix must have positive determinant")
        self.m = m / math.sqrt(det)
        # continuous lift: phi(t) = atan2 branch glued to be increasing
        self._offset = 0.0 if lift_offset is None else float(lift_offset)

    def _raw(self, t):
        v = np.stack([np.cos(t), np.sin(t)], axis=-1)
        w = v @ self.m.T
        return w

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        w = self._raw(t)
        wx, wy = w[..., 0], w[..., 1]
        n2 = wx ** 2 + wy ** 2
        # derivative vectors: w' = M v', w'' = -w
        vp = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        wp = vp @ self.m.T
        wpx, wpy = wp[..., 0], wp[..., 1]
        dot1 = wx * wpx + wy * wpy            # <w, w'>
        # |w'|^2 and <w, w''> = -|w|^2
        np2 = wpx ** 2 + wpy ** 2
        phi = np.arctan2(wy, wx) + self._offset
        d1 = 1.0 / n2
        # d/dt |w|^2 = 2<w,w'> ; d/dt <w,w'> = |w'|^2 - |w|^2
        d2 = -2.0 * dot1 / n2 ** 2
        d3 = -2.0 * (np2 - n2) / n2 ** 2 + 8.0 * dot1 ** 2 / n2 ** 3
        return phi, d1, d2, d3

    def angle_image(self, t):
        """Image angle reduced mod pi to [0, pi)."""
        return np.mod(self.jets(t)[0], math.pi)


class SineFlowMap(CircleMap):
    """phi(t) = t + a sin(k t) on the angle line; requires |a k| < 1."""

    coords = "angle"

    def __init__(self, amplitude, frequency=2):
        if frequency % 2 != 0:
            raise ValueError("frequency must be even for pi-periodicity")
        if abs(amplitude * frequency) >= 1:
            raise ValueError("|amplitude * frequency| < 1 required")
        self.a = float(amplitude)
        self.k = int(frequency)

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        a, k = self.a, self.k
        return (
            t + a * np.sin(k * t),
            1.0 + a * k * np.cos(k * t),
            -a * k ** 2 * np.sin(k * t),
            -a * k ** 3 * np.cos(k * t),
        )


class AnalyticChartMap(CircleMap):
    """A map given by closed-form derivative callables on a chart interval."""

    def __init__(self, fns, domain=None, coords="affine"):
        self.fns = fns  # (f, f1, f2, f3)
        self.domain = domain
        self.coords = coords

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        if self.domain is not None:
            lo, hi = self.domain
            if np.any((t < lo) | (t > hi)):
                raise OutOfChart("evaluation outside the map's chart interval")
        return tuple(f(t) for f in self.fns)


def tan_chart_map(domain=(-1.2, 1.2)):
    """phi = tan on a chart interval; Schwarzian identically 2."""
    return AnalyticChartMap(
        (np.tan,
         lambda t: 1.0 / np.cos(t) ** 2,
         lambda t: 2.0 * np.sin(t) / np.cos(t) ** 3,
         lambda t: (6.0 - 4.0 * np.cos(t) ** 2) / np.cos(t) ** 4),
        domain=domain,
    )


class ComposedMap(CircleMap):
    """f o g with jets by the chain rule up to order three.

    Breakpoints of the composition are those of the inner map together
    with the inner preimages of the outer map's breakpoints (solved by
    bisection on the increasing lift).
    """

    def __init__(self, outer, inner):
        if outer.coords != inner.coords:
            raise ValueError("composed maps must share a coordinate system")
        self.outer, self.inner = outer, inner
        self.coords = outer.coords
        bps = set(inner.breakpoints)
        for b in outer.breakpoints:
            bps.add(self._preimage(inner, b))
        self.breakpoints = tuple(sorted(bps))
        self.smoothness = (
            "piecewise"
            if "piecewise" in (outer.smoothness, inner.smoothness)
            else "smooth"
        )

    @staticmethod
    def _preimage(inner, target):
        if inner.coords != "angle":
            raise ValueError("breakpoint preimages need the angle line")
        lo, hi = 0.0, math.pi
        flo = float(inner.jets(np.asarray(lo))[0])
        # shift the target into the image interval [phi(0), phi(0) + pi)
        t = flo + (float(target) - flo) % math.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(inner.jets(np.asarray(mid))[0]) < t:
                lo = mid
            else:
                hi = mid
        return (0.5 * (lo + hi)) % math.pi

    def jets(self, t):
        g, g1, g2, g3 = self.inner.jets(t)
        f, f1, f2, f3 = self.outer.jets(g)
        return (
            f,
            f1 * g1,
            f2 * g1 ** 2 + f1 * g2,
            f3 * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * g3,
        )


def rotation_matrix(angle):
    """SL(2) rotation; acts on the angle line as a shift by ``angle``."""
    return np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )


def parabolic_at(t0, s):
    """SL(2) parabolic fixing the direction of angle t0, strength s.

    Conjugate of the upper-triangular unipotent [[1, s], [0, 1]] (which
    fixes angle 0) by the rotation sending angle 0 to angle t0.
    """
    r = rotation_matrix(t0)
    u = np.array([[1.0, s], [0.0, 1.0]])
    return r @ u @ r.T


class PiecewiseMobiusAngleMap(CircleMap):
    """A piecewise SL(2)-projective circle map on the angle line.

    ``breakpoints`` are increasing angles in [0, pi); piece ``i`` acts on
    the arc [breakpoints[i], breakpoints[i+1]].  Construction validates
    continuity, C^1 matching and orientation on every piece.
    """

    coords = "angle"
    smoothness = "piecewise"

    def __init__(self, breakpoints, matrices, c0_tol=1e-12, c1_tol=1e-10):
        bps = [float(b) % math.pi for b in breakpoints]
        if sorted(bps) != bps or len(set(bps)) != len(bps):
            raise ValueError("breakpoints must be strictly increasing in [0, pi)")
        if len(matrices) != len(bps):
            raise ValueError("need one matrix per arc")
        self.breakpoints = tuple(bps)
        self.pieces = [AngleMobiusMap(m) for m in matrices]
        self._fix_lifts()
        self._validate(c0_tol, c1_tol)

    def _arc(self, i):
        bps = self.breakpoints
        lo = bps[i]
        hi = bps[i + 1] if i + 1 < len(bps) else bps[0] + math.pi
        return lo, hi

    def _fix_lifts(self):
        # Build a continuous increasing lift along [b0, b0 + pi], one dense
        # table per piece, each anchored to the end value of the previous
        # piece (the raw atan2 angle is only defined mod pi).
        prev_end = None
        for i, piece in enumerate(self.pieces):
            lo, hi = self._arc(i)
            ts = np.linspace(lo, hi, 513)
            w = piece._raw(ts)
            vals = np.unwrap(np.arctan2(w[..., 1], w[..., 0]), period=math.pi)
            anchor = lo if prev_end is None else prev_end
            vals = vals + round((anchor - vals[0]) / math.pi) * math.pi
            prev_end = float(vals[-1])
            piece._lift_table = (ts, vals)

    def _lifted(self, piece, t):
        ts, vals = piece._lift_table
        base = np.arctan2(piece._raw(t)[..., 1], piece._raw(t)[..., 0])
        ref = np.interp(t, ts, vals)
        k = np.round((ref - base) / math.pi)
        return base + k * math.pi

    def piece_index(self, t):
        """Index of the arc containing angle t (reduced mod pi)."""
        bps = np.asarray(self.breakpoints)
        tr = (np.asarray(t, dtype=float) - bps[0]) % math.pi + bps[0]
        idx = np.searchsorted(bps, tr, side="right") - 1
        return np.clip(idx, 0, len(bps) - 1)

    def jets(self, t):
        t_in = np.asarray(t, dtype=float)
        t1 = np.atleast_1d(t_in).ravel()
        bps = np.asarray(self.breakpoints)
        shift = np.floor((t1 - bps[0]) / math.pi)
        tr = t1 - shift * math.pi
        idx = np.clip(np.searchsorted(bps, tr + 1e-15, side="right") - 1, 0,
                      len(bps) - 1)
        phi = np.empty_like(tr)
        d1 = np.empty_like(tr)
        d2 = np.empty_like(tr)
        d3 = np.empty_like(tr)
        for i, piece in enumerate(self.pieces):
            sel = idx == i
            if not np.any(sel):
                continue
            _, a, b, c = piece.jets(tr[sel])
            phi[sel] = self._lifted(piece, tr[sel])
            d1[sel], d2[sel], d3[sel] = a, b, c
        out = (phi + shift * math.pi, d1, d2, d3)
        return tuple(c.reshape(t_in.shape) for c in out)

    def jets_checked(self, t):
        """Like ``jets`` but refuses breakpoints (no third derivative there)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        for b in self.breakpoints:
            if np.any(np.abs(np.remainder(ts - b, math.pi)) < 1e-12) or np.any(
                np.abs(np.remainder(ts - b, math.pi) - math.pi) < 1e-12
            ):
                raise NotC3AtPoint(f"breakpoint {b} has no third derivative")
        return self.jets(t)

    def _validate(self, c0_tol, c1_tol):
        n = len(self.pieces)
        for i in range(n):
            lo, hi = self._arc(i)
            j = (i + 1) % n
            lo_j = self._arc(j)[0] + (math.pi if j == 0 else 0.0)
            here = self.jets_at_piece(i, hi)
            shift = math.pi if j == 0 else 0.0
            there = self.jets_at_piece(j, lo_j - shift)
            dv = abs(here[0] - (there[0] + shift))
            if dv > max(c0_tol, 1e-9):
                raise ValueError(f"C0 mismatch at breakpoint {hi % math.pi}: {dv}")
            dd = abs(here[1] - there[1])
            if dd > c1_tol:
                raise ValueError(f"C1 mismatch at breakpoint {hi % math.pi}: {dd}")
            ts = np.linspace(lo + 1e-9, hi - 1e-9, 257)
            if np.any(self.pieces[i].jets(ts)[1] <= 0):
                raise ValueError(f"piece {i} is not orientation preserving")
        # total winding: an increasing lift must advance by exactly pi
        start = self.jets_at_piece(0, self._arc(0)[0])[0]
        end = self.jets_at_piece(n - 1, self._arc(n - 1)[1])[0]
        if abs(end - start - math.pi) > 1e-9:
            raise ValueError("piecewise map does not wind once around")

    def jets_at_piece(self, i, t):
        piece = self.pieces[i]
        tr = np.asarray(t, dtype=float)
        _, d1, d2, d3 = piece.jets(tr)
        return float(self._lifted(piece, tr)), float(d1), float(d2), float(d3)


def mobius_through(a, target_a, b, target_b, deriv_a):
    """The Mobius matrix whose angle action sends a, b to the targets
    with prescribed derivative at a.

    Built projectively: conjugate a diagonal map by the frames spanned
    by the source/target directions; the diagonal entry is fixed by the
    derivative.  Works across the tan chart singularity.
    """
    pa = np.array([math.cos(a), math.sin(a)])
    pb = np.array([math.cos(b), math.sin(b)])
    pA = np.array([math.cos(target_a), math.sin(target_a)])
    pB = np.array([math.cos(target_b), math.sin(target_b)])
    s = np.linalg.inv(np.column_stack([pa, pb]))
    t_inv = np.column_stack([pA, pB])
    # angle derivative of x -> M x at a is det(M)/|M pa|^2 (|pa| = 1)
    base = t_inv @ s
    d_base = np.linalg.det(base) / np.dot(base @ pa, base @ pa)
    # M pa = mu * pA, so |M pa|^2 scales by mu^2 while det scales by mu:
    # the angle derivative at a is d_base / mu
    mu = d_base / float(deriv_a)
    m = t_inv @ np.diag([mu, 1.0]) @ s
    if np.linalg.det(m) <= 0:
        raise ValueError("orientation-reversing data")
    return m


def _piece_k(a, target_a, b, target_b):
    """Product (derivative at a) * (derivative at b) over the Mobius
    family interpolating a -> target_a, b -> target_b.

    The family is T^{-1} diag(mu, 1) S; the end derivatives are d0/mu
    and mu*c0, so their product is independent of mu.
    """
    m = mobius_through(a, target_a, b, target_b, 1.0)
    pb = np.array([math.cos(b), math.sin(b)])
    return np.linalg.det(m) / np.dot(m @ pb, m @ pb)


def four_piece_c1_map(breaks=(0.3, 1.0, 1.8, 2.5),
                      images=(0.3, 1.35, 1.8, None), skew=1.5):
    """A genuinely non-projective C^1 piecewise-Mobius circle map.

    Piecewise-Mobius circle maps are rigid at low piece counts: a map
    agreeing with another Mobius map to first order at two points equals
    it (so two pieces collapse), and with three pieces the C^1 closing
    condition has the interpolating global Mobius map as its unique
    solution (the end derivative of a piece with prescribed endpoint
    images is k / (start derivative), so the cyclic condition fixes the
    start derivative uniquely).  Four pieces leave one modulus: the
    images must balance k1 k3 = k2 k4, after which every choice of the
    start derivative closes up; ``skew`` != 1 picks a non-Mobius one.

    The image of the last turning point is solved from the balance
    condition (pass ``images[3] = None``).
    """
    t = [b % math.pi for b in breaks]
    z = list(images)
    if sorted(t) != t:
        raise ValueError("turning points must be increasing in [0, pi)")

    def balance(z4):
        zz = [z[0], z[1], z[2], z4]
        ks = []
        for i in range(4):
            a = t[i]
            b = t[i + 1] if i < 3 else t[0] + math.pi
            ta = zz[i]
            tb = zz[i + 1] if i < 3 else zz[0] + math.pi
            ks.append(_piece_k(a, ta, b, tb))
        return math.log(ks[0] * ks[2]) - math.log(ks[1] * ks[3]), ks

    if z[3] is None:
        lo = z[2] + 0.05
        hi = z[0] + math.pi - 0.05
        flo = balance(lo)[0]
        fhi = balance(hi)[0]
        if flo * fhi > 0:
            raise ValueError("no balanced closing image; adjust the data")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = balance(mid)[0]
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        z[3] = 0.5 * (lo + hi)
    gap, ks = balance(z[3])
    if abs(gap) > 1e-9:
        raise ValueError(f"images do not balance: residual {gap}")
    # start derivative of the global interpolant would be the geometric
    # mean scale; skew it to leave the Mobius locus
    d = float(skew)
    mats = []
    for i in range(4):
        a = t[i]
        b = t[i + 1] if i < 3 else t[0] + math.pi
        ta = z[i]
        tb = z[i + 1] if i < 3 else z[0] + math.pi
        m = mobius_through(a, ta, b, tb, d)
        mats.append(m)
        pb = np.array([math.cos(b), math.sin(b)])
        d = np.linalg.det(m) / np.dot(m @ pb, m @ pb)
    return PiecewiseMobiusAngleMap(t, mats)


# ---------------------------------------------------------------------------
# Polygonal lightlike curves
# ---------------------------------------------------------------------------

def _cyclically_oriented(values):
    """True if the tuple of reals is cyclically increasing (with wrap)."""
    vals = [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]
    if len(vals) > 1 and vals[-1] == vals[0]:
        vals.pop()
    if len(vals) <= 2:
        return True
    drops = sum(1 for i in range(len(vals)) if vals[i] > vals[(i + 1) % len(vals)])
    return drops <= 1


@dataclass
class PolygonalCurve:
    """A closed loop of alternating vertical/horizontal lightlike segments.

    The representing tuple (a_1, ..., a_2k) chains so that consecutive
    pairs alternate between vertical segments (constant x) and horizontal
    segments (constant y), closing up cyclically.  Vertical segments are
    the pairs (a_{2i-1}, a_{2i}) with 1-based indexing, i.e. tuple entries
    (0, 1), (2, 3), ...
    """

    vertices: tuple

    def __post_init__(self):
        pts = list(self.vertices)
        if len(pts) % 2 != 0 or len(pts) < 4:
            raise NotCyclic("a polygonal curve needs an even tuple of >= 4 points")
        n = len(pts)
        for i in range(0, n, 2):
            a, b = pts[i], pts[i + 1]
            if abs(a.x - b.x) > 1e-12:
                raise NotCyclic(f"segment {i} -> {i+1} is not vertical")
            c = pts[(i + 2) % n]
            if abs(b.y - c.y) > 1e-12:
                raise NotCyclic(f"segment {i+1} -> {i+2} is not horizontal")
        if not _cyclically_oriented([p.x for p in pts]):
            raise NotCyclic("x-projections are not cyclically oriented")
        if not _cyclically_oriented([p.y for p in pts]):
            raise NotCyclic("y-projections are not cyclically oriented")

    def vertical_segments(self):
        pts = self.vertices
        return [
            (pts[i], pts[i + 1])
            for i in range(0, len(pts), 2)
            if abs(pts[i].y - pts[i + 1].y) > 0
        ]


def diamond_curve(x0, x1, y0, y1):
    """The boundary of the diamond [x0, x1] x [y0, y1] as a polygonal curve."""
    return PolygonalCurve(
        (
            AnnulusPoint(x0, y0),
            AnnulusPoint(x0, y1),
            AnnulusPoint(x1, y1),
            AnnulusPoint(x1, y0),
        )
    )


def normalize_polygonal(p: PolygonalCurve) -> PolygonalCurve:
    """Minimal representing tuple tracing the same point set.

    Repeated adjacent vertices bound a degenerate segment; dropping the
    pair joins the two neighbouring collinear segments.
    """
    pts = list(p.vertices)
    changed = True
    while changed and len(pts) > 4:
        changed = False
        n = len(pts)
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            if a.x == b.x and a.y == b.y:
                hi, lo = max(i, (i + 1) % n), min(i, (i + 1) % n)
                if hi == n - 1 and lo == 0:
                    del pts[n - 1]
                    del pts[0]
                else:
                    del pts[hi]
                    del pts[lo]
                changed = True
                break
    return PolygonalCurve(tuple(pts))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _axis_nodes(segments, cells, scheme):
    """Per-axis node/weight arrays for a breakpoint-respecting partition."""
    nodes, weights = [], []
    total = sum(hi - lo for lo, hi in segments)
    for lo, hi in segments:
        length = hi - lo
        n = max(1, int(round(cells * length / total)))
        edges = np.linspace(lo, hi, n + 1)
        h = np.diff(edges)
        left = edges[:-1]
        if scheme == "midpoint":
            nodes.append(left + 0.5 * h)
            weights.append(h)
        elif scheme == "gauss2":
            for frac in _GAUSS2:
                nodes.append(left + frac * h)
                weights.append(0.5 * h)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes, kind="stable")
    return nodes[order], weights[order]


class QuadratureGrid:
    """Tensor-product quadrature over a chart rectangle or the full torus.

    Nodes are strictly interior to their cells (midpoint or two-point
    Gauss per cell and axis), so cell edges may be placed on breakpoint
    lines and the diagonal never receives a node by construction.  A
    diagonal band of half-width ``band`` (in |x - y|, or angular distance
    for periodic grids) is tagged; ``integrate`` either skips banded
    nodes or substitutes a supplied closure density there.
    """

    def __init__(self, x_segments, y_segments, cells, scheme="gauss2",
                 band=0.0, periodic=False, level=0):
        self.x_segments = tuple(map(tuple, x_segments))
        self.y_segments = tuple(map(tuple, y_segments))
        self.cells = int(cells)
        self.scheme = scheme
        self.band = float(band)
        self.periodic = bool(periodic)
        self.level = int(level)
        xn, xw = _axis_nodes(self.x_segments, self.cells, scheme)
        yn, yw = _axis_nodes(self.y_segments, self.cells, scheme)
        # read-only broadcast views of the axis nodes: a grid stores one
        # dense array (W), not three
        self.X, self.Y = np.meshgrid(xn, yn, indexing="ij", copy=False)
        self.X.flags.writeable = self.Y.flags.writeable = False
        self.W = np.outer(xw, yw)
        d = self.X - self.Y
        if self.periodic:
            dist = np.abs(np.remainder(d + math.pi / 2, math.pi) - math.pi / 2)
        else:
            dist = np.abs(d)
        self.band_mask = dist < self.band if self.band > 0 else np.zeros_like(d, bool)
        self.excluded_weight = float(np.sum(self.W[self.band_mask]))

    # -- descriptors ------------------------------------------------------
    @property
    def area(self):
        ax = sum(hi - lo for lo, hi in self.x_segments)
        ay = sum(hi - lo for lo, hi in self.y_segments)
        return ax * ay

    def describe(self):
        return {
            "cells": self.cells,
            "scheme": self.scheme,
            "level": self.level,
            "band": self.band,
            "periodic": self.periodic,
            "x_segments": [list(s) for s in self.x_segments],
            "y_segments": [list(s) for s in self.y_segments],
        }

    # -- refinement ---------------------------------------------------------
    def refine(self, band_factor=1.0):
        return QuadratureGrid(
            self.x_segments, self.y_segments, 2 * self.cells, self.scheme,
            band=self.band * band_factor, periodic=self.periodic,
            level=self.level + 1,
        )

    # -- integration --------------------------------------------------------
    def off_band_nodes(self):
        """The (X, Y) node arrays ``integrate`` passes to its density."""
        out = ~self.band_mask
        return self.X[out], self.Y[out]

    def integrate(self, density, closure=None):
        """Weighted sum of ``density(X, Y)`` off the band.

        ``closure(X, Y)`` supplies the integrand density on banded nodes
        (the diagonal limit of an integrand that extends continuously);
        with no closure, banded nodes contribute zero.  The reduction is
        numpy's pairwise summation: deterministic for a fixed grid.
        """
        vals = np.zeros_like(self.W)
        v = np.asarray(density(*self.off_band_nodes()), dtype=float)
        if not np.all(np.isfinite(v)):
            raise NonFiniteDensity("density is not finite on quadrature nodes")
        vals[~self.band_mask] = v
        if closure is not None and np.any(self.band_mask):
            c = np.asarray(closure(self.X[self.band_mask], self.Y[self.band_mask]),
                           dtype=float)
            if not np.all(np.isfinite(c)):
                raise NonFiniteDensity("band closure is not finite")
            vals[self.band_mask] = c
        return float(np.sum(vals * self.W))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x,y,w\n")
            for x, y, w in zip(self.X.ravel(), self.Y.ravel(), self.W.ravel()):
                fh.write(f"{x!r},{y!r},{w!r}\n")


def box_grid(box, level=0, base_cells=32, scheme="gauss2", band=0.0,
             x_breaks=(), y_breaks=()):
    """Grid over a rectangle [x0, x1] x [y0, y1] at a refinement level."""
    x0, x1, y0, y1 = map(float, box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty rectangle")
    xb = sorted({x0, x1, *(b for b in x_breaks if x0 < b < x1)})
    yb = sorted({y0, y1, *(b for b in y_breaks if y0 < b < y1)})
    return QuadratureGrid(
        list(zip(xb[:-1], xb[1:])),
        list(zip(yb[:-1], yb[1:])),
        base_cells * 2 ** level,
        scheme=scheme,
        band=band,
        level=level,
    )


def torus_grid(level=0, base_cells=48, scheme="gauss2", band=0.05,
               breakpoints=(), origin=0.0):
    """Grid over the full torus [o, o + pi)^2 in angle coordinates."""
    o = float(origin)
    brs = sorted({(b - o) % math.pi + o for b in breakpoints})
    edges = [o, *brs, o + math.pi]
    edges = sorted(set(edges))
    segs = list(zip(edges[:-1], edges[1:]))
    return QuadratureGrid(
        segs, segs, base_cells * 2 ** level, scheme=scheme, band=band,
        periodic=True, level=level,
    )
