"""Charts, scalar fields, circle maps, polygonal curves and quadrature.

Coordinate conventions used throughout the package:

* A point of the projective line carries an affine coordinate ``x``; the
  angle coordinate ``theta`` (period pi) is related by ``x = tan(theta)``.
  ``CHARTS`` holds what the formulas need of each: the coordinate
  difference, its derivative and the Schwarzian cocycle.
* The annulus is the product of two projective lines minus the diagonal;
  a chart point is the pair ``(x, y)`` with ``x != y``.
* Scalar fields carry *exact* partial derivatives: every field object
  reports the jet ``(v, vx, vy, vxy, vxx, vyy)``; nothing in the library
  silently falls back to finite differencing.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DiagonalPoint,
    NonFiniteDensity,
    NotCyclic,
    OutOfChart,
)

DIAG_TOL = 1e-14


# ---------------------------------------------------------------------------
# Annulus points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusPoint:
    """A point (x, y) of the annulus in an affine chart."""

    x: float
    y: float

    def __post_init__(self):
        if abs(self.x - self.y) <= DIAG_TOL:
            raise DiagonalPoint(f"({self.x}, {self.y}) lies on the diagonal")


class _Chart(NamedTuple):
    diff: Callable      # D(d), the coordinate difference of two points at d
    diff1: Callable     # D'(d); D'(d) / D(d) is the log-derivative
    cocycle: Callable   # phi' -> the chart's term of the projective Schwarzian


# The two coordinates of the projective line, keyed by ``coords``: an
# affine chart, D(d) = d, and the angle line of period pi, D(d) = sin d,
# whose Schwarzian cocycle is 2(phi'^2 - 1).  Every formula that differs
# between the two reads D, D'/D and the cocycle from here.
CHARTS = {
    "affine": _Chart(lambda d: d, lambda d: 1.0, lambda f1: 0.0),
    "angle": _Chart(np.sin, np.cos, lambda f1: 2.0 * (f1 ** 2 - 1.0)),
}


# ---------------------------------------------------------------------------
# Scalar fields with exact jets
# ---------------------------------------------------------------------------

_JET_COMPONENTS = ("v", "vx", "vy", "vxy", "vxx", "vyy")


class Jet2:
    """Second order jet of a scalar field at (possibly arrays of) points.

    Each component is handed over as a value or as a zero-argument
    callable; a callable is called when its component is first read, and
    its result is kept.  So a reader that takes ``v`` and ``vxy`` never
    forms the other four, and a numerical fault in a component nobody
    reads does not raise.  Iterating yields all six, in the order
    ``(v, vx, vy, vxy, vxx, vyy)``.
    """

    __slots__ = _JET_COMPONENTS + ("_lazy",)

    def __init__(self, v, vx, vy, vxy, vxx, vyy):
        lazy = {}
        for name, c in zip(_JET_COMPONENTS, (v, vx, vy, vxy, vxx, vyy)):
            if callable(c):
                lazy[name] = c
            else:
                setattr(self, name, c)
        self._lazy = lazy

    def __getattr__(self, name):
        # reached only for a component whose slot is still empty
        if name not in _JET_COMPONENTS:
            raise AttributeError(name)
        value = self._lazy[name]()
        setattr(self, name, value)
        del self._lazy[name]
        return value

    def __iter__(self):
        return (getattr(self, name) for name in _JET_COMPONENTS)


def _componentwise(fn):
    """The jet whose component ``name`` is ``fn(name)``, built when read."""
    return Jet2(*(functools.partial(fn, name) for name in _JET_COMPONENTS))


def _broadcast_zero(x, y):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)


class ScalarField:
    """A real function on an annulus chart with exact partials.

    Subclasses implement ``_jet(x, y) -> Jet2``.  It must broadcast ``x``
    against ``y`` and return components of the broadcast shape, so an
    open mesh, (n, 1) against (1, m), gives (n, m) jets; ``jet`` hands it
    every node it is given.  A component may be handed to ``Jet2`` as a
    callable, which runs when the component is first read, so a reader
    pays only for the partials it takes, and a numerical fault in a
    component nobody reads does not raise; each callable must evaluate
    the expression the component always has, so that the bits do not
    depend on which partials were read before it.  A field's ``support_box`` is metadata: a
    closed rectangle outside which the field and all its partials vanish,
    which the quadrature reads to evaluate the field on that block only,
    and whose edges are the field's break lines.  A bump vanishes there by
    its own formula; ``ClippedField`` is the one field that cuts another
    to its box when evaluated.
    """

    support_box = None  # (x0, x1, y0, y1) or None

    def jet(self, x, y):
        return self._jet(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def _jet(self, x, y):
        raise NotImplementedError

    def break_lines(self):
        """The lines x = c and y = c across which the field may lose
        smoothness, as (x values, y values): the edges of the support box
        for a field that has one, none otherwise."""
        if self.support_box is None:
            return (), ()
        x0, x1, y0, y1 = self.support_box
        return (x0, x1), (y0, y1)

    # pointwise accessors -------------------------------------------------
    def value(self, x, y):
        return self.jet(x, y).v

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

    def __mul__(self, c):
        return ScaledField(self, float(c))

    __rmul__ = __mul__


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


def union_lines(fs):
    """The union of the break lines of the fields ``fs``, each axis sorted."""
    xs, ys = set(), set()
    for f in fs:
        fx, fy = f.break_lines()
        xs.update(fx)
        ys.update(fy)
    return tuple(sorted(xs)), tuple(sorted(ys))


def _union_box(a, b):
    if a.support_box is None or b.support_box is None:
        return None
    ax0, ax1, ay0, ay1 = a.support_box
    bx0, bx1, by0, by1 = b.support_box
    return (min(ax0, bx0), max(ax1, bx1), min(ay0, by0), max(ay1, by1))


class SumField(ScalarField):
    """a + b with its ``terms`` held flat: those of a sum ``a``, then b as
    one term even if it is a sum.  Each jet component adds the terms left
    to right, the order of the binary sums, and no walk over a long sum
    recurses once per term."""

    def __init__(self, a, b):
        self.terms = (a.terms if isinstance(a, SumField) else (a,)) + (b,)
        self.support_box = _union_box(a, b)

    def _jet(self, x, y):
        jets = [f.jet(x, y) for f in self.terms]
        return _componentwise(lambda name: functools.reduce(
            operator.add, (getattr(j, name) for j in jets)))

    jet = ScalarField.jet  # its own entry, which ``perfbench/spans.py`` wraps

    def break_lines(self):
        return union_lines(self.terms)


class ScaledField(ScalarField):
    def __init__(self, a, c):
        self.a, self.c = a, float(c)
        self.support_box = a.support_box

    def _jet(self, x, y):
        j, c = self.a.jet(x, y), self.c
        return _componentwise(lambda name: c * getattr(j, name))

    jet = ScalarField.jet  # as on SumField

    def break_lines(self):
        return self.a.break_lines()


class PolynomialField(ScalarField):
    """sum_ij coeffs[i, j] x^i y^j with exact partials."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))

    def _jet(self, x, y):
        from numpy.polynomial import polynomial as P

        x, y = np.broadcast_arrays(x, y)  # polyval2d takes equal shapes
        c = self.coeffs
        cx = P.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, 1))
        cy = P.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((1, 1))
        cxy = P.polyder(cx, axis=1) if cx.shape[1] > 1 else np.zeros((1, 1))
        cxx = P.polyder(cx, axis=0) if cx.shape[0] > 1 else np.zeros((1, 1))
        cyy = P.polyder(cy, axis=1) if cy.shape[1] > 1 else np.zeros((1, 1))
        return Jet2(*(functools.partial(P.polyval2d, x, y, k)
                      for k in (c, cx, cy, cxy, cxx, cyy)))


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
        if not all(h > 0 and math.isfinite(h * h) for h in (self.hx, self.hy)):
            raise ValueError("halfwidth must be positive, and its square finite")
        self.support_box = (
            self.cx - self.hx,
            self.cx + self.hx,
            self.cy - self.hy,
            self.cy + self.hy,
        )

    def _jet(self, x, y):
        # each axis is clamped and raised on its own, so on an open mesh the
        # powers cost O(rows + columns) and only the products O(rows * columns);
        # with p >= 3 every factor below vanishes at |X| = 1, so the clamp
        # makes every component exactly zero off the open box: it is the
        # bump's only clip
        X = np.clip((x - self.cx) / self.hx, -1.0, 1.0)
        Y = np.clip((y - self.cy) / self.hy, -1.0, 1.0)
        p = self.p
        sx, sy = 1.0 - X ** 2, 1.0 - Y ** 2
        sx1, sy1 = sx ** (p - 1), sy ** (p - 1)
        gx = sx ** p
        gy = sy ** p
        gx1 = -2.0 * p * X * sx1 / self.hx
        gy1 = -2.0 * p * Y * sy1 / self.hy
        gx2 = (-2.0 * p * sx1
               + 4.0 * p * (p - 1) * X ** 2 * sx ** (p - 2)) / self.hx ** 2
        gy2 = (-2.0 * p * sy1
               + 4.0 * p * (p - 1) * Y ** 2 * sy ** (p - 2)) / self.hy ** 2
        a = self.amp

        def product(fx, fy):
            # a negative factor leaves -0.0 off the box; adding 0.0 turns
            # every -0.0 into the +0.0 of the zero extension and keeps every
            # other value's bits (in place on the fresh array, 0-d inputs
            # give scalars)
            c = a * fx * fy
            return np.add(c, 0.0, out=c if isinstance(c, np.ndarray) else None)

        # the per-axis factors above cost O(rows + columns); each full-mesh
        # product is formed when its component is read
        return Jet2(*(functools.partial(product, fx, fy) for fx, fy in (
            (gx, gy), (gx1, gy), (gx, gy1), (gx1, gy1), (gx2, gy), (gx, gy2))))


def bump_field(center, halfwidth, amplitude=1.0, power=4):
    return BumpField(center, halfwidth, amplitude, power)


class DeSitterLogFactor(ScalarField):
    """v0(x, y) = (1/2) log(2 / D(x - y)^2), the de Sitter conformal factor,
    with D the coordinate difference of the chart ``coords``."""

    def __init__(self, coords="affine"):
        self.chart = CHARTS[coords]

    def _jet(self, x, y):
        d = x - y
        s = self.chart.diff(d)
        s2 = s ** 2
        # shared by two and three components: built once, when first read
        cot = functools.cache(lambda: self.chart.diff1(d) / s)
        q = functools.cache(lambda: 1.0 / s2)
        return Jet2(lambda: 0.5 * np.log(2.0 / s2), lambda: -cot(), cot,
                    lambda: -q(), q, q)


class UniformizingFactor(ScalarField):
    """The conformal factor of a pulled-back de Sitter metric.

    For a diagonal split map Phi(x, y) = (phi(x), phi(y)),

        Phi* g0 = e^{2u} g0,
        u = (1/2) log( D(x, y)^2 phi'(x) phi'(y) / D(phi x, phi y)^2 ),

    where D is the coordinate difference of the map's chart (``CHARTS``).
    Exact jets need phi C^3; for piecewise-projective maps the factor is
    identically zero when both arguments sit in the same piece, and that
    shortcut is taken exactly (it also avoids the catastrophic
    cancellation near the diagonal).
    """

    def __init__(self, phi):
        self.phi = phi
        self.chart = CHARTS[phi.coords]

    def _jet(self, x, y):
        jx, jy = self.phi.jets(x), self.phi.jets(y)
        # a piecewise map's jets name the piece of every angle
        same = (jx.piece == jy.piece
                if isinstance(self.phi, PiecewiseMobiusAngleMap) else None)
        fx, f1x, f2x, f3x = jx
        fy, f1y, f2y, f3y = jy
        d = x - y
        dd = fx - fy
        diff, diff1 = self.chart.diff, self.chart.diff1
        sd, sD = diff(d), diff(dd)
        sd2, sD2 = sd ** 2, sD ** 2
        # the intermediates that several components share, each built once,
        # when the first of them is read
        cot_d = functools.cache(lambda: diff1(d) / sd)
        cot_D = functools.cache(lambda: diff1(dd) / sD)
        inv2_d = functools.cache(lambda: 1.0 / sd2)
        inv2_D = functools.cache(lambda: 1.0 / sD2)

        def vx():
            return cot_d() + f2x / (2.0 * f1x) - f1x * cot_D()

        def vy():
            return -cot_d() + f2y / (2.0 * f1y) + f1y * cot_D()

        def vxx():
            sx = f3x / (2.0 * f1x) - f2x ** 2 / (2.0 * f1x ** 2)
            return -inv2_d() + sx - f2x * cot_D() + f1x ** 2 * inv2_D()

        def vyy():
            sy = f3y / (2.0 * f1y) - f2y ** 2 / (2.0 * f1y ** 2)
            return -inv2_d() + sy + f2y * cot_D() + f1y ** 2 * inv2_D()

        parts = (lambda: 0.5 * np.log(sd2 * f1x * f1y / sD2), vx, vy,
                 lambda: inv2_d() - f1x * f1y * inv2_D(), vxx, vyy)
        if same is not None:
            # the same-piece nodes are cut to zero in each component read
            parts = (functools.partial(_where_zero, same, c) for c in parts)
        return Jet2(*parts)

    def diagonal_limit_density(self, x):
        """Limit of u * (de Sitter density) / (x - y)^2-free form.

        Returns the diagonal limit of u / D^2, namely a twelfth of the
        projective Schwarzian: the chart Schwarzian plus the chart's
        cocycle, 2(phi'^2 - 1) in angle coordinates.
        """
        # a 0-d x goes through the array loops as one element: numpy's
        # scalar powers can differ from them in the last bits
        x = np.asarray(x, dtype=float)
        _, f1, f2, f3 = self.phi.jets(x.reshape(-1))
        s = _schwarzian(f1, f2, f3) + self.chart.cocycle(f1)
        return (s / 12.0).reshape(x.shape)


def _schwarzian(d1, d2, d3):
    """The Schwarzian d3/d1 - (3/2)(d2/d1)^2 of a map from its derivatives."""
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def _where_zero(mask, component):
    return np.where(mask, 0.0, component())


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
            lambda: j.v,
            lambda: j.vx * dpx,
            lambda: j.vy * dpy,
            lambda: j.vxy * dpx * dpy,
            lambda: j.vxx * dpx ** 2 + j.vx * d2px,
            lambda: j.vyy * dpy ** 2 + j.vy * d2py,
        )


class ClippedField(ScalarField):
    """A field set identically to zero outside a compact rectangle."""

    def __init__(self, inner, box):
        self.inner = inner
        self.support_box = tuple(float(b) for b in box)

    def _jet(self, x, y):
        # the inner field sees only the nodes inside the closed box: all of
        # them as given (the block ``integrate`` hands a boxed field), else
        # gathered flat, with each component scattered into zeros of the
        # broadcast shape when it is read
        x0, x1, y0, y1 = self.support_box
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        if np.all(inside):
            return self.inner.jet(x, y)
        x, y = np.broadcast_arrays(x, y)
        idx = np.flatnonzero(inside)
        j = self.inner.jet(x.ravel()[idx], y.ravel()[idx])

        def scatter(name):
            full = np.zeros(x.size)
            full[idx] = getattr(j, name)
            return full.reshape(x.shape)

        return _componentwise(scatter)

    def break_lines(self):
        # the box edges, and the inner field's lines that cross the box
        (x0, x1, y0, y1), (ix, iy) = self.support_box, self.inner.break_lines()
        return (tuple(sorted({x0, x1, *(c for c in ix if x0 < c < x1)})),
                tuple(sorted({y0, y1, *(c for c in iy if y0 < c < y1)})))


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

    def jets(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.jets(t)[0]

    def compose(self, other):
        return ComposedMap(self, other)


class IdentityMap(CircleMap):
    coords = "angle"

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        zero = np.zeros_like(t)
        return t, one, zero, zero


# the largest entry of a Mobius matrix's det-1 form whose angle jets stay
# finite: phi''' stays below about 1e302
_MOBIUS_MAX_ENTRY = 1e50


class AngleMobiusMap(CircleMap):
    """The projective action of an SL(2, R) matrix on the angle line.

    Angles parametrize directions (cos t, sin t); the action is smooth and
    pi-periodic with phi'(t) = 1/|M v(t)|^2 > 0.
    """

    coords = "angle"

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):  # an inf det is refused below
            det = np.linalg.det(m)
        if det < sys.float_info.min and m.any():
            # a det that may have underflowed: m over its largest entry has
            # entries of at most 1, whose det keeps the digits m's lost
            m = m / np.max(np.abs(m))
            det = np.linalg.det(m)
        if det <= 0:
            raise ValueError("matrix must have positive determinant")
        if det == math.inf:
            raise ValueError("matrix determinant overflows")
        self.m = m / math.sqrt(det)
        # phi''' reaches about the sixth power of the det-1 form's largest entry
        entry = float(np.max(np.abs(self.m)))
        if entry > _MOBIUS_MAX_ENTRY:
            raise ValueError(f"matrix's det-1 form has an entry of {entry:.3g}, "
                             f"past {_MOBIUS_MAX_ENTRY:g}: its angle jets would "
                             "overflow")

    def jets(self, t):
        return _mobius_angle_jets(self.m, np.asarray(t, dtype=float))


def _mobius_angle_jets(m, t):
    """The raw angle of M v(t) and its first three derivatives in t, for
    the matrix entries m = ((a, b), (c, d)): numbers, or arrays of the
    shape of t that give every angle its own matrix."""
    # w = M v and w' = M v' for v = (cos t, sin t), written out
    # elementwise rather than as a matrix product, so that an angle gets
    # the same bits whatever array it comes in; w'' = -w
    (a, b), (c, d) = m
    cos, sin = np.cos(t), np.sin(t)
    wx, wy = a * cos + b * sin, c * cos + d * sin
    wpx, wpy = b * cos - a * sin, d * cos - c * sin
    n2 = wx ** 2 + wy ** 2
    dot1 = wx * wpx + wy * wpy            # <w, w'>
    # |w'|^2 and <w, w''> = -|w|^2
    np2 = wpx ** 2 + wpy ** 2
    phi = np.arctan2(wy, wx)
    d1 = 1.0 / n2
    # d/dt |w|^2 = 2<w,w'> ; d/dt <w,w'> = |w'|^2 - |w|^2
    d2 = -2.0 * dot1 / n2 ** 2
    d3 = -2.0 * (np2 - n2) / n2 ** 2 + 8.0 * dot1 ** 2 / n2 ** 3
    return phi, d1, d2, d3


class SineFlowMap(CircleMap):
    """phi(t) = t + a sin(k t) on the angle line; requires |a k| < 1."""

    coords = "angle"

    def __init__(self, amplitude, frequency=2):
        if frequency % 2 != 0:
            raise ValueError("frequency must be even for pi-periodicity")
        # the jets form k ** 3 as an int and convert it to a float
        if abs(int(frequency)) ** 3 > sys.float_info.max:
            raise ValueError("frequency ** 3 must be within the float range")
        if abs(amplitude * frequency) >= 1:
            raise ValueError("|amplitude * frequency| < 1 required")
        self.a = float(amplitude)
        self.k = int(frequency)

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        a, k = self.a, self.k
        kt = k * t
        sin, cos = np.sin(kt), np.cos(kt)
        return (
            t + a * sin,
            1.0 + a * k * cos,
            -a * k ** 2 * sin,
            -a * k ** 3 * cos,
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


def _bisect(below, lo, hi):
    """The point of [lo, hi] where ``below(mid)`` turns from True to False.

    Halves the bracket at most 200 times and stops once a step leaves
    (lo, hi) unchanged, since every later step would repeat it."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        prev = lo, hi
        if below(mid):
            lo = mid
        else:
            hi = mid
        if (lo, hi) == prev:
            break
    return 0.5 * (lo + hi)


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

    @staticmethod
    def _preimage(inner, target):
        if inner.coords != "angle":
            raise ValueError("breakpoint preimages need the angle line")

        def lift(t):  # one-element arrays, to get a batched call's bits
            return float(inner.jets(np.array([t], dtype=float))[0][0])

        flo = lift(0.0)
        # shift the target into the image interval [phi(0), phi(0) + pi)
        t = flo + (float(target) - flo) % math.pi
        return _bisect(lambda mid: lift(mid) < t, 0.0, math.pi) % math.pi

    def jets(self, t):
        g, g1, g2, g3 = self.inner.jets(t)
        f, f1, f2, f3 = self.outer.jets(g)
        return (
            f,
            f1 * g1,
            f2 * g1 ** 2 + f1 * g2,
            f3 * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * g3,
        )


class PieceJets(tuple):
    """The jets (phi, phi', phi'', phi''') of a piecewise map, with
    ``piece``: the index of the arc that holds each angle (reduced mod pi),
    whose piece gave the jets there."""

    def __new__(cls, jets, piece):
        self = super().__new__(cls, jets)
        self.piece = piece
        return self


class PiecewiseMobiusAngleMap(CircleMap):
    """A piecewise SL(2)-projective circle map on the angle line.

    ``breakpoints`` are increasing angles in [0, pi); piece ``i`` acts on
    the arc [breakpoints[i], breakpoints[i+1]].  Construction validates
    continuity and C^1 matching at every breakpoint, and that the map winds
    once around; every piece preserves orientation, since its det-1 matrix
    has phi' = 1/|M v|^2 > 0.
    """

    coords = "angle"

    def __init__(self, breakpoints, matrices):
        bps = [float(b) % math.pi for b in breakpoints]
        if sorted(bps) != bps or len(set(bps)) != len(bps):
            raise ValueError("breakpoints must be strictly increasing in [0, pi)")
        if len(matrices) != len(bps):
            raise ValueError("need one matrix per arc")
        self.breakpoints = tuple(bps)
        self.pieces = [AngleMobiusMap(m) for m in matrices]
        # the matrix entries as (2, 2, pieces): indexed by piece on the last
        # axis, they give every angle its piece's entries
        self._entries = np.stack([p.m for p in self.pieces], axis=-1)
        self._lift_pieces()
        self._validate()

    def _arc(self, i):
        bps = self.breakpoints
        lo = bps[i]
        hi = bps[i + 1] if i + 1 < len(bps) else bps[0] + math.pi
        return lo, hi

    def _lift_pieces(self):
        """The lift of every piece, in closed form.

        A Mobius piece maps an arc shorter than pi onto an arc shorter than
        pi: from its raw start image A forward by span = (B - A) mod pi to
        its raw end image B.  The lift starts at the A nearest the first
        breakpoint and each later arc at the A nearest the end of the one
        before, so the map winds once exactly when the spans add up to pi.
        A single piece maps the whole line: it is lifted on the two halves
        of its arc, cut at ``self._half``.
        """
        arcs = [(i, *self._arc(i)) for i in range(len(self.pieces))]
        if len(arcs) == 1:
            lo, hi = arcs[0][1:]
            self._half = lo + math.pi / 2
            arcs = [(0, lo, self._half), (0, self._half, hi)]
        end, self._spans, self._mids = self.breakpoints[0], [], []
        for i, lo, hi in arcs:
            a, b = self.pieces[i].jets(np.array([lo, hi]))[0]
            start = a + math.pi * round((end - a) / math.pi)
            span = (b - a) % math.pi
            self._spans.append(span)
            self._mids.append(start + span / 2)
            end = start + span

    def _lifted(self, idx, t, raw):
        """The raw angles of the pieces idx at the angles t, moved onto the
        lift by the multiple of pi that brings them within pi/2 of the
        middle of the lifted image arc."""
        mid = (np.asarray(self._mids)[idx] if len(self.pieces) > 1
               else np.where(t < self._half, *self._mids))
        return raw - math.pi * np.round((raw - mid) / math.pi)

    def _locate(self, t):
        """(shift, tr, idx): t = tr + shift * pi with tr in [b0, b0 + pi),
        and the index of the arc that holds tr."""
        bps = np.asarray(self.breakpoints)
        shift = np.floor((t - bps[0]) / math.pi)
        tr = t - shift * math.pi
        idx = np.clip(np.searchsorted(bps, tr + 1e-15, side="right") - 1, 0,
                      len(bps) - 1)
        return shift, tr, idx

    def jets(self, t):
        """The jets, as ``PieceJets`` that also name the piece of each t."""
        t_in = np.asarray(t, dtype=float)
        shift, tr, idx = self._locate(np.atleast_1d(t_in).ravel())
        # one evaluation for all angles, each with its piece's matrix
        raw, d1, d2, d3 = _mobius_angle_jets(self._entries[..., idx], tr)
        out = (self._lifted(idx, tr, raw) + shift * math.pi, d1, d2, d3)
        return PieceJets((c.reshape(t_in.shape) for c in out),
                         idx.reshape(t_in.shape))

    def _validate(self):
        n = len(self.pieces)
        for i in range(n):
            hi = self._arc(i)[1]
            j = (i + 1) % n
            # the lift advances by the sum of the spans: pi when it winds once
            if j == 0 and abs(sum(self._spans) - math.pi) > 1e-9:
                raise ValueError("piecewise map does not wind once around")
            if n > 1:  # a single piece joins itself smoothly
                shift = math.pi if j == 0 else 0.0
                here = self.jets_at_piece(i, hi)
                there = self.jets_at_piece(j, hi - shift)
                dv = abs(here[0] - (there[0] + shift))
                if dv > 1e-9:
                    raise ValueError(f"C0 mismatch at breakpoint {hi % math.pi}: {dv}")
                dd = abs(here[1] - there[1])
                if dd > 1e-10 * max(1.0, abs(here[1])):
                    raise ValueError(f"C1 mismatch at breakpoint {hi % math.pi}: {dd}")

    def jets_at_piece(self, i, t):
        """The lifted jets of piece ``i`` at the angle t, with the bits of
        ``jets`` on an array: t goes in as a one-element array."""
        t = np.array([t], dtype=float)
        raw, d1, d2, d3 = self.pieces[i].jets(t)
        return (float(self._lifted(i, t, raw)[0]), float(d1[0]),
                float(d2[0]), float(d3[0]))


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
    base = t_inv @ s
    d_base = _end_derivative(base, a)
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

    The density 1/sin^2(x - y) is invariant under the projective action,
    so every member has phi'(a) phi'(b) = sin^2(target_b - target_a) /
    sin^2(b - a).
    """
    return math.sin(target_b - target_a) ** 2 / math.sin(b - a) ** 2


def _end_derivative(m, b):
    """The angle derivative of x -> M x at b: det(M) / |M p_b|^2."""
    pb = np.array([math.cos(b), math.sin(b)])
    return np.linalg.det(m) / np.dot(m @ pb, m @ pb)


def _once_around(angles):
    """True if the angles follow each other in order once around the angle
    line (period pi), each gap to the next one resolvable by sin^2."""
    gaps = [(b - a) % math.pi for a, b in zip(angles, angles[1:] + angles[:1])]
    return abs(sum(gaps) - math.pi) <= 1e-9 and min(math.sin(g) ** 2 for g in gaps) > 0


def _closing_image(t, z):
    """The image of t[3] that balances k1 k3 = k2 k4 given z[0], z[1], z[2].

    With the arc factors gathered in c, the balance reads sin(z4 - z3) =
    c sin(Z - z4), where Z = z1 + k pi is the end of the closing arc, the
    first lift of z1 above z3.  On (z3, Z) the quotient of the two sides
    rises from 0 to infinity, so the root is unique and tan z4 =
    (sin z3 + c sin Z) / (cos z3 + c cos Z).
    """
    k1 = _piece_k(t[0], z[0], t[1], z[1])
    k2 = _piece_k(t[1], z[1], t[2], z[2])
    c = math.sqrt(k2 / k1) * abs(math.sin(t[3] - t[2]) / math.sin(t[0] - t[3]))
    if math.floor((z[2] - z[0]) / math.pi) % 2 == 0:  # k odd: sin Z = -sin z1
        c = -c
    theta = math.atan2(math.sin(z[2]) + c * math.sin(z[0]),
                       math.cos(z[2]) + c * math.cos(z[0]))
    return z[2] + (theta - z[2]) % math.pi


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

    The turning points must increase strictly in [0, pi), and the images
    must follow each other in order once around the angle line.  With
    ``images[3] = None`` the image of the last turning point is solved in
    closed form from the balance condition; a given one must balance.
    """
    t = [b % math.pi for b in breaks]
    z = list(images)
    if sorted(t) != t or not _once_around(t):
        raise ValueError("turning points must be increasing in [0, pi)")
    if not _once_around([v for v in z if v is not None]):
        raise ValueError("images must increase cyclically within one turn")
    if z[3] is None:
        z[3] = _closing_image(t, z)
    # piece i sends the arc from t[i] to ends[i] onto z[i] to z_ends[i]
    ends = t[1:] + [t[0] + math.pi]
    z_ends = z[1:] + [z[0] + math.pi]
    ks = [_piece_k(*arc) for arc in zip(t, z, ends, z_ends)]
    gap = math.log(ks[0] * ks[2]) - math.log(ks[1] * ks[3])
    if not abs(gap) <= 1e-9:
        raise ValueError(f"images do not balance: residual {gap}")
    # start derivative of the global interpolant would be the geometric
    # mean scale; skew it to leave the Mobius locus
    d = float(skew)
    mats = []
    for a, ta, b, tb in zip(t, z, ends, z_ends):
        m = mobius_through(a, ta, b, tb, d)
        mats.append(m)
        d = _end_derivative(m, b)
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


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

MAX_GAUSS_ORDER = 16


@functools.lru_cache(maxsize=None)
def _unit_rule(p):
    """The p-point Gauss-Legendre nodes and weights on [0, 1], from
    ``leggauss``: the one node table of the package, read by ``_axis_nodes``
    (box grid axes, the W-volume's t-rule) and ``ArcPairRule``."""
    s, w = np.polynomial.legendre.leggauss(p)
    s, w = (s + 1.0) / 2, w / 2
    s.flags.writeable = w.flags.writeable = False
    return s, w


# the box-grid schemes by name: "gauss{p}" for 1 <= p <= MAX_GAUSS_ORDER
_GAUSS_SCHEMES = {f"gauss{p}": p for p in range(1, MAX_GAUSS_ORDER + 1)}


def gauss_order(scheme):
    """The order p of a box-grid scheme ``"gauss{p}"``, 1 <= p <= 16."""
    p = _GAUSS_SCHEMES.get(scheme)
    if p is None:
        raise ValueError(f"scheme {scheme!r} is not gauss{{p}} with "
                         f"1 <= p <= {MAX_GAUSS_ORDER}")
    return p


def _cell_counts(segments, cells):
    """Cells per segment: about ``cells`` in all, by length, at least one each."""
    total = sum(hi - lo for lo, hi in segments)
    return [max(1, round(cells * (hi - lo) / total)) for lo, hi in segments]


def _axis_nodes(segments, cells, scheme):
    """Sorted per-axis nodes and weights: each segment cut into uniform
    cells (about ``cells`` over all segments, at least one per segment),
    each cell carrying the Gauss rule of ``scheme``.

    All cells of all segments are formed in one array pass.  A segment
    [lo, hi] of n cells has the edges of ``np.linspace(lo, hi, n + 1)``:
    k * step + lo with step = (hi - lo) / n (k / n * (hi - lo) + lo where
    that step underflows to zero), and hi itself at the end.
    """
    s, w = _unit_rule(gauss_order(scheme))
    counts = _cell_counts(segments, cells)
    seg = np.array(segments)
    lo = seg[:, :1]
    n = np.array(counts, dtype=float)[:, None]
    # one row of edges per segment, aligned right: edge k of a segment of n
    # cells sits in column k + max(counts) - n, so every segment ends in the
    # last column, and the columns before its first edge are padding
    k = np.arange(-max(counts), 1.0) + n
    delta = seg[:, 1:] - lo
    step = delta / n
    edges = np.where(step == 0, k / n * delta, k * step) + lo
    edges[:, -1] = seg[:, 1]
    keep = k[:, 1:] > 0
    left = edges[:, :-1][keep][:, None]
    h = (edges[:, 1:] - edges[:, :-1])[keep][:, None]
    return (left + s * h).ravel(), (w * h).ravel()


# The most nodes an integrand is evaluated on at once.  Every integral
# walks its nodes in blocks of at most this many, so peak memory does not
# grow with the rule, and adds the blocks' sums in numpy's pairwise order,
# so it keeps the bits of one evaluation on every node.  Densities must be
# pointwise for this to hold.
BLOCK_NODES = 2 ** 14


def _pairwise(block_sum, n, lo=0):
    """The float64 sum of the n terms lo .. lo + n - 1, from
    ``block_sum(a, b)``, the ``np.sum`` of terms a .. b - 1 (or of each
    row's), called on blocks of at most ``BLOCK_NODES`` terms.

    numpy sums n > 128 contiguous terms as the sum of the first n2 and of
    the last n - n2, with n2 = n // 2 rounded down to a multiple of 8, and
    at most 128 in one unrolled loop (pairwise summation: Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 4).  Blocks cut at
    those points and added in the same tree give the bits of ``np.sum``
    over all n terms, as long as ``BLOCK_NODES`` >= 128.
    """
    if n <= BLOCK_NODES:
        return block_sum(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(block_sum, half, lo) + _pairwise(block_sum, n - half, lo + half)


class QuadratureGrid:
    """Tensor-product quadrature over a chart rectangle.

    A grid stores its rule as two sorted axes, ``x_nodes`` with
    ``x_weights`` and ``y_nodes`` with ``y_weights``; the node (i, j) is
    (x_nodes[i], y_nodes[j]) with weight x_weights[i] * y_weights[j].
    Each axis is cut into segments and each segment into uniform cells,
    and every cell carries a Gauss-Legendre rule of order p (``scheme`` =
    ``"gauss{p}"``, exact on polynomials of degree 2p - 1).  Nodes are
    strictly interior to their cells, so segment ends may be placed on the
    break lines of the integrand, where it is only finitely smooth.  Torus
    actions, whose integrands extend across the diagonal, use
    ``ArcPairRule`` instead.
    """

    def __init__(self, x_segments, y_segments, cells, scheme="gauss2", level=0):
        self.x_segments = tuple(map(tuple, x_segments))
        self.y_segments = tuple(map(tuple, y_segments))
        self.cells = int(cells)
        self.scheme = scheme
        self.level = int(level)
        self.x_nodes, self.x_weights = _axis_nodes(self.x_segments, self.cells, scheme)
        self.y_nodes, self.y_weights = _axis_nodes(self.y_segments, self.cells, scheme)

    # -- descriptors ------------------------------------------------------
    @property
    def W(self):
        """The n x m weight plane, built when read.  The package itself
        never reads it; ``perfbench/spans.py`` counts a grid's nodes as
        ``W.size``."""
        return np.outer(self.x_weights, self.y_weights)

    def describe(self):
        return {
            "cells": self.cells,
            "scheme": self.scheme,
            "level": self.level,
            "x_segments": [list(s) for s in self.x_segments],
            "y_segments": [list(s) for s in self.y_segments],
        }

    # -- refinement ---------------------------------------------------------
    def refine(self):
        return QuadratureGrid(self.x_segments, self.y_segments, 2 * self.cells,
                              self.scheme, level=self.level + 1)

    # -- integration --------------------------------------------------------
    def _support_block(self, support):
        # the axis nodes are sorted, so the closed box is one index block
        x0, x1, y0, y1 = support
        xn, yn = self.x_nodes, self.y_nodes
        rows = slice(np.searchsorted(xn, x0, "left"), np.searchsorted(xn, x1, "right"))
        cols = slice(np.searchsorted(yn, y0, "left"), np.searchsorted(yn, y1, "right"))
        return rows, cols

    def integrate(self, density, support=None):
        """Weighted sum of ``density(x, y)`` over the grid's nodes.

        ``density`` is evaluated on one block of nodes: the index block of
        ``support = (x0, x1, y0, y1)``, a closed box outside which it is
        known to vanish, or the whole grid without a box; other nodes
        contribute nothing.  The block reaches ``density`` in row blocks
        of at most ``BLOCK_NODES`` nodes, each as an open mesh, x nodes
        (r, 1) and y nodes (1, m), and each result is broadcast to (r, m);
        a block with no node is not evaluated.

        The values v reduce as sum_i xw[i] * (sum_j yw[j] * v[i, j]), each
        sum numpy's pairwise ``np.sum``: deterministic for a fixed grid and
        independent of the BLAS library and its threads.  A row sum is the
        same in any row block (a row longer than ``BLOCK_NODES`` is cut by
        ``_pairwise``), so the value has the bits of one evaluation on the
        whole block.  A support box changes which zeros take part in the
        sums, so the value agrees with the whole-grid one to summation
        roundoff, not bit for bit.
        """
        rows, cols = (slice(None), slice(None)) if support is None else (
            self._support_block(support))
        xn, yn, yw = self.x_nodes[rows], self.y_nodes[cols], self.y_weights[cols]
        n, m = xn.size, yn.size
        if not (n and m):
            return 0.0
        step = max(1, BLOCK_NODES // m)

        def row_sums(x, lo, hi):
            v = np.broadcast_to(np.asarray(density(x, yn[None, lo:hi]), dtype=float),
                                (x.size, hi - lo))
            if not np.all(np.isfinite(v)):
                raise NonFiniteDensity("density is not finite on quadrature nodes")
            return np.sum(v * yw[lo:hi], axis=1)

        sums = np.concatenate([
            _pairwise(lambda lo, hi: row_sums(xn[i:i + step, None], lo, hi), m)
            for i in range(0, n, step)])
        return float(np.sum(self.x_weights[rows] * sums))


def _box_segments(box, x_breaks, y_breaks):
    """The segments of the box's axes, cut at the break lines inside it."""
    x0, x1, y0, y1 = map(float, box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty rectangle")
    xb = sorted({x0, x1, *(b for b in x_breaks if x0 < b < x1)})
    yb = sorted({y0, y1, *(b for b in y_breaks if y0 < b < y1)})
    return list(zip(xb[:-1], xb[1:])), list(zip(yb[:-1], yb[1:]))


def box_grid(box, level=0, base_cells=32, scheme="gauss2", x_breaks=(),
             y_breaks=()):
    """Grid over a rectangle [x0, x1] x [y0, y1] at a refinement level,
    with about ``base_cells * 2**level`` cells per axis of ``scheme``.

    The lines ``x_breaks`` and ``y_breaks`` inside the box (for example
    ``union_lines`` of the integrand's factors) end segments, so that no
    cell straddles one.
    """
    return QuadratureGrid(*_box_segments(box, x_breaks, y_breaks),
                          base_cells * 2 ** level, scheme=scheme, level=level)


def box_grid_nodes(box, level=0, base_cells=32, scheme="gauss2", x_breaks=(),
                   y_breaks=()):
    """The nodes per axis (x, y) of ``box_grid`` with these arguments,
    counted without forming any array."""
    p = gauss_order(scheme)
    return tuple(p * sum(_cell_counts(segments, base_cells * 2 ** level))
                 for segments in _box_segments(box, x_breaks, y_breaks))


# the tiles of ``ArcPairRule`` per block kind (0 tensor, 1 Duffy corner, 2
# its mirror): the kind, then the unit patterns of the x and y offsets (0: s
# along x, 1: s along y, 2: their product) and of the weights (0: tensor,
# 1: Duffy)
_ARC_TILES = np.array([[0, 0, 1, 0],
                       [1, 0, 2, 1], [1, 2, 0, 1],
                       [2, 2, 0, 1], [2, 0, 2, 1]])


class ArcPairRule:
    """Gauss-Legendre quadrature over the torus [0, pi)^2 by ordered pairs
    of arcs of the angle line, for an integrand that is 0/0 on the
    diagonal x = y mod pi and has the limit ``limit(x)`` there.

    The arcs end at ``breaks`` (mod pi); while there are fewer than three
    the longest is bisected, so neighbouring arcs share exactly one corner.
    Every block has ``order`` = 8 + 4 * level nodes per axis.  Neighbours
    get two Duffy triangles at their corner (b, c), x = b - A s and
    y = c + B s w and the mirror, with weight A B s: the Jacobian s cancels
    a 1/r corner singularity (Duffy, SIAM J. Numer. Anal. 19, 1982).  Other
    pairs get the tensor rule, whose nodes with x = y on an arc paired with
    itself take ``limit``.  No node given to the density has x = y mod pi.
    With n arcs the rule forms the (n^2 + 2n) p^2 nodes it keeps, one tile
    of p^2 per tensor block and two per Duffy block; ``layout`` counts the
    n p nodes per torus axis without building them.
    """

    def __init__(self, breaks=(), level=0):
        self.level = int(level)
        self.arcs, self.order, _ = self.layout(breaks, level)
        p, n = self.order, len(self.arcs)
        s, ws = _unit_rule(p)
        # a block's offsets and weights are patterns on the unit square,
        # each flat in row-major order: s along x, s along y and their
        # product; the tensor weights and those of a Duffy triangle
        sx = np.broadcast_to(s[:, None], (p, p))
        ww = np.outer(ws, ws)
        unit = np.stack([sx, sx.T, sx * s]).reshape(3, -1)
        wunit = np.stack([ww, sx * ww]).reshape(2, -1)
        lo, hi = np.array(self.arcs).T
        a = hi - lo
        # the kind of block (i, j), row-major: 1 for a Duffy corner
        # (hi_i, lo_j), 2 for its mirror, 0 for the tensor rule; a block
        # takes the table rows of its kind, so tile t is row[t] of the
        # table in block block[t], the tiles in block order
        r = np.arange(n)
        kind = ((r == (r[:, None] + 1) % n)
                + 2 * (r[:, None] == (r + 1) % n)).ravel()
        block, row = np.nonzero(kind[:, None] == _ARC_TILES[:, 0])
        k, px, py, pw = _ARC_TILES[row].T
        i, j = block // n, block % n
        # x = lo_i + a_i * offset, or hi_i - a_i * offset at a Duffy corner;
        # y likewise from the end of arc j
        fwd, back = k == 1, k == 2
        x = (np.where(fwd, hi[i], lo[i])[:, None]
             + np.where(fwd, -a[i], a[i])[:, None] * unit[px])
        y = (np.where(back, hi[j], lo[j])[:, None]
             + np.where(back, -a[j], a[j])[:, None] * unit[py])
        w = (a[i] * a[j])[:, None] * wunit[pw]
        # every node but the diagonal (the flat places k (p + 1)) of each
        # arc paired with itself, in tile order: the blocks' concatenation
        keep = (i != j)[:, None] | (np.arange(p * p) % (p + 1) != 0)
        self.x, self.y, self.w = x[keep], y[keep], w[keep]
        self.diag, self.diag_w = x[~keep], w[~keep]

    @staticmethod
    def layout(breaks=(), level=0):
        """The arcs, the Gauss order p and the rule's nodes per torus axis
        (p on each of the n arcs, n * p), without building it."""
        edges = sorted({b % math.pi for b in breaks}) or [0.0]
        arcs = list(zip(edges, edges[1:] + [edges[0] + math.pi]))
        while len(arcs) < 3:
            i = max(range(len(arcs)), key=lambda k: arcs[k][1] - arcs[k][0])
            lo, hi = arcs[i]
            arcs[i:i + 1] = [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
        p = 8 + 4 * int(level)
        return tuple(arcs), p, len(arcs) * p

    def describe(self):
        return {"level": self.level, "order": self.order,
                "arcs": [list(a) for a in self.arcs]}

    def integrate(self, density, limit):
        """The weighted sum of ``density`` on the off-diagonal nodes, as
        flat arrays, plus that of ``limit`` on the same-arc diagonals, each
        evaluated in blocks of at most ``BLOCK_NODES`` nodes with the bits
        of one ``np.sum`` over all of them (``_pairwise``)."""
        def total(fn, weights, *nodes):
            def block_sum(lo, hi):
                v = np.asarray(fn(*(a[lo:hi] for a in nodes)), dtype=float)
                if not np.all(np.isfinite(v)):
                    raise NonFiniteDensity("density or its diagonal limit is not finite")
                return np.sum(v * weights[lo:hi])

            return _pairwise(block_sum, weights.size)

        return float(total(density, self.w, self.x, self.y)
                     + total(limit, self.diag_w, self.diag))
