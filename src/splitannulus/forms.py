"""Differential forms on the unit tangent bundle and the W-volume.

Points of the (spacelike) unit tangent bundle are pairs (x, n) in W x W
with q(x) = -1, q(n) = +1, <x, n> = 0; tangent vectors are pairs
(u1, u2) annihilating the differentiated constraints.  The forms

    omega(u, v, w) = det(x, u1, v1, w1)
    alpha(u, v)    = (det(x, n, u2, v1) + det(x, n, u1, v2)) / 4
    theta1(u, v)   = det(x, n, u1, v1),   theta2: second components
    x*(u) = <x, u2>,   n*(u) = <u1, n>

satisfy d beta = theta1 - theta2 and 2 d alpha = n* ^ theta2 - x* ^ theta1,
with beta(w) = -det(x, n, u, w3) on the frame space of pairwise
orthogonal triples.  Pullback commutes with d, so d of a form restricted
to the constraint manifold is the ambient d on constant vector fields,
read on tangent vectors.  Along a line the coefficients of beta, alpha
and omega are polynomials of degree 3, 2 and 1 in the point, so the
five-point stencil, exact to degree 4, gives d up to roundoff.  The forms
take points and vectors stacked on leading axes, so d evaluates a form
once on its whole stencil.

The W-volume of a lens cobordism integrates the pulled-back volume form
over chart x [0, 1] (orientation dx ^ dy ^ dt) minus the boundary alpha
difference; the interpolation is the Epstein family of e^{2 t u} g0.
Both parts are one density on the chart: per node, alpha at the first
path time, plus the t-quadrature of the bulk integrand, minus alpha at
the last.  Only w = t u changes with t, so that density runs the
per-grid step ``IsotropicSurfaceData.node_jets`` once on the nodes it
receives, and from it builds the lift's coefficient planes
(``IsotropicSurfaceData.lift_path``) once.  Each bulk slice then costs
e^{+-tu} times quadratics in t on those planes and one det4 of the lift
x and its derivatives; only the two boundary slices assemble the pair
and build a full Epstein frame.  ``w_value`` is W on one level of the
lens's rule, and ``w_volume`` its two-level trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adsgeom import (
    GRAM,
    EpsteinFrame,
    IsotropicSurfaceData,
    det4,
    epstein_frame,
    frame_constraint_residuals,
    fundamental_forms,
    pair,
    qform,
)
from .errors import (
    ChartBreakdown,
    NonCompactDifference,
    NotHolonomicBoundary,
    NotTangent,
)
from .fields import QuadratureGrid, _axis_nodes, box_grid
from .liouville import ActionValue, refinement_trail
from .lorentz import SplitMetric

# ---------------------------------------------------------------------------
# Points, vectors, frames
# ---------------------------------------------------------------------------

def _project_unit(v, sign):
    q = qform(v)
    if sign * q <= 0:
        raise ChartBreakdown("projection left the constraint cone")
    return v / math.sqrt(sign * q)


def project_frame(amb):
    x = _project_unit(amb[:4], -1.0)
    n = amb[4:8] + pair(amb[4:8], x) * x
    n = _project_unit(n, 1.0)
    u = amb[8:12] + pair(amb[8:12], x) * x - pair(amb[8:12], n) * n
    u = _project_unit(u, 1.0)
    return np.concatenate([x, n, u])


# the pairs (i, j) of k 4-vectors whose pairing each constraint row
# differentiates, in row order: q(v_i) for each i, then <v_i, v_j>, i < j
_PAIRS = {k: np.concatenate([[np.arange(k)] * 2, np.triu_indices(k, 1)], axis=1)
          for k in (2, 3)}


def _constraint_rows(p):
    """The constraint rows at a UT point (x, n) or a frame point (x, n, u)."""
    k = len(p) // 4
    i, j = _PAIRS[k]
    r = np.arange(len(i))
    g = np.reshape(p, (k, 4)) @ GRAM  # row i is GRAM v_i: GRAM is symmetric
    rows = np.zeros((len(r), k, 4))
    rows[r, i], rows[r, j] = g[j], g[i]
    rows[:k] *= 2  # d q(v) = 2 <v, dv>
    return rows.reshape(len(r), 4 * k)


def tangent_project(p, vec):
    """Project an ambient vector onto the differentiated-constraint kernel."""
    rows = _constraint_rows(p)
    sol, *_ = np.linalg.lstsq(rows.T @ rows + 1e-13 * np.eye(rows.shape[1]),
                              rows.T @ (rows @ vec), rcond=None)
    return vec - sol


def random_ut_point(rng):
    from .adsgeom import F_MINUS1, F_MINUS2, F_PLUS1, F_PLUS2

    r = rng.uniform(0.0, 1.0)
    a, b = rng.uniform(0.0, 2 * math.pi, 2)
    x = math.cosh(r) * (math.cos(a) * F_MINUS1 + math.sin(a) * F_MINUS2) + \
        math.sinh(r) * (math.cos(b) * F_PLUS1 + math.sin(b) * F_PLUS2)
    for _ in range(64):
        n = rng.normal(size=4)
        n = n + pair(n, x) * x
        if qform(n) > 0.1:
            return np.concatenate([x, n / math.sqrt(qform(n))])
    raise ChartBreakdown("could not draw a spacelike normal")


def random_frame_point(rng):
    p = random_ut_point(rng)
    for _ in range(32):
        try:
            return project_frame(np.concatenate([p, rng.normal(size=4)]))
        except ChartBreakdown:
            continue
    # every draw projected onto a non-spacelike u: build one instead.  The
    # complement of span(x, n) has signature (1, 1), so its Gram matrix has
    # one positive eigenvalue, whose eigendirection is spacelike
    basis = np.linalg.svd(np.stack([p[:4] @ GRAM, p[4:8] @ GRAM]))[2][2:]
    gram = basis @ GRAM @ basis.T
    u = np.linalg.eigh(gram)[1][:, -1] @ basis
    return project_frame(np.concatenate([p, u]))


def random_tangent(rng, p):
    """A random unit tangent at a UT point or a frame point p."""
    v = tangent_project(p, rng.normal(size=len(p)))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# The forms
# ---------------------------------------------------------------------------

_TANGENCY_TOL = 1e-8


def check_tangent(p, *vecs):
    """NotTangent if a vector at the UT or frame point p leaves the
    differentiated-constraint kernel: max |rows(p) @ v| > _TANGENCY_TOL."""
    res = float(np.max(np.abs(_constraint_rows(p) @ np.stack(vecs).T)))
    if res > _TANGENCY_TOL:
        raise NotTangent(f"{'frame' if len(p) == 12 else 'UT'} tangency residual {res}")


# The forms below index components on the last axis, so points and
# vectors stacked on leading axes broadcast; the tangency checks take one
# point and its vectors.

def omega3(p, u, v, w, check=True):
    if check:
        check_tangent(p, u, v, w)
    return det4(p[..., :4], u[..., :4], v[..., :4], w[..., :4])


def alpha2(p, u, v, check=True):
    if check:
        check_tangent(p, u, v)
    # alpha(u, v) is alpha's density on a frame at p with d_x = u, d_y = v
    return _alpha_boundary_density(EpsteinFrame(p[..., :4], p[..., 4:8], u[..., :4],
                                                v[..., :4], u[..., 4:], v[..., 4:]))


def theta(i, p, u, v, check=True):
    if check:
        check_tangent(p, u, v)
    x, n = p[..., :4], p[..., 4:8]
    if i == 1:
        return det4(x, n, u[..., :4], v[..., :4])
    if i == 2:
        return det4(x, n, u[..., 4:], v[..., 4:])
    raise ValueError("theta index must be 1 or 2")


def xstar(p, u):
    return pair(p[..., :4], u[..., 4:8])


def nstar(p, u):
    return pair(u[..., :4], p[..., 4:8])


def beta(f, w):
    """beta(w) = -det(x, n, u, w3) on the frame space, unchecked."""
    return -det4(f[..., :4], f[..., 4:8], f[..., 8:12], w[..., 8:12])


def beta1(f, w):
    """beta(w) on a frame tangent; NotTangent off the constraint kernel."""
    check_tangent(f, w)
    return float(beta(f, w))


# ---------------------------------------------------------------------------
# Exterior derivative
# ---------------------------------------------------------------------------

def exterior_derivative(form, base, vectors):
    """d(form) at ``base`` on the tangent vectors ``vectors``.

    ``form(points, vecs)`` evaluates the k-form on points stacked on
    leading axes, with each vector of ``vecs`` stacked beside them (the
    leading axes broadcast), and returns values that broadcast to one per
    point.  Pullback commutes with d, so on the constraint manifold
    d(form) is the ambient d on constant vector fields,

        d form(v_0, ..., v_k) = sum_j (-1)^j D_{v_j} form(..., ^v_j, ...),

    with no chart and no projection.  Each D_v is the five-point stencil
    (8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / (12 h) at h = 1/2, exact up
    to roundoff when the coefficient is a polynomial of degree at most
    four along the line: beta's is cubic, alpha's quadratic, omega's
    linear.

    ``form`` is called once, on the (k + 1, 4) stencil points
    base + s v_j, each row j carrying the vector set that leaves v_j out.
    The stencil combination and the alternating sum are Python floats,
    taken in the order of the sum above.
    """
    vectors = np.array(vectors, dtype=float)
    count = len(vectors)
    # h = 1/2: f(h), f(-h), f(2h), f(-2h)
    steps = np.array([0.5, -0.5, 1.0, -1.0])
    points = base + steps[:, None] * vectors[:, None, :]
    # the i-th vector of the set that leaves v_j out is v_{i + (i >= j)}
    vecs = [vectors[[i + (i >= j) for j in range(count)], None, :]
            for i in range(count - 1)]
    values = np.broadcast_to(form(points, vecs), points.shape[:-1]).tolist()
    total = 0.0
    for j, (fp, fm, f2p, f2m) in enumerate(values):
        # 12 h = 6
        total += (-1) ** j * (8.0 * (fp - fm) - (f2p - f2m)) / 6.0
    return total


def _wedge_1_2(gamma, th):
    """(gamma ^ th)(u, v, w) from gamma at (u, v, w) and th at
    ((v, w), (u, w), (u, v))."""
    return gamma[0] * th[0] - gamma[1] * th[1] + gamma[2] * th[2]


def fundamental_equations_residual(rng, sign_flip=False):
    """(r1, r2) at a random frame/UT configuration.

    r1 = |d beta (v, w) - (theta2 - theta1)(v, w)| with the thetas on
    the projected UT vectors; r2 = |2 d alpha - (n* ^ theta2 -
    x* ^ theta1)| on three random UT tangents.

    With beta = -det(x, n, u, w3) (equivalently <w3, e> for the derived
    vector normalized by det(x, n, u, e) = +1) and the standard exterior
    derivative, expanding D beta in the frame (x, n, u, e) gives
    d beta = theta2 - theta1: writing w1 = b n + c u + d e and likewise
    for v1 (both are orthogonal to x),

        D_w beta(v) = <w2, e><v2, u> - <w1, e><v1, u>,

    and antisymmetrizing yields det(x,n,w2,v2) - det(x,n,w1,v1).  The
    ``sign_flip`` switch deliberately tests the wrong sign so the
    verification suite can prove it would catch one.

    Each term is one array evaluation: d by ``exterior_derivative``, the
    thetas of each equation by one det4 call, x* and n* by one pair call
    each.
    """
    f = random_frame_point(rng)
    v = random_tangent(rng, f)
    w = random_tangent(rng, f)
    dbeta = exterior_derivative(lambda pt, vecs: beta(pt, vecs[0]), f, [v, w])
    # theta2(v, w), theta1(v, w) on the UT parts
    th2, th1 = det4(f[:4], f[4:8], np.stack([v[4:8], v[:4]]),
                    np.stack([w[4:8], w[:4]])).tolist()
    rhs1 = th2 - th1
    if sign_flip:
        rhs1 = -rhs1
    r1 = abs(dbeta - rhs1)

    q = random_ut_point(rng)
    a = random_tangent(rng, q)
    b = random_tangent(rng, q)
    c = random_tangent(rng, q)
    dalpha = exterior_derivative(lambda pt, vecs: alpha2(pt, vecs[0], vecs[1],
                                                         check=False),
                                 q, [a, b, c])
    # theta2, then theta1, on the pairs (b, c), (a, c), (a, b)
    abc = np.stack([a, b, c])
    s, t = abc[[1, 0, 0]], abc[[2, 2, 1]]
    th = det4(q[:4], q[4:8], np.concatenate([s[:, 4:], s[:, :4]]),
              np.concatenate([t[:, 4:], t[:, :4]])).tolist()
    rhs = 0.5 * (_wedge_1_2(nstar(q, abc).tolist(), th[:3])
                 - _wedge_1_2(xstar(q, abc).tolist(), th[3:]))
    r2 = abs(dalpha - rhs)
    return r1, r2


# ---------------------------------------------------------------------------
# Lens cobordisms and the W-volume
# ---------------------------------------------------------------------------

# a lens checks its boundary frames' contact residual at this many seeded
# points of its box, and u's jet at as many points of each support-box edge
_LENS_CHECK_SAMPLES = 64
_LENS_CHECK_TOL = 1e-8
# at the same seeded points, u's vx, vy and vxy against central differences
# of its value with this step, relative to the largest of them: the lenses
# of the tier-1 suite read at most 1.0e-6 (a clipped polynomial, refused
# for its box edge) and their bumps 5.3e-8, so the tolerance keeps a margin
# of 100, while a partial reported twice over reads 0.2 to 0.5
_LENS_JET_STEP = 1e-5
_LENS_JET_TOL = 1e-4


def jet_gap(u, x, y):
    """The largest gap between u's reported vx, vy and vxy and central
    differences of its value at the points (x, y), relative to the largest
    of those values; 0 where they all vanish.  A point whose stencil meets
    a break line of u is left out: u need not be smooth across one."""
    h = _LENS_JET_STEP
    xb, yb = u.break_lines()
    keep = np.ones(x.shape, dtype=bool)
    for c in xb:
        keep &= np.abs(x - c) > 2 * h
    for c in yb:
        keep &= np.abs(y - c) > 2 * h
    x, y = x[keep], y[keep]
    # the stencil (+-h, 0), (0, +-h) and (+-h, +-h), one row each
    sx = np.array([1, -1, 0, 0, 1, 1, -1, -1])[:, None]
    sy = np.array([0, 0, 1, -1, 1, -1, 1, -1])[:, None]
    v = u.value(x + h * sx, y + h * sy)
    fd = np.stack([(v[0] - v[1]) / (2 * h), (v[2] - v[3]) / (2 * h),
                   (v[4] - v[5] - v[6] + v[7]) / (4 * h ** 2)])
    j = u.jet(x, y)
    got = np.stack([j.vx, j.vy, j.vxy])
    scale = max(np.max(np.abs(fd), initial=0.0), np.max(np.abs(got), initial=0.0))
    return float(np.max(np.abs(fd - got))) / scale if scale > 0 else 0.0


@dataclass
class LensCobordism:
    """Epstein lens between g0-conformal metrics differing on a box.

    The interpolation is t -> Epstein surface of e^{2 t u} g0 for t in
    [0, 1]; both boundary surfaces are holonomic and agree outside the
    support of u.
    """

    metric: SplitMetric           # e^{2u} g0; the lens runs from g0 to it
    box: tuple                    # chart rectangle containing supp u

    def __post_init__(self):
        self.data = IsotropicSurfaceData(self.metric)
        self._validate()

    def frame(self, x, y, t):
        """The Epstein frame at path time t."""
        return epstein_frame(self.data.jets(x, y, t))

    def _validate(self):
        samples, tol = _LENS_CHECK_SAMPLES, _LENS_CHECK_TOL
        rng = np.random.default_rng(7)
        x0, x1, y0, y1 = self.box
        xs = rng.uniform(x0, x1, samples)
        ys = rng.uniform(y0, y1, samples)
        for t in (0.0, 1.0):
            res = frame_constraint_residuals(self.frame(xs, ys, t))
            if res > tol:
                raise NotHolonomicBoundary(f"contact residual {res}")
        # the frame relations hold for any jet values at a point, so a jet
        # that is not u's derivative passes them: it is checked on its own
        gap = jet_gap(self.metric.u, xs, ys)
        if gap > _LENS_JET_TOL:
            raise NotHolonomicBoundary(
                f"conformal factor's jet is {gap:.3g} off its central differences")
        # the boundary frames agree off u's support box, where every boxed
        # field's jets are exact zeros
        if self.metric.u.support_box is None:
            raise NonCompactDifference("conformal factor has no support box")
        # W integrates over that box clipped to the lens box, which must not
        # be empty
        x0, x1, y0, y1 = self.support()
        if not (x0 < x1 and y0 < y1):
            raise NonCompactDifference(
                f"conformal factor's support box {self.metric.u.support_box} "
                f"does not meet the lens box {self.box}")
        # and W = S needs u to be C^2 across the edge of that box, so every
        # component of its jet must vanish there
        r = np.linspace(0.0, 1.0, samples)
        ex, ey = x0 + (x1 - x0) * r, y0 + (y1 - y0) * r
        xs = np.concatenate([ex, ex, np.full(samples, x0), np.full(samples, x1)])
        ys = np.concatenate([np.full(samples, y0), np.full(samples, y1), ey, ey])
        edge = float(np.max(np.abs(np.stack(tuple(self.metric.u.jet(xs, ys))))))
        if edge > 1e-10:
            raise NonCompactDifference(
                f"conformal factor jet {edge:.3g} on the edge of its support box")

    def support(self):
        """u's support box clipped to the lens box."""
        bx0, bx1, by0, by1 = self.box
        x0, x1, y0, y1 = self.metric.u.support_box
        return max(x0, bx0), min(x1, bx1), max(y0, by0), min(y1, by1)


def _alpha_boundary_density(f):
    """alpha(d_x, d_y) = (det(x, n, n_dx, x_dy) + det(x, n, x_dx, n_dy)) / 4."""
    return 0.25 * (det4(f.x, f.n, f.n_dx, f.x_dy) + det4(f.x, f.n, f.x_dx, f.n_dy))


W_SCHEME = "gauss12"


def w_grid(lens: LensCobordism, level: int) -> QuadratureGrid:
    """The W-volume's xy rule at a refinement level.

    The density vanishes off u's support box (the boundary frames agree
    there and d_t x = 0), so the rule covers that box clipped to the lens
    box: 2 * 2**level gauss12 cells per axis, cut at u's break lines.  It
    is built from the lens alone, not from the action's grids, so the W
    and S pipelines share only the rules of ``fields``.
    """
    xb, yb = lens.metric.u.break_lines()
    return box_grid(lens.support(), level, base_cells=2, scheme=W_SCHEME,
                    x_breaks=xb, y_breaks=yb)


def w_value(lens: LensCobordism, grid: QuadratureGrid, a=0.0, b=1.0) -> float:
    """W of the lens between path times a and b on one ``w_grid`` rule,
    with one gauss12 cell in t on [a, b], the t-rule of ``_axis_nodes``.

    Per density call the boundary frames at a and b come from the
    assembled pair, and each of the 12 bulk slices from the lift's
    coefficient planes: ``LiftPath.lift(t)`` gives sqrt2 times the rows
    of det(x, d_x x, d_y x, d_t x), so the slice weighs their det4 by
    w / 4.  NonFiniteDensity if e^{tu} could overflow on [a, b].

    ``w_volume`` composes it; a caller that needs one level only, such
    as verify's W = S check at ``w_grid(lens, level + 1)``, calls it
    directly and gets the same bits as the ``value`` of ``w_volume`` at
    ``level``.
    """
    ts, weights = _axis_nodes(((a, b),), 1, W_SCHEME)
    data = lens.data

    def density(x, y):
        # the t-independent jets and the lift's coefficient planes once per
        # grid, then one t-slice at a time from them
        nodes = data.node_jets(x, y)
        path = data.lift_path(nodes, a, b)
        tot = _alpha_boundary_density(epstein_frame(data.assemble(nodes, a)))
        for t, w in zip(ts, weights):
            tot += 0.25 * w * det4(*path.lift(t))
        return tot - _alpha_boundary_density(epstein_frame(data.assemble(nodes, b)))

    return grid.integrate(density)


def w_volume(lens: LensCobordism, grid: QuadratureGrid,
             t_cells: int = 12) -> ActionValue:
    """W = int_M phi* omega - (int_S1 phi* alpha - int_S0 phi* alpha).

    M = chart x [0, 1] carries the orientation dx ^ dy ^ dt, which makes
    Stokes produce the boundary difference S1 - S0 with both slices
    oriented by dx ^ dy; the bulk integrand is then
    det(x, d_x x, d_y x, d_t x).

    The W-volume has one rule of its own, ``w_grid`` in x and y and one
    gauss12 cell in t, and its trail is that rule at ``grid.level`` and
    ``grid.level + 1``: ``grid`` supplies only the level, and ``t_cells``
    is accepted for old callers and changes nothing.
    """
    coarse = w_grid(lens, grid.level)
    return refinement_trail(lambda gr: w_value(lens, gr), (coarse, coarse.refine()))


def classical_formula_residual(f) -> float:
    """Pointwise |F* alpha - (1/4) tr(B) da| over the points of a frame.

    ``f`` carries x, n and their first derivatives, as an EpsteinFrame
    does.  da is the area form det(x, n, d_s x, d_t x) of the lifted
    surface and B solves D n = D x . B in the tangent frame.
    """
    b = fundamental_forms(f)[-1]
    falpha = _alpha_boundary_density(f)
    da = det4(f.x, f.n, f.x_dx, f.x_dy)
    trb = np.trace(b, axis1=-2, axis2=-1)
    return float(np.max(np.abs(falpha - 0.25 * trb * da)))

