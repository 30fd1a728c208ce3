"""Independent reference constructions and fixtures for the tests.

None of this is a program path.  The sigma and eta references solve the
realization and duality conditions point by point, so they must stay
independent of the closed-form jets of ``adsgeom`` that they check;
``test_adsgeom`` enforces that by reading this module's names.  The
synthetic slices are surfaces given only pointwise, whose frames come by
central differences.  The affine Mobius map and the log-sine factor are
fixtures the CLI never builds, and the Segre section and the mass of a
bump are closed forms the tests compare against.  The quadrature rules
are built here the plain way, a segment or a block of arcs at a time, as
references for the array builds of ``fields``: the torus rule in full,
and the half of it that ``fields.ArcPairRule`` keeps.  The jet of
a log-mean-exp with every term formed is the reference for the fold of a
zero factor in ``curves.LogMeanExpField``.  The identity residuals
that two test modules share compose public calls of the package:
``split_invariance_residual`` (the action under a diagonal split map),
``criticality_test`` (the first variations of area and action) and
``area_neutral_combination`` (a variation of zero first area variation).
"""

import math

import numpy as np

from splitannulus import adsgeom as A, fields as F, liouville as LV, lorentz as L
from splitannulus.errors import OutOfChart


# ---------------------------------------------------------------------------
# isotropic and dual surfaces, point by point
# ---------------------------------------------------------------------------

def segre(x, y):
    """(x e1 + e2) (x) (y e1 + e2) in coordinates (xy, x, y, 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one = np.ones(np.broadcast(x, y).shape)
    return np.stack([x * y, x, y, one], axis=-1)


def sigma_by_pointwise_scaling(g, x, y):
    """Scale the Segre section pointwise.

    lambda is solved per point from the realization equation
    lambda^2 <s_x, s_y> = rho/2 (positive branch for x > y), without the
    closed-form factor used by the family constructor.
    """
    lam2 = 0.5 * g.density(x, y)
    lam = np.sign(np.asarray(x) - np.asarray(y)) * np.sqrt(lam2)
    return lam[..., None] * segre(x, y)


def dual_by_linear_solve(j):
    """Solve the dual-surface conditions at each point independently.

    Three linear conditions (<., sigma> = 1, <., d sigma> = 0) leave a
    line eta_p + t sigma; isotropy fixes t linearly because sigma is
    isotropic.  Rank deficiency raises ValueError.
    """
    rows = np.stack(
        [j.sigma @ A.GRAM, j.sigma_x @ A.GRAM, j.sigma_y @ A.GRAM], axis=-2
    )
    # the least-norm solution of rows . eta_p = (1, 0, 0) from the SVD of
    # every 3 x 4 system; a singular value at or below 4 eps of the largest
    # drops the rank, as numpy's lstsq counts it
    u, sv, vt = np.linalg.svd(rows, full_matrices=False)
    if np.any(sv[..., -1] <= 4 * np.finfo(float).eps * sv[..., 0]):
        raise ValueError("dual system rank-deficient")
    eta_p = np.einsum("...k,...kj->...j", u[..., 0, :] / sv, vt)
    t = -0.5 * A.qform(eta_p)
    return eta_p + t[..., None] * j.sigma


# ---------------------------------------------------------------------------
# typical holonomic surfaces given pointwise
# ---------------------------------------------------------------------------

def totally_geodesic_slice():
    """The AdS2 slice orthogonal to the unit spacelike direction F_PLUS2.

    Points a f1 + b f2 + c f3 with -a^2 + b^2 - c^2 = -1 in the frame
    f1 = F_MINUS1, f2 = F_PLUS1, f3 = F_MINUS2; the normal is constant,
    so II = III = 0.
    """

    def x_fn(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        r = np.sqrt(1.0 + s ** 2)
        return (
            (r * np.cos(t))[..., None] * A.F_MINUS1
            + s[..., None] * A.F_PLUS1
            + (r * np.sin(t))[..., None] * A.F_MINUS2
        )

    def n_fn(s, t):
        shp = np.broadcast(np.asarray(s), np.asarray(t)).shape
        return np.broadcast_to(A.F_PLUS2, shp + (4,)).copy()

    return x_fn, n_fn


def graph_perturbed_slice(eps=0.05):
    """A non-geodesic perturbation of the slice, normal solved pointwise."""
    base_x, _ = totally_geodesic_slice()

    def x_fn(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        raw = base_x(s, t) + (
            eps * np.sin(1.3 * s) * np.cos(t)
        )[..., None] * A.F_PLUS2
        scale = np.sqrt(-A.qform(raw))
        return raw / scale[..., None]

    def n_fn(s, t, step=1e-5):
        xs = x_fn(s, t)
        tx = (x_fn(s + step, t) - x_fn(s - step, t)) / (2 * step)
        ty = (x_fn(s, t + step) - x_fn(s, t - step)) / (2 * step)
        return orthogonal_unit(xs, tx, ty)

    return x_fn, n_fn


def orthogonal_unit(x, t1, t2):
    """The q-unit vector orthogonal to x, t1, t2 (vectorized); ValueError
    if that direction is not spacelike."""
    rows = np.stack([x @ A.GRAM, t1 @ A.GRAM, t2 @ A.GRAM], axis=-2)
    v = np.linalg.svd(rows)[2][..., -1, :]
    qv = A.qform(v)
    if np.any(qv <= 0):
        raise ValueError("orthogonal direction is not spacelike")
    return v / np.sqrt(qv)[..., None]


def difference_frame(x_fn, n_fn, s, t, step=1e-4):
    """x, n and their first derivatives by central differences; ValueError
    if the supplied normal fails its constraints."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    x = x_fn(s, t)
    n = n_fn(s, t)
    if (np.max(np.abs(A.qform(n) - 1.0)) > 1e-6
            or np.max(np.abs(A.pair(x, n))) > 1e-6):
        raise ValueError("n is not a unit normal field")
    return A.EpsteinFrame(
        x, n,
        x_dx=(x_fn(s + step, t) - x_fn(s - step, t)) / (2 * step),
        x_dy=(x_fn(s, t + step) - x_fn(s, t - step)) / (2 * step),
        n_dx=(n_fn(s + step, t) - n_fn(s - step, t)) / (2 * step),
        n_dy=(n_fn(s, t + step) - n_fn(s, t - step)) / (2 * step),
    )


def typical_holonomic_residual(x_fn, n_fn, s, t, step=1e-4):
    """|I*(lift) - (I + 2 II + III)/2| entrywise, maxed over samples."""
    f = difference_frame(x_fn, n_fn, s, t, step)
    i_mat, ii_mat, iii_mat, _ = A.fundamental_forms(f)
    lift1 = A.RT2INV * (f.x_dx + f.n_dx)
    lift2 = A.RT2INV * (f.x_dy + f.n_dy)
    istar = A._pair_matrix(lift1, lift2, lift1, lift2)
    classical = 0.5 * (
        i_mat + ii_mat + np.swapaxes(ii_mat, -1, -2) + iii_mat
    )
    return float(np.max(np.abs(istar - classical)))


# ---------------------------------------------------------------------------
# fields and maps of the affine chart
# ---------------------------------------------------------------------------

def mobius_apply(m, x):
    """Apply the projective map with matrix ``m`` to affine coordinates."""
    a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
    return (a * x + b) / (c * x + d)


def mobius_inverse(m):
    a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
    return np.array([[d, -b], [-c, a]], dtype=float)


class MobiusMap(F.CircleMap):
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


class LogSinDiagField(F.ScalarField):
    """c * log|sin(x - y)|: unbounded near the diagonal (S-class failure)."""

    def __init__(self, c=-1.0):
        self.c = float(c)

    def _jet(self, x, y):
        d = x - y
        s2 = np.sin(d) ** 2
        cot = np.cos(d) / np.sin(d)
        c = self.c
        return F.Jet2(
            0.5 * c * np.log(s2),
            c * cot,
            -c * cot,
            c / s2,
            -c / s2,
            -c / s2,
        )


def bump_mass(b):
    """Closed form of the integral of the bump ``b`` over the plane."""
    p = b.p
    # int_{-1}^{1} (1 - s^2)^p ds = 2^{2p+1} (p!)^2 / (2p+1)!
    one_d = 2.0 ** (2 * p + 1) * math.factorial(p) ** 2 / math.factorial(2 * p + 1)
    return b.amp * b.hx * b.hy * one_d ** 2


def unit_mass_bump(center, halfwidth, power=4):
    b = F.BumpField(center, halfwidth, 1.0, power)
    return F.BumpField(center, halfwidth, 1.0 / bump_mass(b), power)


# ---------------------------------------------------------------------------
# quadrature rules, one segment or one block at a time
# ---------------------------------------------------------------------------

def axis_nodes(segments, cells, scheme):
    """``fields._axis_nodes`` segment by segment: each segment's cells end
    at the edges of ``np.linspace`` over it."""
    s, w = F._unit_rule(F.gauss_order(scheme))
    nodes, weights = [], []
    total = sum(hi - lo for lo, hi in segments)
    for lo, hi in segments:
        n = max(1, int(round(cells * (hi - lo) / total)))
        edges = np.linspace(lo, hi, n + 1)
        h = np.diff(edges)[:, None]
        nodes.append((edges[:-1, None] + s * h).ravel())
        weights.append((w * h).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def _arc_pair_blocks(rule):
    """Every block of ``rule`` (an ``ArcPairRule``) over all ordered pairs
    of its arcs, built one at a time in row-major order, as (i, j, x, y, w):
    a tensor block as p x p arrays, a Duffy block as 2p x p, its two
    triangles in rows :p and p:."""
    arcs, n = rule.arcs, len(rule.arcs)
    s, ws = F._unit_rule(rule.order)
    ww = np.outer(ws, ws)
    # the Duffy triangles at the unit square's corner (0, 0): offsets, weights
    far = np.broadcast_to(s[:, None], ww.shape)
    duffy = (np.concatenate([far, far * s]), np.concatenate([far * s, far]),
             np.concatenate([far * ww] * 2))
    for i, (lo, hi) in enumerate(arcs):
        for j, (lo_j, hi_j) in enumerate(arcs):
            a, b = hi - lo, hi_j - lo_j
            if j == (i + 1) % n:  # corner (hi, lo_j)
                dx, dy, w = duffy
                x, y = hi - a * dx, lo_j + b * dy
            elif i == (j + 1) % n:  # the block (j, i), x and y swapped
                dy, dx, w = duffy
                x, y = lo + a * dx, hi_j - b * dy
            else:
                x, y = np.meshgrid(lo + a * s, lo_j + b * s, indexing="ij")
                w = ww
            yield i, j, x, y, a * b * w


def arc_pair_nodes(rule):
    """The full torus rule that ``rule`` stands for, block by block: the
    nodes and weights of every block in row-major order but the diagonal
    of each block (i, i), then those diagonals: (x, y, w, diag, diag_w)."""
    off = ~np.eye(rule.order, dtype=bool)
    blocks, diag = [], []
    for i, j, x, y, w in _arc_pair_blocks(rule):
        if i == j:
            diag.append((np.diag(x), np.diag(w)))
            x, y, w = x[off], y[off], w[off]
        blocks.append((x, y, w))
    x, y, w = (np.concatenate([np.ravel(c) for c in cs]) for cs in zip(*blocks))
    return (x, y, w) + tuple(np.concatenate(cs) for cs in zip(*diag))


def arc_pair_half(rule):
    """The half of ``arc_pair_nodes(rule)`` that ``rule`` keeps, from the
    same blocks, with doubled weights, as (x, y, w): the tensor blocks
    (i, j) with i < j of arcs that do not meet, the first Duffy triangle
    of each corner (hi_i, lo_{i+1}), then the second, then the strict
    upper triangle k < l of each block (i, i), each group in block order."""
    p, n = rule.order, len(rule.arcs)
    up = np.triu_indices(p, 1)
    tensor, first, second, upper = [], [], [], []
    for i, j, x, y, w in _arc_pair_blocks(rule):
        if i == j:
            upper.append((x[up], y[up], w[up]))
        elif j == (i + 1) % n:
            first.append((x[:p], y[:p], w[:p]))
            second.append((x[p:], y[p:], w[p:]))
        elif i < j and i != (j + 1) % n:
            tensor.append((x, y, w))
    x, y, w = (np.concatenate([np.ravel(c) for c in cs])
               for cs in zip(*tensor, *first, *second, *upper))
    return x, y, 2.0 * w


def log_mean_exp_jet(j1, j2):
    """The jet of u = (1/2) log((e^{2u1} + e^{2u2}) / 2) from the jets of
    u1 and u2, every term of both formed: the components
    (v, vx, vy, vxy, vxx, vyy)."""
    a, b = np.exp(2.0 * j1.v), np.exp(2.0 * j2.v)
    s = a + b
    wa, wb = a / s, b / s
    vx = wa * j1.vx + wb * j2.vx
    vy = wa * j1.vy + wb * j2.vy
    return (0.5 * np.log(0.5 * s), vx, vy,
            wa * (2 * j1.vx * j1.vy + j1.vxy) + wb * (2 * j2.vx * j2.vy + j2.vxy)
            - 2.0 * vx * vy,
            wa * (2 * j1.vx ** 2 + j1.vxx) + wb * (2 * j2.vx ** 2 + j2.vxx)
            - 2.0 * vx ** 2,
            wa * (2 * j1.vy ** 2 + j1.vyy) + wb * (2 * j2.vy ** 2 + j2.vyy)
            - 2.0 * vy ** 2)


# ---------------------------------------------------------------------------
# identity residuals of the Liouville action
# ---------------------------------------------------------------------------

def split_invariance_residual(g, h, phi, grid, pulled_grid) -> float:
    """|S(phi* g, phi* h) - S(g, h)| for a diagonal split map."""
    gp = L.pullback_metric(g, phi)
    hp = L.pullback_metric(h, phi)
    return abs(LV.action(gp, hp, pulled_grid).value - LV.action(g, h, grid).value)


def criticality_test(g, u, grid):
    """(first variation of area, first variation of the action).

    area_deriv = int u da_g and action_deriv = -(1/2) int u F_g; for a
    constant curvature metric the two are proportional, so area-neutral
    scalings are action-critical.
    """
    area_deriv = grid.integrate(lambda x, y: u.value(x, y) * g.density(x, y))
    kg = L.curvature(g)
    action_deriv = -0.5 * grid.integrate(
        lambda x, y: u.value(x, y) * kg.F_density(x, y)
    )
    return float(area_deriv), float(action_deriv)


def area_neutral_combination(g, u1, u2, grid):
    """u1 - c u2 with c chosen so the g-area derivative vanishes on grid."""
    a1 = grid.integrate(lambda x, y: u1.value(x, y) * g.density(x, y))
    a2 = grid.integrate(lambda x, y: u2.value(x, y) * g.density(x, y))
    return u1 - (a1 / a2) * u2
