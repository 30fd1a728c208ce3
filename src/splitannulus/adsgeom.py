"""Signature (2,2) linear algebra, isotropic surfaces and Epstein lifts.

The ambient space is V (x) V for a symplectic plane (V, omega) with
omega(e1, e2) = 1, in the basis

    E11 = e1(x)e1,  E12 = e1(x)e2,  E21 = e2(x)e1,  E22 = e2(x)e2,

with the pairing <.,.> = -omega(x)omega: the only nonzero basis pairings
are <E11, E22> = -1 and <E12, E21> = +1 (signature (2,2)).  Every
determinant below uses the orientation det(E11, E12, E21, E22) = +1.

The Segre section is s(x, y) = (x e1 + e2)(x)(y e1 + e2) with
coordinates (xy, x, y, 1).  The isotropic surface realizing a metric of
density rho (against dx dy) is sigma = lambda s with lambda^2 = rho / 2,
so that <d_x sigma, d_y sigma> equals the metric tensor value rho / 2;
for the de Sitter metric this is sigma0 = s / (x - y), whose dual is
the argument-swapped Segre section over the same denominator.  The
conformal family e^{2w} g has

    sigma = e^w sigma0,
    eta   = e^{-w} (eta0 - D_{grad w} sigma0 - (1/2) g0(grad w, grad w) sigma0),

with the gradient taken against the realized base form; everything is
differentiated in closed form, so the dual surface loses no accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateIstar,
    IncompatibleMetrics,
    NonFiniteDensity,
    NotUnitNormal,
    SingularDual,
)
from .fields import Jet2
from .lorentz import DESITTER, FLAT, SplitMetric

GRAM = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def pair(u, v):
    """The polar form <u, v> = -u1 v4 - u4 v1 + u2 v3 + u3 v2."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        -u[..., 0] * v[..., 3]
        - u[..., 3] * v[..., 0]
        + u[..., 1] * v[..., 2]
        + u[..., 2] * v[..., 1]
    )


def qform(u):
    return pair(u, u)


def det4(a, b, c, d):
    """Oriented 4-volume of four vectors (rows), vectorized.

    Laplace expansion along the first two rows: each 2x2 minor of (a, b)
    pairs with the complementary minor of (c, d).  Leading axes
    broadcast; det4(E11, E12, E21, E22) = +1.
    """
    a0, a1, a2, a3 = _components(a)
    b0, b1, b2, b3 = _components(b)
    c0, c1, c2, c3 = _components(c)
    d0, d1, d2, d3 = _components(d)
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def _components(v):
    v = np.asarray(v, dtype=float)
    return v[..., 0], v[..., 1], v[..., 2], v[..., 3]


def gram_signature():
    """Eigenvalues of the Gram matrix, sorted; the startup invariant."""
    return np.sort(np.linalg.eigvalsh(GRAM))


# signature (2,2) is load-bearing for every pairing below; fail fast if
# the Gram matrix is ever edited inconsistently
assert np.allclose(gram_signature(), (-1.0, -1.0, 1.0, 1.0), atol=1e-12)


def segre(x, y):
    """(x e1 + e2) (x) (y e1 + e2) in coordinates (xy, x, y, 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one = np.ones(np.broadcast(x, y).shape)
    return np.stack([x * y, x, y, one], axis=-1)


def _segre_jets(x, y):
    """s and its partials d/dx, d/dy, d2/dxdy as (..., 4) arrays stored
    component-major, so that every array derived from them multiplies a
    component plane by a per-node column along contiguous memory."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    zero = np.zeros(x.shape)
    one = np.ones(x.shape)
    planes = ([x * y, x, y, one], [y, one, zero, zero], [x, zero, one, zero],
              [one, zero, zero, zero])
    return tuple(np.moveaxis(np.stack(p, axis=0), 0, -1) for p in planes)


# four orthonormal-ish directions diagonalizing the pairing:
# <F_PLUS1> = <F_PLUS2> = +1, <F_MINUS1> = <F_MINUS2> = -1
F_PLUS1 = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
F_PLUS2 = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
F_MINUS1 = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
F_MINUS2 = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_DIAG_P = np.column_stack([F_PLUS1, F_PLUS2, F_MINUS1, F_MINUS2])
_SO_Q_SCALE = 0.7  # each rotation angle and boost rapidity in [-0.7, 0.7]


def random_so_q(rng):
    """A random element of SO0(q) from elementary rotations and boosts."""
    r = np.eye(4)

    def plane(i, j, rot, t):
        m = np.eye(4)
        if rot:
            m[i, i] = m[j, j] = math.cos(t)
            m[i, j] = -math.sin(t)
            m[j, i] = math.sin(t)
        else:
            m[i, i] = m[j, j] = math.cosh(t)
            m[i, j] = m[j, i] = math.sinh(t)
        return m

    # indices in the diagonal basis: 0,1 positive; 2,3 negative
    for (i, j, rot) in ((0, 1, True), (2, 3, True), (0, 2, False),
                        (1, 3, False), (0, 3, False), (1, 2, False)):
        r = r @ plane(i, j, rot, rng.uniform(-_SO_Q_SCALE, _SO_Q_SCALE))
    return _DIAG_P @ r @ np.linalg.inv(_DIAG_P)


# ---------------------------------------------------------------------------
# Base pairs and the conformal family
# ---------------------------------------------------------------------------

class _DeSitterBase:
    def jets(self, x, y):
        s, a, b, c = _segre_jets(x, y)
        # the dual direction is the argument-swapped Segre section; its
        # coordinates come out right by evaluating at (y, x), with the
        # roles of the two returned partials exchanged
        st, st_y, st_x, _ = _segre_jets(y, x)
        d = (np.asarray(x, dtype=float) - np.asarray(y, dtype=float))[..., None]
        out = {}
        out["sigma"] = s / d
        out["sigma_x"] = a / d - s / d ** 2
        out["sigma_y"] = b / d + s / d ** 2
        out["sigma_xx"] = -2 * a / d ** 2 + 2 * s / d ** 3
        out["sigma_xy"] = c / d + (a - b) / d ** 2 - 2 * s / d ** 3
        out["sigma_yy"] = 2 * b / d ** 2 + 2 * s / d ** 3
        out["eta"] = st / d
        out["eta_x"] = st_x / d - st / d ** 2
        out["eta_y"] = st_y / d + st / d ** 2
        dd = d[..., 0]
        out["M"] = dd ** 2          # 1 / (base bilinear value)
        out["M_x"] = 2 * dd
        out["M_y"] = -2 * dd
        return out


class _FlatBase:
    def jets(self, x, y):
        s, a, b, c = _segre_jets(x, y)
        sgn = np.sign(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        sg = sgn[..., None]
        z = np.zeros_like(s)
        e11 = np.zeros_like(s)
        e11[..., 0] = 1.0
        rt2 = math.sqrt(2.0)
        out = {
            "sigma": sg * s / rt2,
            "sigma_x": sg * a / rt2,
            "sigma_y": sg * b / rt2,
            "sigma_xx": z,
            "sigma_xy": sg * c / rt2,
            "sigma_yy": z,
            "eta": -sg * rt2 * e11,
            "eta_x": z,
            "eta_y": z,
            "M": np.full(sgn.shape, 2.0),
            "M_x": np.zeros(sgn.shape),
            "M_y": np.zeros(sgn.shape),
        }
        return out


# (sigma-hat, eta-hat) jets of each reference metric
_BASES = {DESITTER: _DeSitterBase(), FLAT: _FlatBase()}


# The frame scales by e^w and e^-w and its quadratic forms square them,
# so past this |w| they leave the floating-point range.
_EXP_MAX = 0.5 * math.log(np.finfo(float).max)


@dataclass
class PairJets:
    """sigma, eta and their first derivatives in x, y and path time t."""

    sigma: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    eta: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    sigma_t: np.ndarray
    eta_t: np.ndarray


@dataclass
class NodeJets:
    """The t-independent half of ``IsotropicSurfaceData.jets`` on fixed nodes.

    ``base`` holds the reference-pair jets and ``u`` the jet of the
    conformal factor; along the lens path only w = t u changes with t.
    """

    base: dict
    u: Jet2


class IsotropicSurfaceData:
    """The isotropic/dual pair realizing a compatible metric.

    ``jets(x, y, t)`` evaluates, in closed form, (sigma, eta) of
    e^{2 t u} (reference) and their first derivatives in x, y and t.
    t = 1, the default, is the metric itself; a lens cobordism runs from
    t = 0 to t = 1.

    The evaluation has two steps.  The per-grid step ``node_jets(x, y)``
    builds the reference-pair jets and the jet of u, which do not depend
    on t; the per-t step ``assemble(nodes, t)`` forms (sigma, eta) from
    them with w = t u.  ``jets`` is their composition, so a caller that
    visits many t on the same nodes runs the per-grid step once.
    """

    def __init__(self, metric: SplitMetric):
        if metric.coords != "affine":
            raise IncompatibleMetrics("isotropic surfaces use affine charts")
        self.metric = metric
        self.base = _BASES[metric.reference]

    def jets(self, x, y, t=1.0):
        return self.assemble(self.node_jets(x, y), t)

    def node_jets(self, x, y) -> NodeJets:
        return NodeJets(self.base.jets(x, y), self.metric.u.jet(x, y))

    def assemble(self, nodes: NodeJets, t) -> PairJets:
        b, ju = nodes.base, nodes.u
        w = t * ju.v
        wx, wy = t * ju.vx, t * ju.vy
        wxx, wxy, wyy = t * ju.vxx, t * ju.vxy, t * ju.vyy
        M, Mx, My = b["M"], b["M_x"], b["M_y"]
        if np.any(np.abs(w) > _EXP_MAX):
            raise NonFiniteDensity(f"conformal factor {np.max(np.abs(w)):.6g} "
                                   f"exceeds {_EXP_MAX:.6g}: e^w overflows")
        ew = np.exp(w)[..., None]

        def col(v):
            return v[..., None]

        sigma = ew * b["sigma"]
        sigma_x = ew * (col(wx) * b["sigma"] + b["sigma_x"])
        sigma_y = ew * (col(wy) * b["sigma"] + b["sigma_y"])

        m_wx, m_wy = col(M * wx), col(M * wy)
        m_wxy = col(M * wx * wy)
        h = b["eta"] - m_wy * b["sigma_x"] - m_wx * b["sigma_y"] - m_wxy * b["sigma"]
        h_x = (
            b["eta_x"]
            - col(Mx * wy + M * wxy) * b["sigma_x"] - m_wy * b["sigma_xx"]
            - col(Mx * wx + M * wxx) * b["sigma_y"] - m_wx * b["sigma_xy"]
            - col(Mx * wx * wy + M * (wxx * wy + wx * wxy)) * b["sigma"]
            - m_wxy * b["sigma_x"]
        )
        h_y = (
            b["eta_y"]
            - col(My * wy + M * wyy) * b["sigma_x"] - m_wy * b["sigma_xy"]
            - col(My * wx + M * wxy) * b["sigma_y"] - m_wx * b["sigma_yy"]
            - col(My * wx * wy + M * (wxy * wy + wx * wyy)) * b["sigma"]
            - m_wxy * b["sigma_y"]
        )
        emw = np.exp(-w)[..., None]
        eta = emw * h
        eta_x = emw * (h_x - col(wx) * h)
        eta_y = emw * (h_y - col(wy) * h)

        u, ux, uy = ju.v, ju.vx, ju.vy
        h_t = (
            -col(M * uy) * b["sigma_x"] - col(M * ux) * b["sigma_y"]
            - col(M * (ux * wy + wx * uy)) * b["sigma"]
        )
        return PairJets(sigma, sigma_x, sigma_y, eta, eta_x, eta_y,
                        col(u) * sigma, emw * h_t - col(u) * eta)


def pair_constraint_residuals(j: PairJets):
    """Max residual of the six defining relations of assembled pair jets."""
    res = [
        pair(j.sigma, j.sigma),
        pair(j.sigma_x, j.sigma),
        pair(j.sigma_y, j.sigma),
        pair(j.eta, j.eta),
        pair(j.eta, j.sigma) - 1.0,
        pair(j.eta, j.sigma_x),
        pair(j.eta, j.sigma_y),
    ]
    return float(np.max(np.abs(np.stack(res))))


def metric_realization_residual(j: PairJets, target):
    """|<d sigma, d sigma> - metric tensor| entrywise, maxed; ``target`` is
    the metric's ``bilinear_xy`` at the points of ``j``."""
    res = [
        pair(j.sigma_x, j.sigma_x),
        pair(j.sigma_y, j.sigma_y),
        pair(j.sigma_x, j.sigma_y) - target,
    ]
    return float(np.max(np.abs(np.stack(res))))


def sigma_by_pointwise_scaling(g: SplitMetric, x, y):
    """Independent construction: scale the Segre section pointwise.

    lambda is solved per point from the realization equation
    lambda^2 <s_x, s_y> = rho/2 (positive branch for x > y), without the
    closed-form factor used by the family constructor.
    """
    lam2 = 0.5 * g.density(x, y)
    lam = np.sign(np.asarray(x) - np.asarray(y)) * np.sqrt(lam2)
    return lam[..., None] * segre(x, y)


def dual_by_linear_solve(j: PairJets):
    """Solve the dual-surface conditions at each point independently.

    Three linear conditions (<., sigma> = 1, <., d sigma> = 0) leave a
    line eta_p + t sigma; isotropy fixes t linearly because sigma is
    isotropic.  Rank deficiency raises SingularDual.
    """
    rows = np.stack(
        [j.sigma @ GRAM, j.sigma_x @ GRAM, j.sigma_y @ GRAM], axis=-2
    )
    # the least-norm solution of rows . eta_p = (1, 0, 0) from the SVD of
    # every 3 x 4 system; a singular value at or below 4 eps of the largest
    # drops the rank, as numpy's lstsq counts it
    u, sv, vt = np.linalg.svd(rows, full_matrices=False)
    if np.any(sv[..., -1] <= 4 * np.finfo(float).eps * sv[..., 0]):
        raise SingularDual("dual system rank-deficient")
    eta_p = np.einsum("...k,...kj->...j", u[..., 0, :] / sv, vt)
    t = -0.5 * qform(eta_p)
    return eta_p + t[..., None] * j.sigma


# ---------------------------------------------------------------------------
# Epstein frames
# ---------------------------------------------------------------------------

RT2INV = math.sqrt(2.0) / 2.0


@dataclass
class EpsteinFrame:
    """(x, n) with q(x) = -1, q(n) = +1, <x, n> = 0, plus derivatives."""

    x: np.ndarray
    n: np.ndarray
    x_dx: np.ndarray
    x_dy: np.ndarray
    n_dx: np.ndarray
    n_dy: np.ndarray


def epstein_lift(data: IsotropicSurfaceData, x, y) -> EpsteinFrame:
    """The holonomic surface ((sigma - eta)/sqrt2, (sigma + eta)/sqrt2)."""
    return epstein_frame(data.jets(x, y))


def epstein_frame(j: PairJets) -> EpsteinFrame:
    """The Epstein frame of already assembled pair jets."""
    return EpsteinFrame(
        x=RT2INV * (j.sigma - j.eta),
        n=RT2INV * (j.sigma + j.eta),
        x_dx=RT2INV * (j.sigma_x - j.eta_x),
        x_dy=RT2INV * (j.sigma_y - j.eta_y),
        n_dx=RT2INV * (j.sigma_x + j.eta_x),
        n_dy=RT2INV * (j.sigma_y + j.eta_y),
    )


def frame_constraint_residuals(f: EpsteinFrame):
    """Unit/orthogonality and contact residuals of an Epstein frame."""
    res = [
        qform(f.x) + 1.0,
        qform(f.n) - 1.0,
        pair(f.x, f.n),
        pair(f.n, f.x_dx),
        pair(f.n, f.x_dy),
        pair(f.x, f.n_dx),
        pair(f.x, f.n_dy),
    ]
    return float(np.max(np.abs(np.stack(res))))


def envelope_incidence_residual(j: PairJets):
    """<sigma, x_pt> + sqrt(2)/2: horosphere membership of the envelope."""
    x_pt = RT2INV * (j.sigma - j.eta)
    return float(np.max(np.abs(pair(j.sigma, x_pt) + RT2INV)))


# ---------------------------------------------------------------------------
# Fundamental forms at infinity
# ---------------------------------------------------------------------------

def _pair_matrix(ax, ay, bx, by):
    return np.stack(
        [
            np.stack([pair(ax, bx), pair(ax, by)], axis=-1),
            np.stack([pair(ay, bx), pair(ay, by)], axis=-1),
        ],
        axis=-2,
    )


_ENVELOPE_DET_TOL = 1e-10


@dataclass
class InfinityForms:
    Istar: np.ndarray
    IIstar: np.ndarray
    IIIstar: np.ndarray
    Bstar: np.ndarray

    def shape_consistency_residual(self):
        """II* = I* B* and III*(X, Y) = I*(B*X, B*Y), maxed."""
        lhs1 = self.Istar @ self.Bstar
        r1 = np.max(np.abs(lhs1 - self.IIstar))
        lhs2 = np.swapaxes(self.Bstar, -1, -2) @ self.Istar @ self.Bstar
        r2 = np.max(np.abs(lhs2 - self.IIIstar))
        return float(max(r1, r2))

    def envelope_metric(self):
        """Induced metric of the envelope: I*/2 + II* + III*/2."""
        sym = 0.5 * (self.IIstar + np.swapaxes(self.IIstar, -1, -2))
        return 0.5 * self.Istar + sym + 0.5 * self.IIIstar

    def envelope_degenerate(self):
        """Mask of sample points where the envelope fails to immerse:
        |det| of the envelope metric at most ``_ENVELOPE_DET_TOL``.

        The envelope metric may degenerate; points are reported, not
        classified.
        """
        return np.abs(np.linalg.det(self.envelope_metric())) <= _ENVELOPE_DET_TOL


def infinity_forms(data: IsotropicSurfaceData, x, y) -> InfinityForms:
    j = data.jets(x, y)
    i_star = _pair_matrix(j.sigma_x, j.sigma_y, j.sigma_x, j.sigma_y)
    ii_star = -_pair_matrix(j.sigma_x, j.sigma_y, j.eta_x, j.eta_y)
    iii_star = _pair_matrix(j.eta_x, j.eta_y, j.eta_x, j.eta_y)
    det = np.linalg.det(i_star)
    if np.any(np.abs(det) < 1e-14):
        raise DegenerateIstar("first form at infinity is singular")
    b_star = np.linalg.solve(i_star, ii_star)
    return InfinityForms(i_star, ii_star, iii_star, b_star)


# ---------------------------------------------------------------------------
# Typical holonomic surfaces (classical fundamental forms)
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
            (r * np.cos(t))[..., None] * F_MINUS1
            + s[..., None] * F_PLUS1
            + (r * np.sin(t))[..., None] * F_MINUS2
        )

    def n_fn(s, t):
        shp = np.broadcast(np.asarray(s), np.asarray(t)).shape
        return np.broadcast_to(F_PLUS2, shp + (4,)).copy()

    return x_fn, n_fn


def graph_perturbed_slice(eps=0.05):
    """A non-geodesic perturbation of the slice, normal solved pointwise."""
    base_x, _ = totally_geodesic_slice()

    def x_fn(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        raw = base_x(s, t) + (
            eps * np.sin(1.3 * s) * np.cos(t)
        )[..., None] * F_PLUS2
        scale = np.sqrt(-qform(raw))
        return raw / scale[..., None]

    def n_fn(s, t, step=1e-5):
        xs = x_fn(s, t)
        tx = (x_fn(s + step, t) - x_fn(s - step, t)) / (2 * step)
        ty = (x_fn(s, t + step) - x_fn(s, t - step)) / (2 * step)
        n = _orthogonal_unit(xs, tx, ty)
        return n

    return x_fn, n_fn


def _orthogonal_unit(x, t1, t2):
    """The q-unit vector orthogonal to x, t1, t2 (vectorized)."""
    rows = np.stack([x @ GRAM, t1 @ GRAM, t2 @ GRAM], axis=-2)
    v = np.linalg.svd(rows)[2][..., -1, :]
    qv = qform(v)
    if np.any(qv <= 0):
        raise NotUnitNormal("orthogonal direction is not spacelike")
    return v / np.sqrt(qv)[..., None]


def difference_frame(x_fn, n_fn, s, t, step=1e-4) -> EpsteinFrame:
    """x, n and their first derivatives by central differences.

    For surfaces given only pointwise, such as the synthetic slices, which
    have no closed-form jets; NotUnitNormal if the supplied normal fails
    its constraints.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    x = x_fn(s, t)
    n = n_fn(s, t)
    if np.max(np.abs(qform(n) - 1.0)) > 1e-6 or np.max(np.abs(pair(x, n))) > 1e-6:
        raise NotUnitNormal("n is not a unit normal field")
    return EpsteinFrame(
        x, n,
        x_dx=(x_fn(s + step, t) - x_fn(s - step, t)) / (2 * step),
        x_dy=(x_fn(s, t + step) - x_fn(s, t - step)) / (2 * step),
        n_dx=(n_fn(s + step, t) - n_fn(s - step, t)) / (2 * step),
        n_dy=(n_fn(s, t + step) - n_fn(s, t - step)) / (2 * step),
    )


def fundamental_forms(f: EpsteinFrame):
    """I, II, III and the shape operator of a surface frame.

    Only x, n and their first derivatives are read.  II(u, v) =
    <D_u n, D_v x> and B solves D n = D x . B on the tangent plane.
    """
    i_mat = _pair_matrix(f.x_dx, f.x_dy, f.x_dx, f.x_dy)
    ii_mat = _pair_matrix(f.n_dx, f.n_dy, f.x_dx, f.x_dy)
    iii_mat = _pair_matrix(f.n_dx, f.n_dy, f.n_dx, f.n_dy)
    # B in the coordinate tangent frame: columns solve I . B_j = II_j
    b = np.linalg.solve(i_mat, 0.5 * (ii_mat + np.swapaxes(ii_mat, -1, -2)))
    return i_mat, ii_mat, iii_mat, b


def typical_holonomic_residual(x_fn, n_fn, s, t, step=1e-4):
    """|I*(lift) - (I + 2 II + III)/2| entrywise, maxed over samples."""
    f = difference_frame(x_fn, n_fn, s, t, step)
    i_mat, ii_mat, iii_mat, _ = fundamental_forms(f)
    lift1 = RT2INV * (f.x_dx + f.n_dx)
    lift2 = RT2INV * (f.x_dy + f.n_dy)
    istar = _pair_matrix(lift1, lift2, lift1, lift2)
    classical = 0.5 * (
        i_mat + ii_mat + np.swapaxes(ii_mat, -1, -2) + iii_mat
    )
    return float(np.max(np.abs(istar - classical)))
