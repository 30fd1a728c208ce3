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

from .errors import DegenerateIstar, IncompatibleMetrics, NonFiniteDensity
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
        # each power of d, and each quotient that recurs, formed once: d is
        # negative on the lens nodes, where numpy's d ** 3 costs a pow call
        # per node
        d2, d3 = d ** 2, d ** 3
        s_d2, s_d3, st_d2 = s / d2, 2 * s / d3, st / d2
        out = {}
        out["sigma"] = s / d
        out["sigma_x"] = a / d - s_d2
        out["sigma_y"] = b / d + s_d2
        out["sigma_xx"] = -2 * a / d2 + s_d3
        out["sigma_xy"] = c / d + (a - b) / d2 - s_d3
        out["sigma_yy"] = 2 * b / d2 + s_d3
        out["eta"] = st / d
        out["eta_x"] = st_x / d - st_d2
        out["eta_y"] = st_y / d + st_d2
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
        return {
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


# (sigma-hat, eta-hat) jets of each reference metric
_BASES = {DESITTER: _DeSitterBase(), FLAT: _FlatBase()}


# The frame scales by e^w and e^-w and its quadratic forms square them,
# so past this |w| they leave the floating-point range.
_EXP_MAX = 0.5 * math.log(np.finfo(float).max)


@dataclass
class PairJets:
    """sigma, eta and their first derivatives in x and y."""

    sigma: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    eta: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray


@dataclass
class NodeJets:
    """The t-independent half of ``IsotropicSurfaceData.jets`` on fixed nodes.

    ``base`` holds the reference-pair jets and ``u`` the jet of the
    conformal factor; along the lens path only w = t u changes with t.
    """

    base: dict
    u: Jet2


@dataclass
class LiftPath:
    """The lift sqrt2 x = sigma - eta along the lens path t -> t u, as
    coefficient planes in t built once per node set.

    With w = t u, sigma = e^{tu} sigma-hat and eta = e^{-tu} h, where h
    and its x, y partials are quadratics in t: ``h`` holds (H0, H1, H2)
    of h = H0 + t (H1 + t H2), and ``h_x``, ``h_y`` the same for h_x and
    h_y.  ``lift(t)`` then evaluates one slice with no jet assembly.
    """

    u: np.ndarray          # u, u_x, u_y as per-node columns
    u_x: np.ndarray
    u_y: np.ndarray
    sigma: np.ndarray      # sigma-hat and its partials
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    h: tuple
    h_x: tuple
    h_y: tuple

    def lift(self, t):
        """sqrt2 (x, x_x, x_y, x_t) of the lift at path time t.

        Fresh temporaries cost a slice more than its arithmetic, so after
        the first product of each term every step runs in place.
        """
        ep, em = np.exp(t * self.u), np.exp(-t * self.u)
        h = _quadratic(self.h, t)
        h_t = self.h[2] * (2 * t)
        h_t += self.h[1]

        def row(c, s_d, h_d):
            # e^{tu} (s_d + c sigma) - e^{-tu} (h_d - c h)
            head = c * self.sigma
            if s_d is not None:
                head += s_d
            head *= ep
            tail = c * h
            np.subtract(h_d, tail, out=tail)
            tail *= em
            head -= tail
            return head

        x = ep * self.sigma
        x -= em * h
        return (x, row(t * self.u_x, self.sigma_x, _quadratic(self.h_x, t)),
                row(t * self.u_y, self.sigma_y, _quadratic(self.h_y, t)),
                row(self.u, None, h_t))


def _quadratic(c, t):
    """c[0] + t (c[1] + t c[2]) as one new array."""
    out = c[2] * t
    out += c[1]
    out *= t
    out += c[0]
    return out


class IsotropicSurfaceData:
    """The isotropic/dual pair realizing a compatible metric.

    ``jets(x, y, t)`` evaluates, in closed form, (sigma, eta) of
    e^{2 t u} (reference) and their first derivatives in x and y.
    t = 1, the default, is the metric itself; a lens cobordism runs from
    t = 0 to t = 1.

    The evaluation has two steps.  The per-grid step ``node_jets(x, y)``
    builds the reference-pair jets and the jet of u, which do not depend
    on t.  A per-t step then reads them with w = t u: ``assemble(nodes,
    t)`` forms the full pair (sigma, eta), and ``lift_path(nodes, a, b)``
    the coefficient planes of the lift x alone, from which each t in
    [a, b] costs a quadratic in t.  ``jets`` is node_jets then assemble,
    so a caller that visits many t on the same nodes runs the per-grid
    step once.
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
        b, jw = nodes.base, [t * c for c in nodes.u]  # w's jet, w = t u
        w, wx, wy = jw[:3]
        _check_exp(float(np.max(np.abs(w), initial=0.0)))
        ew = np.exp(w)[..., None]
        sigma = ew * b["sigma"]
        sigma_x = ew * (wx[..., None] * b["sigma"] + b["sigma_x"])
        sigma_y = ew * (wy[..., None] * b["sigma"] + b["sigma_y"])
        h, h_x, h_y = (_less(t1 + t2, eta) for eta, t1, t2 in _eta_terms(b, jw))
        emw = np.exp(-w)[..., None]
        eta = emw * h
        eta_x = emw * (h_x - wx[..., None] * h)
        eta_y = emw * (h_y - wy[..., None] * h)
        return PairJets(sigma, sigma_x, sigma_y, eta, eta_x, eta_y)

    def lift_path(self, nodes: NodeJets, a, b) -> LiftPath:
        """The lift's coefficient planes for path times t in [a, b].

        Each coefficient is the t or t^2 term of ``assemble``'s h, h_x
        and h_y at w = t u.  |t u| <= max|u| max(|a|, |b|) on all of
        [a, b], so one check here covers every slice's e^{+-tu}.
        """
        base, ju = nodes.base, nodes.u
        _check_exp(float(np.max(np.abs(ju.v))) * max(abs(a), abs(b)))
        h, h_x, h_y = ((eta, _less(t1), _less(t2)) for eta, t1, t2 in
                       _eta_terms(base, ju))
        return LiftPath(*(v[..., None] for v in (ju.v, ju.vx, ju.vy)), base["sigma"],
                        base["sigma_x"], base["sigma_y"], h, h_x, h_y)


def _check_exp(w_max):
    if w_max > _EXP_MAX:  # then e^w may overflow
        raise NonFiniteDensity(f"conformal factor {w_max:.6g} "
                               f"exceeds {_EXP_MAX:.6g}: e^w overflows")


def _eta_terms(b, jet):
    """h = e^w eta and its x and y partials from the base jets ``b`` and
    w's jet (w, w_x, w_y, w_xy, w_xx, w_yy), one row each: (eta-hat plane,
    pairs linear in w, pairs quadratic in w), where h is eta-hat less c p
    over each factor pair (per-node column c, base plane p) in order."""
    M, Mx, My, _, wx, wy, wxy, wxx, wyy = (
        v[..., None] for v in (b["M"], b["M_x"], b["M_y"], *jet))
    s, s_x, s_y, s_xy = b["sigma"], b["sigma_x"], b["sigma_y"], b["sigma_xy"]
    m_wx, m_wy, m_wxy = M * wx, M * wy, M * wx * wy
    yield b["eta"], [(m_wy, s_x), (m_wx, s_y)], [(m_wxy, s)]
    yield (b["eta_x"], [(Mx * wy + M * wxy, s_x), (m_wy, b["sigma_xx"]),
                        (Mx * wx + M * wxx, s_y), (m_wx, s_xy)],
           [(Mx * wx * wy + M * (wxx * wy + wx * wxy), s), (m_wxy, s_x)])
    yield (b["eta_y"], [(My * wy + M * wyy, s_x), (m_wy, s_xy),
                        (My * wx + M * wxy, s_y), (m_wx, b["sigma_yy"])],
           [(My * wx * wy + M * (wxy * wy + wx * wyy), s), (m_wxy, s_y)])


def _less(pairs, head=None):
    """head - c0 p0 - c1 p1 - ..., in place after the first product; with
    no head, -c0 p0 - c1 p1 - ..., the first column negated."""
    (c, p), *rest = pairs
    out = -c * p if head is None else head - c * p
    for c, p in rest:
        out -= c * p
    return out


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
    return float(np.max(np.abs(pair(j.sigma, epstein_frame(j).x) + RT2INV)))


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
# Classical fundamental forms
# ---------------------------------------------------------------------------

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
