"""Forms on the unit tangent bundle, exterior derivative, W-volume."""

import numpy as np
import pytest

from splitannulus import adsgeom as A, fields as F, forms as FM
from splitannulus import liouville as LV, lorentz as L
from splitannulus.errors import (
    NonCompactDifference,
    NonFiniteDensity,
    NotHolonomicBoundary,
    NotTangent,
)

import oracles as O

RNG = np.random.default_rng(31)
G0 = L.desitter()
BOX = (0, 1, 2, 3)
BUMP = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.35)


def derived_vector(f):
    """The fourth frame direction e: orthogonal, q(e) = -1, det = +1."""
    x, n, u = f[:4], f[4:8], f[8:12]
    e = np.linalg.svd(np.stack([x @ A.GRAM, n @ A.GRAM, u @ A.GRAM]))[2][-1]
    qe = float(e @ A.GRAM @ e)
    assert qe < 0, "derived direction is not timelike"
    e = e / np.sqrt(-qe)
    return -e if A.det4(x, n, u, e) < 0 else e


def _ut_config(seed=0):
    rng = np.random.default_rng(seed)
    p = FM.random_ut_point(rng)
    vs = [FM.random_tangent(rng, p) for _ in range(4)]
    return p, vs


# ---------------------------------------------------------------------------
# pointwise form algebra
# ---------------------------------------------------------------------------

def test_omega_alternating_and_vertical():
    p, (u, v, w, _) = _ut_config(1)
    assert FM.omega3(p, u, u, w) == pytest.approx(0.0, abs=1e-12)
    vertical = np.concatenate([np.zeros(4), v[4:]])
    vertical = FM.tangent_project(p, vertical)
    vertical[:4] = 0.0  # kill the horizontal part exactly
    assert abs(FM.omega3(p, vertical, v, w, check=False)) <= 1e-12


def test_forms_match_cofactor_oracle():
    p, (u, v, w, _) = _ut_config(2)

    def cofactor_det(rows):
        m = np.stack(rows)
        total = 0.0
        for j in range(4):
            minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
            total += (-1) ** j * m[0, j] * np.linalg.det(minor)
        return total

    assert FM.omega3(p, u, v, w) == pytest.approx(
        cofactor_det([p[:4], u[:4], v[:4], w[:4]]), abs=1e-12
    )
    assert FM.theta(1, p, u, v) == pytest.approx(
        cofactor_det([p[:4], p[4:], u[:4], v[:4]]), abs=1e-12
    )
    assert FM.theta(2, p, u, v) == pytest.approx(
        cofactor_det([p[:4], p[4:], u[4:], v[4:]]), abs=1e-12
    )


def test_alpha_antisymmetry():
    p, (u, v, _, _) = _ut_config(3)
    assert FM.alpha2(p, u, u) == pytest.approx(0.0, abs=1e-13)
    assert FM.alpha2(p, u, v) == pytest.approx(-FM.alpha2(p, v, u), abs=1e-13)


def test_forms_multilinear():
    p, (u, v, w, z) = _ut_config(4)
    a, b = 1.3, -0.7
    lhs = FM.omega3(p, a * u + b * z, v, w, check=False)
    rhs = a * FM.omega3(p, u, v, w) + b * FM.omega3(p, z, v, w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_xstar_plus_nstar_vanishes_on_tangents():
    p, vs = _ut_config(5)
    for v in vs:
        assert abs(FM.xstar(p, v) + FM.nstar(p, v)) <= 1e-10


def test_not_tangent_rejected():
    p, (u, *_) = _ut_config(6)
    bad = u.copy()
    bad[0] += 0.1
    with pytest.raises(NotTangent):
        FM.omega3(p, bad, u, u)


def _constraint_residual(p, v):
    """max |D_v c| over the constraints c of the point p: q(v_i) = +-1 and
    <v_i, v_j> = 0 for its 4-vectors v_i, written out with the pairing."""
    ps, vs = p.reshape(-1, 4), v.reshape(-1, 4)
    k = len(ps)
    terms = [2 * A.pair(ps[i], vs[i]) for i in range(k)]
    terms += [A.pair(vs[i], ps[j]) + A.pair(ps[i], vs[j])
              for i in range(k) for j in range(i + 1, k)]
    return max(abs(float(t)) for t in terms)


@pytest.mark.parametrize("draw", [FM.random_ut_point, FM.random_frame_point],
                         ids=["ut", "frame"])
def test_tangent_project_is_the_orthogonal_projector(draw):
    # P v lies in the constraint kernel, P is idempotent, and v - P v is
    # orthogonal to every tangent, to roundoff.  A ridge solve of the
    # normal equations, lstsq(R^T R + 1e-13 I, R^T R v), reads 7e-14 on the
    # first two and 1.2e-2 on the third: it divides the roundoff of R^T R v
    # in the kernel by the ridge, and adds that tangent to v - P v
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        p = draw(rng)
        v, w = rng.normal(size=(2, len(p)))
        pv, pw = FM.tangent_project(p, v), FM.tangent_project(p, w)
        scale = np.linalg.norm(v)
        worst = max(worst, _constraint_residual(p, pv) / scale,
                    np.max(np.abs(FM.tangent_project(p, pv) - pv)) / scale,
                    abs((v - pv) @ pw) / (scale * np.linalg.norm(w)))
    assert worst <= 1e-14


@pytest.mark.parametrize("draw", [FM.random_ut_point, FM.random_frame_point],
                         ids=["ut", "frame"])
def test_check_tangent_refuses_past_its_tolerance(draw):
    rng = np.random.default_rng(9)
    p = draw(rng)
    v = FM.tangent_project(p, rng.normal(size=len(p)))
    assert _constraint_residual(p, v) <= 1e-12
    FM.check_tangent(p, v)
    # the residual is linear in the vector: off reads 1
    off = rng.normal(size=len(p))
    off /= _constraint_residual(p, off)
    for scale, refused in ((0.9e-8, False), (1.1e-8, True)):
        w = v + scale * off
        assert (_constraint_residual(p, w) > 1e-8) == refused
        if refused:
            with pytest.raises(NotTangent, match="tangency residual"):
                FM.check_tangent(p, v, w)
        else:
            FM.check_tangent(p, v, w)


def test_derived_vector_invariants():
    rng = np.random.default_rng(71)
    for _ in range(10):
        f = FM.random_frame_point(rng)
        e = derived_vector(f)
        assert A.qform(e) == pytest.approx(-1.0, abs=1e-10)
        assert float(A.det4(f[:4], f[4:8], f[8:12], e)) == pytest.approx(
            1.0, abs=1e-10
        )
        for part in (f[:4], f[4:8], f[8:12]):
            assert abs(A.pair(e, part)) <= 1e-10


def test_beta_examples():
    rng = np.random.default_rng(8)
    f = FM.random_frame_point(rng)
    e = derived_vector(f)
    w0 = FM.tangent_project(f, np.zeros(12))
    assert FM.beta1(f, w0) == 0.0
    # w3 proportional to e evaluates to q(e) * scale = -scale
    w = np.concatenate([np.zeros(8), 1.7 * e])
    assert -float(A.det4(f[:4], f[4:8], f[8:12], w[8:12])) == pytest.approx(
        -1.7, abs=1e-10
    )
    # linearity on random combinations
    v1 = FM.random_tangent(rng, f)
    v2 = FM.random_tangent(rng, f)
    a, b = 0.6, -1.9
    assert FM.beta1(f, a * v1 + b * v2) == pytest.approx(
        a * FM.beta1(f, v1) + b * FM.beta1(f, v2), abs=1e-12
    )


def test_so_q_invariance_of_forms():
    rng = np.random.default_rng(12)
    rot = A.random_so_q(rng)
    p, (u, v, w, _) = _ut_config(13)

    def rot8(vec):
        return np.concatenate([rot @ vec[:4], rot @ vec[4:]])

    pr, ur, vr, wr = rot8(p), rot8(u), rot8(v), rot8(w)
    assert FM.omega3(p, u, v, w) == pytest.approx(
        FM.omega3(pr, ur, vr, wr, check=False), abs=1e-10)
    assert FM.alpha2(p, u, v) == pytest.approx(
        FM.alpha2(pr, ur, vr, check=False), abs=1e-10)
    for i in (1, 2):
        assert FM.theta(i, p, u, v) == pytest.approx(
            FM.theta(i, pr, ur, vr, check=False), abs=1e-10)
    f = FM.random_frame_point(rng)
    t = FM.random_tangent(rng, f)
    fr = np.concatenate([rot @ f[:4], rot @ f[4:8], rot @ f[8:12]])
    tr = np.concatenate([rot @ t[:4], rot @ t[4:8], rot @ t[8:12]])
    assert FM.beta1(f, t) == pytest.approx(FM.beta1(fr, tr), abs=1e-10)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_of_constant_form_in_flat_chart():
    # a constant 1-form on flat space is closed
    coeffs = np.array([0.3, -1.2, 0.7])
    form = lambda p, vecs: vecs[0] @ coeffs
    base = np.array([0.1, 0.2, 0.3])
    v1 = np.array([1.0, 0.0, 0.5])
    v2 = np.array([0.0, 1.0, -0.3])
    val = FM.exterior_derivative(form, base, [v1, v2])
    assert abs(val) <= 1e-10


def test_omega_is_closed():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = FM.random_ut_point(rng)
        vs = [FM.random_tangent(rng, p) for _ in range(4)]
        dom = FM.exterior_derivative(
            lambda pt, vecs: FM.omega3(pt, *vecs, check=False), p, vs)
        assert abs(dom) <= 1e-12


def _quartic_coeffs(p):
    # coefficients of degree 4 along every line
    x, y, z = np.moveaxis(p, -1, 0)
    return np.stack([x ** 4, x * y ** 3, x * x * z * z + y ** 4], axis=-1)


def _quartic_form(p, vecs):
    return np.sum(_quartic_coeffs(p) * vecs[0], axis=-1)


def test_exterior_derivative_exact_on_quartics():
    # the 1-form c(p) . u has coefficients of degree 4 along every line,
    # and d of it is v1 . J v0 - v0 . J v1 with J the Jacobian of c
    def jac(p):
        x, y, z = p
        return np.array([[4 * x ** 3, 0.0, 0.0],
                         [y ** 3, 3 * x * y * y, 0.0],
                         [2 * x * z * z, 4 * y ** 3, 2 * x * x * z]])

    rng = np.random.default_rng(23)
    for _ in range(20):
        base, v0, v1 = rng.uniform(-0.8, 0.8, (3, 3))
        val = FM.exterior_derivative(_quartic_form, base, [v0, v1])
        j = jac(base)
        assert abs(val - (v1 @ j @ v0 - v0 @ j @ v1)) <= 1e-13


def _looped_exterior_derivative(form, base, vectors):
    # the five-point stencil one point at a time: each call sees one point
    # and the vector set that leaves v_j out
    total = 0.0
    for j, v in enumerate(vectors):
        rest = vectors[:j] + vectors[j + 1:]

        def f(s):
            return float(form(base + s * v, rest))

        stencil = 8.0 * (f(0.5) - f(-0.5)) - (f(1.0) - f(-1.0))
        total += (-1) ** j * stencil / 6.0
    return total


def _beta_form(pt, vecs):
    return FM.beta(pt, vecs[0])


def _alpha_form(pt, vecs):
    return FM.alpha2(pt, *vecs, check=False)


def _stencil_configs(seed):
    # (form, base, vectors): beta on a frame, alpha on UT, the quartic
    rng = np.random.default_rng(seed)
    f = FM.random_frame_point(rng)
    q = FM.random_ut_point(rng)
    base, *quartic = rng.uniform(-0.8, 0.8, (3, 3))
    return [
        (_beta_form, f, [FM.random_tangent(rng, f) for _ in range(2)]),
        (_alpha_form, q, [FM.random_tangent(rng, q) for _ in range(3)]),
        (_quartic_form, base, quartic),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_stacked_exterior_derivative_matches_the_per_point_loop(seed):
    for form, base, vectors in _stencil_configs(seed):
        stacked = FM.exterior_derivative(form, base, vectors)
        assert stacked.hex() == _looped_exterior_derivative(
            form, base, vectors).hex()


def test_exterior_derivative_calls_the_form_once(monkeypatch):
    # every stencil point of every vector in one call: (k + 1, 4) points
    for form, base, vectors in _stencil_configs(0):
        shapes = []

        def counted(pt, vecs):
            shapes.append(pt.shape[:-1])
            return form(pt, vecs)

        FM.exterior_derivative(counted, base, vectors)
        assert shapes == [(len(vectors), 4)]


def _looped_fundamental_equations(rng):
    # the residuals with every form, theta, x* and n* taken one vector
    # (pair) at a time, in the wedge's order
    f = FM.random_frame_point(rng)
    v = FM.random_tangent(rng, f)
    w = FM.random_tangent(rng, f)
    dbeta = _looped_exterior_derivative(_beta_form, f, [v, w])
    p, vp, wp = f[:8], v[:8], w[:8]
    r1 = abs(dbeta - (float(FM.theta(2, p, vp, wp, check=False))
                      - float(FM.theta(1, p, vp, wp, check=False))))

    q = FM.random_ut_point(rng)
    a, b, c = (FM.random_tangent(rng, q) for _ in range(3))
    dalpha = _looped_exterior_derivative(_alpha_form, q, [a, b, c])

    def wedge(gamma, i):
        def th(s, t):
            return float(FM.theta(i, q, s, t, check=False))
        g = [float(gamma(q, t)) for t in (a, b, c)]
        return g[0] * th(b, c) - g[1] * th(a, c) + g[2] * th(a, b)

    rhs = 0.5 * (wedge(FM.nstar, 2) - wedge(FM.xstar, 1))
    return r1, abs(dalpha - rhs)


def test_fundamental_equations_match_the_per_point_loop():
    # same residuals bit for bit, same draws left for the caller
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    for _ in range(8):
        got = FM.fundamental_equations_residual(rng)
        ref = _looped_fundamental_equations(ref_rng)
        assert [r.hex() for r in got] == [r.hex() for r in ref]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_fundamental_equations():
    rng = np.random.default_rng(29)
    for _ in range(10):
        r1, r2 = FM.fundamental_equations_residual(rng)
        assert r1 <= 1e-10
        assert r2 <= 1e-10


def test_contact_vectors_kill_wedge_terms():
    # vectors in the contact distribution have x* = n* = 0, so the
    # wedge side of the alpha equation collapses termwise
    rng = np.random.default_rng(37)
    p = FM.random_ut_point(rng)
    x, n = p[:4], p[4:]
    amb = rng.normal(size=4)
    for basis_vec in (x, n):
        amb = amb - A.pair(amb, basis_vec) / A.qform(basis_vec) * basis_vec
    u = np.concatenate([amb, amb])  # contact: u1 = u2 orthogonal to x and n
    assert abs(FM.xstar(p, u)) <= 1e-12
    assert abs(FM.nstar(p, u)) <= 1e-12


# ---------------------------------------------------------------------------
# W-volume
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lens():
    return FM.LensCobordism(G0.scaled_by(BUMP), BOX)


def test_degenerate_lens_is_zero():
    zero = FM.LensCobordism(G0.scaled_by(0.0 * BUMP), BOX)
    grid = F.box_grid(BOX, level=0, base_cells=8)
    assert abs(FM.w_volume(zero, grid).value) <= 1e-12


def test_w_volume_matches_action(lens):
    grid = F.box_grid(BOX, level=1)
    wv = FM.w_volume(lens, grid)
    s = LV.action(G0, G0.scaled_by(BUMP), F.box_grid(BOX, level=3)).value
    # measured 2.8e-17; the bound sits at summation roundoff
    assert abs(wv.value - s) <= 1e-15


def _deep_action(u):
    # the action on aligned gauss16 cells at level 3, whose levels 3 and 4
    # agree to 3e-18 on every factor below
    xb, yb = u.break_lines()
    grid = F.box_grid(BOX, level=3, base_cells=2, scheme="gauss16",
                      x_breaks=xb, y_breaks=yb)
    return LV.action(G0, G0.scaled_by(u), grid, refine=False).value


@pytest.mark.parametrize("u, level", [
    (BUMP, 0),
    (F.bump_field((0.4, 2.6), (0.3, 0.25), -0.5), 0),
    # the narrow bump gets one cell per axis below level 2 (|W - S| is
    # 4.2e-4 at level 0 and 9.5e-11 at level 1)
    (BUMP + F.bump_field((0.2, 2.75), (0.15, 0.2), -0.3), 2),
    # its box reaches past the lens box, which clips the rule
    (F.ClippedField(BUMP, (-0.5, 0.95, 2.05, 3.5)), 0),
], ids=["roadmap_bump", "narrow_bump", "two_bumps", "clipped_bump"])
def test_w_volume_equals_the_deep_action(u, level):
    lens = FM.LensCobordism(G0.scaled_by(u), BOX)
    wv = FM.w_volume(lens, F.box_grid(BOX, level=level))
    assert abs(wv.value - _deep_action(u)) <= 1e-11


def test_roadmap_lens_trail_bits(lens):
    # the level-0 trail of the ROADMAP bump, bit for bit
    wv = FM.w_volume(lens, F.box_grid(BOX, level=0))
    assert [v.hex() for v in wv.trail] == ["-0x1.5666a126d3d60p-7",
                                           "-0x1.5666aa1c60dc0p-7"]


def test_w_volume_regression(lens):
    # the deep action reference of tests/test_cli.py; measured 4.8e-16
    wv = FM.w_volume(lens, F.box_grid(BOX, level=0))
    assert abs(wv.value - (-0.01044925028032247)) <= 1e-15


def test_w_volume_carries_its_two_level_trail(lens):
    # the caller's grid supplies only the level: the trail is the lens's
    # own rule at that level and the next
    grid = F.box_grid(BOX, level=0, base_cells=8)
    wv = FM.w_volume(lens, grid)
    assert len(wv.trail) == 2 and wv.trail[1] == wv.value
    assert wv.error_estimate == abs(wv.trail[1] - wv.trail[0])
    assert wv.rule.describe() == FM.w_grid(lens, 1).describe()
    assert wv.trail == [FM.w_value(lens, FM.w_grid(lens, level))
                        for level in (0, 1)]


def test_w_grid_is_the_support_box_cut_at_the_break_lines():
    # a field clipped to a box reaching past the lens box: the rule covers
    # the clip box cut down to the lens box, cut at the inner bump's lines
    x0, x1, y0, y1 = BUMP.support_box
    u = F.ClippedField(BUMP, (-0.5, 0.95, 2.05, 3.5))
    grid = FM.w_grid(FM.LensCobordism(G0.scaled_by(u), BOX), 0)
    assert grid.scheme == "gauss12" and grid.level == 0
    assert grid.x_segments == ((0.0, x0), (x0, x1), (x1, 0.95))
    assert grid.y_segments == ((2.05, y0), (y0, y1), (y1, 3.0))
    bump_grid = FM.w_grid(FM.LensCobordism(G0.scaled_by(BUMP), BOX), 2)
    assert bump_grid.x_segments == ((x0, x1),) and bump_grid.cells == 8


def test_w_volume_builds_base_jets_once_per_grid(lens, monkeypatch):
    calls = []
    original = A._DeSitterBase.jets

    def counted(self, x, y):
        calls.append(np.broadcast(x, y).size)
        return original(self, x, y)

    monkeypatch.setattr(A._DeSitterBase, "jets", counted)
    FM.w_volume(lens, F.box_grid(BOX, level=0, base_cells=8))
    # once on the lens's rule at level 0, once at level 1
    assert calls == [g.x_nodes.size * g.y_nodes.size
                     for g in (FM.w_grid(lens, 0), FM.w_grid(lens, 1))]


def test_w_volume_integrates_once_per_grid(lens, monkeypatch):
    # alpha at both ends and every t-slice of the bulk are one density
    levels = []
    original = F.QuadratureGrid.integrate

    def counted(self, *args, **kwargs):
        levels.append(self.level)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(F.QuadratureGrid, "integrate", counted)
    FM.w_volume(lens, F.box_grid(BOX, level=0, base_cells=8))
    assert levels == [0, 1]


def test_w_density_builds_only_the_two_boundary_frames(lens, monkeypatch):
    # alpha reads the full Epstein frame at both ends; each of the 12 bulk
    # t-slices takes det4 of the lift x from the per-node coefficient
    # planes, with no assembled pair
    frames, assembled = [], []
    epstein_frame = FM.epstein_frame
    assemble = A.IsotropicSurfaceData.assemble
    integrate = F.QuadratureGrid.integrate

    def counted_frame(j):
        frames[-1] += 1
        return epstein_frame(j)

    def counted_assemble(self, nodes, t):
        assembled[-1] += 1
        return assemble(self, nodes, t)

    def counted_integrate(self, density, support=None):
        def seen(x, y):
            frames.append(0)
            assembled.append(0)
            return density(x, y)
        return integrate(self, seen, support)

    monkeypatch.setattr(FM, "epstein_frame", counted_frame)
    monkeypatch.setattr(A.IsotropicSurfaceData, "assemble", counted_assemble)
    monkeypatch.setattr(F.QuadratureGrid, "integrate", counted_integrate)
    FM.w_volume(lens, F.box_grid(BOX, level=0))
    assert frames == [2, 2]
    assert assembled == [2, 2]


def _path_derivatives(data, nodes, t, eps=1e-30):
    """(sigma_t, eta_t) of the pair assembled at path time t by complex
    step, Im j(t + i eps) / eps, which subtracts nothing."""
    j = data.assemble(nodes, complex(t, eps))
    return j.sigma.imag / eps, j.eta.imag / eps


def _bulk_density(j, sigma_t, eta_t):
    """det(x, d_x x, d_y x, d_t x) of the lift x = (sigma - eta)/sqrt2,
    read off the assembled pair jets and their path derivatives."""
    return A.det4(A.RT2INV * (j.sigma - j.eta), A.RT2INV * (j.sigma_x - j.eta_x),
                  A.RT2INV * (j.sigma_y - j.eta_y), A.RT2INV * (sigma_t - eta_t))


@pytest.mark.parametrize("metric", [G0, L.flat()], ids=["desitter", "flat"])
@pytest.mark.parametrize("u", [
    BUMP,
    BUMP + F.bump_field((0.2, 2.75), (0.15, 0.2), -0.3),
], ids=["roadmap_bump", "two_bumps"])
def test_lift_path_slices_match_the_assembled_bulk_density(metric, u):
    # the W density's bulk slice from the coefficient planes against the
    # same det4 of the assembled pair, on the level-0 rule's nodes.  The
    # densities reach 4e3 and the two-bump terms 2e9, so the difference
    # is bounded against the product over the four rows of |sigma_k| +
    # |eta_k|: measured 4.3e-17, with the path derivatives by complex step
    lens = FM.LensCobordism(metric.scaled_by(u), BOX)
    grid = FM.w_grid(lens, 0)
    nodes = lens.data.node_jets(grid.x_nodes[:, None], grid.y_nodes[None, :])
    path = lens.data.lift_path(nodes, 0.0, 1.0)

    def size(v, w):
        return np.linalg.norm(v, axis=-1) + np.linalg.norm(w, axis=-1)

    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        j = lens.data.assemble(nodes, t)
        sigma_t, eta_t = _path_derivatives(lens.data, nodes, t)
        terms = (size(j.sigma, j.eta) * size(j.sigma_x, j.eta_x)
                 * size(j.sigma_y, j.eta_y) * size(sigma_t, eta_t))
        diff = np.abs(0.25 * A.det4(*path.lift(t)) - _bulk_density(j, sigma_t, eta_t))
        assert np.all(diff <= 4e-16 * terms), t


@pytest.mark.parametrize("a, b", [(0.0, 3000.0), (-3000.0, 1.0)])
def test_lift_path_refuses_an_overflowing_range(lens, a, b):
    # max|u| max(|a|, |b|) = 1050 passes _EXP_MAX = 354.9, and the late
    # slices' e^{tu} would overflow past 709.8: the check runs once per
    # density, before any slice
    with pytest.raises(NonFiniteDensity, match="e\\^w overflows"):
        FM.w_value(lens, FM.w_grid(lens, 0), a, b)


def test_w_volume_density_sees_under_3000_nodes(lens, monkeypatch):
    # a level-0 W-volume on the roadmap bump, both levels of its trail
    nodes = []
    integrate = F.QuadratureGrid.integrate

    def counted(self, density, support=None):
        def seen(x, y):
            nodes.append(np.broadcast(x, y).size)
            return density(x, y)
        return integrate(self, seen, support)

    monkeypatch.setattr(F.QuadratureGrid, "integrate", counted)
    FM.w_volume(lens, F.box_grid(BOX, level=0))
    assert len(nodes) == 2 and sum(nodes) <= 3000


def w_volume_split(lens, grid):
    """Chasles check: the lens split at t = 1/2 sums to the full lens.

    All three run on ``w_grid`` at ``grid.level``; each half and the full
    lens carry one gauss12 cell in t, so the halves and the whole are
    different t-rules and the additivity residual is their quadrature
    error (the boundary terms telescope).
    """
    gr = FM.w_grid(lens, grid.level)
    return (FM.w_value(lens, gr, 0.0, 0.5),
            FM.w_value(lens, gr, 0.5, 1.0),
            FM.w_value(lens, gr))


def test_w_volume_chasles_split(lens):
    grid = F.box_grid(BOX, level=0)
    w1, w2, wf = w_volume_split(lens, grid)
    # the halves and the whole are different t-rules; measured 1.4e-15
    assert abs(w1 + w2 - wf) <= 1.5e-14


@pytest.mark.parametrize("reference, pinned", [
    (L.DESITTER, ["-0x1.5666a9a68ddf0p-8", "-0x1.566698a71a140p-8",
                  "-0x1.5666a126d3d60p-7"]),
    (L.FLAT, ["0x1.b625680000000p-35", "0x1.0d511d0000000p-29",
              "0x1.1429b31000000p-29"]),
], ids=["desitter", "flat"])
def test_w_volume_split_bits(reference, pinned):
    # the halves read the pair jets at t = 1/2, which no other pin does
    g0 = L.desitter() if reference == L.DESITTER else L.flat()
    lens = FM.LensCobordism(g0.scaled_by(BUMP), BOX)
    got = w_volume_split(lens, F.box_grid(BOX, level=0))
    assert [v.hex() for v in got] == pinned


@pytest.mark.parametrize("u", [
    BUMP,
    BUMP + F.bump_field((0.2, 2.75), (0.15, 0.2), -0.3),
], ids=["bump", "two_bumps"])
def test_boundary_frames_agree_bitwise_off_the_support_box(u):
    # a boxed field's jets are exact zeros off its box, so w = t u is too
    # and the frames at t = 0 and t = 1 agree bit for bit there
    lens = FM.LensCobordism(G0.scaled_by(u), BOX)
    x0, x1, y0, y1 = u.support_box
    xs, ys = np.meshgrid(np.linspace(0.01, 0.99, 25), np.linspace(2.01, 2.99, 25))
    off = ~((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))
    f0 = lens.frame(xs[off], ys[off], 0.0)
    f1 = lens.frame(xs[off], ys[off], 1.0)
    for name, v in vars(f0).items():
        assert np.array_equal(v, getattr(f1, name)), name


def test_noncompact_difference_rejected():
    # a factor with no support box cannot bound a lens
    u = F.DeSitterLogFactor() * 0.01
    with pytest.raises(NonCompactDifference):
        FM.LensCobordism(G0.scaled_by(u), BOX)


@pytest.mark.parametrize("box", [(2, 3, 4, 5), (0.92, 2, 2, 3)],
                         ids=["apart", "sharing_an_edge"])
def test_lens_box_that_misses_the_factor_is_refused(box):
    # W's rule covers u's support box clipped to the lens box; an empty one
    # is refused when the lens is built, not by the rule's build
    u = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.35)
    with pytest.raises(NonCompactDifference, match="does not meet the lens box"):
        FM.LensCobordism(G0.scaled_by(u), box)


def test_non_holonomic_boundary_rejected():
    # the frame relations hold for any jet values at a point, so only
    # rounding breaks them: at u = 20, sigma ~ e^20 and eta ~ e^-20, and
    # the t = 1 frame's residual reads 64 against 1e-8
    u = F.bump_field((0.5, 2.5), (0.42, 0.42), 20.0)
    with pytest.raises(NotHolonomicBoundary, match="contact residual"):
        FM.LensCobordism(G0.scaled_by(u), BOX)


class _MisreportedBump(F.BumpField):
    """The roadmap bump with one partial of its jet scaled by ``factor``."""

    def __init__(self, name, factor):
        super().__init__((0.5, 2.5), (0.42, 0.42), 0.35)
        self.name, self.factor = name, factor

    def _jet(self, x, y):
        j = super()._jet(x, y)
        parts = {n: getattr(j, n) for n in ("v", "vx", "vy", "vxy", "vxx", "vyy")}
        parts[self.name] = self.factor * parts[self.name]
        return F.Jet2(**parts)


@pytest.mark.parametrize("name", ["vx", "vy", "vxy"])
def test_lens_refuses_a_jet_that_is_not_the_derivative(name):
    # the frame relations hold for any jet values at a point, so a bump
    # that reports twice one of its partials passes the contact check; the
    # central differences of its value at the same points do not
    FM.LensCobordism(G0.scaled_by(_MisreportedBump(name, 1.0)), BOX)
    with pytest.raises(NotHolonomicBoundary, match="central differences"):
        FM.LensCobordism(G0.scaled_by(_MisreportedBump(name, 2.0)), BOX)


@pytest.mark.parametrize("u", [
    F.ClippedField(F.PolynomialField([[0.1, 0.2], [0.5, -0.3]]),
                   (0.3, 0.7, 2.3, 2.6)),
    # a bump whose box reaches past the lens box, clipped by it
    F.bump_field((0.9, 2.5), (0.3, 0.3), 0.3),
], ids=["clipped_polynomial", "bump_past_the_lens_box"])
def test_factor_that_jumps_at_its_box_edge_is_refused(u):
    # W = S needs u C^2 across the edge of its support box (clipped to the
    # lens box); off by 1.67e-2 at every level on the clipped polynomial
    with pytest.raises(NonCompactDifference, match="edge of its support box"):
        FM.LensCobordism(G0.scaled_by(u), BOX)


def variational_3d_residual(metric, u, dt, grid):
    """|central difference of W(lens to e^{2 dt u} g) + (1/2) int u F|,
    the lenses over the grid's box."""
    box = (grid.x_segments[0][0], grid.x_segments[-1][1],
           grid.y_segments[0][0], grid.y_segments[-1][1])
    plus = FM.LensCobordism(metric.scaled_by(dt * u), box)
    minus = FM.LensCobordism(metric.scaled_by(-dt * u), box)
    wp = FM.w_volume(plus, grid).value
    wm = FM.w_volume(minus, grid).value
    cd = (wp - wm) / (2.0 * dt)
    kg = L.curvature(metric)
    target = grid.integrate(lambda x, y: u.value(x, y) * kg.F_density(x, y))
    return abs(cd + 0.5 * target)


def test_variational_3d():
    grid = F.box_grid(BOX, level=0)
    res = variational_3d_residual(G0, BUMP, 1e-3, grid)
    assert res <= 1e-8
    res2 = variational_3d_residual(G0, BUMP, 5e-4, grid)
    # exactly quadratic in t: both residuals sit at the floor of the
    # target integral on the gauss2 grid, 7.6e-10
    assert res2 <= 1e-8


def test_variational_3d_zero_factor():
    grid = F.box_grid(BOX, level=0, base_cells=8)
    assert variational_3d_residual(G0, 0.0 * BUMP, 1e-3, grid) <= 1e-12


# ---------------------------------------------------------------------------
# classical formula
# ---------------------------------------------------------------------------

def mean_curvature(f):
    """H = (1/2) tr(B) for a lifted surface frame."""
    return 0.5 * np.trace(A.fundamental_forms(f)[-1], axis1=-2, axis2=-1)


def test_classical_formula_geodesic_slice():
    x_fn, n_fn = O.totally_geodesic_slice()
    s = RNG.uniform(-0.8, 0.8, 30)
    t = RNG.uniform(0.1, 1.2, 30)
    frame = O.difference_frame(x_fn, n_fn, s, t)
    assert FM.classical_formula_residual(frame) == 0.0
    assert np.max(np.abs(mean_curvature(frame))) == 0.0


def test_classical_formula_epstein_surface():
    data = A.IsotropicSurfaceData(G0.scaled_by(BUMP))
    s = RNG.uniform(0.1, 0.9, 30)
    t = RNG.uniform(2.1, 2.9, 30)
    assert FM.classical_formula_residual(A.epstein_lift(data, s, t)) <= 1e-6


def test_classical_formula_scaling():
    # both sides are 2-form densities: doubling the area doubles them
    data = A.IsotropicSurfaceData(G0.scaled_by(BUMP))
    frame = A.epstein_lift(data, np.array([0.4]), np.array([2.6]))
    falpha = 0.25 * (
        A.det4(frame.x, frame.n, frame.n_dx, frame.x_dy)
        + A.det4(frame.x, frame.n, frame.x_dx, frame.n_dy)
    )
    falpha2 = 0.25 * (
        A.det4(frame.x, frame.n, 2 * frame.n_dx, frame.x_dy)
        + A.det4(frame.x, frame.n, 2 * frame.x_dx, frame.n_dy)
    )
    assert falpha2 == pytest.approx(2 * falpha, abs=1e-10)
