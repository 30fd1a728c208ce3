"""Charts, fields, circle maps, polygonal curves and quadrature."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitannulus import cli
from splitannulus import fields as F
from splitannulus.errors import DiagonalPoint, NotC3AtPoint, NotCyclic


# ---------------------------------------------------------------------------
# points and chart transitions
# ---------------------------------------------------------------------------

def test_diagonal_point_rejected():
    with pytest.raises(DiagonalPoint):
        F.AnnulusPoint(1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
)
def test_chart_transition_roundtrip(x, y, a, b):
    if abs(x - y) < 1e-3:
        return
    m = np.array([[1.0 + a, b], [0.3 * b, 1.0 - 0.5 * a]])
    if np.linalg.det(m) < 0.1:
        return
    p = F.AnnulusPoint(x, y)
    try:
        q = F.transition(m, p)
        back = F.transition(F.mobius_inverse(m), q)
    except Exception:
        return
    assert abs(back.x - x) <= 1e-12 * max(1, abs(x))
    assert abs(back.y - y) <= 1e-12 * max(1, abs(y))


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

def _jet4(f, x, y):
    """The value, dx, dy and dxy of ``f`` at one point, as floats."""
    j = f.jet(x, y)
    return (float(j.v), float(j.vx), float(j.vy), float(j.vxy))


def test_eval_product_field():
    f = F.product_xy()
    assert _jet4(f, 1, 2) == (2.0, 2.0, 1.0, 1.0)


def test_support_box_clips_jets():
    f = F.with_support_box(F.product_xy(), (-1, 1, -1, 1))
    assert _jet4(f, 5, 7) == (0.0, 0.0, 0.0, 0.0)


def test_desitter_log_factor_jet():
    # v0 = (1/2) log(2/(x-y)^2); hand differentiation at (0, 1)
    v0 = F.DeSitterLogFactor()
    got = _jet4(v0, 0, 1)
    assert got == pytest.approx((0.5 * math.log(2), 1.0, -1.0, -1.0), abs=1e-14)


def check_field_derivatives(f, points, step=1e-5):
    """Compare reported partials with central differences at sample points.

    Returns the worst relative error beyond the floating-point floor of
    the stencil: the cross difference divides four O(|f|) values by
    4 step^2, so eps * max|f| / step^2 of the discrepancy is roundoff,
    not a derivative defect.
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


@pytest.mark.parametrize("field", [
    F.product_xy(),
    F.PolynomialField([[0.0, 1.0, 0.2], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0]]),
    F.bump_field((0.5, 2.5), (0.45, 0.45), 0.7),
    F.unit_mass_bump((0.4, 2.6), (0.3, 0.35)),
    F.DeSitterLogFactor(),
    F.bump_field((0.5, 2.5), (0.4, 0.4), 0.3)
    + F.bump_field((0.4, 2.4), (0.3, 0.3), -0.2),
    F.PullbackField(F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5),
                    F.MobiusMap(np.array([[1.1, 0.1], [0.05, 1.0]]))),
    F.UniformizingFactor(F.SineFlowMap(0.3, 2)),
    F.LogSinDiagField(-0.5),
])
def test_derivative_consistency(field):
    # reported partials agree with central differences at 100 points
    rng = np.random.default_rng(42)
    if getattr(field, "angle", False) or isinstance(
        field, (F.UniformizingFactor, F.LogSinDiagField)
    ):
        pts = [(a, a + g) for a, g in zip(rng.uniform(0, 3, 100),
                                          rng.uniform(0.4, 1.2, 100))]
    else:
        pts = list(zip(rng.uniform(0.05, 0.95, 100),
                       rng.uniform(2.05, 2.95, 100)))
    assert check_field_derivatives(field, pts) <= 1e-6


def test_field_arithmetic_jets():
    a = F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5)
    b = F.product_xy()
    x, y = 0.45, 2.4
    s = a + 2.0 * b - 1.0
    assert s.value(x, y) == pytest.approx(a.value(x, y) + 2 * b.value(x, y) - 1)
    assert s.jet(x, y).vxy == pytest.approx(a.jet(x, y).vxy + 2 * b.jet(x, y).vxy)


def _masked_jet(f, x, y):
    """Reference jet: the unclipped jet on every node (a clipped field's
    inner jet), then zero outside the box."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    if isinstance(f, F.SumField):
        return [a + b for a, b in zip(_masked_jet(f.a, x, y), _masked_jet(f.b, x, y))]
    if isinstance(f, F.ScaledField):
        return [f.c * c for c in _masked_jet(f.a, x, y)]
    x0, x1, y0, y1 = f.support_box
    inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    j = f.inner.jet(x, y) if isinstance(f, F.ClippedField) else f._jet(x, y)
    return [np.where(inside, c, 0.0) for c in j]


_BUMP = F.bump_field((0.5, 2.5), (0.3, 0.25), 0.6)
_GATHERED_FIELDS = [
    _BUMP,
    F.ConstantField(0.0) + _BUMP + F.bump_field((0.3, 2.3), (0.2, 0.2), -0.4)
    + F.bump_field((0.7, 2.7), (0.25, 0.2), 0.3),
    -0.7 * _BUMP,
    F.with_support_box(F.product_xy(), (0.2, 0.8, 2.1, 2.6)),
    # the lowest power with a C^2 join, and a higher one, each zero off its
    # box by the clamp alone
    F.bump_field((0.55, 2.45), (0.25, 0.3), 0.8, power=3),
    F.bump_field((0.45, 2.55), (0.3, 0.2), -0.5, power=6),
]
_rng = np.random.default_rng(7)
_GATHER_POINTS = [
    (_rng.uniform(-0.2, 1.2, 500), _rng.uniform(1.8, 3.2, 500)),
    (0.45, 2.4),                      # 0-d, inside every box
    (0.05, 2.95),                     # 0-d, outside
    (np.linspace(-0.2, 1.2, 31)[:, None], np.linspace(1.8, 3.2, 23)),
    # exactly on the box edges (and corners) of the bump and the clip
    (np.array([0.2, 0.8, 0.2, 0.8, 0.5, 0.5, 0.2, 0.8]),
     np.array([2.1, 2.6, 2.6, 2.1, 2.25, 2.75, 2.3, 2.4])),
]


@pytest.mark.parametrize("field", _GATHERED_FIELDS)
@pytest.mark.parametrize("xy", _GATHER_POINTS)
def test_gathered_jet_matches_masked(field, xy):
    got = field.jet(*xy)
    ref = _masked_jet(field, *xy)
    for g, r in zip(got, ref):
        assert np.shape(g) == np.shape(r)
        np.testing.assert_allclose(g, r, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("field", _GATHERED_FIELDS)
def test_all_outside_gives_exact_zeros(field):
    x = np.linspace(-3.0, -2.0, 12)[:, None]
    y = np.linspace(5.0, 6.0, 5)
    for c in field.jet(x, y):
        assert c.shape == (12, 5)
        assert np.all(c == 0.0)


_POLY = F.PolynomialField([[0.1, 0.2, -0.3], [0.5, 0.0, 0.4], [0.2, -0.1, 0.0]])
_AFFINE_MESH = (np.linspace(-0.1, 1.1, 13)[:, None], np.linspace(1.9, 3.1, 11)[None, :])
_ANGLE_MESH = (np.linspace(0.1, 1.0, 13)[:, None], np.linspace(1.7, 2.9, 11)[None, :])
# every ScalarField kind of the fields module, with the mesh it is defined on
_MESH_FIELDS = {
    "constant": (F.ConstantField(0.7), _AFFINE_MESH),
    "polynomial": (_POLY, _AFFINE_MESH),
    "bump": (_BUMP, _AFFINE_MESH),
    "sum": (_BUMP + F.bump_field((0.3, 2.3), (0.2, 0.2), -0.4) + _POLY, _AFFINE_MESH),
    "scaled": (-0.7 * _BUMP, _AFFINE_MESH),
    "clipped": (F.with_support_box(_POLY, (0.2, 0.8, 2.1, 2.6)), _AFFINE_MESH),
    "desitter": (F.DeSitterLogFactor(), _AFFINE_MESH),
    "desitter_angle": (F.DeSitterLogFactor("angle"), _ANGLE_MESH),
    "uniformizing": (F.UniformizingFactor(F.SineFlowMap(0.3)), _ANGLE_MESH),
    "uniformizing_four_piece": (F.UniformizingFactor(F.four_piece_c1_map()),
                                _ANGLE_MESH),
    "log_sin": (F.LogSinDiagField(-1.0), _ANGLE_MESH),
    "pullback": (F.PullbackField(F.bump_field((0.6, 2.2), (0.3, 0.35), 0.5),
                                 F.SineFlowMap(0.3)), _ANGLE_MESH),
}


@pytest.mark.parametrize("boxed", [False, True], ids=["unboxed", "boxed"])
@pytest.mark.parametrize("kind", sorted(_MESH_FIELDS))
def test_open_mesh_jet_matches_flat_nodes(kind, boxed):
    field, (x, y) = _MESH_FIELDS[kind]
    if boxed:  # a box that cuts the mesh, so only part of it is evaluated
        field = F.with_support_box(field, (x[3, 0], x[9, 0], y[0, 2], y[0, 7]))
    X, Y = np.broadcast_arrays(x, y)
    mesh = field.jet(x, y)
    flat = field.jet(X.ravel(), Y.ravel())
    for m, f in zip(mesh, flat):
        assert m.shape == X.shape
        assert np.array_equal(m, f.reshape(X.shape))


class _Recorder(F.ScalarField):
    """A field that records the nodes its jet is asked for."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def _jet(self, x, y):
        self.seen.append((x, y))
        return self.inner.jet(x, y)


@pytest.mark.parametrize("xy", [_GATHER_POINTS[0], _AFFINE_MESH], ids=["flat", "mesh"])
def test_clipped_inner_sees_only_box_nodes(xy):
    box = x0, x1, y0, y1 = (0.2, 0.8, 2.1, 2.6)
    rec = _Recorder(_POLY)
    clipped = F.with_support_box(rec, box)
    x, y = np.broadcast_arrays(*xy)
    inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    assert 0 < np.count_nonzero(inside) < inside.size
    got = clipped.jet(*xy)
    (sx, sy), = rec.seen
    assert np.array_equal(sx, x[inside]) and np.array_equal(sy, y[inside])
    for g, r in zip(got, _POLY.jet(x, y)):
        assert g.shape == x.shape
        assert np.array_equal(g, np.where(inside, r, 0.0))


def test_clipped_field_passes_an_in_box_block_through():
    # the block ``integrate`` hands a boxed field lies inside its box: the
    # inner field gets the open mesh as it is
    x, y = _AFFINE_MESH
    rows, cols = (x[:, 0] >= 0.2) & (x[:, 0] <= 0.8), (y[0] >= 2.1) & (y[0] <= 2.6)
    bx, by = x[rows], y[:, cols]
    rec = _Recorder(_POLY)
    j = F.with_support_box(rec, (0.2, 0.8, 2.1, 2.6)).jet(bx, by)
    (sx, sy), = rec.seen
    assert sx is bx and sy is by
    assert j.v.shape == (bx.size, by.size)


@pytest.mark.parametrize("zero", [0, 0.0, F.ConstantField(0.0)])
def test_adding_zero_returns_the_field(zero):
    f = F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5)
    assert f + zero is f
    assert zero + f is f
    assert f - zero is f


def test_support_box_keeps_outside_nodes_from_inner_field():
    # the de Sitter factor is singular on the diagonal x = y, which these
    # nodes cross outside the box; the box keeps them from log and 1/d
    f = F.with_support_box(F.DeSitterLogFactor(), (0.0, 1.0, 2.0, 3.0))
    t = np.linspace(-1.0, 4.0, 51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = f.jet(t[:, None], t)
    assert all(np.all(np.isfinite(c)) for c in j)
    assert j.v[15, 35] == pytest.approx(0.5 * math.log(2.0 / 4.0))  # (0.5, 2.5)


def test_bump_mass_closed_form():
    b = F.unit_mass_bump((0.5, 2.5), (0.35, 0.3))
    grid = F.box_grid((0, 1, 2, 3), level=3)
    assert grid.integrate(lambda x, y: b.value(x, y)) == pytest.approx(1.0, abs=1e-6)


def test_bump_jet_is_zero_off_the_open_box():
    # X and Y are clamped to [-1, 1] on their own axes: with p >= 3 every
    # component vanishes at |X| = 1, so the box edges |X| = 1 or |Y| = 1
    # and the nodes beyond them give exact zeros, and the open box keeps
    # the bits of the closed form
    b = F.bump_field((0.5, 2.5), (0.5, 0.25), -0.6, power=3)
    x = np.array([-0.1, 0.0, 0.3, 0.5, 0.63, 1.0, 1.2])[:, None]
    y = np.array([2.1, 2.25, 2.4, 2.5, 2.61, 2.75, 2.9])[None, :]
    X, Y = np.broadcast_arrays((x - 0.5) / 0.5, (y - 2.5) / 0.25)
    inside = (np.abs(X) < 1.0) & (np.abs(Y) < 1.0)
    assert np.any(np.abs(X) == 1.0) and np.any(np.abs(Y) == 1.0)
    sx, sy = 1.0 - X ** 2, 1.0 - Y ** 2
    gx1, gy1 = -6.0 * X * sx ** 2 / 0.5, -6.0 * Y * sy ** 2 / 0.25
    gx2 = (-6.0 * sx ** 2 + 24.0 * X ** 2 * sx) / 0.5 ** 2
    gy2 = (-6.0 * sy ** 2 + 24.0 * Y ** 2 * sy) / 0.25 ** 2
    closed = (-0.6 * sx ** 3 * sy ** 3, -0.6 * gx1 * sy ** 3, -0.6 * sx ** 3 * gy1,
              -0.6 * gx1 * gy1, -0.6 * gx2 * sy ** 3, -0.6 * sx ** 3 * gy2)
    for c, ref in zip(b._jet(x, y), closed):
        assert c.shape == inside.shape and np.all(c[~inside] == 0.0)
        assert np.array_equal(c[inside], ref[inside])
        # the zeros are those of the zero extension, +0.0, although the
        # amplitude is negative
        assert not np.any(np.signbit(c[~inside]))


# ---------------------------------------------------------------------------
# circle maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", [
    F.SineFlowMap(0.3, 2),
    F.AngleMobiusMap(np.array([[1.3, 0.2], [0.4, 1.1]])),
    F.MobiusMap(np.array([[1.2, 0.3], [0.1, 1.0]])),
    F.tan_chart_map(),
    F.ComposedMap(F.SineFlowMap(0.2, 2), F.SineFlowMap(0.15, 2)),
    F.four_piece_c1_map(),
])
def test_circle_map_derivatives(phi):
    rng = np.random.default_rng(3)
    if phi.coords == "angle":
        ts = rng.uniform(0, math.pi, 60)
    else:
        ts = rng.uniform(-0.9, 0.9, 60)
    ts = np.array([t for t in ts if all(
        abs((t - b + math.pi / 2) % math.pi - math.pi / 2) > 2e-3
        for b in phi.breakpoints)])
    val, d1, d2, d3 = phi.jets(ts)
    assert np.all(d1 > 0)
    h = 1e-5
    d1p = phi.jets(ts + h)[1]
    d1m = phi.jets(ts - h)[1]
    fd2 = (d1p - d1m) / (2 * h)
    scale = np.maximum(1.0, np.abs(d2))
    assert np.max(np.abs(fd2 - d2) / scale) <= 1e-5
    d2p = phi.jets(ts + h)[2]
    d2m = phi.jets(ts - h)[2]
    fd3 = (d2p - d2m) / (2 * h)
    scale = np.maximum(1.0, np.abs(d3))
    assert np.max(np.abs(fd3 - d3) / scale) <= 1e-5


@pytest.mark.parametrize("phi", [
    F.AngleMobiusMap(np.array([[1.3, 0.2], [0.4, 1.1]])),
    F.four_piece_c1_map(),
], ids=["mobius", "four_piece"])
def test_single_angles_match_batched_bits(phi):
    # an angle's jets do not depend on the array it is evaluated in: alone
    # in a one-element array, it gets the bits it gets among 63 others
    ts = np.random.default_rng(11).uniform(0.0, math.pi, 64)
    batched = phi.jets(ts)
    for k in range(ts.size):
        alone = phi.jets(ts[k:k + 1])
        assert all(np.array_equal(a, b[k:k + 1]) for a, b in zip(alone, batched))
    u = F.UniformizingFactor(phi)
    x, y = ts[:40], ts[:40] + np.linspace(0.3, 1.4, 40)
    flat = u.jet(x, y)
    for k in range(x.size):
        alone = u.jet(x[k:k + 1], y[k:k + 1])
        assert all(np.array_equal(a, b[k:k + 1]) for a, b in zip(alone, flat))


class _CubeFlow(F.CircleMap):
    """phi(t) = t + sin(2t)^3 / 10, a smooth angle map whose lift takes a
    cube, where numpy's scalar and array powers can differ."""

    coords = "angle"

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        s, c = np.sin(2.0 * t), np.cos(2.0 * t)
        return (t + 0.1 * s ** 3, 1.0 + 0.6 * s ** 2 * c,
                2.4 * s * c ** 2 - 1.2 * s ** 3, 4.8 * c ** 3 - 16.8 * s ** 2 * c)


def test_piece_index_names_the_piece_jets_evaluates():
    # one and two ulps on either side of every break, the index and the
    # jets agree on the piece, so the same-piece zero of the uniformizing
    # factor holds wherever jets evaluates one piece; the two pieces that
    # meet at a break of a C^1 map differ in phi'' there
    pm = F.four_piece_c1_map()
    u = F.UniformizingFactor(pm)
    for m, b in enumerate(pm.breakpoints):
        ends = [float(p.jets(np.array([b]))[2][0]) for p in pm.pieces]
        assert abs(ends[m] - ends[m - 1]) > 1e-3
        for steps, direction in ((1, -1), (2, -1), (1, 1), (2, 1)):
            t = b
            for _ in range(steps):
                t = float(np.nextafter(t, direction * np.inf))
            j = pm.jets(np.array([t]))
            i, d2 = int(j.piece[0]), j[2][0]
            assert d2 == pytest.approx(ends[i], rel=1e-9)
            mid = np.mean(pm._arc(i))
            assert float(u.value(t, mid)) == 0.0


def test_jets_name_the_piece_of_every_angle():
    # the piece holds the angle reduced into [b0, b0 + pi), for arrays and
    # 0-d angles alike, and the 0-d same-piece zero holds
    pm = F.four_piece_c1_map()
    ts = np.random.default_rng(8).uniform(-1.0, 4.0, (3, 50))
    pieces = pm.jets(ts).piece
    assert pieces.shape == ts.shape
    b0 = pm.breakpoints[0]
    for t, i in zip(ts.ravel(), pieces.ravel()):
        lo, hi = pm._arc(int(i))
        assert lo <= b0 + (t - b0) % math.pi < hi
    for t, i in ((0.6, 0), (pm.breakpoints[1], 1), (-2.0, 1)):
        piece = pm.jets(t).piece
        assert np.shape(piece) == () and piece == i
    u = F.UniformizingFactor(pm)
    assert float(u.value(0.6, 0.62)) == 0.0
    assert float(u.value(0.6, 2.0)) != 0.0


def test_scalar_callers_match_batched_bits():
    # a Python float and the same angle inside an array get identical bits:
    # the pointwise callers pass one-element arrays to the array loops
    ts = np.random.default_rng(5).uniform(0.3, 0.3 + math.pi, 200)
    pm = F.four_piece_c1_map()
    batched = pm.jets(ts)
    for k, i in enumerate(batched.piece):
        assert pm.jets_at_piece(int(i), float(ts[k])) == tuple(
            float(c[k]) for c in batched)
    for phi in (F.AngleMobiusMap(np.array([[1.3, 0.2], [0.1, 0.9]])), _CubeFlow(),
                F.ComposedMap(F.SineFlowMap(0.3, 2), _CubeFlow())):
        u = F.UniformizingFactor(phi)
        limits = u.diagonal_limit_density(ts)
        assert all(float(u.diagonal_limit_density(float(t))) == lim
                   for t, lim in zip(ts, limits))

    inner = _CubeFlow()

    def lift(t):
        return float(inner.jets(np.array([t, 0.1]))[0][0])

    start = lift(0.0)
    for target in np.linspace(0.05, 3.1, 300):
        t = start + (float(target) - start) % math.pi
        batched_root = F._bisect(lambda mid: lift(mid) < t, 0.0, math.pi) % math.pi
        assert F.ComposedMap._preimage(inner, float(target)) == batched_root


def test_piecewise_c1_junctions():
    pm = F.four_piece_c1_map()
    for i in range(len(pm.pieces)):
        lo, hi = pm._arc(i)
        j = (i + 1) % len(pm.pieces)
        shift = math.pi if j == 0 else 0.0
        here = pm.jets_at_piece(i, hi)
        there = pm.jets_at_piece(j, hi - shift)
        assert abs(here[0] - (there[0] + shift)) <= 1e-9
        assert abs(here[1] - there[1]) <= 1e-9


@pytest.mark.parametrize("b", [0.0, 0.3, 2.9])
@pytest.mark.parametrize("angle", [2.5, -1.3, 3.0])
def test_one_piece_lift_is_continuous_across_its_breakpoint(b, angle):
    # a single piece maps the whole line; its raw angle at b + pi equals
    # the one at b, yet the lift must advance by pi across the arc
    c, s = math.cos(angle), math.sin(angle)
    m = np.array([[c, -s], [s, c]]) @ np.diag([3.0, 1.0 / 3.0])
    pm = F.PiecewiseMobiusAngleMap([b], [m])
    near = np.array([np.nextafter(b, -1.0), b, np.nextafter(b, 4.0)])
    assert np.ptp(pm.jets(near)[0]) <= 1e-14
    ts = np.linspace(b - 1.0, b + 2 * math.pi, 4001)
    phi = pm.jets(ts)[0]
    assert np.all(np.diff(phi) > 0)
    assert np.allclose(pm.jets(ts + math.pi)[0], phi + math.pi, atol=1e-12)
    # every value is the piece's raw angle plus a multiple of pi
    k = (phi - F.AngleMobiusMap(m).jets(ts)[0]) / math.pi
    assert np.allclose(k, np.round(k), atol=1e-12)


def test_piece_k_matches_the_matrix_route():
    # the closed form against the end derivative of the interpolating
    # Mobius matrix with unit start derivative, the route it replaced
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(0.0, math.pi)
        b = a + rng.uniform(0.05, math.pi - 0.05)
        A = rng.uniform(-1.0, 4.0)
        B = A + rng.uniform(0.05, math.pi - 0.05)
        ref = F._end_derivative(F.mobius_through(a, A, b, B, 1.0), b)
        assert F._piece_k(a, A, b, B) == pytest.approx(ref, rel=1e-13)


_FOUR_PIECE_MATRICES = [
    [[0.927484712700275, -0.35879445720510933],
     [-0.0919533426479325, 1.11375673961904]],
    [[0.7536587189454151, -0.24718207015766672],
     [-0.8663866924021943, 1.6110146750295404]],
    [[0.4726499030715591, -0.3127424202261773],
     [0.3380906253105298, 1.8920234909033964]],
    [[0.7842202416530393, 0.10434063035101189],
     [-0.13627023682399117, 1.257021210666276]],
]


def test_four_piece_default_map_keeps_its_bits(monkeypatch):
    # the closed-form fourth image is the one a 200-step balance bisection
    # found, bit for bit, and so are the four pieces built from it
    starts = []
    through = F.mobius_through

    def recorded(a, target_a, b, target_b, deriv_a):
        starts.append(target_a)
        return through(a, target_a, b, target_b, deriv_a)

    monkeypatch.setattr(F, "mobius_through", recorded)
    pm = F.four_piece_c1_map()
    assert starts == [0.3, 1.35, 1.8, 2.151951930884409]
    assert [p.m.tolist() for p in pm.pieces] == _FOUR_PIECE_MATRICES


def _balanceable_data(count, seed=7):
    """Random turning points and three images in order within one turn,
    every arc and image gap at least 0.05; every third set wraps mod pi."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        t = np.sort(rng.uniform(0.0, math.pi, 4))
        gaps = rng.dirichlet([2.0] * 4) * math.pi
        if min(np.diff(np.r_[t, t[0] + math.pi])) < 0.05 or gaps.min() < 0.05:
            continue
        z = rng.uniform(-1.0, 3.0) + np.cumsum(np.r_[0.0, gaps[:2]])
        if len(out) % 3 == 2:
            z = z % math.pi
        out.append((tuple(t.tolist()), tuple(z.tolist())))
    return out


@pytest.mark.parametrize("breaks, images", [
    # roots within 0.05 of z3 and of z1 + pi, which the bisection refused
    ((0.3, 1.0, 1.8, 2.5), (0.3, 1.35, 1.36)),
    ((0.3, 1.0, 1.8, 2.5), (0.3, 1.35, 3.40)),
] + _balanceable_data(40))
def test_closing_image_balances(breaks, images):
    t, z = list(breaks), list(images)
    z4 = F._closing_image(t, z + [None])
    closing_end = z[2] + (z[0] - z[2]) % math.pi
    assert z[2] < z4 < closing_end
    zz = z + [z4]
    ks = [F._piece_k(*arc) for arc in zip(t, zz, t[1:] + [t[0] + math.pi],
                                          zz[1:] + [zz[0] + math.pi])]
    assert abs(math.log(ks[0] * ks[2]) - math.log(ks[1] * ks[3])) <= 1e-12


def test_four_piece_builds_with_a_root_near_the_arc_ends():
    for images in ((0.3, 1.35, 1.36, None), (0.3, 1.35, 3.40, None)):
        pm = F.four_piece_c1_map(images=images)
        assert np.all(pm.jets(np.linspace(0.0, math.pi, 64))[1] > 0)


def test_piecewise_equivariance_and_orientation():
    pm = F.four_piece_c1_map()
    ts = np.linspace(0, math.pi, 64)
    ph, d1, _, _ = pm.jets(ts)
    assert np.all(d1 > 0)
    assert np.allclose(pm.jets(ts + math.pi)[0], ph + math.pi, atol=1e-12)


def test_piecewise_mismatched_derivative_rejected():
    # two projectively unrelated pieces cannot match C^1
    m1 = np.eye(2)
    m2 = np.array([[1.4, 0.0], [0.0, 1.0 / 1.4]])
    with pytest.raises(ValueError):
        F.PiecewiseMobiusAngleMap([0.3, 1.4], [m1, m2])


def test_breakpoint_third_derivative_refused():
    pm = F.four_piece_c1_map()
    with pytest.raises(NotC3AtPoint):
        pm.jets_checked(pm.breakpoints[1])


def test_mobius_uniformizing_factor_vanishes():
    u = F.UniformizingFactor(F.AngleMobiusMap(np.array([[1.3, 0.2],
                                                        [0.4, 1.1]])))
    rng = np.random.default_rng(0)
    th = rng.uniform(0, math.pi, 200)
    ps = th + rng.uniform(0.2, 1.4, 200)
    assert np.max(np.abs(u.value(th, ps))) <= 1e-12


# ---------------------------------------------------------------------------
# polygonal curves
# ---------------------------------------------------------------------------

def _pt(x, y):
    return F.AnnulusPoint(x, y)


def test_normalize_removes_repeated_vertex():
    curve = F.PolygonalCurve((
        _pt(0, 2), _pt(0, 3), _pt(0, 3), _pt(0, 3), _pt(1, 3), _pt(1, 2),
    ))
    norm = F.normalize_polygonal(curve)
    assert len(norm.vertices) == len(curve.vertices) - 2


def test_normalize_keeps_minimal_diamond():
    curve = F.diamond_curve(0, 1, 2, 3)
    norm = F.normalize_polygonal(curve)
    assert norm.vertices == curve.vertices


def test_six_vertex_staircase_preserved():
    # a staircase of three vertical and three horizontal segments
    curve = F.PolygonalCurve((
        _pt(0.0, 2.0), _pt(0.0, 2.5),
        _pt(0.4, 2.5), _pt(0.4, 3.0),
        _pt(1.0, 3.0), _pt(1.0, 2.0),
    ))
    norm = F.normalize_polygonal(curve)
    assert len(norm.vertices) == 6


def test_noncyclic_rejected():
    with pytest.raises(NotCyclic):
        F.PolygonalCurve((
            _pt(0, 2), _pt(0, 3), _pt(1, 3), _pt(1, 2.2),
            _pt(0.5, 2.2), _pt(0.5, 2),
        ))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_constant():
    grid = F.box_grid((0, 1, 0 + 2, 3), level=1)
    assert grid.integrate(lambda x, y: np.ones_like(x)) == pytest.approx(1.0)


def test_integrate_desitter_density_closed_form():
    # double integral of 2/(x-y)^2 over [0,1]x[2,3] is 2 log(4/3)
    grid = F.box_grid((0, 1, 2, 3), level=2)
    val = grid.integrate(lambda x, y: 2.0 / (x - y) ** 2)
    assert val == pytest.approx(2.0 * math.log(4.0 / 3.0), abs=1e-9)


def test_weights_sum_to_area():
    grid = F.box_grid((0, 1, 2, 3), level=2)
    assert abs(np.sum(grid.x_weights) * np.sum(grid.y_weights) - grid.area) <= 1e-12


def test_refinement_ratio_second_order_plus():
    b = F.bump_field((0.5, 2.5), (0.4, 0.4), 1.0)
    vals = []
    for lv in range(3):
        grid = F.box_grid((0, 1, 2, 3), level=lv, base_cells=8)
        vals.append(grid.integrate(lambda x, y: b.value(x, y)))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d1 / d2 >= 3.0


def test_integrate_linearity():
    f = F.bump_field((0.5, 2.5), (0.4, 0.4), 1.0)
    g = F.product_xy()
    grid = F.box_grid((0, 1, 2, 3), level=1)
    a, b = 1.7, -0.4
    lhs = grid.integrate(lambda x, y: a * f.value(x, y) + b * g.value(x, y))
    rhs = a * grid.integrate(lambda x, y: f.value(x, y)) + b * grid.integrate(
        lambda x, y: g.value(x, y)
    )
    scale = abs(a) + abs(b)
    assert abs(lhs - rhs) <= 1e-12 * scale * 10


def test_nonfinite_density_raises():
    from splitannulus.errors import NonFiniteDensity

    grid = F.box_grid((0, 1, 2, 3), level=0)
    with pytest.raises(NonFiniteDensity):
        grid.integrate(lambda x, y: np.full_like(x, np.nan))


_DIAG_BUMP = F.bump_field((0.5, 0.5), (0.3, 0.2), 0.8)
_BUMP_SUM = (F.bump_field((0.3, 2.3), (0.15, 0.2), 0.5)
             + F.bump_field((0.75, 2.7), (0.2, 0.1), -0.4))


def _planes(grid):
    """The node coordinates of a grid as n x m planes, built from its axes
    here (the grid itself stores none of them)."""
    return np.meshgrid(grid.x_nodes, grid.y_nodes, indexing="ij")


def _block(grid, box):
    x0, x1, y0, y1 = box
    xn, yn = grid.x_nodes, grid.y_nodes
    return (np.flatnonzero((xn >= x0) & (xn <= x1)),
            np.flatnonzero((yn >= y0) & (yn <= y1)))


def _block_sum(grid, vals, rows, cols):
    """sum_i xw[i] * sum_j yw[j] * vals[i, j] over one index block."""
    yw = grid.y_weights[cols]
    return np.sum(grid.x_weights[rows] * np.sum(vals[np.ix_(rows, cols)] * yw, axis=1))


def _weighted(u):
    # u times a density that is finite off the diagonal, as in the action
    return lambda x, y: u.value(x, y) * (2.0 + np.sin(x - 2.0 * y))


@pytest.mark.parametrize("grid, u", [
    (F.box_grid((0, 1, 2, 3), level=1), _BUMP),
    (F.box_grid((0, 1, 2, 3), level=2), _BUMP_SUM),
    # nodes on the diagonal, where the density is finite
    (F.box_grid((0, 1, 0, 1), level=1), _DIAG_BUMP),
    (F.box_grid((0, math.pi, 0, math.pi), level=0, base_cells=48),
     F.bump_field((1.0, 2.2), (0.3, 0.4), 0.6)),
])
def test_integrate_on_support_matches_whole_grid(grid, u):
    # with a box the sum runs over its block: bit for bit the explicit
    # block sum
    density = _weighted(u)
    full = grid.integrate(density)
    assert full != 0.0
    got = grid.integrate(density, support=u.support_box)
    X, Y = _planes(grid)
    vals = density(X, Y)
    ref = _block_sum(grid, vals, *_block(grid, u.support_box))
    weights = np.outer(grid.x_weights, grid.y_weights)
    assert got == float(ref)
    # both values sum the same products w * v, grouped differently; numpy's
    # pairwise summation keeps the roundoff of either grouping to a small
    # multiple of eps * sum |w * v| (Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 4), so the two agree to within 8 of it
    bound = 8.0 * np.finfo(float).eps * np.sum(np.abs(weights * vals))
    assert abs(got - full) <= bound


def test_integrate_without_support_follows_the_same_node_rule():
    # the whole grid is the block: the density gets its axes as an open mesh
    seen = []

    def density(x, y):
        seen.append((x, y))
        return np.ones_like(x)

    grid = F.box_grid((0, 1, 2, 3), level=0, base_cells=8)
    assert grid.integrate(density) == pytest.approx(grid.area)
    (sx, sy), = seen
    assert sx.shape == (16, 1) and sy.shape == (1, 16)
    assert np.array_equal(sx[:, 0], grid.x_nodes)
    assert np.array_equal(sy[0], grid.y_nodes)


def test_integrate_on_support_evaluates_the_closed_box_only():
    # box edges on node coordinates: the closed box keeps them, and the
    # density gets the block's axes as an open mesh, diagonal nodes included
    grid = F.box_grid((0, 1, 0, 1), level=0, base_cells=8)
    xn, yn = grid.x_nodes, grid.y_nodes
    box = (xn[3], xn[9], yn[5], yn[12])
    seen = []

    def density(x, y):
        seen.append((x, y))
        return np.ones_like(x)

    grid.integrate(density, support=box)
    (sx, sy), = seen
    assert sx.shape == (7, 1) and sy.shape == (1, 8)
    assert np.array_equal(sx[:, 0], xn[3:10])
    assert np.array_equal(sy[0], yn[5:13])


def _action_like(u):
    # products of several jet components with the de Sitter density, as in
    # the Liouville integrands
    def density(x, y):
        j = u.jet(x, y)
        return j.v * (2.0 / (x - y) ** 2 + 0.5 * j.vxy) + j.vx * j.vy

    return density


@pytest.mark.parametrize("u", [
    _BUMP,
    _BUMP_SUM,
    F.with_support_box(F.PolynomialField([[0.1, 0.2], [0.5, -0.3], [0.2, 0.0]]),
                       (0.2, 0.8, 2.1, 2.6)),
], ids=["bump", "bumps", "clipped_polynomial"])
def test_integrate_open_mesh_matches_flat_reference(u):
    # the density on the block's open mesh, summed, gives the bits of the
    # same sum over the block's values evaluated at flat nodes
    grid = F.box_grid((0, 1, 2, 3), level=1)
    X, Y = _planes(grid)
    rows, cols = _block(grid, u.support_box)
    block = np.ix_(rows, cols)
    density = _action_like(u)
    vals = np.zeros(X.shape)
    vals[block] = density(X[block].ravel(), Y[block].ravel()).reshape(X[block].shape)
    got = grid.integrate(density, support=u.support_box)
    assert got != 0.0
    assert got == float(_block_sum(grid, vals, rows, cols))


@pytest.mark.parametrize("box", [
    (5.0, 6.0, 5.0, 6.0),              # away from the grid
    (0.5001, 0.5002, 2.5001, 2.5002),  # between two neighbouring nodes
    (0.2, 0.8, 2.5001, 2.5002),        # rows of nodes, but no column
])
def test_integrate_on_support_missing_every_node_is_zero(box):
    grid = F.box_grid((0, 1, 2, 3), level=1)
    seen = []

    def density(x, y):
        seen.append(np.broadcast(x, y).size)
        return np.full_like(x, 1.0)

    assert grid.integrate(density, support=box) == 0.0
    assert seen == [0]


def test_nonfinite_density_inside_support_raises():
    from splitannulus.errors import NonFiniteDensity

    grid = F.box_grid((0, 1, 2, 3), level=0)
    with pytest.raises(NonFiniteDensity):
        grid.integrate(lambda x, y: np.full_like(x, np.nan),
                       support=_BUMP.support_box)


@pytest.mark.parametrize("factor, inv", [
    (F.DeSitterLogFactor(), lambda d: d ** 2),
    (F.DeSitterLogFactor("angle"), lambda d: np.sin(d) ** 2),
])
def test_desitter_second_derivatives_bits(factor, inv):
    # the shared reciprocal gives the bits of the three separate quotients
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.0, 1.0, 200), rng.uniform(1.2, 3.0, 200)
    j = factor.jet(x, y)
    q = inv(x - y)
    assert np.array_equal(j.vxy, -1.0 / q)
    assert np.array_equal(j.vxx, 1.0 / q) and np.array_equal(j.vyy, 1.0 / q)


def test_breakpoint_aligned_cells():
    grid = F.box_grid((0, 1, 2, 3), level=0, base_cells=8, x_breaks=(0.3,))
    # no node may straddle the line x = 0.3: nodes sit strictly inside cells
    assert not np.any(np.isclose(grid.x_nodes, 0.3))


@pytest.mark.parametrize("grid", [F.box_grid((0, 1, 2, 3), level=1)], ids=["box"])
def test_grid_stores_axes_only(grid):
    # a tensor-product grid is its two 1-d rules: no n x m plane is kept
    arrays = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 4 and all(a.ndim == 1 for a in arrays)
    assert np.array_equal(grid.W, np.outer(grid.x_weights, grid.y_weights))


@pytest.mark.parametrize("p", range(1, F.MAX_GAUSS_ORDER + 1))
def test_gauss_rule_is_exact_to_degree_2p_minus_1(p):
    # three segments of unequal cells: each cell's p nodes integrate every
    # x^k with k <= 2p - 1 exactly
    grid = F.box_grid((-0.7, 1.3, 0.0, 1.0), level=0, base_cells=7,
                      scheme=f"gauss{p}", x_breaks=(-0.2, 0.5))
    assert grid.x_segments == ((-0.7, -0.2), (-0.2, 0.5), (0.5, 1.3))
    x, w = grid.x_nodes, grid.x_weights
    assert np.all(np.diff(x) > 0)
    for k in range(2 * p):
        exact = (1.3 ** (k + 1) - (-0.7) ** (k + 1)) / (k + 1)
        assert abs(float(np.sum(w * x ** k)) - exact) <= 1e-14 * max(1.0, abs(exact))


def test_default_action_rule_aligned_with_a_bump_is_exact():
    # the CLI's default rule on cells cut at the bump's support edges
    # integrates it to roundoff; as many nodes that straddle the edges do not
    bump = F.bump_field((0.43, 2.61), (0.21, 0.17), 0.7)
    scheme, cells = cli._GRID["scheme"][1], cli._GRID["base_cells"][1]
    x_breaks, y_breaks = bump.break_lines()
    aligned = F.box_grid((0, 1, 2, 3), 0, cells, scheme, x_breaks=x_breaks,
                         y_breaks=y_breaks)
    plain = F.box_grid((0, 1, 2, 3), 0, aligned.x_nodes.size // F.gauss_order(scheme),
                       scheme)
    assert plain.x_nodes.size == aligned.x_nodes.size
    assert plain.y_nodes.size == aligned.y_nodes.size
    mass = bump.mass()
    got = aligned.integrate(bump.value, support=bump.support_box)
    assert abs(got - mass) <= 1e-14 * mass
    off = plain.integrate(bump.value, support=bump.support_box)
    assert abs(off - mass) > 1e-8 * mass


def test_break_lines_of_composite_fields():
    a = F.bump_field((0.3, 2.3), (0.1, 0.2), 0.5)
    b = F.bump_field((0.6, 2.5), (0.2, 0.1), -0.4)
    ax0, ax1, ay0, ay1 = a.support_box
    bx0, bx1, by0, by1 = b.support_box
    assert a.break_lines() == ((ax0, ax1), (ay0, ay1))
    union = (tuple(sorted({ax0, ax1, bx0, bx1})), tuple(sorted({ay0, ay1, by0, by1})))
    # a sum gives the union of its parts' lines, not the edges of its box
    assert (a + b).break_lines() == union
    assert (a - b).break_lines() == union
    assert (-2.0 * (a + b)).break_lines() == union
    assert (a + F.DeSitterLogFactor()).break_lines() == a.break_lines()
    poly = F.PolynomialField([[0.1, 0.2], [0.3, 0.0]])
    for plain in (poly, F.ConstantField(1.0), F.DeSitterLogFactor(),
                  F.UniformizingFactor(F.SineFlowMap(0.3, 2))):
        assert plain.break_lines() == ((), ())
    # a clipped field: the box edges, and the inner lines that cross the box
    assert F.with_support_box(poly, (0.1, 0.9, 2.1, 2.9)).break_lines() == (
        (0.1, 0.9), (2.1, 2.9))
    assert F.with_support_box(a, (0.25, 0.9, 2.0, 3.0)).break_lines() == (
        (0.25, ax1, 0.9), (2.0, ay0, ay1, 3.0))


# ---------------------------------------------------------------------------
# the arc-pair rule
# ---------------------------------------------------------------------------

_ARC_BREAKS = [(), (0.3,), (0.3, 1.0), (0.3, 1.0, 1.8, 2.5)]


@pytest.mark.parametrize("breaks", _ARC_BREAKS, ids=["none", "one", "two", "four"])
def test_arc_pair_weights_cover_the_torus(breaks):
    rule = F.ArcPairRule(breaks, level=1)
    assert len(rule.arcs) >= 3
    assert rule.arcs[-1][1] == rule.arcs[0][0] + math.pi
    total = float(np.sum(rule.w) + np.sum(rule.diag_w))
    assert abs(total - math.pi ** 2) <= 1e-13
    assert rule.integrate(lambda x, y: np.ones_like(x),
                          np.ones_like) == pytest.approx(math.pi ** 2, abs=1e-13)


@pytest.mark.parametrize("breaks", _ARC_BREAKS, ids=["none", "one", "two", "four"])
def test_arc_pair_density_never_sees_the_diagonal(breaks):
    # the density gets no node with x = y mod pi; the limit gets the
    # same-arc diagonals, interior to their arcs
    seen = []

    def density(x, y):
        seen.append(np.sin(x - y))
        return np.zeros_like(x)

    for lv in range(11):
        rule = F.ArcPairRule(breaks, lv)
        rule.integrate(density, np.zeros_like)
        assert rule.order == 8 + 4 * lv
        assert np.all(seen.pop() != 0.0)
        assert not any(np.any(np.isclose(rule.diag % math.pi, b % math.pi))
                       for b in breaks)


def test_arc_pair_rule_integrates_polynomials_exactly():
    # a product of polynomials of degree < order on each block, in x and y
    rule = F.ArcPairRule((0.3, 1.0, 1.8, 2.5), level=0)
    got = rule.integrate(lambda x, y: x ** 3 * y ** 2, lambda x: x ** 5)
    lo = 0.3
    hi = lo + math.pi
    want = (hi ** 4 - lo ** 4) / 4 * (hi ** 3 - lo ** 3) / 3
    assert got == pytest.approx(want, rel=1e-13)
