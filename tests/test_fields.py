"""Charts, fields, circle maps, polygonal curves and quadrature."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

def test_eval_product_field():
    f = F.product_xy()
    assert F.eval_field(f, F.AnnulusPoint(1, 2)) == (2.0, 2.0, 1.0, 1.0)


def test_support_box_clips_jets():
    f = F.with_support_box(F.product_xy(), (-1, 1, -1, 1))
    assert F.eval_field(f, F.AnnulusPoint(5, 7)) == (0.0, 0.0, 0.0, 0.0)


def test_desitter_log_factor_jet():
    # v0 = (1/2) log(2/(x-y)^2); hand differentiation at (0, 1)
    v0 = F.DeSitterLogFactor()
    got = F.eval_field(v0, F.AnnulusPoint(0, 1))
    assert got == pytest.approx((0.5 * math.log(2), 1.0, -1.0, -1.0), abs=1e-14)


@pytest.mark.parametrize("field", [
    F.product_xy(),
    F.PolynomialField([[0.0, 1.0, 0.2], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0]]),
    F.bump_field((0.5, 2.5), (0.45, 0.45), 0.7),
    F.unit_mass_bump((0.4, 2.6), (0.3, 0.35)),
    F.DeSitterLogFactor(),
    F.bump_field((0.5, 2.5), (0.4, 0.4), 0.3)
    + F.bump_field((0.4, 2.4), (0.3, 0.3), -0.2),
    F.ProductField(F.product_xy(), F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5)),
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
    assert F.check_field_derivatives(field, pts) <= 1e-6


def test_field_arithmetic_jets():
    a = F.bump_field((0.5, 2.5), (0.4, 0.4), 0.5)
    b = F.product_xy()
    x, y = 0.45, 2.4
    s = a + 2.0 * b - 1.0
    assert s.value(x, y) == pytest.approx(a.value(x, y) + 2 * b.value(x, y) - 1)
    assert s.dxy(x, y) == pytest.approx(a.dxy(x, y) + 2 * b.dxy(x, y))


def _masked_jet(f, x, y):
    """Reference jet: ``_jet`` on every node, then zero outside the box."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    if isinstance(f, F.SumField):
        return [a + b for a, b in zip(_masked_jet(f.a, x, y), _masked_jet(f.b, x, y))]
    if isinstance(f, F.ScaledField):
        return [f.c * c for c in _masked_jet(f.a, x, y)]
    x0, x1, y0, y1 = f.support_box
    inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    return [np.where(inside, c, 0.0) for c in f._jet(x, y)]


_BUMP = F.bump_field((0.5, 2.5), (0.3, 0.25), 0.6)
_GATHERED_FIELDS = [
    _BUMP,
    F.ConstantField(0.0) + _BUMP + F.bump_field((0.3, 2.3), (0.2, 0.2), -0.4)
    + F.bump_field((0.7, 2.7), (0.25, 0.2), 0.3),
    -0.7 * _BUMP,
    F.with_support_box(F.product_xy(), (0.2, 0.8, 2.1, 2.6)),
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


def test_bump_jet_sees_only_box_nodes(monkeypatch):
    seen = []
    original = F.BumpField._jet

    def spy(self, x, y):
        seen.append((np.array(x), np.array(y)))
        return original(self, x, y)

    monkeypatch.setattr(F.BumpField, "_jet", spy)
    x, y = _GATHER_POINTS[0]
    _BUMP.jet(x, y)
    x0, x1, y0, y1 = _BUMP.support_box
    inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    (sx, sy), = seen
    assert sx.shape == (int(np.count_nonzero(inside)),)
    assert np.array_equal(sx, x[inside]) and np.array_equal(sy, y[inside])


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
    ts = np.array([t for t in ts if not phi.is_breakpoint(t, 2e-3)])
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
    assert abs(np.sum(grid.W) - grid.area) <= 1e-12
    banded = F.torus_grid(level=0, band=0.1)
    assert abs(np.sum(banded.W) - banded.area) <= 1e-10
    assert banded.excluded_weight > 0


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


def test_grid_csv_export(tmp_path):
    grid = F.box_grid((0, 1, 2, 3), level=0, base_cells=4)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,w"
    assert len(lines) == 1 + grid.W.size


def test_breakpoint_aligned_cells():
    grid = F.box_grid((0, 1, 2, 3), level=0, base_cells=8, x_breaks=(0.3,))
    # no node may straddle the line x = 0.3: nodes sit strictly inside cells
    assert not np.any(np.isclose(grid.X, 0.3))
