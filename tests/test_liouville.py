"""Liouville action, VB, S-class, variational and uniformizing checks."""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from splitannulus import curves as C, fields as F, liouville as LV, lorentz as L
from splitannulus.errors import IncompatibleMetrics

import oracles as O

G0 = L.desitter()
GF = L.flat()
BOX = (0, 1, 2, 3)
GRID = F.box_grid(BOX, level=2)
U1 = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.5)
U2 = F.bump_field((0.35, 2.4), (0.28, 0.28), -0.4)
U3 = F.bump_field((0.68, 2.66), (0.22, 0.22), 0.35)


def test_action_of_identical_metrics_is_zero():
    assert LV.action(G0, G0, GRID).value == 0.0


def test_action_incompatible_references():
    with pytest.raises(IncompatibleMetrics):
        LV.action(G0, GF, GRID)


def _leaf_jets_per_block(monkeypatch, run):
    """The bump jets per density call of ``QuadratureGrid.integrate`` (one
    row block) in ``run()``, by bump, and the de Sitter factor's jets under
    the key "ref"; and the nodes of those jets per node of the blocks."""
    jets, nodes, blocks = collections.Counter(), collections.Counter(), []
    for cls in (F.BumpField, F.DeSitterLogFactor):
        def counted(self, x, y, jet=cls._jet):
            key = self if isinstance(self, F.BumpField) else "ref"
            jets[key] += 1
            nodes[key] += np.broadcast(x, y).size
            return jet(self, x, y)

        monkeypatch.setattr(cls, "_jet", counted)
    integrate = F.QuadratureGrid.integrate

    def counted_integrate(self, density, *args, **kwargs):
        def block(x, y):
            blocks.append(np.broadcast(x, y).size)
            return density(x, y)

        return integrate(self, block, *args, **kwargs)

    monkeypatch.setattr(F.QuadratureGrid, "integrate", counted_integrate)
    run()
    assert len(blocks) > 2 and max(blocks) <= F.BLOCK_NODES
    return ({key: n / len(blocks) for key, n in jets.items()},
            {key: n / sum(blocks) for key, n in nodes.items()})


def test_grid_densities_take_one_jet_per_leaf_field(monkeypatch):
    # a field in two of the sums v_g, v_h and u is evaluated once per node,
    # in one jet per block of the integral's nodes
    h = G0.scaled_by(U1)
    k = G0.scaled_by(U2 + U3)
    once = {U1: 1, "ref": 1}
    assert _leaf_jets_per_block(
        monkeypatch, lambda: LV.action_monotone(G0, h, GRID)) == (once, once)
    once = {U1: 1, U2: 1, U3: 1, "ref": 1}
    assert _leaf_jets_per_block(
        monkeypatch, lambda: LV.action(h, k, GRID)) == (once, once)


def test_action_memory_stays_flat_on_a_million_nodes():
    # 1024 x 1024 nodes, about 740,000 of them in U1's box: the action's
    # peak is a few block-sized arrays, not arrays of every node in the box
    # (those peak near 22 MiB)
    grid = F.box_grid(BOX, level=4)
    assert grid.x_nodes.size * grid.y_nodes.size >= 10 ** 6
    h = G0.scaled_by(U1)
    tracemalloc.start()
    try:
        value = LV.action(G0, h, grid, refine=False).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value != 0.0
    assert peak <= 32 * 8 * F.BLOCK_NODES  # 4 MiB


def test_flat_closed_form():
    # S(e^{2u} g, g) = (1/2) int du/dx du/dy over the flat reference
    u = U1 + U2
    lhs = LV.action(GF.scaled_by(u), GF, GRID).value
    rhs = 0.5 * GRID.integrate(lambda x, y: (j := u.jet(x, y)).vx * j.vy)
    assert abs(lhs - rhs) <= 1e-6


class _UnreadPartials(F.ScalarField):
    """U1 with every partial but v and vxy replaced by a fault."""

    support_box = U1.support_box

    def _jet(self, x, y):
        j = U1.jet(x, y)

        def fault():
            raise AssertionError("an action density read an unused partial")

        return F.Jet2(lambda: j.v, fault, fault, lambda: j.vxy, fault, fault)


def test_action_densities_read_only_v_and_vxy():
    # F_g = -2 v_xy dx^dy and d(du o I) = 2 u_xy dx^dy: the action reads
    # the factor and its mixed partial, and the other four components are
    # never formed
    h = G0.scaled_by(_UnreadPartials())
    for action in (LV.action, LV.action_monotone):
        got, want = action(G0, h, GRID), action(G0, G0.scaled_by(U1), GRID)
        assert got.trail == want.trail


class _Spy(F.ScalarField):
    """``inner`` recording, per jet, the names of the components it builds."""

    def __init__(self, inner, built):
        self.inner, self.built = inner, built

    def _jet(self, x, y):
        j = self.inner.jet(x, y)
        names = []
        self.built.append(names)

        def build(name):
            names.append(name)
            return getattr(j, name)

        return F._componentwise(build)


def test_clipped_factor_in_a_sum_builds_only_what_the_action_reads():
    # the clipped field's box is smaller than the sum's, so it is handed
    # nodes outside it: it gathers the inside, and scatters only the v and
    # vxy that the action reads, in every block of the grid and of its
    # refinement
    inner = F.bump_field((0.45, 2.45), (0.2, 0.2), 0.3)
    box = (0.3, 0.6, 2.3, 2.6)
    bump = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.35)
    built = []  # the components built, one list per jet
    spied = LV.action(G0, G0.scaled_by(F.ClippedField(_Spy(inner, built), box)
                                       + bump), GRID)
    assert len(built) > 2
    assert all(sorted(names) == ["v", "vxy"] for names in built)
    plain = LV.action(G0, G0.scaled_by(F.ClippedField(inner, box) + bump), GRID)
    assert spied.trail == plain.trail


def test_definition_equals_monotone():
    for base in (G0, GF):
        h = base.scaled_by(U1)
        a = LV.action(base, h, GRID)
        b = LV.action_monotone(base, h, GRID)
        assert abs(a.value - b.value) <= 1e-6


def test_error_estimate_shrinks_under_refinement():
    h = G0.scaled_by(U1)
    coarse = LV.action(G0, h, F.box_grid(BOX, level=0, base_cells=8))
    fine = LV.action(G0, h, F.box_grid(BOX, level=2, base_cells=8))
    assert fine.error_estimate < coarse.error_estimate


class _Level:
    def __init__(self, level):
        self.level = level

    def describe(self):
        return {"level": self.level}


def test_refinement_trail_rules():
    events = []

    def grids(values):
        for lv in range(len(values)):
            events.append(("take", lv))
            yield _Level(lv)

    def ladder(values):
        def integral(grid):
            events.append(("integrate", grid.level))
            return values[grid.level]

        return LV.refinement_trail(integral, grids(values))

    av = ladder([1.0, 0.5, 0.375])
    assert (av.value, av.error_estimate, av.trail) == (0.375, 0.125, [1.0, 0.5, 0.375])
    assert av.rule.describe() == {"level": 2}
    # one grid at a time: each is taken after the previous integral
    assert events == [("take", 0), ("integrate", 0), ("take", 1),
                      ("integrate", 1), ("take", 2), ("integrate", 2)]
    one = ladder([-0.25])
    assert (one.value, one.error_estimate, one.trail) == (-0.25, 0.25, [-0.25])


def test_refined_action_carries_its_two_level_trail():
    h = G0.scaled_by(U1)
    grid = F.box_grid(BOX, level=0, base_cells=8)
    coarse = LV.action(G0, h, grid, refine=False)
    fine = LV.action(G0, h, grid.refine(), refine=False).value
    av = LV.action(G0, h, grid)
    assert (av.value, av.trail) == (fine, [coarse.value, fine])
    assert av.error_estimate == abs(fine - coarse.value)
    assert av.rule.describe() == grid.refine().describe()
    mono = LV.action_monotone(G0, h, grid)
    assert (mono.value, mono.rule.describe()) == (mono.trail[1], av.rule.describe())


def test_unrefined_action_is_a_one_level_trail():
    h = G0.scaled_by(U1)
    grid = F.box_grid(BOX, level=0, base_cells=8)
    av = LV.action(G0, h, grid, refine=False)
    assert av.trail == [av.value]
    assert av.error_estimate == abs(av.value)
    assert av.rule is grid


def test_chasles_triples():
    g = G0.scaled_by(U1)
    h = G0.scaled_by(U1 + U2)
    k = G0.scaled_by(U3)
    assert LV.chasles_residual(g, h, h, GRID) == pytest.approx(0.0, abs=1e-15)
    assert LV.chasles_residual(g, h, k, GRID) <= 1e-6
    # disjoint supports over the de Sitter reference
    a = G0.scaled_by(F.bump_field((0.2, 2.2), (0.15, 0.15), 0.5))
    b = G0.scaled_by(F.bump_field((0.5, 2.5), (0.15, 0.15), -0.4))
    c = G0.scaled_by(F.bump_field((0.8, 2.8), (0.15, 0.15), 0.3))
    assert LV.chasles_residual(a, b, c, GRID) <= 1e-6


def test_action_evaluates_reference_jet_only_in_bump_box(monkeypatch):
    seen = []
    original = F.DeSitterLogFactor._jet

    def spy(self, x, y):
        seen.append((np.array(x), np.array(y)))
        return original(self, x, y)

    monkeypatch.setattr(F.DeSitterLogFactor, "_jet", spy)
    bump = F.bump_field((0.4, 2.6), (0.15, 0.2), 0.5)
    LV.action(G0, G0.scaled_by(bump), GRID)
    x0, x1, y0, y1 = bump.support_box
    for x, y in seen:
        assert x.size > 0
        assert np.all((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
    # every node in the box of the grid and of its refinement, once, in
    # blocks of at most BLOCK_NODES
    sizes = [np.broadcast(x, y).size for x, y in seen]
    assert len(sizes) > 2 and max(sizes) <= F.BLOCK_NODES
    assert sum(sizes) == sum(
        np.count_nonzero((g.x_nodes >= x0) & (g.x_nodes <= x1))
        * np.count_nonzero((g.y_nodes >= y0) & (g.y_nodes <= y1))
        for g in (GRID, GRID.refine()))


def test_action_skips_diagonal_nodes_outside_support():
    # on [0, 1]^2 the x and y nodes coincide, so nodes lie on the diagonal
    # where the de Sitter factor is singular; they are outside supp u
    h = G0.scaled_by(F.bump_field((0.25, 0.75), (0.1, 0.1), 0.4))
    grid = F.box_grid((0, 1, 0, 1), level=0)
    assert np.any(grid.x_nodes[:, None] == grid.y_nodes)
    for fn in (LV.action, LV.action_monotone):
        value = fn(G0, h, grid, refine=False).value
        assert value != 0.0 and np.isfinite(value)


def test_split_invariance_under_mobius():
    m = np.array([[1.0, 0.15], [0.08, 1.05]])
    phi = O.MobiusMap(m)
    g = G0.scaled_by(U1)
    h = G0.scaled_by(U1 + U2)
    minv = O.mobius_inverse(phi.m)
    corners = [O.mobius_apply(minv, v) for v in (0.0, 1.0)]
    corners_y = [O.mobius_apply(minv, v) for v in (2.0, 3.0)]
    pulled_box = (min(corners), max(corners), min(corners_y), max(corners_y))
    pulled_grid = F.box_grid(pulled_box, level=2)
    res = O.split_invariance_residual(g, h, phi, GRID, pulled_grid)
    assert res <= 1e-6


def test_variational_residual_examples():
    assert LV.variational_residual(G0, F.ConstantField(0.0) * 0.0 + 0.0 * U1,
                                   1e-3, GRID) <= 1e-15
    assert LV.variational_residual(G0, U1, 1e-3, GRID) <= 1e-5
    # flat reference has F = 0: the derivative itself vanishes
    s_plus = LV.action(GF, GF.scaled_by(1e-3 * U1), GRID).value
    s_minus = LV.action(GF, GF.scaled_by(-1e-3 * U1), GRID).value
    assert abs((s_plus - s_minus) / 2e-3) <= 1e-6


def test_variational_residual_is_quadrature_exact():
    # the action is exactly quadratic in t, so the residual sits at the
    # roundoff floor for every dt (no dt^2 term exists to observe)
    r1 = LV.variational_residual(G0, U1, 1e-3, GRID)
    r2 = LV.variational_residual(G0, U1, 5e-4, GRID)
    assert r1 <= 1e-9 and r2 <= 1e-9


def test_criticality_constant_curvature():
    u = O.area_neutral_combination(G0, U1, U3, GRID)
    area_d, action_d = O.criticality_test(G0, u, GRID)
    assert abs(area_d) <= 1e-12
    assert abs(action_d) <= 1e-6


def test_criticality_zero_factor():
    area_d, action_d = O.criticality_test(G0, 0.0 * U1, GRID)
    assert area_d == 0.0 and action_d == 0.0


def test_criticality_counterexample_for_variable_curvature():
    g = G0.scaled_by(F.bump_field((0.42, 2.42), (0.34, 0.34), 0.5))
    u = O.area_neutral_combination(
        g,
        F.bump_field((0.42, 2.42), (0.1, 0.1), 1.0),
        F.bump_field((0.75, 2.72), (0.1, 0.1), 1.0),
        GRID,
    )
    area_d, action_d = O.criticality_test(g, u, GRID)
    assert abs(area_d) <= 1e-10
    assert abs(action_d) > 1e-3


# ---------------------------------------------------------------------------
# VB
# ---------------------------------------------------------------------------

def test_vb_constant_is_zero():
    curve = F.diamond_curve(0, 1, 2, 3)
    for r in range(4):
        assert LV.vb(F.ConstantField(3.7), curve, r) == 0.0


def test_vb_vertical_extent():
    curve = F.diamond_curve(0, 1, 2, 3)
    fy = F.PolynomialField([[0.0, 1.0]])  # f = y
    assert LV.vb(fy, curve, 0) == pytest.approx(2.0)
    assert LV.vb(fy, curve, 5) == pytest.approx(2.0)


def test_vb_nondecreasing_in_refinement():
    curve = F.diamond_curve(0.1, 0.9, 2.1, 2.9)
    vals = [LV.vb(U1, curve, r) for r in range(7)]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def _vb_by_segments(f, curve, refinement):
    # one evaluation per vertical segment, summed in curve order
    total = 0.0
    n = 2 ** refinement
    for a, b in curve.vertical_segments():
        ys = np.linspace(a.y, b.y, n + 1)
        vals = f.value(np.full_like(ys, a.x), ys)
        total += float(np.sum(np.abs(np.diff(vals))))
    return total


@pytest.mark.parametrize("f", [U1, F.UniformizingFactor(F.four_piece_c1_map())],
                         ids=["bump", "four_piece"])
def test_vb_evaluates_once_per_refinement(f):
    # both vertical segments of the S-class curve in one call, with the
    # bits of one call per segment
    curve = LV._VB_CURVE
    assert len(curve.vertical_segments()) == 2
    calls = []
    value = f.value

    def spy(x, y):
        calls.append(np.shape(x))
        return value(x, y)

    for r in range(8):
        calls.clear()
        f.value = spy
        try:
            got = LV.vb(f, curve, r)
        finally:
            del f.value
        assert calls == [(2 * (2 ** r + 1),)]
        assert got.hex() == _vb_by_segments(f, curve, r).hex()


def test_vb_of_a_curve_without_vertical_extent_is_zero():
    # a loop on one horizontal line: its vertical segments all have length
    # zero, so there is nothing to vary along
    p, q = F.AnnulusPoint(0.2, 2.0), F.AnnulusPoint(1.1, 2.0)
    curve = F.PolygonalCurve((p, p, q, q))
    assert curve.vertical_segments() == []
    assert LV.vb(U1, curve, 3) == 0.0
    assert LV.vb_converged(U1, curve) == (0.0, True)


def dal_variation_bound(f, grid) -> float:
    """(1/2) int |box_g f| da_g, which is int |f_xy| dx dy, metric free."""
    return grid.integrate(lambda x, y: np.abs(f.jet(x, y).vxy))


def test_vb_difference_bound():
    # |VB(f, P0) - VB(f, P1)| <= (1/2) int |box f| da, curve independent
    p0 = F.diamond_curve(0.1, 0.9, 2.1, 2.9)
    p1 = F.diamond_curve(0.25, 0.75, 2.2, 2.85)
    lhs = abs(LV.vb(U1, p0, 9) - LV.vb(U1, p1, 9))
    rhs = dal_variation_bound(U1, GRID)
    assert lhs <= rhs


# ---------------------------------------------------------------------------
# S-class
# ---------------------------------------------------------------------------

def test_sclass_trivial_pass():
    g0a = L.desitter(coords="angle")
    rep = LV.sclass_report(g0a, g0a)
    assert rep.verdict and rep.sup_u == 0.0


def test_sclass_uniformizing_passes_with_quadratic_decay():
    g0a = L.desitter(coords="angle")
    h = L.pullback_metric(g0a, F.SineFlowMap(0.3, 2))
    rep = LV.sclass_report(g0a, h)
    assert rep.verdict
    ratios = [a / b for a, b in zip(rep.boundary_decay, rep.boundary_decay[1:])]
    assert all(r > 2.5 for r in ratios)  # quadratic decay in practice


def _sampled_maxima(u):
    # the band maxima and the sup off the bands, one evaluation per sample
    # set, drawn in the S-class report's order
    rng = np.random.default_rng(20240901)
    th = rng.uniform(0.0, math.pi, LV._SAMPLES)
    maxima = []
    for j in range(LV._N_BANDS):
        w_hi = LV._BAND_WIDTH / 2 ** j
        offs = (rng.uniform(w_hi / 2.0, w_hi, LV._SAMPLES)
                * rng.choice([-1, 1], LV._SAMPLES))
        maxima.append(float(np.max(np.abs(u.value(th, th + offs)))))
    off = rng.uniform(LV._BAND_WIDTH, math.pi - LV._BAND_WIDTH, LV._SAMPLES)
    sup = float(np.max(np.abs(u.value(th, th + off))))
    return maxima, max(sup, max(maxima))


@pytest.mark.parametrize("phi", [F.SineFlowMap(0.3, 2), F.four_piece_c1_map()],
                         ids=["sine", "four_piece"])
def test_sclass_evaluates_u_once_on_all_samples(phi):
    # the five bands and the sup sample are one (6, 600) evaluation, with
    # the bits of six separate ones
    g0a = L.desitter(coords="angle")
    h = L.pullback_metric(g0a, phi)
    u = h.factor_relative_to(g0a)
    sizes = []
    jet = u.jet

    def spy(x, y):
        sizes.append(np.broadcast(x, y).shape)
        return jet(x, y)

    u.jet = spy
    rep = LV.sclass_report(g0a, h)
    del u.jet
    n = LV._SAMPLES
    assert sizes.count((LV._N_BANDS + 1, n)) == 1
    assert sizes.count((n,)) == 0
    maxima, sup = _sampled_maxima(u)
    assert [m.hex() for m in rep.boundary_decay] == [m.hex() for m in maxima]
    assert rep.sup_u.hex() == sup.hex()


def test_sclass_evaluates_u_once_on_the_bulk_grid():
    # the L-infinity and L1 norms of box_g u share one jet of u
    g0a = L.desitter(coords="angle")
    h = L.pullback_metric(g0a, F.SineFlowMap(0.3, 2))
    u = h.factor_relative_to(g0a)
    # the swap-symmetric half of the torus minus the band |x - y| < w
    # (mod pi), in (x, d = y - x)
    w = LV._BAND_WIDTH / 2 ** LV._N_BANDS
    bulk = F.box_grid((0.0, math.pi, w, 0.5 * math.pi), level=1, base_cells=32)
    shapes = []
    jet = u.jet

    def spy(x, y):
        shapes.append(np.broadcast(x, y).shape)
        return jet(x, y)

    u.jet = spy
    rep = LV.sclass_report(g0a, h)
    assert bulk.x_nodes.size == bulk.y_nodes.size == 128
    # its 128 x 128 nodes fill one block: one jet of u on all of them
    assert bulk.x_nodes.size * bulk.y_nodes.size == F.BLOCK_NODES
    assert [s for s in shapes if s[1:] == (128,)] == [(128, 128)]
    # the norms of separate evaluations, bit for bit
    del u.jet
    x, d = bulk.x_nodes[:, None], bulk.y_nodes[None, :]
    dal = L.dalembertian_values(g0a, u, x, x + d)
    assert rep.Linf_dal == float(np.max(np.abs(dal)))
    assert rep.L1_dal == 2.0 * bulk.integrate(
        lambda x, d: np.abs(2.0 * u.jet(x, x + d).vxy))


def test_sclass_log_factor_fails_boundedness():
    g0a = L.desitter(coords="angle")
    h = g0a.scaled_by(O.LogSinDiagField(-0.5))
    rep = LV.sclass_report(g0a, h)
    assert not rep.verdict
    assert not rep.clauses["1_bounded"]


# ---------------------------------------------------------------------------
# Uniformizing metrics
# ---------------------------------------------------------------------------

def test_uniformizing_action_mobius_exact_zero():
    phi = F.AngleMobiusMap(np.array([[1.4, 0.3], [0.2, 0.9]]))
    av, _ = C.uniformizing_action(phi, levels=1)
    assert abs(av.value) <= 1e-12


def test_uniformizing_action_sine_vanishes():
    # the trail falls geometrically until it reaches roundoff
    av, _ = C.uniformizing_action(F.SineFlowMap(0.3, 2), levels=3)
    mags = [abs(v) for v in av.trail]
    assert all(m <= 1e-11 for m in mags[2:])
    end = next(i for i, m in enumerate(mags) if m < 1e-11)
    assert all(b < a for a, b in zip(mags[:end], mags[1:end + 1]))


def test_actions_refuse_metrics_in_other_coords():
    g0a = L.desitter(coords="angle")
    for action in (LV.action, LV.action_monotone):
        with pytest.raises(IncompatibleMetrics):
            action(G0, g0a, GRID)


def test_uniformizing_formulas_agree():
    av, definition = C.uniformizing_action(F.SineFlowMap(0.25, 2), levels=2)
    assert abs(av.value - definition) <= 1e-9


def test_near_diagonal_integrand_limit():
    # u * F_{g0} density tends to (projective Schwarzian) / 6 on the
    # diagonal: u ~ eps^2 S~/12 against density 2/eps^2
    phi = F.SineFlowMap(0.3, 2)
    u = F.UniformizingFactor(phi)
    th = np.array([0.33, 1.1, 2.4])
    for eps in (1e-2, 1e-3):
        dens = u.value(th, th + eps) * 2.0 / np.sin(eps) ** 2
        lim = 2.0 * u.diagonal_limit_density(th)
        assert np.max(np.abs(dens - lim)) <= 0.2 * eps * 50
