"""Crossratios, diamond areas, Schwarzian, curve actions."""

import json
import math

import numpy as np
import pytest

from splitannulus import curves as C, fields as F, liouville as LV, lorentz as L
from splitannulus.errors import (
    CoincidentPoints,
    DegeneratePairing,
    NonPositiveB,
    NonSmoothB,
    NotC3AtPoint,
)

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O

RNG = np.random.default_rng(55)


# ---------------------------------------------------------------------------
# independent oracles: the classical crossratio, a finite-difference metric
# density and the flag incidence, none of them used by the package
# ---------------------------------------------------------------------------

def _bracket(p, q):
    """[p, q] for projective points in affine coordinates (inf allowed)."""
    p_inf = np.isinf(p)
    q_inf = np.isinf(q)
    # homogeneous reps (p, 1) and (1, 0) for infinity
    p1 = np.where(p_inf, 1.0, p)
    p2 = np.where(p_inf, 0.0, 1.0)
    q1 = np.where(q_inf, 1.0, q)
    q2 = np.where(q_inf, 0.0, 1.0)
    return p1 * q2 - p2 * q1


def classical_crossratio(a, b, c, d):
    """(a-c)(b-d) / ((a-b)(c-d)), normalized by [0, 1, x, inf] = x."""
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    pts = np.stack(np.broadcast_arrays(a, b, c, d))
    for i in range(4):
        for j in range(i + 1, 4):
            if np.any(np.abs(_bracket(pts[i], pts[j])) < 1e-13):
                raise CoincidentPoints("crossratio needs pairwise distinct points")
    num = _bracket(a, c) * _bracket(b, d)
    den = _bracket(a, b) * _bracket(c, d)
    return num / den


def fd_density(b, s, t, step):
    """The metric density of the crossratio b by central differences of
    log b in the two moving slots, the base slots placed cyclically."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    # base slots placed cyclically: x before s, X between s and t
    if b.coords == "angle":
        gap = np.remainder(t - s, math.pi)
        X = s + 0.5 * gap
        x = s - 0.5 * (math.pi - gap)
    else:
        X = 0.5 * (s + t)
        x = s - np.abs(t - s)

    def logb(yy, YY):
        vals = b.fn(x, yy, X, YY)
        if np.any(vals <= 0):
            raise NonPositiveB("crossratio not positive where log is needed")
        return np.log(vals)

    num = (
        logb(s + step, t + step)
        - logb(s + step, t - step)
        - logb(s - step, t + step)
        + logb(s - step, t - step)
    )
    return num / (4.0 * step ** 2)


def incidence_residual(curve, ts, step=1e-6):
    """x(t) on l(t) and l(t) tangent there (both should vanish)."""
    inc = np.abs(curve.pairing(ts, ts))
    tang = np.abs(
        (curve.pairing(ts, ts + step) - curve.pairing(ts, ts - step))
        / (2 * step)
    )
    return float(np.max(inc)), float(np.max(tang))


# ---------------------------------------------------------------------------
# classical crossratio
# ---------------------------------------------------------------------------

def test_normalization():
    assert classical_crossratio(0, 1, 0.73, np.inf) == pytest.approx(0.73)


def test_direct_arithmetic():
    assert classical_crossratio(0, 1, 2, 3) == pytest.approx(4.0)


def test_mobius_invariance():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
        if np.linalg.det(m) <= 0.1:
            continue
        pts = np.sort(rng.uniform(-2, 2, 4))
        if np.min(np.diff(pts)) < 0.05:
            continue
        mapped = [O.mobius_apply(m, p) for p in pts]
        lhs = classical_crossratio(*mapped)
        rhs = classical_crossratio(*pts)
        assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))


def test_coincident_points_rejected():
    with pytest.raises(CoincidentPoints):
        classical_crossratio(0, 1, 1, 3)


# ---------------------------------------------------------------------------
# crossratio families: cocycles, positivity, densities
# ---------------------------------------------------------------------------

FAMILIES = {
    "anchor-affine": C.reference_crossratio(),
    "anchor-angle": C.reference_crossratio("angle"),
    "po22-sine": C.PO22Curve(F.SineFlowMap(0.3, 2)).crossratio(),
    "po22-piecewise": C.PO22Curve(F.four_piece_c1_map()).crossratio(),
    "psl3-conic": C.PSL3Conic().crossratio(),
    "psl3-conic-angle": C.PSL3Conic("angle").crossratio(),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cocycles(name):
    b = FAMILIES[name]
    assert b.cocycle_residuals(RNG, 120) <= 1e-10


def positivity_check(b, rng, samples=200):
    """b > 1 on every sample (NaN fails)."""
    x, y, X, Y = b._cyclic_samples(rng, samples, 4, (0.05, 1.0), 0.05, 2.0)
    return bool(np.all(b(x, y, X, Y) > 1.0))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_positivity(name):
    assert positivity_check(FAMILIES[name], RNG, 200)


def _looped_cocycle_residuals(b, rng, samples):
    # one sample at a time, one scalar call per term
    worst = []
    for _ in range(samples):
        if b.coords == "angle":
            base = rng.uniform(0, math.pi)
            gaps = rng.uniform(0.08, 0.5, 5)
            pts = base + np.cumsum(gaps) / np.sum(gaps) * (math.pi - 0.1)
        else:
            pts = np.sort(rng.uniform(-1.0, 1.0, 5))
        x, w, y, X, Y = pts
        worst.append(abs(b(x, w, X, Y) * b(w, y, X, Y) / b(x, y, X, Y) - 1.0))
        worst.append(abs(b(x, w, X, Y) * b(x, w, y, X) / b(x, w, y, Y) - 1.0))
    return max(worst)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cocycles_match_the_per_sample_loop(name):
    # same samples, same draws left for the caller: the generator ends in
    # the state the loop leaves it in
    b = FAMILIES[name]
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    got = b.cocycle_residuals(rng, 60)
    assert abs(got - _looped_cocycle_residuals(b, ref_rng, 60)) <= 1e-15
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("samples", [1, 7, 60])
def test_cocycles_evaluate_each_term_once(samples):
    calls = []
    anchor = C.reference_crossratio()

    def fn(*pts):
        calls.append(np.shape(pts[0]))
        return anchor(*pts)

    C.Crossratio(fn).cocycle_residuals(np.random.default_rng(4), samples)
    assert calls == [(samples,)] * 5


def _nan_below(x_nan, coords="affine"):
    # the anchor crossratio, NaN wherever the first slot is at most x_nan
    anchor = C.reference_crossratio(coords)
    return C.Crossratio(
        lambda x, y, X, Y: np.where(np.asarray(x) <= x_nan, np.nan,
                                    anchor(x, y, X, Y)), coords=coords)


def test_a_nan_on_one_sample_is_not_masked():
    # the affine samples are sorted uniform points on [-spread, spread],
    # drawn one after another; only the sample that holds the smallest of
    # the 100 points reaches it: 20 cocycle samples of 5, 25 positivity
    # samples of 4
    def lowest(spread):
        return np.min(np.random.default_rng(3).uniform(-spread, spread, 100))

    b = _nan_below(lowest(1.0))
    assert math.isnan(b.cocycle_residuals(np.random.default_rng(3), 20))
    b = _nan_below(lowest(2.0))
    assert not positivity_check(b, np.random.default_rng(3), 25)


def test_verify_fails_a_nan_cocycle(monkeypatch, tmp_path):
    from splitannulus import cli

    # NaN on the anchor samples whose first slot is below -0.9; the
    # diamond checks call it at 0 and 0.4 only
    nan_anchor = _nan_below(-0.9)
    monkeypatch.setattr(C, "reference_crossratio", lambda: nan_anchor)
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 1
    failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert [c["identity"] for c in failed] == ["cocycles_anchor"]
    assert math.isnan(failed[0]["residual"])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
       st.floats(0, math.pi))
def test_cocycles_property(gaps, base):
    # both cocycle relations hold on arbitrary cyclically ordered tuples
    b = C.PO22Curve(F.SineFlowMap(0.3, 2)).crossratio()
    pts = base + np.cumsum(gaps) / np.sum(gaps) * (math.pi - 0.05)
    x, w, y, X, Y = pts
    r1 = b(x, w, X, Y) * b(w, y, X, Y) / b(x, y, X, Y)
    r2 = b(x, y, w, Y) * b(x, y, X, w) / b(x, y, X, Y)
    assert abs(r1 - 1.0) <= 1e-10
    assert abs(r2 - 1.0) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(0.05, 2),
       st.floats(0.05, 2))
def test_diamond_area_positive_and_additive_property(x, g1, g2, g3):
    b = C.reference_crossratio()
    y, X, Y = x + g1, x + g1 + g2, x + g1 + g2 + g3
    area = C.diamond_area(b, C.Diamond(x, y, X, Y))
    assert area > 0
    mid = x + 0.5 * g1
    parts = (C.diamond_area(b, C.Diamond(x, mid, X, Y))
             + C.diamond_area(b, C.Diamond(mid, y, X, Y)))
    assert abs(area - parts) <= 1e-9 * max(1.0, area)


def test_diamond_area_anchor_value():
    b = C.reference_crossratio()
    assert C.diamond_area(b, C.Diamond(0, 1, 2, 3)) == pytest.approx(
        2 * math.log(4 / 3), abs=1e-12
    )


def test_diamond_area_by_quadrature():
    grid = F.box_grid((0, 1, 2, 3), level=2)
    val = grid.integrate(lambda x, y: 2.0 / (x - y) ** 2)
    assert val == pytest.approx(2 * math.log(4 / 3), abs=1e-6)


def test_diamond_area_degenerate_sliver():
    b = C.reference_crossratio()
    area = C.diamond_area(b, C.Diamond(0.5, 0.5 + 1e-9, 2, 3))
    assert abs(area) <= 1e-8


def test_diamond_area_additivity():
    b = C.reference_crossratio()
    full = C.diamond_area(b, C.Diamond(0, 1, 2, 3))
    parts = C.diamond_area(b, C.Diamond(0, 0.35, 2, 3)) + C.diamond_area(
        b, C.Diamond(0.35, 1, 2, 3)
    )
    assert abs(full - parts) <= 1e-10


def test_noncyclic_diamond_rejected():
    with pytest.raises(CoincidentPoints):
        C.Diamond(0, 2, 1, 3)


def test_anchor_density_is_desitter():
    b = C.reference_crossratio()
    s, t = 0.31, 2.47
    assert b.density(s, t) == pytest.approx(2.0 / (s - t) ** 2, abs=1e-12)


def test_fd_density_matches_exact():
    b = C.reference_crossratio()
    s, t = np.array(0.31), np.array(2.47)
    fd = fd_density(b, s, t, 1e-5)
    assert fd == pytest.approx(2.0 / (0.31 - 2.47) ** 2, rel=1e-5)


def test_a_crossratio_without_an_exact_density_has_none():
    b = C.Crossratio(C.reference_crossratio().fn, family="custom")
    with pytest.raises(NonSmoothB, match="custom crossratio has no exact"):
        b.density(0.31, 2.47)


def test_density_integrates_to_diamond_area():
    b = C.reference_crossratio()
    grid = F.box_grid((0, 1, 2, 3), level=2)
    integral = grid.integrate(lambda x, y: b.density(x, y))
    assert abs(integral - C.diamond_area(b, C.Diamond(0, 1, 2, 3))) <= 1e-6


def test_po22_identity_density_doubles_classical():
    b = C.PO22Curve(F.IdentityMap()).crossratio()
    s, t = 0.4, 1.3
    classical = 1.0 / math.sin(s - t) ** 2
    assert b.density(s, t) == pytest.approx(2 * classical, abs=1e-8)


def test_po22_density_two_code_paths():
    # exact family density against the pulled-back metric combination
    phi = F.SineFlowMap(0.3, 2)
    curve = C.PO22Curve(phi)
    b = curve.crossratio()
    th = RNG.uniform(0, math.pi, 50)
    ps = th + RNG.uniform(0.3, 1.5, 50)
    f, d1, _, _ = phi.jets(th)
    g, e1, _, _ = phi.jets(ps)
    direct = 1.0 / np.sin(th - ps) ** 2 + d1 * e1 / np.sin(f - g) ** 2
    assert np.max(np.abs(b.density(th, ps) - direct)) <= 1e-9
    # and against the finite-difference route
    fd = fd_density(b, th[:5], ps[:5], 1e-5)
    assert np.max(np.abs(fd - direct[:5]) / direct[:5]) <= 1e-4


@pytest.mark.parametrize("family", ["po22-sine", "psl3-conic-angle",
                                    "anchor-angle"])
def test_density_is_derivative_of_area(family):
    # the metric density integrates back to the diamond b-area, family
    # by family (angle coordinates, region away from the diagonal)
    b = FAMILIES[family]
    x, y, X, Y = 0.2, 0.9, 1.4, 2.2
    area = C.diamond_area(b, C.Diamond(x, y, X, Y, coords="angle"))
    grid = F.box_grid((x, y, X, Y), level=2)
    integral = grid.integrate(lambda s, t: b.density(s, t))
    assert abs(area - integral) <= 1e-6


def test_envelope_degenerate_reporting():
    from splitannulus import adsgeom as A

    # the de Sitter envelope collapses to a single point (its Epstein
    # map is constant), so every sample reports degenerate; a conformal
    # bump makes it immersed inside the support but not outside
    data = A.IsotropicSurfaceData(L.desitter())
    forms = A.infinity_forms(data, np.array([0.3, 0.5]), np.array([2.4, 2.6]))
    assert np.all(forms.envelope_degenerate())
    frame = A.epstein_lift(data, np.array([0.3, 0.8]), np.array([2.4, 2.9]))
    assert np.max(np.abs(frame.x - frame.x[0])) <= 1e-12
    g = L.desitter().scaled_by(F.bump_field((0.5, 2.5), (0.42, 0.42), 0.6))
    forms2 = A.infinity_forms(A.IsotropicSurfaceData(g),
                              np.array([0.5, 0.05]), np.array([2.5, 2.95]))
    assert list(forms2.envelope_degenerate()) == [False, True]


def test_nonpositive_b_raises():
    b = C.Crossratio(lambda x, y, X, Y: -np.ones_like(np.asarray(x)),
                     coords="affine")
    with pytest.raises(NonPositiveB):
        C.diamond_area(b, C.Diamond(0, 1, 2, 3))


# ---------------------------------------------------------------------------
# PSL3 conic
# ---------------------------------------------------------------------------

def test_conic_pairing_closed_form():
    conic = C.PSL3Conic()
    s = RNG.uniform(-2, 2, 40)
    t = RNG.uniform(-2, 2, 40)
    assert np.max(np.abs(conic.pairing(s, t) - (t - s) ** 2)) <= 1e-12


def test_conic_incidence_and_tangency():
    conic = C.PSL3Conic()
    inc, tang = incidence_residual(conic, np.linspace(-1.5, 1.5, 21))
    assert inc <= 1e-10
    assert tang <= 1e-9


def test_conic_crossratio_value():
    b = C.PSL3Conic().crossratio()
    assert b(0, 1, 2, 3) == pytest.approx(16 / 9)


def test_conic_density_is_circle_metric():
    b = C.PSL3Conic().crossratio()
    s, t = 0.2, 1.9
    assert b.density(s, t) == pytest.approx(2.0 / (s - t) ** 2, abs=1e-10)


def test_affine_conic_has_no_curve_action():
    # curve actions integrate over the angle torus, which the affine chart
    # does not cover
    with pytest.raises(NonSmoothB, match="angle torus"):
        C.curve_action(C.PSL3Conic())


def test_pairing_that_vanishes_off_the_diagonal_is_refused():
    # with s1 = t2 the tangent line l(s1) holds x(t2), so <l(s1)|x(t2)> = 0
    # sits in a crossratio denominator
    for coords, (t1, t2, s1, s2) in (("affine", (0.0, 1.0, 1.0, 3.0)),
                                     ("angle", (0.2, 0.9, 0.9, 2.0))):
        b = C.PSL3Conic(coords).crossratio()
        assert np.isfinite(b(t1, t2, s1 + 0.1, s2))
        with pytest.raises(DegeneratePairing, match="off the diagonal"):
            b(t1, t2, s1, s2)


# ---------------------------------------------------------------------------
# Schwarzian
# ---------------------------------------------------------------------------

def test_schwarzian_of_mobius_vanishes():
    phi = O.MobiusMap(np.array([[1.3, 0.4], [0.2, 1.0]]))
    xs = np.linspace(-0.8, 0.8, 9)
    assert np.max(np.abs(C.schwarzian(phi, xs))) <= 1e-10


def test_schwarzian_of_tan_is_two():
    phi = F.tan_chart_map()
    xs = np.linspace(-1.0, 1.0, 9)
    assert np.max(np.abs(C.schwarzian(phi, xs) - 2.0)) <= 1e-10


def test_schwarzian_refused_at_breakpoint():
    pm = F.four_piece_c1_map()
    with pytest.raises(NotC3AtPoint):
        C.schwarzian(pm, pm.breakpoints[0])


# a composition's breakpoints: the inner map's, and the inner preimages of
# the outer map's (here the four turning points pulled back by a sine flow)
_COMPOSED = F.four_piece_c1_map().compose(F.SineFlowMap(0.2))


@pytest.mark.parametrize("phi, k, shift", [
    (F.four_piece_c1_map(), 3, math.pi),
    (_COMPOSED, 0, 0.0),
    (_COMPOSED, 3, -math.pi),
], ids=["piecewise_next_turn", "composed", "composed_previous_turn"])
def test_schwarzian_refused_at_every_breakpoint(phi, k, shift):
    b = phi.breakpoints[k]
    near = b + np.array([-1e-9, 1e-9, 0.1])
    # off the break the pieces are smooth
    assert np.all(np.isfinite(C.schwarzian(phi, near)))
    with pytest.raises(NotC3AtPoint, match="no third derivative"):
        C.schwarzian(phi, np.append(near, b + shift))


def test_schwarzian_asymptotics_first_order():
    # u(x, x+eps)/eps^2 converges to the Schwarzian limit at first order
    for phi, x in ((F.tan_chart_map(), 0.2), (F.SineFlowMap(0.3, 2), 0.9)):
        r1 = float(np.max(C.schwarzian_decay_residual(phi, np.array([x]), 1e-2)))
        r2 = float(np.max(C.schwarzian_decay_residual(phi, np.array([x]), 1e-3)))
        c1, c2 = r1 / 1e-2, r2 / 1e-3
        assert np.isfinite(c1) and np.isfinite(c2)
        assert c2 <= 3 * max(c1, 1e-6)  # no blow-up: genuinely first order


# ---------------------------------------------------------------------------
# curve actions
# ---------------------------------------------------------------------------

def test_circle_action_is_zero():
    curve = C.PO22Curve(F.AngleMobiusMap(np.array([[1.3, 0.2], [0.1, 0.9]])))
    av = C.curve_action(curve, levels=1)
    assert abs(av.value) <= 1e-6


def test_smooth_curve_action_converges():
    av = C.curve_action(C.PO22Curve(F.SineFlowMap(0.3, 2)), levels=3)
    diffs = [abs(b - a) for a, b in zip(av.trail, av.trail[1:])]
    assert diffs[-1] <= 1e-3
    assert np.isfinite(av.value)


def test_piecewise_curve_action_finite():
    curve = C.PO22Curve(F.four_piece_c1_map())
    av = C.curve_action(curve, levels=2)
    assert np.isfinite(av.value)
    assert abs(av.trail[-1] - av.trail[-2]) <= 1e-3
    # the factor is continuous and vanishes toward the boundary away
    # from the turning points
    u = curve.conformal_factor()
    th = np.array([0.6, 0.62, 0.64])  # same piece: exactly zero
    assert np.max(np.abs(u.value(th, th + 1e-3))) == 0.0


def test_piecewise_sclass_passes():
    curve = C.PO22Curve(F.four_piece_c1_map())
    rep = LV.sclass_report(L.desitter(coords="angle"), curve.metric())
    assert rep.verdict


def test_sclass_clause_4_needs_a_converged_vb():
    # the balanced map's VB runs all 15 dyadic refinements without two of
    # them agreeing: a finite number that measures no variation
    curve = C.PO22Curve(F.four_piece_c1_map(images=(0.3, 0.31, 3.40, None)))
    rep = LV.sclass_report(curve.circle_metric(), curve.metric())
    assert rep.vb == pytest.approx(3.7207881032507615, rel=1e-12)
    assert not rep.clauses["4_vb_finite"]
    assert not rep.clauses["2_boundary_decay"] and not rep.verdict


_CURVES = {"four_piece": lambda: C.PO22Curve(F.four_piece_c1_map()),
           **{f"sine_{a}": (lambda a=a: C.PO22Curve(F.SineFlowMap(a, 2)))
              for a in (0.1, 0.3, 0.45)}}

# The S-class L1 over the torus minus the band |x - y| < w (mod pi), in
# (x, d = y - x) on box_grid((0, pi, w, pi - w), level=5, base_cells=48):
# 1536 two-point Gauss cells per axis, 9.4M nodes.  Each bound is the
# relative error of the report's former whole-region rule (192 x 192 nodes);
# the half-region rule must do no worse.  The four-piece error moves
# without a pattern with the cell count, because its break lines cross cells.
_DEEP_L1_DAL = {
    "four_piece": (4.1442795619253605, 1.2e-3),
    "sine_0.1": (0.25336167362202777, 6.3e-6),
    "sine_0.3": (2.714665479876358, 1.2e-5),
    "sine_0.45": (10.20490787768778, 1.7e-5),
}


def test_sclass_l1_integrates_the_exact_off_diagonal_region():
    # the banded torus grid that dropped only the nodes on the diagonal
    # read 2.72231
    curve = _CURVES["sine_0.3"]()
    rep = LV.sclass_report(curve.circle_metric(), curve.metric())
    assert rep.verdict
    assert abs(rep.L1_dal - _DEEP_L1_DAL["sine_0.3"][0]) <= 5e-5


@pytest.mark.parametrize("name", sorted(_DEEP_L1_DAL))
def test_sclass_l1_against_deep_reference(name):
    ref, bound = _DEEP_L1_DAL[name]
    curve = _CURVES[name]()
    rep = LV.sclass_report(curve.circle_metric(), curve.metric())
    assert rep.verdict
    assert abs(rep.L1_dal / ref - 1.0) <= bound


# 2 * (the L1 over d in [w, pi/2]) against the L1 over the whole region
# [w, pi - w], on the rule of the report's spacing with a cell edge at
# d = pi/2.  The swap (x, d) -> (x + d, pi - d) maps one half onto the
# other but shifts x, so the rules agree to roundoff where u is smooth and
# to the cell error where break lines cross the cells.
_HALF_IDENTITY_TOL = {"four_piece": 2e-3, "sine_0.3": 1e-10}


@pytest.mark.parametrize("name", sorted(_HALF_IDENTITY_TOL))
def test_sclass_l1_is_twice_the_swap_symmetric_half(name):
    curve = _CURVES[name]()
    g, h = curve.circle_metric(), curve.metric()
    u = h.factor_relative_to(g)
    w = LV._BAND_WIDTH / 2 ** LV._N_BANDS

    def l1(d0, d1):
        grid = F.box_grid((0.0, math.pi, d0, d1), level=1, base_cells=32)
        return grid.integrate(lambda x, d: np.abs(2.0 * u.jet(x, x + d).vxy))

    full = l1(w, 0.5 * math.pi) + l1(0.5 * math.pi, math.pi - w)
    rep = LV.sclass_report(g, h)
    assert abs(rep.L1_dal / full - 1.0) <= _HALF_IDENTITY_TOL[name]


def test_sclass_gate_raises():
    g0a = L.desitter(coords="angle")

    class FakeCurve(C.PO22Curve):
        def metric(self):
            return g0a.scaled_by(O.LogSinDiagField(-0.5))

    curve = FakeCurve(F.IdentityMap())
    assert not LV.sclass_report(curve.circle_metric(), curve.metric()).verdict


def test_psl3_conic_action_zero():
    av = C.curve_action(C.PSL3Conic("angle"), levels=1)
    assert abs(av.value) <= 1e-9


def test_psl3_conic_action_is_positive_zero():
    # the zero factor makes every density value a signed zero; the report
    # reads 0.0 at every level, never -0.0
    av = C.curve_action(C.PSL3Conic("angle"), levels=2)
    assert [math.copysign(1.0, v) for v in [av.value, *av.trail]] == [1.0] * 4
    assert av.value == 0.0


# float.hex of the curve path at level 2: the action trail, then every
# number of the S-class report (sup_u, the five band maxima, Linf_dal,
# L1_dal, vb).  Sharing one factor jet per node between the two curvature
# terms, or one evaluation between sample sets, must not move a bit.
_CURVE_BITS = {
    "four_piece": (
        ["0x1.da43699d8beb2p-10", "0x1.da43fc409e9fbp-10", "0x1.da43fc419e199p-10"],
        "0x1.c5a56b8d5e273p-3",
        ["0x1.7db5c96333c67p-5", "0x1.8df3fa0b00064p-6", "0x1.8521b4a0a1398p-7",
         "0x1.8bb4205706d2bp-8", "0x1.0b6ff8e787101p-9"],
        "0x1.c514ba58690b9p-1", "0x1.097e92be8fe11p+2", "0x1.5a59e79ca88b6p-2"),
    "sine_0.3": (
        ["0x1.32073b57247e0p-12", "0x1.3201c20545960p-12", "0x1.3201be4b5c4a0p-12"],
        "0x1.c64e33c2f2789p-4",
        ["0x1.9a5bda47d419bp-6", "0x1.b433e571733a6p-8", "0x1.c4cb30be987f6p-10",
         "0x1.ac6ddbe66a97fp-12", "0x1.d3866dc6d3ecep-14"],
        "0x1.327b9268df23ep-2", "0x1.5b7a317049e2ap+1", "0x1.be2126d334e75p-3"),
}


@pytest.mark.parametrize("name", sorted(_CURVE_BITS))
def test_curve_path_bits_pinned(name):
    curve = _CURVES[name]()
    av = C.curve_action(curve, levels=2)
    rep = LV.sclass_report(curve.circle_metric(), curve.metric())
    got = ([v.hex() for v in av.trail], rep.sup_u.hex(),
           [v.hex() for v in rep.boundary_decay], rep.Linf_dal.hex(),
           float(rep.L1_dal).hex(), rep.vb.hex())
    assert got == _CURVE_BITS[name]


_TORUS_ACTIONS = {
    # (the factor f of g = e^{2f} g0, the action over the torus, its
    # integrals: one per level, and a uniformizing action's definition
    # value on the finest rule)
    "curve_four_piece": (C.LogMeanExpField, lambda: C.curve_action(
        _CURVES["four_piece"](), levels=2), 3),
    "curve_sine_0.3": (C.LogMeanExpField, lambda: C.curve_action(
        _CURVES["sine_0.3"](), levels=2), 3),
    "uniformizing_four_piece": (F.UniformizingFactor, lambda: C.uniformizing_action(
        F.four_piece_c1_map(), levels=2), 4),
    "uniformizing_sine_0.3": (F.UniformizingFactor, lambda: C.uniformizing_action(
        F.SineFlowMap(0.3, 2), levels=2), 4),
}


@pytest.mark.parametrize("name", sorted(_TORUS_ACTIONS))
def test_torus_density_takes_one_factor_jet_per_call(name, monkeypatch):
    # one jet of f per density call, where the monotone density took it
    # for v_g and again for u
    factor, run, integrals = _TORUS_ACTIONS[name]
    jets, calls = [], []
    factor_jet = factor._jet
    integrate = F.ArcPairRule.integrate

    def counted_jet(self, x, y):
        jets.append(1)
        return factor_jet(self, x, y)

    def counted_integrate(self, density, limit):
        calls.append(1)
        return integrate(self, density, limit)

    monkeypatch.setattr(factor, "_jet", counted_jet)
    monkeypatch.setattr(F.ArcPairRule, "integrate", counted_integrate)
    run()
    assert len(calls) == integrals
    assert len(jets) == len(calls)


def test_reparam_invariance():
    curve = C.PO22Curve(F.SineFlowMap(0.3, 2))
    res_id = C.reparam_invariance_residual(curve, F.IdentityMap(), levels=1)
    assert res_id == 0.0
    res = C.reparam_invariance_residual(curve, F.SineFlowMap(0.15, 2),
                                        levels=2)
    assert res <= 5e-13  # 6.2e-14 measured


def test_reparam_by_mobius():
    curve = C.PO22Curve(F.SineFlowMap(0.25, 2))
    phi = F.AngleMobiusMap(np.array([[1.2, 0.1], [0.05, 0.95]]))
    assert C.reparam_invariance_residual(curve, phi, levels=2) <= 5e-11  # 7.1e-12


def test_piecewise_reparam_invariance():
    # composing the piecewise map with a smooth reparametrization moves
    # the turning points to their preimages; the action is unchanged
    pm = F.four_piece_c1_map()
    phi = F.SineFlowMap(0.15, 2)
    comp = pm.compose(phi)
    for b in comp.breakpoints:
        img = float(phi.jets(np.asarray(b))[0]) % math.pi
        nearest = min(
            abs((img - t + math.pi / 2) % math.pi - math.pi / 2)
            for t in pm.breakpoints
        )
        assert nearest <= 1e-12
    res = C.reparam_invariance_residual(C.PO22Curve(pm), phi, levels=2)
    assert res <= 1e-12  # 1.5e-13 measured


# ---------------------------------------------------------------------------
# the four-piece invariant on the arc-pair rule
# ---------------------------------------------------------------------------

FOUR_PIECE_ACTION = 1.8091795647e-3
SINE_ACTION = 2.9183083523e-4  # the sine flow of amplitude 0.3, frequency 2


def _precomposed(chi, s):
    """chi o A for the hyperbolic A = R(0.7) diag(e^s, e^-s) R(0.7)^T: again
    four-piece, with breaks A^-1(t_i) and matrices M_i A."""
    c, sn = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -sn], [sn, c]])
    a = rot @ np.diag([math.exp(s), math.exp(-s)]) @ rot.T
    a_inv = F.AngleMobiusMap(np.linalg.inv(a))
    breaks = [float(a_inv(np.asarray(t))) % math.pi for t in chi.breakpoints]
    k = int(np.argmin(breaks))  # rotate the pieces to increasing breaks
    mats = [piece.m @ a for piece in chi.pieces]
    return F.PiecewiseMobiusAngleMap(breaks[k:] + breaks[:k], mats[k:] + mats[:k])


def test_four_piece_curve_action_value():
    av = C.curve_action(C.PO22Curve(F.four_piece_c1_map()), levels=2)
    assert abs(av.value - FOUR_PIECE_ACTION) <= 1e-10
    assert av.error_estimate <= 1e-9


def test_four_piece_action_invariant_under_hyperbolic_precomposition():
    # u_{chi o A}(x, y) = u_chi(Ax, Ay) and (A, A) is an isometry of the
    # circle metric; a rotation would also move the corners, but a
    # hyperbolic A changes the arc lengths as well
    chi = F.four_piece_c1_map()
    a = C.curve_action(C.PO22Curve(chi), levels=2)
    b = C.curve_action(C.PO22Curve(_precomposed(chi, 0.6)), levels=2)
    assert abs(a.value - b.value) <= 1e-10


def test_four_piece_uniformizing_action_vanishes():
    av, _ = C.uniformizing_action(F.four_piece_c1_map(), levels=2)
    assert abs(av.value) <= 1e-10


def test_sine_flow_curve_action_value():
    av = C.curve_action(C.PO22Curve(F.SineFlowMap(0.3, 2)), levels=2)
    assert abs(av.value - SINE_ACTION) <= 1e-12
