"""Signature (2,2) algebra, isotropic surfaces, Epstein lifts."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitannulus import adsgeom as A, fields as F, forms as FM, lorentz as L

import oracles as O

RNG = np.random.default_rng(7)
XS = RNG.uniform(0.05, 0.95, 1000)
YS = RNG.uniform(2.05, 2.95, 1000)

G0 = L.desitter()
BUMP = F.bump_field((0.5, 2.5), (0.42, 0.42), 0.6)
PERTURBED = [
    G0.scaled_by(BUMP),
    G0.scaled_by(F.bump_field((0.4, 2.4), (0.3, 0.3), -0.5)),
    G0.scaled_by(BUMP + F.bump_field((0.6, 2.6), (0.25, 0.25), 0.4)),
]


def test_gram_signature():
    assert np.allclose(A.gram_signature(), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_segre_values():
    assert np.allclose(O.segre(0, 0), [0, 0, 0, 1])
    assert np.allclose(O.segre(1, 2), [2, 1, 2, 1])
    assert A.qform(O.segre(1.3, -0.4)) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_segre_pairing_closed_form(x, y, xp, yp):
    lhs = A.pair(O.segre(x, y), O.segre(xp, yp))
    assert lhs == pytest.approx(-(x - xp) * (y - yp), abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("metric", [G0, L.flat(), *PERTURBED])
def test_isotropic_constraints(metric):
    j = A.IsotropicSurfaceData(metric).jets(XS, YS)
    assert A.pair_constraint_residuals(j) <= 1e-9
    assert A.metric_realization_residual(j, metric.bilinear_xy(XS, YS)) <= 1e-8


def test_g0_closed_forms_at_point():
    data = A.IsotropicSurfaceData(G0)
    j = data.jets(np.array(0.0), np.array(1.0))
    assert np.allclose(j.sigma, [0, 0, -1, -1])      # -(E21 + E22)
    assert np.allclose(j.eta, [0, -1, 0, -1])        # -(E12 + E22)
    frame = A.epstein_lift(data, np.array(0.0), np.array(1.0))
    assert np.allclose(frame.x * math.sqrt(2), [0, 1, -1, 0])
    assert A.qform(frame.x) == pytest.approx(-1.0)


def test_conformal_sigma_is_scaled_base():
    data0 = A.IsotropicSurfaceData(G0)
    datau = A.IsotropicSurfaceData(G0.scaled_by(BUMP))
    j0 = data0.jets(XS[:50], YS[:50])
    ju = datau.jets(XS[:50], YS[:50])
    eu = np.exp(BUMP.value(XS[:50], YS[:50]))[..., None]
    assert np.max(np.abs(ju.sigma - eu * j0.sigma)) <= 1e-12


def test_first_form_scales_quadratically():
    data0 = A.IsotropicSurfaceData(G0)
    datau = A.IsotropicSurfaceData(G0.scaled_by(BUMP))
    j0 = data0.jets(XS[:100], YS[:100])
    ju = datau.jets(XS[:100], YS[:100])
    e2u = np.exp(2 * BUMP.value(XS[:100], YS[:100]))
    lhs = A.pair(ju.sigma_x, ju.sigma_y)
    rhs = e2u * A.pair(j0.sigma_x, j0.sigma_y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_eta_derivatives_match_finite_differences():
    data = A.IsotropicSurfaceData(PERTURBED[2])
    x, y = XS[:20], YS[:20]
    h = 1e-6
    j = data.jets(x, y)
    fd_x = (data.jets(x + h, y).eta - data.jets(x - h, y).eta) / (2 * h)
    fd_y = (data.jets(x, y + h).eta - data.jets(x, y - h).eta) / (2 * h)
    assert np.max(np.abs(fd_x - j.eta_x)) <= 1e-6
    assert np.max(np.abs(fd_y - j.eta_y)) <= 1e-6


def test_path_derivatives_match_finite_differences():
    # the lens path's lift carries an analytic time derivative, the x_t
    # row of ``LiftPath.lift``; cross-check it against central differences
    # of sqrt2 x = sigma - eta of the pair assembled at t0 +- h
    data = A.IsotropicSurfaceData(PERTURBED[0])
    x, y = XS[:20], YS[:20]
    t0, h = 0.6, 1e-6
    nodes = data.node_jets(x, y)
    x_t = data.lift_path(nodes, 0.0, 1.0).lift(t0)[3]
    jp = data.assemble(nodes, t0 + h)
    jm = data.assemble(nodes, t0 - h)
    fd = ((jp.sigma - jp.eta) - (jm.sigma - jm.eta)) / (2 * h)
    assert np.max(np.abs(fd - x_t)) <= 1e-6


def test_epstein_frame_constraints():
    for metric in (G0, *PERTURBED):
        data = A.IsotropicSurfaceData(metric)
        frame = A.epstein_lift(data, XS, YS)
        assert A.frame_constraint_residuals(frame) <= 1e-10


@pytest.mark.parametrize("shape", [(4,), (7, 4), (5, 6, 4)])
def test_det4_matches_linalg_det(shape):
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=shape) for _ in range(4)]
    ref = np.linalg.det(np.stack(rows, axis=-2))
    # relative to the Hadamard bound, the scale of a determinant's roundoff
    scale = np.prod([np.linalg.norm(r, axis=-1) for r in rows], axis=0)
    assert np.shape(A.det4(*rows)) == shape[:-1]
    assert np.max(np.abs(A.det4(*rows) - ref) / scale) <= 1e-13


def test_det4_orientation():
    e11, e12, e21, e22 = np.eye(4)
    assert A.det4(e11, e12, e21, e22) == 1.0
    assert A.det4(e12, e11, e21, e22) == -1.0


def _frames_equal(f, g, tol):
    for name, a in vars(f).items():
        assert np.max(np.abs(a - getattr(g, name))) <= tol, name


@pytest.mark.parametrize("metric", [PERTURBED[2], L.flat().scaled_by(BUMP)])
def test_split_evaluation_matches_direct_lift(metric):
    # the per-grid step once, then the per-t assembly at several t, agrees
    # with a direct lift evaluated point by point
    data = A.IsotropicSurfaceData(metric)
    x, y = XS[:40], YS[:40]
    nodes = data.node_jets(x, y)
    for t in (0.0, 0.3, 1.0):
        split = A.epstein_frame(data.assemble(nodes, t))
        for i in (0, 17, 39):
            direct = A.epstein_frame(data.jets(x[i], y[i], t))
            point = A.EpsteinFrame(**{k: v[i] for k, v in vars(split).items()})
            _frames_equal(point, direct, 1e-14)


def test_reference_pair_jets_are_stored_component_major():
    # (..., 4) arrays whose components are contiguous planes, and the
    # assembled frame inherits that order
    x, y = XS[:7, None], YS[None, :5]
    for v in A._segre_jets(x, y):
        assert v.shape == (7, 5, 4) and np.moveaxis(v, -1, 0).flags.c_contiguous
    lens = FM.LensCobordism(PERTURBED[0], (0, 1, 2, 3))
    frame = lens.frame(x, y, 0.3)
    for v in vars(frame).values():
        assert np.moveaxis(v, -1, 0).flags.c_contiguous


def test_envelope_incidence():
    for metric in (G0, *PERTURBED):
        j = A.IsotropicSurfaceData(metric).jets(XS, YS)
        assert A.envelope_incidence_residual(j) <= 1e-9


def test_infinity_forms_g0_matrix():
    data = A.IsotropicSurfaceData(G0)
    forms = A.infinity_forms(data, XS[:30], YS[:30])
    off = 1.0 / (XS[:30] - YS[:30]) ** 2
    assert np.max(np.abs(forms.Istar[..., 0, 0])) <= 1e-12
    assert np.max(np.abs(forms.Istar[..., 1, 1])) <= 1e-12
    assert np.max(np.abs(forms.Istar[..., 0, 1] - off)) <= 1e-12


def test_shape_operator_relations():
    for metric in (G0, *PERTURBED):
        data = A.IsotropicSurfaceData(metric)
        forms = A.infinity_forms(data, XS[:200], YS[:200])
        assert forms.shape_consistency_residual() <= 1e-8


def test_dual_of_dual_is_sigma():
    data = A.IsotropicSurfaceData(PERTURBED[0])
    j = data.jets(XS[:50], YS[:50])
    swapped = A.PairJets(j.eta, j.eta_x, j.eta_y, j.sigma, j.sigma_x, j.sigma_y)
    twice = O.dual_by_linear_solve(swapped)
    assert np.max(np.abs(twice - j.sigma)) <= 1e-9


def test_dual_linear_solve_matches_closed_form():
    data = A.IsotropicSurfaceData(PERTURBED[1])
    j = data.jets(XS[:50], YS[:50])
    eta = O.dual_by_linear_solve(j)
    assert np.max(np.abs(eta - j.eta)) <= 1e-9


def test_dual_refuses_a_rank_deficient_point():
    # at the third point sigma's derivatives vanish: rank 1, not 3
    data = A.IsotropicSurfaceData(PERTURBED[1])
    j = data.jets(XS[:5], YS[:5])
    sx, sy = j.sigma_x.copy(), j.sigma_y.copy()
    sx[2] = sy[2] = 0.0
    with pytest.raises(ValueError, match="rank-deficient"):
        O.dual_by_linear_solve(dataclasses.replace(j, sigma_x=sx, sigma_y=sy))


def test_orthogonal_unit_is_batched_and_refuses_a_timelike_normal():
    e11, e12, e21, e22 = np.eye(4)
    # span(E11 + E22, E12, E21) is orthogonal to the spacelike E11 - E22
    n = O.orthogonal_unit(np.stack([e11 + e22] * 3), np.stack([e12] * 3),
                          np.stack([e21] * 3))
    assert n.shape == (3, 4)
    assert np.max(np.abs(np.abs(n) - np.abs(e11 - e22) / math.sqrt(2))) <= 1e-15
    # span(E11 - E22, E12, E21) is orthogonal to the timelike E11 + E22
    with pytest.raises(ValueError, match="not spacelike"):
        O.orthogonal_unit(np.stack([e11 + e22, e11 - e22]), np.stack([e12] * 2),
                          np.stack([e21] * 2))


def test_sigma_unique_up_to_sign():
     # pointwise-scaled construction agrees with the family up to global sign
    for metric in (G0, PERTURBED[0]):
        data = A.IsotropicSurfaceData(metric)
        j = data.jets(XS[:200], YS[:200])
        other = O.sigma_by_pointwise_scaling(metric, XS[:200], YS[:200])
        same = np.max(np.abs(other - j.sigma))
        flipped = np.max(np.abs(other + j.sigma))
        assert min(same, flipped) <= 1e-8


def test_envelope_metric_combination():
    # induced metric of the envelope = I*/2 + II* + III*/2
    data = A.IsotropicSurfaceData(PERTURBED[0])
    x, y = XS[:100], YS[:100]
    j = data.jets(x, y)
    forms = A.infinity_forms(data, x, y)
    xdx = A.RT2INV * (j.sigma_x - j.eta_x)
    xdy = A.RT2INV * (j.sigma_y - j.eta_y)
    direct = A._pair_matrix(xdx, xdy, xdx, xdy)
    assert np.max(np.abs(direct - forms.envelope_metric())) <= 1e-7


def test_totally_geodesic_slice():
    x_fn, n_fn = O.totally_geodesic_slice()
    s = RNG.uniform(-0.8, 0.8, 40)
    t = RNG.uniform(0.1, 1.3, 40)
    x = x_fn(s, t)
    n = n_fn(s, t)
    assert np.max(np.abs(A.qform(x) + 1)) <= 1e-12
    assert np.max(np.abs(A.qform(n) - 1)) <= 1e-12
    # II = III = 0 for a constant normal, so I*(lift) = I/2
    _, ii_mat, iii_mat, _ = A.fundamental_forms(O.difference_frame(x_fn, n_fn, s, t))
    assert np.max(np.abs(ii_mat)) <= 1e-12
    assert np.max(np.abs(iii_mat)) <= 1e-12
    assert O.typical_holonomic_residual(x_fn, n_fn, s, t) <= 1e-10


def test_typical_holonomic_generic_graph():
    x_fn, n_fn = O.graph_perturbed_slice(0.05)
    s = RNG.uniform(-0.6, 0.6, 25)
    t = RNG.uniform(0.2, 1.1, 25)
    assert O.typical_holonomic_residual(x_fn, n_fn, s, t, step=1e-4) <= 1e-6


def test_not_unit_normal_rejected():
    x_fn, n_fn = O.totally_geodesic_slice()
    bad_n = lambda s, t: 1.1 * n_fn(s, t)
    with pytest.raises(ValueError, match="not a unit normal"):
        O.difference_frame(x_fn, bad_n, np.array([0.1]), np.array([0.5]))


def test_random_so_q_is_in_group():
    for seed in range(5):
        r = A.random_so_q(np.random.default_rng(seed))
        assert np.max(np.abs(r.T @ A.GRAM @ r - A.GRAM)) <= 1e-10
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


# the closed forms that the oracles' references check
_CLOSED_FORMS = {"assemble", "lift_path", "node_jets", "_segre_jets",
                 "_DeSitterBase", "_FlatBase", "_BASES", "_eta_terms", "_less",
                 "_check_exp", "_schwarzian"}


def test_oracles_stay_independent_of_the_closed_forms():
    # a reference built from what it checks would share its bugs
    tree = ast.parse(pathlib.Path(O.__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
            named.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert not named & _CLOSED_FORMS
