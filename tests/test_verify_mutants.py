"""Every check of ``verify`` can fail.

``MUTANTS`` maps each identity that ``cli._verify_checks`` reports to a
named, gross fault in a kernel that the check reads.  Installed with
``monkeypatch``, the fault must make that check fail on seed 0, as a
residual past its tolerance and not as an exception.  A check added to
``verify`` without a mutant fails ``test_every_check_has_a_mutant``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from splitannulus import adsgeom, cli, curves, fields, forms, liouville, lorentz

SEED = 0


def _wrap(monkeypatch, owner, name, make):
    """Replace ``owner.name`` by ``make(original)``."""
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def _scaled(factor):
    return lambda orig: lambda *a, **k: factor * orig(*a, **k)


def _defining_density_doubled(orig):
    def density(g, h, monotone=False):
        d = orig(g, h, monotone)
        return d if monotone else (lambda x, y: 2.0 * d(x, y))
    return density


def _x_partials_crossed(orig):
    # sigma_x + eta and eta_x + sigma: <sigma_x, sigma> reads 1, while the
    # frame's unit, orthogonality and contact relations all still hold, so
    # a lens still builds
    def assemble(self, nodes, t):
        j = orig(self, nodes, t)
        return dataclasses.replace(j, sigma_x=j.sigma_x + j.eta, eta_x=j.eta_x + j.sigma)
    return assemble


def _x_and_n_exchanged(orig):
    def frame(j):
        f = orig(j)
        return adsgeom.EpsteinFrame(f.n, f.x, f.n_dx, f.n_dy, f.x_dx, f.x_dy)
    return frame


def _n_equal_to_x(orig):
    def frame(j):
        f = orig(j)
        return adsgeom.EpsteinFrame(f.x, f.x, f.x_dx, f.x_dy, f.x_dx, f.x_dy)
    return frame


def _diamond_typo(chart):
    """diamond_ratio with D(x - X) where D(y - X) belongs, in one chart."""
    def make(orig):
        def ratio(x, y, X, Y, coords="affine"):
            if coords != chart:
                return orig(x, y, X, Y, coords)
            diff = fields.CHARTS[coords].diff
            return (diff(x - X) * diff(y - Y)) / (diff(x - Y) * diff(x - X))
        return ratio
    return make


def _psl3_denominator_typo(orig):
    # the pairing quotient with p(s2, t2) where p(s2, t1) belongs
    def crossratio(self):
        b = orig(self)
        p = self.pairing
        return curves.Crossratio(
            lambda t1, t2, s1, s2: p(s1, t1) * p(s2, t2) / (p(s1, t2) * p(s2, t2)),
            family=b.family, coords=b.coords)
    return crossratio


def _t_weights_doubled(orig):
    def axis_nodes(*a, **k):
        ts, ws = orig(*a, **k)
        return ts, 2.0 * ws
    return axis_nodes


def _shape_operator_doubled(orig):
    def forms_of(f):
        i, ii, iii, b = orig(f)
        return i, ii, iii, 2.0 * b
    return forms_of


# identity -> (the fault, its installer)
MUTANTS = {
    "curvature_desitter_anchor": (
        "K = -box v without its factor 2",
        lambda mp: _wrap(mp, lorentz.CurvatureReport, "K", _scaled(0.5))),
    "conformal_change": (
        "the d'Alembertian without its factor 2",
        lambda mp: _wrap(mp, lorentz, "dalembertian_values", _scaled(0.5))),
    "dalembertian_covariance": (
        "the metric density e^v, not e^2v",
        lambda mp: _wrap(mp, lorentz.SplitMetric, "density",
                         lambda orig: lambda *a: np.sqrt(orig(*a)))),
    "action_formula_equality": (
        "the defining action density doubled",
        lambda mp: _wrap(mp, liouville, "action_density", _defining_density_doubled)),
    "chasles": (
        "u = h.u + g.u: the density's difference adds",
        lambda mp: mp.setattr(liouville, "_minus", liouville._plus)),
    "flat_closed_form": (
        "flat() builds the de Sitter reference",
        lambda mp: mp.setattr(lorentz, "flat", lorentz.desitter)),
    "variational_2d": (
        "the curvature form's density with its sign flipped",
        lambda mp: _wrap(mp, lorentz.CurvatureReport, "F_density", _scaled(-1.0))),
    "isotropic_relations": (
        "the assembled x-partials of sigma and eta each carry the other field",
        lambda mp: _wrap(mp, adsgeom.IsotropicSurfaceData, "assemble",
                         _x_partials_crossed)),
    "metric_realization": (
        "the metric's value on (d/dx, d/dy) taken as its whole density",
        lambda mp: mp.setattr(lorentz.SplitMetric, "bilinear_xy",
                              lambda self, x, y: self.density(x, y))),
    "envelope_incidence": (
        "the Epstein frame's x and n exchanged",
        lambda mp: _wrap(mp, adsgeom, "epstein_frame", _x_and_n_exchanged)),
    "epstein_contact": (
        "the Epstein frame's n built as x",
        lambda mp: _wrap(mp, adsgeom, "epstein_frame", _n_equal_to_x)),
    "fundamental_equation_dbeta": (
        "beta with its sign flipped",
        lambda mp: _wrap(mp, forms, "beta", _scaled(-1.0))),
    "fundamental_equation_dalpha": (
        "n* with its sign flipped",
        lambda mp: _wrap(mp, forms, "nstar", _scaled(-1.0))),
    "cocycles_anchor": (
        "the affine diamond ratio with D(x - X) for D(y - X)",
        lambda mp: _wrap(mp, curves, "diamond_ratio", _diamond_typo("affine"))),
    "cocycles_po22": (
        "the angle diamond ratio with D(x - X) for D(y - X)",
        lambda mp: _wrap(mp, curves, "diamond_ratio", _diamond_typo("angle"))),
    "cocycles_psl3": (
        "the conic's pairing quotient with p(s2, t2) for p(s2, t1)",
        lambda mp: _wrap(mp, curves.PSL3Conic, "crossratio", _psl3_denominator_typo)),
    "diamond_additivity": (
        "the diamond area b - 1, not log b",
        lambda mp: _wrap(mp, curves, "diamond_area",
                         lambda orig: lambda *a: math.expm1(orig(*a)))),
    "diamond_area_value": (
        "the diamond area log10 b, not log b",
        lambda mp: _wrap(mp, curves, "diamond_area", _scaled(1.0 / math.log(10.0)))),
    "schwarzian_decay": (
        "the uniformizing factor's diagonal limit doubled",
        lambda mp: _wrap(mp, fields.UniformizingFactor, "diagonal_limit_density",
                         _scaled(2.0))),
    "w_volume_equals_action": (
        "the W-volume's t-rule weights doubled",
        lambda mp: _wrap(mp, forms, "_axis_nodes", _t_weights_doubled)),
    "classical_formula": (
        "the shape operator B doubled",
        lambda mp: _wrap(mp, forms, "fundamental_forms", _shape_operator_doubled)),
    "so_q_invariance": (
        "random_so_q returns twice an isometry, which does not preserve q",
        lambda mp: _wrap(mp, adsgeom, "random_so_q", _scaled(2.0))),
}


def test_every_check_has_a_mutant():
    checks = cli._verify_checks(SEED)
    assert sorted(MUTANTS) == sorted(c["identity"] for c in checks)
    assert [c["identity"] for c in checks if not c["pass"]] == []


@pytest.mark.parametrize("identity", sorted(MUTANTS))
def test_mutant_fails_its_check(monkeypatch, identity):
    fault, install = MUTANTS[identity]
    install(monkeypatch)
    check = {c["identity"]: c for c in cli._verify_checks(SEED)}[identity]
    assert not check["pass"], f"{fault}: {check}"


def test_beta_sign_flip_fails_verify_alone(monkeypatch, tmp_path):
    # through the command line: exit 1, and the dbeta check is the only
    # one that reads beta
    MUTANTS["fundamental_equation_dbeta"][1](monkeypatch)
    out = tmp_path / "flip.json"
    assert cli.main(["verify", "--seed", "11", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    failed = [c["identity"] for c in rep["checks"] if not c["pass"]]
    assert failed == ["fundamental_equation_dbeta"]
