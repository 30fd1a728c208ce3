"""CLI subcommands: reports, exit codes, determinism."""

import json

import numpy as np

from splitannulus import cli, fields

ACTION_INI = """
[metric.g]
reference = desitter

[metric.h]
reference = desitter

[metric.h.u]
kind = bump
center = 0.5 2.5
halfwidth = 0.42 0.42
amplitude = 0.35

[metric.k]
reference = desitter

[metric.k.u]
kind = bumps
rows =
    0.35 2.4 0.25 0.25 -0.3
    0.7 2.65 0.2 0.2 0.4

[grid]
box = 0 1 2 3
level = 1
"""

CURVE_INI = """
[curve]
family = po22
kind = sineflow
amplitude = 0.3
frequency = 2
"""

EPSTEIN_INI = """
[metric.g]
reference = desitter

[metric.g.u]
kind = bump
center = 0.5 2.5
halfwidth = 0.4 0.4
amplitude = 0.3

[epstein]
box = 0 1 2 3
samples = 16 16
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_action_report(tmp_path):
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    out = tmp_path / "report.json"
    rc = cli.main(["action", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == 1
    assert abs(rep["values"]["definition"] - rep["values"]["monotone"]) <= 1e-9
    assert rep["chasles_residual"] <= 1e-6
    assert len(rep["refinement_trail"]) == 2


def test_action_report_values_pinned(tmp_path):
    # values of the report before the per-level integrals were shared;
    # reusing them must not move a bit
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    out = tmp_path / "report.json"
    assert cli.main(["action", "--config", cfg, "--grid-level", "2",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"] == {"definition": -0.010449250280309706,
                             "monotone": -0.010449250280309704}
    assert rep["error_estimate"] == 2.41425456015687e-12
    assert rep["refinement_trail"] == [-0.010449250240317634,
                                       -0.010449250277895452,
                                       -0.010449250280309706]
    assert rep["chasles_residual"] == 1.2285765486549916e-09
    assert rep["grid"]["level"] == 2


def test_action_integrates_once_per_pair_and_level(tmp_path, monkeypatch):
    # S(g, h) on levels 0..4, then S(g, h) monotone, S(h, k) and S(g, k)
    # on level 4 only: 8 integrals
    calls = []
    original = fields.QuadratureGrid.integrate

    def counted(self, *args, **kwargs):
        calls.append(self.level)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(fields.QuadratureGrid, "integrate", counted)
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    assert cli.main(["action", "--config", cfg, "--grid-level", "3",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(calls) == [0, 1, 2, 3, 4, 4, 4, 4]


def test_action_identical_metrics_zero(tmp_path):
    ini = ACTION_INI.replace("amplitude = 0.35", "amplitude = 0.0")
    cfg = _write(tmp_path, "b.ini", ini)
    out = tmp_path / "rep.json"
    assert cli.main(["action", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"]["definition"] == 0.0


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, "c.ini",
                 ACTION_INI.replace("level = 1", "level = 1\nbogus = 1"))
    assert cli.main(["action", "--config", cfg, "--out", "-"]) == 2


def test_malformed_config_is_config_error(tmp_path):
    cfg = _write(tmp_path, "dupe.ini", "[grid]\nlevel = 1\n[grid]\nlevel = 2\n")
    assert cli.main(["action", "--config", cfg, "--out", "-"]) == 2


def test_empty_rectangle_rejected(tmp_path):
    bad = EPSTEIN_INI.replace("box = 0 1 2 3\nsamples", "box = 1 1 2 3\nsamples")
    cfg = _write(tmp_path, "d.ini", bad)
    assert cli.main(["epstein", "--config", cfg,
                     "--out", str(tmp_path / "m.csv")]) == 2


def test_epstein_mesh(tmp_path):
    cfg = _write(tmp_path, "e.ini", EPSTEIN_INI)
    out = tmp_path / "mesh.csv"
    rc = cli.main(["epstein", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,t,x1,x2,x3,x4,n1,n2,n3,n4"
    assert len(lines) == 1 + 16 * 16
    sidecar = json.loads((tmp_path / "mesh.csv.json").read_text())
    assert sidecar["max_constraint_residual"] <= 1e-9


def test_curve_report(tmp_path):
    cfg = _write(tmp_path, "f.ini", CURVE_INI)
    out = tmp_path / "curve.json"
    rc = cli.main(["curve", "--config", cfg, "--grid-level", "1",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["family"] == "po22"
    assert rep["sclass"]["verdict"] is True
    assert np.isfinite(rep["action"])


def test_curve_report_runs_one_sclass_check(tmp_path, monkeypatch):
    from splitannulus import curves, liouville

    calls = []
    original = liouville.sclass_report

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(liouville, "sclass_report", counted)
    monkeypatch.setattr(curves, "sclass_report", counted)
    cfg = _write(tmp_path, "f.ini", CURVE_INI)
    assert cli.main(["curve", "--config", cfg, "--grid-level", "0",
                     "--out", str(tmp_path / "c.json")]) == 0
    assert len(calls) == 1


def test_curve_mobius_zero_action(tmp_path):
    ini = """
[curve]
family = po22
kind = mobius
matrix = 1.3 0.2 0.1 0.9
"""
    cfg = _write(tmp_path, "g.ini", ini)
    out = tmp_path / "curve.json"
    assert cli.main(["curve", "--config", cfg, "--grid-level", "1",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["action"]) <= 1e-6


def test_curve_bad_pieces_config_error(tmp_path):
    # images that cannot balance produce a construction error (exit 2)
    ini = """
[curve]
family = po22
kind = four_piece
breaks = 0.3 0.31 0.32 0.33
images = 0.3 2.0 2.1
"""
    cfg = _write(tmp_path, "h.ini", ini)
    assert cli.main(["curve", "--config", cfg, "--out", "-"]) == 2


def test_verify_deterministic(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert cli.main(["verify", "--seed", "11", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_seed_changes_samples_not_verdicts(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert cli.main(["verify", "--seed", "1", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--seed", "2", "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert [c["pass"] for c in r1["checks"]] == [c["pass"] for c in r2["checks"]]
    assert any(
        a["residual"] != b["residual"]
        for a, b in zip(r1["checks"], r2["checks"])
    )


def test_verify_sign_flip_fails(tmp_path):
    out = tmp_path / "flip.json"
    rc = cli.main(["verify", "--seed", "11", "--self-test-sign-flip",
                   "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    failed = [c["identity"] for c in rep["checks"] if not c["pass"]]
    assert failed == ["fundamental_equation_dbeta"]


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["action", "--config", str(tmp_path / "nope.ini"),
                     "--out", "-"]) == 2


def test_nonpositive_tolerance_scale_rejected(tmp_path):
    cfg = _write(tmp_path, "t.ini", ACTION_INI)
    assert cli.main(["action", "--config", cfg, "--tolerance-scale", "-1",
                     "--out", "-"]) == 2


def test_action_uniformizing_report(tmp_path):
    ini = """
[uniformizing]
kind = sineflow
amplitude = 0.3
frequency = 2
"""
    cfg = _write(tmp_path, "u.ini", ini)
    out = tmp_path / "uni.json"
    rc = cli.main(["action", "--config", cfg, "--grid-level", "2",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["uniformizing"] is True
    assert abs(rep["values"]["monotone"]) <= 5e-3
    mags = [abs(v) for v in rep["refinement_trail"]]
    assert all(b < a for a, b in zip(mags, mags[1:]))
