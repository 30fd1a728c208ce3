"""CLI subcommands: reports, exit codes, determinism."""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitannulus import cli, fields
from splitannulus.errors import ConfigError, NotTangent

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

UNIFORMIZING_INI = """
[uniformizing]
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
    assert rep["schema_version"] == 2
    assert abs(rep["values"]["definition"] - rep["values"]["monotone"]) <= 1e-9
    assert rep["chasles_residual"] <= 1e-6
    assert len(rep["refinement_trail"]) == 2


# S(g, h) of ACTION_INI from the previous rule, two-point Gauss on 32 * 2^5
# uniform cells per axis with no break lines (-0.010449250280322498), plus
# its last step over 15, the O(h^4) Richardson correction
ACTION_REFERENCE = -0.01044925028032247


def test_action_report_values_pinned(tmp_path):
    # the report's values on the default rule, gauss8 on cells cut at the
    # bumps' support edges; sharing the per-level integrals must not move
    # a bit
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    out = tmp_path / "report.json"
    assert cli.main(["action", "--config", cfg, "--grid-level", "2",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"] == {"definition": -0.01044925028032247,
                             "monotone": -0.01044925028032247}
    assert rep["error_estimate"] == 0.0
    assert rep["refinement_trail"] == [-0.010449250280322462,
                                       -0.01044925028032247,
                                       -0.01044925028032247]
    assert rep["chasles_residual"] == 3.1252127621894665e-17
    assert rep["grid"]["level"] == 2
    assert rep["grid"]["scheme"] == "gauss8"
    assert abs(rep["values"]["definition"] - ACTION_REFERENCE) <= 1e-15


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


def test_action_bump_jets_cost_rows_plus_columns(tmp_path, monkeypatch):
    # every integral of a level-3 action evaluates its bumps on open meshes
    # of the support block: the jets see its rows and columns, not its nodes
    block = []
    seen = []
    integrate, bump_jet = fields.QuadratureGrid.integrate, fields.BumpField._jet

    def traced_integrate(self, density, support=None):
        x0, x1, y0, y1 = support
        xn, yn = self.x_nodes, self.y_nodes
        rows = np.count_nonzero((xn >= x0) & (xn <= x1))
        cols = np.count_nonzero((yn >= y0) & (yn <= y1))
        block.append((rows, cols))
        try:
            return integrate(self, density, support)
        finally:
            block.pop()

    def traced_jet(self, x, y):
        seen.append((np.size(x) + np.size(y), block[-1]))
        return bump_jet(self, x, y)

    monkeypatch.setattr(fields.QuadratureGrid, "integrate", traced_integrate)
    monkeypatch.setattr(fields.BumpField, "_jet", traced_jet)
    # the previous default rule, whose finest blocks hold ~10^6 nodes
    cfg = _write(tmp_path, "a.ini", ACTION_INI.replace(
        "level = 1", "level = 1\nscheme = gauss2\nbase_cells = 32"))
    assert cli.main(["action", "--config", cfg, "--grid-level", "3",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert max(rows * cols for _, (rows, cols) in seen) > 10 ** 5
    for size, (rows, cols) in seen:
        assert size <= rows + cols


def _block_nodes(grid, support):
    rows, cols = grid._support_block(support)
    return (rows.stop - rows.start) * (cols.stop - cols.start)


def test_action_default_rule_takes_a_tenth_of_the_old_nodes(tmp_path, monkeypatch):
    # every integral of a level-3 action, counted as the rows x columns of
    # its support block, against the same integrals on the previous
    # default grids (gauss2, 32 base cells, no break lines)
    blocks = []
    integrate = fields.QuadratureGrid.integrate

    def counted(self, density, support=None):
        old = fields.box_grid((0, 1, 2, 3), self.level, 32, "gauss2")
        blocks.append((_block_nodes(self, support), _block_nodes(old, support)))
        return integrate(self, density, support)

    monkeypatch.setattr(fields.QuadratureGrid, "integrate", counted)
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    assert cli.main(["action", "--config", cfg, "--grid-level", "3",
                     "--out", str(tmp_path / "r.json")]) == 0
    new, old = map(sum, zip(*blocks))
    assert len(blocks) == 8 and old == 3051196
    assert new < old / 10


@pytest.mark.parametrize("scheme", ["gauss1", "gauss2", "gauss16"])
def test_action_accepts_gauss_1_to_16(tmp_path, scheme):
    cfg = _write(tmp_path, "a.ini", ACTION_INI.replace(
        "level = 1", f"level = 1\nscheme = {scheme}"))
    out = tmp_path / "r.json"
    assert cli.main(["action", "--config", cfg, "--grid-level", "0",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["grid"]["scheme"] == scheme


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


_H_BUMP = "kind = bump\ncenter = 0.5 2.5\nhalfwidth = 0.42 0.42\namplitude = 0.35"
_SINEFLOW = "family = po22\nkind = sineflow\namplitude = 0.3\nfrequency = 2"


@pytest.mark.parametrize("command, base, old, new, words", [
    pytest.param("action", ACTION_INI, _H_BUMP, "kind = constant\nvalue = abc",
                 ("[metric.h.u]", "'value'"), id="value_abc"),
    pytest.param("action", ACTION_INI, "center = 0.5 2.5\n", "",
                 ("[metric.h.u]", "'center'"), id="no_center"),
    pytest.param("action", ACTION_INI, "0.7 2.65 0.2 0.2 0.4", "0.7 2.65 0.2 0.2",
                 ("[metric.k.u]", "'rows'"), id="short_row"),
    pytest.param("action", ACTION_INI, "amplitude = 0.35",
                 "amplitude = 0.35\npower = 2", ("[metric.h.u]",), id="power_2"),
    pytest.param("action", ACTION_INI, "amplitude = 0.35",
                 "amplitude = 0.35\npower = 1" + "0" * 400,
                 ("[metric.h.u]", "'power'", "finite"), id="power_huge_integer"),
    pytest.param("action", ACTION_INI, "level = 1", "level = one",
                 ("[grid]", "'level'"), id="level_one"),
    pytest.param("action", ACTION_INI, "level = 1", "level = -1", ("level",),
                 id="level_negative"),
    pytest.param("action", ACTION_INI, "amplitude = 0.35", "amplitude = 35%",
                 ("[metric.h.u]", "'amplitude'"), id="percent"),
    pytest.param("epstein", EPSTEIN_INI, "samples = 16 16", "samples = 0 0",
                 ("[epstein]", "'samples'"), id="samples_zero"),
    pytest.param("epstein", EPSTEIN_INI, "samples = 16 16", "samples = -3 4",
                 ("[epstein]", "'samples'"), id="samples_negative"),
    pytest.param("epstein", EPSTEIN_INI, "box = 0 1 2 3", "box = 0 1 1 3",
                 ("[epstein]", "'box'"), id="epstein_box_meets_diagonal"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nbreaks = 0.3 1.0",
                 ("[curve]", "'breaks'"), id="four_piece_two_breaks"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nimages = 0.3 1.35",
                 ("[curve]", "'images'"), id="four_piece_two_images"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nskew = 0",
                 ("[curve]", "'skew'"), id="four_piece_skew_zero"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nbreaks = 0.3 0.3 1.8 2.5",
                 ("[curve]", "turning points"), id="four_piece_repeated_break"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nimages = 0.3 0.3 1.8",
                 ("[curve]", "images"), id="four_piece_repeated_image"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nimages = 0.3 0.3 0.3",
                 ("[curve]", "images"), id="four_piece_equal_images"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nbreaks = 0 1e-200 1.8 2.5",
                 ("[curve]", "turning points"), id="four_piece_unresolved_break"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nimages = 0.3 1.8 1.35",
                 ("[curve]", "images"), id="four_piece_images_out_of_order"),
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nimages = 0.3 1.35 1.8 1.8",
                 ("[curve]", "images"), id="four_piece_repeated_fourth_image"),
    # winds three times: four_piece_c1_map refuses the images themselves
    pytest.param("curve", CURVE_INI, _SINEFLOW,
                 "family = po22\nkind = four_piece\nimages = 0.3 3.4 3.5",
                 ("[curve]", "images"), id="four_piece_images_round_three_times"),
    pytest.param("action", ACTION_INI, _H_BUMP, "kind = polynomial\ncoeffs =",
                 ("[metric.h.u]", "'coeffs'"), id="empty_coeffs"),
    pytest.param("action", ACTION_INI, "box = 0 1 2 3", "box = 0 1 2 inf",
                 ("[grid]", "'box'"), id="box_inf"),
    pytest.param("action", ACTION_INI, "box = 0 1 2 3", "box = 0 nan 2 3",
                 ("[grid]", "'box'"), id="box_nan"),
    pytest.param("action", ACTION_INI, "level = 1", "level = 1\nbase_cells = 0",
                 ("[grid]", "'base_cells'"), id="base_cells_zero"),
    pytest.param("action", ACTION_INI, "level = 1", "level = 1\nscheme = midpoint",
                 ("[grid]", "'scheme'"), id="scheme_midpoint"),
    pytest.param("action", ACTION_INI, "level = 1", "level = 1\nscheme = gauss0",
                 ("[grid]", "'scheme'"), id="scheme_gauss0"),
    pytest.param("action", ACTION_INI, "level = 1", "level = 1\nscheme = gaussx",
                 ("[grid]", "'scheme'"), id="scheme_gaussx"),
    pytest.param("action", ACTION_INI, "level = 1", "level = 1\nscheme = gauss17",
                 ("[grid]", "'scheme'"), id="scheme_gauss17"),
    # the grid has no diagonal band: the key is unknown
    pytest.param("action", ACTION_INI, "level = 1", "level = 1\nband = 0.01",
                 ("unknown keys ['band'] in [grid]",), id="band_removed"),
    pytest.param("action", ACTION_INI, "halfwidth = 0.42 0.42", "halfwidth = 0 0.4",
                 ("[metric.h.u]", "halfwidth"), id="halfwidth_zero"),
    pytest.param("action", ACTION_INI, "0.7 2.65 0.2 0.2 0.4",
                 "0.7 2.65 0.2 -0.2 0.4", ("[metric.k.u]", "halfwidth"),
                 id="row_halfwidth_negative"),
    pytest.param("action", ACTION_INI, "amplitude = 0.35",
                 "amplitude = 0.35\nsupport_box = 1 0 3 2",
                 ("[metric.h.u]", "'support_box'"), id="support_box_reversed"),
    pytest.param("curve", CURVE_INI, "frequency = 2",
                 "frequency = 2\nmatrix = 1.3 0.2 0.1 0.9", ("[curve]", "'matrix'"),
                 id="sineflow_matrix"),
    pytest.param("curve", CURVE_INI, _SINEFLOW, "family = psl3_conic\nkind = bogus",
                 ("[curve]", "'kind'"), id="psl3_conic_kind"),
    pytest.param("action", ACTION_INI, "[metric.h]\nreference = desitter",
                 "[metric.h]\nreference = flat", ("[metric.h]",),
                 id="metrics_differ_in_reference"),
    pytest.param("action", ACTION_INI, "[metric.k]\nreference = desitter",
                 "[metric.k]\nreference = desitter\ncoords = angle",
                 ("[metric.k]",), id="metrics_differ_in_coords"),
    # a chart label did nothing: the key is unknown
    pytest.param("action", ACTION_INI, "[metric.h]\nreference = desitter",
                 "[metric.h]\nreference = desitter\nchart = other",
                 ("unknown keys ['chart'] in [metric.h]",), id="chart_removed"),
    pytest.param("epstein", EPSTEIN_INI, "[metric.g]\nreference = desitter",
                 "[metric.g]\nreference = desitter\ncoords = angle",
                 ("[metric.g]", "'coords'"), id="epstein_angle_coords"),
    # requests far beyond the bounds are refused before any array is built
    pytest.param("action", ACTION_INI, "level = 1",
                 "level = 1\nbase_cells = 1000000000000",
                 ("[grid]", f"more than {cli.MAX_AXIS_NODES}"), id="base_cells_huge"),
    # the finest grid's cells are beyond the float range
    pytest.param("action", ACTION_INI, "level = 1",
                 "level = 1\nbase_cells = 1" + "0" * 308,
                 ("[grid]", f"more than {cli.MAX_AXIS_NODES}"),
                 id="base_cells_beyond_float"),
    pytest.param("epstein", EPSTEIN_INI, "samples = 16 16",
                 "samples = 1000000 1000000",
                 ("[epstein]", "'samples'", f"more than {cli.MAX_SAMPLES}"),
                 id="samples_huge"),
    # finite numbers whose difference or square is not
    pytest.param("action", ACTION_INI, "box = 0 1 2 3", "box = -1e308 1e308 2 3",
                 ("[grid]", "'box'", "overflows"), id="box_side_overflows"),
    pytest.param("action", ACTION_INI, "halfwidth = 0.42 0.42",
                 "halfwidth = 1e200 1e200", ("[metric.h.u]", "halfwidth", "square finite"),
                 id="halfwidth_overflows"),
])
def test_bad_config_value_exits_2_without_traceback(tmp_path, capsys, command, base,
                                                    old, new, words):
    assert old in base
    cfg = _write(tmp_path, "bad.ini", base.replace(old, new))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert all(w in err for w in words)


def _exits_2_naming(tmp_path, capsys, command, ini, words):
    cfg = _write(tmp_path, "bad.ini", ini)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(w in err for w in words)


@pytest.mark.parametrize("command, base, old, new, words", [
    # read as the zero factor, the action reported 0.0 with exit 0
    pytest.param("action", ACTION_INI, "[metric.h.u]", "[metric.h.uu]",
                 ("unknown section [metric.h.uu]",), id="misspelled_factor"),
    # read as the default box and samples
    pytest.param("epstein", EPSTEIN_INI, "[epstein]", "[epstien]",
                 ("unknown section [epstien]",), id="misspelled_epstein"),
    # its keys were read into every other section
    pytest.param("epstein", EPSTEIN_INI, "[epstein]", "[DEFAULT]\nreference = flat\n"
                 "[epstein]", ("unknown section [DEFAULT]",), id="default_section"),
    # without [metric.k] the action skipped its Chasles check and the factor
    pytest.param("action", ACTION_INI, "[metric.k]\nreference = desitter\n", "",
                 ("[metric.k.u] without [metric.k]",), id="factor_without_metric"),
])
def test_section_no_subcommand_reads_is_a_config_error(tmp_path, capsys, command,
                                                       base, old, new, words):
    assert old in base
    _exits_2_naming(tmp_path, capsys, command, base.replace(old, new), words)


def test_one_config_serves_action_and_epstein(tmp_path):
    cfg = _write(tmp_path, "both.ini",
                 ACTION_INI + "\n[epstein]\nbox = 0 1 2 3\nsamples = 4 4\n")
    assert cli.main(["action", "--config", cfg, "--grid-level", "0",
                     "--out", str(tmp_path / "a.json")]) == 0
    assert cli.main(["epstein", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 0


@pytest.mark.parametrize("command, ini, words", [
    pytest.param("curve", "[curve]\nfamily = po22\nkind = sineflow\nfrequency = 3",
                 ("[curve]", "frequency must be even"), id="sineflow_odd_frequency"),
    pytest.param("action", "[uniformizing]\nkind = sineflow\namplitude = 0.5",
                 ("[uniformizing]", "|amplitude * frequency| < 1"),
                 id="sineflow_not_monotone"),
    # k ** 3 of a frequency past ~5.6e102 has no float, so its jets raise
    # OverflowError; an amplitude of 0 or 5e-324 passes |a k| < 1
    pytest.param("curve", "[curve]\nfamily = po22\nkind = sineflow\n"
                 f"amplitude = 0\nfrequency = {10 ** 110}", ("[curve]", "float range"),
                 id="sineflow_huge_frequency"),
    pytest.param("action", "[uniformizing]\nkind = sineflow\namplitude = 5e-324\n"
                 f"frequency = {10 ** 110}", ("[uniformizing]", "float range"),
                 id="uniformizing_sineflow_huge_frequency"),
    pytest.param("curve", "[curve]\nfamily = po22\nkind = mobius\nmatrix = 1 0 0 -1",
                 ("[curve]", "positive determinant"), id="mobius_reflection"),
    pytest.param("action", "[uniformizing]\nkind = piecewise\nbreaks = 0.3 1.0\n"
                 "matrices = 1 0 0 1", ("[uniformizing]", "one matrix per arc"),
                 id="piecewise_matrix_count"),
    # det 1, but phi''' would overflow: exit 3, "overflow encountered in square"
    pytest.param("action", "[uniformizing]\nkind = piecewise\nbreaks = 0\n"
                 "matrices = 1 1e155 0 1", ("[uniformizing]", "entry of 1e+155",
                                           "angle jets would overflow"),
                 id="piecewise_jets_overflow"),
    pytest.param("curve", "[curve]\nfamily = po22\nkind = mobius\n"
                 "matrix = 1 1e155 0 1", ("[curve]", "angle jets would overflow"),
                 id="mobius_jets_overflow"),
    # both pieces fix the angles 0 and pi/2, with derivatives 1 and 4 there
    pytest.param("curve", "[curve]\nfamily = po22\nkind = piecewise\n"
                 f"breaks = 0 {math.pi / 2!r}\nmatrices =\n    1 0 0 1\n    2 0 0 0.5",
                 ("[curve]", "C1 mismatch"), id="piecewise_c1_mismatch"),
    pytest.param("action", "[uniformizing]\nkind = four_piece\n"
                 "images = 0.3 1.35 1.8 2.6", ("[uniformizing]", "do not balance"),
                 id="four_piece_unbalanced"),
])
def test_circle_map_checks_exit_2(tmp_path, capsys, command, ini, words):
    _exits_2_naming(tmp_path, capsys, command, ini + "\n", words)


@pytest.mark.parametrize("rows", [600, 5000])
@pytest.mark.parametrize("command, tail, code", [
    # the bumps' break lines put the grid past the node bound
    ("action", "[metric.h]\nreference = desitter\n[grid]\nlevel = 0\n", 2),
    ("epstein", "[epstein]\nsamples = 8 8\n", 0),
], ids=["action", "epstein"])
def test_many_bumps_end_in_an_exit_code(tmp_path, capsys, rows, command, tail, code):
    # a bumps field is a sum with one term per row: no walk over it may
    # recurse once per row (600 rows ended in RecursionError)
    lines = "".join(f"    {0.2 + 0.6 * i / rows!r} {2.2 + 0.6 * i / rows!r} 0.1 0.1 "
                    f"{(-1) ** i * 0.01!r}\n" for i in range(rows))
    cfg = _write(tmp_path, "b.ini", "[metric.g]\nreference = desitter\n[metric.g.u]\n"
                 f"kind = bumps\nrows =\n{lines}{tail}")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert f"more than {cli.MAX_AXIS_NODES}" in err


def _run_cli(*args, environ=os.environ):
    """The CLI in a fresh interpreter, with Python's default warning filters."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "splitannulus.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**environ, "PYTHONPATH": src})


def test_bad_config_value_from_the_command_line(tmp_path):
    ini = ACTION_INI.replace("center = 0.5 2.5\n", "")
    cfg = _write(tmp_path, "bad.ini", ini)
    proc = _run_cli("action", "--config", cfg, "--out", "-")
    assert proc.returncode == 2
    assert proc.stderr == "config error: missing key 'center' in [metric.h.u]\n"


def test_overflowing_factor_is_a_numerical_failure(tmp_path):
    # u reaches about 10^3 on the box, so e^u leaves the floating-point range
    ini = EPSTEIN_INI.replace("kind = bump\ncenter = 0.5 2.5\nhalfwidth = 0.4 0.4\n"
                              "amplitude = 0.3",
                              "kind = polynomial\ncoeffs = 1 0.5 8 0.3 2.5 3")
    cfg = _write(tmp_path, "big.ini", ini)
    out = tmp_path / "big.csv"
    proc = _run_cli("epstein", "--config", cfg, "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure:")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_conformal_factor_past_exp_max_is_a_numerical_failure(tmp_path, capsys):
    # u = 400 passes 354.891, half the log of the largest double: the pair
    # assembly refuses it by name before any exp, although e^400 is finite
    ini = EPSTEIN_INI.replace("kind = bump\ncenter = 0.5 2.5\nhalfwidth = 0.4 0.4\n"
                              "amplitude = 0.3", "kind = constant\nvalue = 400")
    cfg = _write(tmp_path, "c.ini", ini)
    out = tmp_path / "c.csv"
    assert cli.main(["epstein", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: conformal factor 400 "
                                       "exceeds 354.891: e^w overflows\n")
    assert not out.exists()


def test_fault_in_a_read_jet_component_exits_3(tmp_path, monkeypatch, capsys):
    # a component is built when read, inside main's errstate: a division by
    # zero there is still a numerical failure
    bump_jet = fields.BumpField._jet

    def faulty(self, x, y):
        j = bump_jet(self, x, y)
        return fields.Jet2(j.v, j.vx, j.vy, lambda: j.vxy / np.zeros_like(j.vxy),
                           j.vxx, j.vyy)

    monkeypatch.setattr(fields.BumpField, "_jet", faulty)
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    out = tmp_path / "r.json"
    assert cli.main(["action", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: divide by zero")
    assert not out.exists()


def test_any_other_package_error_exits_3_on_one_line(monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise NotTangent("u is not tangent at p")

    monkeypatch.setattr(cli, "_verify_checks", refused)
    assert cli.main(["verify", "--out", "-"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: u is not tangent at p\n")


@pytest.mark.parametrize("command, ini", [
    pytest.param("epstein", EPSTEIN_INI.replace("box = 0 1 2 3", "box = 0 1 2 1e300"),
                 id="epstein_box_1e300"),
    pytest.param("action", "[metric.g]\nreference = desitter\n[metric.h]\n"
                 "reference = desitter\n[grid]\nbox = 0 1 2 1e300\nlevel = 0\n",
                 id="action_box_1e300"),
])
def test_overflowing_box_is_a_numerical_failure(tmp_path, command, ini):
    # node coordinates near 1e300 overflow the de Sitter factor
    cfg = _write(tmp_path, "big.ini", ini)
    proc = _run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure:")
    assert proc.stderr.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_negative_grid_level_flag_rejected(tmp_path):
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    with pytest.raises(SystemExit) as exc:
        cli.main(["action", "--config", cfg, "--grid-level", "-1", "--out", "-"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["action", "curve"])
def test_huge_grid_level_flag_rejected(tmp_path, capsys, command):
    # refused by the parser itself, so the subcommand never runs; an
    # integer beyond the float range too
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    for level in ("1000000", "1" + "0" * 400):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--config", cfg,
                                           "--grid-level", level])
        assert exc.value.code == 2
        assert "--grid-level" in capsys.readouterr().err


def test_negative_seed_rejected(capsys):
    # refused by the parser, as a negative --grid-level is, before the
    # random generator sees it
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_huge_grid_level_in_the_config_rejected(tmp_path):
    # parse_grid builds the level-0 grid alone, so a missing bound fails at
    # once here instead of refining a million times
    cfg = cli.load_config(_write(tmp_path, "a.ini",
                                 ACTION_INI.replace("level = 1", "level = 1000000")))
    with pytest.raises(ConfigError, match=f"'level' in \\[grid\\]: numbers must "
                                          f"be at most {cli.MAX_LEVEL}"):
        cli.parse_grid(cfg)


def test_grid_level_override_checks_the_node_bound(tmp_path):
    # ACTION_INI's 2 gauss8 cells reach MAX_AXIS_NODES per axis at level 7,
    # the finest grid of the ladder to level 6; only the level-0 grid is built
    cfg = cli.load_config(_write(tmp_path, "a.ini", ACTION_INI))
    grid, level = cli.parse_grid(cfg, 6)
    assert (grid.level, level) == (0, 6)
    assert 2 * 2 ** (level + 1) * 8 == cli.MAX_AXIS_NODES
    with pytest.raises(ConfigError, match=f"needs 4096 nodes per axis, more "
                                          f"than {cli.MAX_AXIS_NODES}"):
        cli.parse_grid(cfg, 7)


def test_node_bound_counts_a_cell_for_every_segment(tmp_path):
    # 400 bumps of halfwidth 0.001, 0.00245 apart, cut each axis into 801
    # segments; none is wide enough for any of the 4 cells of level 1, and
    # each still takes one, so the finest grid has 801 * 8 nodes per axis
    rows = "".join(f"    {c!r} {c + 2.0!r} 0.001 0.001 0.1\n"
                   for c in (0.01 + 0.00245 * i for i in range(400)))
    cfg = cli.load_config(_write(tmp_path, "b.ini", (
        "[metric.h]\n[metric.h.u]\nkind = bumps\nrows =\n" + rows
        + "\n[grid]\nbox = 0 1 2 3\nlevel = 0\nbase_cells = 2\nscheme = gauss8\n")))
    xb, yb = cli.parse_field(cfg, "metric.h.u").break_lines()
    assert (len(xb), len(yb)) == (800, 800)
    with pytest.raises(ConfigError, match=f"at level 0 needs 6408 nodes per axis, "
                                          f"more than {cli.MAX_AXIS_NODES}"):
        cli.parse_grid(cfg, x_breaks=xb, y_breaks=yb)


def test_main_builds_the_parser_once(tmp_path, capsys):
    cli.build_parser.cache_clear()
    cfg = _write(tmp_path, "e.ini", EPSTEIN_INI)
    for name in ("one", "two"):
        assert cli.main(["epstein", "--config", cfg,
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert cli.build_parser.cache_info().misses == 1
    # the shared parser still rejects a bad argv after a good one
    cfg = _write(tmp_path, "a.ini", ACTION_INI)
    with pytest.raises(SystemExit) as exc:
        cli.main(["action", "--config", cfg, "--grid-level", "x", "--out", "-"])
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert cli.build_parser.cache_info().misses == 1


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


# sha256 of the CSV and of its JSON sidecar for EPSTEIN_INI
_EPSTEIN_SHA256 = ("5e84b808305fd312cac7f156b3afaafb62f5ab4ef80360f14519090d3e537438",
                   "8e3ffc66eda02d53f998f9de54de5fd45038fcdf00ab012897966bef4185822d")


def test_epstein_bytes_pinned(tmp_path):
    cfg = _write(tmp_path, "e.ini", EPSTEIN_INI)
    out = tmp_path / "mesh.csv"
    assert cli.main(["epstein", "--config", cfg, "--out", str(out)]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out, tmp_path / "mesh.csv.json"))
    assert got == _EPSTEIN_SHA256


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
    from splitannulus import liouville

    calls = []
    original = liouville.sclass_report

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(liouville, "sclass_report", counted)
    for ini in (CURVE_INI, "[curve]\nfamily = psl3_conic\n"):
        calls.clear()
        cfg = _write(tmp_path, "f.ini", ini)
        assert cli.main(["curve", "--config", cfg, "--grid-level", "0",
                         "--out", str(tmp_path / "c.json")]) == 0
        assert len(calls) == 1


def test_curve_takes_no_jets_of_the_identity(tmp_path, monkeypatch):
    # psi = identity has the factor zero: the curve's conformal factor takes
    # it as the zero field, and UniformizingFactor jets only ever see chi
    maps = []
    original = fields.UniformizingFactor._jet

    def spied(self, x, y):
        maps.append(type(self.phi))
        return original(self, x, y)

    monkeypatch.setattr(fields.UniformizingFactor, "_jet", spied)
    for ini in (CURVE_INI, FOUR_PIECE_INI):
        cfg = _write(tmp_path, "f.ini", ini)
        assert cli.main(["curve", "--config", cfg, "--grid-level", "0",
                         "--out", str(tmp_path / "c.json")]) == 0
    assert maps and fields.IdentityMap not in maps


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
    # these images balance only with a piece so steep (phi' ~ 1e3) that its
    # joins match C^1 to roundoff relative to phi' (<= 4.3e-12), so the map
    # is built; its factor does not decay at the boundary: S-class (exit 4)
    ini = """
[curve]
family = po22
kind = four_piece
breaks = 0.3 0.31 0.32 0.33
images = 0.3 2.0 2.1
"""
    cfg = _write(tmp_path, "h.ini", ini)
    assert cli.main(["curve", "--config", cfg, "--out", "-"]) == 4


_STEEP_PIECES = """
kind = four_piece
breaks = 0.6756239406083674 0.7772601554508983 1.0362615099298516 1.4370452128342062
images = 0.25613863672301246 1.748174632433764 1.815858949334076
skew = 0.23057630488735184
"""


@pytest.mark.parametrize("command, section, code", [
    ("curve", "[curve]\nfamily = po22", 4),
    ("action", "[uniformizing]", 0),
], ids=["curve", "uniformizing"])
def test_steep_pieces_pass_the_relative_c1_check(tmp_path, command, section, code):
    # phi' = 418.7 at the second join, where the one-sided derivatives
    # differ by 7.1e-10 in roundoff: 1.7e-12 relative, so the map is built
    cfg = _write(tmp_path, "s.ini", section + _STEEP_PIECES)
    assert cli.main([command, "--config", cfg, "--out", "-"]) == code


def test_curve_one_piece_map(tmp_path):
    # one Mobius piece on the whole line, cut at 0.3: a circle, action 0
    ini = """
[curve]
family = po22
kind = piecewise
breaks = 0.3
matrices = 1.2 0.3 0.1 0.86
"""
    out = tmp_path / "o.json"
    cfg = _write(tmp_path, "o.ini", ini)
    assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["action"]) <= 1e-12


# C^1 at every join, but the mean phi' is 3: the map winds three times
_TRIPLE_WINDING_INI = """
[curve]
family = po22
kind = piecewise
breaks = 0.3 1.0 1.8 2.5
matrices =
    9.434314324631236 -27.859061957914857 2.5395174255748785 -7.393072872311923
    -24.488590838163695 -6.077415041843659 -6.426879735474653 -1.6358154636674764
    66.43026197616318 15.862555176023388 22.137627468023446 5.301188444870748
    -15.4055748232639 52.44154677850902 -5.144360724153784 17.44681627558319
"""


def test_piecewise_map_winding_three_times_exits_2(tmp_path, capsys):
    # the image arcs of the pieces add up to 3 pi
    cfg = _write(tmp_path, "w.ini", _TRIPLE_WINDING_INI)
    assert cli.main(["curve", "--config", cfg, "--out", "-"]) == 2
    assert "does not wind once around" in capsys.readouterr().err


def test_balanced_four_piece_map_is_built(tmp_path, monkeypatch):
    # the first piece maps onto an arc of length 0.01 and the last onto one
    # of about pi - 3.1: a valid C^1 map, which only the S-class refuses, on
    # its first failing clause, before any torus rule is built
    rules = []
    original = fields.ArcPairRule.__init__

    def counted(self, *args, **kwargs):
        rules.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(fields.ArcPairRule, "__init__", counted)
    ini = "[curve]\nfamily = po22\nkind = four_piece\nimages = 0.3 0.31 3.40\n"
    out = tmp_path / "b.json"
    cfg = _write(tmp_path, "b.ini", ini)
    assert cli.main(["curve", "--config", cfg, "--grid-level", "0",
                     "--out", str(out)]) == 4
    assert rules == []
    rep = json.loads(out.read_text())
    assert rep["family"] == "po22"
    assert rep["sclass_failed_clause"] == "2_boundary_decay"


@pytest.mark.parametrize("command, ini", [("action", ACTION_INI), ("curve", CURVE_INI)],
                         ids=["action", "curve_sineflow"])
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, command, ini):
    # the quadrature sums are numpy's own, not BLAS products, so a report
    # keeps its bytes whether OpenBLAS runs one thread or its default count
    cfg = _write(tmp_path, "b.ini", ini)
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    reports = []
    for environ in ({**default, "OPENBLAS_NUM_THREADS": "1"}, default):
        out = tmp_path / f"r{len(reports)}.json"
        proc = _run_cli(command, "--config", cfg, "--grid-level", "1",
                        "--out", str(out), environ=environ)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_deterministic(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert cli.main(["verify", "--seed", "11", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point_writes_the_report_of_main(tmp_path):
    # `python -m splitannulus.cli` exits with main's code and writes to
    # standard output the bytes that main writes to a file
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
    proc = _run_cli("verify", "--seed", "0", "--out", "-")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_text()


def test_verify_takes_each_action_once(monkeypatch):
    # integrals inside Liouville actions: S(g0, h), its monotone form,
    # S(h, k), S(g0, k), the flat action and the two variational actions,
    # each on the refined grid once
    from splitannulus import liouville

    depth, levels = [0], []
    original = fields.QuadratureGrid.integrate

    def counted(self, *args, **kwargs):
        if depth[0]:
            levels.append(self.level)
        return original(self, *args, **kwargs)

    def nested(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(fields.QuadratureGrid, "integrate", counted)
    for name in ("action", "action_monotone"):
        monkeypatch.setattr(liouville, name, nested(getattr(liouville, name)))
    cli._verify_checks(11)
    assert levels == [1] * 7


def test_verify_reads_one_pair_jet_and_one_w_level(monkeypatch):
    # the four pair-jet checks share one assembly on the 400-point sample,
    # and W = S takes the lens's rule at the grid's level + 1 alone
    from splitannulus import adsgeom, forms

    sizes, levels = [], []
    jets, w_value = adsgeom.IsotropicSurfaceData.jets, forms.w_value

    def counted_jets(self, x, y, t=1.0):
        sizes.append(np.broadcast(x, y).size)
        return jets(self, x, y, t)

    def counted_w_value(lens, grid, *args):
        levels.append(grid.level)
        return w_value(lens, grid, *args)

    def refused(*args, **kwargs):
        raise AssertionError("verify ran the two-level W trail")

    monkeypatch.setattr(adsgeom.IsotropicSurfaceData, "jets", counted_jets)
    monkeypatch.setattr(forms, "w_value", counted_w_value)
    monkeypatch.setattr(forms, "w_volume", refused)
    cli._verify_checks(0)
    assert sizes.count(400) == 1
    assert levels == [1]


def test_verify_check_entries_carry_four_keys():
    for check in cli._verify_checks(0):
        assert set(check) == {"identity", "residual", "tolerance", "pass"}


def test_verify_evaluates_its_pointwise_identities_on_arrays(monkeypatch):
    # the conformal change and the covariance of the d'Alembertian run on
    # the sample's coordinate arrays: no single-point call, no point object
    from splitannulus import lorentz

    def refused(*args, **kwargs):
        raise AssertionError("verify evaluated a single point")

    monkeypatch.setattr(lorentz, "dalembertian", refused)
    monkeypatch.setattr(fields, "AnnulusPoint", refused)
    assert all(c["pass"] for c in cli._verify_checks(0))


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


# float.hex of the residuals that read the shared pair jets, the stacked
# exterior derivative and the one-level W
_VERIFY_RESIDUAL_BITS = {
    0: {
        "fundamental_equation_dbeta": "0x1.0610000000000p-45",
        "fundamental_equation_dalpha": "0x1.8c40000000000p-47",
        "isotropic_relations": "0x1.0000000000000p-44",
        "metric_realization": "0x1.0000000000000p-48",
        "envelope_incidence": "0x1.d000000000000p-49",
        "epstein_contact": "0x1.8000000000000p-43",
        "w_volume_equals_action": "0x1.6600000000000p-48",
    },
    193: {
        "fundamental_equation_dbeta": "0x1.f800000000000p-46",
        "fundamental_equation_dalpha": "0x1.4000000000000p-50",
        "isotropic_relations": "0x1.0000000000000p-44",
        "metric_realization": "0x1.0000000000000p-48",
        "envelope_incidence": "0x1.3000000000000p-49",
        "epstein_contact": "0x1.5000000000000p-42",
        "w_volume_equals_action": "0x1.6600000000000p-48",
    },
}


@pytest.mark.parametrize("seed", sorted(_VERIFY_RESIDUAL_BITS))
def test_verify_residual_bits_pinned(seed):
    checks = {c["identity"]: c for c in cli._verify_checks(seed)}
    pinned = _VERIFY_RESIDUAL_BITS[seed]
    assert {name: checks[name]["residual"].hex() for name in pinned} == pinned
    # seed 193 fails classical_formula alone (ROADMAP item 3)
    failed = {name: c["residual"] for name, c in checks.items() if not c["pass"]}
    assert failed == ({} if seed == 0 else
                      {"classical_formula": 3.051493048911169e-06})


def test_epstein_refuses_standard_output(tmp_path, capsys, monkeypatch):
    # the CSV and its sidecar are two files: `--out -` is a bad config and
    # leaves no file named `-` or `-.json` behind
    cfg = _write(tmp_path, "e.ini", EPSTEIN_INI)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert cli.main(["epstein", "--config", cfg, "--out", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(work.iterdir()) == []


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["action", "--config", str(tmp_path / "nope.ini"),
                     "--out", "-"]) == 2


@pytest.mark.parametrize("command, ini", [
    ("action", ACTION_INI), ("curve", CURVE_INI), ("epstein", EPSTEIN_INI),
], ids=["action", "curve", "epstein"])
def test_undecodable_config_is_config_error(tmp_path, capsys, command, ini):
    # a config is read as UTF-8 whatever the locale: the byte 0xff ended in
    # a UnicodeDecodeError and exit 1, the code of a failed identity
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(ini.encode() + b"\n# \xff\n")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config {cfg}")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_epstein_unwritable_sidecar_leaves_no_csv(tmp_path, capsys):
    # the CSV was written in full before its sidecar was refused
    cfg = _write(tmp_path, "e.ini", EPSTEIN_INI)
    (tmp_path / "d.csv.json").mkdir()
    out = tmp_path / "d.csv"
    assert cli.main(["epstein", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}.json")
    assert not out.exists()
    assert list((tmp_path / "d.csv.json").iterdir()) == []


@pytest.mark.parametrize("command, ini", [
    ("action", ACTION_INI), ("verify", None), ("curve", CURVE_INI),
    ("epstein", EPSTEIN_INI),
], ids=["action", "verify", "curve", "epstein"])
@pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys, command, ini,
                                                  where):
    # exit 1 means a failed identity; a path that cannot be written is a
    # bad config
    out = tmp_path / "nope" / "out.json" if where == "missing_directory" else tmp_path
    args = [command, "--out", str(out)]
    if ini is not None:
        args += ["--config", _write(tmp_path, "c.ini", ini)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}")
    assert err.count("\n") == 1


def test_removed_flags_are_argparse_errors(tmp_path):
    # --seed and --tolerance-scale took no part in these subcommands, and
    # no caller of verify scaled its tolerances
    cfg = _write(tmp_path, "t.ini", ACTION_INI)
    for argv in (["action", "--seed", "0"], ["epstein", "--seed", "0"],
                 ["curve", "--seed", "0"], ["action", "--tolerance-scale", "1"],
                 ["curve", "--tolerance-scale", "1"],
                 ["verify", "--tolerance-scale", "1"]):
        config = [] if argv[0] == "verify" else ["--config", cfg]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + config + ["--out", "-"])
        assert exc.value.code == 2


def test_action_uniformizing_report(tmp_path):
    cfg = _write(tmp_path, "u.ini", UNIFORMIZING_INI)
    out = tmp_path / "uni.json"
    rc = cli.main(["action", "--config", cfg, "--grid-level", "2",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["uniformizing"] is True
    assert abs(rep["values"]["monotone"]) <= 5e-3
    mags = [abs(v) for v in rep["refinement_trail"]]
    assert all(b < a for a, b in zip(mags, mags[1:]))


_UNI_TRAIL = [5.843790334622567e-08, 3.974530080053107e-11,
              -9.558326352632207e-15]
FOUR_PIECE_INI = "[curve]\nfamily = po22\nkind = four_piece\n"
FOUR_PIECE_UNI_INI = "[uniformizing]\nkind = four_piece\n"
_FOUR_PIECE_TRAIL = [0.0018091710293325733, 0.0018091795647295894,
                     0.0018091795649564978]
_FOUR_PIECE_UNI_TRAIL = [-1.2578927933033714e-08, -9.94234515559095e-13,
                         -8.063440738164403e-13]


@pytest.mark.parametrize("command, ini, level, pinned", [
    ("curve", CURVE_INI, 2, {
        "action": 0.00029183083525825305,
        "error_estimate": 5.422358048678966e-11,
        "refinement_trail": [0.00029185128136888054, 0.00029183088948183354,
                             0.00029183083525825305]}),
    ("action", UNIFORMIZING_INI, 1, {
        "values": {"definition": _UNI_TRAIL[1], "monotone": _UNI_TRAIL[1]},
        "error_estimate": 5.839815804542514e-08,
        "refinement_trail": _UNI_TRAIL[:2]}),
    ("action", UNIFORMIZING_INI, 2, {
        "values": {"definition": _UNI_TRAIL[2], "monotone": _UNI_TRAIL[2]},
        "error_estimate": 3.97548591268837e-11,
        "refinement_trail": _UNI_TRAIL}),
    # the four-piece invariant is 1.8091795647e-3 and its uniformizing
    # action 0: from level 1 on the trails sit at roundoff of both
    ("curve", FOUR_PIECE_INI, 0, {
        "action": _FOUR_PIECE_TRAIL[0],
        "error_estimate": _FOUR_PIECE_TRAIL[0],
        "refinement_trail": _FOUR_PIECE_TRAIL[:1]}),
    ("curve", FOUR_PIECE_INI, 1, {
        "action": _FOUR_PIECE_TRAIL[1],
        "error_estimate": 8.535397016127058e-09,
        "refinement_trail": _FOUR_PIECE_TRAIL[:2]}),
    ("curve", FOUR_PIECE_INI, 2, {
        "action": _FOUR_PIECE_TRAIL[2],
        "error_estimate": 2.2690833587080128e-13,
        "refinement_trail": _FOUR_PIECE_TRAIL}),
    ("action", FOUR_PIECE_UNI_INI, 0, {
        "values": {"definition": _FOUR_PIECE_UNI_TRAIL[0],
                   "monotone": _FOUR_PIECE_UNI_TRAIL[0]},
        "error_estimate": abs(_FOUR_PIECE_UNI_TRAIL[0]),
        "refinement_trail": _FOUR_PIECE_UNI_TRAIL[:1]}),
    ("action", FOUR_PIECE_UNI_INI, 1, {
        "values": {"definition": _FOUR_PIECE_UNI_TRAIL[1],
                   "monotone": _FOUR_PIECE_UNI_TRAIL[1]},
        "error_estimate": 1.2577933698518154e-08,
        "refinement_trail": _FOUR_PIECE_UNI_TRAIL[:2]}),
    ("action", FOUR_PIECE_UNI_INI, 2, {
        "values": {"definition": _FOUR_PIECE_UNI_TRAIL[2],
                   "monotone": _FOUR_PIECE_UNI_TRAIL[2]},
        "error_estimate": 1.8789044174265467e-13,
        "refinement_trail": _FOUR_PIECE_UNI_TRAIL}),
], ids=["curve_sineflow", "uniformizing_1", "uniformizing_2",
        "curve_four_piece_0", "curve_four_piece_1", "curve_four_piece_2",
        "uniformizing_four_piece_0", "uniformizing_four_piece_1",
        "uniformizing_four_piece_2"])
def test_torus_trails_pinned(tmp_path, command, ini, level, pinned):
    # report values on the arc-pair rule; sharing one refinement ladder or
    # building the circle map in closed form must not move a bit
    cfg = _write(tmp_path, "t.ini", ini)
    out = tmp_path / "t.json"
    assert cli.main([command, "--config", cfg, "--grid-level", str(level),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert {key: rep[key] for key in pinned} == pinned


def _identity_pieces(section, count):
    breaks = " ".join(repr(math.pi * i / count) for i in range(count))
    return (f"{section}\nkind = piecewise\nbreaks = {breaks}\nmatrices =\n"
            + "    1 0 0 1\n" * count)


@pytest.mark.parametrize("command, section", [
    ("curve", "[curve]\nfamily = po22"), ("action", "[uniformizing]"),
], ids=["curve", "uniformizing"])
def test_many_torus_pieces_refused_before_any_rule(tmp_path, capsys, monkeypatch,
                                                   command, section):
    # 40 arcs of 72 nodes at level 16 would have 2880 nodes per torus axis;
    # no rule may be built
    def refused(*args, **kwargs):
        raise AssertionError("an ArcPairRule was built")

    monkeypatch.setattr(fields.ArcPairRule, "__init__", refused)
    cfg = _write(tmp_path, "p.ini", _identity_pieces(section, 40))
    start = time.perf_counter()
    assert cli.main([command, "--config", cfg, "--grid-level", "16", "--out", "-"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"more than {cli.MAX_TORUS_NODES}" in err


@pytest.mark.parametrize("command, ini, action", [
    ("curve", FOUR_PIECE_INI, (cli.curves, "curve_action")),
    ("action", FOUR_PIECE_UNI_INI, (cli.curves, "uniformizing_action")),
], ids=["curve", "uniformizing"])
def test_four_piece_map_at_the_top_level_is_within_the_torus_bound(
        tmp_path, monkeypatch, command, ini, action):
    # 4 arcs of 72 nodes have 288 nodes per torus axis: the config passes
    # the check and reaches the action, stubbed here
    class Reached(Exception):
        pass

    def reached(*args, levels, **kwargs):
        raise Reached(levels)

    monkeypatch.setattr(*action, reached)
    cfg = _write(tmp_path, "f.ini", ini)
    with pytest.raises(Reached, match=f"^{cli.MAX_LEVEL}$"):
        cli.main([command, "--config", cfg, "--grid-level", str(cli.MAX_LEVEL),
                  "--out", "-"])


# a projective map: no mask sets its factor to zero, so the factor is
# roundoff of either sign all over the torus, and a zero whose sign flipped
# on the way to the density could move the report
MOBIUS_UNI_INI = "[uniformizing]\nkind = mobius\nmatrix = 1.4 0.3 0.2 0.9\n"
_MOBIUS_UNI_TRAIL = [8.90923052311616e-14, -6.939069692334944e-14,
                     -3.02365496582624e-14]
_UNI_REPORT_GRID = {
    UNIFORMIZING_INI: [[0.0, 0.7853981633974483],
                       [0.7853981633974483, 1.5707963267948966],
                       [1.5707963267948966, 3.141592653589793]],
    FOUR_PIECE_UNI_INI: [[0.3, 1.0], [1.0, 1.8], [1.8, 2.5],
                         [2.5, 3.441592653589793]],
}
_UNI_REPORT_GRID[MOBIUS_UNI_INI] = _UNI_REPORT_GRID[UNIFORMIZING_INI]


@pytest.mark.parametrize("ini, trail, error", [
    (UNIFORMIZING_INI, _UNI_TRAIL, 3.97548591268837e-11),
    (FOUR_PIECE_UNI_INI, _FOUR_PIECE_UNI_TRAIL, 1.8789044174265467e-13),
    (MOBIUS_UNI_INI, _MOBIUS_UNI_TRAIL, 3.9154147265087046e-14),
], ids=["sineflow", "four_piece", "mobius"])
def test_uniformizing_report_bytes_pinned(tmp_path, ini, trail, error):
    # the whole level-2 report, byte for byte: its monotone value comes
    # from one jet of the pulled-back factor per node
    cfg = _write(tmp_path, "u.ini", ini)
    out = tmp_path / "u.json"
    assert cli.main(["action", "--config", cfg, "--grid-level", "2",
                     "--out", str(out)]) == 0
    expected = {
        "error_estimate": error,
        "grid": {"arcs": _UNI_REPORT_GRID[ini], "level": 2, "order": 16},
        "refinement_trail": trail,
        "schema_version": 2,
        "subcommand": "action",
        "uniformizing": True,
        "values": {"definition": trail[-1], "monotone": trail[-1]},
    }
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("level", [0, 3])
def test_uniformizing_action_builds_one_rule_per_level(tmp_path, monkeypatch, level):
    # the monotone trail and the definition value share one ladder of rules,
    # and the pullback of the bare de Sitter metric holds no zero factor
    rules, zero_jets = [], []
    init = fields.ArcPairRule.__init__

    def counted(self, *args, **kwargs):
        rules.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fields.ArcPairRule, "__init__", counted)
    for cls in (fields.PullbackField, fields.ConstantField):
        def noted(self, x, y, jet=cls._jet):
            zero_jets.append(type(self).__name__)
            return jet(self, x, y)

        monkeypatch.setattr(cls, "_jet", noted)
    cfg = _write(tmp_path, "u.ini", UNIFORMIZING_INI)
    assert cli.main(["action", "--config", cfg, "--grid-level", str(level),
                     "--out", str(tmp_path / "u.json")]) == 0
    assert (len(rules), zero_jets) == (level + 1, [])


@pytest.mark.parametrize("seed", [30, 65, 75, 103])
def test_verify_seeds_that_once_failed_pass(tmp_path, seed):
    # 30, 75 and 103: their classical_formula residuals exceeded 1e-8 with
    # central differences of the Epstein lift; the exact jets stay below it.
    # 65: every random completion of its frame point was not spacelike
    assert cli.main(["verify", "--seed", str(seed),
                     "--out", str(tmp_path / "v.json")]) == 0


# -- configs built from the schema tables -------------------------------------

# Large magnitudes are drawn too: a factor or a box whose numbers leave the
# floating-point range is a numerical failure (exit 3), not a warning.
_TOKENS = ("0", "1", "2", "3", "8", "-1", "-3", "0.3", "0.5", "2.5", "1.35",
           "400", "-1e3", "1e300", "nan", "inf", "-inf", "abc")


@st.composite
def _bad(draw, good):
    """``good`` with a token replaced, dropped or added, or random rows:
    wrong counts, non-numeric tokens, nan/inf, zero and negative sizes."""
    toks, tok = good.split(), st.sampled_from(_TOKENS)
    op = draw(st.sampled_from(["replace", "drop", "add", "rows"]))
    if op == "replace" and toks:
        toks[draw(st.integers(0, len(toks) - 1))] = draw(tok)
    elif op == "drop" and toks:
        del toks[draw(st.integers(0, len(toks) - 1))]
    elif op == "add":
        toks.insert(draw(st.integers(0, len(toks))), draw(tok))
    else:
        return "\n".join(draw(st.lists(st.lists(tok, max_size=3).map(" ".join),
                                       min_size=1, max_size=3)))
    return " ".join(toks)


# well-formed values, so that a config can fail at one fault, or at none
_GOOD = {
    "value": ["0.2"], "center": ["0.5 2.5"], "halfwidth": ["0.3 0.3"],
    "amplitude": ["0.3"], "power": ["4"], "rows": ["0.5 2.5 0.3 0.3 0.2"],
    "coeffs": ["0.1 0.2"], "support_box": ["0.2 0.8 2.2 2.8"],
    "frequency": ["2"], "matrix": ["1.3 0.2 0.1 0.9"],
    "breaks": ["0.3 1.0 1.8 2.5"], "images": ["0.3 1.35 1.8"], "skew": ["1.5"],
    "matrices": ["1 0 0 1"], "reference": ["desitter", "flat"],
    "coords": ["affine", "angle"], "box": ["0 1 2 3"],
    "level": ["1"], "base_cells": ["4"], "scheme": ["gauss1", "gauss8", "gauss16"],
    "samples": ["4 4"], "tolerance": ["1e-8"],
}


# The value checks of the schema, written out apart from cli's parsers:
# key -> (count, sign), where count is the number of numbers a value holds
# (a tuple: the counts allowed; None: any) and sign a bound on each number.
# The keys of _ROWS hold one row of numbers per nonblank line, at least one.
_CHECKS = {
    "value": (1, None), "center": (2, None), "halfwidth": (2, None),
    "amplitude": (1, None), "power": (1, None), "support_box": (4, None),
    "frequency": (1, None), "matrix": (4, None), "breaks": (4, None),
    "images": ((3, 4), None), "skew": (1, "positive"), "box": (4, None),
    "level": (1, "nonnegative"), "base_cells": (1, "positive"),
    "samples": (2, "positive"), "tolerance": (1, "positive"),
}
_ROWS = {"rows": 5, "coeffs": None, "matrices": 4}
_SIGN = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}


def _numbers_break(tokens, count, sign):
    try:
        vals = [float(t) for t in tokens]
    except ValueError:
        return True
    counts = count if isinstance(count, tuple) else (count,)
    return (not all(map(math.isfinite, vals))
            or (count is not None and len(vals) not in counts)
            or (sign is not None and not all(map(_SIGN[sign], vals))))


def _breaks_a_check(kind, key, text):
    """True if ``text`` is no value of ``key`` in a section of ``kind``: a
    token that is no finite number, a count or sign off the key's check, or
    no row where rows are due."""
    if key in _ROWS:
        rows = [r.split() for r in text.splitlines() if r.strip()]
        return not rows or any(_numbers_break(r, _ROWS[key], None) for r in rows)
    if key not in _CHECKS:
        return False
    count, sign = _CHECKS[key]
    if key == "breaks" and kind == "piecewise":
        count = None  # one break per piece, any number of pieces
    return _numbers_break(text.split(), count, sign)


# Half of the configs aim their one fault at a value check named here,
# (check, [(section role, kind, key) that has it]), so that each check is
# broken on its own in 20 to 45 of the 400 examples; the other half draw the
# fault at random.  The last aim breaks no check: an Epstein box that passes
# its check but reaches 1e300 overflows, a numerical failure.
_AIMS = [
    ("finite", [("field", "bump", "amplitude"), ("field", "bump", "center"),
                ("field", "constant", "value"), ("field", "bumps", "rows"),
                ("field", "polynomial", "support_box"), ("grid", None, "box"),
                ("epstein", None, "tolerance"), ("circle", "sineflow", "amplitude"),
                ("circle", "mobius", "matrix"), ("circle", "four_piece", "images"),
                ("circle", "four_piece", "skew"), ("circle", "piecewise", "breaks")]),
    ("rows", [("field", "bumps", "rows"), ("field", "polynomial", "coeffs"),
              ("circle", "piecewise", "matrices")]),
    ("sign", [("circle", "four_piece", "skew")]),
    ("sign", [("epstein", None, "samples")]),
    ("sign", [("grid", None, "base_cells")]),
    ("count", [("circle", "four_piece", "breaks")]),
    ("count", [("circle", "four_piece", "images")]),
    ("overflow", [("epstein", None, "box")]),
]


@st.composite
def _breaking(draw, check, good):
    """``good`` with ``check`` broken: a non-finite number, no row, a
    number that is not positive, or one number fewer or two more; or, for
    ``overflow``, a valid value whose last number is 1e300."""
    toks = good.split()
    if check == "rows":
        return ""
    if check == "overflow":
        return " ".join(toks[:-1] + ["1e300"])
    if check == "count":
        return " ".join(toks[:-1] if draw(st.booleans()) else toks + toks[-1:] * 2)
    bad = ("nan", "inf", "-inf") if check == "finite" else ("0", "-1", "-3")
    toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(bad))
    return " ".join(toks)


def _ini(sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = " + v.replace("\n", "\n    ") for k, v in items.items()]
    return "\n".join(lines) + "\n"


def _kind(draw, kinds, kind=None, **fixed):
    kind = kind or draw(st.sampled_from(sorted(kinds)))
    return {**fixed, "kind": kind}, kinds[kind][1]


@st.composite
def _configs(draw):
    """A config that is well-formed but for at most one fault, and what it
    must exit with: (2, (section, key)) when the fault is a value that
    breaks a value check of its key, (3, None) for an overflowing box, and
    (None, None) when any exit of the contract will do."""
    aim = draw(st.none() | st.sampled_from(_AIMS))
    role, kind, key = (None,) * 3 if aim is None else draw(st.sampled_from(aim[1]))
    command = draw(st.sampled_from({"circle": ["curve", "action"],
                                    "field": ["action", "epstein"],
                                    "grid": ["action"], "epstein": ["epstein"],
                                    None: ["action", "epstein", "curve"]}[role]))
    layout = {}  # section -> (fixed items, schema table)
    if command == "curve":
        layout["curve"] = (({"family": "psl3_conic"}, {})
                           if role is None and draw(st.booleans())
                           else _kind(draw, cli._CIRCLE_MAPS, kind, family="po22"))
    elif role == "circle" or (role is None and command == "action"
                              and draw(st.booleans())):
        layout["uniformizing"] = _kind(draw, cli._CIRCLE_MAPS, kind)
    else:
        # every metric takes the same items: metrics of an action that
        # differ, or an Epstein surface in angle coords, would be a fault
        metric = {k: draw(st.sampled_from(_GOOD[k][:1] if command == "epstein"
                                          and k == "coords" else _GOOD[k]))
                  for k in cli._METRIC}
        for name in ("g", "h", "k") if command == "action" else ("g",):
            layout[f"metric.{name}"] = (metric, {})
            forced = role == "field" and name == "g"
            if forced or draw(st.booleans()):
                fixed, table = _kind(draw, cli._FIELDS, kind if forced else None)
                layout[f"metric.{name}.u"] = (fixed, {**table,
                                                      "support_box": (None, None)})
        if command == "action":
            layout["grid"] = ({}, cli._GRID)
        else:
            layout["epstein"] = ({}, cli._EPSTEIN)
    sections = {
        name: {**fixed, **{k: draw(st.sampled_from(_GOOD[k]))
                           for k, (_, default) in table.items()
                           if default is cli._REQUIRED or draw(st.booleans())}}
        for name, (fixed, table) in layout.items()}
    if aim is not None:  # every aimed value breaks its check
        name = {"circle": sorted(layout)[0], "field": "metric.g.u",
                "grid": "grid", "epstein": "epstein"}[role]
        sections[name][key] = draw(_breaking(aim[0], _GOOD[key][0]))
        if aim[0] == "overflow":
            assert not _breaks_a_check(kind, key, sections[name][key])
            return command, sections, (3, None)
        assert _breaks_a_check(kind, key, sections[name][key])
        return command, sections, (2, (name, key))
    # the fault: a bad or missing value of a key, an unknown key or a
    # missing section
    name = draw(st.sampled_from(sorted(layout)))
    fixed, table = layout[name]
    key = draw(st.sampled_from(sorted({*fixed, *table})))
    items = sections[name]
    fault = draw(st.sampled_from(["value"] * 4 + ["key", "unknown", "section",
                                                  "none"]))
    if fault == "value":
        items[key] = draw(_bad(items.get(key) or _GOOD[key][0]))
        if _breaks_a_check(items.get("kind"), key, items[key]):
            return command, sections, (2, (name, key))
    elif fault == "key":
        items.pop(key, None)
    elif fault == "unknown":
        items["bogus"] = "1"
    elif fault == "section":
        del sections[name]
    return command, sections, (None, None)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_configs())
def test_generated_configs_exit_by_the_contract(case):
    command, sections, (want, broken) = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "f.ini")
        with open(cfg, "w") as fh:
            fh.write(_ini(sections))
        argv = [command, "--config", cfg, "--out", os.path.join(tmp, "out")]
        if command != "epstein":
            argv += ["--grid-level", "0"]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
                io.StringIO()), warnings.catch_warnings():
            # a numerical failure is an exit code, never a warning
            warnings.simplefilter("error")
            rc = cli.main(argv)
    assert rc in (0, 2, 3, 4) if want is None else rc == want
    assert "Traceback" not in err.getvalue()
    if broken is not None:
        # a value that breaks its key's check is a config error naming both
        name, key = broken
        assert f"for {key!r} in [{name}]" in err.getvalue()


_README_NAME = re.compile(r"\b(cli|fields|forms|liouville|lorentz|adsgeom|curves|errors)"
                          r"((?:\.[A-Za-z_]\w*)+)")


def test_every_package_name_the_readme_quotes_resolves():
    # a renamed constant or function must not leave stale text behind
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    names = {m.group(0): m.groups() for m in _README_NAME.finditer(readme)}
    assert len(names) >= 23
    missing = [name for name, (module, path) in sorted(names.items())
               if functools.reduce(lambda obj, attr: getattr(obj, attr, None),
                                   path[1:].split("."),
                                   importlib.import_module(f"splitannulus.{module}"))
               is None]
    assert missing == []


def _readme_config_rows():
    """{(section or kind, key): (default, constraint)} of README's Config
    keys table, backticks dropped; a blank first cell repeats the one above."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    lines = readme.split("### Config keys")[1].split("| section or kind |")[1]
    rows, label = {}, None
    for line in lines.splitlines()[2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        cells = [c.strip().replace("`", "") for c in line.strip().strip("|").split("|")]
        label = cells[0] or label
        rows[label, cells[1]] = (cells[2], cells[3])
    return rows


def test_readme_config_table_matches_the_schema():
    # README names cli's tables as its source: every key they hold, with
    # its default read back by the key's own parser, and no other key
    rows = _readme_config_rows()
    tables = {"[metric.NAME]": cli._METRIC, "[grid]": cli._GRID,
              "[epstein]": cli._EPSTEIN,
              **{f"field {kind}": table for kind, (_, table) in cli._FIELDS.items()},
              **{f"map {kind}": table for kind, (_, table) in cli._CIRCLE_MAPS.items()}}
    # the keys read outside the tables: a kind key lists the kinds of its table
    kinds = {("[metric.NAME.u]", "kind"): cli._FIELDS,
             ("[curve] (po22), [uniformizing]", "kind"): cli._CIRCLE_MAPS}
    others = {("[metric.NAME.u]", "support_box"), ("[curve]", "family")}
    assert set(rows) == ({(label, key) for label, table in tables.items() for key in table}
                         | set(kinds) | others)
    for label, table in tables.items():
        for key, (parse, default) in table.items():
            text = rows[label, key][0]
            if default is cli._REQUIRED:
                assert text == "required", (label, key)
            else:
                want = list(default) if isinstance(default, tuple) else default
                assert parse(text) == want, (label, key)
    for where, table in kinds.items():
        default, constraint = rows[where]
        assert set(re.findall(r"\w+", constraint)) - {"or"} == set(table), where
        assert default in table, where
