"""Command line interface: config parsing, subcommands, reports.

Subcommands:

    action   Liouville action between configured metrics (2 or 3).
    verify   randomized identity suite; exit 1 on any failed identity.
    epstein  sample an Epstein surface to CSV (+ JSON sidecar).
    curve    crossratio-curve action report (exit 4 on S-class failure).

Configs are INI files with dotted subsections, e.g.

    [metric.g]
    reference = desitter
    [metric.g.u]
    kind = bump
    center = 0.5 2.5
    halfwidth = 0.4 0.4
    amplitude = 0.3

Reports are JSON with a schema_version field; identical configs and
seeds produce byte-identical files (fixed summation order throughout).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import adsgeom, curves, fields, forms, liouville, lorentz
from .errors import ConfigError, NonFiniteDensity, SplitAnnulusError

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()
_SIGNS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}

# The largest requests taken, each refused as a bad config before any
# array is built: a grid level (``[grid] level`` or ``--grid-level``; a
# curve's Gauss order is 8 + 4 * level per arc), the nodes per axis of the
# finest grid of the action's ladder, the nodes per axis of the finest
# torus rule, as ``ArcPairRule.layout`` counts them, and the points of an
# Epstein sample.  Integrands run in blocks of ``fields.BLOCK_NODES``, so
# at these bounds a process peaks (resident set, 2-vCPU x86-64, numpy
# 2.4) near 38 MiB for an action up to a 2048 x 2048 grid, of which the
# interpreter with numpy and the package is about 36 MiB; near 54 MiB for
# a curve of 32 arcs at level 6 (1024 nodes per axis), most of the rest the
# node arrays of its finest rule; and near 67 MiB for a 512 x 512 Epstein
# sample.
MAX_LEVEL = 16
MAX_AXIS_NODES = 2048
MAX_TORUS_NODES = 1024
MAX_SAMPLES = 2 ** 18


def _numbers(count=None, kind=float, sign=None, most=None):
    """Parser of ``count`` (if given) finite numbers, each of ``sign``
    (a key of ``_SIGNS``) and at most ``most`` if given, separated by
    whitespace or commas."""
    def parse(text):
        toks = text.replace(",", " ").split()
        vals = [kind(tok) for tok in toks]
        if count is not None and len(vals) != count:
            raise ValueError(f"expected {count} numbers, got {len(vals)}")
        # checked as floats: an integer beyond the float range reads as inf
        if not all(math.isfinite(float(tok)) for tok in toks):
            raise ValueError("numbers must be finite")
        if sign is not None and not all(map(_SIGNS[sign], vals)):
            raise ValueError(f"numbers must be {sign}")
        if most is not None and not all(v <= most for v in vals):
            raise ValueError(f"numbers must be at most {most}")
        return vals

    return parse


def _number(kind=float, sign=None, most=None):
    parse = _numbers(1, kind, sign, most)

    def number(text):  # the name shows in argparse's messages
        return parse(text)[0]

    return number


def _rows(count=None):
    """Parser of one row of numbers per nonblank line, at least one row."""
    row = _numbers(count)

    def parse(text):
        rows = [row(r) for r in text.splitlines() if r.strip()]
        if not rows:
            raise ValueError("expected at least one row")
        return rows

    return parse


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"must be one of {', '.join(names)}")
        return text

    return parse


def _scheme(text):
    fields.gauss_order(text)  # a ValueError names the accepted range
    return text


def _box(text):
    """Parser of a rectangle x0 x1 y0 y1 with x1 > x0 and y1 > y0."""
    box = _numbers(4)(text)
    if not (box[1] > box[0] and box[3] > box[2]):
        raise ValueError("must be x0 x1 y0 y1 with x1 > x0, y1 > y0")
    if not all(map(math.isfinite, (box[1] - box[0], box[3] - box[2]))):
        raise ValueError("a side x1 - x0 or y1 - y0 overflows")
    return box


def _off_diagonal_box(text):
    """Parser of a box whose points all have x != y."""
    box = _box(text)
    if box[0] <= box[3] and box[2] <= box[1]:
        raise ValueError("must not meet the diagonal x = y")
    return box


def _samples(text):
    """Parser of two positive sample counts with at most MAX_SAMPLES
    points in all."""
    ns = _numbers(2, int, "positive")(text)
    if ns[0] * ns[1] > MAX_SAMPLES:
        raise ValueError(f"{ns[0]} x {ns[1]} samples are more than "
                         f"{MAX_SAMPLES} points")
    return ns


def _images(text):
    """Parser of 3 or 4 four-piece images; a missing fourth is solved for."""
    images = _numbers()(text)
    if len(images) not in (3, 4):
        raise ValueError(f"expected 3 or 4 numbers, got {len(images)}")
    return images + [None] * (4 - len(images))


# The schema: a table maps each key of a section to (parser, default), and
# the keys of a kind follow the arguments of its constructor in order.
# Field sections also take `kind` and `support_box`, circle maps `kind`.
_FIELDS = {
    "zero": (lambda: fields.ConstantField(0.0), {}),
    "constant": (fields.ConstantField, {"value": (_number(), _REQUIRED)}),
    "bump": (fields.bump_field, {
        "center": (_numbers(2), _REQUIRED),
        "halfwidth": (_numbers(2), _REQUIRED),
        "amplitude": (_number(), 1.0),
        "power": (_number(int), 4),
    }),
    "bumps": (lambda rows: sum((fields.bump_field(r[:2], r[2:4], r[4])
                                for r in rows), fields.ConstantField(0.0)),
              {"rows": (_rows(5), _REQUIRED)}),
    "polynomial": (fields.PolynomialField, {"coeffs": (_rows(), _REQUIRED)}),
}
_CIRCLE_MAPS = {
    "sineflow": (fields.SineFlowMap, {"amplitude": (_number(), 0.3),
                                      "frequency": (_number(int), 2)}),
    "mobius": (lambda m: fields.AngleMobiusMap(np.array(m).reshape(2, 2)),
               {"matrix": (_numbers(4), _REQUIRED)}),
    "four_piece": (fields.four_piece_c1_map, {
        "breaks": (_numbers(4), (0.3, 1.0, 1.8, 2.5)),
        "images": (_images, (0.3, 1.35, 1.8, None)),
        "skew": (_number(sign="positive"), 1.5),
    }),
    "piecewise": (lambda breaks, rows: fields.PiecewiseMobiusAngleMap(
        breaks, [np.array(r).reshape(2, 2) for r in rows]),
        {"breaks": (_numbers(), _REQUIRED), "matrices": (_rows(4), _REQUIRED)}),
}
_METRIC = {
    "reference": (_choice(lorentz.FLAT, lorentz.DESITTER), lorentz.DESITTER),
    "coords": (_choice("affine", "angle"), "affine"),
}
_GRID = {
    "box": (_box, (0.0, 1.0, 2.0, 3.0)),
    "level": (_number(int, "nonnegative", MAX_LEVEL), 2),
    "base_cells": (_number(int, "positive"), 2),
    "scheme": (_scheme, "gauss8"),
}
_EPSTEIN = {
    "box": (_off_diagonal_box, (0.0, 1.0, 2.0, 3.0)),
    "samples": (_samples, (32, 32)),
    "tolerance": (_number(sign="positive"), 1e-8),
}


def _read(section, items, table):
    """The values of the keys of ``table`` in ``items``, in table order.

    A key the table does not hold, a missing required key or a value its
    parser rejects is a ConfigError naming section and key.
    """
    unknown = set(items) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in [{section}]")
    values = {}
    for key, (parse, default) in table.items():
        if key not in items and default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        try:
            values[key] = parse(items[key]) if key in items else default
        except ValueError as exc:
            raise ConfigError(f"bad value {items[key]!r} for {key!r} in "
                              f"[{section}]: {exc}")
    return values


def _pick(section, items, kinds, default, key="kind"):
    """The kind that ``key`` names (``default`` if absent) and the other items."""
    rest = dict(items)
    name = rest.pop(key, default)
    if name not in kinds:
        raise ConfigError(f"unknown {key} {name!r} in [{section}]")
    return name, rest


def _build(section, ctor, values):
    """``ctor`` called on ``values``; its ValueError is a ConfigError."""
    try:
        return ctor(*values.values())
    except ValueError as exc:
        raise ConfigError(f"invalid data in [{section}]: {exc}")


def _items(cfg, section):
    if section not in cfg:
        raise ConfigError(f"missing section [{section}]")
    return cfg[section]


def parse_field(cfg, section):
    if section not in cfg:
        return fields.ConstantField(0.0)
    kind, items = _pick(section, cfg[section], _FIELDS, "zero")
    ctor, table = _FIELDS[kind]
    values = _read(section, items, {**table, "support_box": (_box, None)})
    support = values.pop("support_box")
    f = _build(section, ctor, values)
    return f if support is None else fields.ClippedField(f, support)


def parse_metric(cfg, name):
    section = f"metric.{name}"
    kw = _read(section, _items(cfg, section), _METRIC)
    return lorentz.SplitMetric(kw["reference"], parse_field(cfg, f"{section}.u"),
                               coords=kw["coords"])


def parse_grid(cfg, level_override=None, x_breaks=(), y_breaks=()):
    """The level-0 grid of [grid], cut at the break lines, and the level
    that [grid], or ``level_override``, asks for.

    The action refines the grid to one level above that one: an axis of
    more than MAX_AXIS_NODES nodes there, as ``fields.box_grid_nodes``
    counts them (one cell at least per segment), is a ConfigError, raised
    before any array is built.
    """
    kw = _read("grid", _items(cfg, "grid"), _GRID)
    level = kw.pop("level")
    if level_override is not None:
        level = level_override
    kw.update(x_breaks=x_breaks, y_breaks=y_breaks)
    try:
        nodes = max(fields.box_grid_nodes(**kw, level=level + 1))
    except OverflowError:  # more cells than a float can count
        nodes = math.inf
    if nodes > MAX_AXIS_NODES:
        raise ConfigError(f"[grid] with base_cells {kw['base_cells']} and "
                          f"{kw['scheme']} at level {level} needs {nodes} nodes "
                          f"per axis, more than {MAX_AXIS_NODES}")
    return fields.box_grid(**kw), level


def _check_torus(section, breaks, level):
    """A ConfigError if ``ArcPairRule(breaks, level)`` has more than
    MAX_TORUS_NODES nodes per axis."""
    arcs, _, nodes = fields.ArcPairRule.layout(breaks, level)
    if nodes > MAX_TORUS_NODES:
        raise ConfigError(f"[{section}] with {len(arcs)} arcs at level {level} needs "
                          f"{nodes} torus nodes per axis, more than {MAX_TORUS_NODES}")


def parse_curve(cfg):
    family, items = _pick("curve", _items(cfg, "curve"), ("po22", "psl3_conic"),
                          "po22", key="family")
    if family == "psl3_conic":
        _read("curve", items, {})
        return curves.PSL3Conic(coords="angle")
    return curves.PO22Curve(_parse_circle_map("curve", items))


def _parse_circle_map(section, items):
    kind, items = _pick(section, items, _CIRCLE_MAPS, "sineflow")
    ctor, table = _CIRCLE_MAPS[kind]
    return _build(section, ctor, _read(section, items, table))


# the sections some subcommand reads; one file may serve several
_SECTIONS = {*(f"metric.{m}{u}" for m in "ghk" for u in ("", ".u")), "grid",
             "epstein", "curve", "uniformizing"}


def load_config(path):
    """The config at ``path``.  A ConfigError if it cannot be read, or if
    it has a section that no subcommand reads, such as a misspelled one,
    or a factor ``[metric.*.u]`` without its metric: each would otherwise
    be skipped without a word."""
    # values are plain numbers and names: a '%' is a bad value, not the
    # start of an interpolation that fails on read.  No header can name the
    # default section "", so a [DEFAULT] section is an ordinary one, not
    # keys read into every other section
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = cfg.read(path, encoding="utf-8")  # whatever the locale
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    if not read:
        raise ConfigError(f"cannot read config {path}")
    for section in cfg.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]: no subcommand reads it")
        if section.endswith(".u") and section[:-2] not in cfg:
            raise ConfigError(f"section [{section}] without [{section[:-2]}]")
    return cfg


def _open_out(path):
    """``path`` opened for writing; one that cannot be is a config error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def write_report(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with _open_out(out) as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_action(args):
    cfg = load_config(args.config)
    if "uniformizing" in cfg:
        return _cmd_action_uniformizing(cfg, args)
    g = parse_metric(cfg, "g")
    h = parse_metric(cfg, "h")
    k = parse_metric(cfg, "k") if "metric.k" in cfg else None
    for name, m in (("h", h), ("k", k)):
        if m is not None and not m.compatible(g):
            raise ConfigError(f"invalid data in [metric.{name}]: reference "
                              "and coords must be those of [metric.g]")
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "action",
        "values": {},
    }
    # every integrand is smooth off the break lines of the factors, so the
    # grid cells end there
    xb, yb = fields.union_lines(m.u for m in (g, h, k) if m is not None)
    base, top = parse_grid(cfg, args.grid_level, x_breaks=xb, y_breaks=yb)
    # S(g, h) once per level 0..top+1: the value at level lv+1 is the
    # refined value of level lv, so the trail, the definition value, its
    # error estimate and the Chasles term S(g, h) all come from one ladder.
    # The other integrals are taken on the finest grid only.
    grids = [base]
    for _ in range(top + 1):
        grids.append(grids[-1].refine())
    av = liouville.refinement_trail(
        lambda grid: liouville.action(g, h, grid, refine=False).value,
        grids.__getitem__, len(grids))
    fine = grids[-1]
    report["values"]["definition"] = av.value
    report["values"]["monotone"] = liouville.action_monotone(
        g, h, fine, refine=False).value
    report["error_estimate"] = av.error_estimate
    report["refinement_trail"] = av.trail[1:]
    report["grid"] = grids[top].describe()
    if k is not None:
        report["chasles_residual"] = abs(
            av.value
            + liouville.action(h, k, fine, refine=False).value
            - liouville.action(g, k, fine, refine=False).value
        )
    write_report(report, args.out)
    return 0


def _cmd_action_uniformizing(cfg, args):
    """Action between a pulled-back de Sitter metric and g0 on the torus."""
    phi = _parse_circle_map("uniformizing", cfg["uniformizing"])
    level = args.grid_level if args.grid_level is not None else 3
    _check_torus("uniformizing", phi.breakpoints, level)
    av, definition = curves.uniformizing_action(phi, levels=level)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "action",
        "values": {"definition": definition, "monotone": av.value},
        "error_estimate": av.error_estimate,
        "refinement_trail": av.trail,
        "grid": av.rule.describe(),
        "uniformizing": True,
    }
    write_report(report, args.out)
    return 0


def _verify_checks(seed):
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, residual, tol):
        checks.append({
            "identity": name,
            "residual": float(residual),
            "tolerance": float(tol),
            "pass": bool(residual <= tol),
        })

    g0 = lorentz.desitter()
    xs = rng.uniform(0.05, 0.95, 400)
    ys = rng.uniform(2.05, 2.95, 400)
    add("curvature_desitter_anchor",
        np.max(np.abs(lorentz.curvature(g0).K(xs, ys) - 1.0)), 1e-10)

    bump = fields.bump_field((0.5, 2.5), (0.42, 0.42), 0.5)
    add("conformal_change",
        lorentz.conformal_change_residual(g0, bump, xs[:100], ys[:100]), 1e-8)

    f = fields.product_xy()
    w = fields.bump_field((0.4, 2.4), (0.3, 0.3), 0.4)
    x50, y50 = xs[:50], ys[:50]
    add("dalembertian_covariance", np.max(np.abs(
        lorentz.dalembertian_values(g0.scaled_by(w), f, x50, y50)
        - np.exp(-2.0 * w.value(x50, y50))
        * lorentz.dalembertian_values(g0, f, x50, y50))), 1e-10)

    # every action is the refined value of the level-0 rule of the `action`
    # subcommand ([grid]'s default cells and scheme), cut at the bumps'
    # break lines.  One integral on its refinement, and S(g0, h) serves
    # three checks
    u2 = bump + fields.bump_field((0.6, 2.6), (0.3, 0.3), -0.35)
    xb, yb = fields.union_lines((bump, w, u2))
    grid = fields.box_grid((0, 1, 2, 3), 0, base_cells=_GRID["base_cells"][1],
                           scheme=_GRID["scheme"][1], x_breaks=xb, y_breaks=yb)
    fine_grid = grid.refine()
    h = g0.scaled_by(bump)
    s_g0h = liouville.action(g0, h, fine_grid, refine=False).value
    s_mono = liouville.action_monotone(g0, h, fine_grid, refine=False).value
    add("action_formula_equality", abs(s_g0h - s_mono), 1e-12)

    k = g0.scaled_by(w + bump)
    add("chasles",
        abs(s_g0h + liouville.action(h, k, fine_grid, refine=False).value
            - liouville.action(g0, k, fine_grid, refine=False).value), 1e-12)

    gf = lorentz.flat()
    lhs = liouville.action(gf.scaled_by(u2), gf, fine_grid, refine=False).value
    rhs = 0.5 * grid.integrate(lambda x, y: (j := u2.jet(x, y)).vx * j.vy)
    add("flat_closed_form", abs(lhs - rhs), 1e-12)

    add("variational_2d",
        liouville.variational_residual(g0, bump, 1e-3, grid), 1e-12)

    # one assembly of the pair jets on the sample serves the four checks
    data = adsgeom.IsotropicSurfaceData(h)
    pj = data.jets(xs, ys)
    add("isotropic_relations", adsgeom.pair_constraint_residuals(pj), 1e-9)
    add("metric_realization",
        adsgeom.metric_realization_residual(pj, h.bilinear_xy(xs, ys)), 1e-8)
    add("envelope_incidence", adsgeom.envelope_incidence_residual(pj), 1e-9)
    add("epstein_contact",
        adsgeom.frame_constraint_residuals(adsgeom.epstein_frame(pj)), 1e-9)

    r1s, r2s = zip(*(forms.fundamental_equations_residual(rng) for _ in range(8)))
    # an unused draw, so that every check below keeps the sample it drew in
    # schema 1 reports
    rng.integers(0, 2 ** 31)
    add("fundamental_equation_dbeta", max(r1s), 1e-10)
    add("fundamental_equation_dalpha", max(r2s), 1e-10)

    anchor = curves.reference_crossratio()
    add("cocycles_anchor", anchor.cocycle_residuals(rng, 60), 1e-10)
    po22 = curves.PO22Curve(fields.SineFlowMap(0.3, 2)).crossratio()
    add("cocycles_po22", po22.cocycle_residuals(rng, 60), 1e-10)
    conic = curves.PSL3Conic().crossratio()
    add("cocycles_psl3", conic.cocycle_residuals(rng, 60), 1e-10)

    d_full = curves.Diamond(0.0, 1.0, 2.0, 3.0)
    d_a = curves.Diamond(0.0, 0.4, 2.0, 3.0)
    d_b = curves.Diamond(0.4, 1.0, 2.0, 3.0)
    add("diamond_additivity",
        abs(curves.diamond_area(anchor, d_a) + curves.diamond_area(anchor, d_b)
            - curves.diamond_area(anchor, d_full)), 1e-10)
    add("diamond_area_value",
        abs(curves.diamond_area(anchor, d_full) - 2.0 * math.log(4.0 / 3.0)),
        1e-10)

    tanm = fields.tan_chart_map()
    add("schwarzian_decay",
        float(np.max(curves.schwarzian_decay_residual(tanm, np.array([0.2]),
                                                      1e-3))), 1e-4)

    # W on the lens's own rule one level above the grid's: the value that
    # ``w_volume(lens, grid)`` reports, without its coarse level
    lens = forms.LensCobordism(g0.scaled_by(bump), (0, 1, 2, 3))
    wv = forms.w_value(lens, forms.w_grid(lens, grid.level + 1))
    add("w_volume_equals_action", abs(wv - s_g0h), 1e-11)

    sgrid = rng.uniform(0.1, 0.9, 20)
    tgrid = rng.uniform(2.1, 2.9, 20)
    add("classical_formula", forms.classical_formula_residual(
        adsgeom.epstein_lift(data, sgrid, tgrid)), 1e-8)

    rot = adsgeom.random_so_q(rng)
    p = forms.random_ut_point(rng)
    va = forms.random_tangent(rng, p)
    vb = forms.random_tangent(rng, p)
    pr, var, vbr = (np.concatenate([rot @ v[:4], rot @ v[4:]]) for v in (p, va, vb))
    add("so_q_invariance",
        abs(float(forms.alpha2(p, va, vb, check=False))
            - float(forms.alpha2(pr, var, vbr, check=False))), 1e-10)

    return checks


def cmd_verify(args):
    checks = _verify_checks(args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "verify",
        "seed": args.seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    write_report(report, args.out)
    return 0 if report["all_pass"] else 1


def cmd_epstein(args):
    # two files, the CSV and its JSON sidecar, so no standard output
    if args.out == "-":
        raise ConfigError("epstein writes a CSV and a JSON sidecar and cannot "
                          "write to standard output: give --out a file path")
    cfg = load_config(args.config)
    g = parse_metric(cfg, "g")
    if g.coords != "affine":
        raise ConfigError(f"bad value {g.coords!r} for 'coords' in [metric.g]: "
                          "Epstein surfaces use affine coords")
    box, ns, tol = _read("epstein", cfg["epstein"] if "epstein" in cfg else {},
                         _EPSTEIN).values()
    s = np.linspace(box[0], box[1], ns[0])
    t = np.linspace(box[2], box[3], ns[1])
    data = adsgeom.IsotropicSurfaceData(g)
    out = args.out or "epstein.csv"
    total = ns[0] * ns[1]
    res = 0.0  # the largest constraint residual of any block
    fh = _open_out(out)
    try:
        with fh:
            fh.write("s,t,x1,x2,x3,x4,n1,n2,n3,n4\n")
            # the samples in the order of np.ndindex, lifted and written
            # fields.BLOCK_NODES at a time, one row each, as Python floats
            for lo in range(0, total, fields.BLOCK_NODES):
                i, j = np.divmod(np.arange(lo, min(lo + fields.BLOCK_NODES, total)),
                                 ns[1])
                S, T = s[i], t[j]
                frame = adsgeom.epstein_lift(data, S, T)
                res = np.maximum(res, adsgeom.frame_constraint_residuals(frame))
                rows = np.column_stack([S, T, frame.x, frame.n]).tolist()
                fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        res = float(res)
        sidecar = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": "epstein",
            "reference": g.reference,
            "box": box,
            "samples": ns,
            "max_constraint_residual": res,
            "tolerance": tol,
        }
        write_report(sidecar, out + ".json")
    except BaseException:
        os.remove(out)  # a failed lift or sidecar leaves no CSV
        raise
    return 0 if res <= tol else 3


def cmd_curve(args):
    cfg = load_config(args.config)
    curve = parse_curve(cfg)
    level = args.grid_level if args.grid_level is not None else 2
    _check_torus("curve", curve.breakpoints(), level)
    # the action is finite for a factor in the S-class: the check runs
    # first, and the first failing clause ends the run before any rule
    sclass = liouville.sclass_report(curve.circle_metric(), curve.metric())
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "curve",
        "family": curve.family,
    }
    if not sclass.verdict:
        report["sclass_failed_clause"] = next(
            k for k, ok in sclass.clauses.items() if not ok)
        write_report(report, args.out)
        return 4
    av = curves.curve_action(curve, levels=level)
    report["action"] = av.value
    report["error_estimate"] = av.error_estimate
    report["refinement_trail"] = av.trail
    report["sclass"] = dataclasses.asdict(sclass)
    write_report(report, args.out)
    return 0


@functools.cache  # one parser per process: parsing does not change it
def build_parser():
    p = argparse.ArgumentParser(
        prog="splitannulus",
        description="Lorentzian Epstein surfaces, W-volume and Liouville "
                    "action on the split annulus",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("action", help="Liouville action between metrics")
    sp.add_argument("--config", required=True, help="INI config path")
    sp.add_argument("--grid-level", type=_GRID["level"][0], default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_action)

    sp = sub.add_parser("verify", help="run the identity suite")
    sp.add_argument("--seed", type=_number(int, "nonnegative"), default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("epstein", help="sample an Epstein surface to CSV")
    sp.add_argument("--config", required=True, help="INI config path")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_epstein)

    sp = sub.add_parser("curve", help="crossratio-curve action report")
    sp.add_argument("--config", required=True, help="INI config path")
    sp.add_argument("--grid-level", type=_GRID["level"][0], default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_curve)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # an overflow, a division by zero or an invalid operation anywhere
        # in a subcommand is a numerical failure, not a warning and a result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteDensity, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SplitAnnulusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
