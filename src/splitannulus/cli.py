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
import json
import math
import sys

import numpy as np

from . import adsgeom, curves, fields, forms, liouville, lorentz
from .errors import ConfigError, NonFiniteDensity, SClassFail, SplitAnnulusError

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_FIELD_KEYS = {
    "zero": set(),
    "constant": {"value"},
    "bump": {"center", "halfwidth", "amplitude", "power"},
    "bumps": {"rows"},
    "polynomial": {"coeffs"},
    "support": set(),
}

_METRIC_KEYS = {"reference", "coords", "chart"}
_GRID_KEYS = {"box", "level", "base_cells", "scheme", "band"}
_CURVE_KEYS = {"family", "kind", "amplitude", "frequency", "matrix",
               "breaks", "images", "skew", "matrices"}
_EPSTEIN_KEYS = {"box", "samples", "tolerance"}


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _check_keys(section, items, allowed):
    unknown = set(items) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in [{section}]")


def parse_field(cfg, section):
    if section not in cfg:
        return fields.ConstantField(0.0)
    items = dict(cfg[section])
    kind = items.pop("kind", "zero")
    support = items.pop("support_box", None)
    if kind not in _FIELD_KEYS:
        raise ConfigError(f"unknown field kind {kind!r} in [{section}]")
    _check_keys(section, items, _FIELD_KEYS[kind])
    if kind == "zero":
        f = fields.ConstantField(0.0)
    elif kind == "constant":
        f = fields.ConstantField(float(items["value"]))
    elif kind == "bump":
        f = fields.bump_field(
            _floats(items["center"]),
            _floats(items["halfwidth"]),
            float(items.get("amplitude", 1.0)),
            int(items.get("power", 4)),
        )
    elif kind == "bumps":
        rows = [r for r in items["rows"].strip().splitlines() if r.strip()]
        total = fields.ConstantField(0.0)
        for row in rows:
            cx, cy, hx, hy, amp = _floats(row)
            total = total + fields.bump_field((cx, cy), (hx, hy), amp)
        f = total
    elif kind == "polynomial":
        rows = [
            _floats(r) for r in items["coeffs"].strip().splitlines() if r.strip()
        ]
        f = fields.PolynomialField(rows)
    if support is not None:
        f = fields.with_support_box(f, _floats(support))
    return f


def parse_metric(cfg, name):
    section = f"metric.{name}"
    if section not in cfg:
        raise ConfigError(f"missing section [{section}]")
    items = dict(cfg[section])
    _check_keys(section, items, _METRIC_KEYS)
    ref = items.get("reference", "desitter")
    if ref not in (lorentz.FLAT, lorentz.DESITTER):
        raise ConfigError(f"reference must be flat or desitter, got {ref!r}")
    coords = items.get("coords", "affine")
    u = parse_field(cfg, f"{section}.u")
    return lorentz.SplitMetric(ref, u, chart_id=items.get("chart", "affine"),
                               coords=coords)


def parse_grid(cfg, level_override=None):
    if "grid" not in cfg:
        raise ConfigError("missing section [grid]")
    items = dict(cfg["grid"])
    _check_keys("grid", items, _GRID_KEYS)
    box = _floats(items.get("box", "0 1 2 3"))
    if len(box) != 4 or box[1] <= box[0] or box[3] <= box[2]:
        raise ConfigError("grid box must be x0 x1 y0 y1 with x1>x0, y1>y0")
    level = int(items.get("level", 2)) if level_override is None else level_override
    base = int(items.get("base_cells", 32))
    band = float(items.get("band", 0.0))
    if band < 0:
        raise ConfigError("band must be nonnegative")
    return fields.box_grid(box, level=level, base_cells=base,
                           scheme=items.get("scheme", "gauss2"), band=band)


def parse_curve(cfg):
    if "curve" not in cfg:
        raise ConfigError("missing section [curve]")
    items = dict(cfg["curve"])
    _check_keys("curve", items, _CURVE_KEYS)
    family = items.get("family", "po22")
    if family == "psl3_conic":
        return curves.psl3_conic(coords="angle")
    if family != "po22":
        raise ConfigError(f"unknown curve family {family!r}")
    try:
        return curves.PO22Curve(_parse_circle_map(items))
    except ValueError as exc:
        raise ConfigError(f"invalid curve data: {exc}")


def _parse_circle_map(items):
    kind = items.get("kind", "sineflow")
    if kind == "sineflow":
        phi = fields.SineFlowMap(
            float(items.get("amplitude", 0.3)), int(items.get("frequency", 2))
        )
    elif kind == "mobius":
        m = np.array(_floats(items["matrix"])).reshape(2, 2)
        phi = fields.AngleMobiusMap(m)
    elif kind == "four_piece":
        breaks = _floats(items.get("breaks", "0.3 1.0 1.8 2.5"))
        images = _floats(items.get("images", "0.3 1.35 1.8"))
        if len(images) == 3:
            images = images + [None]
        phi = fields.four_piece_c1_map(breaks, images,
                                       float(items.get("skew", 1.5)))
    elif kind == "piecewise":
        breaks = _floats(items["breaks"])
        rows = [r for r in items["matrices"].strip().splitlines() if r.strip()]
        mats = [np.array(_floats(r)).reshape(2, 2) for r in rows]
        phi = fields.PiecewiseMobiusAngleMap(breaks, mats)
    else:
        raise ConfigError(f"unknown curve kind {kind!r}")
    return phi


def load_config(path):
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    if not read:
        raise ConfigError(f"cannot read config {path}")
    return cfg


def write_report(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_action(args):
    cfg = load_config(args.config)
    if args.tolerance_scale <= 0:
        raise ConfigError("tolerance scale must be positive")
    if "uniformizing" in cfg:
        return _cmd_action_uniformizing(cfg, args)
    g = parse_metric(cfg, "g")
    h = parse_metric(cfg, "h")
    k = parse_metric(cfg, "k") if "metric.k" in cfg else None
    level = args.grid_level
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "action",
        "values": {},
    }
    top = level if level is not None else int(cfg["grid"].get("level", 2))
    # S(g, h) once per level 0..top+1: the value at level lv+1 is the
    # refined value of level lv, so the trail, the definition value, its
    # error estimate and the Chasles term S(g, h) all come from this list.
    # The other integrals are taken on the finest grid only.
    grids = [parse_grid(cfg, level_override=lv) for lv in range(top + 2)]
    values = [liouville.action(g, h, grid, refine=False).value for grid in grids]
    fine = grids[-1]
    report["values"]["definition"] = values[-1]
    report["values"]["monotone"] = liouville.action_monotone(
        g, h, fine, refine=False).value
    report["error_estimate"] = abs(values[-1] - values[-2])
    report["refinement_trail"] = values[1:]
    report["grid"] = grids[top].describe()
    if k is not None:
        report["chasles_residual"] = abs(
            values[-1]
            + liouville.action(h, k, fine, refine=False).value
            - liouville.action(g, k, fine, refine=False).value
        )
    write_report(report, args.out)
    return 0


def _cmd_action_uniformizing(cfg, args):
    """Action between a pulled-back de Sitter metric and g0 on the torus."""
    items = dict(cfg["uniformizing"])
    _check_keys("uniformizing", items, _CURVE_KEYS - {"family"})
    try:
        phi = _parse_circle_map(items)
    except ValueError as exc:
        raise ConfigError(f"invalid map data: {exc}")
    level = args.grid_level if args.grid_level is not None else 3
    av = liouville.uniformizing_action(phi, levels=level)
    av_def = liouville.uniformizing_action(phi, levels=level,
                                           formula="definition")
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "action",
        "values": {"definition": av_def.value, "monotone": av.value},
        "error_estimate": av.error_estimate,
        "refinement_trail": av.trail,
        "grid": av.grid,
        "uniformizing": True,
    }
    write_report(report, args.out)
    return 0


def _verify_checks(seed, tol_scale, sign_flip=False):
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, residual, tol, step=None, order=None):
        entry = {
            "identity": name,
            "residual": float(residual),
            "tolerance": float(tol * tol_scale),
            "pass": bool(residual <= tol * tol_scale),
        }
        if step is not None:
            entry["step"] = float(step)
        if order is not None:
            entry["order_estimate"] = float(order)
        checks.append(entry)

    g0 = lorentz.desitter()
    xs = rng.uniform(0.05, 0.95, 400)
    ys = rng.uniform(2.05, 2.95, 400)
    add("curvature_desitter_anchor",
        np.max(np.abs(lorentz.curvature(g0).K(xs, ys) - 1.0)), 1e-10)

    bump = fields.bump_field((0.5, 2.5), (0.42, 0.42), 0.5)
    pts = [fields.AnnulusPoint(a, b) for a, b in zip(xs[:100], ys[:100])]
    add("conformal_change",
        lorentz.conformal_change_residual(g0, bump, pts), 1e-8)

    f = fields.product_xy()
    w = fields.bump_field((0.4, 2.4), (0.3, 0.3), 0.4)
    gw = g0.scaled_by(w)
    cov = max(
        abs(lorentz.dalembertian(gw, f, p)
            - math.exp(-2.0 * w.value(p.x, p.y)) * lorentz.dalembertian(g0, f, p))
        for p in pts[:50]
    )
    add("dalembertian_covariance", cov, 1e-10)

    grid = fields.box_grid((0, 1, 2, 3), level=2)
    h = g0.scaled_by(bump)
    add("action_formula_equality",
        abs(liouville.action(g0, h, grid).value
            - liouville.action_monotone(g0, h, grid).value), 1e-6)

    k = g0.scaled_by(w + bump)
    add("chasles", liouville.chasles_residual(g0, h, k, grid), 1e-6)

    gf = lorentz.flat()
    u2 = bump + fields.bump_field((0.6, 2.6), (0.3, 0.3), -0.35)
    lhs = liouville.action(gf.scaled_by(u2), gf, grid).value
    rhs = 0.5 * grid.integrate(lambda x, y: u2.dx(x, y) * u2.dy(x, y))
    add("flat_closed_form", abs(lhs - rhs), 1e-6)

    add("variational_2d",
        liouville.variational_residual(g0, bump, 1e-3, grid), 1e-5)

    data = adsgeom.isotropic_from_metric(h)
    add("isotropic_relations", data.constraint_residuals(xs, ys), 1e-9)
    add("metric_realization", data.metric_realization_residual(xs, ys), 1e-8)
    add("envelope_incidence",
        adsgeom.envelope_incidence_residual(data, xs, ys), 1e-9)
    add("epstein_contact",
        adsgeom.frame_constraint_residuals(adsgeom.epstein_lift(data, xs, ys)),
        1e-9)

    r1s, r2s = [], []
    for _ in range(8):
        r1, r2 = forms.fundamental_equations_residual(rng, step=1e-3,
                                                      sign_flip=sign_flip)
        r1s.append(r1)
        r2s.append(r2)
    order_seed = int(rng.integers(0, 2 ** 31))
    coarse = forms.fundamental_equations_residual(
        np.random.default_rng(order_seed), step=2e-3, sign_flip=sign_flip)
    fine = forms.fundamental_equations_residual(
        np.random.default_rng(order_seed), step=1e-3, sign_flip=sign_flip)
    orders = [
        math.log2(c / f) if f > 0 else float("nan")
        for c, f in zip(coarse, fine)
    ]
    add("fundamental_equation_dbeta", max(r1s), 1e-5, step=1e-3,
        order=orders[0])
    add("fundamental_equation_dalpha", max(r2s), 1e-5, step=1e-3,
        order=orders[1])

    anchor = curves.reference_crossratio()
    add("cocycles_anchor", anchor.cocycle_residuals(rng, 60), 1e-10)
    po22 = curves.PO22Curve(fields.SineFlowMap(0.3, 2)).crossratio()
    add("cocycles_po22", po22.cocycle_residuals(rng, 60), 1e-10)
    conic = curves.psl3_conic().crossratio()
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

    lens = forms.LensCobordism(g0.scaled_by(bump), (0, 1, 2, 3))
    wv = forms.w_volume(lens, fields.box_grid((0, 1, 2, 3), level=0), t_cells=6)
    s_val = liouville.action(g0, g0.scaled_by(bump), grid).value
    add("w_volume_equals_action", abs(wv.value - s_val), 1e-3)

    sgrid = rng.uniform(0.1, 0.9, 20)
    tgrid = rng.uniform(2.1, 2.9, 20)
    def x_fn(a, b):
        return adsgeom.epstein_lift(data, a, b).x

    def n_fn(a, b):
        return adsgeom.epstein_lift(data, a, b).n

    add("classical_formula",
        forms.classical_formula_residual(x_fn, n_fn, sgrid, tgrid), 1e-8)

    rot = adsgeom.random_so_q(rng)
    p = forms.random_ut_point(rng)
    va = forms.random_ut_tangent(rng, p)
    vb = forms.random_ut_tangent(rng, p)
    pr = np.concatenate([rot @ p[:4], rot @ p[4:]])
    var = np.concatenate([rot @ va[:4], rot @ va[4:]])
    vbr = np.concatenate([rot @ vb[:4], rot @ vb[4:]])
    add("so_q_invariance",
        abs(forms.alpha2(p, va, vb, check=False)
            - forms.alpha2(pr, var, vbr, check=False)), 1e-10)

    return checks


def cmd_verify(args):
    checks = _verify_checks(args.seed, args.tolerance_scale,
                            sign_flip=args.self_test_sign_flip)
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
    cfg = load_config(args.config)
    g = parse_metric(cfg, "g")
    items = dict(cfg["epstein"]) if "epstein" in cfg else {}
    _check_keys("epstein", items, _EPSTEIN_KEYS)
    box = _floats(items.get("box", "0 1 2 3"))
    if len(box) != 4 or box[1] <= box[0] or box[3] <= box[2]:
        raise ConfigError("epstein box must be x0 x1 y0 y1, nonempty")
    ns = [int(v) for v in items.get("samples", "32 32").split()]
    tol = float(items.get("tolerance", 1e-8))
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    s = np.linspace(box[0], box[1], ns[0])
    t = np.linspace(box[2], box[3], ns[1])
    S, T = np.meshgrid(s, t, indexing="ij")
    data = adsgeom.isotropic_from_metric(g)
    frame = adsgeom.epstein_lift(data, S, T)
    res = adsgeom.frame_constraint_residuals(frame)
    out = args.out or "epstein.csv"
    with open(out, "w") as fh:
        fh.write("s,t,x1,x2,x3,x4,n1,n2,n3,n4\n")
        for idx in np.ndindex(S.shape):
            row = [S[idx], T[idx], *frame.x[idx], *frame.n[idx]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "epstein",
        "chart": g.chart_id,
        "reference": g.reference,
        "box": box,
        "samples": ns,
        "max_constraint_residual": res,
        "tolerance": tol,
    }
    write_report(sidecar, out + ".json")
    return 0 if res <= tol else 3


def cmd_curve(args):
    cfg = load_config(args.config)
    curve = parse_curve(cfg)
    level = args.grid_level if args.grid_level is not None else 2
    try:
        av = curves.curve_action(curve, levels=level)
    except SClassFail as exc:
        report = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": "curve",
            "family": getattr(curve, "family", "unknown"),
            "sclass_failed_clause": exc.clause,
        }
        write_report(report, args.out)
        return 4
    if isinstance(curve, curves.PO22Curve):
        rep = av.sclass
    else:
        g_circle = lorentz.desitter(coords="angle")
        rep = liouville.sclass_report(g_circle, g_circle)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "curve",
        "family": curve.family,
        "action": av.value,
        "error_estimate": av.error_estimate,
        "refinement_trail": av.trail,
        "sclass": {
            "sup_u": rep.sup_u,
            "boundary_decay": rep.boundary_decay,
            "Linf_dal": rep.Linf_dal,
            "L1_dal": rep.L1_dal,
            "vb": rep.vb,
            "clauses": rep.clauses,
            "verdict": rep.verdict,
        },
    }
    write_report(report, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="splitannulus",
        description="Lorentzian Epstein surfaces, W-volume and Liouville "
                    "action on the split annulus",
    )
    sub = p.add_subparsers(dest="command", required=True)
    common = dict(
        config=lambda sp: sp.add_argument("--config", help="INI config path"),
        seed=lambda sp: sp.add_argument("--seed", type=int, default=0),
        out=lambda sp: sp.add_argument("--out", default=None),
        level=lambda sp: sp.add_argument("--grid-level", type=int, default=None),
        tol=lambda sp: sp.add_argument("--tolerance-scale", type=float,
                                       default=1.0),
    )

    sp = sub.add_parser("action", help="Liouville action between metrics")
    for key in ("config", "seed", "out", "level", "tol"):
        common[key](sp)
    sp.set_defaults(fn=cmd_action, needs_config=True)

    sp = sub.add_parser("verify", help="run the identity suite")
    for key in ("seed", "out", "tol"):
        common[key](sp)
    sp.add_argument("--self-test-sign-flip", action="store_true",
                    help="flip a sign in the frame equation to prove the "
                         "suite can fail")
    sp.set_defaults(fn=cmd_verify, needs_config=False)

    sp = sub.add_parser("epstein", help="sample an Epstein surface to CSV")
    for key in ("config", "seed", "out"):
        common[key](sp)
    sp.set_defaults(fn=cmd_epstein, needs_config=True)

    sp = sub.add_parser("curve", help="crossratio-curve action report")
    for key in ("config", "seed", "out", "level", "tol"):
        common[key](sp)
    sp.set_defaults(fn=cmd_curve, needs_config=True)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_config", False) and not args.config:
        parser.error("--config is required for this subcommand")
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteDensity,) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SplitAnnulusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
