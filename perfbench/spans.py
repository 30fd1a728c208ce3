"""Per-layer spans around the public functions of the splitannulus modules.

The tracer wraps each function at the name it is looked up by: a class
attribute for a method, and for a module-level function its defining
module plus every module that imported it by name (``forms.det4``,
``forms.epstein_lift``, ``curves.sclass_report``, ...).  The wrappers are
installed only around a traced job and removed afterwards, so untraced
jobs run the package unmodified.  Nothing under ``src/`` changes.

A span is ``[id, parent, name, start, end, nodes, useful]``.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from splitannulus import adsgeom, cli, curves, fields, forms, liouville, lorentz

MODULES = (fields, lorentz, liouville, adsgeom, forms, curves, cli)


def _xy_nodes(self, x, y, *rest, **kwargs):
    return np.broadcast(np.asarray(x), np.asarray(y)).size, None


def _leaf_jet_nodes(self, x, y):
    """Nodes a leaf ``ScalarField.jet`` evaluates, and how many of them lie
    inside its support box (the rest are masked to zero afterwards)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nodes = np.broadcast(x, y).size
    if self.support_box is None:
        return nodes, nodes
    x0, x1, y0, y1 = self.support_box
    inside = np.broadcast_to((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1),
                             np.broadcast(x, y).shape)
    return nodes, int(np.count_nonzero(inside))


def _grid_nodes(self, *args, **kwargs):
    return self.W.size, None


def _t_nodes(self, t):
    return np.size(t), None


def _det4_nodes(a, *rest):
    a = np.asarray(a)
    return a.size // a.shape[-1], None


# (layer, module, attribute path, node counter).  Several entries may share
# a layer; the per-layer metrics sum over them.
LAYERS = [
    ("fields.jet", fields, "ScalarField.jet", _leaf_jet_nodes),
    ("fields.jet", fields, "SumField.jet", _xy_nodes),
    ("fields.jet", fields, "ScaledField.jet", _xy_nodes),
    ("fields.integrate", fields, "QuadratureGrid.integrate", _grid_nodes),
    # every grid build: box_grid, torus_grid and QuadratureGrid.refine
    ("fields.grid", fields, "QuadratureGrid.__init__", None),
    ("lorentz.total_factor_jet", lorentz, "SplitMetric.total_factor_jet", _xy_nodes),
    ("lorentz.pointwise", lorentz, "CurvatureReport.K", _xy_nodes),
    ("lorentz.pointwise", lorentz, "CurvatureReport.F_density", _xy_nodes),
    ("lorentz.pointwise", lorentz, "CurvatureReport.consistency_residual", _xy_nodes),
    ("lorentz.pointwise", lorentz, "dalembertian", None),
    ("lorentz.pointwise", lorentz, "dalembertian_values", None),
    ("lorentz.pointwise", lorentz, "conformal_change_residual", None),
    ("liouville.action", liouville, "action", None),
    ("liouville.action", liouville, "action_monotone", None),
    ("liouville.action", liouville, "chasles_residual", None),
    ("liouville.sclass_report", liouville, "sclass_report", None),
    ("adsgeom.base_jets", adsgeom, "_DeSitterBase.jets", _xy_nodes),
    ("adsgeom.base_jets", adsgeom, "_FlatBase.jets", _xy_nodes),
    ("adsgeom.isotropic_jets", adsgeom, "IsotropicSurfaceData.jets", _xy_nodes),
    ("adsgeom.epstein_lift", adsgeom, "epstein_lift", None),
    ("adsgeom.det4", adsgeom, "det4", _det4_nodes),
    ("forms.frame", forms, "LensCobordism.frame", _xy_nodes),
    ("forms.w_volume", forms, "w_volume", None),
    ("forms.fundamental_equations", forms, "fundamental_equations_residual", None),
    ("curves.curve_action", curves, "curve_action", None),
    ("curves.crossratio", curves, "Crossratio.__call__", None),
    ("curves.crossratio", curves, "Crossratio.density", None),
    ("curves.crossratio", curves, "Crossratio.cocycle_residuals", None),
    ("curves.crossratio", curves, "diamond_area", None),
    ("cli.parse", cli, "load_config", None),
    ("cli.parse", cli, "parse_metric", None),
    ("cli.parse", cli, "parse_field", None),
    ("cli.parse", cli, "parse_grid", None),
    ("cli.parse", cli, "parse_curve", None),
    ("cli.parse", cli, "_parse_circle_map", None),
    ("cli.report", cli, "write_report", None),
    ("cli", cli, "main", None),
    ("cli", cli, "cmd_action", None),
    ("cli", cli, "cmd_verify", None),
    ("cli", cli, "cmd_curve", None),
    ("cli", cli, "_verify_checks", None),
] + [
    # every CircleMap.jets override
    ("fields.circle_map", fields, f"{name}.jets", _t_nodes)
    for name, obj in vars(fields).items()
    if isinstance(obj, type) and issubclass(obj, fields.CircleMap)
    and "jets" in obj.__dict__
]

# Layers whose QuadratureGrid.integrate calls count as Liouville integrations.
INTEGRATING_LAYERS = ("liouville.action", "liouville.sclass_report",
                      "curves.curve_action")

JOB = "job"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for _, module, path, counter in LAYERS:
            self._plan(module, path, counter)
        self.layer_of = {f"{m.__name__}.{p}": layer for layer, m, p, _ in LAYERS}

    def _plan(self, module, path, counter):
        if "." in path:
            cls_name, attr = path.split(".")
            owners = [getattr(module, cls_name)]
            original = owners[0].__dict__[attr]
        else:
            attr = path
            original = getattr(module, attr)
            owners = [m for m in MODULES if getattr(m, attr, None) is original]
        wrapper = self._wrapper(f"{module.__name__}.{path}", original, counter)
        for owner in owners:
            self._patches.append((owner, attr, original, wrapper))

    def _wrapper(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nodes, useful = counter(*args, **kwargs) if counter else (0, None)
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   nodes, useful]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    @contextmanager
    def job(self, name):
        """Install the wrappers around one job, under a root ``job`` span."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        rec = [len(self.spans), -1, f"{JOB}:{name}", 0.0, 0.0, 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, nodes, useful in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "nodes": nodes, "useful": useful}) + "\n")

    def layer_metrics(self):
        """Per-job totals by layer, keyed ``<layer>.<stat>``.

        ``calls`` and ``nodes`` count every span of the layer; ``self_s`` is
        span time minus the time of its child spans; ``s`` is inclusive time
        of the outermost spans of the layer (nested calls of the same layer
        are not counted twice).
        """
        spans = self.spans
        layer = [JOB if name.startswith(JOB + ":") else self.layer_of[name]
                 for _, _, name, *_ in spans]
        child_time = [0.0] * len(spans)
        for sid, parent, _, start, end, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {f"{lay}.{stat}": 0.0 for lay, *_ in LAYERS
                 for stat in ("calls", "nodes", "self_s", "s")}
        jobs = job_time = covered = 0.0
        leaf_nodes = useful = liouville_integrations = 0

        for sid, parent, name, start, end, nodes, use in spans:
            dur = end - start
            lay = layer[sid]
            if lay == JOB:
                jobs += 1
                job_time += dur
                covered += child_time[sid]
                continue
            stats[f"{lay}.calls"] += 1
            stats[f"{lay}.nodes"] += nodes
            stats[f"{lay}.self_s"] += dur - child_time[sid]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(layer[p])
                p = spans[p][1]
            if lay not in ancestors:
                stats[f"{lay}.s"] += dur
            if use is not None:
                leaf_nodes += nodes
                useful += use
            if lay == "fields.integrate" and ancestors.intersection(INTEGRATING_LAYERS):
                liouville_integrations += 1
        out = {key: value / jobs for key, value in stats.items()} if jobs else {}
        out["fields.jet.useful_ratio"] = useful / leaf_nodes if leaf_nodes else 0.0
        integrate_nodes = stats["fields.integrate.nodes"]
        out["fields.jet.evals_per_node"] = (leaf_nodes / integrate_nodes
                                            if integrate_nodes else 0.0)
        out["liouville.integrations_per_job"] = (liouville_integrations / jobs
                                                 if jobs else 0.0)
        out["trace.coverage"] = covered / job_time if job_time else 0.0
        return out
