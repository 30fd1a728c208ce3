"""The benchmark's span tracer resolves every name it wraps in the package."""

import importlib.util
import pathlib

from splitannulus import fields as F, forms as FM, liouville as LV, lorentz as L

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_tracer_wraps_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()  # looks up every wrapped name
    g0 = L.desitter()
    h = g0.scaled_by(F.bump_field((0.5, 2.5), (0.42, 0.42), 0.35))
    box = (0, 1, 2, 3)
    action_grid = F.box_grid(box, level=0)
    lens = FM.LensCobordism(h, box)
    with tracer.job("probe"):
        # the package called exactly as perfbench/workloads.py calls it, so
        # a cut that drops one of these keywords fails here
        LV.action(g0, h, action_grid, refine=False)
        FM.w_volume(lens, F.box_grid(box, level=0), t_cells=12)
    metrics = tracer.layer_metrics()
    for key in ("liouville.action.calls", "forms.w_volume.s"):
        assert metrics[key] > 0, key
    # one integral on the action grid, one each on the lens's own W rule at
    # levels 0 and 1: the tracer counts every node of the grids, exactly
    grids = (action_grid, FM.w_grid(lens, 0), FM.w_grid(lens, 1))
    assert metrics["fields.integrate.calls"] == len(grids)
    assert metrics["fields.integrate.nodes"] == sum(
        g.x_nodes.size * g.y_nodes.size for g in grids)
