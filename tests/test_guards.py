"""Every refusal of the package, reached through its public call.

One row per ``raise`` guard that no other test reaches: each names the
input it refuses, and the row checks the named error and its message.
The two abstract ``NotImplementedError`` methods are left out.
"""

import numpy as np
import pytest

from splitannulus import adsgeom as A
from splitannulus import curves as C
from splitannulus import fields as F
from splitannulus import forms as FM
from splitannulus import liouville as LV
from splitannulus import lorentz as L
from splitannulus.errors import (
    ChartBreakdown,
    DegenerateIstar,
    IncompatibleMetrics,
    NotC3,
    NotC3AtPoint,
    NotCyclic,
    NotTangent,
    OutOfChart,
)

P = F.AnnulusPoint


class _KinkedAffineMap(F.CircleMap):
    """An affine-chart map with a declared breakpoint: its breakpoint has
    no preimage on the angle line for a composition to solve."""

    breakpoints = (0.5,)

    def jets(self, t):
        t = np.asarray(t, dtype=float)
        return t, np.ones_like(t), np.zeros_like(t), np.zeros_like(t)


class _ZeroNormals:
    """A generator whose every normal draw is the zero vector, which is
    never spacelike."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def normal(self, size):
        return np.zeros(size)


def _decreasing_map():
    zero = np.zeros_like
    return F.AnalyticChartMap((np.negative, lambda t: -np.ones_like(t), zero, zero))


def _one_piece(*row):
    return F.PiecewiseMobiusAngleMap([0.0], [np.array([row[:2], row[2:]])])


def _off_kernel_beta():
    rng = np.random.default_rng(5)
    f = FM.random_frame_point(rng)
    FM.beta1(f, rng.normal(size=12))


def _theta_index_three():
    rng = np.random.default_rng(5)
    p = FM.random_ut_point(rng)
    u, v = (FM.random_tangent(rng, p) for _ in range(2))
    FM.theta(3, p, u, v)


GUARDS = [
    # adsgeom
    pytest.param(lambda: A.IsotropicSurfaceData(L.desitter(coords="angle")),
                 IncompatibleMetrics, "affine charts", id="isotropic_angle_coords"),
    pytest.param(lambda: A.infinity_forms(
        A.IsotropicSurfaceData(L.desitter().scaled_by(-10.0)),
        np.array([0.5]), np.array([2.5])),
        DegenerateIstar, "singular", id="infinity_forms_singular_istar"),
    # curves
    pytest.param(lambda: C.schwarzian(_decreasing_map(), np.array([0.1, 0.2])),
                 NotC3AtPoint, "positive", id="schwarzian_decreasing_map"),
    pytest.param(lambda: C.PO22Curve(F.tan_chart_map()),
                 NotC3, "angle-coordinate", id="po22_affine_map"),
    # the uniformizing action is the curve action of (phi, phi): the curve
    # refuses the affine map
    pytest.param(lambda: C.uniformizing_action(F.tan_chart_map()),
                 NotC3, "PO\\(2,2\\) curves use angle-coordinate maps",
                 id="uniformizing_affine_map"),
    # fields
    pytest.param(lambda: F.tan_chart_map().jets(np.array([0.0, 1.5])),
                 OutOfChart, "chart interval", id="analytic_map_out_of_chart"),
    pytest.param(lambda: F.SineFlowMap(0.1).compose(F.tan_chart_map()),
                 ValueError, "coordinate system", id="composed_mixed_coords"),
    pytest.param(lambda: _KinkedAffineMap().compose(F.tan_chart_map()),
                 ValueError, "angle line", id="composed_preimage_off_angle_line"),
    # det 1, but |M v|^2 overflows near v = (0, 1)
    pytest.param(lambda: _one_piece(1.0, 1e155, 0.0, 1.0), ValueError,
                 "entry of 1e\\+155, past 1e\\+50: its angle jets would overflow",
                 id="piecewise_piece_jets_overflow"),
    pytest.param(lambda: _one_piece(1.0, np.nan, 0.0, 1.0), ValueError,
                 "entries must be finite", id="piecewise_piece_nan"),
    pytest.param(lambda: _one_piece(np.inf, 0.0, 0.0, 1.0), ValueError,
                 "entries must be finite", id="piecewise_piece_inf"),
    pytest.param(lambda: F.AngleMobiusMap(np.diag([1e200, 1e200])),
                 ValueError, "determinant overflows", id="mobius_determinant_overflows"),
    # det 0 also after the rescaling that a det below the normal range takes
    pytest.param(lambda: F.AngleMobiusMap(np.array([[1.0, 1.0], [1.0, 1.0]])),
                 ValueError, "positive determinant", id="mobius_singular"),
    pytest.param(lambda: F.AngleMobiusMap(np.diag([-1e-200, 1e-200])),
                 ValueError, "positive determinant", id="mobius_tiny_reflection"),
    pytest.param(lambda: F.mobius_through(0.3, 0.3, 1.0, 1.35, -1.0),
                 ValueError, "orientation-reversing", id="mobius_through_reversing"),
    pytest.param(lambda: F.PolygonalCurve((P(0.1, 2.0), P(0.1, 2.5), P(0.5, 2.5))),
                 NotCyclic, "even tuple", id="polygon_odd_tuple"),
    pytest.param(lambda: F.PolygonalCurve((P(0.1, 2.0), P(0.2, 2.5), P(0.5, 2.5),
                                           P(0.5, 2.0))),
                 NotCyclic, "not vertical", id="polygon_not_vertical"),
    pytest.param(lambda: F.PolygonalCurve((P(0.1, 2.0), P(0.1, 2.5), P(0.5, 2.6),
                                           P(0.5, 2.0))),
                 NotCyclic, "not horizontal", id="polygon_not_horizontal"),
    pytest.param(lambda: F.PolygonalCurve((P(0.1, 2.0), P(0.1, 2.5), P(0.5, 2.5),
                                           P(0.5, 2.2), P(0.9, 2.2), P(0.9, 2.0))),
                 NotCyclic, "y-projections", id="polygon_y_not_cyclic"),
    pytest.param(lambda: F.box_grid((1.0, 0.0, 2.0, 3.0)),
                 ValueError, "empty rectangle", id="box_grid_empty_rectangle"),
    # forms
    pytest.param(_theta_index_three, ValueError, "1 or 2", id="theta_index"),
    pytest.param(_off_kernel_beta, NotTangent, "frame tangency",
                 id="beta1_off_the_kernel"),
    pytest.param(lambda: FM.random_ut_point(_ZeroNormals()), ChartBreakdown,
                 "spacelike normal", id="random_ut_point_no_normal"),
    # liouville
    pytest.param(lambda: LV.sclass_report(L.desitter(), L.desitter()),
                 IncompatibleMetrics, "torus metrics", id="sclass_affine_metrics"),
    # lorentz
    pytest.param(lambda: L.SplitMetric("euclidean"), ValueError,
                 "unknown reference", id="unknown_reference"),
    pytest.param(lambda: L.pullback_metric(L.desitter(), F.SineFlowMap(0.1)),
                 IncompatibleMetrics, "different coordinates",
                 id="pullback_mixed_coords"),
    pytest.param(lambda: L.pullback_metric(L.flat(coords="angle"), F.SineFlowMap(0.1)),
                 IncompatibleMetrics, "de Sitter reference", id="pullback_flat_reference"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_refuses_its_input(call, error, message):
    with pytest.raises(error, match=message):
        call()

