"""Exception types shared across the package."""


class SplitAnnulusError(Exception):
    """Base class for all package errors."""


class DiagonalPoint(SplitAnnulusError):
    """Evaluation requested on the diagonal x = y, which is off the annulus."""


class OutOfChart(SplitAnnulusError):
    """Point lies outside the chart or interval an object is defined on."""


class NonFiniteDensity(SplitAnnulusError):
    """Quadrature node or surface evaluated to NaN or infinity, or would."""


class NotCyclic(SplitAnnulusError):
    """Vertex projections of a polygonal curve fail cyclic ordering."""


class IncompatibleMetrics(SplitAnnulusError):
    """Metrics do not share a reference and coordinates."""


class NotC3(SplitAnnulusError):
    """Circle map does not supply third derivatives."""


class NotC3AtPoint(NotC3):
    """Third derivative requested at a breakpoint of a piecewise map."""


class DegenerateIstar(SplitAnnulusError):
    """First fundamental form at infinity is singular at a point."""


class NotTangent(SplitAnnulusError):
    """Vector fails the tangency constraints of the target manifold."""


class ChartBreakdown(SplitAnnulusError):
    """A projection onto a constraint manifold, or a random draw on one,
    left it: the projected vector has the wrong sign of q, or no draw gave
    a spacelike normal."""


class NotHolonomicBoundary(SplitAnnulusError):
    """Cobordism boundary map violates the contact condition, or is built
    from a conformal factor whose jet is not its derivative."""


class NonCompactDifference(SplitAnnulusError):
    """Cobordism boundary maps differ outside the declared compact box, or
    the conformal factor's jet does not vanish on the edge of that box."""


class CoincidentPoints(SplitAnnulusError):
    """Crossratio arguments are not pairwise distinct."""


class NonPositiveB(SplitAnnulusError):
    """Crossratio value is not positive where a logarithm is required."""


class NonSmoothB(SplitAnnulusError):
    """Crossratio lacks the derivatives needed for a metric density."""


class DegeneratePairing(SplitAnnulusError):
    """Flag-curve pairing vanished off the diagonal."""


class ConfigError(SplitAnnulusError):
    """Run configuration is malformed."""
