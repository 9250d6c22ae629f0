"""Exception types shared across the package."""


class PulselabError(Exception):
    """Base class for all package-specific errors."""


class EigenvalueTooNegative(PulselabError):
    """Covariance eigendecomposition produced an eigenvalue below the clip band."""


class OutOfRangeError(PulselabError):
    """Time argument outside the pulse window [0, tau_p]."""


class CatalogInvalid(PulselabError):
    """Pulse catalog failed one or more validation checks."""

    def __init__(self, report):
        self.report = report
        super().__init__("catalog validation failed:\n" + str(report))


class GridMismatch(PulselabError):
    """Time grid does not resolve every switching instant of the pulse."""


class NotUnitary(PulselabError):
    """Matrix failed the unitarity (or special-unitarity) tolerance."""


class MissingTrajectory(PulselabError):
    """State trajectory was not recorded for this evolution."""


class NotFirstOrder(PulselabError, ValueError):
    """Pulse does not satisfy the first-order integral conditions (an invalid argument)."""


class NoFeasiblePoint(PulselabError):
    """Constrained search ended without a constraint-satisfying pulse."""


class InsufficientPoints(PulselabError):
    """Too few usable data points for a fit."""
