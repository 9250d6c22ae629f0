"""Exception types shared across the package."""


class PulselabError(Exception):
    """Base class for all package-specific errors."""


class EigenvalueTooNegative(PulselabError):
    """Covariance eigendecomposition produced an eigenvalue below the clip band."""


class OutOfRangeError(PulselabError):
    """Time argument outside the pulse window [0, tau_p]."""


class CatalogInvalid(PulselabError, ValueError):
    """Pulse catalog failed a validation check (an invalid argument); the
    message names the first failed check."""


class GridMismatch(PulselabError):
    """Time grid does not resolve every switching instant of the pulse."""


class NotFirstOrder(PulselabError, ValueError):
    """Pulse does not satisfy the first-order integral conditions (an invalid argument)."""


class NoFeasiblePoint(PulselabError):
    """Constrained search ended without a pulse that meets its constraints
    within ``pulses.PULSE_TOL``."""


class InsufficientPoints(PulselabError):
    """Too few usable data points for a fit."""
