"""Frobenius-norm pulse quality measure and Monte-Carlo aggregation.

The quality of a realized pulse is the polarization-averaged Frobenius
distance between ideally and really evolved density matrices,

    DF^2 = (1/3) sum_a Tr(rho_id^a - rho_1^a)^2,   rho_0^a = (1 + sigma_a)/2,

which reduces to per-direction partials (DF^(a))^2 = 2[1 - Tr(rho_id rho_1)]
and, for special-unitary correcting factors, to the rotation-invariant
shortcut DF^2 = (4/3)[1 - (Re Tr U_c / 2)^2].  Both routes are computed and
cross-checked on every call.

For an initial state polarized along y, the final polarization deviation
|<sigma_y> + 1| equals the y-partial (DF^(y))^2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MissingTrajectory, NotUnitary
from .propagator import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, Trajectory

UNITARITY_TOL = 1e-10
IDENTITY_TOL = 1e-12

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
_IDEAL_FINAL = {"x": 1.0, "y": -1.0, "z": -1.0}

#: upper bound of DF^2 (attained when U_c is a pi rotation)
DF2_MAX = 4.0 / 3.0


@dataclass(frozen=True)
class FrobeniusSample:
    """One realization's squared Frobenius norm and its per-direction parts."""

    delta_f_squared: float
    partials: tuple[float, float, float]    # (x, y, z)

    @property
    def delta_f(self) -> float:
        return math.sqrt(self.delta_f_squared)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean_df2: float
    stderr_df2: float
    mean_df: float   # sqrt(mean_df2), not the mean of DF
    realizations: int


def frobenius_from_unitary(u_correcting: np.ndarray) -> FrobeniusSample:
    """Partials from the polarized-state traces; total cross-checked twice.

    Raises NotUnitary if U_c fails unitarity at 1e-10 or if the two
    evaluation routes disagree beyond 1e-12 (which signals a non-special
    unitary, e.g. a stray global phase).
    """
    u = np.asarray(u_correcting, dtype=complex)
    defect = np.abs(u.conj().T @ u - IDENTITY).max()
    if defect > UNITARITY_TOL:
        raise NotUnitary(f"U^dag U deviates from identity by {defect:.2e}")

    partials = []
    for sigma in _PAULIS:
        rho0 = 0.5 * (IDENTITY + sigma)
        overlap = np.trace(rho0 @ u @ rho0 @ u.conj().T).real
        # exact value is >= 0; round-off can land a hair below zero
        partials.append(max(2.0 * (1.0 - overlap), 0.0))
    total = sum(partials) / 3.0

    shortcut = DF2_MAX * (1.0 - (0.5 * np.trace(u).real) ** 2)
    if abs(total - shortcut) > IDENTITY_TOL:
        raise NotUnitary(
            f"trace route ({total:.3e}) and rotation-invariant route "
            f"({shortcut:.3e}) disagree; U_c is not special-unitary"
        )
    return FrobeniusSample(total, (partials[0], partials[1], partials[2]))


def ensemble_frobenius(w, x, y, z) -> dict[str, np.ndarray]:
    """Per-realization metrics from total-propagator quaternion components.

    With U_tot = w 1 - i(x sx + y sy + z sz) and the ideal pulse -i sx, the
    correcting factor has scalar part x, so DF^2 = (4/3)(w^2 + y^2 + z^2)
    free of cancellation even at DF ~ 1e-12.  The partials follow from the
    rotation matrix of the correcting quaternion (x, -w, z, -y).
    """
    df2 = DF2_MAX * (w * w + y * y + z * z)
    return {
        "df2": df2,
        "partial_x": 2.0 * (y * y + z * z),
        "partial_y": 2.0 * (w * w + y * y),
        "partial_z": 2.0 * (w * w + z * z),
    }


def polarization_deviation(trajectory: Trajectory, axis: str = "y"):
    """Final |<sigma_axis> - ideal| plus the in-pulse polarization record.

    The ideal final value after a pi flip about x is +1 for axis x (the
    rotation axis) and -1 for y and z.
    """
    if trajectory is None:
        raise MissingTrajectory("evolution was run without state tracking")
    if axis not in _IDEAL_FINAL:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    expected0 = np.zeros(3)
    expected0["xyz".index(axis)] = 1.0
    if np.abs(trajectory.bloch[0] - expected0).max() > 1e-9:
        raise ValueError(
            f"trajectory does not start polarized along {axis}: {trajectory.bloch[0]}"
        )
    values = trajectory.component(axis)
    final_deviation = abs(values[-1] - _IDEAL_FINAL[axis])
    path = list(zip(trajectory.times.tolist(), values.tolist()))
    return final_deviation, path


def accumulate_values(values: Sequence[float]) -> MonteCarloEstimate:
    """Mean and standard error via exactly-rounded (fsum) summation.

    fsum returns the correctly rounded sum regardless of ordering, so chunked
    or permuted accumulation of the same samples is bit-identical.
    """
    arr = np.asarray(values, dtype=float)
    m = arr.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    mean = math.fsum(arr) / m
    var = math.fsum((arr - mean) ** 2) / (m - 1)
    stderr = math.sqrt(var / m)
    return MonteCarloEstimate(mean, stderr, math.sqrt(max(mean, 0.0)), m)
