"""Frobenius-norm pulse quality measure and Monte-Carlo aggregation.

The quality of a realized pulse is the polarization-averaged Frobenius
distance between ideally and really evolved density matrices,

    DF^2 = (1/3) sum_a Tr(rho_id^a - rho_1^a)^2,   rho_0^a = (1 + sigma_a)/2,

which reduces to per-direction partials (DF^(a))^2 = 2[1 - Tr(rho_id rho_1)]
and, for special-unitary correcting factors, to the rotation-invariant
shortcut DF^2 = (4/3)[1 - (Re Tr U_c / 2)^2].  ``ensemble_frobenius``
evaluates the shortcut and the three partials from the quaternion components
of the total propagators.

For an initial state polarized along y, the final polarization deviation
|<sigma_y> + 1| equals the y-partial (DF^(y))^2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: upper bound of DF^2 (attained when U_c is a pi rotation)
DF2_MAX = 4.0 / 3.0


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean_df2: float
    stderr_df2: float
    mean_df: float   # sqrt(mean_df2), not the mean of DF
    realizations: int


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


def accumulate_values(values: Sequence[float]) -> MonteCarloEstimate:
    """Mean and standard error via exactly-rounded (fsum) summation.

    fsum returns the correctly rounded sum regardless of ordering, so chunked
    or permuted accumulation of the same samples is bit-identical.  The mean
    is held inside [min, max]: the rounded sum of m equal samples over m can
    miss their value by an ulp, which would give them a nonzero spread.
    """
    arr = np.asarray(values, dtype=float)
    m = arr.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    # fsum reads a list of Python floats faster than an array, to the same bits
    mean = min(max(math.fsum(arr.tolist()) / m, float(arr.min())), float(arr.max()))
    var = math.fsum(((arr - mean) ** 2).tolist()) / (m - 1)
    stderr = math.sqrt(var / m)
    return MonteCarloEstimate(mean, stderr, math.sqrt(max(mean, 0.0)), m)
