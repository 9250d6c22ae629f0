"""Independent references that the tests compare the package's routes against.

The package evolves and measures realizations in SU(2) quaternion components,
U = w 1 - i (x sx + y sy + z sz).  These slower, independent routes work on
the matrices themselves: the Pauli matrices, the matrix of a quaternion and
back, the polarized-state trace route of DF^2 and its partials, and the Bloch
rotation that a quaternion applies to a polarization vector.  ``evolve_one``
hands the package's kernel one realization at a time.  ``weighted_fit``
writes out the weighted least squares that ``fit_exponent`` leaves to numpy.
"""

import numpy as np

from pulselab import evolve_ensemble

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: the ideal instantaneous pi rotation about x, exp(-i pi/2 sx) = -i sx
IDEAL_PULSE = -1j * SIGMA_X


def unitary_of_quaternion(w, x, y, z) -> np.ndarray:
    return np.array([[w - 1j * z, -y - 1j * x],
                     [y - 1j * x, w + 1j * z]])


def quaternion_of_unitary(u) -> tuple[float, float, float, float]:
    """(w, x, y, z) of a special-unitary 2x2 matrix, the inverse of the above."""
    return ((u[0, 0] + u[1, 1]).real / 2, -(u[0, 1] + u[1, 0]).imag / 2,
            (u[1, 0] - u[0, 1]).real / 2, (u[1, 1] - u[0, 0]).imag / 2)


def correcting_factor(w, x, y, z) -> np.ndarray:
    """U_c = P^dag U_tot of a total propagator, relative to the ideal pulse P."""
    return IDEAL_PULSE.conj().T @ unitary_of_quaternion(w, x, y, z)


def trace_route(u_correcting) -> tuple[float, tuple[float, float, float]]:
    """DF^2 and its (x, y, z) partials 2[1 - Tr(rho0 U_c rho0 U_c^dag)] from the
    polarized states rho0 = (1 + sigma)/2; DF^2 is the mean of the partials."""
    u = np.asarray(u_correcting, dtype=complex)
    defect = np.abs(u.conj().T @ u - IDENTITY).max()
    if defect > 1e-10:
        raise ValueError(f"U^dag U deviates from identity by {defect:.2e}")
    partials = []
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        rho0 = 0.5 * (IDENTITY + sigma)
        overlap = np.trace(rho0 @ u @ rho0 @ u.conj().T).real
        # exact value is >= 0; round-off can land a hair below zero
        partials.append(max(2.0 * (1.0 - overlap), 0.0))
    return sum(partials) / 3.0, (partials[0], partials[1], partials[2])


def rotate_bloch(r0, w, x, y, z) -> np.ndarray:
    """The Bloch vector of U rho U^dag for a state rho with Bloch vector r0."""
    r0 = np.asarray(r0, dtype=float)
    v = np.array([x, y, z])
    t = 2.0 * np.cross(v, r0)
    return r0 + w * t + np.cross(v, t)


def evolve_one(pulse, grid, eta) -> tuple[float, float, float, float]:
    """Quaternion (w, x, y, z) of U_tot for one realization: eta holds one
    value per step, or one value for every step."""
    block = np.broadcast_to(np.asarray(eta, dtype=float), (grid.n_steps,))[:, None]
    return tuple(c[0] for c in evolve_ensemble(pulse, grid, block))


def weighted_fit(points) -> tuple[float, float, float, float]:
    """(slope, slope_err, intercept, intercept_err) of log10 DF against
    log10(1/v) from (inv_v, mean_df2, stderr_df2) rows, by the weighted sums:
    weights 1/sigma_log^2 from the delta method, and both errors scaled by
    the reduced chi-square chi^2 / (n - 2)."""
    arr = np.array(points, dtype=float)
    lx = np.log10(arr[:, 0])
    ly = np.log10(np.sqrt(arr[:, 1]))
    w = 1.0 / (arr[:, 2] / (2.0 * arr[:, 1] * np.log(10.0))) ** 2
    xm = np.sum(w * lx) / np.sum(w)
    ym = np.sum(w * ly) / np.sum(w)
    sxx = np.sum(w * (lx - xm) ** 2)
    slope = np.sum(w * (lx - xm) * (ly - ym)) / sxx
    intercept = ym - slope * xm
    chi2_red = np.sum(w * (ly - intercept - slope * lx) ** 2) / (len(arr) - 2)
    return (float(slope), float(np.sqrt(chi2_red / sxx)), float(intercept),
            float(np.sqrt(chi2_red * (1.0 / np.sum(w) + xm**2 / sxx))))
