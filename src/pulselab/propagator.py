"""Exact unitary evolution of a driven two-level system under dephasing noise.

Per step the Hamiltonian eta sigma_z + v sigma_x is constant (midpoint-sampled
noise, piecewise-constant drive), so each step propagator is the closed-form
matrix exponential

    exp(-i dt (eta sz + v sx)) = cos(h dt) 1 - i sin(h dt) (v sx + eta sz)/h,

with h = sqrt(v^2 + eta^2); the full propagator is the time-ordered product
U_tot = U_N ... U_2 U_1 (latest step leftmost).  No further integration error
enters beyond the step-constant noise model itself.

One kernel, ``_step_product``, evaluates that product for m realizations at
once in SU(2) quaternion components (w, x, y, z) with
U = w 1 - i (x sx + y sy + z sz), which keeps tiny deviations from the ideal
pulse representable without cancellation.  ``evolve_ensemble`` returns its
final quaternions; ``evolve`` is its m = 1 case and can also record the Bloch
vector of a given initial state after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import GridMismatch
from .noise import NoiseRealization, TimeGrid
from .pulses import PiecewiseConstantPulse, grid_is_aligned

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: below this phase the sin/cos of the step rotation switch to series
SMALL_PHASE = 1e-8


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Bloch vector of the evolved state after every step (and at t=0)."""

    times: np.ndarray          # (N+1,)
    bloch: np.ndarray          # (N+1, 3)

    def component(self, axis: str) -> np.ndarray:
        return self.bloch[:, "xyz".index(axis)]


@dataclass(frozen=True, eq=False)
class UnitaryResult:
    u_total: np.ndarray
    u_correcting: np.ndarray
    trajectory: Optional[Trajectory] = None


def ideal_pulse() -> np.ndarray:
    """Instantaneous pi rotation about x: exp(-i pi/2 sx) = -i sx."""
    return -1j * SIGMA_X.copy()


def _step_product(pulse: PiecewiseConstantPulse, grid: TimeGrid,
                  eta_block: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Quaternions (w, x, y, z) of the partial products, at t=0 and after each step.

    ``eta_block`` has shape (n_steps, m): row i holds the step-i noise values
    of all m realizations.
    """
    if not grid_is_aligned(pulse, grid):
        raise GridMismatch(
            f"grid (span {grid.tau_p}) does not resolve every switching "
            f"instant of {pulse.name} (tau_p {pulse.tau_p})"
        )
    if eta_block.shape[0] != grid.n_steps:
        raise GridMismatch(
            f"noise block has {eta_block.shape[0]} rows for {grid.n_steps} steps")
    m = eta_block.shape[1]
    v_mid = pulse.amplitudes_on(grid.midpoints)
    widths = grid.widths

    w = np.ones(m)
    x = np.zeros(m)
    y = np.zeros(m)
    z = np.zeros(m)
    yield w, x, y, z
    for i in range(grid.n_steps):
        eta = eta_block[i]
        v = v_mid[i]
        dt = widths[i]
        h = np.hypot(eta, v)
        phase = h * dt
        c = np.cos(phase)
        small = phase < SMALL_PHASE
        if np.any(small):
            s_over_h = np.where(
                small,
                dt * (1.0 - phase * phase / 6.0),
                np.sin(phase) / np.where(h == 0.0, 1.0, h),
            )
        else:
            s_over_h = np.sin(phase) / h
        sx = v * s_over_h
        sz = eta * s_over_h
        # left-multiply by the step quaternion (c, sx, 0, sz)
        w, x, y, z = (c * w - sx * x - sz * z,
                      c * x + sx * w - sz * y,
                      c * y - sx * z + sz * x,
                      c * z + sx * y + sz * w)
        yield w, x, y, z


def evolve_ensemble(pulse: PiecewiseConstantPulse, grid: TimeGrid,
                    eta_block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Evolve many realizations at once.

    ``eta_block`` has shape (n_steps, m): row i holds the step-i noise values
    of all m realizations.  Returns the quaternion components (w, x, y, z) of
    U_tot per realization, with U = w 1 - i (x sx + y sy + z sz).
    """
    for q in _step_product(pulse, grid, eta_block):
        pass
    return q


def evolve(pulse: PiecewiseConstantPulse, noise: NoiseRealization,
           initial_bloch=None) -> UnitaryResult:
    """Evolve one noise realization through the pulse.

    Returns the total propagator, the correcting factor P^dag U_tot relative
    to the ideal instantaneous pulse, and (when ``initial_bloch`` is given)
    the Bloch-vector trajectory of that initial state after every step.
    """
    grid = noise.grid
    steps = _step_product(pulse, grid, noise.values[:, None])
    quats = np.array(list(steps))[:, :, 0]           # (N+1, 4)
    u_total = unitary_of_quaternion(*quats[-1])
    trajectory = None
    if initial_bloch is not None:
        r0 = np.asarray(initial_bloch, dtype=float)
        # U rho U^dag rotates r0 by the quaternion: r0 + w t + v x t, t = 2 v x r0
        w, v = quats[:, :1], quats[:, 1:]
        t = 2.0 * np.cross(v, r0)
        trajectory = Trajectory(grid.boundaries.copy(), r0 + w * t + np.cross(v, t))
    return UnitaryResult(u_total, ideal_pulse().conj().T @ u_total, trajectory)


def unitary_of_quaternion(w, x, y, z) -> np.ndarray:
    return np.array([[w - 1j * z, -y - 1j * x],
                     [y - 1j * x, w + 1j * z]])
