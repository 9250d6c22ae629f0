"""Exact unitary evolution of a driven two-level system under dephasing noise.

Per step the Hamiltonian eta sigma_z + v sigma_x is constant (midpoint-sampled
noise, piecewise-constant drive), so each step propagator is the closed-form
matrix exponential

    exp(-i dt (eta sz + v sx)) = cos(h dt) 1 - i sin(h dt) (v sx + eta sz)/h,

with h = sqrt(v^2 + eta^2); the full propagator is the time-ordered product
U_tot = U_N ... U_2 U_1 (latest step leftmost).  No further integration error
enters beyond the step-constant noise model itself.

One kernel, ``evolve_ensemble``, evaluates that product for a whole block of
realizations at once in SU(2) quaternion components (w, x, y, z) with
U = w 1 - i (x sx + y sy + z sz), which keeps tiny deviations from the ideal
pulse representable without cancellation.

The step needs cos(phi) and sin(phi)/h with phi = h dt.  Both are taken from
p = phi^2 = (eta^2 + v^2) dt^2, with no transcendental call, as the degree-4
Horner series

    cos phi   = 1 - p/2 + p^2/24 - p^3/720 + p^4/40320
    sin phi/h = dt (1 - p/6 + p^2/120 - p^3/5040 + p^4/362880)

wherever p <= P_SERIES_MAX = 0.01 (phi <= 0.1).  The first dropped terms,
p^5/10! <= 2.8e-17 and dt p^5/11! <= 2.6e-18 dt, lie below half an ulp of
the values, so the series is as exact as the trigonometry.  Benchmark and
acceptance grids stay far inside the bound (phi < 0.06).  A realization whose
step phase exceeds the bound takes hypot, cos and sin instead, evaluated for
those realizations alone; there phi > 0.1, so sin(phi)/h needs no guard at
h = 0.  So does one whose p is not finite: a huge eta overflows p to inf,
and a huge drive v on a tiny step dt makes p = inf * 0 = nan, although the
step phase v dt itself is moderate.  The choice is made per
realization, so a realization's result does not depend on the others in its
block.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .noise import TimeGrid
from .pulses import PiecewiseConstantPulse, grid_is_aligned

#: steps whose squared phase p = (h dt)^2 is at most this take the p-series
P_SERIES_MAX = 0.01

#: cos(phi) and sin(phi)/phi to degree 4 in p = phi^2; the first dropped terms,
#: p^5/10! and p^5/11!, are below 2.8e-17 and 2.6e-18 for p <= P_SERIES_MAX
_COS_SERIES = (1.0, -1.0 / 2, 1.0 / 24, -1.0 / 720, 1.0 / 40320)
_SINC_SERIES = (1.0, -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880)


def _series(p: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Horner evaluation of sum_k coeffs[k] p^k."""
    acc = coeffs[-1] * p
    for a in coeffs[-2:0:-1]:
        acc += a
        acc *= p
    acc += coeffs[0]
    return acc


def evolve_ensemble(pulse: PiecewiseConstantPulse, grid: TimeGrid,
                    eta_block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Evolve many realizations at once.

    ``eta_block`` has shape (n_steps, *batch), e.g. (n_steps, m) or
    (n_steps, C, m): row i holds the step-i noise values of every
    realization.  Returns the quaternion components (w, x, y, z) of U_tot per
    realization, each of shape ``batch``, with U = w 1 - i (x sx + y sy + z sz).
    A realization's result depends on its own column alone, so a
    (n_steps, C, m) block evolves bit-identically to its C chunks one by one.
    """
    if not grid_is_aligned(pulse, grid):
        raise GridMismatch(f"grid (span {grid.tau_p}) does not resolve every switching "
                           f"instant of {pulse.name} (tau_p {pulse.tau_p})")
    if eta_block.shape[0] != grid.n_steps:
        raise GridMismatch(
            f"noise block has {eta_block.shape[0]} rows for {grid.n_steps} steps")
    batch = eta_block.shape[1:]

    w = np.ones(batch)
    x = np.zeros(batch)
    y = np.zeros(batch)
    z = np.zeros(batch)
    for eta, v, dt in zip(eta_block, pulse.amplitudes_on(grid.midpoints).tolist(),
                          grid.widths.tolist()):
        # a huge eta overflows p and the series to inf, and a huge v on a
        # tiny dt makes p = inf * 0 = nan, which fails every comparison; the
        # exact route takes both, where h dt may overflow too and its cos and
        # sin become nan, a cell that the fit excludes
        with np.errstate(over="ignore", invalid="ignore"):
            p = eta * eta
            p += v * v
            p *= dt * dt             # the squared step phase (h dt)^2
            c = _series(p, _COS_SERIES)
            s_over_h = dt * _series(p, _SINC_SERIES)
            if not p.max() <= P_SERIES_MAX:
                big = ~(p <= P_SERIES_MAX)
                h = np.hypot(eta[big], v)
                c[big] = np.cos(h * dt)
                s_over_h[big] = np.sin(h * dt) / h
        sx = v * s_over_h
        sz = eta * s_over_h
        # left-multiply by the step quaternion (c, sx, 0, sz)
        w, x, y, z = (c * w - sx * x - sz * z,
                      c * x + sx * w - sz * y,
                      c * y - sx * z + sz * x,
                      c * z + sx * y + sz * w)
    return w, x, y, z
