"""Exact unitary evolution of a driven two-level system under dephasing noise.

Per step the Hamiltonian eta sigma_z + v sigma_x is constant (midpoint-sampled
noise, piecewise-constant drive), so each step propagator is the closed-form
matrix exponential

    exp(-i dt (eta sz + v sx)) = cos(h dt) 1 - i sin(h dt) (v sx + eta sz)/h,

with h = sqrt(v^2 + eta^2); the full propagator is the time-ordered product
U_tot = U_N ... U_2 U_1 (latest step leftmost).  No further integration error
enters beyond the step-constant noise model itself.

One kernel, ``evolve_ensemble``, evaluates that product for a whole block of
realizations at once in the two complex Cayley-Klein parameters of SU(2),

    U = [[alpha, -i conj(delta)], [-i delta, conj(alpha)]],

alpha = w - i z and delta = x + i y, where U = w 1 - i (x sx + y sy + z sz)
in quaternion components (w, x, y, z); these keep tiny deviations from the
ideal pulse representable without cancellation (Pauly et al., IEEE Trans.
Med. Imaging 10, 53, 1991).  A step is [[a, -i sx], [-i sx, conj(a)]] with
phi = h dt, a = cos(phi) - i sz and (sx, sz) = (v, eta) sin(phi)/h, so its
left product is

    alpha' = a alpha - sx delta,    delta' = conj(a) delta + sx alpha.

Each product is written into a buffer that is neither of its factors, never
in place: numpy's in-place complex multiply of a one-element array takes a
scalar path that rounds differently from the vector loop of every other
width, which would tie a lone realization's result to the size of its block.

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
    realization.  Its rows are read once, in order, so any source with that
    ``shape`` whose iteration yields the rows serves, such as the row tiles
    of ``harness._draws`` as they are drawn.  Returns the quaternion components (w, x, y, z) of U_tot per
    realization, each of shape ``batch``, with U = w 1 - i (x sx + y sy + z sz):
    (Re alpha, Re delta, Im delta, -Im alpha) of its Cayley-Klein parameters.
    A realization's result depends on its own column alone, so a
    (n_steps, C, m) block evolves bit-identically to its C chunks one by one.
    """
    if not grid_is_aligned(pulse, grid):
        raise GridMismatch(f"grid (span {grid.tau_p}) does not resolve every switching "
                           f"instant of {pulse.name} (tau_p {pulse.tau_p})")
    if eta_block.shape[0] != grid.n_steps:
        raise GridMismatch(
            f"noise block has {eta_block.shape[0]} rows for {grid.n_steps} steps")

    # every product goes to a buffer that is neither of its factors, and the
    # three state buffers take turns: the spare one receives alpha', and the
    # one that held alpha, once sx alpha is formed, receives delta'
    alpha, delta, spare, a_bar, sx, product = (
        np.zeros(eta_block.shape[1:], complex) for _ in range(6))
    alpha += 1.0
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
            a_bar.real = _series(p, _COS_SERIES)
            s_over_h = dt * _series(p, _SINC_SERIES)
            if not p.max() <= P_SERIES_MAX:
                big = ~(p <= P_SERIES_MAX)
                h = np.hypot(eta[big], v)
                a_bar.real[big] = np.cos(h * dt)
                s_over_h[big] = np.sin(h * dt) / h
        np.multiply(eta, s_over_h, out=a_bar.imag)      # conj(a) = cos(phi) + i sz
        np.multiply(v, s_over_h, out=sx.real)           # sx is real: its imag stays 0
        np.multiply(np.conjugate(a_bar, out=product), alpha, out=spare)
        spare -= np.multiply(sx, delta, out=product)    # alpha'
        np.multiply(sx, alpha, out=product)
        np.multiply(a_bar, delta, out=alpha)
        alpha += product                                # delta'
        alpha, delta, spare = spare, alpha, delta
    return alpha.real, delta.real, delta.imag, -alpha.imag
