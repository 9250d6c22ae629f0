"""Magnus-expansion quantities for shaped pulses under dephasing noise.

Leading contributions to the noise-averaged squared Frobenius norm:

    I_1   = g0^2 ([int cos psi]^2 + [int sin psi]^2)          ~ tau_p^2
    I_3/2 = -a int int |t1-t2| cos[psi(t1)-psi(t2)] dt1 dt2    ~ tau_p^3

where a is the |t|-cusp coefficient of the autocorrelation (zero for analytic
models).  I_1 vanishes for first-order pulses; I_3/2 cannot be nulled as well:
the kernel identity A = (tau_p C - B^dag B)/2 (A: |t1-t2|, B: sgn(t1-t2), C:
constant kernel) holds for any pulse and gives, in fraction units with
F(x) = int_0^x e^{i psi},

    K = I_3/2 / (a tau_p^3) = 1/2 int_0^1 |2F(x) - F(1)|^2 dx - 1/2 |F(1)|^2,

which is manifestly positive once S = C = 0 (F(1) = 0), since B annihilates
no nonzero function.  K, the first moments and the ordered sine integral are
tau_p scalings of one pass over the (edges, amplitudes) layout of ``pulses``.
verify_nogo checks the operator identity on a discretized grid, applying A
and B as ordered (prefix) sums in O(N) memory; minimize_i32 searches for the
attainable minimum of the exact K with SLSQP, nested over the segment count,
reading each point's layout straight from its parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from .errors import NoFeasiblePoint
from .noise import MAX_DENSE_N, AutocorrelationModel, _stream_generator
from .pulses import (PULSE_TOL, PiecewiseConstantPulse, PulseSegment, _layout,
                     _pi_pulse_residuals, _require_first_order, _shape_sums,
                     first_order_integrals, load_catalog)

DEFAULT_V_MAX_TAUP = 4.0 * math.pi


# Two forwarding names that load scipy on call, kept only because the benchmark
# tracer wraps magnus.quad and magnus.least_squares; nothing here calls them.
def quad(*args, **kwargs):  # deleted with its tracer span, ROADMAP item 1
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def least_squares(*args, **kwargs):  # deleted with its tracer span, ROADMAP item 1
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


@dataclass(frozen=True)
class NoGoReport:
    grid_n: int
    dt: float
    quad_a_cos: float        # <cos psi|A|cos psi>
    quad_a_sin: float        # <sin psi|A|sin psi>
    b_norm_cos: float        # ||B cos psi||^2
    b_norm_sin: float        # ||B sin psi||^2
    identity_residual: float  # max |A - (tau C - B^dag B)/2| in kernel units
    i32_kernel: float        # I_3/2 / a via the B-norm route
    i32_discrete: Optional[float] = None  # with the model's cusp coefficient


# -- shape moments (closed forms, fraction units scaled by tau_p powers) -------


def first_moment_integrals(pulse: PiecewiseConstantPulse) -> tuple[float, float]:
    """(int t sin psi dt, int t cos psi dt); vanish for the time-dependent
    second-order condition set, but not for every advertised-order-2 shape."""
    moment = _shape_sums(*_layout(pulse.segments))[2]
    return moment.imag * pulse.tau_p**2, moment.real * pulse.tau_p**2


def ordered_sine_integral(pulse: PiecewiseConstantPulse) -> float:
    """Closed form of int_0^tau dt1 int_0^t1 dt2 sin[psi(t1) - psi(t2)].

    This is the static-noise coefficient of the second Magnus term; it
    vanishes for second-order shapes but not for first-order ones.
    """
    return _shape_sums(*_layout(pulse.segments))[3] * pulse.tau_p**2


# -- anomalous integrals -------------------------------------------------------


def evaluate_i1(pulse: PiecewiseConstantPulse, g0: float = 1.0) -> float:
    """I_1 = g0^2 (S^2 + C^2) from the closed-form segment integrals."""
    s_val, c_val = first_order_integrals(pulse)
    return g0 * g0 * (s_val * s_val + c_val * c_val)


@lru_cache(maxsize=256)
def _i32_shape_kernel(segments: tuple[PulseSegment, ...]) -> float:
    """K = -int int |x1-x2| cos[psi(x1)-psi(x2)] over the unit square.

    Closed form 1/2 int_0^1 |2F - F(1)|^2 - 1/2 |F(1)|^2, summed per segment
    by ``pulses._shape_sums``.  I_3/2 of a concrete pulse is a * K * tau_p^3.
    """
    return _shape_sums(*_layout(segments))[4]


def evaluate_i32(pulse: PiecewiseConstantPulse, model: AutocorrelationModel) -> float:
    """I_3/2 = -a int int |t1-t2| cos[psi(t1)-psi(t2)] = a K tau_p^3, exact.

    K is the closed-form shape kernel of the module docstring, cached per
    segment tuple; zero when a = 0.
    """
    a = model.cusp_coefficient
    if a == 0.0:
        return 0.0
    return a * _i32_shape_kernel(pulse.segments) * pulse.tau_p**3


# -- no-go verification --------------------------------------------------------


def _ordered_sums(f: np.ndarray) -> np.ndarray:
    """sums[i] = sum_{j<i} f_j: the ordered sum t_j < t_i on an increasing grid."""
    return np.concatenate([[0.0], np.cumsum(f)[:-1]])


def verify_nogo(pulse: PiecewiseConstantPulse, grid_n: int,
                model: Optional[AutocorrelationModel] = None) -> NoGoReport:
    """Discretize the kernel operators and check the positivity argument.

    The kernels A_ij = |t_i - t_j| and B_ij = sgn(t_i - t_j) act by ordered
    sums, one dt factor each, with no N x N array: A f = t B f - B(t f) and
    B f = 2 sum_{j<i} f_j + f - sum f.  The identity residual is dt/2, O(dt).
    """
    if not 2 <= grid_n <= MAX_DENSE_N:
        raise ValueError(f"grid_n must lie in [2, {MAX_DENSE_N}]")
    _require_first_order(pulse)

    tau = pulse.tau_p
    dt = tau / grid_n
    mids = (np.arange(grid_n) + 0.5) * dt
    phase = np.exp(1j * pulse.angles_on(mids))   # cos psi + i sin psi

    def b_op(f):
        return 2.0 * _ordered_sums(f) + f - f.sum()

    b_phase = b_op(phase) * dt
    a_phase = mids * b_op(phase) - b_op(mids * phase)   # A f = t B f - B(t f)
    b_norm_cos = float(b_phase.real @ b_phase.real) * dt
    b_norm_sin = float(b_phase.imag @ b_phase.imag) * dt
    quad_a_cos = float(phase.real @ a_phase.real) * dt * dt
    quad_a_sin = float(phase.imag @ a_phase.imag) * dt * dt
    residual = max(np.abs(np.abs(mids - t) - 0.5 * (tau + b_op(np.sign(mids - t)) * dt)).max()
                   for t in mids)   # row i of B^dag B is -B(B e_i), B e_i = sgn(t - t_i)

    i32_kernel = 0.5 * (b_norm_cos + b_norm_sin)
    return NoGoReport(
        grid_n=grid_n,
        dt=dt,
        quad_a_cos=quad_a_cos,
        quad_a_sin=quad_a_sin,
        b_norm_cos=b_norm_cos,
        b_norm_sin=b_norm_sin,
        identity_residual=float(residual),
        i32_kernel=i32_kernel,
        i32_discrete=None if model is None else model.cusp_coefficient * i32_kernel,
    )


# -- constrained minimization of I_3/2 -----------------------------------------

#: smallest segment width of a designed pulse, in fractions of tau_p
MIN_GAP = 5e-3
#: most segments of a designed pulse; the nested search's time grows steeply
#: with the count (at budget 50, 1 restart and one BLAS thread on a 2-vCPU
#: machine: 16 segments 1.1 s, 32 segments 7.6 s)
MAX_SEGMENTS = 32
#: catalog pi-pulses that satisfy the constraints and start the 3-segment search
_SEED_SHAPES = ("CORPSE", "SCORPSE")


def _params_of(pulse: PiecewiseConstantPulse) -> np.ndarray:
    """theta = (segment widths, amplitudes) of a pulse."""
    edges, amps = _layout(pulse.segments)
    return np.concatenate([np.diff(edges), amps])


def _layout_of_params(theta: list[float]) -> tuple[list[float], list[float], float]:
    """The (edges, amplitudes) of theta = (n widths, n amplitudes), and sum(w).

    The edges are the running sums of w over sum(w), so any positive widths
    tile [0, 1], whether or not they add up to 1.  sum(w) is the last running
    sum: left to right, as numpy sums fewer than 8 floats (from 8 on its sum
    is pairwise), and as the built-in ``sum`` does before Python 3.12.
    """
    n = len(theta) // 2
    sums = list(accumulate(theta[:n]))
    return [0.0, *(s / sums[-1] for s in sums[:-1]), 1.0], theta[n:], sums[-1]


def _search_box(n: int, v_max_taup: float) -> tuple[list[float], list[float]]:
    """theta's bounds at n segments: widths in [MIN_GAP, 1], amplitudes in
    [-v_max_taup, v_max_taup]."""
    return [MIN_GAP] * n + [-v_max_taup] * n, [1.0] * n + [v_max_taup] * n


def _kernel_and_constraints(theta: list[float]) -> tuple[float, tuple[float, ...]]:
    """K and the equality constraints (psi(1) - pi, S, C, sum(w) - 1) at theta."""
    edges, amps, width_sum = _layout_of_params(theta)
    sums = _shape_sums(edges, amps)
    return sums[4], (*_pi_pulse_residuals(sums), width_sum - 1.0)


#: the absolute finite-difference step of scipy's SLSQP, sqrt(machine epsilon)
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _forward_differences(theta: list[float], k0: float, c0: tuple[float, ...],
                         lo: list[float], hi: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """K's gradient and the constraints' 4 x n Jacobian at theta, from one pass
    over its coordinates; k0 and c0 are K and the constraints at theta.

    The rule is scipy 1.17's ``approx_derivative`` ('2-point', absolute step
    _FD_STEP, bounds [lo, hi]), which ``minimize(method="SLSQP")`` applies
    when given no ``jac``, step for step, so SLSQP sees the same arrays to the
    bit: a step lost in x's rounding becomes _FD_STEP * sign(x) * max(1, |x|);
    a step that leaves [lo, hi] is taken backwards when that fits, and one
    that fits neither way goes to the farther bound; the quotient's
    denominator is (x + h) - x.  Both arrays are C-contiguous: SLSQP
    misreads a strided one.
    """
    grad, columns = [], []
    for i, (x, lower, upper) in enumerate(zip(theta, lo, hi)):
        h = _FD_STEP
        if (x + h) - x == 0.0:
            h = _FD_STEP * (1.0 if x >= 0.0 else -1.0) * max(1.0, abs(x))
        below, above = x - lower, upper - x
        if abs(h) > max(below, above):
            h = above if above >= below else -below
        elif x + h < lower or x + h > upper:
            h = -h
        point = theta.copy()
        point[i] = x + h
        k1, c1 = _kernel_and_constraints(point)
        dx = (x + h) - x
        grad.append((k1 - k0) / dx)
        columns.append([(b - a) / dx for a, b in zip(c0, c1)])
    return np.array(grad), np.array(columns).T.copy()


def minimize_i32(n_segments: int, model: AutocorrelationModel,
                 budget: int = 15000, restarts: int = 10, seed: int = 0,
                 v_max_taup: float = DEFAULT_V_MAX_TAUP):
    """Minimize I_3/2 over n-segment pi-pulses with S = C = 0.

    One constrained solver: SLSQP on the closed-form kernel K of
    theta = (n widths in [MIN_GAP, 1], n amplitudes in [-v_max_taup,
    v_max_taup]) under the equality constraints angle = pi, S = C = 0 and
    sum(w) = 1; ``budget`` is its iteration limit per start.  The gradients
    are the search's own forward differences (``_forward_differences``),
    with the step and bound rule scipy applies when given none, so SLSQP
    takes the same path as with scipy's, without its per-call overhead.
    The search is nested in the segment count: the 3-segment stage starts
    from CORPSE, SCORPSE, the two palindromic bang-bang pi-pulses
    (amplitudes -+-v_max_taup or +-+v_max_taup) and ``restarts`` random
    points, and stage n + 1 from stage n's best with its longest segment
    split in two (the same pulse, so it keeps its value) and ``restarts``
    random points, each drawn from stream (n, r) of ``seed`` only when the
    stage reaches it.  Every start is itself a candidate, so the
    best value never rises with n.  The amplitude bound keeps a shrinking
    support from shrinking I_3/2 without limit; the minima ride it.

    For a fixed seed the result is reproducible only under a fixed BLAS
    thread count: SLSQP's linear algebra rounds differently with more
    threads, and a random start can then end in another local minimum.

    Returns (best_pulse, i32_min) with the pulse at tau_p = 1.  The
    segment count is 3 to ``MAX_SEGMENTS``, checked before the search.

    The first call in a process loads ``scipy.optimize`` (about 0.6 s), which
    ``import pulselab`` leaves unloaded.

    A candidate counts only when every constraint holds within
    ``pulses.PULSE_TOL``, the rule ``validate_catalog`` applies, so the
    returned design passes catalog validation.  Raises NoFeasiblePoint when
    no candidate does.
    """
    if not 3 <= n_segments <= MAX_SEGMENTS:
        raise ValueError(f"need 3 to {MAX_SEGMENTS} segments")
    if model.cusp_coefficient == 0.0:
        raise ValueError("I_3/2 vanishes identically for analytic models")
    if restarts < 1:
        raise ValueError("need at least 1 restart")
    if not 1 <= budget <= np.iinfo(np.long).max:
        # SLSQP takes its iteration limit as a C long
        raise ValueError(f"need a budget of 1 to {np.iinfo(np.long).max} iterations")
    if not (0.0 < v_max_taup and math.isfinite(2.0 * v_max_taup)):
        # the random starts are drawn over the range 2 v_max_taup
        raise ValueError("v_max_taup must be positive, with 2 v_max_taup finite")
    from scipy.optimize import minimize

    @lru_cache(maxsize=64)  # SLSQP asks for K and the constraints at the same points
    def evaluate(key: bytes) -> tuple[float, tuple[float, ...]]:
        return _kernel_and_constraints(np.frombuffer(key).tolist())

    # and then for both Jacobians at the same point.  A cache of its own: an
    # evaluate that called itself would be a reference cycle, which keeps
    # each search's cache alive until the cyclic garbage collector runs
    @lru_cache(maxsize=1)
    def differentiate(key: bytes) -> tuple[np.ndarray, np.ndarray]:
        theta = np.frombuffer(key).tolist()
        return _forward_differences(theta, *evaluate(key),
                                    *_search_box(len(theta) // 2, v_max_taup))

    def kernel(theta):
        return evaluate(theta.tobytes())[0]

    def kernel_gradient(theta):
        return differentiate(theta.tobytes())[0]

    def constraints(theta):
        return evaluate(theta.tobytes())[1]

    def constraints_jacobian(theta):
        return differentiate(theta.tobytes())[1]

    best, best_val = None, math.inf
    for n in range(3, n_segments + 1):
        if best is None:
            catalog = load_catalog()
            starts = [_params_of(catalog[name]) for name in _SEED_SHAPES]
            # the palindromic bang-bang pi-pulses (-v, v, -v) and (v, -v, v)
            # with widths (w, 1 - 2w, w): the amplitude bound is what keeps K
            # from shrinking, so the minima ride it
            for sign in (-1.0, 1.0):
                w = (1.0 + sign * math.pi / (2.0 * v_max_taup)) / 4.0
                starts.append(np.array([w, 1.0 - 2.0 * w, w,
                                        sign * v_max_taup, -sign * v_max_taup, sign * v_max_taup]))
        else:
            # stage n - 1's best with its longest segment split in two is the
            # same pulse: it keeps its value, so the best never rises
            k = int(np.argmax(best[: n - 1]))
            best = np.insert(best, [k, n - 1 + k], [best[k] / 2.0, best[n - 1 + k]])
            best[k + 1] = best[k]
            starts = [best]
        lo, hi = _search_box(n, v_max_taup)
        for theta0 in chain(starts, (_stream_generator(seed, n, r).uniform(lo, hi)
                                     for r in range(restarts))):
            theta0 = np.clip(theta0, lo, hi)
            sol = minimize(kernel, theta0, method="SLSQP", jac=kernel_gradient,
                           bounds=list(zip(lo, hi)),
                           constraints={"type": "eq", "fun": constraints,
                                        "jac": constraints_jacobian},
                           options={"maxiter": budget, "ftol": 1e-15})
            for theta in (theta0, sol.x):
                val, cons = evaluate(theta.tobytes())
                if np.abs(cons).max() <= PULSE_TOL and val < best_val:
                    best, best_val = theta, val
        if best is None:
            raise NoFeasiblePoint(
                f"no feasible {n}-segment pulse from {len(starts) + restarts} starts")

    edges, amps, _ = _layout_of_params(best.tolist())   # segments for the returned design only
    segments = tuple(map(PulseSegment, edges[:-1], edges[1:], amps))
    pulse = PiecewiseConstantPulse(f"designed-{n_segments}seg", 1.0, segments, order=1)
    return pulse, model.cusp_coefficient * best_val
