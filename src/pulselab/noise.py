"""Correlated Gaussian dephasing noise on a time grid.

The noise field eta(t) is a stationary Gaussian process defined by its
autocorrelation g(t) = mean[eta(t')eta(t'+t)].  Discretized realizations
live at step midpoints, with covariance G_ij = g(t_i - t_j), and are a
linear transform L of i.i.d. standard normals with L L^T = G:

* exponential model: the process is Markov (Ornstein-Uhlenbeck), so on any
  grid eta_i = a_i eta_{i-1} + g0 sqrt(1 - a_i^2) xi_i with
  a_i = exp(-gamma (t_i - t_{i-1})) samples G exactly (Gillespie,
  Phys. Rev. E 54, 2084, 1996).  L is G's Cholesky factor, applied as an
  O(N) recursion per realization; no N x N array is formed to draw.
* Gaussian model: G = O D O^T by eigendecomposition and L = O sqrt(D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenvalueTooNegative

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"

#: Relative band in which negative eigenvalues are treated as round-off.
EPS_CLIP = 1e-10

#: Largest grid N accepted where cost grows like N^2: the Gaussian sampler's
#: N x N arrays (512 MB each at this size), the N x chunk noise block and
#: verify_nogo's O(N^2)-time identity residual.
MAX_DENSE_N = 8192


@dataclass(frozen=True)
class AutocorrelationModel:
    """Two-point function of the dephasing field.

    kind
        ``"gaussian"``: g(t) = g0^2 exp(-gamma^2 t^2)  (analytic at t=0)
        ``"exponential"``: g(t) = g0^2 exp(-gamma |t|)  (cusp at t=0)
    g0
        Noise amplitude; g(0) = g0^2 sets the energy scale.
    gamma
        Decay rate of the correlation (>= 0).
    eta0
        Constant mean of eta(t); acts like a static frequency offset.
    """

    kind: str
    g0: float = 1.0
    gamma: float = 0.0
    eta0: float = 0.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, EXPONENTIAL):
            raise ValueError(f"unknown autocorrelation kind: {self.kind!r}")
        if not 0.0 < self.g0 < np.inf:
            raise ValueError("g0 must be positive and finite (g(0) = g0^2 > 0)")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be non-negative and finite")
        if not np.isfinite(self.eta0):
            raise ValueError("eta0 must be finite")

    def evaluate(self, t):
        """g(t); accepts scalars or arrays and is even in t by construction."""
        t = np.asarray(t, dtype=float)
        if self.kind == GAUSSIAN:
            # gamma^2 t^2 may overflow to inf at huge t; exp(-inf) = 0 is right
            with np.errstate(over="ignore"):
                out = self.g0**2 * np.exp(-(self.gamma**2) * t * t)
        else:
            out = self.g0**2 * np.exp(-self.gamma * np.abs(t))
        return out if out.ndim else float(out)

    @property
    def cusp_coefficient(self) -> float:
        """Coefficient a of the -a|t| term in the expansion of g around 0.

        Zero for any analytic autocorrelation; g0^2 * gamma for the
        exponential model (matching its Taylor expansion g0^2 - g0^2 gamma |t| + ...).
        """
        if self.kind == EXPONENTIAL:
            return self.g0**2 * self.gamma
        return 0.0


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing step boundaries 0 = t_0 < ... < t_N = tau_p.

    Noise samples live at step midpoints and are held constant per step;
    midpoint sampling keeps the quadrature bias of time integrals at O(dt^2).
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("need at least two boundaries")
        if b[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def tau_p(self) -> float:
        return float(self.boundaries[-1])

    @property
    def n_steps(self) -> int:
        return self.boundaries.size - 1

    @property
    def midpoints(self) -> np.ndarray:
        # halving first cannot overflow, and is exact for normal floats
        return 0.5 * self.boundaries[1:] + 0.5 * self.boundaries[:-1]

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @classmethod
    def uniform(cls, tau_p: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 < tau_p < np.inf:
            raise ValueError(f"grid span must be positive and finite, got {tau_p!r}")
        return cls(np.linspace(0.0, tau_p, n_steps + 1))

    def refined(self, factor: int) -> "TimeGrid":
        """Split every step into `factor` uniform substeps (boundaries kept)."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return _subdivide(self.boundaries, [factor] * self.n_steps)


def _subdivide(points: np.ndarray, counts) -> TimeGrid:
    """The grid splitting interval k of `points` into counts[k] uniform steps."""
    pieces = [points[:1]]
    for t0, t1, cnt in zip(points[:-1], points[1:], counts):
        pieces.append(np.linspace(t0, t1, cnt + 1)[1:])
    return TimeGrid(np.concatenate(pieces))


def _stream_generator(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based Philox generator of (seed, stream), whatever the draw order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=stream)
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class NoiseRealization:
    """One discretized sample path: eta(t) constant on step i, value values[i]."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_steps,):
            raise ValueError(
                f"values shape {v.shape} does not match grid step count {self.grid.n_steps}"
            )

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "NoiseRealization":
        return cls(grid, np.full(grid.n_steps, float(value)))


class NoiseSampler:
    """Draws correlated Gaussian noise realizations on a fixed grid.

    The transform is prepared once at construction and shared by every draw,
    and the sampler is immutable.  For the exponential model it is the
    Markov recursion's per-step coefficients (O(N) memory); for the Gaussian
    model it is the eigendecomposition's O sqrt(D).  ``covariance`` and
    ``transform`` are readable for both kinds; for the exponential kind they
    are formed only when read.  Every draw goes through
    ``sample_block(..., stream=(k, ...))``, which derives a counter-based
    generator from (seed, stream) and is therefore insensitive to scheduling.
    """

    def __init__(self, model: AutocorrelationModel, grid: TimeGrid, seed: int):
        if grid.n_steps > MAX_DENSE_N:
            raise ValueError(f"{grid.n_steps} steps exceed the dense covariance limit "
                             f"of {MAX_DENSE_N}")
        self.model = model
        self.grid = grid
        self.seed = int(seed)

        if model.kind == EXPONENTIAL:
            # eta_i = decay_i eta_{i-1} + kick_i z_i; expm1 keeps the kick
            # accurate where gamma * gap << 1 and 1 - a^2 would cancel
            gap = np.diff(grid.midpoints)
            self._decay = np.exp(-model.gamma * gap)
            self._kick = model.g0 * np.concatenate(
                ([1.0], np.sqrt(-np.expm1(-2.0 * model.gamma * gap))))
            return
        # evaluate() is even in the gap, so the covariance is symmetric
        # entry-for-entry
        eigvals, eigvecs = np.linalg.eigh(self.covariance)
        lam_max = float(eigvals[-1])
        floor = -EPS_CLIP * lam_max
        if np.any(eigvals < floor):
            worst = float(eigvals.min())
            raise EigenvalueTooNegative(
                f"eigenvalue {worst:.3e} below clip band {floor:.3e}; "
                "covariance matrix is not numerically positive semidefinite"
            )
        eigvals = np.clip(eigvals, 0.0, None)
        self.transform = eigvecs * np.sqrt(eigvals)[None, :]

    @cached_property
    def covariance(self) -> np.ndarray:
        """G_ij = g(t_i - t_j) at the step midpoints."""
        mids = self.grid.midpoints
        return self.model.evaluate(mids[:, None] - mids[None, :])

    @cached_property
    def transform(self) -> np.ndarray:
        """L with L L^T = G (exponential kind: the recursion applied to I)."""
        return self._markov(np.eye(self.grid.n_steps))

    def _markov(self, z: np.ndarray) -> np.ndarray:
        """L z for the exponential kind, in place, one row per step."""
        z *= self._kick[:, None]
        for i, a in enumerate(self._decay, start=1):
            z[i] += a * z[i - 1]
        return z

    def sample_block(self, count: int, stream: tuple[int, ...] = ()) -> np.ndarray:
        """Draw `count` realizations at once; shape (n_steps, count).

        A given (seed, stream) pair always yields the same block, so chunked
        parallel sampling reproduces bit-identically in any schedule.
        """
        z = _stream_generator(self.seed, *stream).standard_normal((self.grid.n_steps, count))
        eta = self._markov(z) if self.model.kind == EXPONENTIAL else self.transform @ z
        eta += self.model.eta0
        return eta


def build_sampler(model: AutocorrelationModel, grid: TimeGrid, seed: int) -> NoiseSampler:
    """Construct a sampler: the Markov coefficients for the exponential
    model, eigh of G and O sqrt(D) for the Gaussian model."""
    return NoiseSampler(model, grid, seed)
