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
* Gaussian model: G = O D O^T by eigendecomposition, and L = O_k sqrt(D_k)
  keeps the k eigenpairs above the round-off band EPS_CLIP * lambda_max (a
  truncated Karhunen-Loeve expansion).  The analytic autocorrelation's
  spectrum falls super-exponentially, so k is a few where N is hundreds, and
  a realization takes k normals and an N x k product.  L L^T differs from G
  by about EPS_CLIP * lambda_max at most in any entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenvalueTooNegative

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"

#: Relative band around zero in which eigenvalues are treated as round-off:
#: negative ones are clipped, positive ones dropped from the Gaussian transform.
EPS_CLIP = 1e-10

#: Largest grid N accepted where cost grows like N^2: the Gaussian sampler's
#: N x N arrays (512 MB each at this size) and verify_nogo's O(N^2)-time
#: identity residual.  A sweep's noise is drawn in row tiles whose height does
#: not grow with N, so the limit bounds no noise block there.
MAX_DENSE_N = 8192


def _require_dense(n_steps: int) -> None:
    """Refuse a grid of more than MAX_DENSE_N steps, before it is built."""
    if n_steps > MAX_DENSE_N:
        raise ValueError(f"{n_steps} steps exceed the dense covariance limit "
                         f"of {MAX_DENSE_N}")


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
        with np.errstate(over="ignore", under="ignore"):
            if not (self.g0 > 0.0 and 0.0 < np.square(float(self.g0)) < np.inf):
                raise ValueError("g0 must be positive with g(0) = g0**2 positive and finite")
            if not 0.0 <= self.gamma < np.inf:
                raise ValueError("gamma must be non-negative and finite")
            if self.kind == GAUSSIAN and np.isinf(np.square(float(self.gamma))):
                raise ValueError("gamma**2 must be finite for the gaussian model")
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
        _require_dense(n_steps)
        if not 0.0 < tau_p < np.inf:
            raise ValueError(f"grid span must be positive and finite, got {tau_p!r}")
        return cls(np.linspace(0.0, tau_p, n_steps + 1))


def _subdivide(points: np.ndarray, counts) -> TimeGrid:
    """The grid splitting interval k of `points` into counts[k] uniform steps."""
    pieces = [points[:1]]
    for t0, t1, cnt in zip(points[:-1], points[1:], counts):
        pieces.append(np.linspace(t0, t1, cnt + 1)[1:])
    return TimeGrid(np.concatenate(pieces))


def _stream_generator(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based Philox generator of (seed, stream), whatever the draw order."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=stream)
    return np.random.Generator(np.random.Philox(seq))


class NoiseSampler:
    """Draws correlated Gaussian noise realizations on a fixed grid.

    The transform is prepared once at construction and shared by every draw,
    and the sampler is immutable.  For the exponential model it is the
    Markov recursion's per-step coefficients (O(N) memory); for the Gaussian
    model it is the N x k matrix O_k sqrt(D_k) of the eigenpairs above the
    round-off band, and a draw takes k normals per realization.
    ``covariance`` and ``transform`` are readable for both kinds; the
    covariance is formed on each read, and the exponential kind's transform
    when first read.  Every draw goes through
    ``sample_block(..., stream=(k, ...))``, which derives a counter-based
    generator from (seed, stream) and is therefore insensitive to scheduling.
    """

    def __init__(self, model: AutocorrelationModel, grid: TimeGrid, seed: int):
        _require_dense(grid.n_steps)
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
        # eigenvalues within EPS_CLIP * lam_max of zero are round-off on either
        # side: keep the k above the band, a truncated Karhunen-Loeve expansion
        keep = eigvals > EPS_CLIP * lam_max
        self.transform = eigvecs[:, keep] * np.sqrt(eigvals[keep])

    @property
    def covariance(self) -> np.ndarray:
        """G_ij = g(t_i - t_j) at the step midpoints, formed on each read, so
        that no sampler holds an N x N array."""
        mids = self.grid.midpoints
        return self.model.evaluate(mids[:, None] - mids[None, :])

    @cached_property
    def transform(self) -> np.ndarray:
        """L with L L^T = G: N x k for the Gaussian kind (set at construction),
        the recursion applied to diag(kick) for the exponential kind."""
        return self._markov(np.diag(self._kick), 0, None)

    def _markov(self, z: np.ndarray, start: int, carry: np.ndarray | None) -> np.ndarray:
        """The exponential recursion in place, one row per step.  z holds the
        kicks kick_i xi_i of rows start, start + 1, ... of a draw, and `carry`
        its row start - 1 as the recursion left it, before any offset."""
        if start:
            z[0] += self._decay[start - 1] * carry
        for i, a in enumerate(self._decay[start:start + len(z) - 1].tolist(), start=1):
            z[i] += a * z[i - 1]
        return z

    def finish_rows(self, kicks: np.ndarray, start: int,
                    carry: np.ndarray | None) -> np.ndarray:
        """Turn the exponential kind's kicks of rows start, start + 1, ..., as
        `sample_block` leaves them when given `staging`, into noise in place:
        the recursion from `carry` (row start - 1 as the recursion left it, or
        None at row 0), then the offset eta0.  Returns the last row as the
        recursion left it, the carry of the rows after it."""
        carry = self._markov(kicks, start, carry)[-1].copy()
        kicks += self.model.eta0
        return carry

    def sample_block(self, count: int, stream: tuple[int, ...] = (),
                     out: np.ndarray | None = None,
                     cursor: StreamCursor | None = None, *,
                     staging: np.ndarray | None = None) -> np.ndarray:
        """Draw `count` realizations at once; shape (rows, count), with the
        rows of `out` if given and else every row the cursor has not drawn.

        A given (seed, stream) pair always yields the same block, so chunked
        parallel sampling reproduces bit-identically in any schedule.  With
        `out` (that shape, possibly a strided view) the block is written there
        and returned; the Philox fill and the Gaussian matmul release the GIL.
        The Gaussian kind draws a (k, count) block of normals for its N x k
        transform; the exponential kind draws (n_steps, count).

        A chunk may be drawn in row tiles: pass one `StreamCursor()` with every
        call for it, and each call draws the rows of `out` after the last call's,
        continuing the same stream, so the tiles equal one whole-block draw.
        The cursor holds the generator, the next row and what the rows after it
        need: the Gaussian kind's normals, the exponential recursion's last row.

        The Philox fill writes contiguous memory only.  The exponential kind
        fills a contiguous block in place and a strided `out` through a
        temporary block; `staging`, a flat float block of at least rows x count
        values, takes the temporary's place.  Given `staging`, the exponential
        kind writes only the kicks kick_i xi_i, one GIL-free fill and one
        multiply, and leaves the recursion and the offset to the caller's
        `finish_rows`, which may run them across the columns of several
        chunks at once; the cursor then holds no carry.  The Gaussian kind
        ignores `staging`.
        """
        cur = StreamCursor() if cursor is None else cursor
        if cur.gen is None:
            cur.gen = _stream_generator(self.seed, *stream)
        start = cur.row
        stop = self.grid.n_steps if out is None else start + len(out)
        cur.row = stop
        if self.model.kind == EXPONENTIAL:
            eta = np.empty((stop - start, count)) if out is None else out
            if staging is not None:
                xi = staging[:eta.size].reshape(eta.shape)
            else:
                xi = eta if eta.flags.c_contiguous else np.empty(eta.shape)
            cur.gen.standard_normal(out=xi)
            np.multiply(xi, self._kick[start:stop, None], out=eta)
            if staging is None:
                cur.carry = self.finish_rows(eta, start, cur.carry)
            return eta
        if cur.carry is None:
            cur.carry = cur.gen.standard_normal((self.transform.shape[1], count))
        eta = np.matmul(self.transform[start:stop], cur.carry, out=out)
        eta += self.model.eta0
        return eta


@dataclass
class StreamCursor:
    """Where a chunk's draw stands between the row tiles of `sample_block`."""

    gen: np.random.Generator | None = None
    row: int = 0
    carry: np.ndarray | None = None


def build_sampler(model: AutocorrelationModel, grid: TimeGrid, seed: int) -> NoiseSampler:
    """Construct a sampler: the Markov coefficients for the exponential
    model, eigh of G and the rank-k O_k sqrt(D_k) for the Gaussian model."""
    return NoiseSampler(model, grid, seed)
