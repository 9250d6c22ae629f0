"""Scaling experiments: amplitude sweeps, Monte-Carlo ensembles, log-log fits.

Results are rendered against the inverse peak amplitude 1/v (for a fixed
shape tau_p is proportional to 1/v), with g0 = 1 fixing the energy scale.
One noise sampler is built per (pulse, 1/v) cell and shared by all
realizations: the exponential model's Markov recursion coefficients, or the
Gaussian model's covariance eigendecomposition.  Realizations are drawn in
fixed-size chunks whose RNG streams derive from (seed, cell, chunk), so
results are bit-reproducible for a given configuration regardless of worker
count or scheduling.

One sweep, `_sweep`, walks the cells of a `ScalingExperimentConfig`:
`run_scaling` fits them and `run_prefactor_check` compares a one-pulse sweep
with the cubic law.  One cell runner, `_run_cell`, serves the sweep and both
branches of the grid-convergence check.  Every fit, `.dat` file and cell
reads mean DF^2, the quantity the analytic scaling laws predict.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InsufficientPoints
from .magnus import evaluate_i32
from .metrics import MonteCarloEstimate, accumulate_values, ensemble_frobenius
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN, NoiseSampler,
                    TimeGrid, build_sampler)
from .propagator import evolve_ensemble
from .pulses import (PiecewiseConstantPulse, PulseCatalog, _require_first_order,
                     build_time_grid, load_catalog)

#: points whose relative standard error of mean Delta_F exceeds this are excluded
REL_STDERR_MAX = 0.05

#: realizations per chunk; chunk c of cell k draws from RNG stream (k, c)
DEFAULT_CHUNK = 2**12

#: a convergence check passes below this relative drift of mean DF^2 between
#: its two finest grids
DRIFT_TOL = 5e-3

DEFAULT_FIT_WINDOWS = {
    GAUSSIAN: (1e-3, 1e-1),
    EXPONENTIAL: (1e-3, 3e-2),
}

@dataclass(frozen=True)
class ScalingExperimentConfig:
    pulses: tuple[str, ...]
    model: AutocorrelationModel
    inv_v_grid: tuple[float, ...]
    realizations: int = 20000
    steps_per_pulse: int = 512
    seed: int = 0
    fit_window: Optional[tuple[float, float]] = None
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK

    def __post_init__(self):
        iv = tuple(float(v) for v in self.inv_v_grid)
        if not iv or not all(0 < v < math.inf for v in iv) or \
                any(b <= a for a, b in zip(iv, iv[1:])):
            raise ValueError("inv_v_grid must be non-empty, positive, finite and "
                             "strictly increasing")
        object.__setattr__(self, "inv_v_grid", iv)
        object.__setattr__(self, "pulses", tuple(p.upper() for p in self.pulses))
        if self.realizations < 2:
            raise ValueError("need at least 2 realizations")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.fit_window is not None and not 0 < self.fit_window[0] < self.fit_window[1]:
            raise ValueError("fit_window must satisfy 0 < lo < hi")

    @property
    def window(self) -> tuple[float, float]:
        if self.fit_window is not None:
            return self.fit_window
        return DEFAULT_FIT_WINDOWS[self.model.kind]


@dataclass(frozen=True)
class CellStats:
    """Monte-Carlo estimates for one (pulse, 1/v) cell."""

    pulse: str
    inv_v: float
    estimate: MonteCarloEstimate                       # of DF^2
    partials: tuple[MonteCarloEstimate, MonteCarloEstimate, MonteCarloEstimate]

    @property
    def poldev(self) -> MonteCarloEstimate:
        """|<sy>+1| for a y-polarized start, which equals the y partial exactly."""
        return self.partials[1]


@dataclass(frozen=True)
class FitResult:
    slope: float
    slope_err: float
    intercept: float
    intercept_err: float
    n_used: int
    excluded: tuple = ()


@dataclass
class ScalingResult:
    config: ScalingExperimentConfig
    cells: list[CellStats] = field(default_factory=list)
    fits: dict[str, FitResult] = field(default_factory=dict)

    def cells_for(self, pulse: str) -> list[CellStats]:
        return [c for c in self.cells if c.pulse == pulse.upper()]

    # -- serialization ------------------------------------------------------

    CSV_HEADER = ("pulse,inv_v,mean_df2,stderr_df2,mean_df,partial_x,partial_y,"
                  "partial_z,polarization_dev,realizations")

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for c in self.cells:
            lines.append(",".join([
                c.pulse, repr(c.inv_v),
                repr(c.estimate.mean_df2), repr(c.estimate.stderr_df2),
                repr(c.estimate.mean_df),
                repr(c.partials[0].mean_df2), repr(c.partials[1].mean_df2),
                repr(c.partials[2].mean_df2),
                repr(c.poldev.mean_df2), str(c.estimate.realizations),
            ]))
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "model": asdict(self.config.model),
            "seed": self.config.seed,
            "realizations": self.config.realizations,
            "steps_per_pulse": self.config.steps_per_pulse,
            "fit_window": list(self.config.window),
            "fits": {
                name: {
                    "slope": fit.slope,
                    "slope_err": fit.slope_err,
                    "intercept": fit.intercept,
                    "intercept_err": fit.intercept_err,
                    "n_used": fit.n_used,
                    "excluded": [list(e) for e in fit.excluded],
                }
                for name, fit in self.fits.items()
            },
        }

    def write(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "scaling.csv"), "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())
        with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(self.summary_dict(), fh, indent=2)
            fh.write("\n")
        for name in self.config.pulses:
            rows = self.cells_for(name)
            path = os.path.join(outdir, f"{name.lower()}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# inv_v  mean_df  stderr_df\n")
                for c in rows:
                    df = c.estimate.mean_df
                    sd = c.estimate.stderr_df2 / (2.0 * df) if df > 0 else math.inf
                    fh.write(f"{c.inv_v!r} {df!r} {sd!r}\n")
            fit = self.fits.get(name)
            if fit is not None and math.isfinite(fit.slope):
                lo, hi = self.config.window
                with open(os.path.join(outdir, f"{name.lower()}_fit.dat"), "w",
                          encoding="utf-8") as fh:
                    fh.write("# inv_v  fitted_df\n")
                    for x in (lo, hi):
                        fh.write(f"{x!r} {10 ** (fit.intercept + fit.slope * math.log10(x))!r}\n")


# -- fitting -----------------------------------------------------------------


def fit_exponent(points: Sequence[tuple[float, float, float]],
                 window: tuple[float, float]) -> FitResult:
    """Fit log10(mean DF) vs log10(1/v) from (inv_v, mean_df2, stderr_df2) rows.

    The uncertainty of log10 DF follows from the delta method,
    sigma_log = stderr_df2 / (2 mean_df2 ln 10); points outside the window or
    with relative standard error of DF above ``REL_STDERR_MAX`` are excluded.
    """
    lo, hi = window
    usable = []
    excluded = []
    for inv_v, mean_df2, stderr_df2 in points:
        if not lo <= inv_v <= hi:
            excluded.append((inv_v, "outside fit window"))
            continue
        if mean_df2 <= 0:
            excluded.append((inv_v, "non-positive mean"))
            continue
        rel_df = stderr_df2 / (2.0 * mean_df2)   # relative stderr of DF
        if rel_df > REL_STDERR_MAX:
            excluded.append((inv_v, f"relative stderr {rel_df:.1%} > {REL_STDERR_MAX:.0%}"))
            continue
        usable.append((inv_v, mean_df2, stderr_df2))
    if len(usable) < 3:
        raise InsufficientPoints(
            f"{len(usable)} usable points after exclusion; need >= 3"
        )
    arr = np.array(usable)
    # weighted least squares of log10 DF against log10(1/v)
    lx = np.log10(arr[:, 0])
    ly = np.log10(np.sqrt(arr[:, 1]))
    w = 1.0 / (arr[:, 2] / (2.0 * arr[:, 1] * math.log(10.0))) ** 2
    xm = np.sum(w * lx) / np.sum(w)
    ym = np.sum(w * ly) / np.sum(w)
    sxx = np.sum(w * (lx - xm) ** 2)
    slope = float(np.sum(w * (lx - xm) * (ly - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = ly - (intercept + slope * lx)
    chi2_red = float(np.sum(w * resid**2) / (len(usable) - 2))
    return FitResult(slope, math.sqrt(chi2_red / sxx), intercept,
                     math.sqrt(chi2_red * (1.0 / np.sum(w) + xm**2 / sxx)),
                     len(usable), tuple(excluded))


# -- Monte-Carlo cells --------------------------------------------------------

_CELL_KEYS = ("df2", "partial_x", "partial_y", "partial_z")


def _run_cell(pulse: PiecewiseConstantPulse, grid: TimeGrid, sampler: NoiseSampler,
              cell_index: int, realizations: int, chunk_size: int = DEFAULT_CHUNK,
              workers: int = 1, rows: Optional[np.ndarray] = None
              ) -> dict[str, MonteCarloEstimate]:
    """Draw, evolve, reduce and accumulate the realizations of one cell.

    Chunk c draws its block from stream (cell_index, c) of `sampler`.  With
    `rows` given, only those rows of the sampler's grid reach `grid`: a
    coarser grid whose midpoints are a subset of the sampler's then sees
    exact subsamples of the finer draws.
    """
    full, rest = divmod(realizations, chunk_size)
    sizes = [chunk_size] * full + ([rest] if rest else [])

    def draw(m: int, c: int) -> np.ndarray:
        eta = sampler.sample_block(m, stream=(cell_index, c))
        return eta if rows is None else eta[rows]

    def one_chunk(c: int) -> dict[str, np.ndarray]:
        w, x, y, z = evolve_ensemble(pulse, grid, draw(sizes[c], c))
        return ensemble_frobenius(w, x, y, z)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_chunk, range(len(sizes))))
    else:
        parts = [one_chunk(c) for c in range(len(sizes))]
    return {k: accumulate_values(np.concatenate([p[k] for p in parts]))
            for k in _CELL_KEYS}


def _sweep(config: ScalingExperimentConfig, catalog: PulseCatalog) -> Iterator[tuple]:
    """(pulse, 1/v, scaled pulse, estimates) per cell, pulses outermost; cell k
    builds its own grid and sampler and draws chunk c from stream (k, c)."""
    cells = [(name, inv_v) for name in config.pulses for inv_v in config.inv_v_grid]
    for k, (name, inv_v) in enumerate(cells):
        scaled = catalog[name].for_inverse_amplitude(inv_v)
        grid = build_time_grid(scaled, config.steps_per_pulse)
        sampler = build_sampler(config.model, grid, config.seed)
        yield name, inv_v, scaled, _run_cell(scaled, grid, sampler, k, config.realizations,
                                             config.chunk_size, config.workers)


def run_scaling(config: ScalingExperimentConfig,
                catalog: Optional[PulseCatalog] = None) -> ScalingResult:
    """Sweep 1/v for every configured pulse and fit the scaling exponents.

    A pulse is fitted once its last cell is in, from mean DF^2 and its
    standard error over the fit window with the standard exclusion rule.
    """
    catalog = catalog or load_catalog()
    result = ScalingResult(config)
    for name, inv_v, _, est in _sweep(config, catalog):
        result.cells.append(CellStats(name, inv_v, est["df2"], (
            est["partial_x"], est["partial_y"], est["partial_z"])))
        if inv_v == config.inv_v_grid[-1]:
            pts = [(c.inv_v, c.estimate.mean_df2, c.estimate.stderr_df2)
                   for c in result.cells_for(name)]
            result.fits[name] = fit_exponent(pts, config.window)
    return result


# -- prefactor and convergence checks -----------------------------------------


@dataclass(frozen=True)
class PrefactorRow:
    inv_v: float
    measured_df2: float
    stderr_df2: float
    predicted_df2: float

    @property
    def ratio(self) -> float:
        return self.measured_df2 / self.predicted_df2

    @property
    def ratio_err(self) -> float:
        return self.stderr_df2 / self.predicted_df2


def run_prefactor_check(pulse_name: str, model: AutocorrelationModel,
                        inv_v_list: Sequence[float], realizations: int,
                        steps_per_pulse: int = 512, seed: int = 0,
                        catalog: Optional[PulseCatalog] = None) -> list[PrefactorRow]:
    """Measured mean DF^2 against the leading cubic law of a first-order pulse.

    The cells are those of a one-pulse `run_scaling` sweep.  With S = C = 0
    the leading term of mean DF^2 under exponential noise is
    (4/3) I_3/2 = (4/3) a K tau_p^3, from the closed-form shape kernel K.
    """
    config = ScalingExperimentConfig(pulses=(pulse_name,), model=model,
                                     inv_v_grid=inv_v_list, realizations=realizations,
                                     steps_per_pulse=steps_per_pulse, seed=seed)
    catalog = catalog or load_catalog()
    _require_first_order(catalog[pulse_name])
    if model.cusp_coefficient == 0.0:
        raise ValueError("prefactor check requires a cusp: the exponential model "
                         "with gamma > 0")
    return [PrefactorRow(inv_v, est["df2"].mean_df2, est["df2"].stderr_df2,
                         4.0 / 3.0 * evaluate_i32(scaled, model))
            for _, inv_v, scaled, est in _sweep(config, catalog)]


@dataclass(frozen=True)
class ConvergenceRow:
    n_steps: int
    mean_df2: float
    stderr_df2: float
    drift_vs_finest: float   # |mean - mean_finest| / mean_finest


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    passed: bool             # drift between the two finest grids < DRIFT_TOL
    shared_draws: bool       # coarser grids subsample the finest realizations


def run_convergence_check(pulse_name: str, model: AutocorrelationModel,
                          inv_v: float, realizations: int, base_steps: int,
                          refine_factors: Sequence[int] = (3, 3), seed: int = 0,
                          catalog: Optional[PulseCatalog] = None) -> ConvergenceReport:
    """Repeat one cell across grid refinements and report the mean-DF^2 drift.

    With odd refinement factors every coarse midpoint is also a midpoint of
    the finest grid, so coarse realizations are exact subsamples of the
    finest draws (common random numbers); the drift is then measured far
    below the Monte-Carlo noise of the individual means.  With any even
    factor each grid is sampled independently.
    """
    catalog = catalog or load_catalog()
    scaled = catalog[pulse_name].for_inverse_amplitude(inv_v)
    grids = [build_time_grid(scaled, base_steps)]
    for f in refine_factors:
        grids.append(grids[-1].refined(int(f)))
    shared = all(int(f) % 2 == 1 for f in refine_factors)

    if shared:
        # one sampler on the finest grid; grid i keeps the middle finest step
        # of each of its steps, stride = product of the factors after i
        sampler = build_sampler(model, grids[-1], seed)
        means = []
        for i, grid in enumerate(grids):
            stride = math.prod(int(f) for f in refine_factors[i:])
            keep = np.arange(grid.n_steps) * stride + (stride - 1) // 2
            means.append(_run_cell(scaled, grid, sampler, 0, realizations,
                                   rows=keep)["df2"])
    else:
        means = [_run_cell(scaled, grid, build_sampler(model, grid, seed), gi,
                           realizations)["df2"]
                 for gi, grid in enumerate(grids)]

    finest_mean = means[-1].mean_df2
    rows = tuple(
        ConvergenceRow(grid.n_steps, est.mean_df2, est.stderr_df2,
                       abs(est.mean_df2 - finest_mean) / finest_mean)
        for grid, est in zip(grids, means)
    )
    passed = rows[-2].drift_vs_finest < DRIFT_TOL if len(rows) >= 2 else True
    return ConvergenceReport(rows, passed, shared)
