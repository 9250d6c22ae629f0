"""Scaling experiments: amplitude sweeps, Monte-Carlo ensembles, log-log fits.

Results are rendered against the inverse peak amplitude 1/v (for a fixed
shape tau_p is proportional to 1/v), with g0 = 1 fixing the energy scale.
One noise sampler is built per (pulse, 1/v) cell and shared by all
realizations: the exponential model's Markov recursion coefficients, or the
Gaussian model's covariance eigendecomposition cut to its numerical rank k,
so a Gaussian realization takes k normals, not one per step.  Realizations
are drawn in fixed-size chunks whose RNG streams derive from (seed, cell,
chunk), so results are bit-reproducible for a given configuration regardless
of worker count or scheduling.

One draw loop, `_draws`, owns the chunk schedule of every noise block: the
chunk sizes, their order and their streams.  A cell's full chunks come in
groups of min(workers, full chunks).  Worker threads draw a group's blocks
into one (group, n_steps, chunk) buffer (the Philox fill and the Gaussian
matmul release the GIL); the calling thread then evolves the group as one
(n_steps, group, chunk) block.  The step loop thus runs once per group, in
one thread: run on several threads, its many small ufunc calls hand the GIL
back and forth and run slower than one after the other.  The remainder comes
last, as a short group of one narrower chunk drawn into the head of the same
buffer.  `noise-validate` sums the same blocks.

One sweep, `_sweep`, walks the cells of a `ScalingExperimentConfig`:
`run_scaling` fits them and `run_prefactor_check` compares a one-pulse sweep
with the cubic law.  One cell runner, `_run_cell`, evolves every cell of the
sweep.  Every fit, `.dat` file and cell reads mean DF^2, the quantity the
analytic scaling laws predict.
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
                    build_sampler)
from .propagator import evolve_ensemble
from .pulses import (PiecewiseConstantPulse, PulseCatalog, _require_first_order,
                     build_time_grid, load_catalog)

#: points whose relative standard error of mean Delta_F exceeds this are excluded
REL_STDERR_MAX = 0.05

#: a fit needs at least this many usable points
MIN_FIT_POINTS = 3

#: realizations per chunk; chunk c of cell k draws from RNG stream (k, c)
DEFAULT_CHUNK = 2**12

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
    fit_window: Optional[tuple[Optional[float], Optional[float]]] = None
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK

    def __post_init__(self):
        iv = tuple(float(v) for v in self.inv_v_grid)
        if not iv or not all(0 < v < math.inf for v in iv) or \
                any(b <= a for a, b in zip(iv, iv[1:])):
            raise ValueError("inv_v_grid must be non-empty, positive, finite and "
                             "strictly increasing")
        object.__setattr__(self, "inv_v_grid", iv)
        names = tuple(p.upper() for p in self.pulses)
        if not names or len(set(names)) < len(names):
            raise ValueError("pulses must be non-empty, with no name repeated")
        object.__setattr__(self, "pulses", names)
        if self.realizations < 2:
            raise ValueError("need at least 2 realizations")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        lo, hi = self.window
        if not 0 < lo < hi:
            raise ValueError("fit_window must satisfy 0 < lo < hi")

    @property
    def window(self) -> tuple[float, float]:
        """`fit_window`, an end left None taking the model's default."""
        lo, hi = self.fit_window or (None, None)
        default_lo, default_hi = DEFAULT_FIT_WINDOWS[self.model.kind]
        return (default_lo if lo is None else lo, default_hi if hi is None else hi)


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
            "fits": {name: asdict(fit) for name, fit in self.fits.items()},
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


def _in_window(inv_v: float, window: tuple[float, float]) -> bool:
    lo, hi = window
    return lo <= inv_v <= hi


def fit_exponent(points: Sequence[tuple[float, float, float]],
                 window: tuple[float, float]) -> FitResult:
    """Fit log10(mean DF) vs log10(1/v) from (inv_v, mean_df2, stderr_df2) rows.

    The fit is numpy's weighted ``polyfit`` with weights 1/sigma_log, where
    the uncertainty of log10 DF follows from the delta method,
    sigma_log = stderr_df2 / (2 mean_df2 ln 10); points outside the window,
    with a mean or standard error that is not finite, a mean that is not
    positive, a zero standard error or a relative standard error of DF above
    ``REL_STDERR_MAX`` are excluded.  Raises InsufficientPoints when the
    usable points hold fewer than ``MIN_FIT_POINTS`` distinct 1/v values.
    """
    usable = []
    excluded = []
    for inv_v, mean_df2, stderr_df2 in points:
        if not _in_window(inv_v, window):
            excluded.append((inv_v, "outside fit window"))
            continue
        if not math.isfinite(mean_df2) or not math.isfinite(stderr_df2):
            # an overflowed cell: nan fails every comparison below
            excluded.append((inv_v, "non-finite mean"))
            continue
        if mean_df2 <= 0:
            excluded.append((inv_v, "non-positive mean"))
            continue
        if stderr_df2 == 0:
            # every realization gave the same DF^2: the point has no weight
            excluded.append((inv_v, "zero standard error"))
            continue
        rel_df = stderr_df2 / (2.0 * mean_df2)   # relative stderr of DF
        if rel_df > REL_STDERR_MAX:
            excluded.append((inv_v, f"relative stderr {rel_df:.1%} > {REL_STDERR_MAX:.0%}"))
            continue
        usable.append((inv_v, mean_df2, stderr_df2))
    distinct = len({inv_v for inv_v, _, _ in usable})
    if distinct < MIN_FIT_POINTS:
        raise InsufficientPoints(f"{len(usable)} usable points at {distinct} distinct 1/v "
                                 f"values after exclusion; need >= {MIN_FIT_POINTS}")
    inv_v, mean_df2, stderr_df2 = np.array(usable).T
    lx, ly = np.log10([inv_v, np.sqrt(mean_df2)])
    sigma_log = stderr_df2 / (2.0 * mean_df2 * math.log(10.0))
    # numpy's cov inverts the normal matrix: x and y centred on their weighted
    # means keep it diagonal, where raw logs of clustered 1/v values lose up
    # to 1e-7 of the errors
    xm, ym = np.average([lx, ly], axis=1, weights=sigma_log**-2)
    (slope, dy), cov = np.polyfit(lx - xm, ly - ym, 1, w=1.0 / sigma_log, cov=True)
    # numpy scales cov by chi^2 / (n - 2), the reduced chi-square; the
    # intercept ym + dy - slope xm has variance cov_11 + xm^2 cov_00
    return FitResult(float(slope), math.sqrt(cov[0, 0]), float(ym + dy - slope * xm),
                     math.sqrt(cov[1, 1] + xm**2 * cov[0, 0]), len(usable), tuple(excluded))


# -- Monte-Carlo cells --------------------------------------------------------

_CELL_KEYS = ("df2", "partial_x", "partial_y", "partial_z")


def _draws(sampler: NoiseSampler, realizations: int, chunk_size: int, workers: int,
           stream: tuple[int, ...]) -> Iterator[np.ndarray]:
    """`realizations` draws of `sampler` as (n_steps, count, width) blocks.

    Chunk c holds `chunk_size` realizations from stream (*stream, c).  The
    full chunks come in groups of min(workers, full chunks), drawn by that
    many threads; the remainder comes last, as a group of one narrower chunk.
    Every group is drawn into the C-contiguous head of one buffer, so a
    yielded block is overwritten by the next one.
    """
    n_steps = sampler.grid.n_steps
    full, rest = divmod(realizations, chunk_size)
    group = max(1, min(workers, full))
    groups = [(c0, min(group, full - c0), chunk_size) for c0 in range(0, full, group)]
    if rest:
        groups.append((full, 1, rest))
    buf = np.empty(group * n_steps * min(chunk_size, realizations))
    with ThreadPoolExecutor(max_workers=group) as pool:
        for c0, count, width in groups:
            block = buf[:count * n_steps * width].reshape(count, n_steps, width)
            # list() reads every result, so a failed draw raises here
            list(pool.map(lambda j: sampler.sample_block(
                width, stream=(*stream, c0 + j), out=block[j]), range(count)))
            yield block.transpose(1, 0, 2)


def _run_cell(pulse: PiecewiseConstantPulse, sampler: NoiseSampler, cell_index: int,
              realizations: int, chunk_size: int = DEFAULT_CHUNK, workers: int = 1
              ) -> dict[str, MonteCarloEstimate]:
    """Evolve, reduce and accumulate the realizations of one cell.

    The blocks come from `_draws` on stream (cell_index,), and the calling
    thread evolves each group on the sampler's grid in one pass.
    """
    parts = [ensemble_frobenius(*evolve_ensemble(pulse, sampler.grid, eta))
             for eta in _draws(sampler, realizations, chunk_size, workers, (cell_index,))]
    return {k: accumulate_values(np.concatenate([p[k].ravel() for p in parts]))
            for k in _CELL_KEYS}


def _sweep(config: ScalingExperimentConfig, catalog: PulseCatalog) -> Iterator[tuple]:
    """(pulse, 1/v, scaled pulse, estimates) per cell, pulses outermost; cell k
    builds its own grid and sampler and draws chunk c from stream (k, c)."""
    cells = [(name, inv_v) for name in config.pulses for inv_v in config.inv_v_grid]
    for k, (name, inv_v) in enumerate(cells):
        scaled = catalog[name].for_inverse_amplitude(inv_v)
        grid = build_time_grid(scaled, config.steps_per_pulse)
        sampler = build_sampler(config.model, grid, config.seed)
        yield name, inv_v, scaled, _run_cell(scaled, sampler, k, config.realizations,
                                             config.chunk_size, config.workers)


def run_scaling(config: ScalingExperimentConfig,
                catalog: Optional[PulseCatalog] = None) -> ScalingResult:
    """Sweep 1/v for every configured pulse and fit the scaling exponents.

    A pulse is fitted once its last cell is in, from mean DF^2 and its
    standard error over the fit window with the standard exclusion rule.  A
    1/v grid with fewer than `MIN_FIT_POINTS` values in the fit window is
    refused (ValueError) before any cell is drawn.
    """
    inside = sum(_in_window(inv_v, config.window) for inv_v in config.inv_v_grid)
    if inside < MIN_FIT_POINTS:
        lo, hi = config.window
        raise ValueError(f"{inside} of the 1/v values lie in the fit window "
                         f"[{lo!r}, {hi!r}]; a fit needs >= {MIN_FIT_POINTS}")
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


# -- prefactor check -----------------------------------------------------------


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
