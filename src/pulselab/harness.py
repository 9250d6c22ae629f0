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
buffer.  `noise_statistics`, behind `noise-validate`, sums the same blocks.

One sweep, `_sweep`, walks the cells of a `ScalingExperimentConfig` and
yields each as the one cell record, `CellStats`: `run_scaling` fits each
pulse from its cells once the sweep is done, and `run_prefactor_check`, given
the same config, pairs each cell with the cubic law's prediction in a
`PrefactorRow`.  One cell runner, `_run_cell`, evolves every cell of the
sweep.  Every fit, `.dat` file and cell reads mean DF^2, the quantity the
analytic scaling laws predict.

Every run file but the catalog that `design` writes (`pulses.save_catalog`)
is formatted here: one table formatter, `_table_text`, for `scaling.csv`, the
prefactor CSV and the `.dat` files, and one JSON formatter, `json_text`, for
`summary.json`, the no-go report and the noise statistics.  One writer,
`write_files`, puts ``{name: text}`` into an output directory, creating it.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InsufficientPoints
from .magnus import NoGoReport, evaluate_i32
from .metrics import MonteCarloEstimate, accumulate_values, ensemble_frobenius
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN, NoiseSampler,
                    _require_dense, build_sampler)
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
        _require_dense(self.steps_per_pulse)
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
        return _table_text(self.CSV_HEADER, [
            (c.pulse, c.inv_v, c.estimate.mean_df2, c.estimate.stderr_df2, c.estimate.mean_df,
             *(p.mean_df2 for p in c.partials), c.poldev.mean_df2, c.estimate.realizations)
            for c in self.cells])

    def write(self, outdir: str) -> None:
        """Write scaling.csv, summary.json and each pulse's .dat files."""
        config = self.config
        files = {"scaling.csv": self.csv_text(), "summary.json": json_text({
            "model": asdict(config.model),
            "seed": config.seed,
            "realizations": config.realizations,
            "steps_per_pulse": config.steps_per_pulse,
            "fit_window": list(config.window),
            "fits": {name: asdict(fit) for name, fit in self.fits.items()},
        })}
        for name in config.pulses:
            files[f"{name.lower()}.dat"] = _table_text("# inv_v  mean_df  stderr_df", [
                (c.inv_v, c.estimate.mean_df, _stderr_df(c.estimate))
                for c in self.cells_for(name)], " ")
            fit = self.fits.get(name)
            if fit is not None and math.isfinite(fit.slope):
                files[f"{name.lower()}_fit.dat"] = _table_text("# inv_v  fitted_df", [
                    (x, 10 ** (fit.intercept + fit.slope * math.log10(x)))
                    for x in config.window], " ")
        write_files(outdir, files)


# -- run files ----------------------------------------------------------------


def _stderr_df(estimate: MonteCarloEstimate) -> float:
    """The delta-method error of mean_df = sqrt(mean DF^2)."""
    df = estimate.mean_df
    return estimate.stderr_df2 / (2.0 * df) if df > 0 else math.inf


def _table_text(header: str, rows: Iterable[Sequence], sep: str = ",") -> str:
    """The header line, then one line of `sep`-joined fields per row.  A field
    is written as its str(), which for a float or an int equals its repr and
    leaves a name unquoted."""
    return "".join(f"{line}\n" for line in [header, *(sep.join(map(str, r)) for r in rows)])


def json_text(payload: dict) -> str:
    """`payload` as indented JSON and a final newline."""
    return json.dumps(payload, indent=2) + "\n"


def write_files(outdir: str, files: dict[str, str]) -> list[str]:
    """Write each ``{name: text}`` of `files` into `outdir`, creating it, and
    return the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name) for name in files]
    for path, text in zip(paths, files.values()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def prefactor_csv(rows: Sequence[PrefactorRow]) -> str:
    return _table_text("inv_v,measured_df2,stderr_df2,predicted_df2,ratio,ratio_err", [
        (r.cell.inv_v, r.cell.estimate.mean_df2, r.cell.estimate.stderr_df2,
         r.predicted_df2, r.ratio, r.ratio_err)
        for r in rows])


#: the no-go report's fields in the order its JSON lists them, after the pulse
_NOGO_FIELDS = ("grid_n", "quad_a_cos", "quad_a_sin", "b_norm_cos", "b_norm_sin",
                "i32_kernel", "i32_discrete", "identity_residual")


def nogo_json(pulse: str, report: NoGoReport) -> str:
    return json_text({"pulse": pulse.upper(),
                      **{key: getattr(report, key) for key in _NOGO_FIELDS}})


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
    ``REL_STDERR_MAX`` are excluded.  Raises InsufficientPoints, counting
    the exclusions by reason, when the usable points hold fewer than
    ``MIN_FIT_POINTS`` distinct 1/v values.
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
        # relative-stderr exclusions are one reason, whatever their value
        reasons = Counter(f"relative stderr > {REL_STDERR_MAX:.0%}"
                          if r.startswith("relative stderr") else r for _, r in excluded)
        counts = ", ".join(f"{n} {r}" for r, n in reasons.most_common()) or "none"
        raise InsufficientPoints(f"{len(usable)} usable points at {distinct} distinct 1/v "
                                 f"values after exclusion ({counts}); "
                                 f"need >= {MIN_FIT_POINTS}")
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


def noise_statistics(sampler: NoiseSampler, realizations: int) -> dict:
    """The largest deviations, in standard errors, of the sample mean and
    covariance of `realizations` draws of `sampler` from the model's.

    The deviations from the mean eta0, whose covariance is the target, are
    summed over the blocks of `_draws` (chunk c from stream (c,)); both are
    scaled by the power of two 2^-e near 1/g0, exactly, so that squaring the
    covariance can neither overflow nor underflow.
    """
    if realizations < 2:
        raise ValueError("need at least 2 realizations")
    model, n, m = sampler.model, sampler.grid.n_steps, realizations
    e = math.frexp(model.g0)[1]
    sums, products = np.zeros(n), np.zeros((n, n))
    for block in _draws(sampler, m, DEFAULT_CHUNK, 1, ()):
        block = np.ldexp(block.reshape(n, -1) - model.eta0, -e)
        sums += block.sum(axis=1)
        products += block @ block.T
    target = np.ldexp(sampler.covariance, -2 * e)
    se_cov = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
    return {"max_cov_sigma": float(np.abs((products / m - target) / se_cov).max()),
            "max_mean_sigma": float(np.abs(sums / m / np.sqrt(np.diag(target) / m)).max()),
            "realizations": m, "steps": n}


def _run_cell(pulse: PiecewiseConstantPulse, sampler: NoiseSampler, cell_index: int,
              realizations: int, chunk_size: int, workers: int
              ) -> dict[str, MonteCarloEstimate]:
    """Evolve, reduce and accumulate the realizations of one cell.

    The blocks come from `_draws` on stream (cell_index,), and the calling
    thread evolves each group on the sampler's grid in one pass.
    """
    parts = [ensemble_frobenius(*evolve_ensemble(pulse, sampler.grid, eta))
             for eta in _draws(sampler, realizations, chunk_size, workers, (cell_index,))]
    return {k: accumulate_values(np.concatenate([p[k].ravel() for p in parts]))
            for k in _CELL_KEYS}


def _sweep(config: ScalingExperimentConfig, catalog: PulseCatalog) -> Iterator[CellStats]:
    """One cell record per cell, pulses outermost; cell k builds its own grid
    and sampler and draws chunk c from stream (k, c)."""
    cells = [(name, inv_v) for name in config.pulses for inv_v in config.inv_v_grid]
    for k, (name, inv_v) in enumerate(cells):
        scaled = catalog[name].for_inverse_amplitude(inv_v)
        grid = build_time_grid(scaled, config.steps_per_pulse)
        sampler = build_sampler(config.model, grid, config.seed)
        est = _run_cell(scaled, sampler, k, config.realizations, config.chunk_size,
                        config.workers)
        yield CellStats(name, inv_v, est["df2"], (
            est["partial_x"], est["partial_y"], est["partial_z"]))


def run_scaling(config: ScalingExperimentConfig,
                catalog: Optional[PulseCatalog] = None) -> ScalingResult:
    """Sweep 1/v for every configured pulse and fit the scaling exponents.

    Each pulse is fitted after the sweep, from mean DF^2 and its standard
    error over the fit window with the standard exclusion rule; a failed fit
    raises InsufficientPoints naming the pulse.  A 1/v grid with fewer than
    `MIN_FIT_POINTS` values in the fit window is refused (ValueError) before
    any cell is drawn.
    """
    inside = sum(_in_window(inv_v, config.window) for inv_v in config.inv_v_grid)
    if inside < MIN_FIT_POINTS:
        lo, hi = config.window
        raise ValueError(f"{inside} of the 1/v values lie in the fit window "
                         f"[{lo!r}, {hi!r}]; a fit needs >= {MIN_FIT_POINTS}")
    catalog = catalog or load_catalog()
    result = ScalingResult(config, list(_sweep(config, catalog)))
    for name in config.pulses:
        pts = [(c.inv_v, c.estimate.mean_df2, c.estimate.stderr_df2)
               for c in result.cells_for(name)]
        try:
            result.fits[name] = fit_exponent(pts, config.window)
        except InsufficientPoints as exc:
            raise InsufficientPoints(f"{name}: {exc}") from None
    return result


# -- prefactor check -----------------------------------------------------------


@dataclass(frozen=True)
class PrefactorRow:
    """One sweep cell and the leading cubic law's mean DF^2 at its 1/v."""

    cell: CellStats
    predicted_df2: float

    @property
    def ratio(self) -> float:
        return self.cell.estimate.mean_df2 / self.predicted_df2

    @property
    def ratio_err(self) -> float:
        return self.cell.estimate.stderr_df2 / self.predicted_df2


def run_prefactor_check(config: ScalingExperimentConfig,
                        catalog: Optional[PulseCatalog] = None) -> list[PrefactorRow]:
    """The cells of `config`'s sweep against the leading cubic law.

    Every pulse must be first order (NotFirstOrder) and the model must have a
    cusp (ValueError); both are checked before any cell is drawn.  With
    S = C = 0 the leading term of mean DF^2 under exponential noise is
    (4/3) I_3/2 = (4/3) a K tau_p^3, from the closed-form shape kernel K of
    the pulse scaled to the cell's 1/v.
    """
    catalog = catalog or load_catalog()
    for name in config.pulses:
        _require_first_order(catalog[name])
    if config.model.cusp_coefficient == 0.0:
        raise ValueError("prefactor check requires a cusp: the exponential model "
                         "with gamma > 0")
    return [PrefactorRow(cell, 4.0 / 3.0 * evaluate_i32(
                catalog[cell.pulse].for_inverse_amplitude(cell.inv_v), config.model))
            for cell in _sweep(config, catalog)]
