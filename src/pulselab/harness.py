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

One draw loop, `_draws`, owns the chunk schedule of a sweep cell's noise:
the chunk sizes, their order and their streams.  A cell's full chunks come in
groups of min(workers, full chunks), each chunk a range of its group's
columns; the remainder chunk takes the columns after the last group's, so a
cell costs one pass of the step loop per group, however few realizations
are left over.  A group's noise flows in row tiles of `TILE_ROWS` steps.
The calling thread is one of the workers: it evolves the rows of tile t
while max(1, workers - 1) draw threads draw tile t + 1, one
`NoiseSampler.sample_block` call per chunk, each chunk continuing its own
stream from where the last tile left it.  Such a call makes no loop over the
rows and leaves the rest of the draw to `NoiseSampler.finish_rows`, which
the calling thread runs on every tile: the exponential recursion, a loop of
small ufunc calls over the rows, and its offset, or nothing for the
Gaussian kind.  So a cell holds two tiles of noise, whatever its step
count, and every loop of small ufunc calls runs in one thread: run on
several threads, such calls hand the GIL back and forth and run slower than
one after the other.
`noise_statistics`, behind `noise-validate`, needs every row of a
realization at once for its covariance, so it draws chunk c whole from
stream (c,) with `NoiseSampler.sample_block`, one chunk after the other.

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

import itertools
import json
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, asdict
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InsufficientPoints
from .magnus import NoGoReport, evaluate_i32
from .metrics import MonteCarloEstimate, accumulate_values, ensemble_frobenius
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN, NoiseSampler,
                    StreamCursor, _require_dense, build_sampler)
from .propagator import evolve_ensemble
from .pulses import (PiecewiseConstantPulse, PulseCatalog, _require_first_order,
                     _require_steps, build_time_grid, load_catalog)

#: points whose relative standard error of mean Delta_F exceeds this are excluded
REL_STDERR_MAX = 0.05

#: a fit needs at least this many usable points
MIN_FIT_POINTS = 3

#: realizations per chunk; chunk c of cell k draws from RNG stream (k, c)
DEFAULT_CHUNK = 2**12

#: most threads a cell may use; results do not depend on the count
MAX_WORKERS = 64

#: rows per noise tile.  A multiple of 16, so that every Gaussian tile
#: product starts on OpenBLAS's row unroll and equals the whole-block product
#: bit for bit.  A one-row product goes through gemv and rounds differently,
#: so `_draws` gives a one-row last tile to the tile before it.
TILE_ROWS = 32

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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be 1 to {MAX_WORKERS}")
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


@dataclass(frozen=True)
class _Rows:
    """A group's noise as a row source of shape (n_steps, width): iterating it
    yields row i of every realization, one tile of rows after another."""

    shape: tuple[int, int]
    tiles: Iterator[np.ndarray]

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def __iter__(self) -> Iterator[np.ndarray]:
        return itertools.chain.from_iterable(self.tiles)


def _draws(sampler: NoiseSampler, realizations: int, chunk_size: int, workers: int,
           stream: tuple[int, ...]) -> Iterator[_Rows]:
    """`realizations` draws of `sampler`, one `_Rows` per group of chunks.

    Chunk c holds `chunk_size` realizations from stream (*stream, c).  The
    full chunks come in groups of min(workers, full chunks), each chunk a
    range of its group's columns, and the remainder, from stream
    (*stream, full chunks), takes the columns after the last group's.  Each
    group is formed when the caller reaches it, so no schedule of the cell's
    groups is held, however many realizations it asks for.  A group flows in
    tiles that start every `TILE_ROWS` rows short of the last row, so the last
    tile holds two rows or more.  Both tiles are views of one ring, sized once
    by the group rule for the widest group a cell can have,
    min(group, full) * chunk_size + rest columns.  The caller, which evolves
    the rows, is one of the workers: max(1, group - 1) draw threads draw tile
    t + 1, one `sample_block` call per chunk, every chunk continuing its own
    stream through its cursor, while the caller reads tile t.  So two tiles
    are held, not the whole block, and a tile read is overwritten two tiles
    later.  Before reading a tile the caller finishes it across the group's
    width with `finish_rows`, carrying what it returns to the next tile, so
    the draw threads make few calls that hold the GIL.  Close the generator
    to stop its threads early.
    """
    n_steps = sampler.grid.n_steps
    full, rest = divmod(realizations, chunk_size)
    group = max(1, min(workers, full))
    threads = max(1, group - 1)
    starts = range(0, max(n_steps - 1, 1), TILE_ROWS)    # the last tile holds two rows or more
    bounds = list(zip(starts, [*starts[1:], n_steps]))
    n_tiles = len(bounds)
    rows = max(b - a for a, b in bounds)
    ring = np.empty((min(2, n_tiles), rows * (min(group, full) * chunk_size + rest)))

    def tiles(pool, chunks, width):
        cursors = [StreamCursor() for _ in chunks]
        carry = None

        def draw(t):
            a, b = bounds[t]
            tile = ring[t % 2, :(b - a) * width].reshape(b - a, width)
            return tile, [pool.submit(sampler.sample_block, w, (*stream, c),
                                      tile[:, col:col + w], cursor)
                          for (c, col, w), cursor in zip(chunks, cursors)]

        ahead = draw(0)
        for t in range(n_tiles):
            tile, futures = ahead
            for f in futures:
                f.result()          # a failed draw raises here
            if t + 1 < n_tiles:
                ahead = draw(t + 1)
            carry = sampler.finish_rows(tile, bounds[t][0], carry)
            yield tile

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for c0 in range(0, max(full, 1), group):
            # the group's chunks as (stream index, first column, width)
            chunks = [(c, (c - c0) * chunk_size, chunk_size)
                      for c in range(c0, min(c0 + group, full))]
            if rest and c0 + group >= full:
                chunks.append((full, len(chunks) * chunk_size, rest))
            width = sum(w for *_, w in chunks)
            yield _Rows((n_steps, width), tiles(pool, chunks, width))


def noise_statistics(sampler: NoiseSampler, realizations: int) -> dict:
    """The largest deviations, in standard errors, of the sample mean and
    covariance of `realizations` draws of `sampler` from the model's.

    The deviations from the mean eta0, whose covariance is the target, are
    summed chunk by chunk: chunk c holds `DEFAULT_CHUNK` realizations from
    stream (c,), the last one fewer, and is drawn whole, since a covariance
    needs all of a realization's rows at once.  It is centred and scaled in
    place, summed and dropped before the next is drawn, so one chunk of
    noise is held at a time.  Both sums are scaled by the power of two 2^-e
    near 1/g0, exactly, so that squaring the covariance can neither overflow
    nor underflow.
    """
    if realizations < 2:
        raise ValueError("need at least 2 realizations")
    model, n, m = sampler.model, sampler.grid.n_steps, realizations
    e = math.frexp(model.g0)[1]
    sums, products = np.zeros(n), np.zeros((n, n))
    for c, c0 in enumerate(range(0, m, DEFAULT_CHUNK)):
        block = sampler.sample_block(min(DEFAULT_CHUNK, m - c0), stream=(c,))
        np.ldexp(np.subtract(block, model.eta0, out=block), -e, out=block)
        sums += block.sum(axis=1)
        products += block @ block.T
        del block
    target = np.ldexp(sampler.covariance, -2 * e)
    se_cov = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
    return {"max_cov_sigma": float(np.abs((products / m - target) / se_cov).max()),
            "max_mean_sigma": float(np.abs(sums / m / np.sqrt(np.diag(target) / m)).max()),
            "realizations": m, "steps": n}


def _run_cell(pulse: PiecewiseConstantPulse, sampler: NoiseSampler, cell_index: int,
              realizations: int, chunk_size: int, workers: int
              ) -> dict[str, MonteCarloEstimate]:
    """Evolve, reduce and accumulate the realizations of one cell.

    The groups come from `_draws` on stream (cell_index,), and the calling
    thread evolves each on the sampler's grid in one pass over its rows.
    """
    with closing(_draws(sampler, realizations, chunk_size, workers,
                        (cell_index,))) as groups:
        parts = [ensemble_frobenius(*evolve_ensemble(pulse, sampler.grid, rows))
                 for rows in groups]
    return {k: accumulate_values(np.concatenate([p[k].ravel() for p in parts]))
            for k in _CELL_KEYS}


def _sweep(config: ScalingExperimentConfig, catalog: PulseCatalog) -> Iterator[CellStats]:
    """One cell record per cell, pulses outermost; cell k builds its own grid
    and sampler and draws chunk c from stream (k, c).  Every pulse's step
    count is checked before the first cell is drawn."""
    for name in config.pulses:
        _require_steps(catalog[name], config.steps_per_pulse)
    for k, (name, inv_v) in enumerate(itertools.product(config.pulses, config.inv_v_grid)):
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

    Every pulse must be first order (NotFirstOrder), the model must have a
    cusp and every cell's prediction must be positive and finite
    (ValueError), since each ratio divides by it; all three
    are checked before any cell is drawn.  With S = C = 0 the leading term
    of mean DF^2 under exponential noise is (4/3) I_3/2 = (4/3) a K tau_p^3,
    from the closed-form shape kernel K of the pulse scaled to the cell's 1/v.
    """
    catalog = catalog or load_catalog()
    for name in config.pulses:
        _require_first_order(catalog[name])
    if config.model.cusp_coefficient == 0.0:
        raise ValueError("prefactor check requires a cusp: the exponential model "
                         "with gamma > 0")
    predicted = {}
    for name, inv_v in itertools.product(config.pulses, config.inv_v_grid):
        try:
            df2 = 4.0 / 3.0 * evaluate_i32(catalog[name].for_inverse_amplitude(inv_v),
                                           config.model)
        except OverflowError:       # a float's tau_p**3 raises past 1.8e308
            df2 = math.inf
        if not 0.0 < df2 < math.inf:     # a K tau_p^3 may also underflow to 0
            raise ValueError(f"the cubic law's mean DF^2 for {name} at 1/v = {inv_v!r} "
                             "is not finite and positive")
        predicted[name, inv_v] = df2
    return [PrefactorRow(cell, predicted[cell.pulse, cell.inv_v])
            for cell in _sweep(config, catalog)]
