"""The benchmark's workloads: what each pass runs, the gates on its outputs,
and the per-layer metrics read from a traced pass.

sweep_gauss     run_scaling, Gaussian model: kernel- and draw-bound cells
                whose covariance has very low rank.
sweep_exp_fine  run_scaling, exponential model on a fine grid with two chunk
                threads: eigendecomposition-bound set-up, full-rank covariance.
design_nogo     minimize_i32, cold evaluate_i32 and verify_nogo: only the
                magnus and pulses layers, which no sweep touches.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from pulselab import (AutocorrelationModel, NoiseSampler, PulselabError,
                      ScalingExperimentConfig, harness, magnus)
from pulselab.pulses import first_order_integrals

from tracing import Tracer, self_time, timing_summary, union_length

GAUSS = AutocorrelationModel("gaussian", g0=1.0, gamma=0.1)
EXP = AutocorrelationModel("exponential", g0=1.0, gamma=0.01)

# Slope targets of tests/test_acceptance.py, criteria 1 and 2.  CLASS2ND and
# SCORPSE fail there for documented physical reasons and are left out.
GAUSSIAN_TARGETS = {"RECT": (1.0, 0.1), "CORPSE": (2.0, 0.15), "SYM2ND": (3.0, 0.2)}
EXPONENTIAL_TARGETS = {"RECT": (1.0, 0.1), "CORPSE": (1.5, 0.1), "SYM2ND": (1.5, 0.1)}

# Leading I_3/2 = coeff * g0^2 * gamma * (1/v)^3 (criterion 4).
I32_CLOSED_FORMS = {"CORPSE": 3.0 * math.pi, "SCORPSE": 2.0 * math.pi}
SHAPED = ("CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND")
FEASIBILITY_TOL = 1e-8
#: an eigenvalue counts towards the effective rank above this share of the largest
RANK_REL_CUTOFF = 1e-10
#: a cell counts as low-rank when its effective rank is at most this share of N
LOW_RANK_SHARE = 0.1
#: the design search's seed: the CLI's default, so the designs are the same for
#: every --seed and can be gated against constants
DESIGN_SEED = 0
#: a design may exceed its reference by this share (rounding on other hardware)
DESIGN_REL_TOL = 1e-3

_evaluate_i32 = magnus.evaluate_i32   # for gates: never traced


@dataclass(frozen=True)
class SweepSpec:
    model: AutocorrelationModel
    targets: dict
    inv_v_range: tuple[float, float]
    points: int
    realizations: int
    steps: int
    chunk: int

    def run(self, catalog, seed: int, workers: int) -> "PassOutcome":
        return run_sweep(self, catalog, seed, workers)


@dataclass(frozen=True)
class DesignSpec:
    budget: int
    restarts: int
    nogo_grids: tuple[int, ...]
    #: segments -> best I_3/2 the search reaches at DESIGN_SEED (the gate)
    reference: dict

    def run(self, catalog, seed: int, workers: int) -> "PassOutcome":
        return run_design(self, catalog, seed)


@dataclass
class PassOutcome:
    """What one pass produced, reduced to what the benchmark checks and reports."""

    digest: str
    checks: list[tuple[str, bool, str]]      # (operation, passed, detail)
    results: int                             # cells, or designed pulses
    accuracy_factor: float                   # gmean (rel. stderr / 1%)^2; 1 if exact
    details: dict = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- sweeps -------------------------------------------------------------------


def run_sweep(spec: SweepSpec, catalog, seed: int, workers: int) -> PassOutcome:
    config = ScalingExperimentConfig(
        pulses=tuple(spec.targets), model=spec.model,
        inv_v_grid=tuple(np.geomspace(*spec.inv_v_range, spec.points)),
        realizations=spec.realizations, steps_per_pulse=spec.steps, seed=seed,
        workers=workers, chunk_size=spec.chunk)
    result = harness.run_scaling(config, catalog)
    checks = []
    slopes = {}
    for name, (target, tol) in spec.targets.items():
        slope = result.fits[name].slope
        slopes[name] = slope
        checks.append((f"slope {name}", abs(slope - target) <= tol,
                       f"{slope:.4f}, target {target} +- {tol}"))
    rel = [c.estimate.stderr_df2 / c.estimate.mean_df2 for c in result.cells]
    cells = [{"pulse": c.pulse, "inv_v": c.inv_v, "rel_stderr_df2": r}
             for c, r in zip(result.cells, rel)]
    return PassOutcome(
        digest=sha256(result.csv_text()),
        checks=checks,
        results=len(result.cells),
        # a geometric mean: a median would jump between the well- and the
        # poorly-converged group of cells from one seed to the next
        accuracy_factor=statistics.geometric_mean((r / 0.01) ** 2 for r in rel),
        details={"slopes": slopes, "cells": cells,
                 "points_excluded": sum(len(f.excluded) for f in result.fits.values())},
    )


# -- design -------------------------------------------------------------------


def run_design(spec: DesignSpec, catalog, seed: int) -> PassOutcome:
    # every pass starts cold, as a user's first call does
    magnus._i32_shape_kernel.cache_clear()
    designs = {n: magnus.minimize_i32(n, EXP, budget=spec.budget, restarts=spec.restarts,
                                      seed=DESIGN_SEED)
               for n in spec.reference}
    magnus._i32_shape_kernel.cache_clear()
    inv_v = float(10.0 ** np.random.default_rng(seed).uniform(-3.0, -1.0))
    i32 = {name: magnus.evaluate_i32(catalog[name].for_inverse_amplitude(inv_v), EXP)
           for name in SHAPED}
    scorpse = catalog["SCORPSE"].with_duration(1.0)
    nogo = {n: magnus.verify_nogo(scorpse, n).i32_kernel for n in spec.nogo_grids}

    checks = []
    for name, coeff in I32_CLOSED_FORMS.items():
        expect = coeff * EXP.g0**2 * EXP.gamma * inv_v**3
        rel = abs(i32[name] / expect - 1.0)
        checks.append((f"closed form {name}", rel <= 1e-6,
                       f"rel. error {rel:.1e} at 1/v = {inv_v:.4e}"))
    floor = 1e-3 * _evaluate_i32(scorpse, EXP)
    for n, (pulse, value) in designs.items():
        s_val, c_val = first_order_integrals(pulse)
        worst = max(abs(pulse.total_angle - math.pi), abs(s_val), abs(c_val))
        ceiling = spec.reference[n] * (1.0 + DESIGN_REL_TOL)
        ok = worst <= FEASIBILITY_TOL and floor < value <= ceiling
        checks.append((f"design {n}seg", ok,
                       f"I_3/2 {value!r} in ({floor:.3e}, {ceiling!r}], "
                       f"constraint residual {worst:.1e}"))
    for n, kernel in nogo.items():
        checks.append((f"nogo {n}", kernel > 0.0, f"i32_kernel {kernel:.6e}"))

    digest = sha256("\n".join(f"{n} {value!r} {pulse.segments!r}"
                              for n, (pulse, value) in designs.items()))
    return PassOutcome(
        digest=digest, checks=checks, results=len(designs), accuracy_factor=1.0,
        details={"design_i32_best": {f"{n}seg": v for n, (_, v) in designs.items()},
                 "inv_v": inv_v, "i32": i32, "nogo_i32_kernel": nogo},
    )


WORKLOADS = {
    # 8192 realizations: at 4096 SYM2ND's relative stderr of DF sits at the 5%
    # exclusion limit, and 6 of 8 excluded points (about 1% of seeds) abort the fit
    "sweep_gauss": SweepSpec(GAUSS, GAUSSIAN_TARGETS, (1e-3, 1e-1), points=8,
                             realizations=8192, steps=256, chunk=4096),
    "sweep_exp_fine": SweepSpec(EXP, EXPONENTIAL_TARGETS, (1e-3, 3e-2), points=4,
                                realizations=4096, steps=1024, chunk=2048),
    # the CLI's design call (192-point surrogate, random restarts) at a
    # smaller budget; the references are what it reaches today
    "design_nogo": DesignSpec(budget=2000, restarts=3, nogo_grids=(256, 512, 1024, 2048),
                              reference={3: 0.0002991628830391463,
                                         4: 0.00040320420713166327,
                                         5: 0.0001605236530276827}),
}


# -- tracing ------------------------------------------------------------------


def trace_targets(tracer: Tracer) -> list[tuple]:
    """Every layer entry point pulselab.harness and pulselab.magnus look up."""

    def on_sampler(args, sampler):
        with tracer.span("bench.probe"):
            # column norms^2 of O sqrt(D) are the clipped eigenvalues: no extra eigh
            lam = np.einsum("ij,ij->j", sampler.transform, sampler.transform)
            rank = int(np.count_nonzero(lam > RANK_REL_CUTOFF * lam.max()))
        tracer.note("cell_rank", (sampler.grid.n_steps, rank))

    def on_block(args, eta):
        tracer.add("noise.sample_block.values", eta.size)
        tracer.note("eta_bytes", eta.nbytes)

    def on_evolve(args, out):
        tracer.add("propagator.evolve_ensemble.step_realizations", args[2].size)

    def on_accumulate(args, est):
        tracer.add("metrics.accumulate_values.values", est.realizations)

    return [
        (harness, "run_scaling", "harness.run_scaling", None),
        (harness, "build_time_grid", "pulses.build_time_grid", None),
        (harness, "build_sampler", "noise.build_sampler", on_sampler),
        (NoiseSampler, "sample_block", "noise.sample_block", on_block),
        (harness, "evolve_ensemble", "propagator.evolve_ensemble", on_evolve),
        (harness, "ensemble_frobenius", "metrics.ensemble_frobenius", None),
        (harness, "accumulate_values", "metrics.accumulate_values", on_accumulate),
        (magnus, "first_order_integrals", "pulses.first_order_integrals", None),
        (magnus, "quad", "magnus.quad", None),
        (magnus, "least_squares", "magnus.least_squares", None),
        (magnus, "evaluate_i32", "magnus.evaluate_i32", None),
        (magnus, "minimize_i32", "magnus.minimize_i32", None),
        (magnus, "verify_nogo", "magnus.verify_nogo", None),
    ]


LAYER_SPANS = ("noise.sample_block", "noise.build_sampler",
               "propagator.evolve_ensemble", "metrics.accumulate_values",
               "metrics.ensemble_frobenius", "pulses.build_time_grid",
               "pulses.first_order_integrals", "magnus.minimize_i32",
               "magnus.evaluate_i32", "magnus.quad", "magnus.least_squares",
               "magnus.verify_nogo", "harness.run_scaling")
#: per-layer metric -> (unit, which direction is better); the --trace 1 output
PER_LAYER = {
    **{f"{name}.calls": ("count", "lower") for name in LAYER_SPANS},
    **{f"{name}.s": ("s", "lower") for name in LAYER_SPANS},
    "noise.sample_block.values": ("count", "lower"),
    "noise.covariance_bytes_computed": ("B", "lower"),
    "noise.eta_block_bytes_computed": ("B", "lower"),
    "noise.effective_rank.median": ("count", "lower"),
    "noise.low_rank_cell_share": ("ratio", "higher"),
    "propagator.evolve_ensemble.step_realizations": ("count", "lower"),
    "propagator.ns_per_step_realization": ("ns", "lower"),
    "metrics.accumulate_values.values": ("count", "lower"),
    "magnus.design_i32_best.3seg": ("a.u.", "lower"),
    "magnus.design_i32_best.4seg": ("a.u.", "lower"),
    "magnus.design_i32_best.5seg": ("a.u.", "lower"),
    "harness.self.s": ("s", "lower"),
    "harness.cell_s.p50": ("s", "lower"),
    "harness.cell_s.tail": ("s", "lower"),
    "harness.cell_s.tail_pct": ("%", "higher"),
    "harness.cell_s.samples": ("count", "higher"),
    "harness.chunk_overlap": ("ratio", "higher"),
    "harness.points_excluded": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.probe_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
CHUNK_SPANS = ("noise.sample_block", "propagator.evolve_ensemble",
               "metrics.ensemble_frobenius")


def cell_spans(tracer: Tracer, run_span) -> list[tuple[float, float]]:
    """(start, end) per cell: from its build_time_grid call to the end of its
    last accumulate_values call."""
    kids = sorted(tracer.children(run_span), key=lambda s: s.start)
    starts = [s.start for s in kids if s.name == "pulses.build_time_grid"]
    cells = []
    for k, start in enumerate(starts):
        stop = starts[k + 1] if k + 1 < len(starts) else math.inf
        ends = [s.end for s in kids if s.name == "metrics.accumulate_values"
                and start <= s.start < stop]
        if ends:
            cells.append((start, max(ends)))
    return cells


def layer_metrics(tracer: Tracer, outcome: PassOutcome, spec,
                  window: tuple[float, float]) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass spanning `window`, plus per-cell rows."""
    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = sum(1 for s in tracer.spans if s.name == name)
        m[f"{name}.s"] = sum(s.duration for s in tracer.outermost(name))
    for key in ("noise.sample_block.values",
                "propagator.evolve_ensemble.step_realizations",
                "metrics.accumulate_values.values"):
        m[key] = tracer.counts.get(key, 0)
    steps = m["propagator.evolve_ensemble.step_realizations"]
    m["propagator.ns_per_step_realization"] = (
        m["propagator.evolve_ensemble.s"] * 1e9 / steps if steps else 0.0)

    ranks = tracer.notes.get("cell_rank", [])
    eta_bytes = tracer.notes.get("eta_bytes", [])
    m["noise.effective_rank.median"] = (
        float(statistics.median(r for _, r in ranks)) if ranks else 0.0)
    m["noise.low_rank_cell_share"] = (
        sum(1 for n, r in ranks if r <= LOW_RANK_SHARE * n) / len(ranks) if ranks else 0.0)
    m["noise.covariance_bytes_computed"] = max((16 * n * n for n, _ in ranks), default=0)
    m["noise.eta_block_bytes_computed"] = max(eta_bytes, default=0)

    run_spans = [s for s in tracer.spans if s.name == "harness.run_scaling"]
    harness_self = 0.0
    chunk_busy = chunk_union = 0.0
    cells = []
    for run in run_spans:
        kids = tracer.children(run)
        harness_self += self_time(run, kids)
        chunk = [(s.start, s.end) for s in kids if s.name in CHUNK_SPANS]
        chunk_busy += sum(e - s for s, e in chunk)
        chunk_union += union_length(chunk)
        cells.extend(cell_spans(tracer, run))
    m["harness.self.s"] = harness_self
    cell_s = [e - s for s, e in cells]
    for key, value in timing_summary(cell_s).items():
        m[f"harness.cell_s.{key}"] = value
    m["harness.chunk_overlap"] = chunk_busy / chunk_union if chunk_union else 0.0
    m["harness.points_excluded"] = outcome.details.get("points_excluded", 0)

    for key, value in outcome.details.get("design_i32_best", {}).items():
        m[f"magnus.design_i32_best.{key}"] = value

    start, end = window
    top = [(max(s.start, start), min(s.end, end)) for s in tracer.spans if s.parent is None]
    covered = union_length((s, e) for s, e in top if e > s)
    m["trace.wall_s"] = end - start
    m["trace.uncovered_s"] = (end - start) - covered
    m["trace.probe_s"] = sum(s.duration for s in tracer.spans if s.name == "bench.probe")

    rows = []
    for cell, (n, rank), seconds in zip(outcome.details.get("cells", []), ranks, cell_s):
        rows.append(dict(cell, steps=n, realizations=spec.realizations,
                         step_realizations=n * spec.realizations, effective_rank=rank,
                         covariance_bytes_computed=16 * n * n,
                         eta_block_bytes_computed=8 * n * min(spec.chunk, spec.realizations),
                         cell_s=seconds))
    return m, rows


def run_pass(spec, catalog, seed: int, workers: int,
             tracer: Tracer | None = None) -> tuple[PassOutcome | None, str, float, float]:
    """One pass, traced when a tracer is given.

    Returns (outcome, error, start, end); outcome is None and error names the
    exception when pulselab raised one of its own errors.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = spec.run(catalog, seed, workers)
        else:
            with tracer.patched(trace_targets(tracer)):
                outcome = spec.run(catalog, seed, workers)
    except PulselabError as exc:
        return None, f"{type(exc).__name__}: {exc}", start, time.perf_counter()
    return outcome, "", start, time.perf_counter()
