"""The pulselab names that the benchmark wraps or clears still exist.

``perfbench/workloads.py`` wraps layer entry points by attribute name and
clears the closed-form cache before each design pass, timing cold calls.  A
simplification that deletes one of those names fails here, in the unit
suite, instead of when the benchmark runs.  So does one that moves a call
away from a wrapped name, which would leave its span reading 0.  Nothing
under ``perfbench/`` is changed: the tracer puts every attribute back on exit.
"""

import os
import sys
from collections import Counter

from pulselab import AutocorrelationModel, ScalingExperimentConfig, harness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        from tracing import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    return workloads, Tracer


def test_benchmark_trace_targets_exist():
    workloads, Tracer = _perfbench()
    tracer = Tracer()
    targets = workloads.trace_targets(tracer)
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    with tracer.patched(targets):
        pass
    assert [getattr(owner, attr) for owner, attr, _, _ in targets] == originals
    assert callable(workloads.magnus._i32_shape_kernel.cache_clear)


def test_traced_sweep_spans_fire():
    # 6 cells of 2 full chunks and a 37-realization remainder, one group of
    # three chunks drawn in two row tiles of 32 steps each
    workloads, Tracer = _perfbench()
    tracer = Tracer()
    config = ScalingExperimentConfig(
        pulses=("RECT", "CORPSE"), model=AutocorrelationModel("exponential", gamma=0.01),
        inv_v_grid=(1e-3, 3e-3, 1e-2), realizations=2 * 512 + 37, steps_per_pulse=64,
        chunk_size=512, workers=2)
    with tracer.patched(workloads.trace_targets(tracer)):
        harness.run_scaling(config)
    calls = Counter(s.name for s in tracer.spans)
    expected = {"noise.sample_block": 36, "propagator.evolve_ensemble": 6,
                "metrics.ensemble_frobenius": 6, "metrics.accumulate_values": 24,
                "noise.build_sampler": 6, "pulses.build_time_grid": 6,
                "harness.run_scaling": 1}
    assert {name: calls[name] for name in expected} == expected
