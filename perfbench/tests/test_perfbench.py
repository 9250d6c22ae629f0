"""Tests of the benchmark itself: span arithmetic, the percentile rule,
patch restoration, and a tiny size of every workload passing its gates.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import os
import threading

import pytest

from pulselab import NoiseSampler, harness, load_catalog, magnus

import run
import workloads
from tracing import Span, Tracer, self_time, tail_percentile, timing_summary, union_length

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_union_counts_overlap_once():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([]) == 0.0


def test_self_time_with_overlapping_thread_children():
    parent = Span(1, "harness.run_scaling", None, 1, 0.0, 10.0)
    children = [
        Span(2, "noise.sample_block", 1, 2, 1.0, 4.0),         # worker thread A
        Span(3, "noise.sample_block", 1, 3, 2.0, 6.0),         # worker thread B, overlaps A
        Span(4, "metrics.accumulate_values", 1, 1, 8.0, 9.0),
        Span(5, "pulses.build_time_grid", 1, 1, 9.5, 12.0),    # runs past the parent
    ]
    # covered: [1, 6] + [8, 9] + [9.5, 10] = 6.5 of 10
    assert self_time(parent, children) == pytest.approx(3.5)


def test_worker_thread_spans_hang_off_the_open_span():
    tracer = Tracer()

    def work():
        with tracer.span("inner"):
            pass

    with tracer.span("outer"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.sid
    assert inner.thread != outer.thread


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (1.0 - expected / 100.0) >= 10.0 - 1e-9


def test_timing_summary_falls_back_to_median_below_twenty_samples():
    summary = timing_summary([float(k) for k in range(1, 12)])
    assert summary == {"p50": 6.0, "tail": 6.0, "tail_pct": 50.0, "samples": 11}
    summary = timing_summary([float(k) for k in range(100)])
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == pytest.approx(89.1)


def _targets():
    return [(owner, attr) for owner, attr, _, _ in workloads.trace_targets(Tracer())]


def test_patched_restores_every_wrapped_name():
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in _targets()}
    tracer = Tracer()
    with tracer.patched(workloads.trace_targets(tracer)):
        assert magnus.quad is not before[(id(magnus), "quad")]
        assert NoiseSampler.sample_block is not before[(id(NoiseSampler), "sample_block")]
    after = {(id(owner), attr): vars(owner)[attr] for owner, attr in _targets()}
    assert after == before


def test_patched_restores_after_an_exception():
    original = harness.evolve_ensemble
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched([(harness, "evolve_ensemble", "x", None)]):
            raise RuntimeError("traced code failed")
    assert harness.evolve_ensemble is original


def test_patched_refuses_a_missing_name_and_restores_the_others():
    original = harness.evolve_ensemble
    tracer = Tracer()
    with pytest.raises(AttributeError):
        with tracer.patched([(harness, "evolve_ensemble", "x", None),
                             (harness, "no_such_layer", "y", None)]):
            pass
    assert harness.evolve_ensemble is original
    assert not hasattr(harness, "no_such_layer")


TINY = {
    "sweep_gauss": workloads.SweepSpec(
        workloads.GAUSS, workloads.GAUSSIAN_TARGETS, (1e-3, 1e-1), points=4,
        realizations=8192, steps=128, chunk=4096),
    "sweep_exp_fine": workloads.SweepSpec(
        workloads.EXP, workloads.EXPONENTIAL_TARGETS, (1e-3, 3e-2), points=3,
        realizations=1024, steps=256, chunk=512),
    "design_nogo": workloads.DesignSpec(budget=300, restarts=3, nogo_grids=(64, 128),
                                        reference={3: 0.00019317106305014414,
                                                   5: 0.00017488475873906673}),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_gates_traced_and_untraced(name):
    assert set(TINY) == set(workloads.WORKLOADS)
    spec = TINY[name]
    catalog = load_catalog()
    workers = run.THREADS[name][0]
    plain, error, _, _ = workloads.run_pass(spec, catalog, 7, workers)
    assert error == ""
    assert all(ok for _, ok, _ in plain.checks), plain.checks

    tracer = Tracer()
    traced, error, start, end = workloads.run_pass(spec, catalog, 7, workers, tracer)
    assert error == ""
    assert traced.digest == plain.digest
    metrics, rows = workloads.layer_metrics(tracer, traced, spec, (start, end))
    assert set(metrics) <= set(workloads.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    # the top-level spans cover the pass; only the gates run outside them
    assert 0.0 <= metrics["trace.uncovered_s"] < 0.2 * metrics["trace.wall_s"]
    if isinstance(spec, workloads.SweepSpec):
        cells = len(spec.targets) * spec.points
        assert metrics["harness.cell_s.samples"] == cells == len(rows)
        assert metrics["noise.build_sampler.calls"] == cells
        assert 0.0 <= metrics["harness.self.s"] < metrics["harness.run_scaling.s"]
        assert metrics["propagator.evolve_ensemble.step_realizations"] == (
            cells * spec.steps * spec.realizations)
    else:
        assert metrics["magnus.minimize_i32.calls"] == len(spec.reference)
        assert metrics["magnus.verify_nogo.calls"] == len(spec.nogo_grids)
        assert metrics["noise.sample_block.calls"] == 0


def test_a_design_worse_than_its_reference_fails_its_gate():
    spec = TINY["design_nogo"]
    better = {n: value * 0.99 for n, value in spec.reference.items()}
    outcome, error, _, _ = workloads.run_pass(
        workloads.DesignSpec(spec.budget, spec.restarts, spec.nogo_grids, better),
        load_catalog(), 7, 1)
    assert error == ""
    failed = [name for name, ok, _ in outcome.checks if not ok]
    assert failed == [f"design {n}seg" for n in better]


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == workloads.PER_LAYER


def test_runner_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "design_nogo", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
