"""The pulselab names that the benchmark wraps or clears still exist.

``perfbench/workloads.py`` wraps layer entry points by attribute name and
clears the closed-form cache before each design pass, timing cold calls.  A
simplification that deletes one of those names fails here, in the unit
suite, instead of when the benchmark runs.  Nothing under ``perfbench/`` is
changed: the tracer puts every attribute back on exit.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_trace_targets_exist():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        from tracing import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    tracer = Tracer()
    targets = workloads.trace_targets(tracer)
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    with tracer.patched(targets):
        pass
    assert [getattr(owner, attr) for owner, attr, _, _ in targets] == originals
    assert callable(workloads.magnus._i32_shape_kernel.cache_clear)
