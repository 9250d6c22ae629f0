#!/usr/bin/env python3
"""pulselab benchmark: one workload per process, fixed seeds, gated outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_gauss --seed 7 --seconds 40 --trace 0

The process first times its own set-up (interpreter start, ``import pulselab``,
``load_catalog()``) in fresh child processes, then repeats whole passes of
the workload until ``--seconds`` since its start are used up (at least three
passes untraced).  Every pass is checked: fitted slopes, closed forms,
design feasibility, no-go positivity, and the SHA-256 of its outputs must
equal the first pass's.  A failed check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, read from
spans the benchmark records around calls into pulselab (see tracing.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full report (manifest, digests, checks, per-cell rows).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()

#: (chunk threads, BLAS threads) per workload; 0 BLAS threads means the CPUs
#: left per chunk thread.  Set before numpy is imported.  design_nogo keeps one
#: BLAS thread: its 2048-point verify_nogo ran in 0.4-0.5 s on one thread
#: against 0.8-0.9 s on two (2-vCPU VM, OpenBLAS 0.3.31).
THREADS = {"sweep_gauss": (1, 0), "sweep_exp_fine": (2, 1), "design_nogo": (1, 1)}
SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import pulselab; "
              "pulselab.load_catalog(); print('ready', flush=True)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "result_s_to_1pct": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def thread_counts(workload: str) -> tuple[int, int, int]:
    nproc = len(os.sched_getaffinity(0))
    workers, blas = THREADS[workload]
    workers = min(workers, nproc)
    return nproc, workers, blas or max(1, nproc // workers)


def measure_setup(root: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to its catalog being loaded."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return times


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def manifest(args, root, spec, nproc, workers, blas) -> dict:
    import numpy
    import scipy
    import pulselab
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_commit": git_commit(root),
        "pulselab": pulselab.__version__, "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
        "nproc": nproc,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "blas_threads": blas, "workers": workers,
        "workload": args.workload, "spec": repr(spec), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pulselab", "__init__.py")):
        print("perfbench: no src/pulselab here; run from the repository root",
              file=sys.stderr)
        return 2
    nproc, workers, blas = thread_counts(args.workload)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    setup = measure_setup(root)

    sys.path.insert(0, src)
    from pulselab import load_catalog
    import workloads
    from tracing import Tracer

    spec = workloads.WORKLOADS[args.workload]
    catalog = load_catalog()
    deadline = STARTED + args.seconds
    warmup, plain, traced, errors = [], [], [], []

    def one(into: list, tracer=None) -> bool:
        outcome, error, start, end = workloads.run_pass(spec, catalog, args.seed,
                                                        workers, tracer)
        if outcome is None:
            errors.append(error)
            return False
        into.append((outcome, end - start, tracer, (start, end)))
        return True

    def room(per_round: float) -> bool:
        return time.perf_counter() + per_round <= deadline

    if args.trace == 0:
        while one(plain) and (len(plain) < MIN_PASSES
                              or room(statistics.median(w for _, w, _, _ in plain))):
            pass
    # a process's first pass runs cold (allocator, BLAS threads), so the
    # traced-minus-untraced overhead leaves it out
    elif one(warmup):
        while one(plain) and one(traced, Tracer()):
            round_s = (statistics.median(w for _, w, _, _ in plain)
                       + statistics.median(w for _, w, _, _ in traced))
            if not room(round_s):
                break
    passes = warmup + plain + traced
    if not plain or (args.trace and not traced):
        print(f"perfbench: no pass to measure: {errors}", file=sys.stderr)
        return 1

    first = passes[0][0]
    failed_checks = []
    attempted = len(errors)
    for k, (outcome, _, _, _) in enumerate(passes):
        attempted += len(outcome.checks)
        failed_checks += [(k, name, detail) for name, ok, detail in outcome.checks if not ok]
        if k:
            attempted += 1
            if outcome.digest != first.digest:
                failed_checks.append((k, "digest", outcome.digest))
    failed = len(failed_checks) + len(errors)

    plain_walls = [w for _, w, _, _ in plain]
    wall = statistics.median(plain_walls)
    report = {
        "manifest": manifest(args, root, spec, nproc, workers, blas),
        "setup_s": setup,
        "warmup_pass_wall_s": [w for _, w, _, _ in warmup],
        "pass_wall_s": plain_walls,
        "traced_pass_wall_s": [w for _, w, _, _ in traced],
        "digest": first.digest,
        "checks": first.checks,
        "failed_checks": failed_checks,
        "errors": errors,
        "details": first.details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "result_s_to_1pct": wall / first.results * first.accuracy_factor,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        per_pass, rows = [], []
        for outcome, _, tracer, window in traced:
            layer, cells = workloads.layer_metrics(tracer, outcome, spec, window)
            per_pass.append(layer)
            rows = rows or cells
        traced_wall = statistics.median(w for _, w, _, _ in traced)
        metrics = {}
        for name, unit in workloads.PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = traced_wall - wall
            else:
                value = statistics.median(p.get(name, 0.0) for p in per_pass)
            metrics[name] = {"value": value, "unit": unit}
        report["cells"] = rows
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
