"""One benchmark process: set up a workload, time its passes, check them.

Started by ``run.py`` in a fresh interpreter with the BLAS thread variables
pinned and ``src`` on the path.  ``--spawned`` is the parent's monotonic clock
just before the start, so set-up time runs from process start to "inputs
ready".  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=5)).hexdigest()


def _run_pass(tasks, tracer, kernel_times=None):
    """One pass over the tasks: (wall seconds, outputs, errors by task,
    seconds by task).

    With a list ``kernel_times``, the reference kernel runs between tasks
    about every KERNEL_EVERY_S and its times are appended there; the wall
    leaves them out.  An error is kept as (type, message): a kept exception
    would hold this frame, and with it the pass's outputs, in a cycle until
    the collector runs, so peak memory would depend on when it does.
    """
    from calibrate import KERNEL_EVERY_S, kernel_s

    outputs, errors, times = {}, {}, []
    t0 = last_kernel = time.perf_counter()
    in_kernel = 0.0
    for task in tasks:
        t = time.perf_counter()
        try:
            outputs[task.name] = task.run(tracer)
        except Exception as exc:  # a failed operation: record, go on
            errors[task.name] = (type(exc), f"{type(exc).__name__}: {exc}")
        now = time.perf_counter()
        times.append(now - t)
        if kernel_times is not None and now - last_kernel >= KERNEL_EVERY_S:
            kernel_times.append(kernel_s())
            last_kernel = time.perf_counter()
            in_kernel += last_kernel - now
    return time.perf_counter() - t0 - in_kernel, outputs, errors, times


def _outcomes(tasks, outputs, errors):
    """Digest of each task's output, or its error."""
    return {t.name: _digest(outputs[t.name]) if t.name in outputs
            else errors[t.name][1] for t in tasks}


def _timed_passes(tasks, tracer, budget_s, reference, kernel_times=None):
    """Repeat the pass until budget_s has elapsed (at least once).

    Returns the pass walls, the seconds of each task in each pass, the span
    mark at the start of each pass and the tasks whose outcome differed from
    ``reference``.
    """
    walls, task_times, marks, unsteady = [], [], [], set()
    start = time.monotonic()
    while not walls or time.monotonic() - start < budget_s:
        marks.append(tracer.mark() if tracer.enabled else 0)
        wall, outputs, errors, times = _run_pass(tasks, tracer, kernel_times)
        walls.append(wall)
        task_times.append(times)
        outcomes = _outcomes(tasks, outputs, errors)
        del outputs, errors         # one pass's outputs alive at a time
        unsteady |= {name for name, out in outcomes.items()
                     if out != reference[name]}
    return walls, task_times, marks, unsteady


def _median_pass(task_times):
    """Sum over tasks of each task's median seconds across the passes.

    This host's speed varies by 10-20% from one pass to the next; a median
    per task uses every pass of the run, where a median of whole passes rests
    on the few passes a run holds.
    """
    return sum(statistics.median(ts) for ts in zip(*task_times))


def _layer_metrics(tracer, setup_end, marks, walls, setup_s, import_s):
    """Per-layer self times and calls: set-up plus the mean traced pass."""
    from workloads import LAYER_SPANS

    setup_self, setup_calls, setup_cov = tracer.summary(0, setup_end)
    per_pass = [tracer.summary(a, b)
                for a, b in zip(marks, marks[1:] + [tracer.mark()])]
    n = len(per_pass)
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = setup_self.get(name, 0.0) + sum(
            p[0].get(name, 0.0) for p in per_pass) / n
        out[f"{name}_calls"] = (setup_calls.get(name, 0)
                                + per_pass[0][1].get(name, 0))
    mean_wall = statistics.fmean(walls)
    out["trace.wall_s"] = mean_wall
    out["trace.setup_s"] = setup_s
    out["trace.import_s"] = import_s
    out["trace.glue_s"] = ((setup_s - import_s - setup_cov)
                           + mean_wall - sum(p[2] for p in per_pass) / n)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_import = time.monotonic()
    import oneside_levy
    import_s = time.monotonic() - t_import
    src = (Path.cwd() / "src").resolve()
    if src not in Path(oneside_levy.__file__).resolve().parents:
        print(f"imported oneside_levy from {oneside_levy.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    from calibrate import SETUP_KERNEL_RUNS, kernel_s, speed_factor
    from spans import NullTracer, Tracer, nested_spans
    from workloads import COUNTERS, NESTED_SPANS, WORKLOADS

    def traced(tracer):
        return (nested_spans(tracer, NESTED_SPANS) if tracer.enabled
                else nullcontext())

    tracer = Tracer() if args.trace else NullTracer()
    with traced(tracer):
        workload = WORKLOADS[args.workload](args.seed, tracer)
    setup_s = time.monotonic() - args.spawned
    setup_ref_s = setup_s * speed_factor(
        [kernel_s() for _ in range(SETUP_KERNEL_RUNS)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0
    setup_end = tracer.mark() if tracer.enabled else 0

    # An untimed first pass warms caches and lazy imports and is the one
    # checked; every timed pass must reproduce its outcomes exactly.
    tasks = workload.tasks()
    _, outputs, errors, _ = _run_pass(tasks, NullTracer())
    reference = _outcomes(tasks, outputs, errors)
    failures, known = {}, []
    for task in tasks:
        if task.name in errors:
            failures[task.name] = reference[task.name]
            if errors[task.name][0] is task.known_defect:
                known.append(task.name)
    for name, message in workload.check(outputs):
        failures.setdefault(name, message)
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update(workload.counters(outputs))
    del outputs, errors

    budget = args.seconds / 2 if args.trace else args.seconds
    kernel_times = []
    walls, task_times, _, unsteady = _timed_passes(
        tasks, NullTracer(), budget, reference, kernel_times)
    raw_wall_s = _median_pass(task_times)
    metrics = {"wall_s": raw_wall_s * speed_factor(kernel_times)}
    if args.trace:
        with traced(tracer):
            t_walls, _, marks, t_unsteady = _timed_passes(
                tasks, tracer, budget, reference)
        unsteady |= t_unsteady
        metrics.update(_layer_metrics(tracer, setup_end, marks, t_walls,
                                      setup_s, import_s))
        metrics["trace.overhead_frac"] = (statistics.fmean(t_walls)
                                          / statistics.fmean(walls) - 1.0)
    for name in unsteady:
        failures.setdefault(name, "outcome differs between passes")

    metrics.update(counters)
    metrics.update(_derived(metrics, counters))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    metrics["failed_frac"] = len(failures) / len(tasks)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "raw_wall_s": raw_wall_s,
        "kernel_times": kernel_times,
        "passes": len(walls),
        "walls": walls,
        "tasks": len(tasks),
        "failures": failures,
        "known_defects": known,
        "outputs_digest": _digest(sorted(reference.items())),
        "metrics": metrics,
        "runtime": {"numpy": np.__version__, "scipy": scipy.__version__,
                    "blas": blas, "pid": os.getpid()},
    }))
    return 0


def _derived(metrics, counters):
    wall = metrics["wall_s"]
    out = {"paths_per_s": counters.get("paths_per_pass", 0) / wall}
    events = counters.get("mc.events", 0)
    slots = counters.get("mc.slots", 0)
    exc = counters.get("mc.excursions", 0)
    out["mc.live_fraction"] = events / slots if slots else 0.0
    out["mc.completion_ratio"] = (counters.get("mc.completions", 0) / exc
                                  if exc else 0.0)
    mc_s = metrics.get("mc.engine_s", 0.0) + metrics.get(
        "mc.first_transition_s", 0.0)
    if "mc.engine_s" in metrics:
        out["mc.events_per_s"] = events / mc_s if mc_s else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
