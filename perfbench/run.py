"""Benchmark of the three oneside_levy routes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is a workload of ``BENCHMARK.json`` or
``all``.  Each workload runs in one worker process with one BLAS thread; two
more fresh processes only repeat its set-up, so that ``setup_s`` is the median
of three.  With ``--trace 0`` the passes run untraced for S seconds; with
``--trace 1`` half of S is untraced and half traced, which gives the
per-layer metrics and the tracing overhead.  ``all`` runs every workload
traced.  ``wall_s``, ``setup_s`` and ``paths_per_s`` are in reference
seconds: measured seconds rescaled by a kernel timed in the same process
(``calibrate.py``), since this host's speed drifts over minutes; the
measured ones are in the JSON line.  Per-layer times are measured seconds.

Prints a table of every metric, then one JSON line with the provenance and
all measurements, then, last, the result line: ``correct``, ``attempted`` and
``failed`` (distinct tasks) and the metrics that ``BENCHMARK.json`` lists for
the chosen trace mode, each with its unit.  Exits 1 without a result line when
a worker fails, and 2 when the program's sources are not in ``./src``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2            # extra fresh processes timing set-up alone
TIME_LIMIT_S = 170.0        # per run, all workers included


class WorkerError(RuntimeError):
    pass


def _git_sha(root: Path):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _provenance(root: Path, seed: int, env: dict) -> dict:
    return {"seed": seed,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "threads": {v: env[v] for v in THREAD_VARS},
            "python": platform.python_version(),
            "machine": platform.machine(),
            "git_sha": _git_sha(root),
            "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": _getconf("LEVEL3_CACHE_SIZE")}


def _spawn(args, env, deadline):
    """Run one worker; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded the time limit: {args}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, env, deadline) -> dict:
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    setups = [_spawn(common + ["--trace", "0", "--setup-only"], env,
                     deadline) for _ in range(SETUP_PROBES)]
    res = _spawn(common + ["--trace", str(trace)], env, deadline)
    setups.append(res)
    res["setup_samples"] = [s["setup_s"] for s in setups]
    res["setup_ref_samples"] = [s["setup_ref_s"] for s in setups]
    res["metrics"]["setup_s"] = statistics.median(res["setup_ref_samples"])
    unexpected = set(res["failures"]) - set(res["known_defects"])
    res["correct"] = not unexpected
    return res


def _select(metrics, specs, prefix=""):
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        raise WorkerError(f"metrics not measured: {missing}")
    return {prefix + m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in specs}


def _table(name, res, specs):
    lines = [f"== {name}: {res['tasks']} tasks, "
             f"{len(res['failures'])} failed, {res['passes']} untraced passes"]
    for m in specs:
        lines.append(f"  {m['name']:<36} {res['metrics'][m['name']]:>16.6g} "
                     f"{m['unit']}")
    for task, why in res["failures"].items():
        known = " (known defect)" if task in res["known_defects"] else ""
        lines.append(f"  FAILED {task}: {why}{known}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    src = root / "src" / "oneside_levy"
    if not (src / "__init__.py").is_file():
        print(f"no oneside_levy sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        names, trace = workloads, 1
    elif args.workload in workloads:
        names, trace = [args.workload], args.trace
    else:
        ap.error(f"unknown workload {args.workload!r}; one of {workloads} "
                 "or all")

    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **{v: "1" for v in THREAD_VARS})
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)

    specs = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, trace, env,
                               deadline)
            results[name] = res
            print(_table(name, res, specs), flush=True)
            print(json.dumps({"workload": name, "seconds": args.seconds,
                              "trace": trace,
                              "provenance": _provenance(root, args.seed, env),
                              **res}), flush=True)
        if args.workload == "all":
            metrics = {}
            for name, res in results.items():
                metrics.update(_select(res["metrics"], specs, f"{name}/"))
        else:
            chosen = spec["per_layer"] if trace else spec["end_to_end"]
            metrics = _select(results[names[0]]["metrics"], chosen)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["tasks"] for r in results.values()),
        "failed": sum(len(r["failures"]) for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
