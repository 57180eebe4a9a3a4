"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workloads mc_longtail,exact_routes \
        --seeds 1-10 [--trace 0|1] [--seconds S] [--out FILE]

Run from the repository root.  Runs ``run.py`` once per workload and seed,
one after another, and prints for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median.  With ``--trace 0`` the
spread of each end-to-end metric is compared with a third of its bound in
``BENCHMARK.json``; ``setup_s`` is exempt, since only its median is gated.
``--out`` writes every value to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    steady = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        report[wl] = {"runs": runs, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            report[wl]["metrics"][name] = {**s, "values": values}
            line = (f"  {name:<36} median {s['median']:<12.6g} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                    f"spread {s['spread']:.4f}")
            if name in bounds and name != "setup_s":
                ok = s["spread"] < bounds[name] / 3
                steady &= ok
                line += f"  (bound/3 {bounds[name] / 3:.4f}: " \
                        f"{'ok' if ok else 'TOO WIDE'})"
            print(line, flush=True)
        steady &= all(r["correct"] for r in runs)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
