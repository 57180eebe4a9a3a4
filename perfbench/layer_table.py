"""Single-layer timings at the sizes of the ROADMAP baseline table.

    python3 perfbench/layer_table.py      (about 2 minutes)

Run from the repository root.  Re-executes itself with one BLAS thread and
``src`` on the path, then times each row three times and prints the median
and every sample as one JSON object.  The rows are larger than any
benchmark pass, which is why they are not part of a workload:

* ``semigroup_row`` at n=999, t=1 (uniformization, dense products);
* ``mapped_process_mc``, ND absorption at n=79 with 2e4 paths, with its
  McDiagnostics counters;
* ``j1_distance`` on a free path of about 100 jumps against a 1e-2 dither;
* ``ScaleKit.Zq`` closed form against ``Zq_series`` at m=16000.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from run import THREAD_VARS

REPEATS = 3


def _timed(fn):
    samples, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(samples), "samples_s": samples}, out


def rows():
    import numpy as np

    from oneside_levy import mc, paths, scale
    from oneside_levy.grunwald import compute_coeffs
    from oneside_levy.ratemat import (BoundaryPair, build_restricted,
                                      semigroup_row)
    from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

    exp = LaplaceExponent(LevyMeasureSpec.stable(1.5))
    out = {}

    n = 999
    Q = build_restricted(compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1)), n,
                         BoundaryPair.from_label("DN"))
    out["semigroup_row n=999 t=1"], _ = _timed(
        lambda: semigroup_row(Q, 1.0, (n + 1) // 2))

    n = 79
    c = compute_coeffs(exp, 2.0 / (n + 1), 16384)
    re = mc.reentry_table(c, j_cap=2048, mode="tails")
    row, (_, _, diag) = _timed(lambda: mc.mapped_process_mc(
        c, BoundaryPair.from_label("ND"), n, (n + 1) // 2, 20_000, seed=808,
        collect_absorption=True, reentry_cum=re))
    row.update(events=diag.events, iterations=diag.iterations,
               excursions=diag.excursions, completions=diag.completions)
    out["mapped_process_mc ND n=79 2e4 paths"] = row

    c = compute_coeffs(exp, 0.2, 2048)
    p = paths.simulate_cp(c, paths.SimConfig(seed=1010, paths=1, x0=0.0,
                                             T=6.0, tail_eps=1e-4), 3)
    jit = np.random.default_rng(0).uniform(-0.4, 0.4, size=p.n_jumps)
    gaps = np.diff([0.0, *p.epochs, p.T])
    q = paths.make_step_path(
        p.T, p.initial,
        np.asarray(p.epochs) + 1e-2 * jit * np.minimum(gaps[:-1], gaps[1:]),
        p.values)
    row, _ = _timed(lambda: paths.j1_distance(q, p))
    row["jumps"] = p.n_jumps
    out["j1_distance ~100 jumps"] = row

    kit = scale.ScaleKit(scale.ScaleGrid(a=1.0, m=16000, alpha=1.5, q=1.0))
    out["ScaleKit.Zq closed m=16000"], _ = _timed(
        lambda: kit.Zq(kit.grid.nodes))
    out["ScaleKit.Zq_series m=16000"], _ = _timed(kit.Zq_series)
    return out


def main() -> int:
    src = Path.cwd() / "src"
    if os.environ.get("PYTHONPATH") != str(src):
        env = dict(os.environ, PYTHONPATH=str(src),
                   **{v: "1" for v in THREAD_VARS})
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    print(json.dumps({"threads": {v: os.environ[v] for v in THREAD_VARS},
                      "rows": rows()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
