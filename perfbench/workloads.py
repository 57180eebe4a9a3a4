"""The three benchmark workloads.

Constructing a workload is its set-up: it draws every input from the seed and
builds the coefficient and re-entry tables.  ``tasks()`` lists the timed
operations of one pass; each task calls the layer functions through the
tracer under the span names of ``LAYER_SPANS``.  ``check()`` compares the
outputs of a pass with an independent route and returns (task, message)
pairs for every gate that fails.  ``counters()`` reads the deterministic work
counts of a pass off its outputs.

Sizes are chosen so that one pass takes a few seconds with one BLAS thread on
a 2-core x86 box; why each workload exists is recorded in BENCHMARK.json.
``exact_routes`` runs the two route groups without Monte Carlo,
``DeterministicRoutes`` and ``PathsExact``, in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from oneside_levy import mc, paths, scale
from oneside_levy.errors import EmptyRegionError, TailBoundError
from oneside_levy.grunwald import compute_coeffs
from oneside_levy.ratemat import (ALL_PAIRS, BoundaryPair, build_restricted,
                                  build_stopped, ergodic_limit_z,
                                  mean_absorption, resolvent_transpose_e,
                                  semigroup_row, stationary_interior,
                                  stopped_resolvent_profile, validity_report)
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

ALPHA = 1.5

# Span names, one per layer boundary the benchmark calls across.
LAYER_SPANS = ("grunwald.coeffs", "ratemat.build", "ratemat.semigroup",
               "ratemat.solve", "mc.table", "mc.engine",
               "mc.first_transition", "scale.closed", "scale.series",
               "scale.exit", "paths.simulate", "paths.maps", "paths.j1")

# Deterministic work counts of one pass; a workload that does not reach a
# layer reports its counters as 0.
COUNTERS = ("ratemat.semigroup_lambda_t", "ratemat.semigroup_steps",
            "ratemat.semigroup_bytes_computed", "mc.events", "mc.iterations",
            "mc.excursions", "mc.completions", "mc.paths", "mc.slots",
            "scale.series_terms", "scale.series_error_estimate",
            "paths.jumps", "paths.skipped", "paths.j1_pairs",
            "paths.j1_dp_cells", "paths_per_pass")

# Calls a layer makes into another layer, spanned when tracing is on:
# module -> {attribute: span}.
NESTED_SPANS = {mc: {"landing_law": "ratemat.solve", "jump_table": "mc.table"}}


@dataclass(frozen=True)
class Task:
    """One timed operation of a pass.

    ``known_defect`` names an error the program raises today by a known
    defect; the task still counts as failed when it raises it, but the run
    stays correct.  Any other exception is an unexpected failure.
    """

    name: str
    run: Callable
    known_defect: Optional[type] = None


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _stable() -> LaplaceExponent:
    return LaplaceExponent(LevyMeasureSpec.stable(ALPHA))


def _grid_coeffs(tr, exp, n, j_max=None):
    """Coefficients on the mesh of n interior points; CLI default j_max."""
    return tr.call("grunwald.coeffs", compute_coeffs, exp, 2.0 / (n + 1),
                   4 * (n + 1) if j_max is None else j_max)


def uniformization_steps(lam: float, t: float, tail_tol: float = 1e-12) -> int:
    """Dense products ``semigroup_row`` makes for rate lam and horizon t.

    Replays its Poisson stopping rule on the inputs alone.
    """
    mu = lam * t
    kmax = int(mu + 12.0 * math.sqrt(mu) + 50.0)
    acc, k = 0.0, 0
    while k <= kmax and acc < 1.0 - tail_tol:
        acc += math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1) if k else -mu)
        k += 1
    return k


def _mc_counters(diags) -> dict:
    return {"mc.events": sum(d.events for d in diags),
            "mc.iterations": sum(d.iterations for d in diags),
            "mc.excursions": sum(d.excursions for d in diags),
            "mc.completions": sum(d.completions for d in diags),
            "mc.paths": sum(d.n_paths for d in diags),
            # lockstep slots swept, for the live fraction (a lower bound:
            # iterations is the slowest block's count)
            "mc.slots": sum(d.iterations * d.n_paths for d in diags),
            "paths_per_pass": sum(d.n_paths for d in diags)}


def _tv_bound(states: int, n_paths: int) -> float:
    """Twice the Cauchy-Schwarz bound 0.5*sqrt(states/paths) on E[TV]."""
    return math.sqrt(states / n_paths)


def _check_marginals(task, counts, Q, i0, times, n_paths, fails):
    bound = _tv_bound(Q.size, n_paths)
    for j, t in enumerate(times):
        if counts[j].sum() != n_paths:
            fails.append((task, f"t={t}: {counts[j].sum()} paths counted"))
        tv = mc.total_variation(counts[j] / n_paths, semigroup_row(Q, t, i0))
        if tv > bound:
            fails.append((task, f"t={t}: TV {tv:.4f} > {bound:.4f}"))


# -- exact_routes, matrix and scale part ----------------------------------

class DeterministicRoutes:
    """Matrix and scale-function routes; mc and paths stay idle."""

    SEMIGROUP = {199: (0.1, 0.5, 1.0), 499: (0.1, 0.5, 1.0), 999: (0.1,)}
    LADDER = (9, 19, 39, 79, 159)
    STOPPED = (0.1, 1000, 200)               # h, levels below, levels above
    ERGODIC_BETAS = (1e-3, 1e-4, 1e-5, 1e-6)
    SCALE_M = 16000
    TEMPERED_LAM = 0.5

    def __init__(self, seed: int, tr):
        rng = _rng(seed, 1)
        self.exp = _stable()
        tempered = LaplaceExponent(
            LevyMeasureSpec.tempered_stable(ALPHA, self.TEMPERED_LAM))
        self.rows = {n: (ALL_PAIRS[int(rng.integers(len(ALL_PAIRS)))],
                         int(rng.integers(1, n + 1))) for n in self.SEMIGROUP}
        self.beta = float(rng.uniform(0.5, 2.0))
        self.q = float(rng.uniform(0.5, 1.5))
        self.c = {n: _grid_coeffs(tr, self.exp, n)
                  for n in (*self.SEMIGROUP, *self.LADDER)}
        self.c_tempered = {n: _grid_coeffs(tr, tempered, n)
                           for n in self.SEMIGROUP}
        h, below, above = self.STOPPED
        self.c_stopped = tr.call("grunwald.coeffs", compute_coeffs, self.exp,
                                 h, below + above + 8)

    def tasks(self):
        out = [Task(f"semigroup n={n} {bc.label} i0={i0}",
                    partial(self._semigroup, n, bc, i0))
               for n, (bc, i0) in self.rows.items()]
        out += [Task(f"tempered-stable build {bc.label} n={n}",
                     partial(self._tempered_build, n, bc),
                     TailBoundError if bc.label == "ND" else None)
                for n in self.SEMIGROUP for bc in ALL_PAIRS]
        out += [Task("stopped resolvent", self._stopped),
                Task("mean absorption ND", partial(self._absorption, "ND")),
                Task("mean absorption DN", partial(self._absorption, "DN")),
                Task("NN stationary", self._stationary),
                Task("scale closed forms", self._scale_closed),
                Task("scale series", self._scale_series),
                Task("scale exits", self._scale_exits)]
        return out

    def _semigroup(self, n, bc, i0, tr):
        Q = tr.call("ratemat.build", build_restricted, self.c[n], n, bc)
        rows = [tr.call("ratemat.semigroup", semigroup_row, Q, t, i0)
                for t in self.SEMIGROUP[n]]
        return {"rows": rows, "lam": float(np.max(-np.diag(Q.Q))),
                "Q": Q.Q if n <= 199 else None}

    def _tempered_build(self, n, bc, tr):
        return tr.call("ratemat.build", build_restricted, self.c_tempered[n],
                       n, bc)

    def _stopped(self, tr):
        _, below, above = self.STOPPED
        Q = tr.call("ratemat.build", build_stopped, self.c_stopped, below,
                    above)
        x = tr.call("ratemat.solve", resolvent_transpose_e, Q, self.beta,
                    Q.state_index(0))
        z, _ = tr.call("ratemat.solve", ergodic_limit_z, Q, self.ERGODIC_BETAS)
        return {"x": x, "z1": z[Q.state_index(1)], "z2": z[Q.state_index(2)]}

    def _absorption(self, label, tr):
        # Killing at the jump end of the scale chart is the grid pair ND
        # under x_scale = 1 - x_grid, so the closed-form kinds swap.
        kind = {"ND": "DN", "DN": "ND"}[label]
        out = []
        for n in self.LADDER:
            i0 = (n + 1) // 2
            Q = tr.call("ratemat.build", build_restricted, self.c[n], n,
                        BoundaryPair.from_label(label))
            grid = tr.call("ratemat.solve", mean_absorption, Q, i0)
            closed = tr.call("scale.exit", scale.mean_exit, kind,
                             1.0 - float(Q.grid[i0]), 2.0, ALPHA)
            out.append((grid, closed))
        return out

    def _stationary(self, tr):
        nn = BoundaryPair.from_label("NN")
        return [tr.call("ratemat.solve", stationary_interior,
                        tr.call("ratemat.build", build_restricted, self.c[n],
                                n, nn))
                for n in self.LADDER]

    def _kit(self):
        return scale.ScaleKit(scale.ScaleGrid(a=1.0, m=self.SCALE_M,
                                              alpha=ALPHA, q=self.q))

    def _scale_closed(self, tr):
        kit = self._kit()
        x = kit.grid.nodes
        return {name: tr.call("scale.closed", getattr(kit, name), x)
                for name in ("W", "Wq", "Zq")}

    def _scale_series(self, tr):
        kit = self._kit()
        out = {}
        for name in ("Zq_series", "Wq_series"):
            vals = tr.call("scale.series", getattr(kit, name))
            out[name] = (vals, kit.last_n_terms, kit.last_error_estimate)
        return out

    def _scale_exits(self, tr):
        kit = self._kit()
        call = partial(tr.call, "scale.exit")
        return {"mass_NN": call(kit.mass_NN, 0.3),
                "mass_DN": call(kit.mass_DN, 0.5),
                "exit_DN": call(kit.exit_laplace_DN, 0.5),
                "exit_DN_series": call(kit.exit_laplace_DN_series, 0.5),
                "density_DN": call(kit.resolvent_density_DN, 0.5),
                "density_NN": call(kit.resolvent_density_NN, 0.3)}

    def check(self, out):
        fails = []
        for n, (bc, i0) in self.rows.items():
            task = f"semigroup n={n} {bc.label} i0={i0}"
            if task not in out:
                continue
            o = out[task]
            for t, row in zip(self.SEMIGROUP[n], o["rows"]):
                if row.min() < 0.0:
                    fails.append((task, f"t={t}: negative entry {row.min():g}"))
                if row.sum() > 1.0 + 1e-12:
                    fails.append((task, f"t={t}: mass {row.sum():.16g} > 1"))
                if "D" not in bc.label and abs(row[1:n + 1].sum() - 1.0) > 1e-12:
                    fails.append((task, f"t={t}: interior mass "
                                        f"{row[1:n + 1].sum():.16g} != 1"))
                if o["Q"] is not None:
                    err = float(np.max(np.abs(
                        row - scipy.linalg.expm(t * o["Q"])[i0])))
                    if err > 1e-10:
                        fails.append((task, f"t={t}: expm mismatch {err:.2e}"))
        for n in self.SEMIGROUP:
            for bc in ALL_PAIRS:
                task = f"tempered-stable build {bc.label} n={n}"
                if task in out:
                    v = validity_report(out[task])
                    bad = [k for k in ("row_sums_ok", "offdiag_ok",
                                       "holding_ok", "absorbing_rows_ok")
                           if not v[k]]
                    if bad:
                        fails.append((task, "validity: " + ", ".join(bad)))
        if "stopped resolvent" in out:
            o = out["stopped resolvent"]
            _, below, above = self.STOPPED
            profile = stopped_resolvent_profile(self.exp, self.c_stopped,
                                                self.beta, -below, above)
            sup = float(np.max(np.abs(o["x"] - profile)))
            if sup > 1e-8:
                fails.append(("stopped resolvent", f"profile sup err {sup:.2e}"))
            if abs(o["z1"] - 0.5) > 1e-3 or abs(o["z2"] - 0.125) > 1e-3:
                fails.append(("stopped resolvent",
                              f"ergodic limit z1={o['z1']:.5f} z2={o['z2']:.5f}"))
        for label in ("ND", "DN"):
            task = f"mean absorption {label}"
            if task in out:
                errs = [abs(g - c) / c for g, c in out[task]]
                if any(b >= a for a, b in zip(errs, errs[1:])):
                    fails.append((task, f"errors not decreasing {errs}"))
                if errs[-1] > 0.02:
                    fails.append((task, f"top-n relative error {errs[-1]:.4f}"))
        if "NN stationary" in out:
            for n, pi in zip(self.LADDER, out["NN stationary"]):
                dev = float(np.max(np.abs(pi - 1.0 / n)))
                if dev >= 1e-12:
                    fails.append(("NN stationary", f"n={n}: deviation {dev:.1e}"))
        fails += self._check_scale(out)
        return fails

    def _check_scale(self, out):
        """Criterion-7 identities, at the drawn discount rate q."""
        names = ("scale closed forms", "scale series", "scale exits")
        if not all(k in out for k in names):
            return []       # a route raised; that task already counts as failed
        closed, series, exits = (out[k] for k in names)
        q, kit = self.q, self._kit()
        zc, wc = closed["Zq"], closed["Wq"]
        zs, ws = series["Zq_series"][0], series["Wq_series"][0]
        int_qw = scale.cumulative_integral(q * ws, kit.grid.dx, kink=ALPHA)
        errs = {
            "scale series": [
                ("Zq series vs closed (rel)", float(np.max(np.abs(zs - zc) / zc)), 1e-8),
                ("q Wq series vs closed", float(np.max(np.abs(q * ws - q * wc))), 1e-8),
                ("q I Wq vs Zq - 1", float(np.max(np.abs(int_qw - (zc - 1.0)))), 1e-8)],
            "scale exits": [
                ("q mass NN vs 1", abs(q * exits["mass_NN"] - 1.0), 1e-6),
                ("q mass DN vs 1 - exit DN",
                 abs(q * exits["mass_DN"] - (1.0 - exits["exit_DN"])), 1e-6),
                ("exit DN closed vs series",
                 abs(exits["exit_DN"] - exits["exit_DN_series"]), 1e-8)]}
        return [(task, f"{what} {err:.2e} > {tol:g}")
                for task, rows in errs.items() for what, err, tol in rows
                if not err <= tol]

    def counters(self, out):
        lam_t = steps = bytes_ = 0
        for n, (bc, i0) in self.rows.items():
            o = out.get(f"semigroup n={n} {bc.label} i0={i0}")
            if o is None:
                continue
            for t in self.SEMIGROUP[n]:
                k = uniformization_steps(o["lam"], t)
                lam_t += o["lam"] * t
                steps += k
                bytes_ += k * 8 * (n + 2) ** 2
        series = out.get("scale series", {})
        return {"ratemat.semigroup_lambda_t": lam_t,
                "ratemat.semigroup_steps": steps,
                "ratemat.semigroup_bytes_computed": bytes_,
                "scale.series_terms": sum(v[1] for v in series.values()),
                "scale.series_error_estimate":
                    max((v[2] for v in series.values()), default=0.0)}


# -- mc_longtail -------------------------------------------------------------

class McLongtail:
    """Lockstep engine where heavy-tailed excursions set block lifetime."""

    N_ABS = 79                 # criterion 8 Monte Carlo leg
    # Two calls of one lockstep block each: a block lives as long as its
    # slowest path, so two independent blocks vary less from seed to seed.
    ABS_CALLS = 2
    ABS_PATHS = 2048
    N_PROBE = 9                # criterion 5's costly pairs
    PROBE_PATHS = 4096
    PROBE_TIMES = (0.1, 0.5, 1.0)
    FT_PATHS = 4096            # criterion 4, greens table

    def __init__(self, seed: int, tr):
        rng = _rng(seed, 2)
        self.seeds = [int(s) for s in rng.integers(2 ** 31, size=4)]
        self.abs_seeds = [int(s) for s in
                          rng.integers(2 ** 31, size=self.ABS_CALLS)]
        self.exp = _stable()
        self.c_abs = _grid_coeffs(tr, self.exp, self.N_ABS, 16384)
        self.c_probe = _grid_coeffs(tr, self.exp, self.N_PROBE, 8192)
        table = partial(tr.call, "mc.table", mc.reentry_table)
        self.re_abs = table(self.c_abs, j_cap=2048, mode="tails")
        self.re_probe = table(self.c_probe, j_cap=2048, mode="tails")
        self.re_greens = table(self.c_probe, m_below=3000, j_cap=1024,
                               mode="greens")

    def tasks(self):
        return [*(Task(f"ND absorption n={self.N_ABS} #{k}",
                       partial(self._absorption, seed))
                  for k, seed in enumerate(self.abs_seeds)),
                Task(f"NN marginals n={self.N_PROBE}",
                     partial(self._marginals, "NN", self.seeds[1])),
                Task(f"ND marginals n={self.N_PROBE}",
                     partial(self._marginals, "ND", self.seeds[2])),
                Task("first transition", self._first_transition)]

    def _absorption(self, seed, tr):
        n = self.N_ABS
        _, times, diag = tr.call(
            "mc.engine", mc.mapped_process_mc, self.c_abs,
            BoundaryPair.from_label("ND"), n, (n + 1) // 2, self.ABS_PATHS,
            seed=seed, collect_absorption=True,
            reentry_cum=self.re_abs)
        return times, diag

    def _marginals(self, label, seed, tr):
        n = self.N_PROBE
        counts, _, diag = tr.call(
            "mc.engine", mc.mapped_process_mc, self.c_probe,
            BoundaryPair.from_label(label), n, (n + 1) // 2,
            self.PROBE_PATHS, seed=seed, probe_times=self.PROBE_TIMES,
            reentry_cum=self.re_probe)
        return counts, diag

    def _first_transition(self, tr):
        return tr.call("mc.first_transition", mc.first_transition_mc,
                       self.c_probe, self.FT_PATHS, self.seeds[3],
                       reentry_cum=self.re_greens)

    def check(self, out):
        fails = []
        n = self.N_ABS
        Q = build_restricted(compute_coeffs(self.exp, 2.0 / (n + 1),
                                            4 * (n + 1)),
                             n, BoundaryPair.from_label("ND"))
        ref = mean_absorption(Q, (n + 1) // 2)
        for k in range(self.ABS_CALLS):
            task = f"ND absorption n={n} #{k}"
            if task not in out:
                continue
            times = out[task][0]
            se = float(np.std(times, ddof=1)) / math.sqrt(len(times))
            if abs(times.mean() - ref) > 4.0 * se:
                fails.append((task, f"mean {times.mean():.5f} vs matrix "
                                    f"{ref:.5f}, > 4 SE ({se:.5f})"))
        n = self.N_PROBE
        c_mat = compute_coeffs(self.exp, 2.0 / (n + 1), 4 * (n + 1))
        for label in ("NN", "ND"):
            task = f"{label} marginals n={n}"
            if task in out:
                Q = build_restricted(c_mat, n, BoundaryPair.from_label(label))
                _check_marginals(task, out[task][0], Q, (n + 1) // 2,
                                 self.PROBE_TIMES, self.PROBE_PATHS, fails)
        if "first transition" in out:
            holds, lands, _ = out["first transition"]
            c = self.c_probe
            g0 = float(c.g[0])
            se = float(np.std(holds, ddof=1)) / math.sqrt(len(holds))
            if abs(holds.mean() - 1.0 / g0) > 4.0 * se:
                fails.append(("first transition",
                              f"mean hold {holds.mean():.5f} vs 1/G0 "
                              f"{1.0 / g0:.5f}, > 4 SE"))
            for j in (1, 2, 3, 4):
                z = float(c.tail[j + 1]) / g0
                p = float(np.mean(lands == j))
                if abs(p - z) > 4.0 * math.sqrt(z * (1.0 - z) / len(lands)):
                    fails.append(("first transition",
                                  f"landing {j}: {p:.5f} vs {z:.5f}, > 4 SE"))
        return fails

    def counters(self, out):
        return _mc_counters([o[-1] for o in out.values()])


# -- mc_horizon -------------------------------------------------------------

class McHorizon:
    """The same engine at fixed horizons, without left fast-forwarding."""

    SIZES = (9, 79)
    PAIRS = ("DD", "DN", "N*D", "N*N")
    PATHS = 8192               # one lockstep block per call
    TIMES = (0.1, 0.5, 1.0)

    def __init__(self, seed: int, tr):
        rng = _rng(seed, 3)
        self.seeds = {(n, label): int(rng.integers(2 ** 31))
                      for n in self.SIZES for label in self.PAIRS}
        self.exp = _stable()
        self.c = {n: _grid_coeffs(tr, self.exp, n, 8192) for n in self.SIZES}

    def tasks(self):
        return [Task(f"{label} marginals n={n}",
                     partial(self._marginals, n, label))
                for n in self.SIZES for label in self.PAIRS]

    def _marginals(self, n, label, tr):
        counts, _, diag = tr.call(
            "mc.engine", mc.mapped_process_mc, self.c[n],
            BoundaryPair.from_label(label), n, (n + 1) // 2, self.PATHS,
            seed=self.seeds[n, label], probe_times=self.TIMES)
        return counts, diag

    def check(self, out):
        fails = []
        for n in self.SIZES:
            c_mat = compute_coeffs(self.exp, 2.0 / (n + 1), 4 * (n + 1))
            for label in self.PAIRS:
                task = f"{label} marginals n={n}"
                if task in out:
                    Q = build_restricted(c_mat, n,
                                         BoundaryPair.from_label(label))
                    _check_marginals(task, out[task][0], Q, (n + 1) // 2,
                                     self.TIMES, self.PATHS, fails)
        return fails

    def counters(self, out):
        return _mc_counters([o[-1] for o in out.values()])


# -- exact_routes, path part -------------------------------------------------

@dataclass
class _FreePathOut:
    jumps: int
    kills: tuple                # kill_left(kill_right(p)), kill_right(kill_left(p))
    fast_forwards: Optional[tuple]   # None when the region is empty (a skip)
    in_region_time: Fraction    # Lebesgue time of p in (-1, 1)
    mapped: dict                # boundary label -> apply_boundary output
    reflected: paths.StepPath   # float two-sided reflection


class PathsExact:
    """Pure-Python path layer: exact maps and the J1 bound algorithm."""

    H = 0.2
    FREE_PATHS = 200
    FREE_T = 3.0
    # Ten base paths per size: the cost of one j1 call varies by about 30%
    # from pair to pair with where its bisection finds a refuting time, so a
    # pass sums many small calls and the total varies little with the seed.
    J1_BASES = tuple((k, b) for k in (16, 24, 32) for b in range(10))
    DITHERS = (1e-1, 1e-2, 1e-3)    # on the first base only
    DITHER = 1e-2

    def __init__(self, seed: int, tr):
        rng = _rng(seed, 4)
        self.sim_seed, self.j1_seed = (int(s) for s in rng.integers(2 ** 31, size=2))
        self.jitter = {(k, b): rng.uniform(-0.4, 0.4, size=k)
                       for k, b in self.J1_BASES}
        self.c = tr.call("grunwald.coeffs", compute_coeffs, _stable(), self.H,
                         2048)

    def tasks(self):
        out = [Task(f"free path {k}", partial(self._free_path, k))
               for k in range(self.FREE_PATHS)]
        out += [Task(f"j1 {k} jumps #{b}", partial(self._j1, k, b))
                for k, b in self.J1_BASES]
        return out

    def _free_path(self, k, tr):
        cfg = paths.SimConfig(seed=self.sim_seed, paths=self.FREE_PATHS,
                              x0=0.0, T=self.FREE_T, tail_eps=1e-4)
        p = tr.call("paths.simulate", paths.simulate_cp, self.c, cfg, k)
        maps = partial(tr.call, "paths.maps")
        ex = maps(p.with_exact_times)
        kills = (maps(paths.kill_left, maps(paths.kill_right, ex)),
                 maps(paths.kill_right, maps(paths.kill_left, ex)))
        ff = partial(maps, paths.fast_forward)
        try:
            fast_forwards = (
                ff(ff(ex, paths.above(-1.0)), paths.below(1.0)),
                ff(ff(ex, paths.below(1.0)), paths.above(-1.0)),
                ff(ex, paths.between(-1.0, 1.0)))
        except EmptyRegionError:
            fast_forwards = None
        mapped = {bc.label: maps(paths.apply_boundary, ex, bc, self.H)
                  for bc in ALL_PAIRS}
        reflected = maps(paths.reflect_two_sided, p, self.H - 1.0,
                         1.0 - self.H)
        in_region = sum((e - s for s, e, v in ex.segments() if -1.0 < v < 1.0),
                        Fraction(0))
        return _FreePathOut(p.n_jumps, kills, fast_forwards, in_region,
                            mapped, reflected)

    def _j1_base(self, k, b, tr):
        """A free path cut to exactly k jumps, and the jump counts of every
        path simulated to find one long enough."""
        cfg = paths.SimConfig(seed=self.j1_seed, paths=1, x0=0.0,
                              T=2.0 * k / self.c.total_rate + 5.0,
                              tail_eps=1e-4)
        simulated = []
        while True:
            p = tr.call("paths.simulate", paths.simulate_cp, self.c, cfg,
                        (2 * k + b) * 1000 + len(simulated))
            simulated.append(p.n_jumps)
            if p.n_jumps > k:
                cut = 0.5 * (p.epochs[k - 1] + p.epochs[k])
                return p.restrict(cut), simulated

    def _dithered(self, p, eps, jitter):
        gaps = np.diff([0.0, *p.epochs, p.T])
        room = np.minimum(gaps[:-1], gaps[1:])
        return paths.make_step_path(p.T, p.initial,
                                    np.asarray(p.epochs) + eps * jitter * room,
                                    p.values)

    def _j1(self, k, b, tr):
        p, simulated = self._j1_base(k, b, tr)
        first = (k, b) == self.J1_BASES[0]
        pairs = [(p, p)] + [(self._dithered(p, e, self.jitter[k, b]), p)
                            for e in (self.DITHERS if first else (self.DITHER,))]
        bounds = [tr.call("paths.j1", paths.j1_distance, a, b) for a, b in pairs]
        cells = sum((a.n_jumps + 1) * (b.n_jumps + 1) for a, b in pairs)
        return {"self": bounds[0], "dithered": bounds[1:], "cells": cells,
                "simulated": simulated}

    def check(self, out):
        fails = []
        lo, hi = self.H - 1.0 - 1e-12, 1.0 - self.H + 1e-12
        for k in range(self.FREE_PATHS):
            task = f"free path {k}"
            o = out.get(task)
            if o is None:
                continue
            if o.kills[0] != o.kills[1]:
                fails.append((task, "killing maps do not commute"))
            if o.fast_forwards is not None:
                r1, r2, r3 = o.fast_forwards
                if not r1 == r2 == r3:
                    fails.append((task, "fast-forward maps do not commute"))
                if r3.T != o.in_region_time:
                    fails.append((task, "fast-forward horizon is not the "
                                        "time spent in the region"))
            for label, m in o.mapped.items():
                vals = m.all_values()
                floor = lo if label.startswith("N*") else -1.0
                if min(vals) < floor or max(vals) > 1.0:
                    fails.append((task, f"{label} map leaves its interval"))
            if not all(lo <= v <= hi for v in o.reflected.all_values()):
                fails.append((task, "two-sided reflection leaves [h-1, 1-h]"))
        for k, b in self.J1_BASES:
            task = f"j1 {k} jumps #{b}"
            o = out.get(task)
            if o is None:
                continue
            if o["self"] != (0.0, 0.0):
                fails.append((task, f"j1(p, p) = {o['self']}"))
            for upper, lower in o["dithered"]:
                if not lower <= upper:
                    fails.append((task, f"lower {lower:g} > upper {upper:g}"))
            uppers = [u for u, _ in o["dithered"]]
            if any(b >= a for a, b in zip(uppers, uppers[1:])):
                fails.append((task, f"dithered uppers not decreasing {uppers}"))
        return fails

    def counters(self, out):
        free = [o for o in out.values() if isinstance(o, _FreePathOut)]
        j1 = [o for name, o in out.items() if name.startswith("j1 ")]
        return {"paths.jumps": sum(o.jumps for o in free)
                + sum(sum(o["simulated"]) for o in j1),
                "paths.skipped": sum(o.fast_forwards is None for o in free),
                "paths.j1_pairs": sum(1 + len(o["dithered"]) for o in j1),
                "paths.j1_dp_cells": sum(o["cells"] for o in j1),
                "paths_per_pass": len(free) + sum(len(o["simulated"]) for o in j1)}


# -- exact_routes -------------------------------------------------------------

class ExactRoutes:
    """Every route but Monte Carlo: matrices, scale functions, exact paths."""

    def __init__(self, seed: int, tr):
        self.parts = (DeterministicRoutes(seed, tr), PathsExact(seed, tr))

    def tasks(self):
        return [t for part in self.parts for t in part.tasks()]

    def check(self, out):
        return [f for part in self.parts for f in part.check(out)]

    def counters(self, out):
        return {k: v for part in self.parts for k, v in part.counters(out).items()}


WORKLOADS = {"exact_routes": ExactRoutes,
             "mc_longtail": McLongtail,
             "mc_horizon": McHorizon}
