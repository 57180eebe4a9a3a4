"""Config-driven experiment harness and command line entry point.

Subcommands: coeffs, matrix, simulate, semigroup, resolvent, scale, exit,
convergence, j1, validate, suite.  Each reads a flat key-value config file,
writes CSV data plus one JSON comparison report into the output directory and
exits 0 only if every metric passed (2 on configuration errors, 3 on
numerical failures).

Grid experiments live on [-1, 1]; scale-function experiments live on [0, a].
The harness owns the affine bridge between them, x_scale = 1 - x_grid with
a = 2, and records it in every report that uses it.  Under that bridge the
grid pair DN corresponds to the scale-side exit problem "ND" and vice versa
(killing happens at the jump side of one chart and the drift side of the
other), and the grid pair N*D to "DNstar".  The scale route knows only the
stable symbol.

Every value a runner reads comes checked from `config.load_config`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import grunwald, mc, paths, ratemat, scale
from .config import (BC_LABELS, EXIT_GRID_PAIR, KINDS, Config, ConfigError,
                     load_config)
from .errors import OnesideLevyError
from .report import ComparisonReport, write_csv
from .symbol import LaplaceExponent, LevyMeasureSpec

_BRIDGE = "x_scale = 1 - x_grid, a = 2"
_DEFAULT_SEED = 20240801


def _laplace_exponent(cfg: Config) -> LaplaceExponent:
    alpha = cfg["symbol.alpha"]
    if cfg.get("symbol.kind", "stable") == "stable":
        return LaplaceExponent(LevyMeasureSpec.stable(alpha))
    return LaplaceExponent(LevyMeasureSpec.tempered_stable(
        alpha, cfg.get("symbol.lambda", 0.0)))


def _stable_alpha(cfg: Config) -> float:
    """symbol.alpha for the scale route, which knows only the stable symbol."""
    if cfg.get("symbol.kind", "stable") != "stable":
        raise ConfigError(f"{cfg['kind']} needs symbol.kind = stable")
    return cfg["symbol.alpha"]


def _report(cfg: Config) -> ComparisonReport:
    return ComparisonReport(cfg["kind"], dict(cfg.parsed),
                            cfg.get("seed", _DEFAULT_SEED))


def _coeffs_for(cfg: Config, h: float, j_max: int):
    return grunwald.compute_coeffs(_laplace_exponent(cfg), h, j_max)


def _mesh(cfg: Config):
    if "n" in cfg:
        n = cfg["n"]
        return 2.0 / (n + 1), n
    return cfg["h"], None


# -- experiments -------------------------------------------------------------

def run_coeffs(cfg: Config, out: Path) -> ComparisonReport:
    h, _ = _mesh(cfg)
    j_max = cfg.get("j_max", 64)
    c = _coeffs_for(cfg, h, j_max)
    rep = _report(cfg)
    rows = [(j, float(c.g[j]), float(c.tail[j])) for j in range(j_max + 1)]
    write_csv(out / "coeffs.csv", ["j", "G_j", "T_j"], rows)
    scale_ = abs(c.g[1])
    rep.add("series_sum_residual", float(c.g.sum() + c.tail[-1]) / scale_,
            0.0, 1e-10)
    rep.add_flag("sign_pattern",
                 c.g[0] > 0 and c.g[1] < 0 and bool(np.all(c.g[2:] >= -1e-12 * scale_)))
    est, roundoff = grunwald.verify_coeffs_cauchy(
        _laplace_exponent(cfg), h, min(j_max, 64), radius=0.95, n_nodes=4096)
    ref = c.g[: len(est)]
    # each weight within 1e-8 relative plus the estimate's own roundoff
    gate = 1e-8 * np.abs(ref) + roundoff
    rep.add("cauchy_max_err_over_gate",
            float(np.max(np.abs(est - ref) / gate)), 0.0, 1.0)
    return rep


def _build(cfg: Config, n: int, bc: ratemat.BoundaryPair):
    c = _coeffs_for(cfg, 2.0 / (n + 1), 4 * (n + 1))
    return ratemat.build_restricted(c, n, bc)


def run_matrix(cfg: Config, out: Path) -> ComparisonReport:
    n = cfg["n"]
    bc = ratemat.BoundaryPair.from_label(cfg["bc"])
    Q = _build(cfg, n, bc)
    header = ["row\\col"] + [format(x, ".17g") for x in Q.grid]
    rows = [[format(Q.grid[i], ".17g")] + list(Q.Q[i]) for i in range(Q.size)]
    write_csv(out / f"matrix_{bc.label.replace('*', 's')}_{n}.csv", header, rows)
    rep = _report(cfg)
    _validity_metrics(Q, rep)
    (out / "matrix_report.json").write_text(
        json.dumps(ratemat.validity_report(Q), indent=2, sort_keys=True) + "\n")
    return rep


def _validity_metrics(Q, rep) -> None:
    v = ratemat.validity_report(Q)
    rep.add("max_abs_row_sum", v["max_abs_row_sum"], 0.0, v["row_sum_tol"])
    rep.add_flag("offdiag_nonnegative", v["offdiag_ok"])
    rep.add_flag("diag_nonpositive", v["diag_ok"])
    if "holding_ok" in v:
        rep.add_flag("boundary_holding_rates", v["holding_ok"])
        rep.add_flag("absorbing_end_rows", v["absorbing_rows_ok"])


def run_validate(cfg: Config, out: Path) -> ComparisonReport:
    n = cfg["n"]
    rep = _report(cfg)
    for lab in cfg.get("bc", BC_LABELS):
        Q = _build(cfg, n, ratemat.BoundaryPair.from_label(lab))
        v = ratemat.validity_report(Q)
        rep.add(f"{lab}_max_abs_row_sum", v["max_abs_row_sum"], 0.0,
                v["row_sum_tol"])
        rep.add_flag(f"{lab}_sign_pattern", v["offdiag_ok"] and v["diag_ok"])
        rep.add_flag(f"{lab}_holding_rates", v["holding_ok"])
    return rep


def run_simulate(cfg: Config, out: Path, fmt: str) -> ComparisonReport:
    h, n = _mesh(cfg)
    c = _coeffs_for(cfg, h, cfg.get("j_max", 4096))
    rep = _report(cfg)
    try:
        sim = paths.SimConfig(seed=rep.seed, paths=cfg.get("paths", 100),
                              x0=cfg.get("x0", 0.0), T=cfg.get("T", 1.0),
                              tail_eps=cfg.get("tail_eps", 1e-5))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if fmt == "json":
        with open(out / "paths.jsonl", "w") as fh:
            for k in range(sim.paths):
                p = paths.simulate_cp(c, sim, path_index=k)
                fh.write(json.dumps({"initial": p.initial,
                                     "epochs": list(map(float, p.epochs)),
                                     "values": list(map(float, p.values))})
                         + "\n")
    else:
        times = cfg.get("times", [sim.T])
        hist = {}
        for k in range(sim.paths):
            p = paths.simulate_cp(c, sim, path_index=k)
            for t in times:
                v = p.value_at(min(t, sim.T))
                hist.setdefault(t, {})
                hist[t][v] = hist[t].get(v, 0) + 1
        rows = [(t, v, cnt) for t in times for v, cnt in sorted(hist[t].items())]
        write_csv(out / "histogram.csv", ["t", "value", "count"], rows)
    rep.add_flag("simulated", True)
    return rep


def run_semigroup(cfg: Config, out: Path) -> ComparisonReport:
    n = cfg["n"]
    bc = ratemat.BoundaryPair.from_label(cfg["bc"])
    times = cfg["times"]
    i0 = cfg.get("i0", (n + 1) // 2)
    Q = _build(cfg, n, bc)
    rows, diags = zip(*(ratemat.semigroup_row_diag(Q, t, i0) for t in times))
    write_csv(out / "semigroup.csv", ["t", "x", "prob"],
              [(t, float(x), float(p))
               for t, row in zip(times, rows) for x, p in zip(Q.grid, row)])
    rep = _report(cfg)
    rep.params["semigroup_diag"] = [dict(t=t, **dataclasses.asdict(d))
                                    for t, d in zip(times, diags)]
    n_paths = cfg.get("paths", 0)
    if n_paths > 0:
        c_sim = _coeffs_for(cfg, Q.h, cfg.get("j_max", 8192))
        ret = (mc.reentry_table(c_sim, j_cap=min(2048, c_sim.j_max - 2),
                                mode="tails")
               if bc.left == "N" else None)
        counts, _, diag = mc.mapped_process_mc(
            c_sim, bc, n, i0, n_paths, rep.seed, probe_times=times,
            reentry_cum=ret)
        for j, (t, row) in enumerate(zip(times, rows)):
            tv = mc.total_variation(counts[j] / n_paths, row)
            rep.add(f"tv_t={t:g}", tv, 0.0, cfg.get("tv_tol", 0.02))
        rep.params["mc_diag"] = dataclasses.asdict(diag)
    else:
        rep.add_flag("semigroup_rows_written", True)
    return rep


def _scale_kit(cfg: Config) -> scale.ScaleKit:
    g = scale.ScaleGrid(a=cfg.get("a", 1.0), m=cfg.get("m", 4000),
                        alpha=_stable_alpha(cfg), q=cfg.get("q", 1.0))
    return scale.ScaleKit(g)


def run_scale(cfg: Config, out: Path) -> ComparisonReport:
    kit = _scale_kit(cfg)
    x = kit.grid.nodes
    rows = zip(x, kit.W(x), kit.Wq(x), kit.Zq(x))
    write_csv(out / "scale.csv", ["x", "W", "Wq", "Zq"], rows)
    rep = _report(cfg)
    gap = _zq_series_gap(kit)
    rep.params["series_diag"] = {"n_terms": kit.last_n_terms,
                                 "error_estimate": kit.last_error_estimate}
    # The routes differ by the series route's second-order quadrature error,
    # which grows with q a^alpha, so no fixed tolerance in dx fits.  The gap
    # passes below 1e-8, or when halving dx divides it by at least 3 (the
    # tolerance is then the gap itself); a wrong closed form would leave a
    # gap that does not shrink.
    half = scale.ScaleKit(dataclasses.replace(kit.grid, m=2 * kit.grid.m))
    gap_half = _zq_series_gap(half)
    rep.params["Zq_series_vs_closed_rel_half_dx"] = gap_half
    rep.add("Zq_series_vs_closed_rel", gap, 0.0,
            gap if gap >= 3.0 * gap_half else 1e-8)
    return rep


def _zq_series_gap(kit: scale.ScaleKit) -> float:
    """Largest relative gap between the series and closed-form Z_q."""
    zc = kit.Zq(kit.grid.nodes)
    return float(np.max(np.abs(kit.Zq_series() - zc) / np.abs(zc)))


def run_resolvent(cfg: Config, out: Path) -> ComparisonReport:
    kit = _scale_kit(cfg)
    x = cfg.get("x", kit.grid.a / 2)
    q = kit.grid.q
    ddn = kit.resolvent_density_DN(x)
    dnn = kit.resolvent_density_NN(x)
    write_csv(out / "resolvent_DN.csv", ["y", "density"],
              zip(kit.grid.nodes, ddn))
    write_csv(out / "resolvent_NN.csv", ["y", "density"],
              zip(kit.grid.nodes, dnn))
    rep = _report(cfg)
    el = kit.exit_laplace_DN(x)
    rep.add("mass_DN_vs_exit_identity", kit.mass_DN(x), (1.0 - el) / q, 1e-6)
    rep.add("mass_NN_vs_1_over_q", kit.mass_NN(x), 1.0 / q, 1e-6)
    rep.add_flag("densities_nonnegative",
                 float(min(ddn.min(), dnn.min())) >= -1e-8)
    (out / "resolvent_masses.json").write_text(json.dumps({
        "x": x, "q": q, "mass_DN": kit.mass_DN(x), "mass_NN": kit.mass_NN(x),
        "exit_laplace_DN": el}, indent=2) + "\n")
    return rep


def run_exit(cfg: Config, out: Path) -> ComparisonReport:
    kit = _scale_kit(cfg)
    a = kit.grid.a
    x = cfg.get("x", a / 2)
    alpha = kit.grid.alpha
    rep = _report(cfg)
    rep.params["coordinate_bridge"] = _BRIDGE
    rows = []
    for kind in ("DN", "DNstar", "ND"):
        val = scale.mean_exit(kind, x, a, alpha)
        rows.append((kind, x, a, val))
    write_csv(out / "exit.csv", ["kind", "x", "a", "mean_exit"], rows)
    # Laplace-derivative route: -d/dq E[e^{-q tau}] at q = 0 equals the mean
    dq = cfg.get("dq", 1e-4)
    kits = [scale.ScaleKit(scale.ScaleGrid(a=a, m=kit.grid.m, alpha=alpha, q=qq))
            for qq in (dq, 2 * dq)]
    e1, e2 = (k.exit_laplace_DN(x) for k in kits)
    # second-order one-sided difference of the transform at 0 (value 1 there)
    deriv = -(4.0 * e1 - e2 - 3.0) / (2.0 * dq)
    rep.add("laplace_derivative_vs_closed", deriv,
            scale.mean_exit("DN", x, a, alpha), 5e-3, kind="rel")
    return rep


def run_convergence(cfg: Config, out: Path) -> ComparisonReport:
    """Mean absorption of the grid chain against the closed exit forms.

    Under the coordinate bridge the scale-side "DN" exit problem is the grid
    chain with pair ND, the scale-side "ND" problem is the grid DN chain and
    "DNstar" is the grid N*D chain.
    """
    alpha = _stable_alpha(cfg)
    ns = cfg.get("n_list", [9, 19, 39, 79])
    scale_kind = cfg.get("exit.kind", "DN")
    grid_label = EXIT_GRID_PAIR[scale_kind]
    bc = ratemat.BoundaryPair.from_label(grid_label)
    a = 2.0
    rep = _report(cfg)
    rep.params["coordinate_bridge"] = _BRIDGE
    rep.params["grid_pair"] = grid_label
    rows = []
    errs = []
    for n in ns:
        Q = _build(cfg, n, bc)
        i0 = (n + 1) // 2
        m_val = ratemat.mean_absorption(Q, i0)
        x_scale = 1.0 - float(Q.grid[i0])
        closed = scale.mean_exit(scale_kind, x_scale, a, alpha)
        rel = abs(m_val - closed) / abs(closed)
        rows.append((n, Q.h, m_val, closed, rel))
        errs.append(rel)
    write_csv(out / "convergence.csv",
              ["n", "h", "mean_absorption", "closed_form", "rel_err"], rows)
    hs = [2.0 / (n + 1) for n in ns]
    order = -np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
    rep.params["fitted_order"] = float(order)
    rep.add_flag("errors_decreasing",
                 all(e2 < e1 for e1, e2 in zip(errs, errs[1:])))
    rep.add(f"rel_err_at_n={ns[-1]}", errs[-1], 0.0, cfg.get("tol", 0.02))
    return rep


def run_j1(cfg: Config, out: Path) -> ComparisonReport:
    def read_path(fname):
        line = Path(fname).read_text().splitlines()[0]
        d = json.loads(line)
        T = cfg.get("T", float(max(d["epochs"], default=1.0)))
        return paths.make_step_path(T, d["initial"], d["epochs"], d["values"])

    p = read_path(cfg["path_a"])
    q = read_path(cfg["path_b"])
    T = min(float(p.T), float(q.T))
    d, _ = paths.j1_distance(p, q, T)
    d_back, _ = paths.j1_distance(q, p, T)
    rep = _report(cfg)
    rep.add("symmetry_gap", d, d_back, 0.0)
    rep.params["distance"] = d
    (out / "j1.json").write_text(json.dumps({"distance": d}) + "\n")
    return rep


_RUNNERS = {
    "coeffs": run_coeffs,
    "matrix": run_matrix,
    "validate": run_validate,
    "semigroup": run_semigroup,
    "scale": run_scale,
    "resolvent": run_resolvent,
    "exit": run_exit,
    "convergence": run_convergence,
    "j1": run_j1,
}


def run_experiment(cfg: Config, out: Path,
                   fmt: str = "csv") -> ComparisonReport:
    kind = cfg["kind"]
    if kind == "suite":
        raise ConfigError("kind 'suite' runs a directory of configs, not one "
                          "experiment")
    out.mkdir(parents=True, exist_ok=True)
    rep = (run_simulate(cfg, out, fmt) if kind == "simulate"
           else _RUNNERS[kind](cfg, out))
    rep.write(out / f"report_{kind}.json")
    return rep


def run_suite(directory, out: Path, fmt: str = "csv",
              threads: int = 1) -> dict:
    cfg_files = sorted(Path(directory).glob("*.cfg"))
    if not cfg_files:
        raise ConfigError(f"no .cfg files in {directory}")

    def one(path):
        rep = run_experiment(load_config(path), out / path.stem, fmt)
        return path.name, rep.all_pass

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, cfg_files))
    else:
        results = [one(p) for p in cfg_files]
    agg = {"experiments": dict(results),
           "all_pass": all(ok for _, ok in results)}
    out.mkdir(parents=True, exist_ok=True)
    (out / "suite_report.json").write_text(
        json.dumps(agg, indent=2, sort_keys=True) + "\n")
    return agg


def _threads(arg: int | None) -> int:
    """--threads, else ONESIDE_LEVY_THREADS, else 1; ConfigError below 1."""
    raw = arg if arg is not None else os.environ.get("ONESIDE_LEVY_THREADS") or 1
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(
            f"thread count must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oneside-levy",
        description="Boundary-modified rate matrices, pathwise boundary maps "
                    "and scale-function formulas for one-sided grid chains.")
    parser.add_argument("command", choices=KINDS)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        threads = _threads(args.threads)
        if args.command == "suite":
            if not args.config:
                raise ConfigError("suite needs --config pointing at a "
                                  "directory of .cfg files")
            agg = run_suite(args.config, out, args.format, threads)
            return 0 if agg["all_pass"] else 1
        if not args.config:
            raise ConfigError(f"{args.command} needs --config")
        cfg = load_config(args.config, kind=args.command, seed=args.seed)
        rep = run_experiment(cfg, out, args.format)
        return 0 if rep.all_pass else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OnesideLevyError, ValueError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
