"""Acceptance suite: one test per criterion, at the stated sizes/tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 6b is a strict expected failure: the composed
fast-forward/reflection construction and the direct two-sided reflection
generate the same law but not the same paths (time outside the upper barrier
is deleted by one and retained by the other); the companion test pins the
in-law agreement.  Details in the repository notes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oneside_levy.errors import EmptyRegionError
from oneside_levy.grunwald import compute_coeffs, verify_coeffs_cauchy
from oneside_levy.mc import (first_transition_mc, mapped_process_mc,
                             reentry_table, total_variation)
from oneside_levy.paths import (SimConfig, above, apply_boundary, below,
                                between, fast_forward, j1_distance,
                                kill_left, kill_right, make_step_path,
                                reflect_two_sided, simulate_cp)
from oneside_levy.ratemat import (ALL_PAIRS, BoundaryPair, build_restricted,
                                  build_stopped, ergodic_limit_z,
                                  mean_absorption, resolvent_transpose_e,
                                  semigroup_row, stationary_interior,
                                  stopped_resolvent_profile, validity_report)
from oneside_levy.scale import (ScaleGrid, ScaleKit, cumulative_integral,
                                mean_exit)
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

ALPHA = 1.5


def _line(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    return ok


@pytest.fixture(scope="module")
def exp():
    return LaplaceExponent(LevyMeasureSpec.stable(ALPHA))


def test_criterion_01_weight_oracle(exp, binom_oracle):
    t0 = time.time()
    worst_rel = 0.0
    worst_resid = 0.0
    sign_ok = True
    for h in (1.0, 0.5, 0.1):
        c = compute_coeffs(exp, h, 64)
        est, _ = verify_coeffs_cauchy(exp, h, 64, radius=0.95, n_nodes=4096)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(est - c.g) / np.abs(c.g))))
        scale = abs(c.g[1])
        worst_resid = max(worst_resid,
                          abs(float(c.g.sum() + c.tail[-1])) / scale)
        sign_ok &= c.g[0] > 0 and c.g[1] < 0 and bool(np.all(c.g[2:] >= 0))
        ref = [h ** -ALPHA * (-1.0) ** j * binom_oracle(ALPHA, j)
               for j in range(65)]
        assert np.allclose(c.g, ref, rtol=1e-12)
    el = time.time() - t0
    ok = worst_rel <= 1e-8 and worst_resid <= 1e-10 and sign_ok and el < 1.0
    assert _line("1 weight-oracle", ok,
                 f"fourier rel {worst_rel:.2e} (<=1e-8), row identity "
                 f"{worst_resid:.2e} (<=1e-10), signs {sign_ok}, {el:.2f}s (<1s)")


def test_criterion_02_matrix_validity(exp):
    t0 = time.time()
    ok = True
    detail = []
    for n in (9, 99, 499):
        c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
        for bc in ALL_PAIRS:
            Q = build_restricted(c, n, bc)
            v = validity_report(Q)
            ok &= v["row_sums_ok"] and v["offdiag_ok"] and v["holding_ok"]
        detail.append(f"n={n} rowsum<= {v['max_abs_row_sum']:.1e}")
    el = time.time() - t0
    ok &= el < 5.0
    assert _line("2 matrix-validity", ok,
                 "; ".join(detail) + f"; all six pairs; {el:.2f}s (<5s)")


def test_criterion_03_stopped_resolvent(exp):
    t0 = time.time()
    h, m_below, k_above = 0.1, 2000, 300
    c = compute_coeffs(exp, h, m_below + k_above + 8)
    Q = build_stopped(c, m_below, k_above)
    x = resolvent_transpose_e(Q, 1.0, Q.state_index(0))
    y = stopped_resolvent_profile(exp, c, 1.0, -m_below, k_above)
    sup = float(np.max(np.abs(x - y)))
    z, _ = ergodic_limit_z(Q, [1e-3, 1e-4, 1e-5, 1e-6])
    e1 = abs(z[Q.state_index(1)] - 0.5)
    e2 = abs(z[Q.state_index(2)] - 0.125)
    el = time.time() - t0
    ok = sup <= 1e-8 and e1 <= 1e-3 and e2 <= 1e-3 and el < 30.0
    assert _line("3 stopped-resolvent", ok,
                 f"sup err {sup:.2e} (<=1e-8); z1 off {e1:.2e}, z2 off "
                 f"{e2:.2e} (<=1e-3); {el:.1f}s (<30s)")


def test_criterion_04_landing_law_mc(exp):
    t0 = time.time()
    h = 0.2
    c = compute_coeffs(exp, h, 8192)
    reentry = reentry_table(c, m_below=3000, j_cap=1024, mode="greens")
    n_samp = 100_000
    holds, lands, diag = first_transition_mc(c, n_samp, seed=2024,
                                             reentry_cum=reentry)
    g0 = c.g[0]
    rel_hold = abs(holds.mean() * g0 - 1.0)
    ok = rel_hold <= 0.01
    devs = []
    for j in (1, 2, 3, 4):
        z = float(c.tail[j + 1] / g0)
        p = float(np.mean(lands == j))
        dev = abs(p - z) / math.sqrt(z * (1 - z) / n_samp)
        devs.append(dev)
        ok &= dev <= 3.0
    el = time.time() - t0
    ok &= el < 60.0
    assert _line("4 landing-law-mc", ok,
                 f"hold rel {rel_hold:.4f} (<=0.01); landing devs "
                 f"{['%.2f' % d for d in devs]} SE (<=3); "
                 f"completions {diag.completions}/{diag.excursions} "
                 f"excursions; {el:.0f}s (<60s)")


def test_criterion_05_mapped_marginals(exp):
    t0 = time.time()
    n = 9
    h = 2.0 / (n + 1)
    c_sim = compute_coeffs(exp, h, 8192)
    c_mat = compute_coeffs(exp, h, 4 * (n + 1))
    reentry = reentry_table(c_sim, j_cap=2048, mode="tails")
    times = (0.1, 0.5, 1.0)
    n_paths = 100_000
    ok = True
    worst = {}
    for bc in ALL_PAIRS:
        counts, _, _ = mapped_process_mc(c_sim, bc, n, 5, n_paths, seed=777,
                                         probe_times=times,
                                         reentry_cum=reentry)
        Q = build_restricted(c_mat, n, bc)
        tvs = [total_variation(counts[j] / n_paths, semigroup_row(Q, t, 5))
               for j, t in enumerate(times)]
        worst[bc.label] = max(tvs)
        ok &= max(tvs) <= 0.02
    el = time.time() - t0
    ok &= el < 600.0
    assert _line("5 mapped-marginals", ok,
                 "worst TV per pair " +
                 ", ".join(f"{k}={v:.4f}" for k, v in worst.items()) +
                 f" (<=0.02); {el:.0f}s (<600s)")


def _exact_free_paths(c, count, seed, T=3.0):
    cfg = SimConfig(seed=seed, paths=count, x0=0.0, T=T, tail_eps=1e-4)
    for k in range(count):
        yield simulate_cp(c, cfg, path_index=k).with_exact_times()


def test_criterion_06a_fast_forward_and_killing_identities(exp):
    t0 = time.time()
    c = compute_coeffs(exp, 0.2, 2048)
    n_paths = 10_000
    ff_checked = ff_bad = kill_bad = 0
    for p in _exact_free_paths(c, n_paths, seed=606):
        if kill_left(kill_right(p)) != kill_right(kill_left(p)):
            kill_bad += 1
        try:
            r1 = fast_forward(fast_forward(p, above(-1.0)), below(1.0))
            r2 = fast_forward(fast_forward(p, below(1.0)), above(-1.0))
            r3 = fast_forward(p, between(-1.0, 1.0))
        except EmptyRegionError:
            continue
        ff_checked += 1
        if not (r1 == r2 == r3):
            ff_bad += 1
    el = time.time() - t0
    ok = ff_bad == 0 and kill_bad == 0 and ff_checked > n_paths // 2
    assert _line("6a pathwise-identities", ok,
                 f"fast-forward commutation mismatches {ff_bad}/{ff_checked}; "
                 f"killing commutation mismatches {kill_bad}/{n_paths}; "
                 f"exact rational times; {el:.0f}s")


@pytest.mark.xfail(
    strict=True,
    reason="Composition (reflect then fast-forward) and direct two-sided "
           "reflection agree in law but not pathwise: fast-forwarding "
           "deletes the time spent beyond the upper barrier while the "
           "two-sided map retains it, so trajectories diverge after the "
           "first upper excursion. The in-law agreement is pinned by "
           "test_criterion_06b_supplement_in_law.")
def test_criterion_06b_nstarn_vs_twosided_pathwise(exp):
    c = compute_coeffs(exp, 0.2, 2048)
    h = 0.2
    bc = BoundaryPair.from_label("N*N")
    mismatches = checked = 0
    for p in _exact_free_paths(c, 10_000, seed=616):
        composed = apply_boundary(p, bc, h)
        direct = reflect_two_sided(p, h - 1.0, 1.0 - h)
        T = min(composed.horizon, direct.horizon)
        checked += 1
        if composed.restrict(T) != direct.restrict(T):
            mismatches += 1
    _line("6b nstarn-pathwise", mismatches == 0,
          f"pathwise mismatches {mismatches}/{checked} (zero allowed)")
    assert mismatches == 0


def test_criterion_06b_supplement_in_law(exp):
    t0 = time.time()
    c = compute_coeffs(exp, 0.2, 8192)
    n = 9
    h = 0.2
    bc = BoundaryPair.from_label("N*N")
    reentry = reentry_table(c, j_cap=2048, mode="tails")
    times = (0.5,)
    n_paths = 50_000
    counts, _, _ = mapped_process_mc(c, bc, n, 5, n_paths, seed=626,
                                     probe_times=times, reentry_cum=reentry)
    # direct two-sided reflection marginal from pathwise maps
    cfg = SimConfig(seed=636, paths=n_paths, x0=0.0, T=0.6, tail_eps=1e-4)
    hist = np.zeros(n + 2)
    for k in range(n_paths):
        p = simulate_cp(c, cfg, path_index=k)
        v = reflect_two_sided(p, h - 1.0, 1.0 - h).value_at(0.5)
        hist[int(round((v + 1.0) / h))] += 1
    tv = total_variation(counts[0] / n_paths, hist / n_paths)
    el = time.time() - t0
    ok = tv <= 0.02
    assert _line("6b-supplement nstarn-in-law", ok,
                 f"TV(composition, two-sided reflection) at t=0.5: {tv:.4f} "
                 f"(<=0.02); {el:.0f}s")


def test_criterion_07_scale_identities(exp):
    t0 = time.time()
    kit = ScaleKit(ScaleGrid(a=1.0, m=16000, alpha=ALPHA, q=1.0))
    x = kit.grid.nodes
    zc = kit.Zq(x)
    e_series = float(np.max(np.abs(kit.Zq_series() - zc) / zc))
    qzw = kit.grid.q * kit.Wq_series()
    e_zw = float(np.max(np.abs(qzw - kit.grid.q * kit.Wq(x))))
    iq = cumulative_integral(qzw, kit.grid.dx, kink=ALPHA)
    e_int = float(np.max(np.abs(iq - (zc - 1.0))))
    m_nn = abs(kit.mass_NN(0.3) - 1.0)
    el_dn = kit.exit_laplace_DN(0.5)
    m_dn = abs(kit.mass_DN(0.5) - (1.0 - el_dn))
    el = time.time() - t0
    ok = (e_series <= 1e-8 and e_zw <= 1e-8 and e_int <= 1e-8
          and m_nn <= 1e-6 and m_dn <= 1e-6 and el < 10.0)
    assert _line("7 scale-identities", ok,
                 f"series {e_series:.1e}, qZ[W]-qWq {e_zw:.1e}, "
                 f"qIZ[W]-(Zq-1) {e_int:.1e} (<=1e-8); NN mass off "
                 f"{m_nn:.1e}, DN mass off {m_dn:.1e} (<=1e-6); "
                 f"{el:.1f}s (<10s)")


def test_criterion_08_exit_time_convergence(exp):
    t0 = time.time()
    a = 2.0
    # the scale-side problem with killing at the jump end is the grid pair
    # ND under the coordinate bridge x_scale = 1 - x_grid
    errs_nd, errs_dn = [], []
    for n in (9, 19, 39, 79, 159):
        c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
        i0 = (n + 1) // 2
        Qnd = build_restricted(c, n, BoundaryPair.from_label("ND"))
        xs = 1.0 - float(Qnd.grid[i0])
        closed = mean_exit("DN", xs, a, ALPHA)
        errs_nd.append(abs(mean_absorption(Qnd, i0) - closed) / closed)
        Qdn = build_restricted(c, n, BoundaryPair.from_label("DN"))
        closed2 = mean_exit("ND", xs, a, ALPHA)
        errs_dn.append(abs(mean_absorption(Qdn, i0) - closed2) / closed2)
    ok = all(b < a_ for a_, b in zip(errs_nd, errs_nd[1:]))
    ok &= errs_nd[-1] <= 0.02
    ok &= errs_dn[-1] <= 0.02

    # Monte Carlo leg at n = 79
    n = 79
    c = compute_coeffs(exp, 2.0 / (n + 1), 16384)
    reentry = reentry_table(c, j_cap=2048, mode="tails")
    _, times, _ = mapped_process_mc(c, BoundaryPair.from_label("ND"), n,
                                    (n + 1) // 2, 100_000, seed=808,
                                    collect_absorption=True,
                                    reentry_cum=reentry)
    Q79 = build_restricted(compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1)),
                           n, BoundaryPair.from_label("ND"))
    xs = 1.0 - float(Q79.grid[(n + 1) // 2])
    closed = mean_exit("DN", xs, a, ALPHA)
    mc_rel = abs(times.mean() - closed) / closed
    ok &= mc_rel <= 0.05

    # alpha -> 1 limit of the closed form at mid interval
    lim_rel = abs(mean_exit("DN", 1.0, a, 1.01) - (a - 1.0)) / (a - 1.0)
    ok &= lim_rel <= 0.02
    el = time.time() - t0
    assert _line("8 exit-convergence", ok,
                 f"grid-ND vs closed: {['%.3f' % e for e in errs_nd]} "
                 f"decreasing, final <=2%; grid-DN final {errs_dn[-1]:.3f}; "
                 f"MC rel {mc_rel:.4f} (<=5%); alpha->1 {lim_rel:.4f} "
                 f"(<=2%); {el:.0f}s")


def test_criterion_09_nn_invariant_measure(exp):
    t0 = time.time()
    devs = []
    for n in (9, 19, 39, 79):
        c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
        Q = build_restricted(c, n, BoundaryPair.from_label("NN"))
        pi = stationary_interior(Q)
        devs.append(float(np.max(np.abs(pi - 1.0 / n))))
    # The flat vector is exactly stationary at every mesh (the interior
    # generator has vanishing column sums), so the deviations are pure
    # roundoff; assert the stronger exact statement instead of a monotone
    # decrease among machine zeros.
    ok = all(d < 1e-12 for d in devs)
    el = time.time() - t0
    assert _line("9 nn-invariant-measure", ok,
                 "sup deviations " + str(["%.1e" % d for d in devs]) +
                 f" (all <1e-12; exact at every mesh); {el:.2f}s")


def test_criterion_10_j1_families_and_dithers(exp, rng):
    t0 = time.time()
    ok = True
    lows = []
    for nn in (2, 8, 64):
        f_n = make_step_path(2.0, 1.0 / nn, [1.0], [1.0])
        f = make_step_path(2.0, 0.0, [1.0], [1.0])
        _, lo = j1_distance(fast_forward(f_n, above(0.0)),
                            fast_forward(f, above(0.0)), 1.0)
        lows.append(lo)
        ok &= lo >= (1.0 - 1.0 / nn) - 1e-9

    cells = 64
    def staircase(start):
        es = [k / cells for k in range(1, cells)] + [1.0]
        vs = [start + k / cells for k in range(1, cells)] + [1.0]
        return make_step_path(3.0, start, es, vs)

    Nf = fast_forward(staircase(-1.0), above(0.0))
    Nf2 = fast_forward(staircase(-0.5), above(0.0))
    _, lo2 = j1_distance(Nf2, Nf, min(float(Nf.T), float(Nf2.T)))
    ok &= lo2 >= 0.4

    c = compute_coeffs(exp, 0.2, 2048)
    cfg = SimConfig(seed=1010, paths=1, x0=0.0, T=3.0, tail_eps=1e-4)
    p = simulate_cp(c, cfg, path_index=3)
    jit = rng.uniform(-0.4, 0.4, size=p.n_jumps)
    gaps = np.diff([0.0] + [float(e) for e in p.epochs] + [float(p.T)])
    room = np.minimum(gaps[:-1], gaps[1:])
    uppers = []
    for eps in (1e-1, 1e-2, 1e-3):
        q = make_step_path(p.T, p.initial,
                           np.asarray(p.epochs) + eps * jit * room, p.values)
        u, _ = j1_distance(fast_forward(q, above(-1.0)),
                           fast_forward(p, above(-1.0)))
        uppers.append(u)
    ok &= uppers[0] > uppers[1] > uppers[2]
    el = time.time() - t0
    assert _line("10 j1-families", ok,
                 f"family-1 lower bounds {['%.4f' % l for l in lows]} "
                 f"(>=1-1/n); family-2 lower {lo2:.3f} (>=0.4); dithered "
                 f"uppers {['%.1e' % u for u in uppers]} decreasing; "
                 f"{el:.1f}s")
