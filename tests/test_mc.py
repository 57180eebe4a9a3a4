import dataclasses
import hashlib
import math

import numpy as np
import pytest

from oneside_levy import mc
from oneside_levy.grunwald import compute_coeffs
from oneside_levy.mc import (first_transition_mc, mapped_process_mc,
                             reentry_table, total_variation)
from oneside_levy.ratemat import (ALL_PAIRS, BoundaryPair, build_restricted,
                                  mean_absorption, semigroup_row)
from oneside_levy.scale import mean_exit

N = 9
H = 2.0 / (N + 1)


@pytest.fixture(scope="module")
def coeffs(stable_exp):
    return compute_coeffs(stable_exp, H, 8192)


@pytest.fixture(scope="module")
def reentry(coeffs):
    return reentry_table(coeffs, m_below=2000, j_cap=1024)


@pytest.mark.parametrize("mode", ["greens", "tails"])
def test_reentry_table_ends_at_one(coeffs, reentry, mode):
    # the greens sum ends at 0.9999999999999988 before its last entry is set
    cum = reentry if mode == "greens" else reentry_table(coeffs, mode="tails")
    assert cum[-1] == 1.0
    u = np.nextafter(1.0, 0.0)
    assert cum.searchsorted(u, side="right") == len(cum) - 1


def test_reentry_table_matches_closed_form(coeffs):
    cum = reentry_table(coeffs, m_below=1500, j_cap=256)
    z = np.diff(np.concatenate(([0.0], cum)))
    for j in (1, 2, 3):
        assert z[j - 1] == pytest.approx(float(coeffs.tail[j + 1] / coeffs.g[0]),
                                         abs=5e-4)
    assert cum[-1] == pytest.approx(1.0, abs=1e-9)


def test_marginals_match_semigroup_rows(stable_exp, coeffs, reentry):
    n_paths = 20_000
    times = (0.1, 0.5)
    c_mat = compute_coeffs(stable_exp, H, 4 * (N + 1))
    for bc in ALL_PAIRS:
        counts, _, diag = mapped_process_mc(
            coeffs, bc, N, 5, n_paths, seed=77, probe_times=times,
            reentry_cum=reentry)
        assert counts.sum(axis=1).tolist() == [n_paths, n_paths]
        Q = build_restricted(c_mat, N, bc)
        for j, t in enumerate(times):
            tv = total_variation(counts[j] / n_paths, semigroup_row(Q, t, 5))
            assert tv < 0.03, (bc.label, t, tv)


def test_marginals_deterministic(coeffs, reentry):
    bc = BoundaryPair.from_label("NN")
    a = mapped_process_mc(coeffs, bc, N, 5, 5000, seed=5, probe_times=(0.3,),
                          reentry_cum=reentry)[0]
    b = mapped_process_mc(coeffs, bc, N, 5, 5000, seed=5, probe_times=(0.3,),
                          reentry_cum=reentry)[0]
    assert np.array_equal(a, b)
    c2 = mapped_process_mc(coeffs, bc, N, 5, 5000, seed=6, probe_times=(0.3,),
                           reentry_cum=reentry)[0]
    assert not np.array_equal(a, c2)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Recorded at these seeds with the two-engine code that preceded the shared
# block loop (a separate first-transition engine).  9000 paths span two
# 8192-path blocks.  Only a change of numpy's random streams justifies
# re-recording them.
PINNED = {
    "first transition": (
        "4e653f38352a47615a69c973efe404435d342d59ecf3260a4d17742589c1f3b4",
        dict(n_paths=9000, completions=580, excursions=9102,
             iterations=4102, events=1818174)),
    "NN marginals": (
        "2223d20480eee0bf1d985581ab63798ba345130f692fb4c8c35f3f1da727ef88",
        dict(n_paths=9000, completions=233, excursions=4418,
             iterations=4119, events=819790)),
    "ND absorption": (
        "6ce15ed7fc4ba91b176f1b25adf28e8615ee0681941991d02cc65b69d9424eb8",
        dict(n_paths=9000, completions=1399, excursions=21993,
             iterations=6479, events=4611638)),
}


# Recorded at these seeds with the full-width lockstep loop that preceded
# live-path compaction (every mask and draw over the whole block).  They pin
# the probe bookkeeping of the other boundary rules at probe times 0.05, 0.3
# and 1: left killing, Nstar clamping, right truncation, and ND re-entry
# killing, which records the probes a path has not reached as absorbed.  Same
# re-recording rule as above.
PINNED_PROBES = {
    "DD": (707, "76a988fb79ec31e7c0d0e5a6c0824946df16334ebdf87b37020a806cb6344354",
           dict(n_paths=9000, completions=0, excursions=0, iterations=31,
                events=93244)),
    "DN": (708, "44c97fa6d868b1b28d8baba8816f6afcba03015caac7733ffe5a2574f92d4e97",
           dict(n_paths=9000, completions=0, excursions=0, iterations=32,
                events=115974)),
    "N*D": (709, "8baf8fd26f782b60d41a3c1914fe4658c6ae79c096019aea8175575c51843bda",
            dict(n_paths=9000, completions=0, excursions=0, iterations=33,
                 events=133039)),
    "N*N": (710, "3e77d2e378b17c59b0357f3c4442a573d6639aff30b78e4979afbc5365264cb0",
            dict(n_paths=9000, completions=0, excursions=0, iterations=37,
                 events=159781)),
    "ND": (711, "ef8f18e80753a59b197077a0fbcfbdd55bcd7985140611e8c27bd9d4ec2e48f4",
           dict(n_paths=9000, completions=637, excursions=10234,
                iterations=4216, events=2044998)),
}


def test_engine_outputs_pinned(coeffs, reentry):
    holds, lands, d_ft = first_transition_mc(coeffs, 9000, seed=404,
                                             reentry_cum=reentry)
    counts, _, d_nn = mapped_process_mc(
        coeffs, BoundaryPair.from_label("NN"), N, 5, 9000, seed=505,
        probe_times=(0.1, 0.5), reentry_cum=reentry)
    _, times, d_nd = mapped_process_mc(
        coeffs, BoundaryPair.from_label("ND"), N, 5, 9000, seed=606,
        collect_absorption=True, reentry_cum=reentry)
    got = {"first transition": (_digest(holds, lands), d_ft),
           "NN marginals": (_digest(counts), d_nn),
           "ND absorption": (_digest(times), d_nd)}
    for key, (digest, diag) in got.items():
        assert (digest, dataclasses.asdict(diag)) == PINNED[key], key
    for label, (seed, digest, diag) in PINNED_PROBES.items():
        counts, _, d = mapped_process_mc(
            coeffs, BoundaryPair.from_label(label), N, 5, 9000, seed=seed,
            probe_times=(0.05, 0.3, 1.0), reentry_cum=reentry)
        assert counts.sum(axis=1).tolist() == [9000] * 3, label
        assert (_digest(counts), dataclasses.asdict(d)) == (digest, diag), label


def test_absorption_times_match_matrix_solve(stable_exp, coeffs, reentry):
    bc = BoundaryPair.from_label("ND")
    _, times, diag = mapped_process_mc(coeffs, bc, N, 5, 20_000, seed=99,
                                       collect_absorption=True,
                                       reentry_cum=reentry)
    assert np.all(np.isfinite(times))
    c_mat = compute_coeffs(stable_exp, H, 4 * (N + 1))
    Q = build_restricted(c_mat, N, bc)
    target = mean_absorption(Q, 5)
    se = times.std() / math.sqrt(len(times))
    assert abs(times.mean() - target) <= 4.0 * se


def test_absorption_guard(coeffs, monkeypatch):
    with pytest.raises(ValueError):
        mapped_process_mc(coeffs, BoundaryPair.from_label("NN"), N, 5, 10,
                          seed=1, collect_absorption=True)
    with pytest.raises(ValueError):
        mapped_process_mc(coeffs, BoundaryPair.from_label("ND"), N, 5, 10,
                          seed=1, probe_times=(0.1,), collect_absorption=True)
    with pytest.raises(ValueError):
        mapped_process_mc(coeffs, BoundaryPair.from_label("ND"), N, 5, 10,
                          seed=1)
    with pytest.raises(ValueError):
        mapped_process_mc(coeffs, BoundaryPair.from_label("DD"), N, 5, 10,
                          seed=1, probe_times=(0.2, -0.1))

    # a left fast-forwarded boundary needs the caller's re-entry table; the
    # engine builds none and draws nothing without it
    def no_draws(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(mc, "_simulate", no_draws)
    with pytest.raises(ValueError, match="reentry_cum"):
        mapped_process_mc(coeffs, BoundaryPair.from_label("ND"), N, 5, 10,
                          seed=1, probe_times=(0.1,))


@pytest.mark.parametrize("i0", [N + 1, N + 2, 0, -1])
def test_start_state_must_be_interior(coeffs, monkeypatch, i0):
    # the absorbing states and anything outside 0..n+1 are refused before the
    # engine draws anything
    def no_draws(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(mc, "_simulate", no_draws)
    with pytest.raises(ValueError, match="interior"):
        mapped_process_mc(coeffs, BoundaryPair.from_label("DD"), N, i0, 200,
                          seed=1, probe_times=(0.5,))


def test_first_transition_small(coeffs, reentry):
    n_samp = 20_000
    holds, lands, diag = first_transition_mc(coeffs, n_samp, seed=303,
                                             reentry_cum=reentry)
    g0 = coeffs.g[0]
    se = holds.std() / math.sqrt(n_samp)
    assert abs(holds.mean() - 1.0 / g0) <= 4.0 * se
    p1 = float(np.mean(lands == 1))
    assert abs(p1 - 0.5) <= 4.0 * math.sqrt(0.25 / n_samp)
    assert diag.completions < diag.excursions
    assert np.all(lands >= 1)
