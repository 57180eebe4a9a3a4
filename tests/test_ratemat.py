import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from oneside_levy import ratemat
from oneside_levy.errors import (GridMismatchError, NonConvergenceError,
                                 NonUniqueError, NotHessenbergError,
                                 SingularSystemError)
from oneside_levy.grunwald import compute_coeffs
from oneside_levy.ratemat import (ALL_PAIRS, BoundaryPair, KrylovDiag,
                                  RateMatrix, build_restricted, build_stopped,
                                  ergodic_limit_z, landing_law,
                                  mean_absorption, resolvent_transpose_e,
                                  semigroup_row, semigroup_row_diag,
                                  stationary_interior,
                                  stopped_resolvent_profile, validity_report)
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec


def coeffs_for_n(exp, n, factor=4):
    return compute_coeffs(exp, 2.0 / (n + 1), max(factor * (n + 1), n + 2))


def test_boundary_pair_labels():
    assert BoundaryPair.from_label("N*D").left == "Nstar"
    assert BoundaryPair("Nstar", "N").label == "N*N"
    assert len(ALL_PAIRS) == 6
    with pytest.raises(ValueError):
        BoundaryPair.from_label("XX")
    with pytest.raises(ValueError):
        BoundaryPair("D", "Nstar")


def test_dd_first_row_is_weight_row(stable_exp):
    # n = 3, h = 0.5: the first interior row lists the raw weights and the
    # exact tail as the killing entry
    c = coeffs_for_n(stable_exp, 3, factor=8)
    Q = build_restricted(c, 3, BoundaryPair.from_label("DD"))
    expected = [c.g[0], c.g[1], c.g[2], c.g[3], c.tail[4]]
    assert np.allclose(Q.Q[1], expected, rtol=1e-14)
    assert abs(Q.Q[1].sum()) <= 1e-12 * abs(c.g[1])


def test_all_pairs_validity(stable_exp):
    for n in (9, 19):
        c = coeffs_for_n(stable_exp, n)
        for bc in ALL_PAIRS:
            Q = build_restricted(c, n, bc)
            v = validity_report(Q)
            assert v["row_sums_ok"], (bc.label, v["max_abs_row_sum"])
            assert v["offdiag_ok"] and v["diag_ok"]
            assert v["holding_ok"] and v["absorbing_rows_ok"]


def test_nn_first_row_sums_to_zero_exactly(stable_exp):
    c = coeffs_for_n(stable_exp, 9)
    Q = build_restricted(c, 9, BoundaryPair.from_label("NN"))
    # the last interior entry is defined as the negated partial sum, so the
    # cancellation is exact, not merely within tolerance
    assert Q.Q[1].sum() == 0.0


def test_nstar_holding_rate(stable_exp):
    c = coeffs_for_n(stable_exp, 9)
    for lab in ("N*D", "N*N"):
        Q = build_restricted(c, 9, BoundaryPair.from_label(lab))
        assert Q.Q[1, 1] == c.g[0] + c.g[1]
    # fast-forward boundaries hold at rate G_0 on both sides
    Qn = build_restricted(c, 9, BoundaryPair.from_label("ND"))
    assert Qn.Q[1, 1] == -c.g[0]
    Qr = build_restricted(c, 9, BoundaryPair.from_label("DN"))
    assert Qr.Q[9, 9] == -c.g[0]


def test_nr_landing_row_matches_tails(stable_exp):
    c = coeffs_for_n(stable_exp, 9)
    Q = build_restricted(c, 9, BoundaryPair.from_label("ND"))
    for j in range(2, 9):
        assert Q.Q[1, j] == pytest.approx(c.tail[j], rel=1e-14)
        # landing probability out of the holding state
        assert Q.Q[1, j] / c.g[0] == pytest.approx(
            -float(np.sum(c.g[: j])) / c.g[0], rel=1e-12)


def test_nd_corner_tail_entry(stable_exp, binom_oracle):
    # the ND corner accumulates sum_{j>n} T_j; closed binomial form for the
    # stable family, cross-checked against brute-force summation (the tails
    # decay like j^(1-alpha), so the brute sum converges slowly)
    n = 9
    c = compute_coeffs(stable_exp, 2.0 / (n + 1), 40_000)
    Q = build_restricted(c, n, BoundaryPair.from_label("ND"))
    brute = float(np.sum(c.tail[n + 1:]))
    closed = c.g[0] * (-1.0) ** (n + 1) * binom_oracle(1.5 - 2.0, n - 1)
    assert Q.Q[1, n + 1] == pytest.approx(closed, rel=1e-12)
    assert brute == pytest.approx(closed, rel=2e-2)


def test_grid_mismatch_raises(stable_exp, coeffs_h1):
    with pytest.raises(GridMismatchError):
        build_restricted(coeffs_h1, 9, BoundaryPair.from_label("DD"))


def test_tempered_family_builds_all_pairs():
    texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(1.5, 2.0))
    c = compute_coeffs(texp, 0.2, 200)
    for bc in ALL_PAIRS:
        v = validity_report(build_restricted(c, 9, bc))
        assert v["row_sums_ok"] and v["offdiag_ok"] and v["holding_ok"]
    # the corner is a finite sum over G_0..G_n, so the shallowest admissible
    # table gives the same ND corner as a deep one
    nd = BoundaryPair.from_label("ND")
    shallow = build_restricted(compute_coeffs(texp, 0.2, 12), 9, nd)
    assert shallow.Q[1, 10] == build_restricted(c, 9, nd).Q[1, 10]


@pytest.mark.parametrize("n", [9, 99])
def test_tempered_nd_corner_at_cli_depth(n):
    # The CLI builds with j_max = 4(n+1); the corner must match the partial
    # sum of tails from a table deep enough for the tempered tails to vanish.
    texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(1.5, 0.5))
    h = 2.0 / (n + 1)
    c = compute_coeffs(texp, h, 4 * (n + 1))
    Q = build_restricted(c, n, BoundaryPair.from_label("ND"))
    v = validity_report(Q)
    assert all(v[k] for k in ("row_sums_ok", "offdiag_ok", "diag_ok",
                              "holding_ok", "absorbing_rows_ok"))
    deep = compute_coeffs(texp, h, 200_000)
    partial = float(np.sum(deep.tail[n + 1:]))
    assert abs(Q.Q[1, n + 1] - partial) <= 1e-10 * abs(c.g[1])


def test_stopped_matrix_pattern(coeffs_h1):
    Q = build_stopped(coeffs_h1, 6, 5)
    i = Q.state_index
    assert not Q.Q[i(1)].any() and not Q.Q[i(5)].any()
    assert Q.Q[i(0), i(0)] == coeffs_h1.g[1]
    assert Q.Q[i(-1), i(5)] == coeffs_h1.g[7]
    assert Q.Q[i(-3), i(-4)] == coeffs_h1.g[0]


def test_stopped_resolvent_against_profile(stable_exp):
    h = 0.1
    m_below, k_above = 400, 60
    c = compute_coeffs(stable_exp, h, m_below + k_above + 8)
    Q = build_stopped(c, m_below, k_above)
    x = resolvent_transpose_e(Q, 1.0, Q.state_index(0))
    y = stopped_resolvent_profile(stable_exp, c, 1.0, -m_below, k_above)
    assert np.max(np.abs(x - y)) < 1e-8
    # backward error of the solve itself
    A = 1.0 * np.eye(Q.size) - Q.Q.T
    rhs = np.zeros(Q.size)
    rhs[Q.state_index(0)] = 1.0
    assert np.max(np.abs(A @ x - rhs)) < 1e-9
    # geometric decay below the source
    b = stable_exp.varphi_inverse(h, 1.0)
    lo = Q.state_index(-10)
    assert x[lo] / x[lo + 1] == pytest.approx(math.exp(-h * b), rel=1e-10)


def test_resolvent_large_beta_neumann(stable_exp, coeffs_h1):
    Q = build_stopped(coeffs_h1, 12, 12)
    i0 = Q.state_index(0)
    beta = 1e6
    x = resolvent_transpose_e(Q, beta, i0)
    e = np.zeros(Q.size)
    e[i0] = 1.0
    assert np.max(np.abs(x - e / beta)) < 10.0 / beta ** 2


def test_ergodic_limit_small_system(stable_exp):
    h = 0.1
    c = compute_coeffs(stable_exp, h, 1000)
    Q = build_stopped(c, 800, 8)
    z, raw = ergodic_limit_z(Q, [1e-3, 1e-4, 1e-5, 1e-6])
    i = Q.state_index
    assert abs(z[i(0)]) < 1e-3
    assert z[i(1)] == pytest.approx(0.5, abs=2e-3)
    assert z[i(2)] == pytest.approx(0.125, abs=2e-3)
    assert abs(raw[i(1)] - 0.5) < 5e-3
    # the limit is the absorption law: exactly 0 on the transient levels,
    # and above them the first-entry law that landing_law lumps into j_cap
    assert not z[: i(0) + 1].any()
    assert np.array_equal(z[i(1):], ratemat._first_entry(c, 800, 8))


def test_discounted_resolvent_approaches_the_limit(stable_exp):
    c = compute_coeffs(stable_exp, 0.1, 1000)
    Q = build_stopped(c, 800, 8)
    z, _ = ergodic_limit_z(Q, [1.0])
    for beta in (1e-3, 1e-4, 1e-5, 1e-6):
        x = resolvent_transpose_e(Q, beta, Q.state_index(0))
        assert np.sum(np.abs(beta * x - z)) <= 50.0 * beta
        _, raw = ergodic_limit_z(Q, [1.0, beta])
        assert np.array_equal(raw, beta * x)


def test_ergodic_limit_rejects_bad_input(stable_exp, coeffs_h1):
    Q = build_stopped(coeffs_h1, 12, 12)
    with pytest.raises(ValueError):
        ergodic_limit_z(Q, [0.0])
    without_weights = RateMatrix(Q=Q.Q, h=Q.h, bc=Q.bc, index_lo=Q.index_lo)
    with pytest.raises(ValueError):
        ergodic_limit_z(without_weights, [1e-3])
    restricted = build_restricted(coeffs_for_n(stable_exp, 9), 9,
                                  BoundaryPair.from_label("DD"))
    with pytest.raises(ValueError):
        ergodic_limit_z(restricted, [1e-3])


def test_zero_interior_block_raises_named_errors():
    n = 5
    zero = np.zeros((n + 2, n + 2))
    Qnd = RateMatrix(Q=zero, h=2.0 / (n + 1), n=n,
                     bc=BoundaryPair.from_label("ND"))
    with pytest.raises(SingularSystemError):
        mean_absorption(Qnd, 3)
    Qnn = RateMatrix(Q=zero, h=2.0 / (n + 1), n=n,
                     bc=BoundaryPair.from_label("NN"))
    with pytest.raises(NonUniqueError):
        stationary_interior(Qnn)


def test_entry_below_subdiagonal_raises_named_error(stable_exp):
    # the factorisation reads only two rows per column, so an entry it would
    # skip must stop it, never give a silently wrong solve
    A = np.eye(6)
    A[4, 2] = 1e-300
    with pytest.raises(NotHessenbergError):
        ratemat._factor(A)
    n = 9
    Q = build_restricted(coeffs_for_n(stable_exp, n), n,
                         BoundaryPair.from_label("DD"))
    bad = Q.Q.copy()
    bad[n, 1] = 0.5
    with pytest.raises(NotHessenbergError):
        mean_absorption(RateMatrix(Q=bad, h=Q.h, bc=Q.bc, n=n), 3)


def test_landing_law_matches_closed_form(stable_exp):
    c = compute_coeffs(stable_exp, 0.2, 2400)
    z = landing_law(c, m_below=1200, j_cap=64)
    for j in (1, 2, 3, 4):
        closed = float(c.tail[j + 1] / c.g[0])
        assert z[j] == pytest.approx(closed, abs=1e-3)
    assert z[0] == 0.0
    assert z.sum() == pytest.approx(1.0, abs=1e-12)


def test_landing_law_rejects_bad_spans(stable_exp):
    c = compute_coeffs(stable_exp, 0.2, 100)
    for m_below, j_cap in ((0, 8), (8, 0), (90, 10)):
        with pytest.raises(ValueError):
            landing_law(c, m_below, j_cap)


def test_landing_law_runs_in_linear_memory(stable_exp):
    # the W recursion and one convolution hold a few vectors of length
    # m_below + j_cap (about 0.1 MiB here); the dense factor of the
    # 3001-level transient block alone was 69 MiB
    c = compute_coeffs(stable_exp, 0.2, 8192)
    tracemalloc.start()
    try:
        landing_law(c, 3000, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("alpha, lam", [(1.5, 0.0), (1.3, 0.7)])
def test_lattice_scale_gives_the_dd_green_matrix(alpha, lam):
    n = 79
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = coeffs_for_n(exp, n)
    Q = build_restricted(c, n, BoundaryPair.from_label("DD"))
    green = np.linalg.inv(-Q.Q[1: n + 1, 1: n + 1])
    # W[n + k] = W(k) for k = -n..n+1, zero for k <= 0
    W = np.concatenate((np.zeros(n + 1), ratemat._lattice_scale(c.g, n + 1)))
    s = n + 1 - np.arange(1, n + 1)          # mirrored index of states 1..n
    from_w = (np.outer(W[n + s], W[2 * n + 1 - s]) / W[2 * n + 1]
              - W[n + s[:, None] - s[None, :]])
    rel = np.abs(from_w - green) / np.max(np.abs(green), axis=1)[:, None]
    assert np.max(rel) <= 1e-13


def _absorption_law(B, upper, row):
    """Absorption law over the upper levels of a chain started in transient
    state row: the Green row e_row (-B)^{-1} of the transient block B times
    upper, the rates into those levels.  Mass lost elsewhere is missing."""
    e = np.zeros(B.shape[0])
    e[row] = 1.0
    return ratemat._factor(B, -1.0)(e, trans=1) @ upper


def _dense_landing_law(c, m_below, j_cap):
    """The absorption law by the Hessenberg solve on views of the free-walk
    band, before any lumping (test oracle)."""
    V = ratemat._free_rows(c.g, m_below + 1,
                           ratemat._stopped_span(c, m_below, j_cap))
    return _absorption_law(V[:, :-j_cap], V[:, -j_cap:], m_below)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(alpha=st.floats(1.05, 1.95),
       lam=st.just(0.0) | st.floats(0.1, 3.0),
       h=st.sampled_from([0.02, 0.2, 1.0]),
       m_below=st.integers(1, 3000),
       j_cap=st.integers(1, 1024))
@example(alpha=1.5, lam=0.0, h=0.2, m_below=3000, j_cap=1024)
@example(alpha=1.3, lam=3.0, h=0.2, m_below=3000, j_cap=1024)
def test_landing_law_matches_the_dense_solve(alpha, lam, h, m_below, j_cap):
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = compute_coeffs(exp, h, m_below + j_cap + 1)
    dense = _dense_landing_law(c, m_below, j_cap)
    total = dense.sum()
    if not 0.5 < total <= 1.0 + 1e-9:
        with pytest.raises(SingularSystemError):
            landing_law(c, m_below, j_cap)
        return
    z = landing_law(c, m_below, j_cap)
    dense[-1] += max(0.0, 1.0 - total)
    assert z[0] == 0.0
    assert np.max(np.abs(z[1:] - dense)) <= 1e-12 * np.max(dense)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(alpha=st.floats(1.05, 1.95),
       lam=st.just(0.0) | st.floats(0.1, 3.0),
       h=st.sampled_from([0.02, 0.2, 1.0]),
       m_below=st.integers(1, 2000),
       k_above=st.integers(1, 300))
@example(alpha=1.5, lam=0.0, h=0.1, m_below=1000, k_above=200)
def test_ergodic_limit_matches_the_dense_solve(alpha, lam, h, m_below,
                                                k_above):
    # the limit comes from the lattice scale function W; the dense solve on
    # the stopped matrix's transient block is its oracle
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = compute_coeffs(exp, h, m_below + k_above + 1)
    Q = build_stopped(c, m_below, k_above)
    z, _ = ergodic_limit_z(Q, [1e-3])
    t = Q.state_index(0) + 1
    dense = _absorption_law(Q.Q[:t, :t], Q.Q[:t, t:], t - 1)
    assert not z[:t].any()
    assert np.max(np.abs(z[t:] - dense)) <= 1e-12 * np.max(dense)


def test_landing_law_near_alpha_one_raises_named_error():
    # at alpha 1.01 the walk truncated 3000 levels down enters level >= 1
    # with probability 0.0697 only: no plausible law, and no silent one
    c = compute_coeffs(LaplaceExponent(LevyMeasureSpec.stable(1.01)), 0.2,
                       4100)
    assert _dense_landing_law(c, 3000, 1024).sum() == pytest.approx(
        0.0697, abs=1e-4)
    with pytest.raises(SingularSystemError):
        landing_law(c, 3000, 1024)


def test_semigroup_row_basics(stable_exp):
    n = 9
    c = coeffs_for_n(stable_exp, n)
    for bc in ALL_PAIRS:
        Q = build_restricted(c, n, bc)
        row0 = semigroup_row(Q, 0.0, 5)
        assert row0[5] == 1.0 and row0.sum() == 1.0
        row = semigroup_row(Q, 0.5, 5)
        assert np.all(row >= -1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-10)
    Qdd = build_restricted(c, n, BoundaryPair.from_label("DD"))
    row = semigroup_row(Qdd, 1.0, 5)
    assert row[0] > 0.0 and row[n + 1] > 0.0


def test_semigroup_row_series_oracle(stable_exp):
    # the Krylov row against a brute-force truncated matrix exponential
    n = 5
    c = coeffs_for_n(stable_exp, n)
    Q = build_restricted(c, n, BoundaryPair.from_label("NN"))
    t = 0.37
    expm = np.eye(Q.size)
    term = np.eye(Q.size)
    for k in range(1, 200):
        term = term @ (t * Q.Q) / k
        expm += term
    assert np.max(np.abs(semigroup_row(Q, t, 3) - expm[3])) < 1e-10


def _dense_uniformization(Q, t, i0):
    """Row i0 of exp(tQ) by uniformization, one row-vector product per
    Poisson step (an oracle independent of the Krylov route)."""
    v = np.zeros(Q.size)
    v[i0] = 1.0
    lam = float(np.max(-np.diag(Q.Q)))
    P = np.eye(Q.size) + Q.Q / lam
    mu = lam * t
    out = np.zeros(Q.size)
    acc = 0.0
    k = 0
    while k <= int(mu + 12.0 * math.sqrt(mu) + 50.0) and acc < 1.0 - 1e-12:
        w = math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1) if k else -mu)
        out += w * v
        acc += w
        v = v @ P
        k += 1
    return out / acc


def test_semigroup_row_krylov_edges(stable_exp):
    # t = 0 takes no step; at n = 3 the Krylov space is the whole state
    # space (a happy breakdown at m <= n + 2); an absorbing start breaks down
    # at m = 1; a long horizon t = 400 uses gamma = 20.
    n = 9
    Q = build_restricted(coeffs_for_n(stable_exp, n), n,
                         BoundaryPair.from_label("DN"))
    row, diag = semigroup_row_diag(Q, 0.0, 3)
    assert row[3] == row.sum() == 1.0
    assert diag == KrylovDiag(0, 0.0, 0.0, 0.0, 0.0)
    Q3 = build_restricted(coeffs_for_n(stable_exp, 3), 3,
                          BoundaryPair.from_label("DN"))
    for t in (0.3, 2.0):
        row, diag = semigroup_row_diag(Q3, t, 2)
        assert diag.krylov_dim <= Q3.size
        err = np.max(np.abs(row - scipy.linalg.expm(t * Q3.Q)[2]))
        assert err <= min(diag.error_estimate, 1e-14)
    row, diag = semigroup_row_diag(Q, 1.0, 0)
    assert diag.krylov_dim == 1 and row[0] == row.sum() == 1.0
    for i0 in (1, 5, n):
        row, diag = semigroup_row_diag(Q, 400.0, i0)
        assert diag.gamma == 20.0
        err = np.max(np.abs(row - _dense_uniformization(Q, 400.0, i0)))
        assert err <= diag.error_estimate and err <= 1e-12
        assert row.min() >= 0.0


def test_semigroup_row_rejects_start_outside_the_states(stable_exp):
    # a negative i0 must not index from the end, nor i0 = size fail inside
    # numpy
    n = 9
    Q = build_restricted(coeffs_for_n(stable_exp, n), n,
                         BoundaryPair.from_label("DN"))
    for i0 in (-3, -1, Q.size):
        for t in (0.0, 0.5):
            with pytest.raises(IndexError, match="outside"):
                semigroup_row_diag(Q, t, i0)


@pytest.mark.parametrize("alpha", [1.1, 1.9])
def test_semigroup_row_matches_expm_at_n499(alpha):
    # A size the property tests never reach: m stays far below n + 2, so the
    # stopping rule, not a breakdown, ends the iteration.
    n, t = 499, 1.0
    exp = LaplaceExponent(LevyMeasureSpec.stable(alpha))
    c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
    for bc in ALL_PAIRS:
        Q = build_restricted(c, n, bc)
        i0 = (n + 1) // 2
        row, diag = semigroup_row_diag(Q, t, i0)
        err = np.max(np.abs(row - scipy.linalg.expm(t * Q.Q)[i0]))
        assert err <= 1e-10 and err <= diag.error_estimate, (bc.label, diag)
        assert diag.krylov_dim < 100
        assert row.min() >= 0.0
        assert row.sum() <= 1.0 + 1e-12
        if "D" not in bc.label:
            assert abs(row[1: n + 1].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [1.5, 1.95])
@pytest.mark.parametrize("lam_t", [1e5, 1e7])
@pytest.mark.parametrize("n", [9, 99])
def test_semigroup_rows_at_long_horizons(alpha, lam_t, n):
    # lam t ~ 1e5..1e7 with gamma = t/20 makes I - gamma Q nearly singular
    # for NN.  Every row must converge or raise NonConvergenceError (a
    # RuntimeWarning fails the test); a conservative row must be stationary
    # within its estimate, and a killed chain must have left the interior
    # once t is far past its slowest decay rate kappa.
    exp = LaplaceExponent(LevyMeasureSpec.stable(alpha))
    c = coeffs_for_n(exp, n)
    for bc in ALL_PAIRS:
        Q = build_restricted(c, n, bc)
        lam = float(np.max(-np.diag(Q.Q)))
        t = lam_t / lam
        kappa = -float(np.max(np.linalg.eigvals(Q.Q[1: n + 1, 1: n + 1]).real))
        for i0 in (1, (n + 1) // 2, n):
            try:
                row, diag = semigroup_row_diag(Q, t, i0)
            except NonConvergenceError:
                continue
            est = diag.error_estimate
            if bc.label == "NN":
                pi = stationary_interior(Q)
                assert np.sum(np.abs(row[1: n + 1] - pi)) <= est
            elif bc.label == "N*N":
                assert np.sum(np.abs(row @ Q.Q)) <= 2.0 * lam * est
            elif alpha == 1.5 or kappa * t >= 40.0:
                # the exact interior mass is about exp(-kappa t) <= 4e-18;
                # at alpha = 1.5 every case here is that far out
                assert kappa * t >= 40.0
                assert row[1: n + 1].sum() <= est


def test_semigroup_row_raises_without_convergence(stable_exp, monkeypatch):
    n = 99
    Q = build_restricted(coeffs_for_n(stable_exp, n), n,
                         BoundaryPair.from_label("NN"))
    monkeypatch.setattr(ratemat, "KRYLOV_MAX_DIM", 6)
    with pytest.raises(NonConvergenceError):
        semigroup_row_diag(Q, 1.0, 50)


def test_stationary_interior_nn(stable_exp):
    # The interior generator of the NN pair has exactly vanishing column
    # sums (the killing-free boundary rows are negated partial sums of the
    # same weights), so the uniform vector is stationary at every mesh, not
    # only in the fine-mesh limit.
    for n in (9, 19, 39):
        c = coeffs_for_n(stable_exp, n)
        Q = build_restricted(c, n, BoundaryPair.from_label("NN"))
        col_sums = Q.Q[1: n + 1, 1: n + 1].sum(axis=0)
        assert np.max(np.abs(col_sums)) < 1e-13 * abs(c.g[1])
        pi = stationary_interior(Q)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0.0)
        resid = pi @ Q.Q[1: n + 1, 1: n + 1]
        assert np.max(np.abs(resid)) < 1e-10 * abs(c.g[1])
        assert np.max(np.abs(pi - 1.0 / n)) < 1e-12


def test_stationary_requires_nn(stable_exp):
    c = coeffs_for_n(stable_exp, 9)
    Q = build_restricted(c, 9, BoundaryPair.from_label("DD"))
    with pytest.raises(ValueError):
        stationary_interior(Q)


def test_mean_absorption_three_state_hand_solve(stable_exp):
    # 3-state DD chain solved by Cramer's rule on hand-entered weights
    n = 3
    c = coeffs_for_n(stable_exp, n, factor=8)
    Q = build_restricted(c, n, BoundaryPair.from_label("DD"))
    s = 0.5 ** -1.5
    A = np.array([
        [-1.5 * s, 0.375 * s, 0.0625 * s],
        [1.0 * s, -1.5 * s, 0.375 * s],
        [0.0, 1.0 * s, -1.5 * s],
    ])
    det = np.linalg.det(A)
    m2 = np.linalg.det(np.column_stack([A[:, 0], -np.ones(3), A[:, 2]])) / det
    assert mean_absorption(Q, 2) == pytest.approx(m2, rel=1e-12)
    # absorption next to the killing side is quick
    Qnd = build_restricted(c, n, BoundaryPair.from_label("ND"))
    m_near = mean_absorption(Qnd, 3)
    m_far = mean_absorption(Qnd, 1)
    assert 0.0 < m_near < m_far


def test_mean_absorption_needs_killing(stable_exp):
    c = coeffs_for_n(stable_exp, 9)
    Q = build_restricted(c, 9, BoundaryPair.from_label("NN"))
    with pytest.raises(ValueError):
        mean_absorption(Q, 5)
