"""Property tests of the restricted generators over random symbols and meshes.

Every boundary pair is built at the depth the command line uses,
j_max = 4(n+1), and must pass every check of :func:`validity_report`.  For
the untempered family the ND corner, computed by the finite identity
sum_{j>n} T_j = sum_{k<n} (n-k) G_k, is compared with its binomial closed
form G_0 (-1)^(n+1) binom(alpha-2, n-1).  Semigroup rows from the blocked
uniformization are compared with scipy's dense matrix exponential.  The J1
distance between step paths is compared with a brute-force search over time
changes and checked to be a metric.
"""

import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oneside_levy.grunwald import compute_coeffs
from oneside_levy.paths import j1_distance, make_step_path
from oneside_levy.ratemat import (ALL_PAIRS, build_restricted, semigroup_row,
                                  validity_report)
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

_CHECKS = ("row_sums_ok", "offdiag_ok", "diag_ok", "holding_ok",
           "absorbing_rows_ok")


# alpha covers the whole open interval down to 1 + 2^-52.  The tempered
# symbol vanishes like alpha - 1; its compensated form keeps that factor out of
# any cancellation, so the leading weights G_0, G_1 stay accurate as alpha -> 1.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       lam=st.just(0.0) | st.floats(0.0, 3.0),
       n=st.integers(3, 200))
def test_all_pairs_valid_at_cli_depth(binom_oracle, alpha, lam, n):
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
    for bc in ALL_PAIRS:
        Q = build_restricted(c, n, bc)
        v = validity_report(Q)
        assert all(v[k] for k in _CHECKS), (bc.label, v)
        if bc.label == "ND" and lam == 0.0:
            closed = c.g[0] * (-1.0) ** (n + 1) * binom_oracle(alpha - 2.0,
                                                               n - 1)
            assert abs(Q.Q[1, n + 1] - closed) <= 1e-12 * abs(c.g[1])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       lam=st.just(0.0) | st.floats(0.0, 3.0),
       bc=st.sampled_from(ALL_PAIRS),
       n=st.integers(3, 40),
       t=st.floats(0.0, 2.0, exclude_min=True),
       i0_frac=st.floats(0.0, 1.0))
def test_semigroup_row_matches_expm(alpha, lam, bc, n, t, i0_frac):
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    Q = build_restricted(compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1)), n,
                         bc)
    i0 = 1 + min(n - 1, int(i0_frac * n))
    row = semigroup_row(Q, t, i0)
    assert np.max(np.abs(row - scipy.linalg.expm(t * Q.Q)[i0])) <= 1e-10
    if np.all(Q.Q - np.diag(np.diag(Q.Q)) >= 0.0):
        assert row.min() >= 0.0
    assert row.sum() <= 1.0 + 1e-12
    if "D" not in bc.label:
        assert abs(row[1: n + 1].sum() - 1.0) <= 1e-12


# -- J1 distance between step paths ------------------------------------------

# Epochs on a coarse dyadic grid, so that ties between the two paths and
# jumps at the horizon T = 1 are common and every difference is exact.
_GRID_TIMES = [k / 8 for k in range(1, 9)]
_GRID_VALUES = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5]
_EPS = 2.0 ** -30


@st.composite
def _grid_paths(draw):
    epochs = sorted(draw(st.sets(st.sampled_from(_GRID_TIMES), max_size=3)))
    values = draw(st.lists(st.sampled_from(_GRID_VALUES),
                           min_size=len(epochs) + 1, max_size=len(epochs) + 1))
    return make_step_path(1.0, values[0], epochs, values[1:])


@st.composite
def _float_paths(draw):
    times = st.sampled_from(_GRID_TIMES) | st.floats(0.0, 1.0, exclude_min=True)
    epochs = sorted(draw(st.sets(times, max_size=6)))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(epochs) + 1,
                           max_size=len(epochs) + 1))
    return make_step_path(1.0, values[0], epochs, values[1:])


def _j1_oracle(p, q):
    """J1 distance on [0, T] by brute force over the time change.

    A time change lam acts only through the times u_i = lam^-1(s_i) at which
    p o lam takes the jumps of p: increasing, below T for s_i < T and equal to
    T for s_i = T.  Then sup|lam - id| = max_i |u_i - s_i|, and sup|p o lam - q|
    is read off at the jump times of both step functions.  Each u_i is tried
    at the epochs of p and at 0, T and the epochs of q shifted by up to m
    steps of _EPS, which covers the infimum of every ordering of the jumps to
    within m _EPS.  Every candidate is a real time change, so the result is
    never below the distance.
    """
    T = p.T
    ps, qs = list(p.epochs), list(q.epochs)
    pv, qv = p.all_values(), q.all_values()
    m = len(ps)
    anchors = {0.0, T, *qs}
    cands = sorted({c for c in ps + [a + k * _EPS for a in anchors
                                     for k in range(-m, m + 1)]
                    if 0.0 < c < T})

    def value_gap(us):
        return max(abs(pv[sum(u <= t for u in us)] - qv[sum(s <= t for s in qs)])
                   for t in {0.0, T, *us, *qs})

    best = math.inf

    def place(i, us, time_cost):
        nonlocal best
        if time_cost >= best:
            return
        if i == m:
            best = min(best, max(time_cost, value_gap(us)))
            return
        lo = us[-1] if us else 0.0
        for u in ([T] if ps[i] == T else cands):
            if u > lo:
                place(i + 1, us + [u], max(time_cost, abs(u - ps[i])))

    place(0, [], 0.0)
    return best


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_grid_paths(), q=_grid_paths())
def test_j1_distance_matches_brute_force(p, q):
    d, d_again = j1_distance(p, q)
    assert d == d_again
    assert d <= _j1_oracle(p, q) <= d + 3 * _EPS


# Every cost in the dynamic program is one rounded difference of the inputs,
# so d(p, q) and d(q, p) are the same rounded optimum, bit for bit.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_grid_paths() | _float_paths(), q=_grid_paths() | _float_paths())
def test_j1_distance_symmetric_and_zero_on_diagonal(p, q):
    assert j1_distance(p, q) == j1_distance(q, p)
    assert j1_distance(p, p) == (0.0, 0.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_grid_paths() | _float_paths(), q=_grid_paths() | _float_paths(),
       r=_grid_paths() | _float_paths())
def test_j1_distance_triangle_inequality(p, q, r):
    d_pr, _ = j1_distance(p, r)
    d_pq, _ = j1_distance(p, q)
    d_qr, _ = j1_distance(q, r)
    assert d_pr <= d_pq + d_qr + 1e-12
