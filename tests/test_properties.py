"""Property tests of the restricted generators over random symbols and meshes.

Every boundary pair is built at the depth the command line uses,
j_max = 4(n+1), and must pass every check of :func:`validity_report`.  For
the untempered family the ND corner, computed by the finite identity
sum_{j>n} T_j = sum_{k<n} (n-k) G_k, is compared with its binomial closed
form G_0 (-1)^(n+1) binom(alpha-2, n-1).  The NN interior block has
vanishing column sums, so its stationary vector is flat.  Krylov semigroup
rows are compared with scipy's dense matrix exponential, and their error
estimates must bound the gap.  The J1 distance between step paths is
compared with a brute-force search over time changes and checked to be a
metric.  On random paths with exact integer times, the unit conversions
are checked against the float path, the killing, reflecting and
fast-forwarding maps against their exact identities, and the reflections
against the minimal-pushing rules, and the shared killing and one-sided
reflection kernels against the mirrored loops they replaced, bit for bit
with the sign of zero.  The O(n^2) Hessenberg factorisation
behind every generator solve is checked against scipy.linalg.solve, by
residual, on random upper Hessenberg matrices (diagonally dominant ones and
ones whose tiny diagonal forces row swaps) and on the generator systems of
all six pairs.
"""

import bisect
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oneside_levy import ratemat
from oneside_levy.errors import EmptyRegionError
from oneside_levy.grunwald import compute_coeffs
from oneside_levy.paths import (TICK_BITS, StepPath, above, below, between,
                                fast_forward, j1_distance, kill_left,
                                kill_right, make_step_path, reflect_left,
                                reflect_right, reflect_two_sided)
from oneside_levy.ratemat import (ALL_PAIRS, BoundaryPair, build_restricted,
                                  build_stopped, semigroup_row_diag,
                                  stationary_interior, validity_report)
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


def _restricted_oracle(c, n, bc):
    """The restricted generator filled row by row (test oracle)."""
    g, T = c.g, c.tail
    Q = np.zeros((n + 2, n + 2))
    left = {"D": g[: n + 1].copy(), "N": np.concatenate(([0.0], T[1: n + 1])),
            "Nstar": np.concatenate(([0.0, g[0] + g[1]], g[2: n + 1]))}
    Q[1, : n + 1] = left[bc.left]
    for i in range(2, n + 1):
        Q[i, i - 1: n + 1] = g[: n - i + 2]
        if bc.right == "D":
            Q[i, n + 1] = T[n - i + 2]
        else:
            Q[i, n] = T[n - i + 1]
    if bc.right == "D":
        Q[1, n + 1] = (-float(np.sum(T[1: n + 1])) if bc.left == "N"
                       else T[n + 1])
    else:
        Q[1, n] = -(Q[1, 0] + float(np.sum(Q[1, 1: n])))
    return Q


def _stopped_oracle(c, m_below, k_above):
    """The stopped generator filled row by row (test oracle)."""
    size = m_below + k_above + 1
    Q = np.zeros((size, size))
    for r in range(m_below + 1):
        lo = max(r - 1, 0)
        Q[r, lo:] = c.g[lo - r + 1: size - r + 1]
    return Q


# Every generator copies the free walk's band G_{j-i+1} from one strided
# view; row by row it must give the same bits, at the smallest depth each
# builder accepts and deeper.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       lam=st.just(0.0) | st.floats(0.0, 3.0),
       n=st.integers(3, 300), extra=st.integers(0, 3),
       m_below=st.integers(1, 30), k_above=st.integers(1, 30))
def test_generators_match_row_loops(alpha, lam, n, extra, m_below, k_above):
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = compute_coeffs(exp, 2.0 / (n + 1), n + 2 + extra)
    for bc in ALL_PAIRS:
        assert np.array_equal(build_restricted(c, n, bc).Q,
                              _restricted_oracle(c, n, bc)), bc.label
    c = compute_coeffs(exp, 0.5, m_below + k_above + 1 + extra)
    assert np.array_equal(build_stopped(c, m_below, k_above).Q,
                          _stopped_oracle(c, m_below, k_above))


# The NN boundary rows are negated partial sums of the interior weights, so
# every interior column sums to zero and the uniform vector is stationary at
# every mesh.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       lam=st.just(0.0) | st.floats(0.0, 3.0),
       n=st.integers(3, 200))
def test_nn_interior_column_sums_vanish(alpha, lam, n):
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
    Q = build_restricted(c, n, BoundaryPair.from_label("NN"))
    col_sums = Q.Q[1: n + 1, 1: n + 1].sum(axis=0)
    assert np.max(np.abs(col_sums)) <= 1e-12 * abs(c.g[1])
    assert np.max(np.abs(stationary_interior(Q) - 1.0 / n)) <= 1e-12


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
    row, diag = semigroup_row_diag(Q, t, i0)
    err = np.max(np.abs(row - scipy.linalg.expm(t * Q.Q)[i0]))
    assert err <= 1e-10 and err <= diag.error_estimate
    if np.all(Q.Q - np.diag(np.diag(Q.Q)) >= 0.0):
        assert row.min() >= 0.0
    assert row.sum() <= 1.0 + 1e-12
    if "D" not in bc.label:
        assert abs(row[1: n + 1].sum() - 1.0) <= 1e-12


# -- Hessenberg factorisation ------------------------------------------------

def _check_solves(A, scale=1.0, shift=0.0):
    """solve(b, trans) of ratemat._factor against scipy.linalg.solve: the
    residual of M x = b (M^T x = b) stays within 8 times the reference
    solution's residual or 8 n eps |M| |x|, whichever is larger."""
    n = A.shape[0]
    M = scale * A + shift * np.eye(n)
    solve = ratemat._factor(A, scale, shift)
    b = np.random.default_rng(n).standard_normal(n)
    for trans, Mt in ((0, M), (1, M.T)):
        x = solve(b, trans=trans)
        ref = scipy.linalg.solve(Mt, b, check_finite=False)
        floor = n * np.finfo(float).eps * np.max(np.abs(Mt).sum(axis=1)) \
            * np.max(np.abs(x))
        ref_res = np.max(np.abs(Mt @ ref - b))
        assert np.max(np.abs(Mt @ x - b)) <= 8.0 * max(ref_res, floor)


@st.composite
def _hessenberg(draw):
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = np.triu(rng.uniform(-1.0, 1.0, (n, n)), -1)
    if draw(st.booleans()):
        # a unit subdiagonal over a diagonal 1e-3 smaller: elimination
        # without row swaps would meet multipliers of order 1e3 at every step
        A.flat[:: n + 1] *= 1e-3
        A.flat[n:: n + 1] = rng.choice([-1.0, 1.0], n - 1)
    else:
        A.flat[:: n + 1] = np.abs(A).sum(axis=1) + 1.0  # dominant by rows
    return A


@settings(derandomize=True, deadline=None, max_examples=200)
@given(A=_hessenberg())
def test_hessenberg_factor_solves_random_matrices(A):
    _check_solves(A)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       lam=st.just(0.0) | st.floats(0.0, 3.0),
       bc=st.sampled_from(ALL_PAIRS),
       n=st.integers(3, 300),
       t=st.floats(1e-3, 10.0))
def test_hessenberg_factor_solves_generator_systems(alpha, lam, bc, n, t):
    # I - gamma Q and the interior block of every pair, the NN stationary
    # system and the transient block of the stopped chain
    exp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
    Q = build_restricted(c, n, bc)
    _check_solves(Q.Q, -t / 20.0, 1.0)
    B = Q.Q[1: n + 1, 1: n + 1]
    if "D" in bc.label:
        _check_solves(B)
    if bc.label == "NN":
        A = B.copy()
        A[:, -1] = 1.0
        _check_solves(A)
        pi = stationary_interior(Q)
        assert np.max(np.abs(pi @ B)) <= 1e-12 * abs(c.g[1])
    S = build_stopped(c, n, 3)
    _check_solves(S.Q[: n + 1, : n + 1], -1.0)


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


# -- exact integer times ------------------------------------------------------

# Epochs anywhere in (0, T], subnormals included; values on a quarter grid so
# that the barriers at -1 and 1 are hit exactly.
_SUBNORMALS = [5e-324, 2.0 ** -1060, 1e-310]
_QUARTERS = [k / 4 for k in range(-8, 9)]
_REGIONS = {"above": (above(-1.0), lambda v: v > -1.0),
            "below": (below(1.0), lambda v: v < 1.0),
            "between": (between(-1.0, 1.0), lambda v: -1.0 < v < 1.0)}


@st.composite
def _random_time_paths(draw, values=st.floats(-2.0, 2.0)):
    T = draw(st.just(1.0) | st.floats(0.5, 4.0))
    times = (st.floats(0.0, T, exclude_min=True) | st.sampled_from(_SUBNORMALS)
             | st.sampled_from([g for g in _GRID_TIMES if g <= T]))
    epochs = sorted(draw(st.sets(times, max_size=8)))
    vals = draw(st.lists(values, min_size=len(epochs) + 1,
                         max_size=len(epochs) + 1))
    return make_step_path(T, vals[0], epochs, vals[1:])


def _exact_paths():
    return _random_time_paths(st.sampled_from(_QUARTERS)).map(
        lambda p: p.with_exact_times())


def _or_empty(f, *args):
    try:
        return f(*args)
    except EmptyRegionError:
        return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_random_time_paths(), q=_random_time_paths(),
       t=st.floats(0.0, 1.0))
def test_exact_times_round_trip_and_read_alike(p, q, t):
    pe, qe = p.with_exact_times(), q.with_exact_times()
    assert pe.time_bits == TICK_BITS
    back = pe.with_float_times()
    assert back == p
    assert ([x.hex() for x in (back.T, *back.epochs)]
            == [x.hex() for x in (p.T, *p.epochs)])
    assert pe.horizon == Fraction(p.T)
    for s in {t * p.T, 0.0, p.T, *p.epochs}:
        assert pe.value_at(s) == p.value_at(s)
        assert pe.restrict(s).with_float_times() == p.restrict(s)
    assert j1_distance(pe, qe) == j1_distance(p, q)
    assert j1_distance(pe, q) == j1_distance(p, q)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_exact_paths())
def test_exact_maps_idempotent(p):
    assert p.time_bits == TICK_BITS
    for kill in (kill_left, kill_right):
        once = kill(p)
        assert once.time_bits == TICK_BITS and kill(once) == once
    a = min(-0.75, p.initial)
    once = reflect_left(p, a)
    assert reflect_left(once, a) == once
    for region, _ in _REGIONS.values():
        once = _or_empty(fast_forward, p, region)
        if once is not None:
            assert fast_forward(once, region) == once


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_exact_paths())
def test_exact_maps_commute(p):
    assert kill_left(kill_right(p)) == kill_right(kill_left(p))
    r1 = _or_empty(lambda x: fast_forward(fast_forward(x, above(-1.0)),
                                          below(1.0)), p)
    r2 = _or_empty(lambda x: fast_forward(fast_forward(x, below(1.0)),
                                          above(-1.0)), p)
    r3 = _or_empty(fast_forward, p, between(-1.0, 1.0))
    assert r1 == r2 == r3


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_random_time_paths(st.sampled_from(_QUARTERS)),
       t=st.floats(0.0, 1.0))
def test_fast_forward_time_change_on_exact_paths(p, t):
    pe = p.with_exact_times()
    for region, inside in _REGIONS.values():
        try:
            out, tc = fast_forward(pe, region, with_time_change=True)
        except EmptyRegionError:
            continue
        # the horizon is the Lebesgue time in the region, summed in
        # rationals from the float path
        assert out.horizon == sum((Fraction(e) - Fraction(s)
                                   for s, e, v in p.segments() if inside(v)),
                                  Fraction(0))
        assert tc.a(p.T) == out.horizon
        for s in {t * p.T, 0.0, *p.epochs}:
            if s < p.T and inside(p.value_at(s)):   # a point of increase
                assert out.value_at(tc.a(s)) == p.value_at(s)
                assert tc.a_inverse(tc.a(s)) == s


def _stored_value(p, s):
    """Value of p at the time s given in its stored unit."""
    k = bisect.bisect_right(p.epochs, s)
    return p.values[k - 1] if k else p.initial


def _check_minimal_pushing(p, out, pushes, lo, hi):
    """out = p + sum of sign * eta stays in [lo, hi]; each pushing path eta
    starts at 0, never decreases and grows only at epochs where out sits on
    its barrier; no two pushing paths grow at the same epoch."""
    assert all(eta.initial == 0.0 for eta, _, _ in pushes)
    before = [0.0] * len(pushes)
    for s in (0, *p.epochs):
        v = _stored_value(out, s)
        now = [_stored_value(eta, s) for eta, _, _ in pushes]
        assert v == _stored_value(p, s) + sum(
            sign * e for e, (_, _, sign) in zip(now, pushes))
        assert lo <= v <= hi
        grew = [e > e0 for e, e0 in zip(now, before)]
        assert all(e >= e0 for e, e0 in zip(now, before))
        assert all(v == barrier
                   for g, (_, barrier, _) in zip(grew, pushes) if g)
        assert sum(grew) <= 1
        before = now


# Values on the quarter grid keep every sum exact, so "on the barrier" is
# an exact equality.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_exact_paths())
def test_reflection_pushes_minimally(p):
    a, b = min(-0.75, p.initial), max(0.75, p.initial)
    out, eta = reflect_left(p, a, with_pushing=True)
    _check_minimal_pushing(p, out, [(eta, a, 1)], a, math.inf)
    out, eta = reflect_right(p, b, with_pushing=True)
    _check_minimal_pushing(p, out, [(eta, b, -1)], -math.inf, b)
    out, eta_a, eta_b = reflect_two_sided(p, a, b, with_pushing=True)
    assert out.time_bits == eta_a.time_bits == eta_b.time_bits == TICK_BITS
    _check_minimal_pushing(p, out, [(eta_a, a, 1), (eta_b, b, -1)], a, b)


# -- one kernel per map --------------------------------------------------------

# The mirrored loops that the shared killing and reflection kernels replaced,
# kept as oracles.

def _kill_left_loop(p, barrier=-1.0):
    if p.initial <= barrier:
        return StepPath(T=p.T, initial=barrier, time_bits=p.time_bits)
    for k, v in enumerate(p.values):
        if v <= barrier:
            return make_step_path(p.T, p.initial, p.epochs[: k + 1],
                                  p.values[:k] + (barrier,), p.time_bits)
    return p


def _kill_right_loop(p, barrier=1.0):
    if p.initial >= barrier:
        return StepPath(T=p.T, initial=barrier, time_bits=p.time_bits)
    for k, v in enumerate(p.values):
        if v >= barrier:
            return make_step_path(p.T, p.initial, p.epochs[: k + 1],
                                  p.values[:k] + (barrier,), p.time_bits)
    return p


def _reflect_left_loop(p, a):
    """Running-minimum reflection with its pushing path (test oracle)."""
    run_min = p.initial - a
    push = 0.0
    out_vals, push_vals = [], []
    for v in p.values:
        run_min = min(run_min, v - a)
        push = max(push, -(run_min if run_min < 0.0 else 0.0))
        out_vals.append(v + push)
        push_vals.append(push)
    return (make_step_path(p.T, p.initial, p.epochs, out_vals, p.time_bits),
            make_step_path(p.T, 0.0, p.epochs, push_vals, p.time_bits))


def _reflect_right_loop(p, b):
    """Running-maximum reflection with its pushing path (test oracle)."""
    run_max = p.initial - b
    push = 0.0
    out_vals, push_vals = [], []
    for v in p.values:
        run_max = max(run_max, v - b)
        push = max(push, run_max if run_max > 0.0 else 0.0)
        out_vals.append(v - push)
        push_vals.append(push)
    return (make_step_path(p.T, p.initial, p.epochs, out_vals, p.time_bits),
            make_step_path(p.T, 0.0, p.epochs, push_vals, p.time_bits))


def _assert_same_bits(p, q):
    assert p == q and p.time_bits == q.time_bits
    assert ([math.copysign(1.0, v) for v in p.all_values()]
            == [math.copysign(1.0, v) for v in q.all_values()])


# Values on the h = 0.2 lattice (one rounding each, as the simulator emits
# them, and a negative zero); barriers on and off the lattice.
_LATTICE = [(2.0 * k - 10.0) / 10.0 for k in range(-5, 16)] + [-0.0]
_BARRIERS = (st.sampled_from(_LATTICE + [0.2 - 1.0, 1.0 - 0.2])
             | st.floats(-2.5, 2.5))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=_random_time_paths(st.sampled_from(_LATTICE)),
       exact=st.booleans(), barrier=_BARRIERS)
def test_kill_and_reflect_kernels_match_mirrored_loops(p, exact, barrier):
    if exact:
        p = p.with_exact_times()
    _assert_same_bits(kill_left(p, barrier), _kill_left_loop(p, barrier))
    _assert_same_bits(kill_right(p, barrier), _kill_right_loop(p, barrier))
    a, b = min(barrier, p.initial), max(barrier, p.initial)
    for reflect, loop, c in ((reflect_left, _reflect_left_loop, a),
                             (reflect_right, _reflect_right_loop, b)):
        out, eta = loop(p, c)
        got_out, got_eta = reflect(p, c, with_pushing=True)
        _assert_same_bits(got_out, out)
        _assert_same_bits(got_eta, eta)
        _assert_same_bits(reflect(p, c), out)
