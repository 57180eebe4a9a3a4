import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneside_levy import ratemat, scale
from oneside_levy.errors import NonConvergenceError, RangeExceededError
from oneside_levy.grunwald import compute_coeffs
from oneside_levy.scale import (ScaleGrid, ScaleKit, cumulative_integral,
                                frac_integral_grid, gaver_stehfest_W,
                                mean_exit, mittag_leffler)
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

ALPHA = 1.5


@pytest.fixture(scope="module")
def kit():
    return ScaleKit(ScaleGrid(a=1.0, m=4000, alpha=ALPHA, q=1.0))


def test_mittag_leffler_values():
    assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert mittag_leffler(1.0, 1.0, 0.0) == 1.0
    assert mittag_leffler(1.0, 2.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    # E_{2,1}(x) = cosh(sqrt(x))
    assert mittag_leffler(2.0, 1.0, 1.0) == pytest.approx(math.cosh(1.0),
                                                          rel=1e-12)
    assert mittag_leffler(2.0, 1.0, 4.0) == pytest.approx(math.cosh(2.0),
                                                          rel=1e-12)
    assert mittag_leffler(1.0, 1.0, -3.0) == pytest.approx(math.exp(-3.0),
                                                           rel=1e-9)
    with pytest.raises(RangeExceededError):
        mittag_leffler(1.5, 1.0, 101.0)


def _ml_mpmath(gamma, beta, x):
    """sum_n x^n / Gamma(gamma n + beta) and sum_n |x|^n / Gamma(...) at 50
    digits (test oracle)."""
    with mp.workdps(50):
        g, b, x = mp.mpf(gamma), mp.mpf(beta), mp.mpf(x)
        total, absolute, n = mp.mpf(0), mp.mpf(0), 0
        while True:
            term = x ** n / mp.gamma(g * n + b)
            total += term
            absolute += abs(term)
            if n > abs(x) ** (1 / g) + 4 and abs(term) < mp.mpf(10) ** -40 * absolute:
                return float(total), float(absolute)
            n += 1


@pytest.mark.parametrize("gamma, beta", [(1.5, 1.0), (1.5, 1.5), (1.05, 1.05),
                                         (1.95, 1.0), (1.0, 2.0)])
def test_mittag_leffler_array_vs_mpmath(gamma, beta):
    # Each term is exp(n log|x| - lgamma(gamma n + beta)); the argument is
    # at most a few hundred, so a term carries a relative error of a few
    # hundred ulps.  Hence 1e-12 relative for x >= 0, and 1e-12 of the
    # absolute series for x < 0, where the terms cancel.
    xs = np.concatenate((np.linspace(0.0, 100.0, 41), [1e-9, 0.3, 3.7],
                         [-0.5, -1.0, -4.0, -10.0, -25.0]))
    got = mittag_leffler(gamma, beta, xs)
    assert got.shape == xs.shape
    for x, v in zip(xs, got):
        exact, absolute = _ml_mpmath(gamma, beta, x)
        if x >= 0.0:
            assert abs(v - exact) <= 1e-12 * exact, (x, v, exact)
        else:
            assert abs(v - exact) <= 1e-12 * absolute, (x, v, exact)
        scalar = mittag_leffler(gamma, beta, float(x))
        assert type(scalar) is float and abs(scalar - v) <= 1e-15 * absolute
    grid = mittag_leffler(gamma, beta, xs[:40].reshape(5, 8))
    assert grid.shape == (5, 8) and np.array_equal(grid.ravel(), got[:40])


def test_mittag_leffler_errors():
    with pytest.raises(RangeExceededError):
        mittag_leffler(1.5, 1.0, np.array([0.5, -100.5]))
    with pytest.raises(RangeExceededError):
        mittag_leffler(1.5, 1.0, np.array([0.5, math.nan]))
    for gamma, beta in ((0.0, 1.0), (1.5, -1.0)):
        with pytest.raises(ValueError):
            mittag_leffler(gamma, beta, np.array([0.5]))
    # the terms of E_{0.4,1}(50) peak near n = 50^2.5, past the term cap,
    # and would overflow on the way
    with pytest.raises(NonConvergenceError):
        mittag_leffler(0.4, 1.0, 50.0)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(alpha=st.floats(1.02, 1.98), q=st.floats(0.05, 5.0),
       a=st.floats(0.2, 3.0))
def test_Zq_series_vs_closed_random(alpha, q, a):
    # The two routes differ only by the product-trapezoidal quadrature error
    # of the series route, which is second order: halving dx divides the
    # gap by 4.  A wrong closed form would leave a gap that does not shrink.
    errs = []
    for m in (500, 1000):
        kit = ScaleKit(ScaleGrid(a=a, m=m, alpha=alpha, q=q))
        zc = kit.Zq(kit.grid.nodes)
        errs.append(float(np.max(np.abs(kit.Zq_series() - zc) / zc)))
    assert errs[1] < 1e-4, errs
    assert 3.7 < errs[0] / errs[1] < 4.3, errs


def test_frac_integral_polynomial_exactness():
    # product integration is exact for piecewise-linear inputs
    m = 256
    x = np.linspace(0.0, 1.0, m + 1)
    out = frac_integral_grid(np.ones(m + 1), 1.0 / m, ALPHA)
    assert np.max(np.abs(out - x ** ALPHA / math.gamma(ALPHA + 1.0))) < 1e-13
    out = frac_integral_grid(x.copy(), 1.0 / m, ALPHA)
    assert np.max(np.abs(out - x ** (ALPHA + 1) / math.gamma(ALPHA + 2.0))) < 1e-13


def _frac_integral_fftconvolve(vals, dx, alpha):
    """The product-trapezoidal rule with scipy.signal.fftconvolve (oracle)."""
    from scipy.signal import fftconvolve

    n = len(vals) - 1
    pow1 = np.arange(0, n + 2, dtype=float) ** (alpha + 1.0)
    c = pow1[2:] + pow1[:-2] - 2.0 * pow1[1:-1]
    conv = fftconvolve(vals[1:], c)[: n]
    i = np.arange(1, n + 1, dtype=float)
    a0 = (i - 1.0) ** (alpha + 1.0) - pow1[1: n + 1] + (alpha + 1.0) * i ** alpha
    body = np.concatenate(([0.0], conv))[: n]
    out = np.zeros(n + 1)
    out[1:] = a0 * vals[0] + body + vals[1:]
    out[1:] *= dx ** alpha / math.gamma(alpha + 2.0)
    return out


@pytest.mark.parametrize("length", [1, 2, 3, 2001, 16001])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_frac_integral_matches_fftconvolve_bits(length, alpha, rng):
    vals = rng.uniform(0.0, 2.0, size=length)
    dx = 1.0 / max(length - 1, 1)
    expected = _frac_integral_fftconvolve(vals, dx, alpha)
    assert np.array_equal(frac_integral_grid(vals, dx, alpha), expected)
    if length > 1:
        p = alpha - 1.0
        expected[1:] += scale._first_cell_power_fix(vals, dx, alpha, p)
        assert np.array_equal(frac_integral_grid(vals, dx, alpha, kink=p),
                              expected)


def test_frac_integral_kink_fix():
    m = 2048
    x = np.linspace(0.0, 1.0, m + 1)
    W = np.where(x > 0, x ** (ALPHA - 1.0) / math.gamma(ALPHA), 0.0)
    out = frac_integral_grid(W, 1.0 / m, ALPHA, kink=ALPHA - 1.0)
    exact = x ** (2 * ALPHA - 1.0) / math.gamma(2 * ALPHA)
    plain = frac_integral_grid(W, 1.0 / m, ALPHA)
    assert np.max(np.abs(out - exact)) < np.max(np.abs(plain - exact))


def test_cumulative_integral_kink():
    m = 4096
    x = np.linspace(0.0, 1.0, m + 1)
    wq = np.where(x > 0, x ** (ALPHA - 1.0), 0.0)
    out = cumulative_integral(wq, 1.0 / m, kink=ALPHA)
    assert np.max(np.abs(out - x ** ALPHA / ALPHA)) < 1e-12


def test_W_values(kit):
    assert kit.W(1.0) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)
    assert kit.W(-0.3) == 0.0
    assert kit.W(0.0) == 0.0


def test_Wq_zero_q_is_W():
    k0 = ScaleKit(ScaleGrid(a=1.0, m=512, alpha=ALPHA, q=0.0))
    x = k0.grid.nodes
    assert np.allclose(k0.Wq(x), k0.W(x), rtol=1e-12)
    assert np.array_equal(k0.Wq_series(), k0.W(x))
    assert np.array_equal(k0.Zq_series(), np.ones_like(x))


def test_Wq_series_vs_closed(kit):
    x = kit.grid.nodes
    ws = kit.Wq_series()
    wc = kit.Wq(x)
    mask = x > 0
    assert np.max(np.abs(ws[mask] - wc[mask]) / wc[mask]) < 1e-8


def test_Zq_series_vs_mittag_leffler(kit):
    zs = kit.Zq_series()
    zc = kit.Zq(kit.grid.nodes)
    assert np.max(np.abs(zs - zc) / zc) < 1e-8
    assert zc[0] == 1.0


def test_operator_identities(kit):
    # q Z_q[W] = q W_q and its integrated form q I Z_q[W] = Z_q - 1
    q = kit.grid.q
    x = kit.grid.nodes
    qzw = q * kit.Wq_series()
    assert np.max(np.abs(qzw - q * kit.Wq(x))) < 1e-8
    iq = cumulative_integral(qzw, kit.grid.dx, kink=kit.grid.alpha)
    assert np.max(np.abs(iq - (kit.Zq(x) - 1.0))) < 1e-8


def test_Zq_apply_integral_commutation(kit):
    # I Z_q[g] = Z_q[g * 1] for a generic continuous g
    g = np.cos(3.0 * kit.grid.nodes)
    left = cumulative_integral(kit.Zq_apply(g), kit.grid.dx)
    ig = cumulative_integral(g, kit.grid.dx)
    right = kit.Zq_apply(ig)
    assert np.max(np.abs(left - right)) < 1e-7


def test_Zq_derivative_matches_qWq(kit):
    # centred difference of Z_q equals q W_q away from the endpoint, with
    # second-order accuracy in the grid spacing
    errs = []
    for m in (500, 1000):
        k = ScaleKit(ScaleGrid(a=1.0, m=m, alpha=ALPHA, q=1.0))
        x = k.grid.nodes
        zq = k.Zq(x)
        dz = (zq[2:] - zq[:-2]) / (2.0 * k.grid.dx)
        target = k.grid.q * k.Wq(x[1:-1])
        errs.append(np.max(np.abs(dz - target)[m // 10:]))
    assert errs[1] < errs[0] / 3.0


def test_series_nonconvergence_guard(monkeypatch):
    kit = ScaleKit(ScaleGrid(a=1.0, m=64, alpha=ALPHA, q=1.0))
    monkeypatch.setattr(scale, "SERIES_MAX_TERMS", 2)
    with pytest.raises(NonConvergenceError):
        kit.Zq_apply(np.ones(65))


def test_resolvent_density_DN(kit):
    dens = kit.resolvent_density_DN(0.5)
    assert np.min(dens) >= -1e-8
    # the W_q(x-y) part vanishes beyond y = x
    y = kit.grid.nodes
    k = kit._node_index(0.5)
    zq = kit.Zq(y)
    pure_first = kit.Wq(0.5) / kit.Zq(1.0) * zq[::-1]
    assert np.allclose(dens[k + 1:], pure_first[k + 1:], rtol=1e-12)
    el = kit.exit_laplace_DN(0.5)
    assert kit.mass_DN(0.5) == pytest.approx((1.0 - el) / kit.grid.q, abs=1e-6)


def test_resolvent_density_NN(kit):
    dens = kit.resolvent_density_NN(0.3)
    assert np.min(dens) >= -1e-8
    assert kit.mass_NN(0.3) == pytest.approx(1.0 / kit.grid.q, abs=1e-6)


@pytest.mark.parametrize("method", ["resolvent_density_NN", "mass_NN"])
def test_two_sided_needs_positive_q(method):
    # at q = 0 the NN potential has infinite mass: a named error, not a
    # division by zero
    k0 = ScaleKit(ScaleGrid(a=1.0, m=64, alpha=ALPHA, q=0.0))
    with pytest.raises(ValueError, match="needs q > 0"):
        getattr(k0, method)(0.5)


def test_resolvent_NN_x_average_uniform(kit):
    # averaging the two-sided density over the start point reproduces the
    # flat density 1/(q a): trapezoid in x, kink-aware integral for the
    # shifted scale-function term
    g = kit.grid
    zq = kit.Zq(g.nodes)
    int_zq = float(cumulative_integral(zq, g.dx)[-1])
    avg_first = (int_zq / g.a) * zq[::-1] / (g.q * int_zq)
    cum_wq = cumulative_integral(kit.Wq(g.nodes), g.dx, kink=g.alpha)
    avg_second = cum_wq[::-1] / g.a
    avg = avg_first - avg_second
    assert np.max(np.abs(avg - 1.0 / (g.q * g.a))) < 1e-4


def test_exit_laplace_routes(kit):
    el = kit.exit_laplace_DN(0.5)
    assert 0.0 <= el <= 1.0
    assert kit.exit_laplace_DN_series(0.5) == pytest.approx(el, abs=1e-8)
    k0 = ScaleKit(ScaleGrid(a=1.0, m=256, alpha=ALPHA, q=0.0))
    assert k0.exit_laplace_DN(0.5) == 1.0


@pytest.mark.parametrize("x", [-0.1, 1.2])
@pytest.mark.parametrize("method", [
    "resolvent_density_DN", "resolvent_density_NN", "mass_DN", "mass_NN",
    "exit_laplace_DN", "exit_laplace_DN_series"])
def test_points_off_the_interval_raise(method, x):
    # off [0, a] no mass, density or exit transform is defined
    kit = ScaleKit(ScaleGrid(a=1.0, m=64, alpha=ALPHA, q=1.0))
    with pytest.raises(ValueError, match="outside"):
        getattr(kit, method)(x)


def test_scale_functions_stay_defined_off_the_interval(kit):
    assert kit.W(-0.1) == kit.Wq(-0.1) == 0.0 and kit.Zq(-0.1) == 1.0
    assert kit.W(1.2) > 0.0 and kit.Wq(1.2) > 0.0 and kit.Zq(1.2) > 1.0


def test_exit_laplace_derivative_is_mean(kit):
    # -d/dq at 0 of the exit transform equals the closed-form mean exit
    dq = 1e-4
    k1 = ScaleKit(ScaleGrid(a=1.0, m=2000, alpha=ALPHA, q=dq))
    k2 = ScaleKit(ScaleGrid(a=1.0, m=2000, alpha=ALPHA, q=2 * dq))
    e1 = k1.exit_laplace_DN(0.5)
    e2 = k2.exit_laplace_DN(0.5)
    deriv = -(4.0 * e1 - e2 - 3.0) / (2.0 * dq)
    assert deriv == pytest.approx(mean_exit("DN", 0.5, 1.0, ALPHA), rel=1e-4)


def test_mean_exit_values():
    assert mean_exit("DN", 0.5, 1.0, 1.5) == pytest.approx(0.5319231, abs=1e-7)
    assert mean_exit("DNstar", 0.5, 1.0, 1.5) == pytest.approx(1.3298077,
                                                               abs=1e-7)
    nd = (1.0 - 0.5 ** 1.5) / math.gamma(2.5)
    assert mean_exit("ND", 0.5, 1.0, 1.5) == pytest.approx(nd, rel=1e-12)
    with pytest.raises(ValueError):
        mean_exit("XX", 0.5, 1.0, 1.5)


def test_mean_exit_alpha_to_one_limit():
    # fast-forwarding at the far boundary: mean exit tends to a - x; the
    # approach is slowest near the killing end, so the 2% window is a
    # mid-interval statement
    for x in (0.25, 0.5):
        v = mean_exit("DN", x, 1.0, 1.01)
        assert v == pytest.approx(1.0 - x, rel=0.02)
    errs = [abs(mean_exit("DN", 0.75, 1.0, al) - 0.25) for al in (1.1, 1.05, 1.01)]
    assert errs[0] > errs[1] > errs[2]


def test_dnstar_dn_divergence():
    # reflecting instead of fast-forwarding inflates the mean exit, and the
    # gap blows up as alpha drops to 1
    gaps = []
    for alpha in (1.5, 1.2, 1.05):
        gap = mean_exit("DNstar", 0.5, 1.0, alpha) - mean_exit("DN", 0.5, 1.0, alpha)
        expected = (1.0 / (alpha - 1.0) - 1.0) * 0.5 ** (alpha - 1.0) / math.gamma(alpha)
        assert gap == pytest.approx(expected, rel=1e-12)
        assert gap > 0.0
        gaps.append(gap)
    assert gaps[0] < gaps[1] < gaps[2]


def test_gaver_stehfest_stable():
    w = gaver_stehfest_W(lambda s: s ** 1.5, 1.0)
    assert w == pytest.approx(1.0 / math.gamma(1.5), rel=1e-5)
    w2 = gaver_stehfest_W(lambda s: s ** 1.5, 0.25, order=14)
    assert w2 == pytest.approx(0.25 ** 0.5 / math.gamma(1.5), rel=1e-5)
    with pytest.raises(ValueError):
        gaver_stehfest_W(lambda s: s ** 1.5, 1.0, order=13)
    assert gaver_stehfest_W(lambda s: s ** 1.5, 0.0) == 0.0


def test_grid_nd_resolvent_converges_to_scale_dn():
    # Under x_scale = 1 - x_grid the grid ND chain is the scale-side DN
    # problem.  At q > 0 the interior mass of the row e_{i0} (qI - Q)^{-1}
    # is mass_DN(x), and 1 - q * mass is the exit transform exit_laplace_DN.
    q = 0.5
    exp = LaplaceExponent(LevyMeasureSpec.stable(ALPHA))
    ns = (79, 159, 319, 639, 1279)
    mass_err, exit_err = [], []
    for n in ns:
        c = compute_coeffs(exp, 2.0 / (n + 1), 4 * (n + 1))
        Q = ratemat.build_restricted(c, n, ratemat.BoundaryPair.from_label("ND"))
        i0 = (n + 1) // 2
        x = 1.0 - float(Q.grid[i0])
        mass = float(ratemat.resolvent_transpose_e(Q, q, i0)[1: n + 1].sum())
        kit = ScaleKit(ScaleGrid(a=2.0, m=n + 1, alpha=ALPHA, q=q))
        closed_mass = kit.mass_DN(x)
        closed_exit = kit.exit_laplace_DN(x)
        mass_err.append(abs(mass - closed_mass) / closed_mass)
        exit_err.append(abs(1.0 - q * mass - closed_exit) / closed_exit)
    hs = np.log([2.0 / (n + 1) for n in ns])
    print(f"fitted orders: mass {np.polyfit(hs, np.log(mass_err), 1)[0]:.2f},"
          f" exit {np.polyfit(hs, np.log(exit_err), 1)[0]:.2f}")
    assert all(b < a for a, b in zip(mass_err, mass_err[1:])), mass_err
    assert all(b < a for a, b in zip(exit_err, exit_err[1:])), exit_err
    assert mass_err[-1] <= 5e-4 and exit_err[-1] <= 4e-4
