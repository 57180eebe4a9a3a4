"""Scale functions, operator convolution series and exit laws on [0, a].

W is the nondecreasing function whose Laplace transform is 1/psi, extended by
0 to the negative half-line.  Its q-tilted extensions

    W_q = W + sum_n q^n (W*)^n W,    Z_q[g] = g + sum_n q^n (W*)^n g

parameterise resolvent densities and exit laws of the interval-restricted
processes.  For the stable symbol, W(x) = x^(alpha-1)/Gamma(alpha) and the
series collapse to Mittag-Leffler functions, which this module uses as the
primary evaluation route; the iterated-convolution series with
product-integration quadrature is kept as an independent oracle.  Its
convolutions are real FFTs from scipy.fft, imported on first use so that
importing this module does not load it, and it stops once a remainder
bound falls below SERIES_TOL of the series norm, or raises
NonConvergenceError after SERIES_MAX_TERMS terms.

Coordinates here are [0, a] for the process with downward jumps and upward
drift; the bridge to the [-1, 1] grid coordinates (x values mirrored, a = 2)
is owned by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergenceError, RangeExceededError

_ML_RANGE = 100.0
_ML_MAX_TERMS = 10_000
SERIES_MAX_TERMS = 200      # most terms of one operator series
SERIES_TOL = 1e-12          # remainder bound, relative to the series norm


def mittag_leffler(gamma: float, beta: float, x):
    """Two-parameter Mittag-Leffler series sum_n x^n / Gamma(gamma*n + beta).

    x may be a scalar (a float is returned) or an array (an array of the
    same shape is returned).  Term n is evaluated over all arguments at once
    as sign * exp(n log|x| - lgamma(gamma*n + beta)) and summed with
    Neumaier compensation.  Summation stops once n > max|x|^(1/gamma) + 4
    and every term is below 1e-18 of its running sum.  Documented validity
    |x| <= 100 at double precision (beyond that the alternating case loses
    all digits).
    """
    if gamma <= 0.0 or beta <= 0.0:
        raise ValueError("gamma and beta must be positive")
    xs = np.asarray(x, dtype=float)
    x_max = float(np.max(np.abs(xs), initial=0.0))
    if not x_max <= _ML_RANGE:
        raise RangeExceededError(f"|x| = {x_max:g} outside series range {_ML_RANGE}")
    n_min = x_max ** (1.0 / gamma) + 4
    too_long = NonConvergenceError(
        f"Mittag-Leffler series needs more than {_ML_MAX_TERMS} terms")
    if n_min >= _ML_MAX_TERMS:
        raise too_long
    with np.errstate(divide="ignore"):
        log_ax = np.log(np.abs(xs))
    neg = xs < 0.0
    acc = np.full(xs.shape, math.exp(-math.lgamma(beta)))
    comp = np.zeros(xs.shape)
    for n in range(1, _ML_MAX_TERMS):
        term = np.exp(n * log_ax - math.lgamma(gamma * n + beta))
        if n % 2:
            term = np.where(neg, -term, term)
        s = acc + term
        comp += np.where(np.abs(acc) >= np.abs(term),
                         (acc - s) + term, (term - s) + acc)
        acc = s
        if n > n_min and np.all(
                np.abs(term) < 1e-18 * np.maximum(1e-300, np.abs(acc + comp))):
            out = acc + comp
            return float(out) if out.ndim == 0 else out
    raise too_long


def frac_integral_grid(vals: np.ndarray, dx: float, alpha: float,
                       kink: Optional[float] = None) -> np.ndarray:
    """Riemann-Liouville integral of order alpha on a uniform grid.

    Product-trapezoidal rule: the integrand is replaced by its piecewise
    linear interpolant and integrated exactly against the x^(alpha-1) kernel.
    The interior weights are a Toeplitz convolution, evaluated by FFT.

    With kink = p the data is treated as y^p * smooth near 0 and the first
    cell is re-integrated against that power exactly (incomplete Beta), which
    restores second-order accuracy for scale-function inputs.
    """
    from scipy.fft import irfft, next_fast_len, rfft

    n = len(vals) - 1
    j = np.arange(0, n + 2, dtype=float)
    pow1 = j ** (alpha + 1.0)
    c = pow1[2:] + pow1[:-2] - 2.0 * pow1[1:-1]      # c_j, j = 1..n
    body = np.zeros(n)                               # sum_{k>=1} c_{i-k} g_k
    if n > 1:
        # the fast length of the full linear convolution, as
        # scipy.signal.fftconvolve picks it, which keeps its bits
        size = next_fast_len(2 * n - 1, real=True)
        body[1:] = irfft(rfft(vals[1:], size) * rfft(c, size), size)[: n - 1]
    out = np.empty(n + 1)
    out[0] = 0.0
    i = np.arange(1, n + 1, dtype=float)
    a0 = (i - 1.0) ** (alpha + 1.0) - pow1[1: n + 1] + (alpha + 1.0) * i ** alpha
    head = a0 * vals[0]
    out[1:] = head + body + vals[1:]
    out[1:] *= dx ** alpha / math.gamma(alpha + 2.0)
    if kink is not None:
        out[1:] += _first_cell_power_fix(vals, dx, alpha, kink)
    return out


def _first_cell_power_fix(vals: np.ndarray, dx: float, alpha: float,
                          p: float) -> np.ndarray:
    """Swap the first-cell linear interpolant for the exact power y^p."""
    from scipy.special import betainc

    n = len(vals) - 1
    x = dx * np.arange(1, n + 1, dtype=float)
    xm = x - dx
    # linear part the trapezoid weights already integrated over [0, dx]
    c0 = vals[0]
    c1 = (vals[1] - vals[0]) / dx
    int_const = (x ** alpha - xm ** alpha) / alpha
    int_lin = x * int_const - (x ** (alpha + 1.0) - xm ** (alpha + 1.0)) / (alpha + 1.0)
    pl_part = c0 * int_const + c1 * int_lin
    # exact power y^p scaled to match vals[1] at y = dx
    bfun = math.gamma(p + 1.0) * math.gamma(alpha) / math.gamma(p + 1.0 + alpha)
    power_part = vals[1] * dx ** (-p) * x ** (alpha + p) \
        * betainc(p + 1.0, alpha, dx / x) * bfun
    return (power_part - pl_part) / math.gamma(alpha)


def cumulative_integral(vals: np.ndarray, dx: float,
                        kink: Optional[float] = None) -> np.ndarray:
    """Cumulative integral of grid data, kink-aware.

    Plain cumulative trapezoid by default.  With kink = p the data is treated
    as y^(p-1) * s(y) with s smooth; every cell then integrates the power
    weight exactly against the linear interpolant of s, which keeps second
    order through the y^(p-1) singularity at 0.
    """
    if kink is None:
        return np.concatenate(([0.0],
                               np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))))
    p = kink - 1.0
    n = len(vals) - 1
    y = dx * np.arange(n + 1, dtype=float)
    s = np.empty(n + 1)
    s[1:] = vals[1:] / y[1:] ** p
    s[0] = 2.0 * s[1] - s[2] if n >= 2 else s[1]
    yl, yr = y[:-1], y[1:]
    P1 = (yr ** (p + 1.0) - yl ** (p + 1.0)) / (p + 1.0)
    P2 = (yr ** (p + 2.0) - yl ** (p + 2.0)) / (p + 2.0)
    slope = (s[1:] - s[:-1]) / dx
    cells = s[:-1] * P1 + slope * (P2 - yl * P1)
    return np.concatenate(([0.0], np.cumsum(cells)))


@dataclass
class ScaleGrid:
    a: float
    m: int
    alpha: float
    q: float = 0.0

    def __post_init__(self):
        if self.m < 16:
            raise ValueError("need at least 16 grid cells")
        if self.a <= 0.0 or self.q < 0.0:
            raise ValueError("need a > 0 and q >= 0")
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (1, 2)")

    @property
    def dx(self) -> float:
        return self.a / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.a, self.m + 1)


@dataclass
class ScaleKit:
    """Evaluators for W, W_q, Z_q and the operator series on one grid.

    The grid values and integrals that the densities, masses and exits share
    are cached properties, computed on first use.
    """

    grid: ScaleGrid
    last_error_estimate: float = field(default=0.0, init=False)
    last_n_terms: int = field(default=0, init=False)

    # -- closed forms (stable symbol) ---------------------------------------

    def W(self, x):
        a = self.grid.alpha
        xs = np.asarray(x, dtype=float)
        out = np.where(xs > 0.0, np.abs(xs) ** (a - 1.0) / math.gamma(a), 0.0)
        return float(out) if np.isscalar(x) else out

    def Wq(self, x):
        """W_q(x) = x^(alpha-1) E_{alpha,alpha}(q x^alpha), 0 below 0."""
        a, q = self.grid.alpha, self.grid.q
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xs)
        pos = xs > 0.0
        ml = mittag_leffler(a, a, q * xs[pos] ** a)
        out[pos] = xs[pos] ** (a - 1.0) * ml
        return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))

    def Zq(self, x):
        """Z_q(x) = E_{alpha,1}(q x^alpha) for x >= 0 (1 at and below 0)."""
        a, q = self.grid.alpha, self.grid.q
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.ones_like(xs)
        pos = xs > 0.0
        out[pos] = mittag_leffler(a, 1.0, q * xs[pos] ** a)
        return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))

    # -- operator series (quadrature route) ---------------------------------

    def Zq_apply(self, gvals: np.ndarray) -> np.ndarray:
        """Operator series Z_q[g] = g + sum_n q^n (W*)^n g on the grid.

        Each convolution power is one fractional integration of the previous
        term.  Truncates when the absolute-convergence remainder bound
        ||g|| (q W(a))^n a^(n-1) / (n-1)! falls below SERIES_TOL * ||g||.
        """
        g = self.grid
        gvals = np.asarray(gvals, dtype=float)
        if gvals.shape != (g.m + 1,):
            raise ValueError("g must be sampled on the kit grid")
        norm = float(np.max(np.abs(gvals)))
        if g.q == 0.0 or norm == 0.0:
            self.last_error_estimate = 0.0
            self.last_n_terms = 0
            return gvals.copy()
        return self._series(gvals.copy(), gvals, 1, None, norm)

    def Wq_series(self) -> np.ndarray:
        """W_q on the grid through the convolution series (oracle route).

        The first convolution power W*W = x^(2 alpha - 1)/Gamma(2 alpha) is a
        Beta integral and is taken in closed form; product integration starts
        from the second power, where the iterands are mildly singular at
        worst.
        """
        g = self.grid
        x = g.nodes
        a = g.alpha
        acc = self.W(x)
        if g.q == 0.0:
            self.last_error_estimate = 0.0
            self.last_n_terms = 0
            return acc
        term = g.q * x ** (2.0 * a - 1.0) / math.gamma(2.0 * a)
        return self._series(acc + term, term, 2, 2.0 * a - 1.0, self.W(g.a))

    def _series(self, acc: np.ndarray, term: np.ndarray, start: int,
                kink: Optional[float], norm: float) -> np.ndarray:
        """Add the series terms n = start, start + 1, ... to acc, in place.

        Term n is q times the fractional integral of term n - 1 (given as
        term), the first one with the exact-power cell fix for kink.  Stops
        when the absolute-convergence remainder bound
        norm (q W(a))^n a^(n-1) / (n-1)! falls below SERIES_TOL * norm;
        NonConvergenceError after SERIES_MAX_TERMS terms.
        """
        g = self.grid
        wa = g.q * self.W(g.a)
        for n in range(start, SERIES_MAX_TERMS + 1):
            term = g.q * frac_integral_grid(term, g.dx, g.alpha, kink=kink)
            kink = None
            acc += term
            bound = norm * wa ** n * g.a ** (n - 1) / math.gamma(n)
            if bound < SERIES_TOL * norm:
                self.last_error_estimate = bound
                self.last_n_terms = n
                return acc
        raise NonConvergenceError(
            f"operator series not below tolerance within {SERIES_MAX_TERMS} terms")

    def Zq_series(self) -> np.ndarray:
        """Z_q = Z_q[1] on the grid through the series (oracle route)."""
        return self.Zq_apply(np.ones(self.grid.m + 1))

    # -- resolvent densities and exit laws ----------------------------------

    @cached_property
    def _wq(self) -> np.ndarray:
        return self.Wq(self.grid.nodes)

    @cached_property
    def _zq(self) -> np.ndarray:
        return self.Zq(self.grid.nodes)

    @cached_property
    def _int_zq(self) -> float:
        """Integral of Z_q over [0, a]."""
        return float(cumulative_integral(self._zq, self.grid.dx)[-1])

    @cached_property
    def _cum_wq(self) -> np.ndarray:
        """Integrals of W_q over [0, x_k] at the grid nodes x_k."""
        return cumulative_integral(self._wq, self.grid.dx,
                                   kink=self.grid.alpha)

    @cached_property
    def _series_grids(self):
        """(Z_q, W_q) on the grid through the operator series."""
        return self.Zq_series(), self.Wq_series()

    def _check_point(self, x: float) -> None:
        a = self.grid.a
        tol = 1e-9 * max(1.0, a)
        if not -tol <= x <= a + tol:
            raise ValueError(f"x = {x:g} outside [0, {a:g}]")

    def _node_index(self, x: float) -> int:
        self._check_point(x)
        k = round(x / self.grid.dx)
        if abs(k * self.grid.dx - x) > 1e-9 * max(1.0, self.grid.a):
            raise ValueError(f"x = {x:g} is not a grid node")
        return int(k)

    def _wq_shifted(self, k: int) -> np.ndarray:
        """W_q(x_k - y_j) over grid nodes y_j, zero for y_j >= x_k."""
        out = np.zeros(self.grid.m + 1)
        out[:k + 1] = self._wq[k::-1]
        return out

    def resolvent_density_DN(self, x: float) -> np.ndarray:
        """Density y -> W_q(x)/Z_q(a) Z_q(a-y) - W_q(x-y) on the grid.

        q-potential of the process fast-forwarded at a and killed on exiting
        (0, a].  x must be a grid node.
        """
        k = self._node_index(x)
        zq = self._zq
        dens = self._wq[k] / zq[-1] * zq[::-1] - self._wq_shifted(k)
        self._check_density(dens)
        return dens

    def resolvent_density_NN(self, x: float) -> np.ndarray:
        """Density of the q-potential with both boundaries fast-forwarded."""
        g = self.grid
        if g.q <= 0.0:
            raise ValueError("the two-sided density needs q > 0")
        k = self._node_index(x)
        zq = self._zq
        dens = zq[k] / (g.q * self._int_zq) * zq[::-1] - self._wq_shifted(k)
        self._check_density(dens)
        return dens

    def _check_density(self, dens: np.ndarray) -> None:
        scale = max(1.0, float(np.max(np.abs(dens))))
        if float(dens.min()) < -1e-8 * scale:
            raise NonConvergenceError(
                f"resolvent density has negative mass {dens.min():g}")

    def mass_DN(self, x: float) -> float:
        """Total mass of the DN density at a grid node x (quadrature)."""
        g = self.grid
        return float(self.Wq(x) / self.Zq(g.a) * self._int_zq
                     - self._cum_wq[self._node_index(x)])

    def mass_NN(self, x: float) -> float:
        """Total mass Z_q(x)/q - int_0^x W_q of the NN density, q > 0."""
        q = self.grid.q
        if q <= 0.0:
            raise ValueError("the two-sided mass needs q > 0")
        return float(self.Zq(x) / q - self._cum_wq[self._node_index(x)])

    def exit_laplace_DN(self, x: float) -> float:
        """E_x[exp(-q tau)] for the exit of the a-fast-forwarded process at 0."""
        self._check_point(x)
        g = self.grid
        if g.q == 0.0:
            return 1.0
        val = self.Zq(x) - g.q * self._int_zq / self.Zq(g.a) * self.Wq(x)
        if not -1e-8 <= val <= 1.0 + 1e-8:
            raise RangeExceededError(f"exit transform {val:g} outside [0, 1]")
        return float(min(max(val, 0.0), 1.0))

    def exit_laplace_DN_series(self, x: float) -> float:
        """Same transform through the operator-series route (oracle)."""
        self._check_point(x)
        g = self.grid
        if g.q == 0.0:
            return 1.0
        zq, wq = self._series_grids
        k = self._node_index(x)
        int_zq = float(cumulative_integral(zq, g.dx)[-1])
        return float(zq[k] - g.q * int_zq / zq[-1] * wq[k])


def mean_exit(kind: str, x: float, a: float, alpha: float) -> float:
    """Closed-form mean exit times of the stable interval restrictions.

    kind "DN":  fast-forward at a, kill at 0:  a W(x) - int_0^x W
    kind "DNstar": reflect at a, kill at 0:    (a/(alpha-1)) W(x) - int_0^x W
    kind "ND":  fast-forward at 0, kill at a:  int_x^a W
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    if not 0.0 <= x <= a:
        raise ValueError(f"x = {x:g} outside [0, {a:g}]")
    ga = math.gamma(alpha)
    ga1 = math.gamma(alpha + 1.0)
    if kind == "DN":
        return a * x ** (alpha - 1.0) / ga - x ** alpha / ga1
    if kind == "DNstar":
        return (a / (alpha - 1.0)) * x ** (alpha - 1.0) / ga - x ** alpha / ga1
    if kind == "ND":
        return (a ** alpha - x ** alpha) / ga1
    raise ValueError(f"unknown exit kind {kind!r}")


def gaver_stehfest_W(psi: Callable[[float], float], x: float,
                     order: int = 12, dps: int = 40) -> float:
    """Numerical Laplace inversion of 1/psi (general symbols, opt-in).

    Gaver-Stehfest with even order in mpmath working precision.  The
    inversion is ill-posed; accuracy is limited by the double-precision psi
    evaluations and degrades for symbols far from the stable family, hence
    not used as a default route anywhere.
    """
    import mpmath as mp

    if x <= 0.0:
        return 0.0
    if order % 2:
        raise ValueError("Gaver-Stehfest order must be even")
    with mp.workdps(dps):
        M = order // 2
        ln2x = mp.log(2) / x
        total = mp.mpf(0)
        for k in range(1, order + 1):
            zeta = mp.mpf(0)
            for j in range((k + 1) // 2, min(k, M) + 1):
                zeta += (mp.mpf(j) ** (M + 1)
                         / (mp.factorial(j) * mp.factorial(M - j))
                         * mp.binomial(2 * j, j) * mp.binomial(j, k - j))
            zeta *= (-1) ** (M + k)
            total += zeta / mp.mpf(psi(float(k * ln2x)))
        return float(ln2x * total)
