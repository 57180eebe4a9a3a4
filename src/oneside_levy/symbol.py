"""Laplace exponents of recurrent spectrally positive Levy processes.

A symbol here is the function

    psi(xi) = integral over (0,inf) of (exp(-xi*y) - 1 + xi*y) rho(dy)

for a jump measure rho with finite (y^2 and y)-moment and infinite small-jump
first moment, which makes the process recurrent, of unbounded variation and
free of a diffusion part.  Built-in families (stable, tempered stable) use
closed forms; arbitrary measures are integrated adaptively to a fixed
relative tolerance of 1e-10, and a QuadratureError reports quadrature or a
tail truncation that falls short of it.  The module also
evaluates the mesh-h discrete symbol

    varphi(beta) = exp(h*beta) * psi((1 - exp(-h*beta)) / h)

and its inverse (Brent's method on a doubling bracket), which parameterises
resolvent profiles of the stopped grid chain.  scipy.integrate (custom
quadrature) and scipy.optimize (Brent) are imported on first use, so
importing this module loads neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, InvalidMeasureError, QuadratureError

_QUAD_REL_TOL = 1e-10
_TAIL_CUT_START = 64.0      # first truncation point tried for a custom tail
_PSI0_PROBE = 1e-8
_PSI0_RTOL = 1e-4
_INVERSE_RTOL = 1e-12       # varphi_inverse residual, relative to max(1, y)
_MAX_DOUBLINGS = 120        # bracket doublings of varphi_inverse


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Jump measure of the process, one of three kinds.

    kind "stable":          rho(dy) = y^(-1-alpha) / Gamma(-alpha) dy
    kind "tempered_stable": rho(dy) = exp(-lam*y) y^(-1-alpha) / Gamma(-alpha) dy
    kind "custom":          caller supplies density, tail y -> rho((y, inf))
                            and integrated tail Phi(x) = int_x^inf tail(y) dy

    lam belongs to the tempered kind only; a nonzero lam on another kind is
    an error rather than silently ignored.

    For the built-in kinds the moment conditions hold by construction; for
    custom measures they are the caller's responsibility (they cannot be
    decided numerically) and are documented, not checked.
    """

    kind: str
    alpha: float = float("nan")
    lam: float = 0.0
    density: Optional[Callable[[float], float]] = None
    tail: Optional[Callable[[float], float]] = None
    integrated_tail: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.lam != 0.0 and self.kind != "tempered_stable":
            raise InvalidMeasureError(
                f"lam={self.lam} needs kind 'tempered_stable', not {self.kind!r}")
        if self.kind in ("stable", "tempered_stable"):
            if not (1.0 < self.alpha < 2.0):
                raise InvalidMeasureError(
                    f"alpha must lie in (1, 2), got {self.alpha}")
            if self.kind == "tempered_stable" and not 0.0 <= self.lam < math.inf:
                raise InvalidMeasureError(
                    f"lam must be finite and >= 0, got {self.lam}")
        elif self.kind == "custom":
            if self.density is None or self.tail is None or self.integrated_tail is None:
                raise InvalidMeasureError(
                    "custom measures need density, tail and integrated_tail")
        else:
            raise InvalidMeasureError(f"unknown measure kind {self.kind!r}")

    @classmethod
    def stable(cls, alpha: float) -> "LevyMeasureSpec":
        return cls(kind="stable", alpha=alpha)

    @classmethod
    def tempered_stable(cls, alpha: float, lam: float) -> "LevyMeasureSpec":
        return cls(kind="tempered_stable", alpha=alpha, lam=lam)

    @classmethod
    def custom(cls, density, tail, integrated_tail) -> "LevyMeasureSpec":
        return cls(kind="custom", density=density, tail=tail,
                   integrated_tail=integrated_tail)


@dataclass(frozen=True)
class LaplaceExponent:
    """Evaluator for psi, psi' and the discrete symbol varphi.

    Immutable after construction; safe to share across workers.  Construction
    checks that psi vanishes at the origin and not at 1.
    """

    measure: LevyMeasureSpec

    def __post_init__(self):
        scale = abs(self.psi(1.0))
        if scale == 0.0:
            raise InvalidMeasureError("psi(1) = 0, degenerate measure")
        if abs(self.psi(_PSI0_PROBE)) > _PSI0_RTOL * scale:
            raise InvalidMeasureError("psi does not vanish at 0")
        if self.measure.kind == "custom":
            # Guards gross mis-specification (an uncompensated drift term
            # shows up as psi'(0+) = O(1)).  The limit psi'(0+) = 0 is
            # approached only like xi^(alpha-1), so the probe uses a loose
            # multiple of psi(1); built-in kinds satisfy it analytically.
            if abs(self.psi_prime(_PSI0_PROBE)) > 1e-2 * scale:
                raise InvalidMeasureError("psi' does not vanish at 0+")

    # -- psi and psi' ------------------------------------------------------

    def psi(self, xi: float | complex) -> float | complex:
        """psi at real xi >= 0, or at complex xi on the principal branch.

        Complex arguments serve the Cauchy-circle oracle of the generator
        weights (:func:`grunwald.verify_coeffs_cauchy`).
        """
        if not isinstance(xi, complex):
            if xi < 0.0:
                raise ValueError(f"xi must be >= 0, got {xi}")
            if xi == 0.0:
                return 0.0
        m = self.measure
        if m.kind == "custom":
            return self._psi_quad(xi)
        a, lam = m.alpha, m.lam
        if lam == 0.0:
            return xi ** a
        p, d = self._tempered_factors(xi)
        return (xi + lam) * p * d - (a - 1.0) * xi * lam ** (a - 1.0)

    def psi_prime(self, xi: float) -> float:
        """psi'(xi) = integral of y (1 - exp(-xi*y)) rho(dy), xi > 0."""
        if xi <= 0.0:
            raise ValueError(f"xi must be > 0, got {xi}")
        m = self.measure
        if m.kind == "custom":
            return self._psi_prime_quad(xi)
        a = m.alpha
        if m.lam == 0.0:
            return a * xi ** (a - 1.0)
        p, d = self._tempered_factors(xi)
        return a * p * d

    def _tempered_factors(self, xi: float | complex):
        """P = (xi+lam)^(a-1) and D = 1 - (1 + xi/lam)^(1-a) of a tempered symbol.

        psi'(xi)/a = (xi+lam)^(a-1) - lam^(a-1) = P D, and psi(xi) =
        (xi+lam) P D - (a-1) xi lam^(a-1).  The symbol vanishes like a - 1 as
        a -> 1+; D = -expm1(-(a-1) log(1 + xi/lam)) keeps that factor exact
        where the difference of powers would cancel it to roundoff.  The
        logarithm takes log1p of a small real xi/lam, and never forms the
        ratio when it could overflow (a tiny lam); |D| stays of order 1, so
        no factor overflows either.
        """
        a, lam = self.measure.alpha, self.measure.lam
        cx = isinstance(xi, complex)
        if abs(xi) > lam:
            log_ratio = (cmath.log if cx else math.log)(xi + lam) - math.log(lam)
        else:
            log_ratio = cmath.log(1.0 + xi / lam) if cx else math.log1p(xi / lam)
        y = -(a - 1.0) * log_ratio
        d = -complex(np.expm1(y)) if cx else -math.expm1(y)
        return (xi + lam) ** (a - 1.0), d

    def _psi_quad(self, xi: float | complex) -> float | complex:
        m = self.measure
        exp_ = cmath.exp if isinstance(xi, complex) else math.exp

        def compensated(y):
            # exp(-u)-1+u loses all digits for small u; switch to the series.
            u = xi * y
            if abs(u) < 1e-4:
                return u * u * (0.5 - u / 6.0 + u * u / 24.0) * m.density(y)
            return (exp_(-u) - 1.0 + u) * m.density(y)

        if isinstance(xi, complex):
            return complex(
                self._integrate(lambda y: compensated(y).real, abs(xi)),
                self._integrate(lambda y: compensated(y).imag, abs(xi)))
        return self._integrate(compensated, xi)

    def _psi_prime_quad(self, xi: float) -> float:
        m = self.measure

        def integrand(y):
            u = xi * y
            if u < 1e-4:
                g = u * (1.0 - u / 2.0 + u * u / 6.0)
            else:
                g = 1.0 - math.exp(-u)
            return y * g * m.density(y)

        return self._integrate(integrand, xi)

    def _integrate(self, f: Callable[[float], float], xi: float) -> float:
        """Integral over (0, inf) of a psi or psi' integrand f at argument xi.

        xi (the modulus, for complex arguments) sets the tail cutoff.
        """
        from scipy import integrate

        # Substitution y = t^4 flattens an integrable y^(-1-alpha) singularity
        # at 0 for every alpha < 2.
        def near(t):
            y = t ** 4
            return f(y) * 4.0 * t ** 3

        v1, e1 = integrate.quad(near, 0.0, 1.0, epsabs=0.0,
                                epsrel=_QUAD_REL_TOL, limit=400)
        cut = self._tail_cutoff(xi)
        v2, e2 = integrate.quad(f, 1.0, cut, epsabs=abs(v1) * 1e-14,
                                epsrel=_QUAD_REL_TOL, limit=400)
        self._quad_guard(v1 + v2, e1 + e2)
        return v1 + v2

    def _tail_cutoff(self, xi: float) -> float:
        # Remainder of the compensated integrand beyond Y is at most
        # xi * (Y*tail(Y) + Phi(Y)); double Y until that is negligible.
        m = self.measure
        y = _TAIL_CUT_START
        for _ in range(80):
            bound = max(xi, 1.0) * (y * m.tail(y) + m.integrated_tail(y))
            if bound < 1e-16:
                return y
            y *= 2.0
        raise QuadratureError("jump-measure tail decays too slowly to truncate")

    def _quad_guard(self, value: float, err: float) -> None:
        if not math.isfinite(value):
            raise QuadratureError("quadrature returned a non-finite value")
        if err > _QUAD_REL_TOL * max(abs(value), 1e-300) and err > 1e-14:
            raise QuadratureError(
                f"quadrature error {err:g} exceeds tolerance for value {value:g}")

    # -- discrete symbol ----------------------------------------------------

    def varphi(self, h: float, beta: float) -> float:
        """Discrete symbol exp(h*beta) psi((1 - exp(-h*beta))/h), beta >= 0."""
        if h <= 0.0:
            raise ValueError(f"mesh h must be > 0, got {h}")
        if beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if beta == 0.0:
            return 0.0
        hb = h * beta
        s = -math.expm1(-hb) / h
        try:
            return math.exp(hb) * self.psi(s)
        except OverflowError:
            return math.inf

    def varphi_inverse(self, h: float, y: float) -> float:
        """Solve varphi(h, beta) = y for beta >= 0.

        varphi is strictly increasing with varphi(0) = 0, so a doubling
        bracket always terminates for representable y.  Brent's method on
        that bracket gives the root; BracketError unless it meets
        |varphi(b) - y| <= 1e-12 * max(1, y).
        """
        from scipy import optimize

        if y < 0.0:
            raise ValueError(f"y must be >= 0, got {y}")
        if not math.isfinite(y):
            raise BracketError(f"target {y} outside the representable range")
        if y == 0.0:
            return 0.0
        hi = 1.0
        for _ in range(_MAX_DOUBLINGS):
            if self.varphi(h, hi) >= y:
                break
            hi *= 2.0
        else:
            raise BracketError(f"no upper bracket for varphi inverse at y={y:g}")
        b = optimize.brentq(lambda t: self.varphi(h, t) - y, 0.0, hi,
                            xtol=1e-300, rtol=8.9e-16, maxiter=300)
        if abs(self.varphi(h, b) - y) > _INVERSE_RTOL * max(1.0, y):
            raise BracketError(f"varphi inverse did not converge at y={y:g}")
        return b
