"""Generator weights of the compound-Poisson grid approximation.

The mesh-h chain moves with transition weights G_0..G_J determined by the
power-series expansion

    psi((1 - xi)/h) = sum_j G_j xi^j,   |xi| < 1.

G_0 > 0 is the downward (drift) step rate, G_1 < 0 the total holding rate and
G_j >= 0 (j >= 2) the rate of an upward jump of j-1 grid cells.  Tail sums
T_j = sum_{k>=j} G_k double as boundary-row weights.  For stable symbols they
come from the exact ratio recurrence T_1 = -G_0, T_{j+1} = T_j (j - alpha)/j,
which keeps full relative accuracy as alpha -> 1+ (T_2 = (alpha-1) h^-alpha);
for other symbols they are negated partial sums, which is the same thing
whenever the full series sums to zero.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeasureError, OverflowGuardError, QuadratureError
from .symbol import LaplaceExponent

_SIGN_SLACK = 1e-12


@dataclass(frozen=True)
class GrunwaldCoeffs:
    """Weights G_0..G_{j_max} with exact tail sums T_0..T_{j_max+1}.

    tail[j] = T_j = sum_{k>=j} G_k = -sum_{k<j} G_k (the series sums to 0);
    T_0 = 0.
    """

    h: float
    g: np.ndarray
    tail: np.ndarray
    j_max: int

    def __post_init__(self):
        scale = abs(self.g[1])
        if not (self.g[0] > 0.0 and self.g[1] < 0.0):
            raise InvalidMeasureError("leading weights violate their sign pattern")
        if np.any(self.g[2:] < -_SIGN_SLACK * scale):
            raise InvalidMeasureError("a jump weight is negative beyond roundoff")

    @property
    def total_rate(self) -> float:
        """Rate of leaving any interior grid point, -G_1."""
        return -float(self.g[1])

    @property
    def ladder(self) -> np.ndarray:
        """Ladder law z_1..z_{j_max}, z_k = T_{k+1}/G_0: where the walk
        started at level 0 first lands above it, k cells up.  G(x)/(1 - x)
        = G_0 (1 - sum_k z_k x^k), so 1/G(x), the generating function of the
        lattice scale function W, is the renewal of this law."""
        return self.tail[2:] / self.g[0]


def compute_coeffs(exp: LaplaceExponent, h: float, j_max: int) -> GrunwaldCoeffs:
    """Expand psi((1-xi)/h) to order j_max.

    Stable and tempered-stable symbols use the binomial closed form through
    the ratio recurrence w_{j+1} = w_j (j - alpha)/(j + 1); custom symbols get
    G_0 = psi(1/h), G_1 = -psi'(1/h)/h and, for j >= 2, the moment integrals
    G_j = (1/j!) int exp(-y/h) (y/h)^j rho(dy).
    """
    if h <= 0.0:
        raise ValueError(f"mesh h must be > 0, got {h}")
    if j_max < 2:
        raise ValueError(f"j_max must be >= 2, got {j_max}")
    m = exp.measure
    if m.kind == "custom":
        g = _moment_weights(exp, h, j_max)
    else:
        g = _binomial_weights(m.alpha, m.lam, h, j_max, exp)
    if m.lam == 0.0 and m.kind != "custom":
        tail = _stable_tails(m.alpha, g[0], j_max)
    else:
        tail = np.concatenate(([0.0], -np.cumsum(g)))
    return GrunwaldCoeffs(h=h, g=g, tail=tail, j_max=j_max)


def _stable_tails(alpha: float, g0: float, j_max: int) -> np.ndarray:
    """T_0..T_{j_max+1} of a stable symbol: T_0 = 0, T_1 = -G_0 and
    T_{j+1} = T_j (j - alpha)/j, i.e. T_j = (-1)^j binom(alpha-1, j-1)
    h^-alpha.  Partial sums would form T_2 = (alpha-1) h^-alpha from two O(1)
    weights and lose relative accuracy like eps/(alpha-1)."""
    tail = np.empty(j_max + 2)
    tail[0] = 0.0
    t = -g0
    for j in range(1, j_max + 2):
        tail[j] = t
        t *= (j - alpha) / j
    return tail


def _binomial_weights(alpha: float, lam: float, h: float, j_max: int,
                      exp: LaplaceExponent) -> np.ndarray:
    scale = h ** (-alpha)
    if not math.isfinite(scale):
        raise OverflowGuardError(f"h^-alpha overflows for h={h:g}")
    g = np.empty(j_max + 1)
    if lam == 0.0:
        w = scale  # (-1)^j binom(alpha, j) * h^-alpha, starting at j=0
        for j in range(j_max + 1):
            g[j] = w
            w *= (j - alpha) / (j + 1.0)
    else:
        # Tempering multiplies the j-th binomial weight by (1+lam*h)^(alpha-j)
        # and shifts the two leading coefficients by the linear part of psi.
        u = 1.0 + lam * h
        w = scale * u ** alpha
        for j in range(j_max + 1):
            g[j] = w
            w *= (j - alpha) / ((j + 1.0) * u)
        g[0] = exp.psi(1.0 / h)
        g[1] = -exp.psi_prime(1.0 / h) / h
    return g


def _moment_weights(exp: LaplaceExponent, h: float, j_max: int) -> np.ndarray:
    from scipy import integrate

    m = exp.measure
    g = np.empty(j_max + 1)
    g[0] = exp.psi(1.0 / h)
    g[1] = -exp.psi_prime(1.0 / h) / h
    for j in range(2, j_max + 1):
        # log-form Poisson kernel keeps (y/h)^j / j! representable
        def integrand(y, j=j):
            return math.exp(j * math.log(y / h) - y / h - math.lgamma(j + 1)) \
                * m.density(y)

        peak = j * h
        cut = peak + 50.0 * h * math.sqrt(j) + 50.0 * h
        val, err = integrate.quad(integrand, 0.0, cut, points=[peak],
                                  epsabs=0.0, epsrel=1e-11, limit=400)
        if not math.isfinite(val) or (err > 1e-8 * max(abs(val), 1e-300)):
            raise QuadratureError(f"moment integral for weight {j} did not converge")
        g[j] = val
    return g


def verify_coeffs_cauchy(exp: LaplaceExponent, h: float, j_max: int,
                         radius: float, n_nodes: int | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Independent weight extraction by discrete Fourier inversion.

    Samples xi -> psi((1-xi)/h) on the circle |xi| = radius and reads the
    series coefficients off the FFT.  The radius trades roundoff (small r
    amplifies noise by r^-j) against aliasing from the branch point at xi = 1;
    agreement with :func:`compute_coeffs` is the oracle check.  Returns the
    estimates of G_0..G_{j_max} and a bound on their own roundoff,
    eps log2(n_nodes) max|psi| r^-j over the samples: once the weights decay
    geometrically (tempered symbols) it exceeds any fixed relative error.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if n_nodes is None:
        n_nodes = 4 * j_max
    if n_nodes < 4 * j_max:
        warnings.warn(
            f"{n_nodes} circle nodes for {j_max + 1} coefficients invites aliasing",
            stacklevel=2)
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    samples = np.array([exp.psi((1.0 - radius * cmath.exp(1j * t)) / h)
                        for t in theta])
    coef = np.fft.fft(samples) / n_nodes
    j = np.arange(j_max + 1)
    # undersampled calls wrap around (that is the aliasing warned about)
    picked = np.take(coef, j, mode="wrap")
    amplify = radius ** (-j.astype(float))
    roundoff = (np.finfo(float).eps * math.log2(n_nodes)
                * float(np.max(np.abs(samples))) * amplify)
    return picked.real * amplify, roundoff
