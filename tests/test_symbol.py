import math

import numpy as np
import pytest
from scipy import integrate

from oneside_levy.errors import BracketError, InvalidMeasureError
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

ALPHA = 1.5


def tempered_custom(alpha=1.5, lam=2.0):
    """Tempered measure packaged as a custom spec.

    With G(a, x) the upper incomplete gamma function, the tail is
    lam^alpha G(-alpha, lam y) / Gamma(-alpha) and its integral
    Phi(x) = lam^(alpha-1) (G(1-alpha, u) - u G(-alpha, u)) / Gamma(-alpha),
    u = lam x.  G(1-alpha, .) and G(-alpha, .) come down from
    G(2-alpha, .) by G(a, u) = (G(a+1, u) - u^a e^-u) / a.
    """
    from scipy.special import gamma, gammaincc

    g_alpha = gamma(-alpha)
    dens = lambda y: math.exp(-lam * y) * y ** (-1.0 - alpha) / g_alpha

    def upper_gammas(u):
        g2 = gammaincc(2.0 - alpha, u) * gamma(2.0 - alpha)
        g1 = (g2 - u ** (1.0 - alpha) * math.exp(-u)) / (1.0 - alpha)
        return g1, (g1 - u ** -alpha * math.exp(-u)) / -alpha

    def tail(y):
        return lam ** alpha * upper_gammas(lam * y)[1] / g_alpha

    def integrated_tail(x):
        u = lam * x
        g1, g0 = upper_gammas(u)
        return lam ** (alpha - 1.0) * (g1 - u * g0) / g_alpha

    return LevyMeasureSpec.custom(dens, tail, integrated_tail)


def test_tempered_custom_tail_pieces():
    # the closed-form tail and integrated tail against quadrature of the
    # density, where the values are well above the absolute tolerance
    alpha, lam = 1.3, 0.7
    spec = tempered_custom(alpha, lam)
    for y in (1e-3, 0.1, 1.0, 5.0):
        tail, _ = integrate.quad(spec.density, y, np.inf, epsabs=0.0,
                                 epsrel=1e-12)
        assert spec.tail(y) == pytest.approx(tail, rel=1e-10)
        phi, _ = integrate.quad(spec.tail, y, np.inf, epsabs=0.0,
                                epsrel=1e-10, limit=200)
        assert spec.integrated_tail(y) == pytest.approx(phi, rel=1e-8)


def test_stable_psi_values(stable_exp):
    assert stable_exp.psi(0.0) == 0.0
    assert stable_exp.psi(1.0) == pytest.approx(1.0, rel=1e-14)
    assert stable_exp.psi(4.0) == pytest.approx(8.0, rel=1e-14)


def test_stable_psi_prime_values(stable_exp):
    assert stable_exp.psi_prime(1.0) == pytest.approx(1.5, rel=1e-14)
    assert stable_exp.psi_prime(4.0) == pytest.approx(3.0, rel=1e-14)
    # vanishing slope at the origin, approached like xi^(alpha-1)
    assert abs(stable_exp.psi_prime(1e-8)) < 1e-3 * stable_exp.psi(1.0)


def test_psi_convexity_sampled(stable_exp, rng):
    xs = np.sort(rng.uniform(0.01, 50.0, size=40))
    for a, b in zip(xs[:-1], xs[1:]):
        mid = stable_exp.psi(0.5 * (a + b))
        chord = 0.5 * (stable_exp.psi(a) + stable_exp.psi(b))
        assert mid <= chord + 1e-12 * stable_exp.psi(b)


def test_alpha_range_validation():
    with pytest.raises(InvalidMeasureError):
        LevyMeasureSpec.stable(2.5)
    with pytest.raises(InvalidMeasureError):
        LevyMeasureSpec.stable(1.0)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidMeasureError):
            LevyMeasureSpec.tempered_stable(1.5, lam)


def test_tempered_closed_form_matches_quadrature():
    lam = 2.0
    texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(ALPHA, lam))
    cexp = LaplaceExponent(tempered_custom(ALPHA, lam))
    for xi in (0.3, 1.0, 5.0):
        assert cexp.psi(xi) == pytest.approx(texp.psi(xi), rel=1e-9)
        assert cexp.psi_prime(xi) == pytest.approx(texp.psi_prime(xi), rel=1e-8)


@pytest.mark.parametrize("alpha", [1.0 + 2.0 ** -52, 1.0 + 1e-11, 1.5, 1.99])
@pytest.mark.parametrize("lam", [5e-324, 1e-3, 3.0])
def test_tempered_closed_form_high_precision(alpha, lam):
    # the symbol vanishes like alpha - 1; the difference-of-powers form
    # (xi+lam)^alpha - lam^alpha - alpha lam^(alpha-1) xi cancels that factor
    # to roundoff (0.13% off at alpha = 1 + 1e-11, lam = 3, xi = 0.3)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(alpha, lam))
    a, lm = mp.mpf(alpha), mp.mpf(lam)
    for xi in (0.3, 1.0, 40.0, 3.0 + 4.0j):
        z = mp.mpmathify(xi)
        psi = (z + lm) ** a - lm ** a - a * lm ** (a - 1) * z
        assert abs(texp.psi(xi) - complex(psi)) <= 1e-12 * abs(complex(psi))
        if not isinstance(xi, complex):
            dpsi = a * ((z + lm) ** (a - 1) - lm ** (a - 1))
            assert texp.psi_prime(xi) == pytest.approx(float(dpsi), rel=1e-14)


def psi_via_integrated_tail(spec, xi):
    """psi(xi) = xi^2 int_0^inf e^(-xi x) Phi(x) dx, by quadrature over (0, 64).

    An oracle for the compensated-integrand route of LaplaceExponent.psi: it
    reads only the integrated tail Phi of a custom spec.  The cut at 64
    suits tails that decay like exp(-2 y), where Phi(64) is below 1e-55.
    """
    val, err = integrate.quad(
        lambda x: math.exp(-xi * x) * spec.integrated_tail(x), 0.0, 64.0,
        epsabs=0.0, epsrel=1e-10, limit=400)
    assert err <= 1e-10 * abs(val)
    return xi * xi * val


def test_custom_integrated_tail_representation():
    # psi(xi) = xi^2 int e^(-xi x) Phi(x) dx, the equivalent compensated form
    spec = tempered_custom()
    cexp = LaplaceExponent(spec)
    for xi in (0.5, 2.0):
        assert psi_via_integrated_tail(spec, xi) == pytest.approx(
            cexp.psi(xi), rel=1e-7)


@pytest.mark.parametrize("kind", ["stable", "custom"])
def test_lam_needs_tempered_kind(kind):
    # lam has no meaning for these kinds, so it must not be dropped silently
    pieces = dict(density=lambda y: y, tail=lambda y: y,
                  integrated_tail=lambda y: y)
    extra = dict(alpha=1.5) if kind == "stable" else pieces
    with pytest.raises(InvalidMeasureError, match="tempered_stable"):
        LevyMeasureSpec(kind=kind, lam=2.0, **extra)
    LevyMeasureSpec(kind=kind, lam=0.0, **extra)


def test_varphi_values_and_monotonicity(stable_exp):
    assert stable_exp.varphi(1.0, 0.0) == 0.0
    expected = math.e * (1.0 - math.exp(-1.0)) ** 1.5
    assert stable_exp.varphi(1.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert stable_exp.varphi(0.1, 2.0) > stable_exp.varphi(0.1, 1.0)


def test_varphi_inverse_roundtrip(stable_exp, rng):
    # Brent's root meets the residual contract on every symbol family,
    # the quadrature route included
    exps = [stable_exp,
            LaplaceExponent(LevyMeasureSpec.tempered_stable(1.5, 0.7)),
            LaplaceExponent(LevyMeasureSpec.tempered_stable(1.3, 3.0)),
            LaplaceExponent(tempered_custom(1.5, 2.0))]
    for exp in exps:
        for h in (1.0, 0.5, 0.1):
            for b in rng.uniform(0.05, 8.0, size=10):
                y = exp.varphi(h, b)
                back = exp.varphi_inverse(h, y)
                assert abs(exp.varphi(h, back) - y) <= 1e-12 * max(1.0, y)
                assert back == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_varphi_inverse_residual_contract(stable_exp):
    b = stable_exp.varphi_inverse(0.1, 1.0)
    assert abs(stable_exp.varphi(0.1, b) - 1.0) <= 1e-12
    assert stable_exp.varphi_inverse(0.5, 0.0) == 0.0


def test_varphi_inverse_bracket_failure(stable_exp):
    with pytest.raises((BracketError, OverflowError)):
        stable_exp.varphi_inverse(1.0, float("inf"))


def test_custom_rejects_missing_pieces():
    with pytest.raises(InvalidMeasureError):
        LevyMeasureSpec.custom(lambda y: y, None, None)
