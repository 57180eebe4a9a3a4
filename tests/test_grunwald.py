import math

import mpmath as mp
import numpy as np
import pytest

from oneside_levy.grunwald import compute_coeffs, verify_coeffs_cauchy
from oneside_levy.symbol import LaplaceExponent, LevyMeasureSpec

from test_symbol import tempered_custom


def test_leading_weights_h1(coeffs_h1):
    assert coeffs_h1.g[0] == pytest.approx(1.0, rel=1e-14)
    assert coeffs_h1.g[1] == pytest.approx(-1.5, rel=1e-14)
    assert coeffs_h1.g[2] == pytest.approx(0.375, rel=1e-14)
    assert coeffs_h1.g[3] == pytest.approx(0.0625, rel=1e-14)


def test_sign_pattern_and_row_identity(coeffs_h1):
    g = coeffs_h1.g
    assert g[0] > 0 and g[1] < 0
    assert np.all(g[2:] >= 0.0)
    # -G_1 = sum_{j != 1} G_j, tail included exactly through the partial sums
    residual = abs(g.sum() + coeffs_h1.tail[-1])
    assert residual <= 1e-10 * abs(g[1])


def test_first_moment_identity(coeffs_h1, binom_oracle):
    # sum_j j G_j = 0 follows from the vanishing slope of the symbol at 0.
    # The truncated remainder is known by summation by parts:
    # sum_{j>J} j G_j = (J+1) T_{J+1} + sum_{j>J+1} T_j, with the last series
    # in closed binomial form for the stable family.
    j = np.arange(coeffs_h1.j_max + 1)
    s = float(np.dot(j, coeffs_h1.g))
    J = coeffs_h1.j_max
    tail_of_tails = (-1.0) ** (J + 2) * binom_oracle(-0.5, J)
    remainder = (J + 1) * coeffs_h1.tail[J + 1] + tail_of_tails
    assert abs(s + remainder) <= 1e-8 * abs(coeffs_h1.g[1])


def test_tail_values(coeffs_h1, binom_oracle):
    assert coeffs_h1.tail[0] == 0.0
    assert coeffs_h1.tail[2] == pytest.approx(0.5, rel=1e-14)
    # partial-sum identity T_j = (-1)^j binom(alpha-1, j-1), checked against
    # direct summation of the weights
    for j in (1, 2, 5, 17, 40):
        expected = (-1.0) ** j * binom_oracle(0.5, j - 1)
        assert coeffs_h1.tail[j] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0 + 2.0 ** -52, 1.0 + 1e-13, 1.001, 1.5,
                                   1.999])
def test_stable_tails_match_mpmath_oracle(alpha):
    # T_j = (-1)^j binom(alpha-1, j-1) h^-alpha, at 40 digits for the same
    # binary alpha and h.  Near alpha = 1 the tails T_j, j >= 2, are
    # O(alpha-1) while G_0 and G_1 are O(1), so partial sums of the weights
    # would lose their relative accuracy there.
    h = 0.2
    c = compute_coeffs(LaplaceExponent(LevyMeasureSpec.stable(alpha)), h, 64)
    with mp.workdps(40):
        a = mp.mpf(alpha)
        scale = mp.mpf(h) ** -a
        for j in range(1, 51):
            exact = (-1) ** j * mp.binomial(a - 1, j - 1) * scale
            rel = abs((mp.mpf(float(c.tail[j])) - exact) / exact)
            assert rel <= 1e-13, (j, float(rel))
    assert c.tail[0] == 0.0


def test_tail_nonnegative_from_two(coeffs_h1):
    assert np.all(coeffs_h1.tail[2:] >= 0.0)


def test_scaling_consistency(stable_exp, coeffs_h1):
    c_half = compute_coeffs(stable_exp, 0.5, 32)
    ratio = 0.5 ** -1.5
    assert np.allclose(c_half.g[:33], ratio * coeffs_h1.g[:33], rtol=1e-13)


def test_landing_law_normalisation(coeffs_h1, binom_oracle):
    # total mass of the boundary landing distribution: sum_j T_{j+1} / G_0 = 1.
    # The tail-sum sequence decays only like j^(1-alpha), so the truncated
    # remainder sum_{j>J} T_j must be attached in closed binomial form; the
    # stored weight-tail bound alone would understate it badly.
    J = coeffs_h1.j_max
    head = float(np.sum(coeffs_h1.tail[2: J + 2]))
    tail_of_tails = (-1.0) ** (J + 2) * binom_oracle(-0.5, J)
    mass = (head + tail_of_tails) / coeffs_h1.g[0]
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_cauchy_oracle_stable(stable_exp, coeffs_h1):
    est = verify_coeffs_cauchy(stable_exp, 1.0, 12, radius=0.5)
    rel = np.abs(est - coeffs_h1.g[:13]) / np.abs(coeffs_h1.g[:13])
    assert np.max(rel) < 1e-8


def test_cauchy_node_count_contract(stable_exp, coeffs_h1):
    est = verify_coeffs_cauchy(stable_exp, 1.0, 64, radius=0.95, n_nodes=4 * 64)
    rel = np.abs(est - coeffs_h1.g[:65]) / np.abs(coeffs_h1.g[:65])
    assert np.max(rel) < 1e-6
    with pytest.warns(UserWarning):
        verify_coeffs_cauchy(stable_exp, 1.0, 16, radius=0.5, n_nodes=8)


def test_tempered_closed_form_vs_cauchy():
    texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(1.5, 2.0))
    c = compute_coeffs(texp, 0.5, 48)
    est = verify_coeffs_cauchy(texp, 0.5, 20, radius=0.8)
    assert np.max(np.abs(est - c.g[:21])) < 1e-10 * abs(c.g[1])


def test_custom_measure_moment_route_vs_closed_form():
    lam = 2.0
    texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(1.5, lam))
    cexp = LaplaceExponent(tempered_custom(1.5, lam))
    ct = compute_coeffs(texp, 0.5, 12)
    cc = compute_coeffs(cexp, 0.5, 12)
    assert np.max(np.abs(ct.g - cc.g)) < 1e-6 * abs(ct.g[1])


def test_custom_measure_cauchy_route():
    cexp = LaplaceExponent(tempered_custom(1.5, 2.0))
    cc = compute_coeffs(cexp, 0.5, 8)
    est = verify_coeffs_cauchy(cexp, 0.5, 8, radius=0.6, n_nodes=64)
    assert np.max(np.abs(est - cc.g)) < 1e-6 * abs(cc.g[1])


def test_compute_coeffs_validation(stable_exp):
    with pytest.raises(ValueError):
        compute_coeffs(stable_exp, -1.0, 16)
    with pytest.raises(ValueError):
        compute_coeffs(stable_exp, 1.0, 1)
