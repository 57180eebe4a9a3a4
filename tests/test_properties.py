"""Property tests of the restricted generators over random symbols and meshes.

Every boundary pair is built at the depth the command line uses,
j_max = 4(n+1), and must pass every check of :func:`validity_report`.  For
the untempered family the ND corner, computed by the finite identity
sum_{j>n} T_j = sum_{k<n} (n-k) G_k, is compared with its binomial closed
form G_0 (-1)^(n+1) binom(alpha-2, n-1).  Semigroup rows from the blocked
uniformization are compared with scipy's dense matrix exponential.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oneside_levy.grunwald import compute_coeffs
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
