"""Symbols and generator weights.

Builds the Laplace exponent of a one-sided stable process, evaluates the
mesh-h discrete symbol and its inverse, expands the generator weights two
independent ways, and prints the structural identities the rest of the
package leans on.
"""

import numpy as np

from oneside_levy import (LaplaceExponent, LevyMeasureSpec, compute_coeffs,
                          verify_coeffs_cauchy)

exp = LaplaceExponent(LevyMeasureSpec.stable(1.5))

print("== Laplace exponent (stable, alpha = 1.5) ==")
for xi in (0.0, 1.0, 4.0):
    print(f"  psi({xi}) = {exp.psi(xi):.12g}")
print(f"  psi'(4)  = {exp.psi_prime(4.0):.12g}")

h, beta = 0.5, 0.7
y = exp.varphi(h, beta)
print(f"\n== discrete symbol, mesh h = {h} ==")
print(f"  varphi({beta})        = {y:.12g}")
print(f"  varphi_inverse(y)   = {exp.varphi_inverse(h, y):.12g}  (round trip)")

print("\n== generator weights at h = 1 ==")
c = compute_coeffs(exp, 1.0, 64)
print("  j     G_j          T_j = sum_{k>=j} G_k")
for j in range(6):
    print(f"  {j}   {c.g[j]:+.6f}    {c.tail[j]:+.6f}")
print(f"  sign pattern: G_0 > 0, G_1 < 0, rest >= 0 -> "
      f"{c.g[0] > 0 and c.g[1] < 0 and bool(np.all(c.g[2:] >= 0))}")
print(f"  series sums to zero: residual {abs(c.g.sum() + c.tail[-1]):.2e}")

print("\n== independent extraction from the power series ==")
est, _ = verify_coeffs_cauchy(exp, 1.0, 32, radius=0.95, n_nodes=2048)
rel = np.max(np.abs(est - c.g[:33]) / np.abs(c.g[:33]))
print(f"  circle-sampling route agrees with the closed form to {rel:.2e}")

print("\n== tempered family ==")
texp = LaplaceExponent(LevyMeasureSpec.tempered_stable(1.5, 2.0))
tc = compute_coeffs(texp, 0.5, 32)
print(f"  tempering multiplies weight j by (1 + lam h)^(alpha - j);"
      f"  G_0..G_3 = {np.round(tc.g[:4], 5)}")
