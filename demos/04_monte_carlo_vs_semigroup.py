"""Monte Carlo path functionals against matrix semigroups.

The mapped free walk is simulated in its own clock with exact excursion
reductions (unit descent above the upper barrier, ladder completion of deep
lower excursions), and its marginals and first-transition statistics are
compared with the semigroup rows and the boundary-row rates of the
assembled matrices.
"""

import numpy as np

from oneside_levy import (ALL_PAIRS, BoundaryPair, LaplaceExponent,
                          LevyMeasureSpec, build_restricted, compute_coeffs,
                          semigroup_row)
from oneside_levy.mc import (first_transition_mc, mapped_process_mc,
                             reentry_table, total_variation)

exp = LaplaceExponent(LevyMeasureSpec.stable(1.5))
n = 9
h = 2.0 / (n + 1)
c_sim = compute_coeffs(exp, h, 8192)
c_mat = compute_coeffs(exp, h, 4 * (n + 1))
reentry = reentry_table(c_sim, j_cap=2048, mode="tails")

print(f"== time-t marginals, 20000 mapped paths from the middle (n = {n}) ==")
times = (0.1, 0.5, 1.0)
for bc in ALL_PAIRS:
    counts, _, diag = mapped_process_mc(c_sim, bc, n, 5, 20_000, seed=7,
                                        probe_times=times, reentry_cum=reentry)
    Q = build_restricted(c_mat, n, bc)
    tvs = [total_variation(counts[j] / 20_000, semigroup_row(Q, t, 5))
           for j, t in enumerate(times)]
    extra = (f", {diag.excursions} lower excursions "
             f"({diag.completions} ladder-completed)") if diag.excursions else ""
    print(f"  {bc.label:>3}: TV at t = {times} -> "
          + ", ".join(f"{tv:.4f}" for tv in tvs) + extra)

print("\n== first transition of the left-fast-forwarded walk ==")
reentry_g = reentry_table(c_sim, m_below=2000, j_cap=1024, mode="greens")
holds, lands, diag = first_transition_mc(c_sim, 50_000, seed=11,
                                         reentry_cum=reentry_g)
g0 = c_sim.g[0]
print(f"  holding time: mean {holds.mean():.5f} vs 1/G_0 = {1 / g0:.5f}")
print("  landing cells vs the tail-ratio law:")
for j in (1, 2, 3, 4):
    target = float(c_sim.tail[j + 1] / g0)
    print(f"    {j} cells up: {np.mean(lands == j):.4f} vs {target:.4f}")
print(f"  ({diag.completions} of {diag.excursions} excursions "
      f"ladder-completed beyond the step budget)")
