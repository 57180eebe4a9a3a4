"""Pathwise boundary maps on step paths.

Simulates the free grid walk and applies the killing, reflecting and
fast-forwarding maps exactly, demonstrates which compositions commute path
by path (and which agree only in law), and measures the exact Skorokhod J1
distance between paths, including on the classic discontinuity families of
the fast-forwarding map.  Exits with status 1 if an exact identity fails.
"""

import sys

from oneside_levy import LaplaceExponent, LevyMeasureSpec, compute_coeffs
from oneside_levy.errors import EmptyRegionError
from oneside_levy.paths import (SimConfig, above, apply_boundary, below,
                                between, fast_forward, j1_distance, kill_left,
                                kill_right, make_step_path, reflect_left,
                                reflect_two_sided, simulate_cp)
from oneside_levy.ratemat import BoundaryPair

exp = LaplaceExponent(LevyMeasureSpec.stable(1.5))
c = compute_coeffs(exp, 0.2, 2048)
cfg = SimConfig(seed=42, paths=1, x0=0.0, T=3.0, tail_eps=1e-4)

p = simulate_cp(c, cfg, path_index=0)
print(f"free path: {p.n_jumps} jumps on [0, {p.T}], "
      f"range [{min(p.all_values()):+.1f}, {max(p.all_values()):+.1f}]")

print("\n== exact identities on 2000 paths (exact integer time) ==")
ff_bad = kill_bad = checked = 0
for k in range(2000):
    q = simulate_cp(c, cfg, path_index=k).with_exact_times()
    if kill_left(kill_right(q)) != kill_right(kill_left(q)):
        kill_bad += 1
    try:
        r1 = fast_forward(fast_forward(q, above(-1.0)), below(1.0))
        r2 = fast_forward(fast_forward(q, below(1.0)), above(-1.0))
        r3 = fast_forward(q, between(-1.0, 1.0))
    except EmptyRegionError:
        continue
    checked += 1
    if not (r1 == r2 == r3):
        ff_bad += 1
print(f"  killing commutation mismatches:       {kill_bad}/2000")
print(f"  fast-forward commutation mismatches:  {ff_bad}/{checked}")
if kill_bad or ff_bad:
    sys.exit("exact identities fail on some paths")

print("\n== composition vs direct two-sided reflection (law, not paths) ==")
h = 0.2
mismatch = 0
for k in range(2000):
    q = simulate_cp(c, cfg, path_index=k)
    composed = apply_boundary(q, BoundaryPair.from_label("N*N"), h)
    direct = reflect_two_sided(q, h - 1.0, 1.0 - h)
    T = min(composed.T, direct.T)
    if composed.restrict(T) != direct.restrict(T):
        mismatch += 1
print(f"  pathwise mismatches: {mismatch}/2000 (deleting the time beyond the"
      f" upper barrier is not the same as holding there)")
print("  ... but the two constructions share their transition rates, so the"
      " marginal laws coincide; see demo 04 for the matrix comparison.")

print("\n== J1 path distance ==")
a = make_step_path(1.0, 0.0, [0.5], [1.0])
b = make_step_path(1.0, 0.0, [0.6], [1.0])
d, _ = j1_distance(a, b, 1.0)
print(f"  same jump shifted 0.1 in time: distance {d:.4f}")

nn = 8
f_n = make_step_path(2.0, 1.0 / nn, [1.0], [1.0])
f = make_step_path(2.0, 0.0, [1.0], [1.0])
d, _ = j1_distance(fast_forward(f_n, above(0.0)),
                   fast_forward(f, above(0.0)), 1.0)
print(f"  fast-forwarded near-zero plateau family (n = {nn}): distance "
      f"{d:.4f} >= 1 - 1/n = {1 - 1 / nn:.4f}")
print("  (uniformly close inputs, distant outputs: the map is discontinuous"
      " at paths that dwell at the barrier)")
