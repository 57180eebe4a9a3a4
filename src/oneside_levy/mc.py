"""Vectorised Monte Carlo for the boundary-modified grid chains.

Simulating the fast-forwarded processes naively is infeasible: the free walk
is null recurrent, so the real-time length of an excursion beyond a
fast-forwarded barrier has infinite mean (its step count has a heavy
polynomial tail).  Deleted time never shows up in the output, which allows
two exact reductions:

* beyond an upper fast-forwarded barrier the walk descends by unit cells, so
  it re-enters at the first cell below the barrier, deterministically; the
  excursion is skipped outright;
* below a lower fast-forwarded barrier the re-entry point of a deep excursion
  is completed by a ladder of independent one-level first-entry increments
  (translation invariance plus the strong Markov property), each drawn from
  the landing law computed by linear algebra in :func:`ratemat.landing_law`.

Shallow below-barrier excursions (the overwhelming majority) are simulated
step by step; only excursions exceeding a step budget fall back to the ladder
completion, and every completion is counted and reported.

Paths are advanced in lockstep blocks with one counter-based stream per
block, so results are independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grunwald import GrunwaldCoeffs
from .ratemat import BoundaryPair, landing_law
from .paths import jump_table

_BLOCK_TAG = 0xB10C
_LADDER_TAG = 0x1ADD
_MAX_ITERS = 2_000_000


@dataclass
class McDiagnostics:
    n_paths: int = 0
    completions: int = 0
    excursions: int = 0
    iterations: int = 0
    events: int = 0

    def merge(self, other: "McDiagnostics") -> None:
        self.n_paths += other.n_paths
        self.completions += other.completions
        self.excursions += other.excursions
        self.iterations = max(self.iterations, other.iterations)
        self.events += other.events


def reentry_table(c: GrunwaldCoeffs, m_below: int = 3000,
                  j_cap: int = 2048, mode: str = "greens") -> np.ndarray:
    """Cumulative first-entry law used by the ladder completions.

    mode "greens" derives the law from the truncated transient Green row
    (:func:`ratemat.landing_law`): head entries are accurate to
    O(1/sqrt(m_below)) but entries with j approaching m_below are biased low,
    because the occupation that feeds them sits near the cut.  Use it when
    the landing law itself is the quantity under test and must not be
    assumed.

    mode "tails" uses the exact partial-sum identity z_j = T_{j+1}/G_0 of the
    stored weights: exact across the whole table.  Use it when the simulated
    chain is the tool rather than the claim (semigroup marginals, exit
    times), where any landing mass at or beyond the interval top is handled
    identically anyway.
    """
    if mode == "tails":
        if c.j_max < j_cap + 2:
            raise ValueError("j_max too small for the requested table")
        z = np.asarray(c.tail[2: j_cap + 2]) / c.g[0]
        cum = np.cumsum(z)
        cum[-1] = max(cum[-1], 1.0)      # beyond-cap mass lumped at j_cap
        return np.minimum(cum, 1.0)
    if mode != "greens":
        raise ValueError(f"unknown reentry table mode {mode!r}")
    z = landing_law(c, m_below, j_cap)
    return np.cumsum(z[1:])


def _ladder_complete(level: int, cum: np.ndarray,
                     rng: np.random.Generator) -> int:
    """Exact re-entry level from a deep excursion at the given level (<= 0)."""
    while level < 1:
        level += 1 + int(np.searchsorted(cum, rng.random(), side="right"))
    return level


def _block_rngs(seed: int, block_index: int):
    main = np.random.Generator(np.random.Philox(
        key=np.random.SeedSequence([seed, _BLOCK_TAG, block_index])
        .generate_state(2, np.uint64)))
    ladder = np.random.Generator(np.random.Philox(
        key=np.random.SeedSequence([seed, _LADDER_TAG, block_index])
        .generate_state(2, np.uint64)))
    return main, ladder


def mapped_process_mc(c: GrunwaldCoeffs, bc: BoundaryPair, n: int, i0: int,
                      n_paths: int, seed: int,
                      probe_times: Optional[Sequence[float]] = None,
                      collect_absorption: bool = False,
                      tail_eps: float = 1e-5,
                      exc_budget: int = 2048,
                      reentry_cum: Optional[np.ndarray] = None,
                      block_size: int = 8192):
    """Simulate the boundary-mapped free walk in its own (region) clock.

    Returns (counts, times, diag): counts has one row per probe time with the
    empirical state histogram over 0..n+1; times is the array of absorption
    times when collect_absorption is set (and the chain has a killing side).

    The dynamics are the pathwise boundary maps fused with the exact
    excursion reductions described in the module docstring; the transition
    rate matrix is never consulted, which keeps this an independent route.
    """
    if probe_times is None:
        probe_times = ()
    probes = np.asarray(sorted(probe_times), dtype=float)
    if collect_absorption and "D" not in (bc.left, bc.right):
        raise ValueError("absorption sampling needs a killing boundary")
    if collect_absorption and len(probes):
        raise ValueError("collect either probe marginals or absorption times")
    needs_ladder = bc.left == "N"
    if needs_ladder and reentry_cum is None:
        reentry_cum = reentry_table(c)
    disp, cum = jump_table(c, tail_eps)
    rate = c.total_rate

    counts = np.zeros((len(probes), n + 2), dtype=np.int64)
    abs_times = []
    diag = McDiagnostics()
    n_blocks = (n_paths + block_size - 1) // block_size
    for bi in range(n_blocks):
        size = min(block_size, n_paths - bi * block_size)
        rng, ladder_rng = _block_rngs(seed, bi)
        out = _run_block(size, rng, ladder_rng, bc, n, i0, probes,
                         collect_absorption, disp, cum, rate,
                         exc_budget, reentry_cum)
        block_counts, block_times, block_diag = out
        counts += block_counts
        if collect_absorption:
            abs_times.append(block_times)
        diag.merge(block_diag)
    times = np.concatenate(abs_times) if abs_times else np.empty(0)
    return counts, times, diag


def _run_block(size, rng, ladder_rng, bc, n, i0, probes, collect_absorption,
               disp, cum, rate, exc_budget, reentry_cum):
    n_probes = len(probes)
    pos = np.full(size, i0, dtype=np.int64)
    below = np.zeros(size, dtype=bool)
    exc_steps = np.zeros(size, dtype=np.int64)
    clock = np.zeros(size)
    absorbed_at = np.full(size, np.nan)
    recorded = np.zeros((n_probes, size), dtype=bool)
    counts = np.zeros((n_probes, n + 2), dtype=np.int64)
    done = np.zeros(size, dtype=bool)
    diag = McDiagnostics(n_paths=size)

    left, right = bc.left, bc.right

    def _record_absorbing(mask, state):
        # unrecorded probes necessarily sit at or beyond the absorption time
        if not mask.any():
            return
        for j in range(n_probes):
            fresh = mask & ~recorded[j]
            counts[j, state] += int(fresh.sum())
            recorded[j][fresh] = True
        if collect_absorption:
            absorbed_at[mask] = clock[mask]
        done[mask] = True

    it = 0
    while not done.all():
        it += 1
        if it > _MAX_ITERS:
            raise RuntimeError("lockstep simulation exceeded its iteration cap")
        act = ~done
        n_act = int(act.sum())
        diag.events += n_act
        u = rng.random(n_act)
        d = disp[np.searchsorted(cum, u, side="right")]
        step = np.zeros(size, dtype=np.int64)
        step[act] = d

        exc = act & below
        reg = act & ~below

        # region paths: advance the clock, record probes crossed
        if reg.any():
            dt = np.zeros(size)
            dt[reg] = rng.standard_exponential(int(reg.sum())) / rate
            new_clock = clock + dt
            for j in range(n_probes):
                hit = reg & ~recorded[j] & (clock <= probes[j]) & (probes[j] < new_clock)
                if hit.any():
                    counts[j] += np.bincount(pos[hit], minlength=n + 2)
                    recorded[j][hit] = True
            clock = new_clock

        pos2 = pos + step

        # below-barrier excursions (left fast-forwarding only)
        if exc.any():
            exc_steps[exc] += 1
            over_budget = exc & (pos2 < 1) & (exc_steps >= exc_budget)
            if over_budget.any():
                for i in np.flatnonzero(over_budget):
                    pos2[i] = _ladder_complete(int(pos2[i]), reentry_cum,
                                               ladder_rng)
                diag.completions += int(over_budget.sum())
            reenter = exc & (pos2 >= 1)
            if reenter.any():
                below[reenter] = False
                if right == "D":
                    killed = reenter & (pos2 >= n + 1)
                    pos2[killed] = n + 1
                    _record_absorbing(killed, n + 1)
                else:
                    pos2[reenter & (pos2 >= n + 1)] = n
            pos[exc] = pos2[exc]

        # region moves with the boundary rules
        if reg.any():
            hit_low = reg & (pos2 <= 0)
            if left == "Nstar":
                pos2[hit_low] = 1
            elif left == "D":
                pos2[hit_low] = 0
                _record_absorbing(hit_low, 0)
            else:  # N: start a below-barrier excursion at level 0
                start_exc = hit_low & ~done
                below[start_exc] = True
                exc_steps[start_exc] = 0
                diag.excursions += int(start_exc.sum())
            hit_high = reg & (pos2 >= n + 1) & ~done
            if right == "D":
                pos2[hit_high] = n + 1
                _record_absorbing(hit_high, n + 1)
            else:
                pos2[hit_high] = n
            pos[reg] = pos2[reg]

        if n_probes:
            fin = recorded.all(axis=0) & ~done
            done[fin] = True
    diag.iterations = it
    times = absorbed_at if collect_absorption else np.empty(0)
    return counts, times, diag


def first_transition_mc(c: GrunwaldCoeffs, n_samples: int, seed: int,
                        tail_eps: float = 1e-5, exc_budget: int = 2048,
                        reentry_cum: Optional[np.ndarray] = None,
                        block_size: int = 8192):
    """Hold time and landing cell of the left-fast-forwarded walk.

    The walk starts one cell above the barrier.  Returns (holds, landings,
    diag): holds are the accumulated region times until the mapped path first
    moves, landings the number of cells gained by that move (>= 1).
    """
    if reentry_cum is None:
        reentry_cum = reentry_table(c)
    disp, cum = jump_table(c, tail_eps)
    rate = c.total_rate
    holds = np.empty(n_samples)
    lands = np.empty(n_samples, dtype=np.int64)
    diag = McDiagnostics()
    n_blocks = (n_samples + block_size - 1) // block_size
    for bi in range(n_blocks):
        size = min(block_size, n_samples - bi * block_size)
        rng, ladder_rng = _block_rngs(seed, bi)
        h, l, d = _first_transition_block(size, rng, ladder_rng, disp, cum,
                                          rate, exc_budget, reentry_cum)
        sl = slice(bi * block_size, bi * block_size + size)
        holds[sl] = h
        lands[sl] = l
        diag.merge(d)
    return holds, lands, diag


def _first_transition_block(size, rng, ladder_rng, disp, cum, rate,
                            exc_budget, reentry_cum):
    # state: level 1 = at the boundary cell; below: excursion level <= 0
    pos = np.ones(size, dtype=np.int64)
    below = np.zeros(size, dtype=bool)
    exc_steps = np.zeros(size, dtype=np.int64)
    hold = np.zeros(size)
    land = np.zeros(size, dtype=np.int64)
    done = np.zeros(size, dtype=bool)
    diag = McDiagnostics(n_paths=size)
    it = 0
    while not done.all():
        it += 1
        if it > _MAX_ITERS:
            raise RuntimeError("lockstep simulation exceeded its iteration cap")
        act = ~done
        n_act = int(act.sum())
        diag.events += n_act
        d = disp[np.searchsorted(cum, rng.random(n_act), side="right")]
        step = np.zeros(size, dtype=np.int64)
        step[act] = d

        reg = act & ~below
        exc = act & below
        if reg.any():
            dt = np.zeros(size)
            dt[reg] = rng.standard_exponential(int(reg.sum())) / rate
            hold += dt

        pos2 = pos + step
        if exc.any():
            exc_steps[exc] += 1
            over = exc & (pos2 < 1) & (exc_steps >= exc_budget)
            if over.any():
                for i in np.flatnonzero(over):
                    pos2[i] = _ladder_complete(int(pos2[i]), reentry_cum,
                                               ladder_rng)
                diag.completions += int(over.sum())
            reenter = exc & (pos2 >= 1)
            high = reenter & (pos2 >= 2)
            land[high] = pos2[high] - 1
            done[high] = True
            back = reenter & (pos2 == 1)
            below[reenter] = False
            pos[exc] = pos2[exc]
            pos[back] = 1

        if reg.any():
            up = reg & (pos2 >= 2)
            land[up] = pos2[up] - 1
            done[up] = True
            down = reg & (pos2 <= 0) & ~done
            below[down] = True
            exc_steps[down] = 0
            diag.excursions += int(down.sum())
            pos[reg] = pos2[reg]
    diag.iterations = it
    return hold, land, diag


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())
