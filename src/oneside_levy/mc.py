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
  a cumulative first-entry table.  The caller builds it with
  :func:`reentry_table` in the mode it chooses (the landing law of
  :func:`ratemat.landing_law`, or the exact tail identity) and passes it in;
  the engine never builds one itself.

Shallow below-barrier excursions (the overwhelming majority) are simulated
step by step; only excursions longer than EXC_BUDGET steps fall back to the
ladder completion, and every completion is counted and reported.

Paths are advanced in lockstep blocks with one counter-based stream per
block, so results are independent of worker scheduling.  A block holds only
its live paths, in index order, and drops each path in the iteration it
stops, so the work per iteration follows the paths still running instead of
the block size.  Every draw is one call whose values go to the live paths in
index order, which hands each path the same values as a sweep over the whole
block would.  One engine serves every quantity: the time-t marginals, the
absorption times and the first transition off the fast-forwarded boundary
are stopping rules of the same block loop.
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
_BLOCK_SIZE = 8192          # paths per lockstep block and stream pair
_TAIL_EPS = 1e-5            # largest jump-tail mass the step table may lump
EXC_BUDGET = 2048           # excursion steps before a ladder completion


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
    (:func:`ratemat.landing_law`), which the lattice scale function W gives
    by one recursion over the weights in O(m_below) memory: head entries are
    accurate to O(1/sqrt(m_below)) but entries with j approaching m_below
    are biased low, because the occupation that feeds them sits near the
    cut.  It does not assume the tail identity below, so use it when the
    landing law itself is the quantity under test.

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
        cum = np.minimum(np.cumsum(z), 1.0)
    elif mode == "greens":
        cum = np.cumsum(landing_law(c, m_below, j_cap)[1:])
    else:
        raise ValueError(f"unknown reentry table mode {mode!r}")
    # beyond-cap mass is lumped at j_cap; ending at exactly 1 keeps every
    # draw u < 1 inside the table
    cum[-1] = 1.0
    return cum


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
                      reentry_cum: Optional[np.ndarray] = None):
    """Simulate the boundary-mapped free walk in its own (region) clock.

    Returns (counts, times, diag): counts has one row per probe time with the
    empirical state histogram over 0..n+1; times is the array of absorption
    times when collect_absorption is set (and the chain has a killing side).
    A left fast-forwarded boundary needs the caller's reentry_cum
    (:func:`reentry_table`); other pairs ignore it.

    The dynamics are the pathwise boundary maps fused with the exact
    excursion reductions described in the module docstring; the transition
    rate matrix is never consulted, which keeps this an independent route.
    """
    if not 1 <= i0 <= n:
        raise ValueError(f"i0={i0} is not an interior state 1..{n}")
    if probe_times is None:
        probe_times = ()
    probes = np.asarray(sorted(probe_times), dtype=float)
    if not np.all(probes >= 0.0):
        raise ValueError("probe times must be >= 0")
    if collect_absorption and "D" not in (bc.left, bc.right):
        raise ValueError("absorption sampling needs a killing boundary")
    if collect_absorption == bool(len(probes)):
        raise ValueError("collect either probe marginals or absorption times")
    if bc.left == "N" and reentry_cum is None:
        raise ValueError("a left fast-forwarded boundary needs reentry_cum")
    counts, clock, _, diag = _simulate(c, bc, n, i0, n_paths, seed, probes,
                                       reentry_cum)
    return counts, clock if collect_absorption else np.empty(0), diag


def first_transition_mc(c: GrunwaldCoeffs, n_samples: int, seed: int,
                        reentry_cum: np.ndarray):
    """Hold time and landing cell of the left-fast-forwarded walk.

    The walk starts one cell above the barrier and stops at its first move;
    deep excursions complete from reentry_cum (:func:`reentry_table`).
    Returns (holds, landings, diag): holds are the accumulated region times
    until the mapped path first moves, landings the number of cells gained by
    that move (>= 1).
    """
    # a right barrier no single move reaches: a step gains at most j_max - 1
    # cells and a ladder completion lands at most len(reentry_cum) + 1
    n = max(c.j_max, len(reentry_cum) + 1)
    _, holds, levels, diag = _simulate(c, BoundaryPair("N", "N"), n, 1,
                                       n_samples, seed, np.empty(0),
                                       reentry_cum)
    return holds, levels - 1, diag


def _simulate(c, bc, n, i0, n_paths, seed, probes, reentry_cum):
    """Run the engine over blocks of _BLOCK_SIZE paths, one stream pair each.

    Returns (counts, clock, level, diag): the probe histograms summed over the
    blocks, and each path's region clock and level when it stopped.
    """
    disp, cum = jump_table(c, _TAIL_EPS)
    counts = np.zeros((len(probes), n + 2), dtype=np.int64)
    clock = np.empty(n_paths)
    level = np.empty(n_paths, dtype=np.int64)
    diag = McDiagnostics()
    for bi, start in enumerate(range(0, n_paths, _BLOCK_SIZE)):
        sl = slice(start, min(start + _BLOCK_SIZE, n_paths))
        rng, ladder_rng = _block_rngs(seed, bi)
        block_counts, clock[sl], level[sl], block_diag = _run_block(
            sl.stop - start, rng, ladder_rng, bc, n, i0, probes, disp, cum,
            c.total_rate, reentry_cum)
        counts += block_counts
        diag.merge(block_diag)
    return counts, clock, level, diag


def _run_block(size, rng, ladder_rng, bc, n, i0, probes, disp, cum, rate,
               reentry_cum):
    """Advance one block in lockstep until every path has stopped.

    The stopping rule follows from the inputs: with probe times a path stops
    once its clock has passed all of them; otherwise a chain with a killing
    side runs to absorption, and one without stops at its first move, once
    the path is in the region at a level other than i0.  Absorption stops a
    path in every case.  Returns (counts, clock, pos, diag).

    The per-path arrays (pos, below, exc_start: the iteration the current
    excursion began, clock) hold the live paths only, in index order; idx
    maps them back into the block.  A path that stops writes its clock and
    level into the outputs and is dropped at the end of that iteration.  The
    draws of an iteration go to the live paths in index order, so each path
    gets the values a sweep over the whole block would give it.

    Invariant: a live path has recorded exactly the probes below its clock.
    So a region step from clock to new clock records the probes p with
    clock <= p < new clock at the level it leaves, a path stops once its
    clock is past the last probe, and absorption records the probes at or
    beyond the clock in the absorbing state.
    """
    n_probes = len(probes)
    idx = np.arange(size)
    pos = np.full(size, i0, dtype=np.int64)
    below = np.zeros(size, dtype=bool)
    exc_start = np.zeros(size, dtype=np.int64)
    clock = np.zeros(size)
    counts = np.zeros((n_probes, n + 2), dtype=np.int64)
    out_clock = np.empty(size)
    out_pos = np.empty(size, dtype=np.int64)
    diag = McDiagnostics(n_paths=size)

    left, right = bc.left, bc.right
    first_move = not n_probes and "D" not in (left, right)
    ceil = n + 1 if right == "D" else n
    probe_col = probes[:, None]

    it = 0
    while len(idx):
        it += 1
        if it > _MAX_ITERS:
            raise RuntimeError("lockstep simulation exceeded its iteration cap")
        live = len(idx)
        diag.events += live
        pos2 = pos + disp[cum.searchsorted(rng.random(live), side="right")]
        n_reg = live - np.count_nonzero(below)

        # region paths: advance the clock, record probes crossed
        if n_reg:
            dt = np.zeros(live)
            dt[~below] = rng.standard_exponential(n_reg) / rate
            new_clock = clock + dt
            if n_probes:
                hit = (clock <= probe_col) & (probe_col < new_clock)
                for j in hit.any(axis=1).nonzero()[0]:
                    counts[j] += np.bincount(pos[hit[j]], minlength=n + 2)
            clock = new_clock

        # below-barrier excursions (left fast-forwarding only): one begun at
        # iteration s has taken it - s steps; past the budget, a ladder
        # completion draws its re-entry level
        low = pos2 < 1
        if n_reg < live:
            deep = below & low & (exc_start <= it - EXC_BUDGET)
            for i in deep.nonzero()[0]:
                pos2[i] = _ladder_complete(int(pos2[i]), reentry_cum,
                                           ladder_rng)
                low[i] = False
                diag.completions += 1

        # boundary rules: a step goes down one cell at most, so a path below
        # 1 sits at 0, where left D absorbs, Nstar clamps to 1 and left N
        # starts an excursion; beyond n, right D absorbs at n+1 and N clamps
        if left == "Nstar":
            np.maximum(pos2, 1, out=pos2)
        pos = np.minimum(pos2, ceil, out=pos2)
        if left == "N":
            fresh = low > below
            exc_start[fresh] = it
            diag.excursions += int(np.count_nonzero(fresh))
            below = low

        if first_move:
            stop = ~below & (pos != i0)
        else:
            stop = low | (pos > n) if left == "D" else pos > n
            if n_probes:
                if np.count_nonzero(stop):
                    for j, late in enumerate(clock[stop] <= probe_col):
                        counts[j] += np.bincount(pos[stop][late],
                                                 minlength=n + 2)
                stop |= clock > probes[-1]
        if np.count_nonzero(stop):
            out_clock[idx[stop]] = clock[stop]
            out_pos[idx[stop]] = pos[stop]
            keep = ~stop
            idx, pos, below, exc_start, clock = (
                a[keep] for a in (idx, pos, below, exc_start, clock))
    diag.iterations = it
    return counts, out_clock, out_pos, diag


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())
