"""Cadlag step paths and the exact boundary maps acting on them.

A StepPath is piecewise constant and right continuous on [0, T]: an initial
value, strictly increasing jump epochs in (0, T] and the value taken from
each epoch on.  All boundary modifications used by the grid chains are exact
on this class:

* killing absorbs the path at a barrier from its first visit to the barrier's
  closed side;
* reflection is the minimal-pushing barrier map (one- and two-sided), through
  a running-extremum recursion over segments;
* fast-forwarding deletes the closed time blocks spent outside a region and
  splices the remainder, with the additive-functional time change available
  on request.

A path carries the unit of its times.  With ``time_bits = 0`` the horizon and
epochs are plain floats (or fractions.Fraction).  ``with_exact_times`` turns
them into Python ints counting ticks of 2^-1074 (``time_bits = TICK_BITS``):
every finite double is a whole number of such ticks, and the maps only
compare, add and subtract times, so on tick paths every map is exact integer
arithmetic, which the pathwise-identity tests rely on.  ``T``, ``epochs`` and
``segments()`` are in the stored unit; ``horizon``, ``value_at``,
``restrict``, ``with_float_times``, ``TimeChange.a`` and ``j1_distance`` take
or return natural times and convert through the unit.

The module also carries a path simulator for the free grid walk and the exact
Skorokhod J1 distance between step paths.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import (BarrierError, EmptyRegionError, TailEpsUnreachableError)
from .grunwald import GrunwaldCoeffs
from .ratemat import BoundaryPair


# Every finite double is an integer multiple of 2^-TICK_BITS.
TICK_BITS = 1074


def _stored(t, bits: int, exact: bool = False):
    """Natural time t in units of 2^-bits.

    An int when t is a whole number of units; otherwise the exact Fraction,
    or ValueError when ``exact`` asks for an int.  Never rounds.
    """
    if not bits:
        return t
    n, d = t.as_integer_ratio()
    shift = bits + 1 - d.bit_length()
    if d & (d - 1) == 0 and shift >= 0:
        return n << shift
    if exact:
        raise ValueError(f"time {t!r} is not an integer multiple of "
                         f"2^-{bits}")
    return Fraction(n << bits, d)


def _natural(t, bits: int):
    """Stored time t in natural units, exactly."""
    return Fraction(t, 1 << bits) if bits else t


def _float(t, bits: int) -> float:
    """Stored time t as the nearest float (int division rounds correctly)."""
    return t / (1 << bits) if bits else float(t)


@dataclass(frozen=True)
class StepPath:
    """Piecewise-constant cadlag path on [0, T]; no null jumps stored.

    T and the epochs are stored in units of 2^-time_bits: floats or
    Fractions when time_bits is 0, int ticks when it is TICK_BITS.
    """

    T: object
    initial: float
    epochs: tuple = ()
    values: tuple = ()
    time_bits: int = 0

    def __post_init__(self):
        if len(self.epochs) != len(self.values):
            raise ValueError("epochs and values must pair up")
        if self.time_bits:
            if self.time_bits != TICK_BITS:
                raise ValueError(f"time_bits must be 0 or {TICK_BITS}")
            for t in (self.T, *self.epochs):
                if type(t) is not int:
                    raise ValueError(f"time {t!r} of a path with time_bits="
                                     f"{self.time_bits} is not an int tick")
        last = 0
        prev_val = self.initial
        for e, v in zip(self.epochs, self.values):
            if not last < e <= self.T:
                raise ValueError("epochs must increase strictly within (0, T]")
            if v == prev_val:
                raise ValueError("consecutive values must differ (null jump)")
            last, prev_val = e, v

    @property
    def n_jumps(self) -> int:
        return len(self.epochs)

    @property
    def horizon(self):
        """T in natural time units, exactly (a Fraction on tick paths)."""
        return _natural(self.T, self.time_bits)

    def value_at(self, t):
        """Value at the natural time t."""
        s = _stored(t, self.time_bits)
        if not 0 <= s <= self.T:
            raise ValueError(
                f"t={t} outside [0, {_float(self.T, self.time_bits)}]")
        k = bisect.bisect_right(self.epochs, s)
        return self.values[k - 1] if k else self.initial

    def segments(self) -> Iterable[Tuple[object, object, float]]:
        """Yield (start, end, value) covering [0, T] in the stored unit; the
        last may be empty."""
        start = 0
        val = self.initial
        for e, v in zip(self.epochs, self.values):
            yield start, e, val
            start, val = e, v
        yield start, self.T, val

    def all_values(self) -> tuple:
        return (self.initial,) + self.values

    def restrict(self, T) -> "StepPath":
        """The path on [0, T], T in natural units and a whole number of the
        path's time units (ValueError otherwise)."""
        s = _stored(T, self.time_bits, exact=True)
        if s > self.T:
            raise ValueError("cannot extend a path by restriction")
        k = bisect.bisect_right(self.epochs, s)
        return StepPath(T=s, initial=self.initial, epochs=self.epochs[:k],
                        values=self.values[:k], time_bits=self.time_bits)

    def with_exact_times(self) -> "StepPath":
        """The same path with T and epochs as int ticks of 2^-TICK_BITS.

        Floats, ints and dyadic Fractions down to 2^-1074 convert exactly;
        any other time (1/3, say) raises ValueError instead of rounding.
        """
        if self.time_bits:
            return self
        return StepPath(T=_stored(self.T, TICK_BITS, exact=True),
                        initial=self.initial,
                        epochs=tuple(_stored(e, TICK_BITS, exact=True)
                                     for e in self.epochs),
                        values=self.values, time_bits=TICK_BITS)

    def with_float_times(self) -> "StepPath":
        """The same path with float times in natural units; a round trip
        through with_exact_times returns a float path bit for bit."""
        bits = self.time_bits
        return StepPath(T=_float(self.T, bits), initial=self.initial,
                        epochs=tuple(_float(e, bits) for e in self.epochs),
                        values=self.values)


def make_step_path(T, initial, epochs: Sequence, values: Sequence,
                   time_bits: int = 0) -> StepPath:
    """Canonicalising constructor: drops null jumps, keeps order checks."""
    es, vs = [], []
    prev = initial
    for e, v in zip(epochs, values):
        if v != prev:
            es.append(e)
            vs.append(v)
            prev = v
    return StepPath(T=T, initial=initial, epochs=tuple(es), values=tuple(vs),
                    time_bits=time_bits)


@dataclass(frozen=True)
class TimeChange:
    """Additive functional A (piecewise linear, slopes 0/1) and its inverse.

    The knots are in the unit of the path they came from; a and a_inverse
    take and return natural times, exactly.
    """

    knots_t: tuple
    knots_a: tuple
    time_bits: int = 0

    def a(self, t):
        bits = self.time_bits
        s = _stored(t, bits)
        k = bisect.bisect_right(self.knots_t, s) - 1
        k = min(max(k, 0), len(self.knots_t) - 2)
        t0, t1 = self.knots_t[k], self.knots_t[k + 1]
        a0, a1 = self.knots_a[k], self.knots_a[k + 1]
        if s >= t1:
            return _natural(a1, bits)
        slope = 0 if a1 == a0 else 1
        return _natural(a0 + slope * (s - t0), bits)

    def a_inverse(self, u):
        """Right-continuous inverse inf{s : A(s) > u}."""
        bits = self.time_bits
        v = _stored(u, bits)
        if v >= self.knots_a[-1]:
            return _natural(self.knots_t[-1], bits)
        k = bisect.bisect_right(self.knots_a, v)
        # knots_a[k-1] <= v < knots_a[k]; the block (t_{k-1}, t_k) has slope 1
        # iff its A increases, otherwise move to the next increasing block.
        t0, a0 = self.knots_t[k - 1], self.knots_a[k - 1]
        if self.knots_a[k] > a0:
            return _natural(t0 + (v - a0), bits)
        return _natural(self.knots_t[k], bits)


# -- killing --------------------------------------------------------------

def _kill(p: StepPath, barrier: float, hit) -> StepPath:
    """Absorb at the barrier from the first value v with hit(v, barrier)."""
    if hit(p.initial, barrier):
        return StepPath(T=p.T, initial=barrier, time_bits=p.time_bits)
    for k, v in enumerate(p.values):
        if hit(v, barrier):
            return make_step_path(p.T, p.initial, p.epochs[: k + 1],
                                  p.values[:k] + (barrier,), p.time_bits)
    return p


def kill_left(p: StepPath, barrier: float = -1.0) -> StepPath:
    """Absorb at the barrier from the first time the path is <= barrier."""
    return _kill(p, barrier, operator.le)


def kill_right(p: StepPath, barrier: float = 1.0) -> StepPath:
    """Absorb at the barrier from the first time the path is >= barrier."""
    return _kill(p, barrier, operator.ge)


# -- reflection -----------------------------------------------------------

def _reflect(p: StepPath, barrier: float, sign: float, with_pushing: bool):
    """Minimal-pushing map keeping sign * (path - barrier) >= 0.

    The push is the running maximum of sign * (barrier - v), floored at 0,
    and moves each value by sign * push.  One kernel serves both sides
    exactly: IEEE subtraction is sign-symmetric, so sign * (barrier - v) and
    v + sign * push round as the mirrored expressions would.
    """
    push = 0.0
    out_vals, push_vals = [], []
    for v in p.values:
        push = max(push, sign * (barrier - v))
        out_vals.append(v + sign * push)
        push_vals.append(push)
    out = make_step_path(p.T, p.initial, p.epochs, out_vals, p.time_bits)
    if not with_pushing:
        return out
    eta = make_step_path(p.T, 0.0, p.epochs, push_vals, p.time_bits)
    return out, eta


def reflect_left(p: StepPath, a: float, with_pushing: bool = False):
    """Minimal-pushing map keeping the path >= a.

    output(t) = p(t) - min(0, inf_{s<=t}(p(s) - a)); the pushing functional
    is nondecreasing and flat while the output sits strictly above a.
    """
    if p.initial < a:
        raise BarrierError(f"path starts below the barrier {a}")
    return _reflect(p, a, 1.0, with_pushing)


def reflect_right(p: StepPath, b: float, with_pushing: bool = False):
    """Mirror map keeping the path <= b."""
    if p.initial > b:
        raise BarrierError(f"path starts above the barrier {b}")
    return _reflect(p, b, -1.0, with_pushing)


def reflect_two_sided(p: StepPath, a: float, b: float,
                      with_pushing: bool = False):
    """Two-sided minimal-pushing map into [a, b].

    Increment recursion: each original jump is applied to the current
    confined position and the overshoot is absorbed by the matching pushing
    functional; both functionals are minimal and never active together.
    """
    if not a < b:
        raise BarrierError("need a < b")
    if not a <= p.initial <= b:
        raise BarrierError(f"path starts outside [{a}, {b}]")
    eta_a = eta_b = 0.0
    out_vals, pa_vals, pb_vals = [], [], []
    for v in p.values:
        pos = v + eta_a - eta_b    # anchored to the raw value, no drift
        if pos < a:
            eta_a += a - pos
            pos = a
        elif pos > b:
            eta_b += pos - b
            pos = b
        out_vals.append(pos)
        pa_vals.append(eta_a)
        pb_vals.append(eta_b)
    out = make_step_path(p.T, p.initial, p.epochs, out_vals, p.time_bits)
    if not with_pushing:
        return out
    eta_a_path = make_step_path(p.T, 0.0, p.epochs, pa_vals, p.time_bits)
    eta_b_path = make_step_path(p.T, 0.0, p.epochs, pb_vals, p.time_bits)
    return out, eta_a_path, eta_b_path


# -- fast-forwarding -------------------------------------------------------

def above(a: float):
    return ("above", a)


def below(b: float):
    return ("below", b)


def between(a: float, b: float):
    return ("between", a, b)


def _region_pred(region):
    kind = region[0]
    if kind == "above":
        a = region[1]
        return lambda v: v > a
    if kind == "below":
        b = region[1]
        return lambda v: v < b
    if kind == "between":
        a, b = region[1], region[2]
        return lambda v: a < v < b
    raise ValueError(f"unknown region {region!r}")


def fast_forward(p: StepPath, region, with_time_change: bool = False):
    """Delete the time blocks outside the region and splice the rest.

    The output horizon is the Lebesgue time spent in the region (strict
    inequalities; time at the barrier itself is deleted).  Raises
    EmptyRegionError if that time is zero.
    """
    pred = _region_pred(region)
    zero = p.T - p.T          # additive zero of the epoch type
    acc = zero
    out_initial = None
    out_epochs, out_values = [], []
    knots_t, knots_a = [zero], [zero]
    for s, e, v in p.segments():
        if e <= s:
            continue
        keep = pred(v)
        if keep:
            if out_initial is None:
                out_initial = v
            else:
                last = out_values[-1] if out_values else out_initial
                if v != last:
                    out_epochs.append(acc)
                    out_values.append(v)
            acc = acc + (e - s)
        knots_t.append(e)
        knots_a.append(acc)
    if out_initial is None:
        raise EmptyRegionError("the path never enters the region")
    out = StepPath(T=acc, initial=out_initial, epochs=tuple(out_epochs),
                   values=tuple(out_values), time_bits=p.time_bits)
    if not with_time_change:
        return out
    return out, TimeChange(knots_t=tuple(knots_t), knots_a=tuple(knots_a),
                           time_bits=p.time_bits)


# -- boundary-pair composition ----------------------------------------------

def apply_boundary(p: StepPath, bc: BoundaryPair, h: float) -> StepPath:
    """Compose the killing/reflecting/fast-forwarding maps for one pair.

    The discrete reflection barrier sits one cell inside the interval, at
    h - 1, while killing and fast-forwarding use the interval ends.
    """
    label = bc.label
    if label == "DD":
        return kill_right(kill_left(p))
    if label == "DN":
        return kill_left(fast_forward(p, below(1.0)))
    if label == "ND":
        return kill_right(fast_forward(p, above(-1.0)))
    if label == "NN":
        return fast_forward(p, between(-1.0, 1.0))
    if label == "N*D":
        return kill_right(reflect_left(p, h - 1.0))
    if label == "N*N":
        return fast_forward(reflect_left(p, h - 1.0), below(1.0))
    raise ValueError(f"unknown boundary label {label}")


# -- simulation -------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Common Monte Carlo knobs; tail_eps caps the lumped jump-tail mass.

    The horizon must be finite (a NaN or infinite T would never end a
    simulated path) and so must the start x0.
    """

    seed: int
    paths: int
    x0: float
    T: float
    tail_eps: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tail_eps <= 1e-3:
            raise ValueError("tail_eps must lie in (0, 1e-3]")
        if not 0.0 < self.T < math.inf or self.paths < 1:
            raise ValueError("need 0 < T < inf and paths >= 1")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")


def rng_for_path(seed: int, k: int) -> np.random.Generator:
    """Counter-based stream for path k; identical for any worker layout."""
    return np.random.Generator(np.random.Philox(
        key=np.random.SeedSequence([seed, k]).generate_state(2, np.uint64)))


def jump_table(c: GrunwaldCoeffs, tail_eps: float):
    """Displacement values (in cells) and cumulative probabilities.

    Displacement -1 carries weight G_0, displacement j-1 >= 1 weight G_j.
    Mass beyond j_max is lumped into the last bucket and must stay below
    tail_eps.  The cumulative table ends at exactly 1, so every draw u < 1
    indexes a displacement.
    """
    rate = c.total_rate
    tail_mass = float(c.tail[c.j_max + 1]) / rate
    if tail_mass > tail_eps:
        raise TailEpsUnreachableError(
            f"lumped tail mass {tail_mass:g} exceeds tail_eps={tail_eps:g}; "
            "increase j_max")
    disp = np.concatenate(([-1], np.arange(1, c.j_max)))
    probs = np.concatenate((c.g[:1], c.g[2:])) / rate
    probs[-1] += max(tail_mass, 0.0)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return disp.astype(np.int64), cum


def _lattice_params(x0: float, h: float):
    """Return (m, k0) when x0 sits on the grid -1 + k*h with h = 2/m."""
    m = 2.0 / h
    k0 = (x0 + 1.0) / h
    mi, ki = round(m), round(k0)
    if abs(m - mi) < 1e-9 and abs(k0 - ki) < 1e-9 * max(1.0, abs(k0)):
        return mi, ki
    return None, None


def _grid_value(k: int, m: int) -> float:
    # one rounding only, exact at the interval ends
    return (2.0 * k - m) / m


def simulate_cp(c: GrunwaldCoeffs, cfg: SimConfig, path_index: int = 0) -> StepPath:
    """One free compound-Poisson grid path on [0, T].

    Exponential holding times with rate -G_1; displacements drawn from
    jump_table.  Values are emitted through a single-division lattice formula
    so barrier hits are exact floats.
    """
    rng = rng_for_path(cfg.seed, path_index)
    disp, cum = jump_table(c, cfg.tail_eps)
    rate = c.total_rate
    m, k0 = _lattice_params(cfg.x0, c.h)
    epochs, values = [], []
    t = 0.0
    k = 0
    while True:
        t += rng.exponential(1.0 / rate)
        if t > cfg.T:
            break
        k += int(disp[np.searchsorted(cum, rng.random(), side="right")])
        epochs.append(t)
        if m is not None:
            values.append(_grid_value(k0 + k, m))
        else:
            values.append(cfg.x0 + k * c.h)
    return make_step_path(cfg.T, cfg.x0, epochs, values)


# -- path distance -------------------------------------------------------------

def j1_distance(p: StepPath, q: StepPath, T: Optional[float] = None):
    """Exact Skorokhod J1 distance between p and q on [0, T], as (d, d).

    d is the infimum over increasing homeomorphisms lam of [0, T] of
    max(sup|lam - id|, sup|p o lam - q|).  A time change matters only through
    where it sends each jump of p among the jumps of q: onto one of them (time
    cost = epoch gap) or inside a q segment (time cost = distance of the epoch
    from the closed segment); the q jumps themselves cost no time.  Each
    such merge fixes the value gaps, so d is the bottleneck (min-max) over
    monotone merges, found by a dynamic program over (jumps of p, jumps of q)
    in O(mn).

    Since lam(T) = T, a jump at the horizon can only match a jump at T or sit
    in the other path's last segment at no time cost, and no earlier jump can
    land at T.  The program therefore runs on the jumps before T and the
    result is the larger of its value and |p(T) - q(T)|.  Whether a jump lies
    at T is decided in the path's own time unit (float, Fraction or int
    ticks), before any conversion to float.  T is a natural time and
    defaults to the shorter horizon.

    Both entries of the pair are the exact distance.  The pair shape of the
    former (upper, lower) bracket is kept because ``perfbench`` unpacks it.
    """
    if T is None:
        T = min(p.horizon, q.horizon)
    pr, qr = p.restrict(T), q.restrict(T)
    d = max(_j1_bottleneck(_before_horizon(pr), _before_horizon(qr)),
            abs(float(pr.all_values()[-1]) - float(qr.all_values()[-1])))
    return d, d


def _before_horizon(p: StepPath) -> StepPath:
    """p without a jump at its horizon, if it has one."""
    k = bisect.bisect_left(p.epochs, p.T)
    return StepPath(T=p.T, initial=p.initial, epochs=p.epochs[:k],
                    values=p.values[:k], time_bits=p.time_bits)


def _j1_bottleneck(p: StepPath, q: StepPath) -> float:
    """Min-max cost over monotone merges of the jumps, none of them at T."""
    pv = [float(v) for v in p.all_values()]
    qv = [float(v) for v in q.all_values()]
    ps = [_float(e, p.time_bits) for e in p.epochs]
    qs = [_float(e, q.time_bits) for e in q.epochs]
    m, n = len(ps), len(qs)
    big = math.inf
    D = [[big] * (n + 1) for _ in range(m + 1)]
    D[0][0] = abs(pv[0] - qv[0])
    qgrid = [0.0] + qs + [_float(q.T, q.time_bits)]
    for i in range(m + 1):
        for j in range(n + 1):
            d = D[i][j]
            if d == big:
                continue
            # p jump i+1 placed inside q segment j: time cost = distance of
            # s_{i+1} from [t_j, t_{j+1}]
            if i < m:
                tc = max(0.0, qgrid[j] - ps[i], ps[i] - qgrid[j + 1])
                cost = max(d, tc, abs(pv[i + 1] - qv[j]))
                if cost < D[i + 1][j]:
                    D[i + 1][j] = cost
            # q jump j+1 inside the current p segment: free in time
            if j < n:
                cost = max(d, abs(pv[i] - qv[j + 1]))
                if cost < D[i][j + 1]:
                    D[i][j + 1] = cost
            # match the two jumps
            if i < m and j < n:
                cost = max(d, abs(ps[i] - qs[j]), abs(pv[i + 1] - qv[j + 1]))
                if cost < D[i + 1][j + 1]:
                    D[i + 1][j + 1] = cost
    return D[m][n]
