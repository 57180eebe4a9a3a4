"""Boundary-modified transition rate matrices on the grid -1 + i*h.

The restricted chain lives on states x_i = -1 + i*h, i = 0..n+1, h = 2/(n+1),
with absorbing end states.  The free walk goes from level i to level j at
rate G_{j-i+1}, never more than one cell down.  Every generator here is that
Toeplitz band, copied from one read-only strided view, plus boundary entries:
row 1 and the right columns follow the boundary pair (kill D, fast-forward N,
reflect N*), and under ND the corner Q[1, n+1] collects the re-entries killed
beyond the right end, a finite sum for every symbol (see build_restricted).
The module also provides the half-line matrix of the chain stopped on its
first visit to the upper lattice, resolvent solves against its transpose, the
walk's first-entry law above level 0 (from the lattice scale function W of the
skip-free walk: one triangular recursion and one convolution, O(m) memory, no
matrix), which is also the vanishing-discount limit of beta times those
resolvents, matrix semigroups, stationary vectors and mean absorption times.
Every system is upper Hessenberg: one O(n^2) Gaussian elimination, which
pivots between adjacent rows, factors it in place, and a transpose is solved
through trans=1 on the same factor.  An entry below the subdiagonal, a zero
pivot or a non-finite solution raises a named error.

A semigroup row e_{i0} exp(tQ) comes from shift-and-invert Arnoldi on
(I - gamma Q^T)^{-1}, gamma proportional to t, started from e_{i0}.  One
factorisation of I - gamma Q serves every step, and a few dozen steps reach
the rounding floor even at n = 999.  An a posteriori error estimate stops
the iteration; the row is then clipped to be nonnegative and divided by its
sum, and a correction larger than the estimate raises NonConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dtrtrs

from .errors import (GridMismatchError, NonConvergenceError, NonUniqueError,
                     NotHessenbergError, SingularSystemError)
from .grunwald import GrunwaldCoeffs
from .symbol import LaplaceExponent

ROW_SUM_RTOL = 1e-10
OFFDIAG_SLACK = 1e-12
KRYLOV_MAX_DIM = 200         # most Arnoldi steps of one semigroup row
SHIFT_RATIO = 20.0           # the shift is gamma = t / SHIFT_RATIO
ROUNDING_FACTOR = 8.0        # eps (size + lam t) multiples charged to rounding
_EPS = float(np.finfo(float).eps)

_LEFT = ("D", "N", "Nstar")
_RIGHT = ("D", "N")
_LABELS = {"DD": ("D", "D"), "DN": ("D", "N"), "ND": ("N", "D"),
           "NN": ("N", "N"), "N*D": ("Nstar", "D"), "N*N": ("Nstar", "N")}


@dataclass(frozen=True)
class BoundaryPair:
    left: str
    right: str

    def __post_init__(self):
        if self.left not in _LEFT or self.right not in _RIGHT:
            raise ValueError(f"no boundary pair ({self.left}, {self.right})")

    @property
    def label(self) -> str:
        l = "N*" if self.left == "Nstar" else self.left
        return l + self.right

    @classmethod
    def from_label(cls, label: str) -> "BoundaryPair":
        try:
            return cls(*_LABELS[label])
        except KeyError:
            raise ValueError(f"unknown boundary label {label!r}") from None


ALL_PAIRS = tuple(BoundaryPair.from_label(s) for s in _LABELS)


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Dense generator with grid metadata.

    For restricted matrices the states are 0..n+1 over [-1, 1].  For stopped
    matrices the states are lattice levels index_lo..index_hi and bc is the
    string "stopped-truncated".
    """

    Q: np.ndarray
    h: float
    bc: object
    n: Optional[int] = None
    grid: Optional[np.ndarray] = None
    index_lo: int = 0
    coeffs: Optional[GrunwaldCoeffs] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.Q.shape[0]

    def state_index(self, level: int) -> int:
        """Row/column of a lattice level (stopped matrices)."""
        return level - self.index_lo


def _free_rows(g: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Read-only view V[r, c] = G_{c-r+1}, 0 for c < r - 1, of the free
    walk's rows 0..rows-1 over columns 0..cols-1 (needs len(g) > cols)."""
    padded = np.concatenate((np.zeros(rows - 1), g[: cols + 1]))
    return np.lib.stride_tricks.sliding_window_view(padded, cols)[:0:-1]


def _stopped_span(c: GrunwaldCoeffs, m_below: int, k_above: int) -> int:
    """Number of levels -m_below..k_above, checked against the weights."""
    size = m_below + k_above + 1
    if m_below < 1 or k_above < 1 or c.j_max < size:
        raise ValueError(f"need m_below, k_above >= 1 and j_max >= {size}, "
                         f"got {m_below}, {k_above} and {c.j_max}")
    return size


def build_restricted(c: GrunwaldCoeffs, n: int, bc: BoundaryPair) -> RateMatrix:
    """Assemble the (n+2)-state generator for one boundary pair.

    Row 1 uses the left-boundary weights, column n and the last column use
    the right-boundary weights; rows 0 and n+1 are absorbing.  Requires
    c.h = 2/(n+1) and j_max >= n + 2.

    The ND corner Q[1, n+1] = sum_{j>n} T_j is evaluated through the exact
    identity sum_{j>n} T_j = sum_{k<n} (n-k) G_k = -(T_1 + ... + T_n).  It
    rests on psi(0) = 0 (sum_k G_k = 0) and psi'(0) = 0 (sum_k k G_k = 0),
    so no series remainder is estimated and j_max >= n + 2 suffices.
    """
    if n < 3:
        raise ValueError(f"need at least 3 interior points, got n={n}")
    h = 2.0 / (n + 1)
    if abs(c.h - h) > 1e-12 * h:
        raise GridMismatchError(f"coeffs mesh {c.h:g} != 2/(n+1) = {h:g}")
    if c.j_max < n + 2:
        raise ValueError(f"j_max={c.j_max} too small for n={n}")

    g = c.g
    T = c.tail
    if bc.left == "D":
        d_l0 = g[0]
        b_l = g[1: n + 1].copy()            # b_l[i-1] = weight into column i
    elif bc.left == "N":
        d_l0 = 0.0
        b_l = T[1: n + 1].copy()
    else:  # Nstar
        d_l0 = 0.0
        b_l = g[1: n + 1].copy()
        b_l[0] = g[0] + g[1]

    Q = np.zeros((n + 2, n + 2))
    Q[2: n + 1, : n + 1] = _free_rows(g, n + 1, n + 1)[2:]
    if bc.right == "D":
        Q[2: n + 1, n + 1] = T[n: 1: -1]
    else:
        Q[2: n + 1, n] = T[n - 1: 0: -1]

    Q[1, 0] = d_l0
    Q[1, 1: n] = b_l[: n - 1]
    if bc.right == "D":
        Q[1, n] = b_l[n - 1]
        if bc.left == "N":
            Q[1, n + 1] = -float(np.sum(T[1: n + 1]))
        else:
            Q[1, n + 1] = T[n + 1]
    else:
        Q[1, n] = -(d_l0 + float(np.sum(b_l[: n - 1])))

    # single-division node formula: exact +-1.0 at the end states
    grid = (2.0 * np.arange(n + 2) - (n + 1)) / (n + 1)
    return RateMatrix(Q=Q, h=h, bc=bc, n=n, grid=grid, coeffs=c)


def build_stopped(c: GrunwaldCoeffs, m_below: int, k_above: int) -> RateMatrix:
    """Generator of the chain stopped on first visit to levels >= 1.

    States are lattice levels -m_below..k_above; rows at levels > 0 vanish,
    rows at levels <= 0 carry G_{j-i+1}.  Entries that would reference levels
    below -m_below are dropped (zero-padding truncation).
    """
    size = _stopped_span(c, m_below, k_above)
    Q = np.zeros((size, size))
    Q[: m_below + 1] = _free_rows(c.g, m_below + 1, size)
    return RateMatrix(Q=Q, h=c.h, bc="stopped-truncated", index_lo=-m_below,
                      coeffs=c)


def _factor(A: np.ndarray, scale: float = 1.0, shift: float = 0.0,
            error: type = SingularSystemError):
    """Factor M = scale*A + shift*I for an upper Hessenberg A in O(n^2);
    return solve(rhs, trans=0), which solves M x = rhs (M^T x = rhs for
    trans=1).

    Gaussian elimination with partial pivoting: at step k only rows k and
    k+1 hold column k, so the pivot compares two entries, a swap exchanges
    two adjacent rows and one row update (a BLAS axpy) clears the column.
    P M = L U overwrites a C-ordered copy of M (unit L below the diagonal),
    and the swaps are composed into one permutation, so a solve is one
    gather and two LAPACK triangular solves on the factor in place.  A
    nonzero entry below the first subdiagonal raises NotHessenbergError; a
    zero pivot or a non-finite solution raises error."""
    M = np.multiply(A, scale, order="C")
    n = M.shape[0]
    M.flat[:: n + 1] += shift
    perm = list(range(n))
    for k in range(n - 1):
        top, low = M[k], M[k + 1]
        if np.count_nonzero(low[:k]):
            raise NotHessenbergError(
                f"row {k + 1} of a {n}-state system has an entry below its "
                f"subdiagonal")
        pivot, below = top.item(k), low.item(k)
        if abs(below) > abs(pivot):
            M[[k, k + 1]] = M[[k + 1, k]]
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
            pivot, below = below, pivot
        if pivot == 0.0:
            raise error(f"singular {n}-state system (zero pivot)")
        low[k] = mult = below / pivot
        # low[k+1:] -= mult * top[k+1:]
        daxpy(top, low, n - k - 1, -mult, k + 1, 1, k + 1, 1)
    if M.item(n - 1, n - 1) == 0.0:
        raise error(f"singular {n}-state system (zero pivot)")
    perm = np.array(perm)
    F = M.T                                  # Fortran view, for LAPACK

    def solve(rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        # F's lower triangle is U^T, its strict upper triangle L^T
        if trans:
            z = dtrtrs(F, rhs, lower=1, trans=0)[0]                # U^T z = b
            x = np.empty_like(z)
            x[perm] = dtrtrs(F, z, lower=0, trans=0, unitdiag=1,
                             overwrite_b=1)[0]                     # L^T Px = z
        else:
            y = dtrtrs(F, rhs[perm], lower=0, trans=1, unitdiag=1)[0]  # L y = Pb
            x = dtrtrs(F, y, lower=1, trans=1, overwrite_b=1)[0]        # U x = y
        if not np.all(np.isfinite(x)):
            raise error("linear solve produced non-finite entries")
        return x

    return solve


def resolvent_transpose_e(Q: RateMatrix, beta: float, i0: int) -> np.ndarray:
    """Solve (beta*I - Q^T) x = e_{i0}; i0 is a matrix row index."""
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    size = Q.size
    if not 0 <= i0 < size:
        raise IndexError(f"i0={i0} outside 0..{size - 1}")
    rhs = np.zeros(size)
    rhs[i0] = 1.0
    return _factor(Q.Q, -1.0, beta)(rhs, trans=1)


def stopped_resolvent_profile(exp: LaplaceExponent, c: GrunwaldCoeffs,
                              beta: float, index_lo: int, index_hi: int) -> np.ndarray:
    """Analytic resolvent of the transposed stopped generator at e_0.

    Entry at level m is exp(h*(m-1)*b)/G_0 for m <= 0 and, above the stopping
    line, (1/(beta*G_0)) sum_{k>=m} G_{k+1} exp(h*(m-1-k)*b), where b solves
    varphi(b) = beta.  Series are summed until terms fall below 1e-18 of the
    head.
    """
    b = exp.varphi_inverse(c.h, beta)
    h = c.h
    g0 = c.g[0]
    out = np.empty(index_hi - index_lo + 1)
    decay = math.exp(-h * b)
    for m in range(index_lo, min(0, index_hi) + 1):
        out[m - index_lo] = math.exp(h * (m - 1) * b) / g0
    for m in range(max(1, index_lo), index_hi + 1):
        acc = 0.0
        w = math.exp(h * (m - 1 - m) * b)    # k = m term weight
        k = m
        while k <= c.j_max - 1:
            term = c.g[k + 1] * w
            acc += term
            if abs(term) < 1e-18 * max(abs(acc), 1e-300) and k > m + 8:
                break
            w *= decay
            k += 1
        out[m - index_lo] = acc / (beta * g0)
    return out


def ergodic_limit_z(Q_stopped: RateMatrix, beta_sequence: Sequence[float]):
    """Vanishing-discount limit of beta * resolvent at the stopping source.

    The limit is the absorption law of the stopped chain started at level 0:
    0 on the transient levels index_lo..0, above them the law of _first_entry
    from the lattice scale function W of the matrix's weights (no solve).
    The betas serve only for raw, the smallest beta times its resolvent,
    which is O(beta) away from the limit.  Returns (limit, raw).
    """
    if Q_stopped.bc != "stopped-truncated" or Q_stopped.coeffs is None:
        raise ValueError("the absorption law needs a stopped matrix and its "
                         "weights")
    beta = min(beta_sequence)
    if beta <= 0.0:
        raise ValueError("betas must be positive")
    row = Q_stopped.state_index(0)
    limit = np.zeros(Q_stopped.size)
    limit[row + 1:] = _first_entry(Q_stopped.coeffs, row,
                                   Q_stopped.size - row - 1)
    return limit, beta * resolvent_transpose_e(Q_stopped, beta, row)


def _lattice_scale(g: np.ndarray, count: int) -> np.ndarray:
    """W(1..count), the q = 0 lattice scale function of the free walk.

    The walk moves down by at most one cell, so W(s) = 0 for s <= 0,
    W(1) = 1/G_0 and sum_{k>=0} G_k W(s+1-k) = 0 for s >= 1: one
    triangular recursion over the weights, O(count) memory and no matrix
    (Mijatovic, Vidmar & Jacka, SPA 2015; Avram & Vidmar, AAP 2019).  The
    chain's Green functions and exit laws are written in W: the DD interior
    block A has (-A)^{-1}[i, j] = W(s) W(n+1-y)/W(n+1) - W(s-y) in the
    mirrored indices s = n+1-i, y = n+1-j.  Needs len(g) >= count."""
    w = np.empty(count)
    w[0] = 1.0 / g[0]
    rev = g[count - 1: 0: -1].copy()         # rev[i] = G_{count-1-i}
    for s in range(1, count):
        w[s] = -(rev[count - 1 - s:] @ w[:s]) / g[0]
    return w


def _first_entry(c: GrunwaldCoeffs, m_below: int, k_above: int) -> np.ndarray:
    """Law over levels 1..k_above where the walk from level 0, truncated
    below -m_below, first enters levels >= 1; the mass landing beyond k_above
    or leaking below -m_below is missing.  Numbering levels -m_below..0 as
    r = 0..m_below, the Green row from level 0 is W(r+1) / (G_0 W(m_below+2))
    (_lattice_scale's recursion at s = m_below + 1 is the balance of the last
    column), and z_k = sum_r green_r G_{m_below+k+1-r} is one convolution:
    O(m_below + k_above) memory, no stopped generator and no dense solve."""
    size = _stopped_span(c, m_below, k_above)
    w = _lattice_scale(c.g, m_below + 2)
    green = w[:-1] / (c.g[0] * w[-1])
    return np.convolve(c.g[2: size + 1], green, mode="valid")


def landing_law(c: GrunwaldCoeffs, m_below: int, j_cap: int) -> np.ndarray:
    """First-entry law into levels >= 1 for the free walk started at level 0.

    _first_entry's law over levels 1..j_cap (z[0] = 0); the mass beyond j_cap
    and the truncation leak, O(1/m_below^(alpha-1)), go to z[j_cap].
    """
    z = np.zeros(j_cap + 1)
    z[1:] = _first_entry(c, m_below, j_cap)
    total = z.sum()
    if not 0.5 < total <= 1.0 + 1e-9:
        raise SingularSystemError(f"landing law mass {total:g} implausible")
    # Mass beyond j_cap (plus the small truncation leak) lands "deep"; lump it
    # into the last bucket rather than inflating the head by renormalising.
    z[j_cap] += max(0.0, 1.0 - total)
    return z


@dataclass(frozen=True)
class KrylovDiag:
    """Work and accuracy of one semigroup row: the Krylov dimension m, the
    shift gamma, the estimated 1-norm error of the Krylov row, and the sizes
    of the two projections (the negative mass clipped and |sum - 1| divided
    out)."""

    krylov_dim: int
    gamma: float
    error_estimate: float
    clip: float
    mass_correction: float


def semigroup_row_diag(Q: RateMatrix, t: float, i0: int):
    """Row i0 of exp(tQ) by shift-and-invert Arnoldi, with its KrylovDiag.

    The row is exp(tA) e_{i0} for A = Q^T.  Arnoldi runs on
    Z = (I - gamma A)^{-1}, gamma = t / SHIFT_RATIO, from e_{i0}; with
    Z V_m ~ V_m H_m, the row is V_m expm(SHIFT_RATIO (I - H_m^{-1})) e_1.
    I - gamma Q is factored once; each step is one solve against its
    transpose and two passes of classical Gram-Schmidt.  Every second step
    the change of the row in the 1-norm estimates the error of the previous
    iterate, and the iteration stops once it falls below the rounding floor
    ROUNDING_FACTOR eps (size + lam t) + t max_i |sum_j Q_ij|, lam the
    largest holding rate: the conditioning of exp(tQ) and the row-sum defect
    of Q.  The estimate reported is that change plus the floor.  A happy
    breakdown (an invariant subspace, at the latest m = size) is exact.

    The true row is nonnegative and sums to 1, so negative entries are
    clipped and the row is divided by its sum.  Both corrections are bounded
    by the 1-norm error; NonConvergenceError is raised when either exceeds
    the estimate, or when KRYLOV_MAX_DIM steps do not converge.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    size = Q.size
    if not 0 <= i0 < size:
        raise IndexError(f"i0={i0} outside 0..{size - 1}")
    v = np.zeros(size)
    v[i0] = 1.0
    if t == 0.0:
        return v, KrylovDiag(0, 0.0, 0.0, 0.0, 0.0)
    gamma = t / SHIFT_RATIO
    lam = float(np.max(-np.diag(Q.Q)))
    floor = (ROUNDING_FACTOR * _EPS * (size + lam * t)
             + t * float(np.max(np.abs(Q.Q.sum(axis=1)))))
    solve = _factor(Q.Q, -gamma, 1.0)        # I - gamma Q
    V = np.zeros((KRYLOV_MAX_DIM + 1, size))
    V[0] = v
    H = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM))
    row, change = None, math.inf
    for j in range(KRYLOV_MAX_DIM):
        w = solve(V[j], trans=1)
        w_norm = np.linalg.norm(w)
        for _ in range(2):
            c = V[: j + 1] @ w
            w -= c @ V[: j + 1]
            H[: j + 1, j] += c
        H[j + 1, j] = h = np.linalg.norm(w)
        m = j + 1
        breakdown = h <= _EPS * w_norm or m == size
        if not breakdown:
            V[m] = w / h
            if m % 2:
                continue
        Hm = H[:m, :m]
        D = Hm.copy()
        D.flat[:: m + 1] -= 1.0              # H_m - I
        with np.errstate(over="ignore", invalid="ignore"):
            # far past the slowest decay a Ritz value of Z can fall off its
            # spectrum and overflow the small exponential: such an iterate
            # is never accepted
            u = scipy.linalg.expm(SHIFT_RATIO * _factor(Hm)(D))[:, 0]
            new = u @ V[:m]
            if row is not None:
                change = float(np.sum(np.abs(new - row)))
        if not np.all(np.isfinite(new)):
            if breakdown:
                raise NonConvergenceError(
                    f"semigroup row t={t:g}: non-finite Krylov row at m={m}")
            continue
        row = new
        if breakdown:
            change = 0.0
            break
        if change <= floor:
            break
    else:
        raise NonConvergenceError(
            f"semigroup row t={t:g}: Krylov change {change:.2e} above "
            f"{floor:.2e} after {KRYLOV_MAX_DIM} steps")
    estimate = change + floor
    clip = -float(np.sum(row[row < 0.0]))
    row = np.maximum(row, 0.0)
    mass = float(row.sum())
    row /= mass
    diag = KrylovDiag(m, gamma, estimate, clip, abs(mass - 1.0))
    if max(diag.clip, diag.mass_correction) > estimate:
        raise NonConvergenceError(
            f"semigroup row t={t:g}: projection {diag} exceeds the estimate")
    return row, diag


def semigroup_row(Q: RateMatrix, t: float, i0: int) -> np.ndarray:
    """Row i0 of exp(tQ) (see :func:`semigroup_row_diag`)."""
    return semigroup_row_diag(Q, t, i0)[0]


def stationary_interior(Q: RateMatrix) -> np.ndarray:
    """Left null vector of the interior block, normalised to a probability."""
    if not (isinstance(Q.bc, BoundaryPair) and Q.bc.label == "NN"):
        raise ValueError("stationary vector is defined for the NN pair only")
    n = Q.n
    A = Q.Q[1: n + 1, 1: n + 1].copy()
    A[:, -1] = 1.0                           # sum(pi) = 1 replaces one equation
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = _factor(A, error=NonUniqueError)(rhs, trans=1)
    if np.any(pi < -1e-10):
        raise NonUniqueError("interior chain looks reducible")
    return pi / pi.sum()


def mean_absorption(Q: RateMatrix, from_index: int) -> float:
    """Expected absorption time of the interior chain started at a grid index."""
    if not (isinstance(Q.bc, BoundaryPair) and "D" in (Q.bc.left, Q.bc.right)):
        raise ValueError("mean absorption needs at least one killing boundary")
    n = Q.n
    if not 1 <= from_index <= n:
        raise IndexError(f"from_index={from_index} is not interior")
    m = _factor(Q.Q[1: n + 1, 1: n + 1])(-np.ones(n))
    return float(m[from_index - 1])


def validity_report(Q: RateMatrix) -> dict:
    """Row sums, sign pattern and boundary holding rates, as check -> result."""
    c = Q.coeffs
    scale = abs(c.g[1])
    rows = Q.Q.sum(axis=1)
    report = {
        "max_abs_row_sum": float(np.max(np.abs(rows))),
        "row_sum_tol": ROW_SUM_RTOL * scale,
        "row_sums_ok": bool(np.max(np.abs(rows)) <= ROW_SUM_RTOL * scale),
    }
    off = Q.Q - np.diag(np.diag(Q.Q))
    report["min_offdiag"] = float(off.min())
    report["offdiag_ok"] = bool(off.min() >= -OFFDIAG_SLACK * scale)
    report["diag_ok"] = bool(np.max(np.diag(Q.Q)) <= 0.0)
    if isinstance(Q.bc, BoundaryPair) and Q.n is not None:
        n = Q.n
        expected_left = {"D": c.g[1], "N": -c.g[0], "Nstar": c.g[0] + c.g[1]}
        expected_right = {"D": c.g[1], "N": -c.g[0]}
        report["left_holding"] = float(Q.Q[1, 1])
        report["left_holding_expected"] = float(expected_left[Q.bc.left])
        report["right_holding"] = float(Q.Q[n, n])
        report["right_holding_expected"] = float(expected_right[Q.bc.right])
        report["holding_ok"] = bool(
            Q.Q[1, 1] == expected_left[Q.bc.left]
            and Q.Q[n, n] == expected_right[Q.bc.right])
        report["absorbing_rows_ok"] = bool(
            not Q.Q[0].any() and not Q.Q[n + 1].any())
    return report
