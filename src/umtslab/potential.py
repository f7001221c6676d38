"""Minimal potential functions for sensibility audits.

Two constructions. For a stable rule on two points the per-step inequality
pins the potential's derivative between two analytic rate curves; the least
non-negative solution is evaluated exactly from antiderivatives and their
critical points (the band construction). For larger spaces a value
iteration over gridded work-function differences computes the least
potential consistent with all grid-step continuations; divergence of that
iteration is itself a meaningful signal (the declared ratio is too small).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from umtslab.rootfind import brentq
from umtslab.tolerances import EPS_EQ

VI_TOL = 1e-7
VI_MAX_SWEEPS = 4000
MAX_GRID_STATES = 400_000
# grid states per probabilities call: a rule's intermediates can grow with
# states * n^2 (odd_exponent's pairwise differences), and rows are independent
PROB_BLOCK_ROWS = 2048
# grid points over [-d, d] on which BandPotential brackets roots and extrema
BAND_SCAN = 2001
# corner terms per block of rows in PotentialEstimate.phi, a row taking 2^n:
# an 80-step b = 8 audit's allocations peak at 0.14 MiB with 2^9, as row by
# row, and at 0.24 and 0.46 MiB with 2^10 and 2^12, which raised a run's
# peak resident memory by about 0.1 MiB; a b = 4 audit's 1001 rows still go
# in 32 calls
PHI_BLOCK_TERMS = 2**9


# ---------------------------------------------------------------------------
# two-point band construction


@dataclass(frozen=True)
class TwoPointRule:
    """Analytic description of a stable rule on a two-point space.

    ``p1`` maps the gap y = w(v1) - w(v2) to the probability at v1,
    ``dp1`` is its derivative and ``P1`` the antiderivative with P1(0) = 0.
    The rule is assumed non-increasing in y.
    """

    d: float
    s: float
    r1: float
    r2: float
    ratio: float
    alpha1: float
    alpha2: float
    p1: Callable[[float], float]
    dp1: Callable[[float], float]
    P1: Callable[[float], float]

    def c_plus(self, y: float) -> float:
        """Cost rate while v1 is charged (y rising)."""
        return self.s * self.d * (-self.dp1(y)) + self.r1 * self.p1(y)

    def c_minus(self, y: float) -> float:
        """Cost rate while v2 is charged (y falling)."""
        return self.s * self.d * (-self.dp1(y)) + self.r2 * (1.0 - self.p1(y))

    def g_plus(self, y: float) -> float:
        return self.ratio * self.alpha1 - self.c_plus(y)

    def g_minus(self, y: float) -> float:
        return self.c_minus(y) - self.ratio * self.alpha2

    def big_g_plus(self, y: float) -> float:
        c = self.s * self.d * (self.p1(0.0) - self.p1(y)) + self.r1 * self.P1(y)
        return self.ratio * self.alpha1 * y - c

    def big_g_minus(self, y: float) -> float:
        c = self.s * self.d * (self.p1(0.0) - self.p1(y)) + self.r2 * (y - self.P1(y))
        return c - self.ratio * self.alpha2 * y


def _sign_change_roots(f, xs) -> list[float]:
    roots = []
    vals = np.array([f(x) for x in xs])
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(xs[i]))
        elif a * b < 0:
            roots.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


class BandPotential:
    """Least non-negative potential for a two-point rule, exact pointwise.

    The derivative must lie in [g_minus, g_plus] wherever the respective
    charge direction is reasonable; obligations propagate forward from the
    antiderivative of g_minus and backward from that of g_plus. ``feasible``
    is False when the band is empty (min gap below -1e-9), which happens
    exactly when the declared ratio cannot be met.

    The floor each side subtracts is the least antiderivative value over
    its active edge, the critical points between that edge and y, and y
    itself. The values at the edge and the critical points are computed
    once, as running minima, so ``phi`` evaluates one antiderivative per
    side.
    """

    def __init__(self, rule: TwoPointRule):
        self.rule = rule
        d = rule.d
        ys = np.linspace(-d, d, BAND_SCAN)
        tol = 1e-12
        # active-region edges: charging v1 needs p1 > 0, charging v2 needs p1 < 1
        self.y_plus = d if rule.p1(d) > tol else _first_root(rule.p1, ys)
        self.y_minus = -d if rule.p1(-d) < 1.0 - tol else _last_root(
            lambda y: rule.p1(y) - 1.0, ys
        )
        gap = lambda y: rule.g_plus(y) - rule.g_minus(y)
        lo, hi = max(self.y_minus, -d), min(self.y_plus, d)
        if lo < hi:
            zs = np.linspace(lo, hi, BAND_SCAN)
            self.min_gap = float(min(gap(z) for z in zs))
        else:
            self.min_gap = 0.0
        self.feasible = self.min_gap >= -1e-9
        self._roots_minus = sorted(_sign_change_roots(rule.g_minus, ys))
        self._roots_plus = sorted(_sign_change_roots(rule.g_plus, ys))
        # from below: the edge y_minus and the roots above it, ascending, with
        # prefix minima of big_g_minus; from above: the roots below y_plus and
        # the edge, ascending, with suffix minima of big_g_plus
        self._knots_minus = [self.y_minus] + [z for z in self._roots_minus if z >= self.y_minus]
        self._floor_minus = list(
            itertools.accumulate(map(rule.big_g_minus, self._knots_minus), min)
        )
        self._knots_plus = [z for z in self._roots_plus if z <= self.y_plus] + [self.y_plus]
        self._floor_plus = list(
            itertools.accumulate(map(rule.big_g_plus, reversed(self._knots_plus)), min)
        )[::-1]

    def _need_from_below(self, y: float) -> float:
        if y < self.y_minus:
            return 0.0
        g = self.rule.big_g_minus(y)
        return g - min(self._floor_minus[bisect.bisect_right(self._knots_minus, y) - 1], g)

    def _need_from_above(self, y: float) -> float:
        if y > self.y_plus:
            return 0.0
        g = self.rule.big_g_plus(y)
        return g - min(self._floor_plus[bisect.bisect_left(self._knots_plus, y)], g)

    def phi(self, y: float) -> float:
        y = min(max(float(y), -self.rule.d), self.rule.d)
        return max(0.0, self._need_from_below(y), self._need_from_above(y))

    def sup(self) -> float:
        ys = np.linspace(-self.rule.d, self.rule.d, BAND_SCAN)
        extra = [self.y_minus, self.y_plus] + self._roots_minus + self._roots_plus
        return max(max(self.phi(y) for y in ys), max(self.phi(y) for y in extra))


def _first_root(f, xs) -> float:
    roots = _sign_change_roots(f, xs)
    return roots[0] if roots else float(xs[-1])


def _last_root(f, xs) -> float:
    roots = _sign_change_roots(f, xs)
    return roots[-1] if roots else float(xs[0])


# ---------------------------------------------------------------------------
# potentials on stacks of work functions


def zero_potential(w):
    """The identically zero potential: 0.0 at one work function, one zero
    per leading index of a stack of shape (..., n)."""
    shape = np.shape(w)[:-1]
    return np.zeros(shape) if shape else 0.0


def by_rows(phi: Callable[[np.ndarray], float]) -> Callable:
    """``phi`` of one work function, extended to stacks of shape (..., n)
    by one call per row."""

    def stacked(w):
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            return phi(w)
        values = [phi(row) for row in w.reshape(-1, w.shape[-1])]
        return np.array(values, dtype=float).reshape(w.shape[:-1])

    return stacked


# ---------------------------------------------------------------------------
# value iteration on gridded work-function differences


def grid_shape(alg, grid_step: float | None = None) -> tuple[int, bool, bool]:
    """The value-iteration grid for ``alg`` on its system.

    Returns the levels across the diameter (set by the grid step, or by
    default 16, 10 or 8 as n is at most 4, at most 6, or larger); whether
    the states are kept sorted, which a symmetric rule allows on a uniform
    space with equal rates; and whether the grid holds at most
    ``MAX_GRID_STATES`` states.
    """
    u = alg.umts
    n, D = u.n, u.diameter()
    if grid_step is None:
        levels = 16 if n <= 4 else 10 if n <= 6 else 8
    else:
        levels = max(2, int(round(D / grid_step)))
    rates = np.asarray(u.rates)
    symmetric = bool(
        alg.symmetric_rule
        and np.abs(u.metric.dist[~np.eye(n, dtype=bool)] - D).max() < EPS_EQ
        and np.abs(rates - rates[0]).max() < EPS_EQ
    )
    return levels, symmetric, vi_state_count(n, levels, symmetric) <= MAX_GRID_STATES


@functools.lru_cache(maxsize=None)
def _corners(n: int) -> np.ndarray:
    """The 2^n corners of the unit cube, in itertools.product order, as booleans."""
    bits = np.arange(n - 1, -1, -1)
    return ((np.arange(2**n)[:, None] >> bits[None, :]) & 1).astype(bool)


class GridIndex:
    """Rows of normalized grid states, found by their codes in radix levels + 1.

    The codes of the enumerated states are sorted once; ``find`` encodes any
    batch of states with entries in [0, levels] and looks them up with
    ``searchsorted``.
    """

    def __init__(self, states: np.ndarray, levels: int):
        self.radix = (levels + 1) ** np.arange(states.shape[1] - 1, -1, -1, dtype=np.int64)
        codes = states @ self.radix
        self.rows = np.argsort(codes, kind="stable")
        self.codes = codes[self.rows]

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Row of each state in ``keys`` (shape (..., n)), or -1 where absent."""
        codes = np.asarray(keys, dtype=np.int64) @ self.radix
        pos = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return np.where(self.codes[pos] == codes, self.rows[pos], -1)


@dataclass
class PotentialEstimate:
    """Gridded least potential over normalized work-function differences."""

    states: np.ndarray
    table: np.ndarray
    h: float
    levels: int
    symmetric: bool
    converged: bool
    diverged: bool
    sweeps: int
    last_change: float
    slack: float
    index: GridIndex = field(repr=False)

    @property
    def sup(self) -> float:
        return float(self.table.max(initial=0.0))

    def phi(self, w):
        """Multilinear interpolation at (possibly off-grid) work functions.

        Takes one work function, for a float, or a stack of shape (..., n),
        for one value per leading index. The rows go in blocks of at most
        ``PHI_BLOCK_TERMS`` corner terms. The 2^n corner terms of a row are
        summed in corner order, one after another, so its value does not
        depend on how corners or rows are batched.
        """
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            return float(self._interpolate(w[None])[0])
        rows = w.reshape(-1, w.shape[-1])
        block = max(1, PHI_BLOCK_TERMS >> rows.shape[1])
        out = np.empty(len(rows))
        for i in range(0, len(rows), block):
            out[i : i + block] = self._interpolate(rows[i : i + block])
        return out.reshape(w.shape[:-1])

    def _interpolate(self, w: np.ndarray) -> np.ndarray:
        """The interpolated potential of each row of ``w`` (shape (k, n))."""
        # x >= 0, so clipping it to [0, levels] takes only the upper bound
        x = np.minimum((w - w.min(axis=1, keepdims=True)) / self.h, float(self.levels))
        lo = np.floor(x).astype(np.int64)
        frac = (x - lo)[:, None, :]
        corners = _corners(w.shape[1])
        # one (k, 2^n, n) array at a time: the weights, then the keys in place
        weights = np.where(corners, frac, 1.0 - frac).prod(axis=2)
        keys = lo[:, None, :] + corners
        np.minimum(keys, self.levels, out=keys)
        keys -= keys.min(axis=2, keepdims=True)
        if self.symmetric:
            keys.sort(axis=2)
        # every clipped, normalized corner is a grid state, so each is found
        terms = weights * self.table[self.index.find(keys)]
        return terms.cumsum(axis=1)[:, -1]


def vi_state_count(n: int, levels: int, symmetric: bool) -> int:
    """Number of normalized grid states the value iteration would visit."""
    if symmetric:
        return math.comb(levels + n - 1, n - 1)
    return (levels + 1) ** n - levels**n


def _enumerate_states(n: int, levels: int, symmetric: bool) -> np.ndarray:
    """Normalized grid states (some entry 0), in itertools order."""
    if symmetric:
        rest = itertools.combinations_with_replacement(range(levels + 1), n - 1)
        count = math.comb(levels + n - 1, n - 1)
        # one array read from the flattened rows (0,) + k; filling a zeros
        # array from a separate temporary was faster here but left the rest
        # of a uniform-odd run about 4% slower (bench/run.py, 2-vCPU host)
        rows = zip(itertools.repeat((0,)), rest)
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
        return np.fromiter(flat, np.int64, count * n).reshape(count, n)
    k = np.indices((levels + 1,) * n, dtype=np.int64).reshape(n, -1).T
    return k[k.min(axis=1) == 0]


def grid_probabilities(alg, W: np.ndarray) -> np.ndarray:
    """``alg.probabilities(W)`` of the rows of ``W``, in blocks of
    ``PROB_BLOCK_ROWS`` rows, so a large grid's intermediates stay bounded."""
    return np.concatenate(
        [alg.probabilities(W[i : i + PROB_BLOCK_ROWS]) for i in range(0, len(W), PROB_BLOCK_ROWS)]
    )


def estimate_potential(alg, grid_step: float | None = None) -> PotentialEstimate:
    """Least valid potential by value iteration over grid-step continuations.

    Works on spaces whose distances are integer multiples of the grid step
    (uniform spaces in particular), for rules that supply their
    ``local_cost_integral``; it is called once per charge direction on all
    grid states at once. Divergence is reported, not raised: it signals the
    declared ratio is below what the rule actually needs.
    """
    u = alg.umts
    n, D = u.n, u.diameter()
    if n == 1:
        states = np.zeros((1, 1), dtype=np.int64)
        return PotentialEstimate(
            states, np.zeros(1), 1.0, 0, False, True, False, 0, 0.0, 0.0, GridIndex(states, 0)
        )
    levels, symmetric, fits = grid_shape(alg, grid_step)
    h = D / levels
    steps = u.metric.dist / h
    if np.abs(steps - np.round(steps)).max() > 1e-6:
        raise ValueError("grid step must divide every pairwise distance")
    steps = np.round(steps).astype(np.int64)
    if not fits:
        raise ValueError("state grid too large; coarsen grid_step or shrink the space")
    states = _enumerate_states(n, levels, symmetric)
    S = states.shape[0]
    index = GridIndex(states, levels)

    W = states.astype(float) * h
    P = grid_probabilities(alg, W)

    r, alpha = alg.declared_ratio, np.asarray(alg.alpha)
    target = np.full((n, S), -1, dtype=np.int64)
    gain = np.zeros((n, S))
    for v in range(n):
        caps = (states + steps[:, v][None, :] + np.where(np.arange(n) == v, 10 * levels, 0)[None, :]).min(axis=1)
        legal = (states[:, v] + 1 <= caps) & (P[:, v] > 1e-12)
        tgt_states = states.copy()
        tgt_states[:, v] += 1
        tgt_states -= tgt_states.min(axis=1)[:, None]
        if symmetric:
            tgt_states = np.sort(tgt_states, axis=1)
        rows = np.where(legal, index.find(tgt_states), -1)
        move = u.s * _uniform_or_transport_batch(u, P, P[np.maximum(rows, 0)], D)
        local = np.where(legal, alg.local_cost_integral(W, v, h), 0.0)
        gain[v] = np.where(legal, move + local - r * alpha[v] * h, -np.inf)
        target[v] = rows

    table = np.zeros(S)
    blowup = 50.0 * max(r, 1.0) * D + 10.0
    sweeps, change, diverged = 0, np.inf, False
    while sweeps < VI_MAX_SWEEPS:
        best = np.zeros(S)
        for v in range(n):
            cand = gain[v] + np.where(target[v] >= 0, table[np.maximum(target[v], 0)], 0.0)
            best = np.maximum(best, cand)
        new = np.maximum(0.0, best)
        change = float(np.abs(new - table).max())
        table = new
        sweeps += 1
        if change < VI_TOL:
            break
        if table.max() > blowup:
            diverged = True
            break
    converged = change < VI_TOL and not diverged

    slack = 0.0
    for v in range(n):
        ok = target[v] >= 0
        if ok.any():
            slack = max(slack, float(np.abs(table[target[v][ok]] - table[ok]).max()))
    return PotentialEstimate(
        states, table, h, levels, symmetric, converged, diverged, sweeps, change, slack, index
    )


def _uniform_or_transport_batch(u, P, Q, D) -> np.ndarray:
    off = u.metric.dist[~np.eye(u.n, dtype=bool)]
    if np.abs(off - D).max() < EPS_EQ:
        return D * 0.5 * np.abs(P - Q).sum(axis=1)
    from umtslab.transport import mcost_metric

    return mcost_metric(u.metric, P, Q)
