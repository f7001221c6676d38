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
# grid states per block of estimate_potential's set-up, which builds each
# block's work functions, distributions and per-direction intermediates on
# its own: a rule's intermediates can grow with states * n^2 (odd_exponent's
# pairwise differences), and rows are independent
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

    Each of the three takes a float or a float array, elementwise, and
    gives an element of an array the same bits as the float alone, so the
    rate curves and antiderivatives below do too: ``BandPotential`` scans
    and reads them on arrays and brackets roots on floats. A closed form
    with a power therefore takes it by ``math.pow`` on arrays (through
    ``np.frompyfunc``), not by numpy's ``**``, whose vectorised ``pow``
    can differ from the scalar one in the last bit.
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


def _sign_change_roots(f, xs: np.ndarray) -> list[float]:
    """The scan points where ``f`` is zero and a brentq root in each
    bracket of consecutive points where it changes sign, ascending; ``f``
    is evaluated on the whole scan at once."""
    vals = f(xs)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    roots = [
        float(xs[i]) if vals[i] == 0.0 else float(brentq(f, xs[i], xs[i + 1], xtol=1e-13))
        for i in hits.tolist()
    ]
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
    side. The scans evaluate the rule on whole arrays of points, and
    ``phi`` takes a float or an array of gaps, with the same bits as one
    float at a time.
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
        lo, hi = max(self.y_minus, -d), min(self.y_plus, d)
        if lo < hi:
            zs = np.linspace(lo, hi, BAND_SCAN)
            self.min_gap = float(np.min(rule.g_plus(zs) - rule.g_minus(zs)))
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
        # the same knots and floors for array lookups
        self._knot_arrays = tuple(
            np.array(x) for x in (self._knots_minus, self._floor_minus, self._knots_plus, self._floor_plus)
        )

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

    def _needs(self, y: np.ndarray) -> np.ndarray:
        """``phi`` of an array of gaps already clipped to [-d, d]: each
        side's need as in the float path, where ``np.where(g < floor, g,
        floor)`` is Python's ``min(floor, g)``, and the larger positive
        need or +0.0, as ``max(0.0, below, above)`` gives (``fmax`` skips a
        NaN need as that comparison does)."""
        knots_minus, floor_minus, knots_plus, floor_plus = self._knot_arrays
        g = self.rule.big_g_minus(y)
        floor = floor_minus[np.searchsorted(knots_minus, y, "right") - 1]
        below = np.where(y < self.y_minus, 0.0, g - np.where(g < floor, g, floor))
        g = self.rule.big_g_plus(y)
        floor = floor_plus[np.minimum(np.searchsorted(knots_plus, y, "left"), len(knots_plus) - 1)]
        above = np.where(y > self.y_plus, 0.0, g - np.where(g < floor, g, floor))
        need = np.fmax(below, above)
        return np.where(need > 0.0, need, 0.0)

    def phi(self, y):
        """The potential at gap ``y``: a float for a float, and one value
        per element for an array."""
        d = self.rule.d
        if isinstance(y, np.ndarray):
            return self._needs(np.clip(y, -d, d))
        y = min(max(float(y), -d), d)
        return max(0.0, self._need_from_below(y), self._need_from_above(y))

    def sup(self) -> float:
        """The largest ``phi`` over the scan points, the edges and the roots."""
        ys = np.linspace(-self.rule.d, self.rule.d, BAND_SCAN)
        knots = [self.y_minus, self.y_plus] + self._roots_minus + self._roots_plus
        return float(np.max(self.phi(np.concatenate((ys, knots)))))


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


def elementwise(f: Callable[[float], float]) -> Callable:
    """``f`` of one float, extended to float arrays by one call per element
    through ``np.frompyfunc``, so each element has the bits of the float's
    value; a float still goes to ``f`` directly."""
    each = np.frompyfunc(f, 1, 1)

    def g(y):
        if isinstance(y, np.ndarray):
            return np.asarray(each(y), dtype=float)
        return f(y)

    return g


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
        return self.rows_of(np.asarray(keys, dtype=np.int64) @ self.radix)

    def rows_of(self, codes: np.ndarray) -> np.ndarray:
        """Row of the state with each code in ``codes``, or -1 where absent."""
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
    # one slab per leading entry a, never the whole box: a = 0 takes every
    # row of the (n - 1)-box, each a > 0 the rows that hold a zero
    box = np.indices((levels + 1,) * (n - 1), dtype=np.int64)
    rest = box.reshape(n - 1, (levels + 1) ** (n - 1)).T
    tail = rest[(rest == 0).any(axis=1)]
    states = np.empty((len(rest) + levels * len(tail), n), dtype=np.int64)
    states[: len(rest), 0] = 0
    states[: len(rest), 1:] = rest
    slabs = states[len(rest) :].reshape(levels, len(tail), n)
    slabs[:, :, 0] = np.arange(1, levels + 1)[:, None]
    slabs[:, :, 1:] = tail
    return states


def _row_blocks(count: int) -> list[slice]:
    """The rows 0..count - 1 in blocks of ``PROB_BLOCK_ROWS``."""
    return [slice(i, i + PROB_BLOCK_ROWS) for i in range(0, count, PROB_BLOCK_ROWS)]


def grid_probabilities(alg, states: np.ndarray, h: float) -> np.ndarray:
    """``alg.probabilities`` of the work functions ``states * h``, one block
    of ``PROB_BLOCK_ROWS`` rows at a time, filled into one array, so no
    full-size work functions or intermediates exist."""
    P = np.empty(states.shape)
    for rows in _row_blocks(len(states)):
        P[rows] = alg.probabilities(states[rows] * h)
    return P


def estimate_potential(alg, grid_step: float | None = None) -> PotentialEstimate:
    """Least valid potential by value iteration over grid-step continuations.

    Works on spaces whose distances are integer multiples of the grid step
    (uniform spaces in particular), for rules that supply their
    ``local_cost_integral``. The set-up goes one block of
    ``PROB_BLOCK_ROWS`` grid states at a time: each block makes its own
    work functions, and for each charge direction its legality, target
    rows, moving costs, local cost integrals and gains. Only the states,
    their distributions, the gains and target rows of every direction and
    the value iteration's tables are kept at full size. A target's row is
    found from its state's code: raising entry j adds ``radix[j]`` and,
    when that entry was the row's only zero, renormalizing subtracts
    ``radix.sum()``. Divergence is reported, not raised: it signals the
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
    P = grid_probabilities(alg, states, h)

    r, alpha = alg.declared_ratio, np.asarray(alg.alpha)
    moving = _moving_cost(u, D)
    # column v caps entry v + 1 by every other entry plus its distance to v;
    # the diagonal's 10 * levels keeps entry v itself out of the minimum
    bounds = steps + 10 * levels * np.eye(n, dtype=np.int64)
    radix = index.radix
    target = np.full((n, S), -1, dtype=np.int64)
    gain = np.zeros((n, S))
    for rows in _row_blocks(S):
        k, p = states[rows], P[rows]
        W = k * h
        codes = k @ radix
        lone_zero = (k == 0).sum(axis=1) == 1
        for v in range(n):
            legal = (k[:, v] + 1 <= (k + bounds[:, v]).min(axis=1)) & (p[:, v] > 1e-12)
            # on the symmetric grid, raising the last entry equal to entry v
            # keeps the row sorted
            j = (k <= k[:, v, None]).sum(axis=1) - 1 if symmetric else v
            raised = codes + radix[j] - np.where(lone_zero & (k[:, v] == 0), radix.sum(), 0)
            tgt = np.where(legal, index.rows_of(raised), -1)
            move = u.s * moving(p, P[np.maximum(tgt, 0)])
            local = np.where(legal, alg.local_cost_integral(W, v, h), 0.0)
            gain[v, rows] = np.where(legal, move + local - r * alpha[v] * h, -np.inf)
            target[v, rows] = tgt

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


def _moving_cost(u, D) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Transport cost between the rows of two (k, n) distribution stacks on
    ``u``'s metric: D times half their L1 distance when every off-diagonal
    distance is D within EPS_EQ (tested here, once), else ``mcost_metric``."""
    off = u.metric.dist[~np.eye(u.n, dtype=bool)]
    if np.abs(off - D).max() < EPS_EQ:
        return lambda P, Q: D * 0.5 * np.abs(P - Q).sum(axis=1)
    from umtslab.transport import mcost_metric

    return functools.partial(mcost_metric, u.metric)
