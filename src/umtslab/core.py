"""The task-system cost model: tasks, work functions, moving and step costs.

A system is a metric space with per-state cost ratios ``r_u`` and a distance
ratio ``s``: local costs are scaled by ``r_u`` and moving costs by ``s``.
An online algorithm maintains a probability vector over states; serving a
task costs the optimal-transport move plus the charge weighted by the
post-move probabilities.

Work functions come in two flavors. :func:`initial_work_function` starts at
``dist(initial_state, v)`` and drives offline optima. Stable algorithms are
evaluated on a flat-start channel (:func:`flat_work_function`) where the
work function equals the accumulated charges on reasonable runs; the
difference between the channels is absorbed by the additive constant of the
competitive bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from umtslab.metricspace import FiniteMetric
from umtslab.tolerances import EPS_EQ, EPS_TIE
from umtslab.transport import mcost_metric


@dataclass(frozen=True)
class Umts:
    """Metric space plus cost ratios (r_u) and distance ratio s."""

    metric: FiniteMetric
    rates: np.ndarray
    s: float
    initial_state: str = ""

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", r)
        r.setflags(write=False)
        if r.shape != (self.metric.n,):
            raise ValueError("one cost ratio per state required")
        if not (np.isfinite(r) & (r >= 0)).all():
            raise ValueError("cost ratios must be finite and non-negative")
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError("distance ratio must be finite and positive")
        if not self.initial_state:
            object.__setattr__(self, "initial_state", self.metric.labels[0])
        elif self.initial_state not in self.metric.labels:
            raise ValueError(f"unknown initial state {self.initial_state!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.metric.labels

    @property
    def n(self) -> int:
        return self.metric.n

    def diameter(self) -> float:
        return self.metric.diameter()


@dataclass(frozen=True)
class ElementaryTask:
    """A charge of ``delta`` at a single state."""

    state: str
    delta: float

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("charges must be finite and non-negative")


@dataclass(frozen=True)
class GeneralTask:
    """Per-state non-negative charge vector."""

    charges: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.charges, dtype=float)
        object.__setattr__(self, "charges", c)
        c.setflags(write=False)
        if not (np.isfinite(c) & (c >= 0)).all():
            raise ValueError("charges must be finite and non-negative")


def task_charges(u: Umts, task) -> np.ndarray:
    """Charge vector of an elementary or general task."""
    if isinstance(task, ElementaryTask):
        c = np.zeros(u.n)
        c[u.metric.index(task.state)] = task.delta
        return c
    return np.asarray(task.charges, dtype=float)


def initial_work_function(u: Umts) -> np.ndarray:
    """w(v) = dist(initial_state, v); the offline-optimum start."""
    return u.metric.dist[u.metric.index(u.initial_state)].copy()


def flat_work_function(u: Umts) -> np.ndarray:
    """All-zero start; the channel stable algorithm rules are evaluated on."""
    return np.zeros(u.n)


def apply_task(u: Umts, w: np.ndarray, task) -> np.ndarray:
    """One work-function step: w'(v) = min_x [w(x) + c_x + dist(x, v)].

    Elementary tasks take the O(n) path: only the charged state can change,
    capped by its support level.
    """
    if isinstance(task, ElementaryTask):
        return apply_elementary(u, w, u.metric.index(task.state), task.delta)
    c = np.asarray(task.charges, dtype=float)
    return np.min((w + c)[:, None] + u.metric.dist, axis=0)


def apply_elementary(u: Umts, w: np.ndarray, v: int, delta: float) -> np.ndarray:
    out = w.copy()
    out[v] = min(w[v] + delta, _support_level(u, w, v))
    return out


def _support_level(u: Umts, w: np.ndarray, v: int) -> float:
    """min over x != v of w(x) + dist(x, v) (inf on one point), on Python
    floats: at n <= 8 numpy's per-call overhead would dominate the minimum."""
    reach = w.tolist()
    reach[v] = math.inf
    return min(map(operator.add, reach, u.metric.dist_columns[v]))


def support_headroom(u: Umts, w: np.ndarray, v: int) -> float:
    """How far w(v) can rise before v becomes supported (inf on one point)."""
    return _support_level(u, w, v) - w[v]


def support_headrooms(u: Umts, w: np.ndarray) -> np.ndarray:
    """:func:`support_headroom` at every state, from one array minimum."""
    reach = w[:, None] + u.metric.dist
    reach.flat[:: len(w) + 1] = np.inf
    return reach.min(axis=0) - w


def moving_cost(u: Umts, p, q):
    """s times the optimal-transport cost between the two distributions
    (one per leading index for stacks of shape (..., n))."""
    return u.s * mcost_metric(u.metric, p, q)


def online_step_cost(u: Umts, p_before, p_after, task):
    """Transport cost plus charge paid at the post-move probabilities.

    For distributions of shape (..., n), ``task`` holds one elementary task
    per leading index, in C order, and the result one cost per leading
    index. A stack pays a charge of delta at v as
    ``p_after[v] * (delta * rate[v])``, the one nonzero term of the one-row
    dot product, so each cost equals the one-row call.
    """
    p_after = np.asarray(p_after, dtype=float)
    moving = moving_cost(u, p_before, p_after)
    if p_after.ndim > 1:
        v = np.array([u.metric.index(t.state) for t in task], dtype=np.int64)
        delta = np.array([t.delta for t in task], dtype=float)
        paid = p_after.reshape(-1, u.n)[np.arange(len(v)), v] * (delta * u.rates[v])
        return moving + paid.reshape(p_after.shape[:-1])
    return moving + float(p_after @ (task_charges(u, task) * u.rates))


def step_costs(u: Umts, p: np.ndarray, tasks, faulty: np.ndarray) -> np.ndarray:
    """The cost of each step of a run through the (k + 1, n) distributions
    ``p``, its start first, priced in one :func:`online_step_cost` call;
    NaN where a step reads a row that ``faulty`` marks."""
    cost = np.full(len(tasks), np.nan)
    priced = ~(faulty[:-1] | faulty[1:])
    if priced.any():
        cost[priced] = online_step_cost(u, p[:-1][priced], p[1:][priced],
                                        list(compress(tasks, priced)))
    return cost


def opt_cost(w) -> float:
    return float(np.asarray(w).min())


def beta_excluded_mass(u: Umts, beta: float, w, p) -> list:
    """(state, mass) for every state that holds mass although beta excludes it.

    State x is excluded when some other state y has
    w(x) >= w(y) + beta * dist(y, x), ties within EPS_TIE included; mass
    counts above EPS_EQ. A rule satisfying the beta constraint returns [].
    For ``w`` and ``p`` of shape (k, n) it returns one such list per row,
    each equal to the one-row call, from one pass over the n states y
    that never holds a (k, n, n) array.
    """
    w, p = np.asarray(w, dtype=float), np.asarray(p, dtype=float)
    if w.ndim == 1:
        # one row takes the (n, n) pair matrix: the loop over y below costs
        # a few times as much on a single row, more so as n grows
        gap = w[None, :] - w[:, None] - beta * u.metric.dist
        np.fill_diagonal(gap, -np.inf)
        hit = (gap.max(axis=0) >= -EPS_TIE) & (p > EPS_EQ)
        return [(int(x), float(p[x])) for x in np.flatnonzero(hit)]
    # nearest[:, x]: the largest w(x) - w(y) - beta * dist(y, x) over y != x
    nearest = np.full(w.shape, -np.inf)
    for y in range(u.n):
        gap = w - w[:, y, None] - beta * u.metric.dist[y]
        gap[:, y] = -np.inf
        np.maximum(nearest, gap, out=nearest)
    hit = (nearest >= -EPS_TIE) & (p > EPS_EQ)
    rows = [[] for _ in range(len(w))]
    for i, x in zip(*np.nonzero(hit)):
        rows[i].append((int(x), float(p[i, x])))
    return rows


class Step:
    """One online step: charging ``delta`` at state index ``v`` moves the rule
    ``alg`` on system ``u`` from work function ``w`` and distribution ``p``
    to ``w2`` and ``p2 = alg.probabilities(w2)``.

    The zero crossing at ``v`` before the charge is evaluated on first
    use, unless the caller knows it and passes it in. The audits price
    whole runs with :func:`step_costs`.
    """

    def __init__(self, u: Umts, alg, w, p, v: int, delta: float, crossing=None):
        self.u, self.alg, self.v, self.delta = u, alg, v, delta
        self.task = ElementaryTask(u.labels[v], delta)
        self.w, self.p = w, p
        self.w2 = apply_elementary(u, w, v, delta)
        self.p2 = alg.probabilities(self.w2)
        if crossing is not None:
            self.crossing = crossing

    @cached_property
    def crossing(self) -> float:
        return self.alg.zero_crossing(self.w, self.v)
