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

import numpy as np

from umtslab.metricspace import FiniteMetric
from umtslab.tolerances import EPS_EQ, EPS_TIE
from umtslab.transport import mcost_checked_rows, mcost_metric


# a run on at most this many states holds its work function and distribution
# as lists of Python floats, where numpy's per-call overhead would dominate;
# above it numpy's array passes are faster
FLOAT_STATES = 4


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


def apply_elementary(u: Umts, w, v, delta):
    """Charge ``delta`` at state ``v``: w(v) rises to at most its support
    level, min over x != v of w(x) + dist(x, v) (inf on one point).

    One work function held as a list of Python floats, as
    :func:`umtslab.harness.simulate` holds it up to ``FLOAT_STATES`` states,
    gives a new list, worked through on Python floats. An array of shape
    (n,), as a combined run's block and quotient work functions are, goes
    the same way and gives an array: numpy's per-call overhead would
    dominate the minimum. An array of shape (k, n), with one charge per row
    in ``v`` and ``delta``, gives one row per charge, each equal to the
    one-row call: a minimum is exact in any order."""
    if isinstance(w, list):
        out = w.copy()
        out[v] = math.inf
        out[v] = min(w[v] + delta, min(map(operator.add, out, u.metric.dist_columns[v])))
        return out
    if w.ndim == 1:
        return np.array(apply_elementary(u, w.tolist(), v, delta))
    out = w.copy()
    rows = np.arange(len(w))
    reach = w + u.metric.dist[:, v].T
    reach[rows, v] = np.inf
    out[rows, v] = np.minimum(w[rows, v] + delta, reach.min(axis=1, initial=np.inf))
    return out


def support_headrooms(u: Umts, w):
    """How far w(v) can rise at each state v before v becomes supported (inf
    on one point): a list of Python floats for a list, as
    :func:`apply_elementary` takes one, and one array minimum for an
    array."""
    if isinstance(w, list):
        values = w.copy()
        heads = []
        for v, col in enumerate(u.metric.dist_columns):
            # the support level at v, with w(v) set aside
            wv, values[v] = values[v], math.inf
            heads.append(min(map(operator.add, values, col)) - wv)
            values[v] = wv
        return heads
    reach = w[:, None] + u.metric.dist
    reach.flat[:: len(w) + 1] = np.inf
    return reach.min(axis=0) - w


def moving_cost(u: Umts, p, q):
    """s times the optimal-transport cost between the two distributions
    (one per leading index for stacks of shape (..., n))."""
    return u.s * mcost_metric(u.metric, p, q)


def online_step_cost(u: Umts, p_before, p_after, task) -> float:
    """Transport cost plus charge paid at the post-move probabilities, for
    one step; :func:`step_costs` prices every step of a run."""
    p_after = np.asarray(p_after, dtype=float)
    return moving_cost(u, p_before, p_after) + float(p_after @ (task_charges(u, task) * u.rates))


def step_costs(u: Umts, p: np.ndarray, v: np.ndarray, delta: np.ndarray,
               faulty: np.ndarray) -> np.ndarray:
    """The cost of each step of a run through the (k + 1, n) distributions
    ``p``, its start first, whose step i charges ``delta[i]`` at state
    ``v[i]``, each equal to the one-step :func:`online_step_cost`; NaN where
    a step reads a row that ``faulty`` marks. A step pays
    ``p[i + 1, v[i]] * (delta[i] * rate[v[i]])``, the one nonzero term of
    the one-step dot product.

    ``faulty`` must mark every row that is not a distribution, as
    :func:`umtslab.transport.not_distribution` does, so the rows priced are
    not checked again."""
    cost = np.full(len(v), np.nan)
    priced = ~(faulty[:-1] | faulty[1:])
    if not priced.any():
        return cost
    if priced.all():
        # every row is priced: the views, not masked copies
        priced = slice(None)
    before, after, v = p[:-1][priced], p[1:][priced], v[priced]
    moving = u.s * mcost_checked_rows(u.metric, before, after)
    cost[priced] = moving + after[np.arange(len(v)), v] * (delta[priced] * u.rates[v])
    return cost


def total_cost(costs: np.ndarray) -> float:
    """The sum of a run's step costs from left to right; 0.0 for no steps."""
    return float(np.cumsum(costs)[-1]) if len(costs) else 0.0


def opt_cost(w) -> float:
    return float(np.asarray(w).min())


def beta_excluded_mass(u: Umts, beta: float, w: np.ndarray, p: np.ndarray) -> list[list]:
    """For each row of the (k, n) work functions ``w`` and distributions
    ``p``, the (state, mass) of every state that holds mass although beta
    excludes it, from one pass over the n states y that never holds a
    (k, n, n) array.

    State x is excluded when some other state y has
    w(x) >= w(y) + beta * dist(y, x), ties within EPS_TIE included; mass
    counts above EPS_EQ. A rule satisfying the beta constraint gets [] for
    every row. One work function goes as a stack of one row.
    """
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
