"""Optimal-transport moving costs between probability vectors.

Exact closed forms cover the structured spaces (tree realizations, uniform,
any 2- or 3-point metric); everything else goes through an LP solve.
"""

from __future__ import annotations

import numpy as np

from umtslab.metricspace import FiniteMetric, TreeRealization
from umtslab.tolerances import EPS_EQ


def _tree_flow_cost(tree: TreeRealization, diff: np.ndarray):
    """Flow cost of ``diff`` over the tree's edges: each vertex pushes its net
    mass to its parent. ``diff`` holds one entry per point on its first
    axis, so a (n, k) ``diff`` gives the k costs of its columns."""
    net = np.zeros((len(tree.parent),) + diff.shape[1:])
    for j, v in enumerate(tree.point_vertex):
        net[v] += diff[j]
    cost = 0.0
    for i in range(len(net) - 1, 0, -1):
        cost += tree.edge_weight[i] * abs(net[i])
        net[tree.parent[i]] += net[i]
    return cost


def _star_arms_3pt(d: np.ndarray) -> np.ndarray:
    # every 3-point metric is realized by a star; arm i carries point i
    a = np.array(
        [
            (d[0, 1] + d[0, 2] - d[1, 2]) / 2.0,
            (d[0, 1] + d[1, 2] - d[0, 2]) / 2.0,
            (d[0, 2] + d[1, 2] - d[0, 1]) / 2.0,
        ]
    )
    return np.maximum(a, 0.0)


def _lp_cost(d: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    # imported here: scipy's start-up cost is paid only by runs that need an LP
    from scipy.optimize import linprog

    n = d.shape[0]
    c = d.reshape(-1)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0  # row sums -> p
        a_eq[n + i, i::n] = 1.0  # column sums -> q
    b_eq = np.concatenate([p, q])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _require_distribution(row: list[float]) -> None:
    """Reject ``row`` unless its entries are at least -1e-12 and sum to 1
    within EPS_EQ. This runs on every step, so it makes one pass over the
    entries; a NaN or infinite entry leaves the sum off 1."""
    total = 0.0
    for x in row:
        if x < -1e-12:
            raise ValueError(f"not a distribution: negative entry {x}")
        total += x
    if not abs(total - 1.0) <= EPS_EQ:
        raise ValueError(f"not a distribution: entries sum to {total}")


def _is_distribution(row: list[float]) -> bool:
    try:
        _require_distribution(row)
    except ValueError:
        return False
    return True


def not_distribution(p) -> np.ndarray:
    """True for each row of ``p`` (shape (..., n)) that is not a
    distribution, by the check :func:`mcost_metric` applies to every row."""
    p = np.asarray(p, dtype=float)
    rows = p.reshape(-1, p.shape[-1]).tolist()
    return ~np.array([_is_distribution(row) for row in rows], dtype=bool).reshape(p.shape[:-1])


def mcost_metric(metric: FiniteMetric, p, q):
    """Minimal transport cost between distributions p and q under the metric.

    ``p`` and ``q`` have shape (..., n): a float for one pair of
    distributions, and for stacks one cost per leading index, each equal to
    the one-row call. Every row must be a distribution.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = metric.n
    if p.shape[-1:] != (n,) or q.shape != p.shape:
        raise ValueError("distribution length does not match the space")
    for row in p.reshape(-1, n).tolist() + q.reshape(-1, n).tolist():
        _require_distribution(row)
    cost = mcost_checked_rows(metric, p, q)
    return float(cost) if p.ndim == 1 else cost


def mcost_checked_rows(metric: FiniteMetric, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The transport cost of each row pair of the (..., n) stacks ``p`` and
    ``q``, whose rows are distributions already checked, as
    :func:`not_distribution` checks them; no row is checked again. A row that
    moves no mass costs 0.0, and the others are priced together by
    :func:`_transport_cost`. Each cost equals :func:`mcost_metric` of its
    row pair."""
    n = metric.n
    lead = p.shape[:-1]
    p, q = p.reshape(-1, n), q.reshape(-1, n)
    diff = p - q
    moved = np.abs(diff).max(axis=-1, initial=0.0) > 1e-15
    cost = np.zeros(len(p))
    if n > 1:
        cost[moved] = _transport_cost(metric, p[moved], q[moved], diff[moved])
    return cost.reshape(lead)


def _is_uniform(d: np.ndarray) -> bool:
    off = d[~np.eye(len(d), dtype=bool)]
    return bool(off.max() - off.min() <= EPS_EQ)


def needs_lp(metric: FiniteMetric) -> bool:
    """Whether transport on ``metric`` goes to the LP: no tree realization,
    more than three points and not uniform."""
    return metric.tree is None and metric.n > 3 and not _is_uniform(metric.dist)


def _transport_cost(metric: FiniteMetric, p, q, diff):
    """Transport cost of each row of ``p`` to ``q`` (shape (k, n),
    ``diff = p - q``) by the metric's closed form, which works along the last
    axis, or one LP per row."""
    n = diff.shape[-1]
    if metric.tree is not None:
        return _tree_flow_cost(metric.tree, diff.T)
    if n == 2:
        return metric.dist[0, 1] * abs(diff.T[0])
    if n == 3:
        # one dot per row: a matrix-vector product sums the terms in another order
        arms, dev = _star_arms_3pt(metric.dist), np.abs(diff)
        return np.array([arms @ a for a in dev])
    if _is_uniform(metric.dist):
        return metric.dist[0, 1] * np.abs(diff).sum(axis=-1) / 2.0
    return np.array([_lp_cost(metric.dist, a, b) for a, b in zip(p, q)])

