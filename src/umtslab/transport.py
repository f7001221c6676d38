"""Optimal-transport moving costs between probability vectors.

Exact closed forms cover the structured spaces (tree realizations, uniform,
any 2- or 3-point metric); everything else goes through an LP solve.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from umtslab.metricspace import FiniteMetric, TreeRealization
from umtslab.tolerances import EPS_EQ


def _tree_flow_cost(tree: TreeRealization, diff: np.ndarray) -> float:
    nv = len(tree.parent)
    net = np.zeros(nv)
    for j, v in enumerate(tree.point_vertex):
        net[v] += diff[j]
    cost = 0.0
    for i in range(nv - 1, 0, -1):
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


def _require_distribution(p: np.ndarray) -> None:
    """Reject p unless its entries are at least -1e-12 and sum to 1 within
    EPS_EQ. This runs on every step, so it makes one pass over the entries;
    a NaN or infinite entry leaves the sum off 1."""
    total = 0.0
    for x in p.tolist():
        if x < -1e-12:
            raise ValueError(f"not a distribution: negative entry {x}")
        total += x
    if not abs(total - 1.0) <= EPS_EQ:
        raise ValueError(f"not a distribution: entries sum to {total}")


def mcost_metric(metric: FiniteMetric, p, q) -> float:
    """Minimal transport cost between distributions p and q under the metric."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = metric.n
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError("distribution length does not match the space")
    _require_distribution(p)
    _require_distribution(q)
    diff = p - q
    if np.abs(diff).max(initial=0.0) <= 1e-15 or n <= 1:
        return 0.0
    if metric.tree is not None:
        return _tree_flow_cost(metric.tree, diff)
    if n == 2:
        return float(metric.dist[0, 1] * abs(diff[0]))
    if n == 3:
        return float(_star_arms_3pt(metric.dist) @ np.abs(diff))
    off = metric.dist[~np.eye(n, dtype=bool)]
    if off.max() - off.min() <= EPS_EQ:
        return float(off[0] * np.abs(diff).sum() / 2.0)
    return _lp_cost(metric.dist, p, q)


def as_probability(vec, tol: float = EPS_EQ) -> np.ndarray:
    """Clamp negative rounding noise and verify normalization."""
    p = np.asarray(vec, dtype=float)
    if (p < -1e-12).any():
        raise ValueError(f"negative probability entry: {p.min()}")
    p = np.maximum(p, 0.0)
    total = p.sum()
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return p
