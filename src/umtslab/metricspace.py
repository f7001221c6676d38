"""Finite metric spaces: validation, standard families, partitions, quotients.

A :class:`FiniteMetric` is a symmetric distance matrix over labeled states.
Spaces built by the constructors here carry an optional edge-weighted tree
realization that the transport kernel exploits for exact moving costs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from umtslab.tolerances import EPS_EQ


@dataclass(frozen=True)
class TreeRealization:
    """Edge-weighted rooted tree whose leaf-to-leaf path lengths equal the metric.

    Vertices are indexed so that every child has a larger index than its
    parent (root is 0 with parent -1). ``edge_weight[i]`` is the weight of
    the edge from vertex ``i`` up to ``parent[i]``. ``point_vertex[j]`` is
    the tree vertex carrying metric point ``j``; interior vertices may also
    carry points (a path does).
    """

    parent: tuple[int, ...]
    edge_weight: tuple[float, ...]
    point_vertex: tuple[int, ...]


@dataclass(frozen=True)
class FiniteMetric:
    """Labeled finite metric space.

    ``dist`` is an n-by-n symmetric matrix with zero diagonal and positive
    off-diagonal entries satisfying the triangle inequality (within 1e-9).
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    tree: TreeRealization | None = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        d.setflags(write=False)
        if d.ndim != 2 or len(self.labels) != d.shape[0] or d.shape[0] != d.shape[1]:
            raise ValueError("label count and matrix shape disagree")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")

    @property
    def n(self) -> int:
        return len(self.labels)

    def diameter(self) -> float:
        if self.n <= 1:
            return 0.0
        return float(self.dist.max())

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @cached_property
    def dist_columns(self) -> tuple[list[float], ...]:
        """``dist[:, v]`` of every state ``v`` as a list of floats, made once:
        the one-state queries of a run read them on Python floats."""
        return tuple(self.dist.T.tolist())

    def min_positive(self) -> float:
        """Smallest off-diagonal distance (0 for a single point)."""
        if self.n <= 1:
            return 0.0
        off = self.dist[~np.eye(self.n, dtype=bool)]
        return float(off.min())


# entries of the (rows, n, n) triangle check made at once: 2 MiB of floats
TRIANGLE_BLOCK = 2**18


def validate(m: FiniteMetric, tol: float = EPS_EQ) -> list[str]:
    """Report every violated metric axiom; an empty list means valid."""
    report = []
    d = m.dist
    n = m.n
    for i in range(n):
        if abs(d[i, i]) > tol:
            report.append(f"nonzero diagonal at {m.labels[i]}: {d[i, i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > tol:
                report.append(
                    f"asymmetry at ({m.labels[i]},{m.labels[j]}): "
                    f"{d[i, j]} vs {d[j, i]}"
                )
            if d[i, j] <= tol:
                report.append(
                    f"non-positive distance at ({m.labels[i]},{m.labels[j]}): {d[i, j]}"
                )
    # (i, j, k) with d(i, j) > d(i, k) + d(k, j) + tol, in loop order, a
    # block of rows i at a time so the (rows, n, n) temporaries stay small
    rows = max(1, TRIANGLE_BLOCK // max(1, n * n))
    d_t = np.ascontiguousarray(d.T)
    for start in range(0, n, rows):
        block = d[start:start + rows]
        bound = block[:, None, :] + d_t[None, :, :]
        bound += tol
        violated = block[:, :, None] > bound
        if not violated.any():
            continue
        for i, j, k in np.argwhere(violated).tolist():
            i += start
            report.append(
                f"triangle violation: d({m.labels[i]},{m.labels[j]}) > "
                f"d(.,{m.labels[k]}) sum by {d[i, j] - d[i, k] - d[k, j]:.3g}"
            )
    return report


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i + 1}" for i in range(n))


def make_uniform(b: int, d: float = 1.0, labels=None) -> FiniteMetric:
    """Uniform metric on ``b`` points, all pairwise distances ``d``.

    For b = 1 the single-point space is returned and ``d`` is ignored.
    """
    if b < 1:
        raise ValueError(f"need at least one point, got {b}")
    if b > 1 and d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    labels = tuple(labels) if labels is not None else _default_labels(b)
    if b == 1:
        tree = TreeRealization((-1,), (0.0,), (0,))
        return FiniteMetric(labels, np.zeros((1, 1)), tree)
    dist = np.full((b, b), float(d))
    np.fill_diagonal(dist, 0.0)
    # star through a center vertex, every arm d/2
    parent = (-1,) + (0,) * b
    weight = (0.0,) + (d / 2.0,) * b
    points = tuple(range(1, b + 1))
    return FiniteMetric(labels, dist, TreeRealization(parent, weight, points))


def make_line(n: int, gap: float = 1.0, labels=None) -> FiniteMetric:
    """Equally spaced points on the line, dist(i, j) = gap * |i - j|."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if n > 1 and gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    labels = tuple(labels) if labels is not None else _default_labels(n)
    idx = np.arange(n)
    dist = gap * np.abs(idx[:, None] - idx[None, :]).astype(float)
    parent = tuple(i - 1 for i in range(n))
    weight = (0.0,) + (float(gap),) * (n - 1)
    return FiniteMetric(labels, dist, TreeRealization(parent, weight, tuple(range(n))))


def make_star(fetch_costs, labels=None) -> FiniteMetric:
    """Star metric with dist(u, v) = (fetch_costs[u] + fetch_costs[v]) / 2.

    Each point sits on an arm of length half its cost, so the space is the
    leaf metric of a weighted star.
    """
    costs = np.asarray(fetch_costs, dtype=float)
    if costs.ndim != 1 or costs.size < 1:
        raise ValueError("fetch_costs must be a non-empty vector")
    if (costs <= 0).any():
        raise ValueError("fetch costs must be positive")
    n = costs.size
    labels = tuple(labels) if labels is not None else _default_labels(n)
    if n == 1:
        return FiniteMetric(labels, np.zeros((1, 1)), TreeRealization((-1,), (0.0,), (0,)))
    dist = (costs[:, None] + costs[None, :]) / 2.0
    np.fill_diagonal(dist, 0.0)
    parent = (-1,) + (0,) * n
    weight = (0.0,) + tuple(c / 2.0 for c in costs)
    points = tuple(range(1, n + 1))
    return FiniteMetric(labels, dist, TreeRealization(parent, weight, points))


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of labels covering a metric's label set."""

    blocks: tuple[tuple[str, ...], ...]

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_of(self, label: str) -> int:
        for i, blk in enumerate(self.blocks):
            if label in blk:
                return i
        raise KeyError(label)


def make_partition(metric: FiniteMetric, blocks) -> Partition:
    blocks = tuple(tuple(blk) for blk in blocks)
    seen: list[str] = []
    for blk in blocks:
        if not blk:
            raise ValueError("empty block")
        seen.extend(blk)
    if sorted(seen) != sorted(metric.labels):
        raise ValueError("blocks must partition the label set exactly")
    return Partition(blocks)


def induced_metric(metric: FiniteMetric, block) -> FiniteMetric:
    """Submetric on the given labels (single points allowed)."""
    idx = [metric.index(x) for x in block]
    sub = metric.dist[np.ix_(idx, idx)].copy()
    return FiniteMetric(tuple(block), sub)


def quotient_metric(metric: FiniteMetric, partition: Partition, dist_hat=None) -> FiniteMetric:
    """One representative z_i per block; distances default to the largest
    cross-block distance, the tightest admissible choice (any matrix with
    entries at least that large is accepted)."""
    b = partition.b
    labels = tuple(f"z{i + 1}" for i in range(b))
    if b == 1:
        return FiniteMetric(labels, np.zeros((1, 1)))
    idx = [[metric.index(x) for x in blk] for blk in partition.blocks]
    maxcross = np.zeros((b, b))
    for i in range(b):
        for j in range(b):
            if i != j:
                maxcross[i, j] = metric.dist[np.ix_(idx[i], idx[j])].max()
    if dist_hat is None:
        dh = maxcross
    else:
        dh = np.asarray(dist_hat, dtype=float)
        if dh.shape != (b, b):
            raise ValueError("dist_hat shape mismatch")
        if (dh + EPS_EQ < maxcross).any():
            raise ValueError("dist_hat must dominate every cross-block distance")
    return FiniteMetric(labels, dh)


def min_cross_distance(metric: FiniteMetric, partition: Partition, i: int, j: int) -> float:
    idx_i = [metric.index(x) for x in partition.blocks[i]]
    idx_j = [metric.index(x) for x in partition.blocks[j]]
    return float(metric.dist[np.ix_(idx_i, idx_j)].min())


def scale_metric(m: FiniteMetric, factor: float) -> FiniteMetric:
    """Same labels, every distance multiplied by ``factor`` (> 0)."""
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    tree = None
    if m.tree is not None:
        tree = TreeRealization(
            m.tree.parent,
            tuple(w * factor for w in m.tree.edge_weight),
            m.tree.point_vertex,
        )
    return FiniteMetric(m.labels, m.dist * factor, tree)


def metric_to_json(m: FiniteMetric) -> str:
    return json.dumps({"labels": list(m.labels), "dist": m.dist.tolist()})


def metric_from_json(text: str) -> FiniteMetric:
    obj = json.loads(text)
    return FiniteMetric(tuple(obj["labels"]), np.array(obj["dist"], dtype=float))
