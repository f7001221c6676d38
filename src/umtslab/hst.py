"""Hierarchically separated trees and the recursive constructions on them.

An HST is a rooted tree whose internal nodes carry diameter labels that
shrink by at least a factor k per level; the induced metric on its leaves
puts two leaves at the label of their lowest common ancestor. The general
recursion plays, at every internal node, the child subtrees against each
other under a half-contracted bucket-and-merge quotient, which needs
k >= 5 to keep the combination constraint beta <= 1. Trees with smaller
separation are first lifted to 5-separation by rounding labels up to
powers of 5 and contracting collided edges, at a distortion below 5.

Two specialized recursions follow the same pattern with cheaper
quotients: a weighted caching algorithm on a star metric embedded into a
6-separated tree (anchored merges per node), and an equally spaced line
embedded into a dyadic 4-separated binary tree (two-state merges per
node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from umtslab.algorithms import rho_variant, trivial_algorithm, two_stable
from umtslab.combiner import block_subsystem, combine
from umtslab.core import Umts
from umtslab.metricspace import FiniteMetric, TreeRealization, make_star
from umtslab.portfolio import (
    LOG_X_FLOOR,
    combined_algorithm,
    w_combined_algorithm,
)
from umtslab.tolerances import EPS_EQ


@dataclass(frozen=True)
class HstNode:
    """One node of an HST: either a labeled leaf or an internal node with
    a diameter label and at least one child."""

    delta: float = 0.0
    children: tuple = ()
    leaf: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def leaves(self) -> tuple[str, ...]:
        if self.is_leaf:
            return (self.leaf,)
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return tuple(out)


def leaf(label: str) -> HstNode:
    return HstNode(leaf=label)


def validate_hst(node: HstNode, k: float) -> None:
    """Check k-separation: every internal label positive and at least k
    times any child label, leaf labels unique."""
    names = node.leaves()
    if len(set(names)) != len(names):
        raise ValueError("duplicate leaf labels")

    def walk(v: HstNode) -> None:
        if v.is_leaf:
            return
        if not v.children:
            raise ValueError("internal node without children")
        if v.delta <= 0:
            raise ValueError("internal node needs a positive label")
        for c in v.children:
            if not c.is_leaf and c.delta > v.delta / k * (1 + EPS_EQ):
                raise ValueError(
                    f"separation below {k}: child label {c.delta} under {v.delta}"
                )
            walk(c)

    walk(node)


def hst_to_json(node: HstNode) -> dict:
    if node.is_leaf:
        return {"leaf": node.leaf}
    return {"delta": node.delta, "children": [hst_to_json(c) for c in node.children]}


def hst_metric(node: HstNode) -> FiniteMetric:
    """Leaf metric of an HST, with the tree itself as transport realization.

    Each node sits at height delta/2, so the leaf-to-leaf path through the
    lowest common ancestor has length exactly that ancestor's label.
    """
    names = node.leaves()
    n = len(names)
    pos = {x: i for i, x in enumerate(names)}
    dist = np.zeros((n, n))

    def fill(v: HstNode) -> list[str]:
        if v.is_leaf:
            return [v.leaf]
        groups = [fill(c) for c in v.children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi]:
                    for b in groups[gj]:
                        dist[pos[a], pos[b]] = v.delta
                        dist[pos[b], pos[a]] = v.delta
        return [x for g in groups for x in g]

    fill(node)

    parent: list[int] = []
    weight: list[float] = []
    point_vertex = [0] * n

    def build(v: HstNode, par: int, par_delta: float) -> None:
        vid = len(parent)
        parent.append(par)
        weight.append(0.0 if par < 0 else (par_delta - v.delta) / 2.0)
        if v.is_leaf:
            point_vertex[pos[v.leaf]] = vid
        for c in v.children:
            build(c, vid, v.delta)

    build(node, -1, node.delta)
    tree = TreeRealization(tuple(parent), tuple(weight), tuple(point_vertex))
    return FiniteMetric(names, dist, tree)


def with_hst_realization(metric: FiniteMetric) -> FiniteMetric:
    """``metric`` with an HST as its tree realization, if it is an ultrametric.

    The HST is grown top-down: a node's label is the largest distance among
    its points, and its children are the classes of points closer than
    that to the class's first point. The realization is attached only when
    the HST's leaf metric reproduces ``dist`` exactly; any other metric
    comes back as it is.
    """
    d = metric.dist

    def build(idx: list[int]) -> HstNode | None:
        if len(idx) == 1:
            return leaf(metric.labels[idx[0]])
        delta = float(d[np.ix_(idx, idx)].max())
        groups: list[list[int]] = []
        for i in idx:
            group = next((g for g in groups if d[g[0], i] < delta), None)
            if group is None:
                groups.append([i])
            else:
                group.append(i)
        if len(groups) == 1:  # not an ultrametric
            return None
        children = [build(g) for g in groups]
        if any(c is None for c in children):
            return None
        return HstNode(delta=delta, children=tuple(children))

    node = build(list(range(metric.n)))
    if node is None:
        return metric
    ref = hst_metric(node)
    order = [ref.index(x) for x in metric.labels]
    if not np.array_equal(ref.dist[np.ix_(order, order)], d):
        return metric
    tree = replace(ref.tree, point_vertex=tuple(ref.tree.point_vertex[k] for k in order))
    return FiniteMetric(metric.labels, d, tree)


# ---------------------------------------------------------------------------
# general recursion


def rhst(u: Umts, tree: HstNode):
    """Recursive algorithm on a 5-separated HST.

    Every internal node combines its child subtrees under a half-contracted
    bucket-and-merge quotient on the uniform space of child representatives.
    Internal nodes carry constants (1, 1/2); the root exports (1, 1).
    """
    validate_hst(tree, 5.0)
    names = tree.leaves()
    if names != u.labels:
        raise ValueError("leaf labels must match the system's labels in order")
    ref = hst_metric(tree)
    if not np.allclose(u.metric.dist, ref.dist, atol=EPS_EQ):
        raise ValueError("system metric disagrees with the tree's leaf metric")

    alg = _rhst_node(u, tree)
    log_np = LOG_X_FLOOR + math.log(u.n)
    bound = 200.0 * u.s * log_np * math.log(log_np)
    if (u.rates <= 1.0 + 1e-12).all() and alg.declared_ratio > bound * (1 + 1e-9):
        raise AssertionError("tree recursion exceeded its ratio budget")
    return replace(
        alg,
        name=f"rhst({u.n})",
        eta=1.0,
        eta_variant_basis=1.0,
        descriptor={"family": "hst-recursion", "ratio_budget": bound, "inner": alg.descriptor},
    )


def _rhst_node(u_node: Umts, node: HstNode):
    if node.is_leaf:
        return trivial_algorithm(u_node)
    if len(node.children) == 1:
        return _rhst_node(u_node, node.children[0])
    blocks = [list(c.leaves()) for c in node.children]
    child_algs = [
        _rhst_node(block_subsystem(u_node, blk), c)
        for blk, c in zip(blocks, node.children)
    ]
    return combine(
        u_node,
        blocks,
        child_algs,
        quotient_builder=lambda q: rho_variant(combined_algorithm, q, 0.5),
        declared_beta=1.0,
        declared_eta=0.5,
    )


# ---------------------------------------------------------------------------
# weighted caching on a star


def star_to_hst(fetch_costs) -> HstNode:
    """Embed a star metric into a 6-separated HST of distortion below 12.

    Each point hangs on an arm of half its fetch cost. Points whose arm is
    at least a sixth of the longest become leaves of the root; the rest
    recurse as a single subtree."""
    costs = np.asarray(fetch_costs, dtype=float)
    star = make_star(costs)
    names = star.labels
    arms = costs / 2.0

    def build(idx: list[int]) -> HstNode:
        if len(idx) == 1:
            return leaf(names[idx[0]])
        a_max = max(arms[i] for i in idx)
        heavy = [i for i in idx if arms[i] >= a_max / 6.0 - EPS_EQ]
        light = [i for i in idx if i not in heavy]
        children = [leaf(names[i]) for i in heavy]
        if light:
            children.append(build(light))
        return HstNode(delta=2.0 * a_max, children=tuple(children))

    tree = build(list(range(len(names))))
    validate_hst(tree, 6.0)
    ref = hst_metric(tree)
    for i, a in enumerate(ref.labels):
        for j, b in enumerate(ref.labels):
            if i >= j:
                continue
            true = star.dist[star.index(a), star.index(b)]
            if ref.dist[i, j] < true - EPS_EQ or ref.dist[i, j] > 12.0 * true * (1 + EPS_EQ):
                raise AssertionError("tree metric must dominate the star within 12x")
    return tree


def weighted_caching_algorithm(fetch_costs, s: float = 1.0):
    """Caching algorithm for K+1 pages and K cache slots.

    The state is the page left out of the cache; fetching it back costs its
    weight, so the page metric is a star. The star is embedded into a
    6-separated tree and every internal node merges its one expensive child
    against its equal-rate leaf children under a half-contracted anchored
    quotient. The achieved ratio is checked against 60 s (ln(K+1) + 1/3).
    """
    costs = np.asarray(fetch_costs, dtype=float)
    tree = star_to_hst(costs)
    metric = hst_metric(tree)
    u = Umts(metric, np.ones(metric.n), s)
    alg = _caching_node(u, tree)
    bound = 60.0 * s * (math.log(metric.n) + 1.0 / 3.0)
    if alg.declared_ratio > bound * (1 + 1e-9):
        raise AssertionError("caching recursion exceeded its ratio budget")
    return replace(
        alg,
        name=f"caching({metric.n - 1})",
        descriptor={
            "family": "weighted-caching",
            "pages": metric.n,
            "fetch_costs": [float(c) for c in costs],
            "ratio_budget": bound,
            "inner": alg.descriptor,
        },
    )


def _caching_node(u_node: Umts, node: HstNode):
    if node.is_leaf:
        return trivial_algorithm(u_node)
    if len(node.children) == 1:
        return _caching_node(u_node, node.children[0])
    internal = [c for c in node.children if not c.is_leaf]
    leaves_ = [c for c in node.children if c.is_leaf]
    ordered = internal + leaves_
    blocks = [list(c.leaves()) for c in ordered]
    child_algs = [
        _caching_node(block_subsystem(u_node, blk), c)
        for blk, c in zip(blocks, ordered)
    ]
    return combine(
        u_node,
        blocks,
        child_algs,
        quotient_builder=lambda q: rho_variant(w_combined_algorithm, q, 0.5),
        declared_beta=1.0,
        declared_eta=0.6,
    )


# ---------------------------------------------------------------------------
# equally spaced line


def line_to_binary4_hst(n: int, gap: float = 1.0) -> HstNode:
    """Dyadic binary tree over 2^m equally spaced points, labels growing
    by factor 4 per level so the leaf metric dominates the line."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("point count must be a power of two")

    def build(lo: int, hi: int) -> HstNode:
        if hi - lo == 1:
            return leaf(f"x{lo + 1}")
        mid = (lo + hi) // 2
        left, right = build(lo, mid), build(mid, hi)
        span = (hi - lo - 1) * gap
        delta = max(span, 4.0 * max(left.delta, right.delta))
        return HstNode(delta=delta, children=(left, right))

    tree = build(0, n)
    if n > 1:
        validate_hst(tree, 4.0)
        ref = hst_metric(tree)
        for i in range(n):
            for j in range(n):
                if ref.dist[i, j] < gap * abs(i - j) - EPS_EQ:
                    raise AssertionError("tree metric must dominate the line")
    return tree


def line_algorithm(n: int, gap: float = 1.0, s: float = 1.0):
    """Recursion on the dyadic tree over an equally spaced line.

    Every node merges its two halves under a quarter-contracted two-state
    quotient, adding 4 s to the ratio per level: the declared ratio is
    1 + 4 s log2(n) on unit rates.
    """
    tree = line_to_binary4_hst(n, gap)
    metric = hst_metric(tree)
    u = Umts(metric, np.ones(n), s)

    def rec(u_node: Umts, node: HstNode):
        if node.is_leaf:
            return trivial_algorithm(u_node)
        blocks = [list(c.leaves()) for c in node.children]
        child_algs = [
            rec(block_subsystem(u_node, blk), c)
            for blk, c in zip(blocks, node.children)
        ]
        return combine(
            u_node,
            blocks,
            child_algs,
            quotient_builder=lambda q: rho_variant(two_stable, q, 0.25),
        )

    alg = rec(u, tree)
    expected = 1.0 + 4.0 * s * math.log2(n)
    if abs(alg.declared_ratio - expected) > 1e-6 * (1 + expected):
        raise AssertionError("line recursion ratio drifted from its closed form")
    return replace(
        alg,
        name=f"line({n})",
        descriptor={
            "family": "line-hst",
            "points": n,
            "ratio": alg.declared_ratio,
            "inner": alg.descriptor,
        },
    )
