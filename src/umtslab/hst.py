"""Hierarchically separated trees and the recursive constructions on them.

An HST is a rooted tree whose internal nodes carry diameter labels that
shrink by at least a factor k per level; the induced metric on its leaves
puts two leaves at the label of their lowest common ancestor.

Every tree application runs one recursion, ``_tree_rule``: each internal
node combines its children's rules under a quotient rule. ``rhst`` uses a
half-contracted bucket-and-merge quotient, which needs k >= 5 to keep the
combination constraint beta <= 1, and rejects trees separated less.
Weighted caching on a star embedded into a 6-separated tree, and an
equally spaced line embedded into a dyadic 4-separated binary tree, use
cheaper quotients (anchored and two-state merges); caching also puts
internal children ahead of leaves. One vectorised check, ``_dominates``,
tests each embedding against the metric it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from umtslab.algorithms import rho_variant, trivial_algorithm, two_stable
from umtslab.combiner import block_subsystem, combine
from umtslab.core import Umts
from umtslab.metricspace import FiniteMetric, TreeRealization, make_line, make_star
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
    dist = np.zeros((n, n))
    parent: list[int] = []
    weight: list[float] = []
    point_vertex = [0] * n

    def walk(v: HstNode, par: int, par_delta: float, lo: int) -> int:
        """Number ``v``'s subtree in preorder and fill the distances among
        its leaves, which are ``names[lo:hi]``; returns ``hi``."""
        vid = len(parent)
        parent.append(par)
        weight.append(0.0 if par < 0 else (par_delta - v.delta) / 2.0)
        if v.is_leaf:
            point_vertex[lo] = vid
            return lo + 1
        hi = lo
        for c in v.children:
            start, hi = hi, walk(c, vid, v.delta, hi)
            dist[lo:start, start:hi] = v.delta
            dist[start:hi, lo:start] = v.delta
        return hi

    walk(node, -1, node.delta, 0)
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
# the recursion, its domination check and the general tree algorithm


def _tree_rule(u: Umts, node: HstNode, quotient, declared=(None, None),
               internal_first: bool = False):
    """The rule on ``u``, the system of ``node``'s leaves: each node with
    more than one child combines its children's rules under ``quotient``
    with the ``declared`` (beta, eta), after moving internal children
    ahead of leaves if ``internal_first``."""
    if node.is_leaf:
        return trivial_algorithm(u)
    if len(node.children) == 1:
        return _tree_rule(u, node.children[0], quotient, declared, internal_first)
    children = node.children
    if internal_first:
        children = sorted(children, key=lambda c: c.is_leaf)
    blocks = [list(c.leaves()) for c in children]
    rules = [
        _tree_rule(block_subsystem(u, blk), c, quotient, declared, internal_first)
        for blk, c in zip(blocks, children)
    ]
    return combine(u, blocks, rules, quotient, *declared)


def _dominates(tree_dist: np.ndarray, dist: np.ndarray, stretch: float = math.inf) -> bool:
    """Whether every tree distance is at least ``dist`` (within ``EPS_EQ``)
    and at most ``stretch`` times it; an infinite ``stretch`` skips the
    upper bound, since inf * 0 on the diagonal would be NaN."""
    if (tree_dist < dist - EPS_EQ).any():
        return False
    return math.isinf(stretch) or not (tree_dist > stretch * dist * (1 + EPS_EQ)).any()


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
    if not np.abs(u.metric.dist - ref.dist).max(initial=0.0) <= EPS_EQ:
        raise ValueError("system metric disagrees with the tree's leaf metric")

    alg = _tree_rule(u, tree, lambda q: rho_variant(combined_algorithm, q, 0.5), (1.0, 0.5))
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
    pos = {x: i for i, x in enumerate(names)}
    order = [pos[x] for x in tree.leaves()]
    if not _dominates(hst_metric(tree).dist, star.dist[np.ix_(order, order)], 12.0):
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
    alg = _tree_rule(u, tree, lambda q: rho_variant(w_combined_algorithm, q, 0.5),
                     (1.0, 0.6), internal_first=True)
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
        if not _dominates(hst_metric(tree).dist, make_line(n, gap).dist):
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

    alg = _tree_rule(u, tree, lambda q: rho_variant(two_stable, q, 0.25))
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
