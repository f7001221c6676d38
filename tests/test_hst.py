"""Tree metrics, separation lifting, and the recursive constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import drive
from umtslab import algorithms
from umtslab.algorithms import two_stable_ratio
from umtslab.core import Umts
from umtslab.harness import audit, play
from umtslab.hst import (
    HstNode,
    _dominates,
    hst_metric,
    leaf,
    line_algorithm,
    line_to_binary4_hst,
    rhst,
    star_to_hst,
    validate_hst,
    weighted_caching_algorithm,
    with_hst_realization,
)
from umtslab.metricspace import FiniteMetric, make_line, make_star, make_uniform
from umtslab.transport import _lp_cost, mcost_metric


def two_level_tree():
    return HstNode(
        delta=10.0,
        children=(
            HstNode(delta=2.0, children=(leaf("a"), leaf("b"))),
            HstNode(delta=2.0, children=(leaf("c"), leaf("d"))),
            leaf("e"),
        ),
    )


def test_hst_metric_distances_and_realization():
    m = hst_metric(two_level_tree())
    assert m.labels == ("a", "b", "c", "d", "e")
    i = {x: k for k, x in enumerate(m.labels)}
    assert m.dist[i["a"], i["b"]] == 2.0
    assert m.dist[i["a"], i["c"]] == 10.0
    assert m.dist[i["d"], i["e"]] == 10.0
    # the realization reproduces the same distances (validated on build),
    # and the diameter is the root label
    assert m.diameter() == 10.0


def random_tree(rng, delta, names):
    """A random tree over ``names`` whose labels shrink by 2 to 10 per level."""
    if len(names) == 1:
        return leaf(names[0])
    cuts = sorted(rng.choice(np.arange(1, len(names)), rng.integers(1, len(names)), replace=False))
    parts = np.split(np.array(names), cuts)
    return HstNode(delta, tuple(random_tree(rng, delta / rng.uniform(2.0, 10.0), list(g))
                                for g in parts))


def test_hst_metric_matches_the_ancestor_loop():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 20):
        tree = random_tree(rng, 10.0, [f"p{i}" for i in range(n)])
        m = hst_metric(tree)  # its realization is checked against dist on build
        assert m.labels == tree.leaves()
        expected = np.zeros((n, n))

        def fill(v):
            if v.is_leaf:
                return [m.index(v.leaf)]
            groups = [fill(c) for c in v.children]
            for gi, a in enumerate(groups):
                for b in groups[gi + 1:]:
                    expected[np.ix_(a, b)] = expected[np.ix_(b, a)] = v.delta
            return [i for g in groups for i in g]

        fill(tree)
        assert np.array_equal(m.dist, expected)


def test_ultrametrics_get_an_hst_realization():
    rng = np.random.default_rng(3)
    ref = hst_metric(line_to_binary4_hst(16))
    order = rng.permutation(16)
    labels = tuple(ref.labels[i] for i in order)
    bare = FiniteMetric(labels, ref.dist[np.ix_(order, order)])
    found = with_hst_realization(bare)
    assert found.tree is not None and found.labels == labels
    assert np.array_equal(found.dist, bare.dist)
    for _ in range(20):
        p, q = rng.dirichlet(np.ones(16)), rng.dirichlet(np.ones(16))
        cost = mcost_metric(found, p, q)
        assert cost == pytest.approx(mcost_metric(ref, p[np.argsort(order)], q[np.argsort(order)]),
                                     abs=1e-12)
        assert cost == pytest.approx(_lp_cost(bare.dist, p, q), abs=1e-9)
    assert with_hst_realization(FiniteMetric(("a", "b", "c", "d"), make_uniform(4).dist)).tree


def test_other_metrics_keep_the_lp():
    near = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    near[0, 2] = near[2, 0] = np.nextafter(2.0, 3.0)  # an ultrametric but for one bit
    for metric in (
        make_line(4),
        FiniteMetric(("a", "b", "c"), make_star([1.0, 2.0, 3.0]).dist),
        FiniteMetric(("a", "b", "c"), near),
    ):
        assert with_hst_realization(metric) is metric


def test_validate_hst_rejects_weak_separation():
    bad = HstNode(delta=10.0, children=(HstNode(delta=3.0, children=(leaf("a"), leaf("b"))), leaf("c")))
    validate_hst(bad, 3.0)
    with pytest.raises(ValueError, match="separation"):
        validate_hst(bad, 5.0)
    with pytest.raises(ValueError, match="duplicate"):
        validate_hst(HstNode(delta=1.0, children=(leaf("a"), leaf("a"))), 1.0)


def test_rhst_structure_and_run():
    tree = two_level_tree()
    m = hst_metric(tree)
    u = Umts(m, np.array([1.0, 0.5, 0.8, 1.0, 0.3]), 1.0)
    alg = rhst(u, tree)
    assert (alg.beta, alg.eta) == (1.0, 1.0)
    assert alg.eta_variant_basis == 1.0
    assert alg.declared_ratio <= alg.descriptor["ratio_budget"]
    p = alg.probabilities(np.zeros(5))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    report = audit(play(alg, drive(50, seed=2)))
    assert report["passed"], report["issues"]


def test_rhst_rejects_weak_tree_and_wrong_metric():
    tree = HstNode(delta=10.0, children=(HstNode(delta=3.0, children=(leaf("a"), leaf("b"))), leaf("c")))
    m = hst_metric(tree)
    with pytest.raises(ValueError, match="separation"):
        rhst(Umts(m, np.ones(3), 1.0), tree)
    good = two_level_tree()
    with pytest.raises(ValueError, match="metric"):
        rhst(Umts(make_star(np.ones(5), hst_metric(good).labels), np.ones(5), 1.0), good)


def test_rhst_rejects_a_metric_off_by_more_than_eps_eq():
    # the root distances of criterion 6's tree, 10, read 10.00009: within
    # numpy's default relative tolerance of 1e-5, far outside EPS_EQ
    tree = two_level_tree()
    ref = hst_metric(tree)
    dist = np.where(ref.dist == 10.0, 10.00009, ref.dist)
    assert (dist == 10.00009).sum() == 16
    with pytest.raises(ValueError, match="disagrees with the tree's leaf metric"):
        rhst(Umts(FiniteMetric(ref.labels, dist), np.ones(5), 1.0), tree)


def test_star_to_hst_shape_and_distortion():
    costs = np.array([10.0, 9.0, 2.0, 0.4, 0.3])
    tree = star_to_hst(costs)
    validate_hst(tree, 6.0)
    assert tree.delta == 10.0
    top = [c.leaf for c in tree.children if c.is_leaf]
    assert set(top) == {"v1", "v2", "v3"}
    sub = [c for c in tree.children if not c.is_leaf]
    assert len(sub) == 1 and set(sub[0].leaves()) == {"v4", "v5"}
    star = make_star(costs)
    m = hst_metric(tree)
    for a in m.labels:
        for b in m.labels:
            if a == b:
                continue
            hd = m.dist[m.index(a), m.index(b)]
            sd = star.dist[star.index(a), star.index(b)]
            assert sd - 1e-12 <= hd <= 12.0 * sd + 1e-12


def test_caching_equal_costs_ratio():
    alg = weighted_caching_algorithm(np.ones(8))
    # one flat node: anchored merge of eight unit-rate pages, tail ratio
    # 1 + 60 ln 7, merged against the anchor at distance ratio 10
    assert alg.declared_ratio == pytest.approx(
        two_stable_ratio(10.0, 1.0, 1.0 + 60.0 * math.log(7.0)), rel=1e-12
    )
    assert alg.declared_ratio <= 60.0 * (math.log(8.0) + 1.0 / 3.0)
    assert alg.descriptor["pages"] == 8


def test_caching_weighted_costs_run():
    alg = weighted_caching_algorithm(np.array([8.0, 1.0, 1.0, 0.9]))
    assert alg.declared_ratio <= alg.descriptor["ratio_budget"]
    report = audit(play(alg, drive(50, seed=9)))
    assert report["passed"], report["issues"]


def test_line_tree_labels_and_domination():
    tree = line_to_binary4_hst(8)
    assert tree.delta == 16.0
    assert tree.leaves() == tuple(f"x{i}" for i in range(1, 9))
    with pytest.raises(ValueError, match="power of two"):
        line_to_binary4_hst(6)


def test_line_algorithm_ratio_chain():
    for n, expected in ((2, 5.0), (4, 9.0), (8, 13.0), (16, 17.0)):
        alg = line_algorithm(n)
        assert alg.declared_ratio == pytest.approx(expected)
        assert alg.declared_ratio <= 8.0 * math.log(n) + 1e-9
    assert line_algorithm(4).declared_ratio == pytest.approx(
        two_stable_ratio(4.0, 5.0, 5.0)
    )


def test_line_phi_reads_each_block_potential_once(monkeypatch):
    alg, fresh = line_algorithm(16), line_algorithm(16)
    w = np.linspace(0.0, 3.0, 16)
    calls = []
    phi_raw = algorithms._ts_phi_raw

    def counted(*args):
        calls.append(args)
        return phi_raw(*args)

    monkeypatch.setattr(algorithms, "_ts_phi_raw", counted)
    alg.phi(w)
    # one two-state quotient potential per internal node of the 16-leaf tree
    assert len(calls) == 15
    calls.clear()
    # phi reads the block potentials probabilities computed, at every level
    fresh.probabilities(w)
    fresh.phi(w)
    assert len(calls) == 15


def test_line_algorithm_run():
    alg = line_algorithm(8)
    report = audit(play(alg, drive(50, seed=4)))
    assert report["passed"], report["issues"]


def test_each_application_keeps_its_child_order():
    # rhst combines the children in tree order, leaves first here; moving
    # the internal children first changes the blocks and the declared ratio
    tree = HstNode(
        delta=10.0,
        children=(
            leaf("e"),
            HstNode(2.0, (leaf("a"), leaf("b"))),
            leaf("f"),
            HstNode(2.0, (leaf("c"), leaf("d"))),
        ),
    )
    alg = rhst(Umts(hst_metric(tree), np.array([1.0, 0.5, 0.8, 1.0, 0.3, 0.7]), 1.0), tree)
    assert alg.parts.partition.blocks == (("e",), ("a", "b"), ("f",), ("c", "d"))
    assert alg.declared_ratio == 87.77021989710755
    # caching puts the internal child ahead of the leaves; in tree order the
    # anchored quotient refuses the first (unequal tail rates) and the
    # second's blocks swap
    blocks = {
        (4.0, 4.0, 0.2, 0.2): (("v3", "v4"), ("v1",), ("v2",)),
        (8.0, 1.0, 1.0, 0.9): (("v2", "v3", "v4"), ("v1",)),
    }
    for costs, expected in blocks.items():
        assert weighted_caching_algorithm(costs).parts.partition.blocks == expected


def pairwise_dominates(tree_metric, metric, stretch=None):
    """The domination check as a loop over the label pairs of two metrics."""
    for a in tree_metric.labels:
        for b in tree_metric.labels:
            if a == b:
                continue
            hd = tree_metric.dist[tree_metric.index(a), tree_metric.index(b)]
            d = metric.dist[metric.index(a), metric.index(b)]
            if hd < d - 1e-9 or (stretch is not None and hd > stretch * d * (1 + 1e-9)):
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_star_domination_matches_the_pair_loop(n, seed):
    rng = np.random.default_rng(seed)
    costs = np.exp(rng.uniform(-4.0, 4.0, n))
    tree = hst_metric(star_to_hst(costs))
    # the star the tree was built for, and one with its costs scaled by a
    # common factor and moved by up to 10% each, which may be undercut,
    # stretched more than 12x or still dominated
    moved = costs * np.exp(rng.uniform(-2.0, 0.3) + rng.uniform(-0.1, 0.1, n))
    for scaled in (costs, moved):
        star = make_star(scaled)
        order = [star.index(x) for x in tree.labels]
        assert _dominates(tree.dist, star.dist[np.ix_(order, order)], 12.0) == \
            pairwise_dominates(tree, star, 12.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.floats(0.01, 100.0), st.floats(0.5, 2.0))
def test_line_domination_matches_the_pair_loop(m, gap, scale):
    n = 2**m
    tree = hst_metric(line_to_binary4_hst(n, gap))
    line = make_line(n, gap * scale, labels=tree.labels)
    assert _dominates(tree.dist, line.dist) == pairwise_dominates(tree, line)
    assert _dominates(tree.dist, make_line(n, gap).dist)


@pytest.mark.filterwarnings("error")  # no inf * 0 on the diagonal
def test_domination_cases():
    d = make_line(4).dist
    assert _dominates(d, d)  # zero diagonal, no upper bound
    assert _dominates(d, d, 12.0)
    undercut = d.copy()
    undercut[0, 1] = undercut[1, 0] = 0.5
    assert not _dominates(undercut, d)
    assert not _dominates(12.5 * d, d, 12.0)
    assert _dominates(12.5 * d, d)
