"""Combination arithmetic, product rule, and structural audits."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import combined_run, drive
from umtslab.algorithms import odd_exponent, rho_variant, trivial_algorithm, two_stable
from umtslab.combiner import MEMO_SIZE, block_subsystem, combine, nice_beta_eta
from umtslab.core import ElementaryTask, Umts, support_headroom
from umtslab.harness import (
    ADVERSARY_KINDS,
    AdversaryConfig,
    adversary,
    audit_steps,
    replay,
    simulate,
)
from umtslab.hst import line_algorithm, weighted_caching_algorithm
from umtslab.metricspace import FiniteMetric, TreeRealization, make_uniform


def two_level_metric():
    d = np.array(
        [
            [0.0, 1.0, 5.0, 5.0],
            [1.0, 0.0, 5.0, 5.0],
            [5.0, 5.0, 0.0, 1.0],
            [5.0, 5.0, 1.0, 0.0],
        ]
    )
    tree = TreeRealization(
        parent=(-1, 0, 0, 1, 1, 2, 2),
        edge_weight=(0.0, 2.0, 2.0, 0.5, 0.5, 0.5, 0.5),
        point_vertex=(3, 4, 5, 6),
    )
    return FiniteMetric(("v1", "v2", "v3", "v4"), d, tree)


def three_level_metric():
    labels = tuple(f"v{i}" for i in range(1, 9))
    d = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            if i // 2 == j // 2:
                d[i, j] = 1.0
            elif i // 4 == j // 4:
                d[i, j] = 5.0
            else:
                d[i, j] = 25.0
    parent = [-1, 0, 0, 1, 1, 2, 2] + [3, 3, 4, 4, 5, 5, 6, 6]
    weights = [0.0, 10.0, 10.0, 2.0, 2.0, 2.0, 2.0] + [0.5] * 8
    tree = TreeRealization(tuple(parent), tuple(weights), tuple(range(7, 15)))
    return FiniteMetric(labels, d, tree)


def ts_var(rho):
    return lambda uu: rho_variant(two_stable, uu, rho)


def instance_a():
    u = Umts(two_level_metric(), np.array([1.0, 2.0, 3.0, 1.0]), 1.0)
    blocks = [["v1", "v2"], ["v3", "v4"]]
    balgs = [ts_var(0.1)(block_subsystem(u, b)) for b in blocks]
    return combine(u, blocks, balgs, ts_var(0.1))


def instance_b():
    u = Umts(three_level_metric(), np.linspace(1.0, 2.4, 8), 1.0)
    quads = []
    for q in range(2):
        labels = [f"v{i}" for i in range(4 * q + 1, 4 * q + 5)]
        sub = block_subsystem(u, labels)
        pairs = [labels[:2], labels[2:]]
        balgs = [ts_var(0.1)(block_subsystem(sub, b)) for b in pairs]
        quads.append(combine(sub, pairs, balgs, ts_var(0.1)))
    blocks = [[f"v{i}" for i in range(1, 5)], [f"v{i}" for i in range(5, 9)]]
    return combine(u, blocks, quads, ts_var(0.1))


def instance_c():
    u = Umts(make_uniform(3, 1.0), np.array([2.0, 1.0, 0.5]), 1.0)
    blocks = [["v1"], ["v2"], ["v3"]]
    balgs = [trivial_algorithm(block_subsystem(u, b)) for b in blocks]
    return combine(u, blocks, balgs, lambda uu: rho_variant(odd_exponent, uu, 0.2))


def instance_d():
    labels = ("v1", "v2", "v3", "v4", "v5", "v6")
    d = np.zeros((6, 6))
    base = two_level_metric().dist
    d[:4, :4] = base
    d[4, 5] = d[5, 4] = 1.0
    d[:4, 4:] = 50.0
    d[4:, :4] = 50.0
    parent = (-1, 0, 0, 1, 1, 3, 3, 4, 4, 2, 2)
    weights = (0.0, 23.5, 23.5, 2.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    tree = TreeRealization(parent, weights, (5, 6, 7, 8, 9, 10))
    m = FiniteMetric(labels, d, tree)
    u = Umts(m, np.array([1.0, 2.0, 3.0, 1.0, 0.5, 2.5]), 1.0)
    inner_blocks = [["v1", "v2"], ["v3", "v4"]]
    sub = block_subsystem(u, ["v1", "v2", "v3", "v4"])
    inner = combine(
        sub,
        inner_blocks,
        [ts_var(0.1)(block_subsystem(sub, b)) for b in inner_blocks],
        ts_var(0.1),
    )
    pair = ts_var(0.1)(block_subsystem(u, ["v5", "v6"]))
    return combine(u, [["v1", "v2", "v3", "v4"], ["v5", "v6"]], [inner, pair], ts_var(0.1))


def test_nice_arithmetic_reproduces_published_constants():
    beta, eta = nice_beta_eta(1.0, (0.2, 0.2), [(0.1, 0.1), (0.1, 0.1)])
    assert abs(beta - 0.5) < 1e-12 and abs(eta - 0.3) < 1e-12
    beta, eta = nice_beta_eta(1.0, (0.1, 0.2), [(0.1, 0.1), (0.5, 0.3)])
    assert abs(beta - 1.0) < 1e-12 and abs(eta - 0.5) < 1e-12
    beta, eta = nice_beta_eta(5.0, (0.5, 0.25), [(1.0, 0.5), (1.0, 0.5)])
    assert abs(beta - 1.0) < 1e-12 and abs(eta - 0.35) < 1e-12


def test_combine_computes_general_constants():
    a = instance_a()
    assert abs(a.beta - 0.18) < 1e-12
    assert abs(a.eta - 0.24) < 1e-12
    assert a.parts is not None
    q = a.parts.quotient_alg
    assert abs(a.declared_ratio - q.declared_ratio) < 1e-12


def test_combine_rejects_unsound_requests():
    u = Umts(two_level_metric(), np.ones(4), 1.0)
    blocks = [["v1", "v2"], ["v3", "v4"]]
    balgs = [two_stable(block_subsystem(u, b)) for b in blocks]
    # raw two-point blocks carry beta = 1, eta = 4: beta lands above 1
    with pytest.raises(ValueError):
        combine(u, blocks, balgs, ts_var(0.1))
    vargs = [ts_var(0.1)(block_subsystem(u, b)) for b in blocks]
    with pytest.raises(ValueError):
        combine(u, blocks, vargs, ts_var(0.1), declared_beta=0.01)


def test_two_singletons_reduce_to_the_quotient_rule():
    u = Umts(make_uniform(2, 1.0), np.array([2.0, 0.0]), 1.0)
    blocks = [["v1"], ["v2"]]
    balgs = [trivial_algorithm(block_subsystem(u, b)) for b in blocks]
    calg = combine(u, blocks, balgs, two_stable)
    direct = two_stable(u)
    assert abs(calg.declared_ratio - direct.declared_ratio) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(25):
        y = rng.uniform(-1.0, 1.0)
        w = np.array([max(y, 0.0), max(-y, 0.0)])
        assert np.allclose(calg.probabilities(w), direct.probabilities(w), atol=1e-12)
        assert abs(calg.zero_crossing(w, 0) - direct.zero_crossing(w, 0)) < 1e-9
    run = combined_run(calg, drive(40, seed=3))
    rep = run.report()
    assert rep["passed"], rep
    for row in run.trace:
        assert abs(row["cost"] - row["qcost"]) < 1e-9


def test_audits_pass_on_two_level_instance():
    run = combined_run(instance_a(), drive(60, seed=11))
    rep = run.report()
    assert rep["passed"], rep
    assert rep["cost"] > 0


def test_audits_pass_on_three_level_instance():
    run = combined_run(instance_b(), drive(50, seed=13))
    rep = run.report()
    assert rep["passed"], rep


def test_audits_pass_on_singleton_quotient_instance():
    run = combined_run(instance_c(), drive(60, seed=17))
    rep = run.report()
    assert rep["passed"], rep


def test_audits_pass_on_mixed_depth_instance():
    run = combined_run(instance_d(), drive(50, seed=19))
    rep = run.report()
    assert rep["passed"], rep


def test_product_measure_marginals():
    calg = instance_a()
    parts = calg.parts
    rng = np.random.default_rng(23)
    w = np.zeros(4)
    for _ in range(10):
        p = calg.probabilities(w)
        p_hat = parts.quotient_alg.probabilities(parts.hat_work(w))
        for j, idx in enumerate(parts.global_index):
            assert abs(p[idx].sum() - p_hat[j]) < 1e-12
        v = int(rng.integers(4))
        cap = min(calg.zero_crossing(w, v), support_headroom(calg.umts, w, v))
        if cap > 0:
            from umtslab.core import apply_elementary

            w = apply_elementary(calg.umts, w, v, 0.5 * cap)


def test_singleton_block_charge_translates_as_is():
    run = combined_run(instance_c(), replay([ElementaryTask("v2", 0.3)]))
    run.report()
    row = run.trace[0]
    assert row["block"] == 1 and abs(row["delta_hat"] - 0.3) < 1e-15
    assert row["w_blocks"][1] == [0.3]
    assert not [issue for issue in run.issues if issue.lemma == "hatw"]


def test_single_block_passthrough():
    u = Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), 1.0)
    a = two_stable(u)
    assert combine(u, [["v1", "v2"]], [a], ts_var(0.5)) is a


RULES = {
    "line": lambda: line_algorithm(16),
    "caching": lambda: weighted_caching_algorithm(np.random.default_rng(5).uniform(0.5, 2.0, 4)),
}


def all_memos(alg):
    """Every potential memo of a combined rule, those of nested rules included."""
    parts = alg.parts
    if parts is None:
        return []
    found = [*parts.memos, parts.quotient_memo]
    for a in [*parts.block_algs, parts.quotient_alg]:
        found += all_memos(a)
    return found


def assert_memos_bounded(alg):
    assert all(len(memo.entries) <= MEMO_SIZE for memo in all_memos(alg))


def value_bits(alg, w):
    """phi, probabilities and the zero crossing of every state at ``w``, as bytes."""
    values = (alg.phi(w), alg.probabilities(w), alg.zero_crossing(w, np.arange(alg.umts.n)))
    return [np.asarray(x, dtype=float).tobytes() for x in values]


def memo_answers(memo, w, order, singles_first):
    """The memo's distribution at ``w`` and its crossings of all states in
    state order. The crossings are asked state by state and as the array
    ``order``, in either order, then as the reversed array: each ask must
    agree, hit or miss."""
    p = memo.probabilities(w)
    assert not p.flags.writeable

    def as_array(states):
        x = np.empty(len(states))
        x[states] = memo.zero_crossing(w, states)
        return x.tobytes()

    def singly():
        return np.array([memo.zero_crossing(w, v) for v in range(len(order))]).tobytes()

    asks = [singly(), as_array(order)] if singles_first else [as_array(order), singly()]
    asks.append(as_array(order[::-1]))
    assert asks == asks[:1] * 3
    assert memo.probabilities(w) is p
    return [p.tobytes(), asks[0]]


@pytest.mark.parametrize("name", sorted(RULES))
def test_memo_hits_return_what_a_fresh_rule_computes(name):
    alg = RULES[name]()
    memos = all_memos(alg)
    ws = [np.zeros(alg.umts.n)]
    # every work function each memo has held, in the order it first held it
    seen = [{} for _ in memos]
    for rec in simulate(alg, adversary(AdversaryConfig(steps=25, seed=3))):
        ws.append(rec.w2)
        for memo, keys in zip(memos, seen):
            keys.update(dict.fromkeys(memo.entries))
        assert_memos_bounded(alg)
    assert len(ws) > 10 and memos
    fresh = RULES[name]()
    fresh_memos = all_memos(fresh)

    def fresh_values(f):
        for memo in fresh_memos:
            memo.entries.clear()
        return f()

    want = [fresh_values(lambda: value_bits(fresh, w)) for w in ws]
    order = list(reversed(range(len(ws))))
    order += np.random.default_rng(0).permutation(len(ws)).tolist()
    for i in order:
        assert value_bits(alg, ws[i]) == want[i]
        assert_memos_bounded(alg)

    # block and quotient memos: the latest work functions are hits, the
    # older ones misses; each ask in a shuffled state order
    rng = np.random.default_rng(1)
    for memo, fmemo, keys in zip(memos, fresh_memos, seen):
        rule, n = fmemo.alg, fmemo.alg.umts.n
        for i, key in enumerate(list(keys)[-MEMO_SIZE - 4:]):
            w = np.frombuffer(key)
            got = memo_answers(memo, w, rng.permutation(n), i % 2 == 0)
            p = fresh_values(lambda: rule.probabilities(w))
            x = [fresh_values(lambda: rule.zero_crossing(w, v)) for v in range(n)]
            assert got == [p.tobytes(), np.array(x, dtype=float).tobytes()]
            assert_memos_bounded(alg)


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("name", sorted(RULES))
def test_combined_audit_reads_a_generator_as_a_list(name, kind):
    config = AdversaryConfig(kind=kind, steps=15, seed=4)
    texts = []
    for materialise in (list, iter):  # iter leaves the generator as it is
        alg = RULES[name]()
        report = audit_steps(alg, materialise(simulate(alg, adversary(config))))
        assert report["kind"] == "combined" and report["steps"] > 0
        texts.append(json.dumps(report, default=vars, sort_keys=True))
    assert texts[0] == texts[1]


def test_combined_rule_off_the_simplex_fails_distribution():
    base = weighted_caching_algorithm(np.array([1.0, 0.7, 1.6]))
    alg = replace(base, probabilities=lambda w: 1.01 * base.probabilities(w))
    report = audit_steps(alg, simulate(alg, adversary(AdversaryConfig(steps=20, seed=5))))
    assert report["passed"] is False
    assert report["worst"]["distribution"]["step"] == 0
    assert math.isnan(report["cost"])
    assert all(math.isnan(row["cost"]) for row in report["trace"][1:])


def test_combined_start_off_the_simplex_leaves_only_the_first_step_unpriced():
    base = weighted_caching_algorithm(np.array([1.0, 0.7, 1.6]))

    def probabilities(w):
        return base.probabilities(w) * (1.01 if not np.any(w) else 1.0)

    alg = replace(base, probabilities=probabilities)
    report = audit_steps(alg, simulate(alg, adversary(AdversaryConfig(steps=20, seed=5))))
    assert report["issues"] == 1
    worst = report["worst"]["distribution"]
    assert (worst["step"], worst["detail"]) == (0, "start is not a distribution")
    costs = [row["cost"] for row in report["trace"][1:]]
    assert math.isnan(costs[0]) and not any(map(math.isnan, costs[1:]))
