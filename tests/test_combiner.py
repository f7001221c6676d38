"""Combination arithmetic, product rule, and structural audits."""

import functools
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    combined_parts,
    drive,
    edge_quotient_crossings,
    reference_crossing_at,
    run_tasks,
)
from umtslab import cli, combiner, potential
from umtslab.algorithms import odd_exponent, rho_variant, trivial_algorithm, two_stable
from umtslab.combiner import (
    MEMO_SIZE,
    PointMemo,
    PotentialMemo,
    block_subsystem,
    combine,
    nice_beta_eta,
)
from umtslab.core import ElementaryTask, Umts, support_headrooms
from umtslab.harness import (
    ADVERSARY_KINDS,
    AdversaryConfig,
    adversary,
    audit,
    play,
    replay,
    simulate,
)
from umtslab.hst import line_algorithm, weighted_caching_algorithm
from umtslab.metricspace import FiniteMetric, TreeRealization, make_uniform
from umtslab.portfolio import combined_algorithm, w_combined_algorithm


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


def test_combine_rejects_a_block_rate_off_by_more_than_eps_eq():
    # 1e-6 off a rate of 1 is within numpy's default relative tolerance
    u = Umts(make_uniform(2, 1.0), np.array([2.0, 1.0]), 1.0)
    blocks = [["v1"], ["v2"]]
    subs = [block_subsystem(u, b) for b in blocks]
    subs[1] = replace(subs[1], rates=subs[1].rates + 1e-6)
    with pytest.raises(ValueError, match="rates or distance ratio disagree"):
        combine(u, blocks, [trivial_algorithm(sub) for sub in subs], two_stable)


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
    rep = audit(play(calg, drive(40, seed=3)))
    assert rep["passed"], rep
    for row in rep["trace"][1:]:
        assert abs(row["cost"] - row["qcost"]) < 1e-9


def test_audits_pass_on_two_level_instance():
    rep = audit(play(instance_a(), drive(60, seed=11)))
    assert rep["passed"], rep
    assert rep["cost"] > 0


def test_audits_pass_on_three_level_instance():
    rep = audit(play(instance_b(), drive(50, seed=13)))
    assert rep["passed"], rep


def test_audits_pass_on_singleton_quotient_instance():
    rep = audit(play(instance_c(), drive(60, seed=17)))
    assert rep["passed"], rep


def test_audits_pass_on_mixed_depth_instance():
    rep = audit(play(instance_d(), drive(50, seed=19)))
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
        cap = min(calg.zero_crossing(w, v), support_headrooms(calg.umts, w)[v])
        if cap > 0:
            from umtslab.core import apply_elementary

            w = apply_elementary(calg.umts, w, v, 0.5 * cap)


def test_singleton_block_charge_translates_as_is():
    run = play(instance_c(), replay([ElementaryTask("v2", 0.3)]))
    report = audit(run)
    row = report["trace"][1]
    assert row["block"] == 1 and abs(row["delta_hat"] - 0.3) < 1e-15
    assert row["w_blocks"][1] == [0.3]
    assert not [issue for issue in report["issues"] if issue.lemma == "hatw"]


def test_single_block_passthrough():
    u = Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), 1.0)
    a = two_stable(u)
    assert combine(u, [["v1", "v2"]], [a], ts_var(0.5)) is a


RULES = {
    "line": lambda: line_algorithm(16),
    "caching": lambda: weighted_caching_algorithm(np.random.default_rng(5).uniform(0.5, 2.0, 4)),
}


def all_memos(alg):
    """Every memo of a combined rule, point memos and those of nested rules
    included."""
    parts = alg.parts
    if parts is None:
        return []
    found = [*parts.memos, parts.quotient_memo]
    for a in [*parts.block_algs, parts.quotient_alg]:
        found += all_memos(a)
    return found


def assert_memos_bounded(alg):
    assert all(len(memo.entries) <= MEMO_SIZE for memo in all_memos(alg)
               if isinstance(memo, PotentialMemo))


def float_bits(values) -> bytes:
    """The float64 bytes of a float or a tuple of them, -0.0 told from 0.0."""
    return np.asarray(values, dtype=float).tobytes()


def value_bits(alg, w):
    """phi, probabilities and the zero crossing of every state at ``w``, as bytes."""
    crossings = [alg.zero_crossing(w, v) for v in range(alg.umts.n)]
    values = (alg.phi(w), alg.probabilities(w), crossings)
    return [np.asarray(x, dtype=float).tobytes() for x in values]


def memo_answers(memo, w, order, in_order_first):
    """The memo's distribution at ``w`` and its crossings of all states in
    state order. The crossings are asked one state at a time in state order
    and in the order ``order``, either first, then in the reverse of
    ``order``: each ask must agree, hit or miss."""
    p = memo.probabilities(w)
    assert not p.flags.writeable

    def asked(states):
        x = np.empty(len(order))
        for v in states:
            x[v] = memo.zero_crossing(w, v)
        return x.tobytes()

    in_order = range(len(order))
    asks = [asked(in_order), asked(order)] if in_order_first else [asked(order), asked(in_order)]
    asks.append(asked(order[::-1]))
    assert asks == asks[:1] * 3
    assert memo.probabilities(w) is p
    return [p.tobytes(), asks[0]]


@pytest.mark.parametrize("name", sorted(RULES))
def test_memo_hits_return_what_a_fresh_rule_computes(name):
    alg = RULES[name]()
    memos = all_memos(alg)
    ws = [np.zeros(alg.umts.n)]
    # every work function each memo has held, in the order it first held it;
    # a point memo holds none, so it is asked at -0.0, at a negative work
    # and at every entry of the run's work functions
    seen = [dict.fromkeys(np.array([x]).tobytes() for x in (-0.0, -1.5, 0.0))
            if isinstance(memo, PointMemo) else {} for memo in memos]
    for _, _, _, w2, _ in simulate(alg, adversary(AdversaryConfig(steps=25, seed=3))):
        w2 = np.array(w2)  # a list up to FLOAT_STATES states
        ws.append(w2)
        for memo, keys in zip(memos, seen):
            if isinstance(memo, PointMemo):
                keys.update(dict.fromkeys(np.array([x]).tobytes() for x in w2.tolist()))
            else:
                keys.update(dict.fromkeys(memo.entries))
        assert_memos_bounded(alg)
    assert len(ws) > 10 and any(isinstance(memo, PointMemo) for memo in memos)
    fresh = RULES[name]()
    fresh_memos = all_memos(fresh)

    def fresh_values(f):
        for memo in fresh_memos:
            if isinstance(memo, PotentialMemo):
                memo.entries.clear()
        return f()

    want = [fresh_values(lambda: value_bits(fresh, w)) for w in ws]
    order = list(reversed(range(len(ws))))
    order += np.random.default_rng(0).permutation(len(ws)).tolist()
    for i in order:
        assert value_bits(alg, ws[i]) == want[i]
        assert_memos_bounded(alg)

    # block and quotient memos: the latest work functions are hits, the
    # older ones misses; each ask in a shuffled state order. A point memo
    # also gives the rule's potential and G value.
    rng = np.random.default_rng(1)
    for memo, fmemo, keys in zip(memos, fresh_memos, seen):
        rule, n = fmemo.alg, fmemo.alg.umts.n
        for i, key in enumerate(list(keys)[-MEMO_SIZE - 4:]):
            w = np.frombuffer(key)
            got = memo_answers(memo, w, rng.permutation(n), i % 2 == 0)
            p = fresh_values(lambda: rule.probabilities(w))
            x = [fresh_values(lambda: rule.zero_crossing(w, v)) for v in range(n)]
            assert got == [p.tobytes(), np.array(x, dtype=float).tobytes()]
            if isinstance(memo, PointMemo):
                pot = rule.phi(w)
                assert float_bits(memo(w)) == float_bits((pot, rule.g_from(w, pot)))
            assert_memos_bounded(alg)


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("name", sorted(RULES))
def test_combined_audit_reads_a_generator_as_a_list(name, kind):
    config = AdversaryConfig(kind=kind, steps=15, seed=4)
    tasks = run_tasks(play(RULES[name](), adversary(config)))
    texts = []
    for materialise in (list, iter):  # iter hands replay a one-pass iterator
        alg = RULES[name]()
        report = audit(play(alg, replay(materialise(tasks))))
        assert report["kind"] == "combined" and report["steps"] > 0
        texts.append(json.dumps(report, default=vars, sort_keys=True))
    assert texts[0] == texts[1]


def test_combined_rule_off_the_simplex_fails_distribution():
    base = weighted_caching_algorithm(np.array([1.0, 0.7, 1.6]))
    alg = replace(base, probabilities=lambda w: 1.01 * base.probabilities(w))
    report = audit(play(alg, adversary(AdversaryConfig(steps=20, seed=5))))
    assert report["passed"] is False
    assert report["worst"]["distribution"]["step"] == 0
    assert math.isnan(report["cost"])
    assert all(math.isnan(row["cost"]) for row in report["trace"][1:])


def test_combined_start_off_the_simplex_leaves_only_the_first_step_unpriced():
    base = weighted_caching_algorithm(np.array([1.0, 0.7, 1.6]))

    def probabilities(w):
        return base.probabilities(w) * (1.01 if not np.any(w) else 1.0)

    alg = replace(base, probabilities=probabilities)
    report = audit(play(alg, adversary(AdversaryConfig(steps=20, seed=5))))
    assert len(report["issues"]) == 1
    worst = report["worst"]["distribution"]
    assert (worst["step"], worst["detail"]) == (0, "start is not a distribution")
    costs = [row["cost"] for row in report["trace"][1:]]
    assert math.isnan(costs[0]) and not any(map(math.isnan, costs[1:]))


def uniform(rates) -> Umts:
    return Umts(make_uniform(len(rates), 1.0), np.array(rates, dtype=float), 1.0)


# the combined rules of every shipped application, small enough to build in
# milliseconds; the caching quotient is a rho-variant wcombined rule
COMBINED_RULES = {
    "caching": lambda: weighted_caching_algorithm([1.0, 0.6, 1.7, 1.2]),
    "line": lambda: line_algorithm(8),
    "combined": lambda: combined_algorithm(uniform([2.0, 1.0, 0.5, 3.0])),
    "wcombined": lambda: w_combined_algorithm(uniform([3.0, 1.0, 1.0, 1.0, 1.0, 1.0])),
}
# each shipped family on its own: the band and the gridded odd-exponent
# potentials, the closed-form two-state one and the zero one
FAMILY_RULES = {
    "trivial": lambda: trivial_algorithm(uniform([2.0, 1.0, 0.5])),
    "odd-exponent-b2": lambda: odd_exponent(uniform([1.0, 2.0])),
    "odd-exponent-b4": lambda: odd_exponent(uniform([1.0, 1.0, 1.0, 1.0])),
    "two-stable": lambda: two_stable(uniform([2.5, 0.5])),
    "rho-two-stable": lambda: rho_variant(two_stable, uniform([1.0, 3.0]), 0.2),
    **COMBINED_RULES,
}


@functools.cache
def built(name: str, copy: int = 0):
    """The named rule, built once per ``copy``: rules are immutable, and
    each copy's memos hold only what that copy computed."""
    return FAMILY_RULES[name]()


def nested_rules(alg) -> list:
    """The rule and, recursively, every block and quotient rule it combines,
    those of a combined rule under a rho-variant included."""
    parts = combined_parts(alg)
    if parts is None:
        return [alg]
    return [alg] + [r for a in [*parts.block_algs, parts.quotient_alg] for r in nested_rules(a)]


def work_function(data, n: int, scale: float) -> np.ndarray:
    """A drawn work function of ``n`` entries in [-4, 4] times ``scale``."""
    entries = st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)
    return np.array(data.draw(entries)) * scale


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FAMILY_RULES)), st.data())
def test_potentials_are_non_negative(name, data):
    """The combined crossing's bound drops phi / r from the block G value,
    which needs every potential it may meet to be non-negative."""
    for alg in nested_rules(built(name)):
        w = work_function(data, alg.umts.n, max(alg.umts.diameter(), 1.0))
        assert alg.phi(w) >= 0.0, (alg.name, w)


def reference_crossings(name: str, w: np.ndarray) -> np.ndarray:
    """The crossing of every state of the rule's own copy that runs the
    unpruned reference in every combination it nests."""
    alg = built(name, 1)
    with mock.patch.object(combiner, "_crossing_at", reference_crossing_at):
        return np.array([alg.zero_crossing(w, v) for v in range(alg.umts.n)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COMBINED_RULES)), st.sampled_from(ADVERSARY_KINDS),
       st.integers(0, 2**32 - 1), st.integers(0, 12), st.booleans(), st.data())
def test_combined_crossings_equal_the_unpruned_reference(name, kind, seed, steps, shift, data):
    """At work functions a run reaches, shifted by a drawn one (negative
    entries included) or not, every state's combined crossing has the bits
    of the reference's, which evaluates the block potential at every trial
    charge."""
    alg = built(name)
    w = np.zeros(alg.umts.n)
    config = AdversaryConfig(kind=kind, steps=steps, seed=seed)
    for _, _, _, w, _ in simulate(alg, adversary(config)):
        pass
    if shift:
        w = w + work_function(data, alg.umts.n, 0.25 * alg.umts.diameter())
    got = np.array([alg.zero_crossing(w, v) for v in range(alg.umts.n)])
    assert got.tobytes() == reference_crossings(name, w).tobytes()


def test_crossings_skip_potentials_on_the_caching_workload(tmp_path, monkeypatch):
    """The seed-0 caching-k3 workload config makes fewer gridded potential
    calls than with the unpruned reference crossing, and writes the same
    outputs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = tmp_path / "caching-k3.json"
    config.write_text(json.dumps(dict(workloads.make_configs("caching", 0))["caching-k3"]))
    calls = [0]
    phi = potential.PotentialEstimate.phi

    def counted(self, w):
        calls[0] += 1
        return phi(self, w)

    monkeypatch.setattr(potential.PotentialEstimate, "phi", counted)
    counts, trees = [], []
    for crossing_at in (combiner._crossing_at, reference_crossing_at):
        monkeypatch.setattr(combiner, "_crossing_at", crossing_at)
        calls[0] = 0
        out = tmp_path / f"out{len(trees)}"
        assert cli.main(["run", str(config), "--deterministic", "--out", str(out)]) == 0
        counts.append(calls[0])
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in sorted(out.rglob("*")) if f.is_file()})
    assert counts[0] < counts[1]
    assert trees[0] == trees[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COMBINED_RULES)), st.integers(0, 2**32 - 1),
       st.integers(0, 12))
def test_crossing_at_equals_the_reference_where_the_bound_changes_sign(name, seed, steps):
    """For each block state with a finite block crossing, in the rule and
    every combined rule it nests, at work functions a run reaches,
    ``_crossing_at`` and the reference agree bit for bit at quotient
    crossings on either side of the one that puts the bound at zero."""
    alg = built(name)
    w = np.zeros(alg.umts.n)
    for _, _, _, w, _ in simulate(alg, adversary(AdversaryConfig(steps=steps, seed=seed))):
        pass
    w = np.asarray(w)  # a list up to FLOAT_STATES states
    checked = 0
    todo = [(alg, w)]
    while todo:
        rule, w = todo.pop()
        parts = combined_parts(rule)
        if parts is None:
            continue
        ws = parts.split(w)
        todo += [*zip(parts.block_algs, ws), (parts.quotient_alg, parts.hat_work(w))]
        for memo, wb in zip(parts.memos, ws):
            g0 = memo(wb)[1]
            for lv in range(len(wb)):
                xb = memo.zero_crossing(wb, lv)
                if not math.isfinite(xb):
                    continue
                wb2 = wb.copy()
                wb2[lv] += xb
                for xq in edge_quotient_crossings(memo.alg.g_from(wb2, 0.0) - g0):
                    got = combiner._crossing_at(memo, wb, lv, g0, xb, xq)
                    assert got == reference_crossing_at(memo, wb, lv, g0, xb, xq), (xq, xb)
                    checked += 1
    assert checked > 0


# rules whose combinations hold one-state blocks, the trivial leaves of the
# shipped applications: caching on K + 1 = 4 and 8 points, the combined and
# wcombined rules on 5 and 8 points and the line on 8
POINT_RULES = {
    "caching-k3": lambda: weighted_caching_algorithm([1.0, 0.6, 1.7, 1.2]),
    "caching-k7": lambda: weighted_caching_algorithm([1.0, 0.6, 1.7, 1.2, 0.8, 1.9, 0.5, 1.1]),
    "combined-n5": lambda: combined_algorithm(uniform([2.0, 1.0, 0.5, 3.0, 1.5])),
    "wcombined-n8": lambda: w_combined_algorithm(uniform([3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])),
    "line-8": lambda: line_algorithm(8),
}


@functools.cache
def block_memos(name: str) -> list:
    """Every block memo of the named rule, built once, and of the rules it
    nests."""
    return [memo for rule in nested_rules(POINT_RULES[name]())
            if (parts := combined_parts(rule)) is not None for memo in parts.memos]


def point_memos(name: str) -> list:
    return [memo for memo in block_memos(name) if isinstance(memo, PointMemo)]


def one_entry(data) -> np.ndarray:
    """A drawn one-state work function, -0.0 and large values included."""
    return np.array([data.draw(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300]))])


@pytest.mark.parametrize("name", sorted(POINT_RULES))
def test_one_state_blocks_get_point_memos(name):
    """Every one-state block of the shipped applications gets a point memo;
    every other block keeps a potential memo."""
    for memo in block_memos(name):
        assert isinstance(memo, PointMemo) == (memo.alg.umts.n == 1), memo.alg.name
    assert point_memos(name)


def test_one_state_rule_that_answers_otherwise_keeps_its_memo():
    """A one-state rule whose potential at w = [0] is not 0 keeps a
    potential memo, and the G values then go through the memos."""
    u = uniform([2.0, 1.0, 0.5])
    blocks = [["v1"], ["v2"], ["v3"]]
    algs = [trivial_algorithm(block_subsystem(u, b)) for b in blocks]
    algs[0] = replace(algs[0], phi=lambda w: 0.5)
    parts = combine(u, blocks, algs, lambda uu: rho_variant(odd_exponent, uu, 0.2)).parts
    assert [type(memo) for memo in parts.memos] == [PotentialMemo, PointMemo, PointMemo]
    assert not parts.all_points


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(POINT_RULES)), st.data())
def test_point_memos_answer_as_a_potential_memo_of_their_rule(name, data):
    """At drawn one-state work functions each point memo's potential, G
    value, distribution and crossing have the bits of a potential memo's
    over the same trivial rule."""
    for memo in point_memos(name):
        w = one_entry(data)
        ref = PotentialMemo(memo.alg)
        assert float_bits(memo(w)) == float_bits(ref(w))
        assert memo.probabilities(w).tobytes() == ref.probabilities(w).tobytes()
        assert not memo.probabilities(w).flags.writeable
        for v in (0, np.int64(0)):
            assert float_bits(memo.zero_crossing(w, v)) == float_bits(ref.zero_crossing(w, v))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(POINT_RULES)), st.data())
def test_crossing_at_a_point_block_equals_the_reference(name, data):
    """Over a point block, ``_crossing_at`` on Python floats has the bits of
    the reference through a potential memo of the trivial rule, at the
    block's own G value or a drawn one and at drawn quotient crossings."""
    for memo in point_memos(name):
        w = one_entry(data)
        g0 = memo(w)[1] if data.draw(st.booleans()) else data.draw(st.floats(-1e3, 1e3))
        xq = data.draw(st.sampled_from([0.0, 1e-300, 1e-7, math.inf])
                       | st.floats(0.0, 1e3) | st.floats(0.0, 1e-6))
        got = combiner._crossing_at(memo, w, 0, g0, math.inf, xq)
        want = reference_crossing_at(PotentialMemo(memo.alg), w, 0, g0, math.inf, xq)
        assert float_bits(got) == float_bits(want), (w, g0, xq)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FAMILY_RULES)), st.sampled_from(ADVERSARY_KINDS),
       st.integers(0, 2**32 - 1), st.integers(0, 12), st.booleans(), st.data())
def test_one_state_crossing_is_a_float_for_an_int_or_a_numpy_integer(name, kind, seed, steps,
                                                                       shift, data):
    """At work functions a run reaches, shifted or not, the crossing of each
    state, asked of one copy of the rule as an int and of another as a numpy
    integer, is a Python float with the same bits from both."""
    alg = built(name)
    w = np.zeros(alg.umts.n)
    config = AdversaryConfig(kind=kind, steps=steps, seed=seed)
    for _, _, _, w, _ in simulate(alg, adversary(config)):
        pass
    if shift:
        w = w + work_function(data, alg.umts.n, 0.25 * alg.umts.diameter())
    other = built(name, 2)
    for v in data.draw(st.permutations(range(alg.umts.n))):
        want = alg.zero_crossing(w, v)
        got = other.zero_crossing(w, np.int64(v))
        assert type(want) is float and type(got) is float, (v, want, got)
        assert float_bits(got) == float_bits(want), (v, got, want)
