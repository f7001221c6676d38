"""Adversary generators, offline optimum, and run audits."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    offline_exhaustive,
    random_metric,
    reference_greedy_pick,
    reference_offline_opt,
    reference_play,
    run_tasks,
)
from test_atomic_audit import as_text, assert_same_report
from test_combined_audit import assert_same_audit
from umtslab import harness
from umtslab.algorithms import odd_exponent, trivial_algorithm, two_stable
from umtslab.core import (
    FLOAT_STATES,
    ElementaryTask,
    GeneralTask,
    Umts,
    apply_elementary,
    flat_work_function,
    online_step_cost,
    support_headrooms,
)
from umtslab.harness import (
    ADVERSARY_KINDS,
    AdversaryConfig,
    _greediest,
    adversary,
    audit,
    offline_opt,
    play,
    ratio_report,
    replay,
    simulate,
)
from umtslab.hst import line_algorithm, weighted_caching_algorithm
from umtslab.metricspace import FiniteMetric, make_uniform
from umtslab.portfolio import combined_algorithm, w_combined_algorithm
from umtslab.tolerances import EPS_EQ


def uniform_umts(rates, s=1.0, d=1.0):
    rates = np.asarray(rates, dtype=float)
    return Umts(make_uniform(len(rates), d=d), rates, s)


def test_adversary_config_validation():
    with pytest.raises(ValueError, match="kind"):
        AdversaryConfig(kind="chaotic")
    with pytest.raises(ValueError, match="fraction"):
        AdversaryConfig(max_fraction=1.0)
    with pytest.raises(ValueError, match="steps"):
        AdversaryConfig(steps=-1)
    # counts a run would misread: 2.5 charges 3 times, True once, and a
    # fractional seed fails inside numpy once the run starts
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="steps must be an integer"):
            AdversaryConfig(steps=bad)
    for bad in (2.5, 3.0, False, "3", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            AdversaryConfig(seed=bad)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        AdversaryConfig(seed=-1)
    assert AdversaryConfig(steps=np.int64(3), seed=np.int64(0)).steps == 3


def generated(alg, config):
    """The tasks the configured adversary charges against ``alg``."""
    return run_tasks(play(alg, adversary(config)))


def test_generate_sequence_deterministic():
    alg = two_stable(uniform_umts([3.0, 1.0]))
    cfg = AdversaryConfig(kind="uniform-random", steps=50, seed=11)
    first = [(t.state, t.delta) for t in generated(alg, cfg)]
    second = [(t.state, t.delta) for t in generated(alg, cfg)]
    assert first == second
    assert len(first) == 50
    other = AdversaryConfig(kind="uniform-random", steps=50, seed=12)
    assert first != [(t.state, t.delta) for t in generated(alg, other)]


def test_generated_charges_stay_admissible():
    alg = odd_exponent(uniform_umts([1.0, 1.0, 1.0, 1.0]))
    u = alg.umts
    for kind in ("uniform-random", "greedy-pressure", "support-raiser"):
        tasks = generated(alg, AdversaryConfig(kind=kind, steps=40, seed=3))
        assert tasks
        w = flat_work_function(u)
        for t in tasks:
            v = u.metric.index(t.state)
            assert alg.probabilities(w)[v] > 1e-9
            assert t.delta < alg.zero_crossing(w, v)
            assert t.delta < support_headrooms(u, w)[v]
            w = apply_elementary(u, w, v, t.delta)


def test_greedy_pressure_spreads_charges():
    alg = two_stable(uniform_umts([1.0, 1.0]))
    tasks = generated(alg, AdversaryConfig(kind="greedy-pressure", steps=30, seed=0))
    states = {t.state for t in tasks}
    assert states == {"v1", "v2"}


def test_offline_opt_two_point():
    u = uniform_umts([2.0, 1.0])
    assert offline_opt(u, []) == 0.0
    assert offline_opt(u, [ElementaryTask("v1", 10.0)]) == pytest.approx(1.0, abs=1e-12)
    both = [ElementaryTask("v1", 10.0), ElementaryTask("v2", 10.0)]
    assert offline_opt(u, both) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_offline_opt_equals_exhaustive_search(n, horizon, seed):
    rng = np.random.default_rng(seed)
    d = random_metric(rng, n)
    u = Umts(FiniteMetric(tuple(f"x{i}" for i in range(n)), d), np.ones(n), 1.0)
    rows = [rng.random(n) * (rng.random(n) < 0.6) for _ in range(horizon)]
    tasks = []
    for row in rows:
        charged = np.flatnonzero(row)
        if len(charged) == 1:
            tasks.append(ElementaryTask(u.labels[charged[0]], float(row[charged[0]])))
        else:
            tasks.append(GeneralTask(row))
    assert offline_opt(u, tasks) == pytest.approx(offline_exhaustive(d, 0, rows), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_offline_opt_equals_the_apply_task_chain(n, horizon, seed):
    """Elementary and general tasks mixed, the list-stepped optimum equals
    the chain of ``apply_task`` calls bit for bit."""
    rng = np.random.default_rng(seed)
    n = 2 * n
    u = Umts(FiniteMetric(tuple(f"x{i}" for i in range(n)), random_metric(rng, n)),
             np.ones(n), 1.0, f"x{rng.integers(n)}")
    tasks = []
    for _ in range(horizon):
        if rng.random() < 0.3:
            tasks.append(GeneralTask(rng.random(n) * (rng.random(n) < 0.6)))
        else:
            tasks.append(ElementaryTask(f"x{rng.integers(n)}", float(rng.uniform(0.0, 2.0))))
    opt = offline_opt(u, tasks)
    assert type(opt) is float and opt == reference_offline_opt(u, tasks)


GREEDY_RULES = {
    "odd-b2": lambda: odd_exponent(uniform_umts([1.0, 1.0])),
    "odd-b4": lambda: odd_exponent(uniform_umts([1.0] * 4)),
    "odd-b5": lambda: odd_exponent(uniform_umts([1.0] * 5)),
    "two-stable": lambda: two_stable(uniform_umts([2.0, 0.5])),
    "trivial": lambda: trivial_algorithm(uniform_umts([1.0, 2.0, 3.0])),
    "combined": lambda: combined_algorithm(uniform_umts([3.0, 1.0, 2.0, 0.5])),
}


@functools.lru_cache(maxsize=None)
def greedy_rule(name):
    return GREEDY_RULES[name]()


def counting_crossings(alg):
    """``alg`` with a ``zero_crossing`` that records the states of each call."""
    calls = []

    def crossing(w, v):
        calls.append(np.atleast_1d(v).tolist())
        return alg.zero_crossing(w, v)

    return replace(alg, zero_crossing=crossing), calls


@pytest.mark.parametrize("name", sorted(GREEDY_RULES))
def test_greedy_pressure_charges_the_exhaustive_pick(name):
    """Every state greedy-pressure charges is the exhaustive search's, and
    each pick asks for the crossing of one state per call, of no state
    twice."""
    alg, calls = counting_crossings(greedy_rule(name))
    policy = adversary(AdversaryConfig(kind="greedy-pressure", steps=60, seed=1))
    steps = 0
    w = flat_work_function(alg.umts)
    p = alg.probabilities(w)
    for v, _, _, w2, p2 in simulate(alg, policy):
        assert all(len(states) == 1 for states in calls)
        assert len(set(map(tuple, calls))) == len(calls)
        assert v == reference_greedy_pick(greedy_rule(name), w, p)
        calls.clear()
        w, p = w2, p2
        steps += 1
    assert steps > 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GREEDY_RULES)), st.data())
def test_pruned_greedy_equals_the_exhaustive_search(name, data):
    """On work functions with a quarter grid of values, so that pressures
    and bounds tie, the pruned pick equals the exhaustive one."""
    alg = greedy_rule(name)
    n, d = alg.umts.n, alg.umts.diameter()
    w = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))) * d / 4.0
    p = alg.probabilities(w)
    heads = support_headrooms(alg.umts, w).tolist()
    mass = p.tolist()
    open_states = [x for x in range(n) if mass[x] > EPS_EQ and heads[x] > 0.0]
    assume(open_states)
    cross = {}
    assert _greediest(alg, w, mass, heads, open_states, cross) == reference_greedy_pick(alg, w, p)
    assert all(cross[x] == alg.zero_crossing(w, x) for x in cross)


@pytest.mark.parametrize(
    "name, asked",
    [
        # the crossing is the headroom: state 0's pressure meets every bound
        ("odd-b2", [[0]]),
        ("two-stable", [[0]]),
        # the crossing lies below the headroom: every bound beats state 0's pressure
        ("odd-b4", [[0], [1], [2], [3]]),
        ("odd-b5", [[0], [1], [2], [3], [4]]),
    ],
)
def test_greedy_pressure_breaks_ties_by_the_lowest_index(name, asked):
    """At the flat work function every state has the same pressure."""
    alg, calls = counting_crossings(greedy_rule(name))
    w = np.zeros(alg.umts.n)
    p = alg.probabilities(w)
    heads = support_headrooms(alg.umts, w).tolist()
    v = _greediest(alg, w, p.tolist(), heads, list(range(alg.umts.n)), {})
    assert calls == asked
    assert v == reference_greedy_pick(greedy_rule(name), w, p) == 0


def test_audit_passes_two_stable_all_adversaries():
    alg = two_stable(uniform_umts([3.0, 1.0]))
    for kind in ("uniform-random", "greedy-pressure", "support-raiser"):
        report = audit(play(alg, adversary(AdversaryConfig(kind=kind, steps=60, seed=7))))
        assert report["kind"] == "atomic"
        assert report["passed"], report["worst"]
        assert report["cost"] > 0.0


def test_audit_passes_odd_exponent():
    alg = odd_exponent(uniform_umts([1.0, 1.0, 1.0, 1.0]))
    run = play(alg, adversary(AdversaryConfig(kind="support-raiser", steps=80, seed=5)))
    report = audit(run)
    assert report["passed"], report["worst"]
    out = ratio_report(run)
    assert out["opt"] > 0.0
    assert out["passed"] is True


def test_audit_combined_structural():
    alg = combined_algorithm(uniform_umts([2.0, 1.0, 0.5]))
    report = audit(play(alg, adversary(AdversaryConfig(kind="uniform-random", steps=40, seed=21))))
    assert report["kind"] == "combined"
    assert report["passed"], report["worst"]
    assert report["opt_hat"] <= report["opt"] + report["resadv_allow"]
    run = play(alg, adversary(AdversaryConfig(kind="support-raiser", steps=40, seed=22)))
    assert audit(run)["passed"]


def test_audit_anchored_merge():
    alg = w_combined_algorithm(uniform_umts([3.0, 1.0, 1.0, 1.0], s=2.0))
    report = audit(play(alg, adversary(AdversaryConfig(kind="greedy-pressure", steps=40, seed=2))))
    assert report["kind"] == "combined"
    assert report["passed"], report["worst"]


def test_under_declared_ratio_is_flagged():
    alg = trivial_algorithm(uniform_umts([5.0, 1.0]))
    alg.declared_ratio = 5.0 / 3.0
    run = play(alg, adversary(AdversaryConfig(kind="uniform-random", steps=60, seed=4)))
    report = audit(run)
    assert not report["passed"]
    assert "sensibility" in report["worst"]
    out = ratio_report(run)
    assert out["passed"] is False
    assert out["ratio"] > out["declared"] + 1.0


def test_honest_trivial_ratio_passes():
    alg = trivial_algorithm(uniform_umts([5.0, 1.0]))
    run = play(alg, adversary(AdversaryConfig(kind="uniform-random", steps=60, seed=4)))
    report = audit(run)
    assert report["passed"], report["worst"]
    out = ratio_report(run)
    assert out["passed"] is True


def test_empirical_ratio_skips_tiny_optimum():
    alg = two_stable(uniform_umts([3.0, 1.0]))
    out = ratio_report(play(alg, replay([])))
    assert out["passed"] is None
    assert math.isnan(out["ratio"])


ONE_PASS_RULES = {
    "trivial": lambda: trivial_algorithm(uniform_umts([5.0, 1.0, 2.0])),
    "two-stable": lambda: two_stable(uniform_umts([3.0, 1.0])),
    "odd-b2": lambda: odd_exponent(uniform_umts([1.0] * 2)),
    "odd-b4": lambda: odd_exponent(uniform_umts([1.0] * 4)),
    "odd-b8": lambda: odd_exponent(uniform_umts([1.0] * 8)),
    "combined": lambda: combined_algorithm(uniform_umts([3.7, 0.4, 1.9, 0.9, 2.6])),
    "wcombined": lambda: w_combined_algorithm(uniform_umts([4.5, 0.8, 0.8, 0.8, 0.8])),
    "caching-k3": lambda: weighted_caching_algorithm([1.0, 0.6, 1.7, 1.2]),
    "line8": lambda: line_algorithm(8),
}


@functools.lru_cache(maxsize=None)
def one_pass_rule(name):
    return ONE_PASS_RULES[name]()


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("name", sorted(ONE_PASS_RULES))
def test_one_pass_equals_two(name, kind):
    """The audit of a run played once equals the step-by-step oracle's and
    the audit of its replay, and the record's cost is the left-to-right sum
    of one-step ``online_step_cost`` calls, bit for bit."""
    alg = one_pass_rule(name)
    run = play(alg, adversary(AdversaryConfig(kind=kind, steps=40, seed=6)))
    assert len(run.v)
    report = (assert_same_report if alg.parts is None else assert_same_audit)(run)
    assert as_text(audit(play(alg, replay(run_tasks(run))))) == as_text(report)
    total = 0.0
    for i, task in enumerate(run_tasks(run)):
        total += online_step_cost(alg.umts, run.p[i], run.p[i + 1], task)
    assert run.cost == total and report["cost"] == total


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_a_bad_charge_raises_before_the_work_function_moves(bad, monkeypatch):
    """A policy's charge that is negative, NaN or infinite raises at step 1,
    with no work function moved and no distribution asked for past the
    start."""
    base = two_stable(uniform_umts([3.0, 1.0]))
    asked, moved = [], []
    alg = replace(base, probabilities=lambda w: asked.append(1) or base.probabilities(w))

    def counted(*args):
        moved.append(1)
        return apply_elementary(*args)

    monkeypatch.setattr(harness, "apply_elementary", counted)
    for run in (lambda: list(simulate(alg, lambda *_: (0, bad, None))),
                lambda: play(alg, lambda *_: (1, bad, None))):
        with pytest.raises(ValueError, match="charges must be finite and non-negative"):
            run()
    assert moved == [] and len(asked) == 2


def test_the_record_holds_no_per_step_objects():
    """What a 4,000-step run leaves allocated after ``play`` is at most
    twice the bytes of the record's arrays."""
    alg = odd_exponent(uniform_umts(np.ones(8)))
    config = AdversaryConfig(steps=4000, seed=0)
    play(alg, adversary(config))  # warm-up: what the first run builds once stays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = play(alg, adversary(config))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = [x for x in vars(run).values() if isinstance(x, np.ndarray)]
    assert len(run.w) == 4001
    assert held <= 2 * sum(x.nbytes for x in arrays)


def loop_rule(family: str, n: int, rates: list, state: int):
    """A fresh rule of ``family`` on the uniform space of ``n`` states: the
    trivial rule on ``state``, two-stable with ``rates``, odd-exponent with
    equal rates, caching on ``n`` fetch costs ``rates`` (K = 3 at n = 4)
    and the combined rule with ``rates``."""
    u = uniform_umts(rates[:n])
    if family == "trivial":
        return trivial_algorithm(u, u.labels[state % n])
    if family == "two-stable":
        return two_stable(u)
    if family == "odd-exponent":
        return odd_exponent(uniform_umts(np.ones(n)))
    if family == "caching":
        return weighted_caching_algorithm(rates[:n])
    return combined_algorithm(u)


# the families and their sizes, to one state past the float cutoff where the
# family allows
LOOP_SIZES = {
    "trivial": range(1, FLOAT_STATES + 2),
    "two-stable": [2],
    "odd-exponent": range(2, FLOAT_STATES + 2),
    "caching": [4],
    "combined": [4],
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LOOP_SIZES)), st.sampled_from(ADVERSARY_KINDS + ("replay",)),
       st.integers(0, 2**32 - 1), st.integers(0, 60), st.floats(0.3, 0.999), st.data())
def test_play_equals_the_array_loop(family, kind, seed, steps, fraction, data):
    """``play`` on lists up to FLOAT_STATES states, and on arrays above,
    records each run with the bits of the loop that held every work function
    and distribution as an array: ``w``, ``p``, ``v``, ``delta``,
    ``crossing``, ``faulty``, ``costs``, ``cost`` and ``opt``. ``replay``
    charges what the uniform-random adversary charged, with no crossings."""
    n = data.draw(st.sampled_from(LOOP_SIZES[family]))
    rates = data.draw(st.lists(st.floats(0.25, 4.0), min_size=5, max_size=5))
    state = data.draw(st.integers(0, 4))

    def policy():
        if kind != "replay":
            return adversary(AdversaryConfig(kind=kind, steps=steps, seed=seed,
                                              max_fraction=fraction))
        config = AdversaryConfig(steps=steps, seed=seed, max_fraction=fraction)
        return replay(run_tasks(play(loop_rule(family, n, rates, state), adversary(config))))

    want = reference_play(loop_rule(family, n, rates, state), policy())
    got = play(loop_rule(family, n, rates, state), policy())
    for name in ("w", "p", "v", "delta", "crossing", "faulty", "costs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert as_text([got.cost, got.opt]) == as_text([want.cost, want.opt])
    assert type(got.cost) is float and type(got.opt) is float
    w = next(simulate(loop_rule(family, n, rates, state), replay([ElementaryTask("v1", 0.1)])))[3]
    assert isinstance(w, list) == (n <= FLOAT_STATES)


def test_play_peaks_near_its_record():
    """The traced peak of a 20,000-step b = 2 ``play`` stays within four
    times the bytes of the record's arrays: each step is written into flat
    storage, not kept as arrays of its own."""
    alg = odd_exponent(uniform_umts(np.ones(2)))
    config = AdversaryConfig(steps=20_000, seed=0)
    play(alg, adversary(AdversaryConfig(steps=50, seed=0)))  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = play(alg, adversary(config))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = [x for x in vars(run).values() if isinstance(x, np.ndarray)]
    assert len(run.w) == 20_001
    assert peak <= 4 * sum(x.nbytes for x in arrays)
