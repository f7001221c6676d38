import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    METRIC_KINDS,
    metric_of,
    offline_exhaustive,
    random_metric,
    random_rows,
    reference_support_headrooms,
    reference_support_level,
)
from umtslab.core import (
    ElementaryTask,
    apply_elementary,
    GeneralTask,
    Umts,
    apply_task,
    beta_excluded_mass,
    flat_work_function,
    initial_work_function,
    moving_cost,
    online_step_cost,
    opt_cost,
    step_costs,
    support_headrooms,
    task_charges,
)
from umtslab.metricspace import FiniteMetric, make_line, make_star, make_uniform
from umtslab.transport import mcost_checked_rows


def u2(d=1.0, r=(1.0, 1.0), s=1.0):
    return Umts(make_uniform(2, d), np.array(r), s)


def test_umts_validation():
    with pytest.raises(ValueError):
        Umts(make_uniform(2, 1.0), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), 1.0, initial_state="nope")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Umts(make_uniform(2, 1.0), np.array([bad, 1.0]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), bad)
        with pytest.raises(ValueError, match="finite"):
            FiniteMetric(("a", "b"), np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            ElementaryTask("v1", bad)
        with pytest.raises(ValueError, match="finite"):
            GeneralTask(np.array([0.5, bad]))
    u = u2()
    assert u.initial_state == "v1"


def test_initial_work_function_examples():
    assert initial_work_function(u2()).tolist() == [0.0, 1.0]

    mid = Umts(make_line(3, 1.0), np.ones(3), 1.0, initial_state="v2")
    assert initial_work_function(mid).tolist() == [1.0, 0.0, 1.0]

    star = Umts(make_star([2, 4]), np.ones(2), 1.0)
    assert initial_work_function(star).tolist() == [0.0, 3.0]

    assert flat_work_function(star).tolist() == [0.0, 0.0]


def test_apply_task_examples():
    u = u2()
    w = np.array([0.0, 1.0])
    # v2 is already supported by v1, so further charges there are absorbed
    w2 = apply_task(u, w, ElementaryTask("v2", 0.7))
    assert w2.tolist() == [0.0, 1.0]

    w3 = apply_task(u, w, GeneralTask(np.zeros(2)))
    assert w3.tolist() == [0.0, 1.0]

    w4 = apply_task(u, np.array([0.0, 0.0]), ElementaryTask("v2", 0.4))
    assert w4.tolist() == [0.0, 0.4]


def test_apply_general_matches_elementary():
    rng = np.random.default_rng(3)
    u = Umts(make_line(4, 1.0), np.ones(4), 1.0)
    w = initial_work_function(u)
    for _ in range(30):
        v = int(rng.integers(0, 4))
        delta = float(rng.random())
        charges = np.zeros(4)
        charges[v] = delta
        a = apply_task(u, w, ElementaryTask(u.labels[v], delta))
        b = apply_task(u, w, GeneralTask(charges))
        assert np.allclose(a, b, atol=1e-12)
        w = a


def test_work_function_stays_lipschitz():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = random_metric(rng, n)
        m = FiniteMetric(tuple(f"x{i}" for i in range(n)), d)
        u = Umts(m, np.ones(n), 1.0)
        w = initial_work_function(u)
        for _ in range(12):
            charges = rng.random(n) * rng.integers(0, 2, size=n)
            w2 = apply_task(u, w, GeneralTask(charges))
            assert (w2 >= w - 1e-12).all()
            gap = w2[:, None] - w2[None, :]
            assert (np.abs(gap) <= d + 1e-9).all()
            w = w2


def test_supported_states():
    u = u2()
    assert support_headrooms(u, np.array([0.0, 1.0]))[1] == 0.0
    assert support_headrooms(u, np.array([0.0, 1.0]))[0] == 2.0
    assert support_headrooms(u, np.array([0.0, 0.5]))[0] == 1.5
    assert support_headrooms(u, np.array([0.0, 0.5]))[1] == 0.5

    line = Umts(make_line(3, 1.0), np.ones(3), 1.0)
    w = np.array([0.0, 1.0, 2.0])
    assert support_headrooms(line, w)[0] == 2.0
    assert support_headrooms(line, w)[1] == 0.0
    assert support_headrooms(line, w)[2] == 0.0

    assert support_headrooms(u, np.array([0.0, 0.25]))[1] == pytest.approx(0.75)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_support_headrooms_equal_the_states(n, seed, spread):
    """The headroom at each state is its support level less w(v)."""
    rng = np.random.default_rng(seed)
    u = Umts(FiniteMetric(tuple(f"v{i}" for i in range(n)), random_metric(rng, n)), np.ones(n), 1.0)
    w = rng.uniform(0.0, spread, n)
    levels = [reference_support_level(u, w, v) - w[v] for v in range(n)]
    assert np.array_equal(support_headrooms(u, w), levels)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(METRIC_KINDS), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0), st.booleans())
def test_support_headrooms_equal_the_numpy_pass(kind, n, seed, spread, ties):
    """The headrooms of a list, on Python floats, and of an array, in one
    array minimum, equal one numpy pass bit for bit; ``ties`` puts the work
    function on a quarter grid, so that several states reach one level."""
    rng = np.random.default_rng(seed)
    if kind in ("two-point", "three-point", "lp") and n == 1:
        n = 2
    m = metric_of(kind, n, rng)
    u = Umts(m, np.ones(m.n), 1.0)
    w = rng.uniform(0.0, spread, m.n)
    if ties:
        w = np.round(w * 4.0) / 4.0
    heads = support_headrooms(u, w)
    assert heads.dtype == np.float64 and heads.shape == (m.n,)
    assert heads.tobytes() == reference_support_headrooms(u, w).tobytes()
    listed = support_headrooms(u, w.tolist())
    assert all(type(x) is float for x in listed)
    assert np.array(listed).tobytes() == heads.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(METRIC_KINDS), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0), st.floats(0.0, 2.0))
def test_support_level_equals_the_numpy_pass(kind, n, seed, spread, delta):
    """The step on a list, on Python floats, and on an array each equal the
    step to one numpy pass's support level bit for bit."""
    rng = np.random.default_rng(seed)
    if kind in ("two-point", "three-point", "lp") and n == 1:
        n = 2
    m = metric_of(kind, n, rng)
    u = Umts(m, np.ones(m.n), 1.0)
    w = rng.uniform(0.0, spread, m.n)
    for v in range(m.n):
        stepped = w.copy()
        stepped[v] = min(w[v] + delta, reference_support_level(u, w, v))
        listed = apply_elementary(u, w.tolist(), v, delta)
        assert all(type(x) is float for x in listed)
        assert np.array(listed).tobytes() == stepped.tobytes()
        assert apply_elementary(u, w, v, delta).tobytes() == stepped.tobytes()
    # a stack charges every state at once, each row as the one-row call
    rows = rng.uniform(0.0, spread, (2 * m.n, m.n))
    states, charges = np.arange(2 * m.n) % m.n, rng.uniform(0.0, delta + 1e-9, 2 * m.n)
    stacked = apply_elementary(u, rows, states, charges)
    assert stacked.tobytes() == np.array(
        [apply_elementary(u, a, int(x), float(c)) for a, x, c in zip(rows, states, charges)]
    ).tobytes()


def test_moving_cost_scales_by_s():
    u = Umts(make_uniform(2, 2.0), np.ones(2), 3.0)
    assert moving_cost(u, [1, 0], [0, 1]) == pytest.approx(6.0)
    assert moving_cost(u, [0.5, 0.5], [0.5, 0.5]) == 0.0


def test_online_step_cost_examples():
    u = Umts(make_uniform(2, 1.0), np.array([3.0, 3.0]), 1.0)
    stay = np.array([0.5, 0.5])
    got = online_step_cost(u, stay, stay, ElementaryTask("v1", 0.2))
    assert got == pytest.approx(0.3)

    u22 = Umts(make_uniform(2, 2.0), np.ones(2), 1.0)
    got = online_step_cost(u22, np.array([1.0, 0.0]), np.array([0.0, 1.0]), GeneralTask(np.zeros(2)))
    assert got == pytest.approx(2.0)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(METRIC_KINDS), st.integers(2, 4), st.integers(1, 5), st.integers(0, 2**32 - 1)
)
def test_stacked_step_costs_equal_one_row_calls(kind, n, k, seed):
    """A run's step costs equal the one-step calls, and the charge each
    step pays equals the dot product of its distribution with the charge
    vector, bit for bit off the LP."""
    rng = np.random.default_rng(seed)
    m = metric_of(kind, n, rng)
    u = Umts(m, rng.uniform(0.0, 3.0, m.n), float(rng.uniform(0.5, 2.0)))
    p = random_rows(rng, k + 1, m.n)
    v = rng.integers(m.n, size=k)
    delta = rng.uniform(0.0, 2.0, k)
    tasks = [ElementaryTask(m.labels[x], d) for x, d in zip(v.tolist(), delta.tolist())]
    got = step_costs(u, p, v, delta, np.zeros(k + 1, dtype=bool))
    rows = [online_step_cost(u, p[i], p[i + 1], t) for i, t in enumerate(tasks)]
    paid = [float(p[i + 1] @ (task_charges(u, t) * u.rates)) for i, t in enumerate(tasks)]
    moving = u.s * mcost_checked_rows(m, p[:-1], p[1:])
    if kind == "lp":
        np.testing.assert_allclose(got, rows, rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(got, rows)
    assert np.array_equal(got, moving + paid)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(METRIC_KINDS), st.integers(2, 4), st.integers(0, 5), st.integers(0, 2**32 - 1)
)
def test_step_costs_price_each_unmarked_step_as_one_row(kind, n, k, seed):
    """A run's step costs, with no row marked faulty and with some, are
    NaN where a step reads a marked row and each one-row price elsewhere."""
    rng = np.random.default_rng(seed)
    m = metric_of(kind, n, rng)
    u = Umts(m, rng.uniform(0.0, 3.0, m.n), float(rng.uniform(0.5, 2.0)))
    p = random_rows(rng, k + 1, m.n)
    v = rng.integers(m.n, size=k)
    delta = rng.uniform(0.0, 2.0, k)
    rows = [online_step_cost(u, p[i], p[i + 1], ElementaryTask(m.labels[v[i]], delta[i]))
            for i in range(k)]
    for faulty in (np.zeros(k + 1, dtype=bool), rng.random(k + 1) < 0.3):
        got = step_costs(u, p, v, delta, faulty)
        read = faulty[:-1] | faulty[1:]
        assert np.isnan(got[read]).all()
        if kind == "lp":
            np.testing.assert_allclose(got[~read], np.array(rows)[~read], rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(got[~read], np.array(rows)[~read])


def excluded_by_pairs(u, beta, w, p):
    """The beta exclusion of one work function from the full pair matrix."""
    gap = w[None, :] - w[:, None] - beta * u.metric.dist
    np.fill_diagonal(gap, -np.inf)
    hit = (gap.max(axis=0) >= -1e-12) & (p > 1e-9)
    return [(int(x), float(p[x])) for x in np.flatnonzero(hit)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(METRIC_KINDS),
    st.integers(2, 5),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.25, 0.5, 1.0]),
)
def test_stacked_beta_exclusion_equals_one_row_calls(kind, n, k, seed, beta):
    rng = np.random.default_rng(seed)
    m = metric_of(kind, n, rng)
    u = Umts(m, np.ones(m.n), 1.0)
    # work functions on a coarse grid of the distances, so that ties happen
    w = rng.integers(0, 3, (k, m.n)) * (beta * m.diameter() / 2.0)
    p = random_rows(rng, k, m.n)
    p[rng.random((k, m.n)) < 0.3] = 0.0
    got = beta_excluded_mass(u, beta, w, p)
    assert got == [excluded_by_pairs(u, beta, a, b) for a, b in zip(w, p)]


def test_dp_matches_exhaustive_offline():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        d = random_metric(rng, n)
        m = FiniteMetric(tuple(f"x{i}" for i in range(n)), d)
        u = Umts(m, np.ones(n), 1.0)
        horizon = int(rng.integers(1, 7))
        rows = [rng.random(n) * (rng.random(n) < 0.6) for _ in range(horizon)]
        w = initial_work_function(u)
        for row in rows:
            w = apply_task(u, w, GeneralTask(row))
        assert opt_cost(w) == pytest.approx(
            offline_exhaustive(d, 0, rows), abs=1e-9
        )


def test_task_charges_and_validation():
    u = u2()
    c = task_charges(u, ElementaryTask("v2", 0.3))
    assert c.tolist() == [0.0, 0.3]

    with pytest.raises(ValueError):
        ElementaryTask("v1", -0.1)
    with pytest.raises(ValueError):
        GeneralTask(np.array([-0.2, 0.0]))
