"""Algorithm families: rules, ratios, crossings, variants."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    odd_crossing_pow,
    odd_local_integral_pow,
    odd_raw_pow,
    reference_odd_crossing,
    reference_odd_probabilities,
)

from umtslab.algorithms import (
    numpy_sum,
    odd_crossing_bracketed,
    odd_crossing_closed,
    odd_exponent,
    probabilities,
    rho_variant,
    trivial_algorithm,
    two_stable,
    two_stable_ratio,
)
from umtslab.core import Umts, support_headrooms
from umtslab.metricspace import make_uniform

EPS = 1e-9


def u_uniform(b, d=1.0, rates=None, s=1.0):
    r = np.full(b, 1.0) if rates is None else np.asarray(rates, dtype=float)
    return Umts(make_uniform(b, d), r, s)


def test_odd_exponent_examples():
    a = odd_exponent(u_uniform(2))
    assert np.allclose(probabilities(a, [0.5, 0.0]), [0.25, 0.75], atol=EPS)
    assert np.allclose(probabilities(a, [1.0, 0.0]), [0.0, 1.0], atol=EPS)
    assert np.allclose(probabilities(a, [0.0, 0.0]), [0.5, 0.5], atol=EPS)
    assert np.allclose(probabilities(a, [3.0, 3.0]), [0.5, 0.5], atol=EPS)


def test_odd_exponent_exponent_selection():
    assert odd_exponent(u_uniform(2)).descriptor["t"] == 1
    assert odd_exponent(u_uniform(3)).descriptor["t"] == 3
    assert odd_exponent(u_uniform(4)).descriptor["t"] == 3
    assert odd_exponent(u_uniform(8)).descriptor["t"] == 3


def test_odd_exponent_ratio_and_constants():
    for b in (2, 4, 8):
        a = odd_exponent(u_uniform(b, rates=np.arange(1, b + 1, dtype=float), s=2.0))
        assert abs(a.declared_ratio - (b + 12.0 * math.log(b))) < EPS
        assert a.beta == 1.0 and a.eta == 1.0
        assert abs(a.descriptor["eta_sharp"] - 1.0 / math.ceil(math.log(b))) < EPS
        assert np.allclose(a.alpha, 1.0 / b)


def test_odd_exponent_probabilities_are_distributions():
    rng = np.random.default_rng(3)
    for b in (2, 3, 4, 8):
        a = odd_exponent(u_uniform(b))
        for _ in range(50):
            w = rng.uniform(0.0, 1.0, b)
            w -= w.min()
            p = probabilities(a, w)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < EPS


def test_odd_exponent_zero_crossing():
    u = u_uniform(3)
    a = odd_exponent(u)
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.uniform(0.0, 1.0, 3)
        w -= w.min()
        for v in range(3):
            x = a.zero_crossing(w, v)
            head = support_headrooms(u, w)[v]
            assert -EPS <= x <= head + EPS
            if probabilities(a, w)[v] < 1e-12:
                assert x == 0.0
                continue
            w2 = w.copy()
            w2[v] += x * (1.0 - 1e-9)
            assert probabilities(a, w2)[v] >= 0.0
            diffs = (np.delete(w2, v) - w2[v]) / 1.0
            assert 1.0 + (diffs**3).sum() >= -1e-7


def test_odd_exponent_rejects_bad_spaces():
    from umtslab.metricspace import make_line

    with pytest.raises(ValueError):
        odd_exponent(Umts(make_line(3), np.full(3, 1.0), 1.0))
    with pytest.raises(ValueError):
        odd_exponent(Umts(make_uniform(1), np.array([1.0]), 1.0))


def test_two_stable_ratio_closed_forms():
    r = two_stable_ratio(1.0, 2.0, 0.0)
    assert abs(r - (2.0 + 2.0 / math.expm1(2.0))) < 1e-12
    assert abs(two_stable_ratio(1.0, 1.0, 1.0) - 2.0) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(200):
        r1, r2 = rng.uniform(0.0, 10.0, 2)
        s = rng.uniform(0.1, 5.0)
        direct = two_stable_ratio(s, r1, r2)
        mirrored = two_stable_ratio(s, r2, r1)
        assert abs(direct - mirrored) < 1e-9 * max(1.0, direct)


def test_two_stable_probabilities():
    u = u_uniform(2, rates=[2.0, 0.0])
    a = two_stable(u)
    assert np.allclose(probabilities(a, [1.0, 0.0]), [0.0, 1.0], atol=EPS)
    assert np.allclose(probabilities(a, [0.0, 1.0]), [1.0, 0.0], atol=EPS)
    p = probabilities(a, [0.0, 0.0])
    z = 2.0
    want = (math.exp(z) - math.exp(z * 0.5)) / math.expm1(z)
    assert abs(p[0] - want) < EPS
    eq = two_stable(u_uniform(2, rates=[3.0, 3.0]))
    assert np.allclose(probabilities(eq, [0.4, 0.0]), [0.3, 0.7], atol=EPS)


def test_two_stable_small_z_continuity():
    base = two_stable(u_uniform(2, rates=[1.0, 1.0]))
    near = two_stable(u_uniform(2, rates=[1.0 + 1e-9, 1.0]))
    for y in (-0.8, -0.1, 0.0, 0.3, 0.9):
        w = np.array([y, 0.0])
        assert abs(probabilities(base, w)[0] - probabilities(near, w)[0]) < 1e-8
        assert abs(base.phi(w) - near.phi(w)) < 1e-7


def test_two_stable_potential_shape():
    a = two_stable(u_uniform(2, rates=[2.0, 0.0]))
    ys = np.linspace(-1.0, 1.0, 201)
    vals = np.array([a.phi(np.array([y, 0.0])) for y in ys])
    assert vals.min() >= 0.0
    assert vals.min() < 1e-6
    assert abs(a.phi_sup - vals.max()) < 1e-6
    # convexity along the gap coordinate
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert second.min() > -1e-9


def test_two_stable_crossing():
    a = two_stable(u_uniform(2, rates=[2.0, 0.0]))
    assert abs(a.zero_crossing(np.array([0.3, 0.0]), 0) - 0.7) < EPS
    assert abs(a.zero_crossing(np.array([0.3, 0.0]), 1) - 1.3) < EPS
    assert a.zero_crossing(np.array([1.0, 0.0]), 0) == 0.0


def test_trivial_algorithm():
    u = Umts(make_uniform(2, 1.0), np.array([7.0, 3.0]), 1.0)
    a = trivial_algorithm(u, "v1")
    assert a.declared_ratio == 7.0
    assert a.beta == 0.0 and a.eta == 0.0
    assert np.allclose(probabilities(a, [5.0, 0.0]), [1.0, 0.0])
    assert a.zero_crossing(np.zeros(2), 0) == math.inf
    assert a.zero_crossing(np.zeros(2), 1) == 0.0
    default = trivial_algorithm(u)
    assert default.descriptor["state"] == "v1"


def test_rho_variant_constants():
    var = rho_variant(odd_exponent, u_uniform(2), 0.1)
    assert abs(var.declared_ratio - (1.0 + 60.0 * math.log(2))) < EPS
    assert abs(var.beta - 0.1) < EPS
    assert abs(var.eta - 0.1) < EPS
    tsv = rho_variant(two_stable, u_uniform(2, rates=[1.0, 1.0]), 0.1)
    assert abs(tsv.declared_ratio - 11.0) < EPS
    assert abs(tsv.beta - 0.1) < EPS
    assert abs(tsv.eta - 0.2) < EPS


def test_rho_variant_contracts_support():
    var = rho_variant(odd_exponent, u_uniform(2), 0.1)
    assert np.allclose(probabilities(var, [0.5, 0.0]), [0.0, 1.0], atol=EPS)
    assert np.allclose(probabilities(var, [0.05, 0.0]), [0.25, 0.75], atol=EPS)
    assert abs(var.zero_crossing(np.array([0.02, 0.0]), 0) - 0.08) < EPS


def test_rho_variant_validation_and_identity():
    u = u_uniform(2)
    assert rho_variant(two_stable, u, 1.0).descriptor == two_stable(u).descriptor
    with pytest.raises(ValueError):
        rho_variant(two_stable, u, 0.0)
    with pytest.raises(ValueError):
        rho_variant(two_stable, u, 1.5)
    double = rho_variant(lambda uu: rho_variant(two_stable, uu, 0.5), u, 0.5)
    quarter = rho_variant(two_stable, u, 0.25)
    assert abs(double.declared_ratio - quarter.declared_ratio) < EPS
    assert abs(double.eta - quarter.eta) < EPS


def test_g_value_translation():
    a = two_stable(u_uniform(2, rates=[2.0, 0.0]))
    w = np.array([0.3, 0.0])
    assert abs(a.g_value(w + 2.5) - a.g_value(w) - 2.5) < EPS


def test_potential_bound_property():
    a = two_stable(u_uniform(2, d=3.0, rates=[2.0, 0.0]))
    assert abs(a.potential_bound - 4.0 * a.declared_ratio * 3.0) < EPS
    assert a.phi_sup <= a.potential_bound + EPS



def stack_cases():
    unequal = np.random.default_rng(5).uniform(0.5, 3.0, 8)
    yield "trivial", lambda: trivial_algorithm(u_uniform(3, rates=[1.0, 2.0, 3.0]), "v2")
    for b in range(2, 9):
        yield f"odd-b{b}-equal", lambda b=b: odd_exponent(u_uniform(b))
        yield f"odd-b{b}-unequal", lambda b=b: odd_exponent(u_uniform(b, rates=unequal[:b]))
    yield "two-stable-equal", lambda: two_stable(u_uniform(2, rates=[1.0, 1.0]))
    yield "two-stable-unequal", lambda: two_stable(u_uniform(2, rates=[2.0, 0.5]))
    yield "rho-variant", lambda: rho_variant(odd_exponent, u_uniform(4, rates=[1.0, 3.0, 2.0, 0.5]), 0.5)


@pytest.mark.parametrize("build", [pytest.param(f, id=name) for name, f in stack_cases()])
def test_probabilities_on_a_stack_equal_the_rows(build):
    alg = build()
    rng = np.random.default_rng(11)
    W = rng.uniform(0.0, 1.5 * alg.umts.diameter(), (3, 7, alg.umts.n))
    W -= W.min(axis=-1, keepdims=True)
    rows = np.array([[alg.probabilities(w) for w in block] for block in W])
    assert np.array_equal(alg.probabilities(W), rows)
    assert np.array_equal(alg.probabilities(W[0]), rows[0])


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 20),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.data(),
)
def test_closed_form_crossing_matches_brentq(b, d, data):
    t = max(1, math.ceil(math.log(b)))
    t += t % 2 == 0
    # a 1-Lipschitz work function on the uniform space: all gaps at most d
    w = np.array(data.draw(st.lists(st.floats(0.0, d), min_size=b, max_size=b)))
    v = data.draw(st.integers(0, b - 1))
    others = np.delete(w, v) - w[v]
    head = float((np.delete(w, v) + d).min() - w[v])
    assume(1.0 + ((others / d) ** t).sum() > 1e-12 * b)  # the rule holds mass at v
    closed = min(max(odd_crossing_closed(others.tolist(), d, t), 0.0), head)
    if 1.0 + (((others - head) / d) ** t).sum() > 0.0:  # rounding keeps it above 0 at head
        assert abs(closed - head) <= 1e-12
    else:
        assert abs(closed - odd_crossing_bracketed(others, head, d, t)) <= 1e-12


@functools.lru_cache(maxsize=None)
def odd_rule(b, d):
    # unequal rates leave the potential out from b = 6 on, which keeps the builds short
    return odd_exponent(u_uniform(b, d, rates=np.linspace(0.5, 2.0, b)))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 24), st.sampled_from([0.5, 1.0, 2.5]), st.data())
def test_odd_exponent_products_match_the_power_forms(b, d, data):
    """b = 2..24 covers t = 1, 3 and 5; each value within 1e-14 of the ``**``
    form, relative to the size of the terms it sums."""
    alg = odd_rule(b, d)
    t = alg.descriptor["t"]
    w = np.array(data.draw(st.lists(st.floats(0.0, d), min_size=b, max_size=b)))
    v = data.draw(st.integers(0, b - 1))
    delta = data.draw(st.floats(0.0, d))

    p = alg.probabilities(w)
    raw = np.maximum(odd_raw_pow(w, d, t), 0.0)
    assert np.abs(p - raw / raw.sum()).max() <= 1e-14  # a distribution: total mass 1

    rate = float(alg.umts.rates[v])
    a = (np.delete(w, v) - w[v]) / d
    terms = np.abs(a) ** (t + 1) + np.abs(a - delta / d) ** (t + 1)
    scale = rate * (delta + d / (t + 1) * terms.sum()) / b
    local = alg.local_cost_integral(w, v, delta)
    assert abs(local - odd_local_integral_pow(w, v, delta, d, t, rate)) <= 1e-14 * scale

    x = np.array([alg.zero_crossing(w, k) for k in range(b)])
    x_pow = np.array([odd_crossing_pow(w, k, d, t) for k in range(b)])
    assert np.abs(x - x_pow).max() <= 1e-14 * d  # crossings lie in [0, d]
    assert (x[p > 1e-12] > 0.0).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.sampled_from([1e-300, 1e-3, 1.0, 1e300]), st.integers(0, 2**32 - 1))
def test_numpy_sum_equals_numpy(m, scale, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(m) ** 3 * scale
    assert numpy_sum(values.tolist()) == values.sum()
    assert numpy_sum(values.tolist()) == np.tile(values, (3, 1)).sum(axis=-1)[1]


def odd_work_function(rng, b, d):
    """A work function with spread up to 2 d: some states pinned one
    distance above the minimum (their mass dies), some on a quarter grid
    (ties), so crossings come out dead, capped by the headroom and rooted."""
    w = rng.uniform(0.0, rng.choice([0.5, 1.0, 1.5, 2.0]) * d, b)
    if rng.random() < 0.5:
        w[rng.integers(0, b, rng.integers(0, b))] = w.min() + d
    if rng.random() < 0.3:
        w = np.round(w * 4.0 / d) * d / 4.0
    return w


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16, 21]),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.integers(0, 2**32 - 1),
)
def test_odd_crossing_equals_the_numpy_passes(b, d, seed):
    """The float crossing of each state, one per call, equals the numpy
    array passes bit for bit at t = 1 (b = 2), 3 (b = 3..20) and 5 (b = 21),
    the passes over one state and over an array of them alike."""
    alg = odd_rule(b, d)
    rng = np.random.default_rng(seed)
    w = odd_work_function(rng, b, d)
    for v in range(b):
        x = alg.zero_crossing(w, v)
        assert type(x) is float
        assert x == reference_odd_crossing(alg, w, v)
    for vs in (np.arange(b), rng.integers(0, b, rng.integers(0, 2 * b))):
        x = [alg.zero_crossing(w, v) for v in vs.tolist()]
        assert np.array_equal(x, reference_odd_crossing(alg, w, vs))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.sampled_from([0.5, 1.0, 2.5]), st.integers(0, 2**32 - 1))
def test_one_row_odd_probabilities_equal_the_numpy_pass(b, d, seed):
    """On Python floats up to FLOAT_STATES states and in numpy above, one row's
    distribution equals the numpy pass bit for bit, ties and dead states included."""
    alg = odd_rule(b, d)
    w = odd_work_function(np.random.default_rng(seed), b, d)
    p = alg.probabilities(w)
    assert p.dtype == np.float64 and p.shape == (b,)
    assert p.tobytes() == reference_odd_probabilities(alg, w).tobytes()
    assert p.tobytes() == alg.probabilities(w[None])[0].tobytes()


@pytest.mark.parametrize("b", range(2, 9))
def test_one_row_odd_probabilities_on_ties_and_dead_states(b):
    """Equal values at every state, and states one distance above the
    minimum whose mass dies, on both sides of the FLOAT_STATES cutoff."""
    alg = odd_rule(b, 1.0)
    dead = np.zeros(b)
    dead[: b // 2] = 1.0
    for w in (np.zeros(b), np.full(b, 0.25), dead):
        p = alg.probabilities(w)
        assert p.tobytes() == reference_odd_probabilities(alg, w).tobytes()
    assert (alg.probabilities(dead)[: b // 2] == 0.0).all()


@pytest.mark.parametrize(
    "b, w, v, kind",
    [
        (4, [1.0, 0.0, 0.0, 0.0], 0, "dead"),
        (21, [1.0] + [0.0] * 20, 0, "dead"),
        (4, [0.0, 0.25, 1.5, 1.75], 1, "capped"),
        (4, [0.5, 0.0, 0.0, 0.0], 0, "root"),
        (21, [0.0] + [0.5] * 10 + [0.0] * 10, 0, "root"),
    ],
)
def test_odd_crossing_dead_capped_and_rooted(b, w, v, kind):
    alg = odd_rule(b, 1.0)
    w = np.array(w)
    x = alg.zero_crossing(w, v)
    assert x == reference_odd_crossing(alg, w, v)
    head = support_headrooms(alg.umts, w)[v]
    if kind == "dead":
        assert probabilities(alg, w)[v] == 0.0 and x == 0.0
    elif kind == "capped":
        others = (np.delete(w, v) - w[v]).tolist()
        assert x == head < odd_crossing_closed(others, 1.0, alg.descriptor["t"])
    else:
        assert 0.0 < x < head
