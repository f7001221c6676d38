"""Band construction and gridded potential estimates."""

import dataclasses
import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import band_phi_candidates, reference_estimate, reference_phi
from umtslab import algorithms, potential
from umtslab.algorithms import odd_exponent, trivial_algorithm, two_stable
from umtslab.core import Umts, moving_cost
from umtslab.hst import weighted_caching_algorithm
from umtslab.metricspace import make_uniform
from umtslab.portfolio import combined_algorithm
from umtslab.potential import (
    BandPotential,
    GridIndex,
    PotentialEstimate,
    TwoPointRule,
    _enumerate_states,
    estimate_potential,
    grid_probabilities,
    vi_state_count,
)


def ts_rule(d, s, r1, r2, ratio):
    z = (r1 - r2) / s

    def p1(y):
        xi = 0.5 + y / (2 * d)
        if z == 0.0:
            return 1.0 - xi
        return 1.0 - math.expm1(z * xi) / math.expm1(z)

    def dp1(y):
        if z == 0.0:
            return -1.0 / (2 * d)
        return -(z / (2 * d)) * math.exp(z * (0.5 + y / (2 * d))) / math.expm1(z)

    def P1(y):
        return quad(p1, 0.0, y)[0]

    return TwoPointRule(d=d, s=s, r1=r1, r2=r2, ratio=ratio, alpha1=0.5, alpha2=0.5, p1=p1, dp1=dp1, P1=P1)


def integral_step_slack(alg, u, w, v, delta):
    """r * alpha_v * delta minus (moving + integral local + potential change)."""
    w = np.asarray(w, dtype=float)
    w2 = w.copy()
    w2[v] += delta
    cost = moving_cost(u, alg.probabilities(w), alg.probabilities(w2))
    cost += alg.local_cost_integral(w, v, delta)
    dphi = alg.phi(w2) - alg.phi(w)
    return alg.declared_ratio * alg.alpha[v] * delta - cost - dphi


def test_band_equal_rate_two_stable_matches_quadratic():
    rule = ts_rule(1.0, 1.0, 3.0, 3.0, 4.0)
    band = BandPotential(rule)
    assert band.feasible
    for y in np.linspace(-1, 1, 41):
        assert abs(band.phi(y) - 3.0 * y * y / 4.0) < 1e-7


def test_band_detects_underdeclared_ratio():
    true_r = 10.0 + 6.0 * math.log(2)
    rule = ts_rule(1.0, 1.0, 10.0, 10.0, true_r)
    assert BandPotential(rule).feasible
    halved = ts_rule(1.0, 1.0, 10.0, 10.0, true_r / 2)
    band = BandPotential(halved)
    assert not band.feasible
    assert band.min_gap < -1e-6


# (rates, exponent, ratio) of polynomial bands on two points at distance 1.5;
# the low ratios put critical points inside the band, or make it empty
POLY_BANDS = [
    ((1.0, 1.0), 1, 1.0 + 6.0 * math.log(2)),
    ((3.0, 0.5), 1, 5.0),
    ((0.2, 2.5), 1, 2.5 + 6.0 * math.log(2)),
    ((1.0, 1.0), 3, 2.0),
    ((3.0, 0.5), 3, 3.0),
]


@functools.lru_cache(maxsize=None)
def band_case(k: int) -> BandPotential:
    if k < len(POLY_BANDS):
        rates, t, r = POLY_BANDS[k]
        return algorithms._odd_exponent_band(Umts(make_uniform(2, 1.5), np.array(rates), 1.0), 1.5, t, r)
    true_r = algorithms.two_stable_ratio(1.0, 4.0, 1.0)
    return BandPotential(ts_rule(1.0, 1.0, 4.0, 1.0, [true_r, true_r / 2.0][k - len(POLY_BANDS)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(POLY_BANDS) + 1), st.data())
def test_band_phi_matches_candidate_list(k, data):
    band = band_case(k)
    knots = [band.y_minus, band.y_plus, *band._roots_minus, *band._roots_plus]
    d = band.rule.d
    y = data.draw(st.one_of(st.sampled_from(knots), st.floats(-1.5 * d, 1.5 * d)))
    assert band.phi(y) == band_phi_candidates(band, y)


def test_band_odd_exponent_two_points_feasible_and_bounded():
    u = Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), 1.0)
    a = odd_exponent(u)
    assert a.phi(np.array([0.0, 0.0])) >= 0.0
    assert a.phi_sup <= a.potential_bound + 1e-9
    ys = np.linspace(-1, 1, 101)
    vals = [a.phi(np.array([y, 0.0])) for y in ys]
    assert min(vals) >= 0.0


def test_two_stable_potential_is_tight_interior():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r1, r2 = rng.uniform(0.0, 8.0, 2)
        s = rng.uniform(0.2, 4.0)
        d = rng.uniform(0.5, 3.0)
        u = Umts(make_uniform(2, d), np.array([r1, r2]), s)
        a = two_stable(u)
        y = rng.uniform(-0.9 * d, 0.6 * d)
        delta = rng.uniform(0.0, 0.3 * d)
        w = np.array([y, 0.0])
        for v in (0, 1):
            w2 = w.copy()
            w2[v] += delta
            if abs(w2[0] - w2[1]) >= d:
                continue
            slack = integral_step_slack(a, u, w, v, delta)
            assert abs(slack) < 1e-7, (r1, r2, s, d, y, v, slack)


def test_two_stable_potential_norm_bound():
    # Slopes at the domain ends are -r1/2 and r2/2 with convexity between,
    # so the sup is at most max(r1, r2) * d, and the ratio dominates both
    # rates; the declared eta = 4 is a legal upgrade of that.
    rng = np.random.default_rng(11)
    for _ in range(60):
        r1, r2 = rng.uniform(0.0, 10.0, 2)
        s = rng.uniform(0.1, 5.0)
        d = rng.uniform(0.2, 4.0)
        u = Umts(make_uniform(2, d), np.array([r1, r2]), s)
        a = two_stable(u)
        assert a.declared_ratio >= max(r1, r2) - 1e-9
        assert a.phi_sup <= max(r1, r2) * d + 1e-8
        assert a.phi_sup <= a.declared_ratio * d + 1e-8


def test_two_stable_local_integral_matches_quadrature():
    for r1, r2, s in [(2.0, 0.0, 1.0), (1.0, 1.0, 1.0), (3.0, 2.999999999, 2.0), (0.5, 4.0, 0.7)]:
        d = 1.3
        u = Umts(make_uniform(2, d), np.array([r1, r2]), s)
        a = two_stable(u)
        for y, delta in [(-0.4, 0.9), (0.0, 0.5), (0.7, 0.3)]:
            w = np.array([y, 0.0])
            for v in (0, 1):
                got = a.local_cost_integral(w, v, delta)
                sign = 1.0 if v == 0 else -1.0
                rate = r1 if v == 0 else r2

                def integrand(tau):
                    p = a.probabilities(np.array([y + sign * tau, 0.0]))
                    return rate * p[v]

                want = quad(integrand, 0.0, delta)[0]
                assert abs(got - want) < 1e-8


def test_odd_exponent_local_integral_matches_quadrature():
    u = Umts(make_uniform(4, 2.0), np.array([1.0, 1.0, 1.0, 1.0]), 1.0)
    a = odd_exponent(u)
    w = np.array([0.3, 0.0, 1.1, 0.6])
    for v in range(4):
        got = a.local_cost_integral(w, v, 0.2)

        def integrand(tau):
            w2 = w.copy()
            w2[v] += tau
            diffs = (w2 - w2[v]) / 2.0
            return (1.0 + (diffs**3).sum()) / 4.0

        want = quad(integrand, 0.0, 0.2)[0]
        assert abs(got - want) < 1e-9


def test_estimate_matches_band_on_two_points():
    # At the tight ratio r1 + s the linear rule needs the quadratic
    # potential r1 y^2 / 4d; the grid estimate must stay below it and
    # land close at this resolution.
    u = Umts(make_uniform(2, 1.0), np.array([1.0, 1.0]), 1.0)
    a = dataclasses.replace(odd_exponent(u), declared_ratio=2.0)
    band = BandPotential(ts_rule(1.0, 1.0, 1.0, 1.0, 2.0))
    assert band.feasible
    est = estimate_potential(a, grid_step=1.0 / 16)
    assert est.converged and not est.diverged
    for j in range(17):
        y = j / 16.0
        w = np.array([y, 0.0])
        assert est.phi(w) <= band.phi(y) + 1e-6
    assert est.sup > 0.5 * band.sup()
    assert est.sup <= band.sup() + 1e-6


def test_estimate_converges_on_larger_uniform():
    u = Umts(make_uniform(4, 1.0), np.full(4, 1.0), 1.0)
    a = odd_exponent(u)
    assert a.descriptor["potential_converged"]
    assert 0.0 <= a.phi_sup <= a.potential_bound + a.phi_slack + 1e-6
    w = np.array([0.2, 0.0, 0.4, 0.1])
    assert a.phi(w) >= 0.0


def test_estimate_diverges_when_ratio_underdeclared():
    u = Umts(make_uniform(3, 1.0), np.full(3, 1.0), 1.0)
    a = odd_exponent(u)
    bad = dataclasses.replace(a, declared_ratio=float(u.rates.max()))
    est = estimate_potential(bad, grid_step=0.25)
    assert not est.converged


def test_estimate_box_grid_unequal_rates():
    u = Umts(make_uniform(3, 1.0), np.array([2.0, 1.0, 0.5]), 1.0)
    a = odd_exponent(u)
    assert a.descriptor["potential_converged"]
    est = estimate_potential(a, grid_step=0.125)
    assert not est.symmetric
    assert est.converged
    assert abs(est.phi(np.zeros(3)) - est.table[est.index.find(np.zeros(3, dtype=np.int64))]) < 1e-12


def test_trivial_and_single_point_potentials_vanish():
    u = Umts(make_uniform(3, 1.0), np.array([1.0, 2.0, 3.0]), 1.0)
    a = trivial_algorithm(u)
    assert a.phi(np.array([5.0, 0.0, 1.0])) == 0.0
    assert a.phi_sup == 0.0
    one = Umts(make_uniform(1), np.array([2.0]), 1.0)
    est = estimate_potential(trivial_algorithm(one))
    assert est.converged and est.sup == 0.0


def test_estimate_rejects_incompatible_grid():
    from umtslab.metricspace import FiniteMetric

    dist = np.array([[0.0, 1.0, 1.7], [1.0, 0.0, 1.3], [1.7, 1.3, 0.0]])
    m = FiniteMetric(("a", "b", "c"), dist)
    u = Umts(m, np.full(3, 1.0), 1.0)
    a = trivial_algorithm(u)
    with pytest.raises(ValueError):
        estimate_potential(a, grid_step=1.7 / 4)


@functools.lru_cache(maxsize=None)
def grid_states(n: int, levels: int, symmetric: bool) -> np.ndarray:
    return _enumerate_states(n, levels, symmetric)


@st.composite
def estimates_and_points(draw):
    """A gridded estimate with a random table, and a work function placed on
    the grid, off it, or partly beyond ``levels`` (where phi clips)."""
    n = draw(st.integers(2, 8))
    symmetric = draw(st.booleans())
    top = max(l for l in range(2, 17) if vi_state_count(n, l, symmetric) <= 20_000)
    levels = draw(st.integers(2, top))
    h = draw(st.sampled_from([0.125, 0.3, 1.0, 2.5]))
    states = grid_states(n, levels, symmetric)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(0.0, 10.0, states.shape[0])
    est = PotentialEstimate(
        states, table, h, levels, symmetric, True, False, 1, 0.0, 0.0, GridIndex(states, levels)
    )
    kind = draw(st.sampled_from(["on-grid", "off-grid", "beyond"]))
    if kind == "on-grid":
        w = rng.integers(0, levels + 1, n) * h
    elif kind == "off-grid":
        w = rng.uniform(0.0, levels * h, n)
    else:
        w = rng.uniform(0.0, 2.5 * levels * h, n)
        w[rng.integers(n)] = levels * h * 1.7
    return est, w + draw(st.sampled_from([0.0, -3.7, 11.0]))


@settings(max_examples=300, deadline=None)
@given(estimates_and_points())
def test_phi_matches_corner_loop(case):
    est, w = case
    assert est.phi(w) == reference_phi(est, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.data())
def test_stacked_phi_equals_the_rows(n, symmetric, data):
    """A stack of work functions, in blocks of PHI_BLOCK_TERMS corner terms,
    gives each row's one-row value bit for bit, on either side of a block."""
    top = max(l for l in range(2, 17) if vi_state_count(n, l, symmetric) <= 20_000)
    levels = data.draw(st.integers(2, top))
    h = data.draw(st.sampled_from([0.125, 0.3, 1.0]))
    states = grid_states(n, levels, symmetric)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    est = PotentialEstimate(
        states, rng.uniform(0.0, 10.0, states.shape[0]), h, levels, symmetric,
        True, False, 1, 0.0, 0.0, GridIndex(states, levels),
    )
    block = potential.PHI_BLOCK_TERMS >> n
    rows = data.draw(st.sampled_from([1, 5, block - 1, block, block + 1, 2 * block + 3]))
    W = rng.uniform(0.0, 1.3 * levels * h, (rows, n))
    W[rng.random(rows) < 0.3] = rng.integers(0, levels + 1, n) * h  # on the grid
    got = est.phi(W)
    assert got.shape == (rows,)
    assert np.array_equal(got, [est.phi(w) for w in W])
    assert np.array_equal(est.phi(W[None, :3]), got[None, :3])


U4 = Umts(make_uniform(4), np.array([3.0, 1.0, 2.0, 0.5]), 1.0)
STACK_RULES = {
    "trivial": lambda: trivial_algorithm(U4),
    "odd-b2-band": lambda: odd_exponent(Umts(make_uniform(2), np.ones(2), 1.0)),
    "odd-b4-grid": lambda: odd_exponent(Umts(make_uniform(4), np.ones(4), 1.0)),
    # unequal rates leave the b = 7 potential out
    "odd-b7-omitted": lambda: odd_exponent(
        Umts(make_uniform(7), np.linspace(0.5, 2.0, 7), 1.0)
    ),
    "two-stable": lambda: two_stable(Umts(make_uniform(2), np.array([2.0, 0.5]), 1.0)),
    "combined": lambda: combined_algorithm(U4),
    "rho-variant-combined": lambda: algorithms.rho_variant(combined_algorithm, U4, 0.5),
}


@pytest.mark.parametrize("name", sorted(STACK_RULES))
def test_every_potential_takes_stacks(name):
    alg = STACK_RULES[name]()
    n = alg.umts.n
    rng = np.random.default_rng(3)
    W = rng.uniform(0.0, alg.umts.diameter(), (2, 3, n))
    want = np.array([[alg.phi(w) for w in rows] for rows in W])
    assert all(type(alg.phi(w)) is float for w in W[0])
    assert np.array_equal(alg.phi(W), want)
    assert np.array_equal(alg.phi(W[0]), want[0])


@pytest.mark.parametrize(
    "alg_factory, n, rates, grid_step",
    [
        (odd_exponent, 3, [2.0, 1.0, 0.5], 0.125),
        (odd_exponent, 4, [1.0] * 4, 1.0 / 16),
        (odd_exponent, 5, [1.0, 3.0, 2.0, 1.0, 0.5], 0.25),
        (odd_exponent, 6, [1.0] * 6, 0.1),
        (trivial_algorithm, 3, [1.0, 2.0, 3.0], 0.25),
        (two_stable, 2, [2.0, 0.5], 1.0 / 16),
    ],
)
def test_estimate_table_matches_per_state_build(alg_factory, n, rates, grid_step):
    u = Umts(make_uniform(n, 1.0), np.array(rates), 1.0)
    a = alg_factory(u)
    if alg_factory is trivial_algorithm:
        a = dataclasses.replace(a, declared_ratio=a.declared_ratio + 1.0)
    est = estimate_potential(a, grid_step=grid_step)
    states, table, sweeps, slack = reference_estimate(a, u, grid_step)
    assert np.array_equal(est.states, states)
    assert np.array_equal(est.table, table)
    assert (est.sweeps, est.slack) == (sweeps, slack)


@pytest.mark.parametrize("rows", [1, 7, 500, potential.PROB_BLOCK_ROWS])
def test_blocked_grid_probabilities_equal_one_call(monkeypatch, rows):
    monkeypatch.setattr(potential, "PROB_BLOCK_ROWS", rows)
    # 6435 and 9031 grid states: more than one default block each
    for n, rates, levels in ((8, [1.0] * 8, 8), (5, [1.0, 3.0, 2.0, 1.0, 0.5], 6)):
        alg = odd_exponent(Umts(make_uniform(n, 1.0), np.array(rates), 1.0))
        W = _enumerate_states(n, levels, rates == [1.0] * n) / levels
        assert np.array_equal(grid_probabilities(alg, W), alg.probabilities(W))


def held_estimates(root) -> set[int]:
    """Ids of the PotentialEstimates reachable from an algorithm through its
    fields, containers, closures and bound methods."""
    found, seen, todo = set(), set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool, type(None), type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, PotentialEstimate):
            found.add(id(obj))
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, types.MethodType):
            todo.extend((obj.__self__, obj.__func__))
        elif isinstance(obj, types.FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
        elif isinstance(obj, algorithms.OnlineAlgorithm) or hasattr(obj, "__dataclass_fields__"):
            todo.extend(vars(obj).values())
    return found


@pytest.mark.parametrize(
    "build",
    [
        lambda: weighted_caching_algorithm([1.0, 1.5, 2.0, 1.2]),
        lambda: combined_algorithm(Umts(make_uniform(4), np.array([3.0, 1.0, 2.0, 0.5]), 1.0)),
    ],
    ids=["caching-k3", "combined-n4"],
)
def test_each_estimate_is_built_once(monkeypatch, build):
    made = []

    def counted(*args, **kwargs):
        est = estimate_potential(*args, **kwargs)
        made.append(est)
        return est

    monkeypatch.setattr(algorithms, "estimate_potential", counted)
    alg = build()
    held = held_estimates(alg)
    assert held, "the built algorithm should hold a gridded potential"
    assert len(made) == len(held)
    assert held == {id(est) for est in made}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_states_match_itertools(n):
    levels = 16 if n <= 4 else 10
    box = [k for k in itertools.product(range(levels + 1), repeat=n) if min(k) == 0]
    assert np.array_equal(_enumerate_states(n, levels, False), np.array(box, dtype=np.int64))
    rising = itertools.combinations_with_replacement(range(levels + 1), n)
    sym = [k for k in rising if k[0] == 0]
    assert np.array_equal(_enumerate_states(n, levels, True), np.array(sym, dtype=np.int64))


@pytest.mark.parametrize("n", range(1, 9))
def test_symmetric_grid_states_keep_the_tuple_list_order(n):
    """The symmetric grid's states equal the array of the tuples (0, *k) over
    itertools' combinations, in that order, at every level count up to 8."""
    for levels in range(9):
        rest = itertools.combinations_with_replacement(range(levels + 1), n - 1)
        want = np.array([(0, *k) for k in rest], dtype=np.int64)
        got = potential._enumerate_states(n, levels, True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
