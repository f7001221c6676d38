import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    METRIC_KINDS,
    line_cdf_cost,
    metric_of,
    random_metric,
    random_prob,
    random_rows,
    transport_bruteforce,
)
from umtslab.metricspace import FiniteMetric, make_line, make_star, make_uniform
from umtslab.transport import mcost_metric, needs_lp, not_distribution

def test_identity_costs_nothing():
    m = make_uniform(3, 1.0)
    p = np.array([0.2, 0.3, 0.5])
    assert mcost_metric(m, p, p) == 0.0


def test_two_point_full_swap():
    m = make_uniform(2, 2.0)
    assert mcost_metric(m, [1, 0], [0, 1]) == pytest.approx(2.0, abs=1e-12)


def test_line_split():
    m = make_line(3, 1.0)
    got = mcost_metric(m, [1, 0, 0], [0, 0.5, 0.5])
    assert got == pytest.approx(1.5, abs=1e-12)
    assert got == pytest.approx(line_cdf_cost([0, 1, 2], [1, 0, 0], [0, 0.5, 0.5]), abs=1e-12)


def test_matches_bruteforce_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        d = random_metric(rng, n)
        m = FiniteMetric(tuple(f"x{i}" for i in range(n)), d)
        p, q = random_prob(rng, n), random_prob(rng, n)
        assert mcost_metric(m, p, q) == pytest.approx(
            transport_bruteforce(d, p, q), abs=1e-9
        )


def test_tree_realizations_match_bruteforce():
    rng = np.random.default_rng(8)
    spaces = [
        make_uniform(4, 2.0),
        make_line(4, 0.7),
        make_star([1.0, 2.0, 5.0, 8.0]),
    ]
    for m in spaces:
        for _ in range(25):
            p, q = random_prob(rng, m.n), random_prob(rng, m.n)
            assert mcost_metric(m, p, q) == pytest.approx(
                transport_bruteforce(m.dist, p, q), abs=1e-9
            )


def test_needs_lp_only_without_a_closed_form():
    def bare(m):
        return FiniteMetric(m.labels, m.dist)

    assert needs_lp(bare(make_line(4)))
    assert not needs_lp(make_line(4))  # its tree realization
    assert not needs_lp(bare(make_uniform(5, 2.0)))
    assert not needs_lp(bare(make_star([1.0, 2.0, 5.0])))


def test_line_cdf_agrees_everywhere():
    rng = np.random.default_rng(9)
    m = make_line(6, 1.3)
    pos = np.arange(6) * 1.3
    for _ in range(40):
        p, q = random_prob(rng, 6), random_prob(rng, 6)
        assert mcost_metric(m, p, q) == pytest.approx(line_cdf_cost(pos, p, q), abs=1e-9)


def test_transport_properties():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        d = random_metric(rng, n)
        m = FiniteMetric(tuple(f"x{i}" for i in range(n)), d)
        p, q, r = (random_prob(rng, n) for _ in range(3))
        cpq = mcost_metric(m, p, q)
        assert cpq == pytest.approx(mcost_metric(m, q, p), abs=1e-9)
        nearest = d[~np.eye(n, dtype=bool)].min()
        assert cpq >= nearest * np.abs(p - q).sum() / 2.0 - 1e-9
        assert cpq <= mcost_metric(m, p, r) + mcost_metric(m, r, q) + 1e-9


@pytest.mark.parametrize(
    "bad",
    [
        [0.5, np.nan, 0.5],
        [0.5, np.inf, -np.inf],
        [np.inf, 0.0, 0.0],
        [1.0 + 1e-11, -1e-11, 0.0],
        [0.5, 0.5, 1e-8],
        [0.3, 0.3, 0.3],
    ],
)
def test_mcost_requires_distributions(bad):
    for m in (make_uniform(3, 1.0), make_line(3, 1.0)):
        good = [0.2, 0.3, 0.5]
        with pytest.raises(ValueError):
            mcost_metric(m, bad, good)
        with pytest.raises(ValueError):
            mcost_metric(m, good, bad)


def test_mcost_accepts_rounding_noise():
    m = make_uniform(3, 1.0)
    p = [0.5 + 1e-13, 0.5, -1e-13]
    q = [0.5, 0.5 - 5e-10, 5e-10 + 1e-10]
    assert mcost_metric(m, p, q) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(METRIC_KINDS), st.integers(2, 4), st.integers(1, 5), st.integers(0, 2**32 - 1)
)
def test_stacked_transport_equals_one_row_calls(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    m = metric_of(kind, n, rng)
    p, q = random_rows(rng, k, m.n), random_rows(rng, k, m.n)
    q[0] = p[0]  # a row that does not move
    got = mcost_metric(m, p, q)
    rows = np.array([mcost_metric(m, a, b) for a, b in zip(p, q)])
    assert got.shape == (k,)
    if kind == "lp":
        np.testing.assert_allclose(got, rows, rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(got, rows)
    i = k - 1  # the bruteforce oracle takes ~0.1 s at n = 4, so one row
    assert got[i] == pytest.approx(transport_bruteforce(m.dist, p[i], q[i]), abs=1e-9)


def test_stacked_transport_keeps_the_leading_shape():
    rng = np.random.default_rng(12)
    m = make_line(4, 1.0)
    p, q = random_rows(rng, 6, 4).reshape(2, 3, 4), random_rows(rng, 6, 4).reshape(2, 3, 4)
    got = mcost_metric(m, p, q)
    assert got.shape == (2, 3)
    assert got[1, 2] == mcost_metric(m, p[1, 2], q[1, 2])
    with pytest.raises(ValueError, match="length"):
        mcost_metric(m, p, q[0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(METRIC_KINDS),
    st.integers(2, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sum", "negative", "nan", "inf"]),
    st.booleans(),
)
def test_stacked_transport_rejects_one_bad_row(kind, n, k, seed, fault, in_p):
    rng = np.random.default_rng(seed)
    m = metric_of(kind, n, rng)
    p, q = random_rows(rng, k, m.n), random_rows(rng, k, m.n)
    bad = p if in_p else q
    row = int(rng.integers(k))
    if fault == "sum":
        bad[row] *= 1.01
    elif fault == "negative":
        shift = bad[row, 0] + 1e-9  # entry 0 ends at -1e-9, the sum stays 1
        bad[row, 0] -= shift
        bad[row, 1] += shift
    else:
        bad[row, 0] = np.nan if fault == "nan" else np.inf
    with pytest.raises(ValueError, match="not a distribution"):
        mcost_metric(m, p, q)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_row_check_agrees_with_the_one_row_check_at_its_threshold(n, k, seed):
    rng = np.random.default_rng(seed)
    # sums within a few ulps of 1 +- 1e-9, where the summation order decides
    off = rng.choice([-1.0, 1.0], (k, 1)) * rng.uniform(0.9e-9, 1.1e-9, (k, 1))
    rows = random_rows(rng, k, n) * (1.0 + off)
    m = make_uniform(n, 1.0)
    for row, rejected in zip(rows, not_distribution(rows)):
        try:
            mcost_metric(m, row, row)
        except ValueError:
            assert rejected
        else:
            assert not rejected
