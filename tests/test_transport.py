import numpy as np
import pytest

from oracles import line_cdf_cost, random_metric, random_prob, transport_bruteforce
from umtslab.metricspace import FiniteMetric, make_line, make_star, make_uniform
from umtslab.transport import as_probability, mcost_metric


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
        assert cpq >= m.min_positive() * np.abs(p - q).sum() / 2.0 - 1e-9
        assert cpq <= mcost_metric(m, p, r) + mcost_metric(m, r, q) + 1e-9


def test_as_probability():
    p = as_probability([0.5, 0.5 - 1e-13, -1e-13])
    assert (p >= 0).all()
    with pytest.raises(ValueError):
        as_probability([0.6, 0.6])
    with pytest.raises(ValueError):
        as_probability([1.5, -0.5])


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
