import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_metric, reference_validate
from umtslab import metricspace
from umtslab.metricspace import (
    FiniteMetric,
    induced_metric,
    make_line,
    make_partition,
    make_star,
    make_uniform,
    metric_from_json,
    metric_to_json,
    min_cross_distance,
    quotient_metric,
    validate,
)


def test_uniform_two_points():
    m = make_uniform(2, 1.0)
    assert m.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert m.labels == ("v1", "v2")


def test_uniform_single_point_ignores_distance():
    m = make_uniform(1, 5.0)
    assert m.n == 1
    assert m.diameter() == 0.0


def test_uniform_four_points():
    m = make_uniform(4, 2.0)
    off = m.dist[~np.eye(4, dtype=bool)]
    assert (off == 2.0).all()
    assert validate(m) == []


def test_uniform_rejects_bad_args():
    with pytest.raises(ValueError):
        make_uniform(0, 1.0)
    with pytest.raises(ValueError):
        make_uniform(3, 0.0)


def test_line_distances():
    m = make_line(3, 1.0)
    assert m.dist[0, 2] == 2.0
    assert make_line(2, 0.5).diameter() == 0.5
    assert validate(make_line(8, 1.0)) == []


def test_star_examples():
    assert make_star([2, 2]).dist[0, 1] == 2.0
    m = make_star([2, 4, 6])
    assert m.dist[0, 1] == 3.0
    assert m.dist[0, 2] == 4.0
    assert m.dist[1, 2] == 5.0
    assert validate(m) == []
    assert make_star([1]).n == 1
    with pytest.raises(ValueError):
        make_star([1, -2])


def test_validate_reports_violations():
    assert validate(make_uniform(3, 1.0)) == []

    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    report = validate(FiniteMetric(("a", "b", "c"), bad))
    assert len([r for r in report if "triangle" in r]) > 0

    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    report = validate(FiniteMetric(("a", "b"), asym))
    assert any("asymmetry" in r for r in report)


def test_partition_and_quotient():
    m = make_uniform(4, 2.0)
    part = make_partition(m, [("v1", "v2"), ("v3",), ("v4",)])
    assert part.b == 3
    assert part.block_of("v3") == 1

    qm = quotient_metric(m, part)
    assert qm.labels == ("z1", "z2", "z3")
    # default quotient distance is the largest cross-block distance
    assert (qm.dist[~np.eye(3, dtype=bool)] == 2.0).all()
    assert min_cross_distance(m, part, 0, 1) == 2.0

    with pytest.raises(ValueError):
        make_partition(m, [("v1",), ("v2",)])
    with pytest.raises(ValueError):
        quotient_metric(m, part, dist_hat=np.ones((3, 3)) * 0.5)


def test_induced_metric():
    m = make_line(4, 1.0)
    sub = induced_metric(m, ("v2", "v4"))
    assert sub.labels == ("v2", "v4")
    assert sub.dist[0, 1] == 2.0


def test_json_round_trip_bit_exact():
    m = make_star([2.0, 4.0, 6.0 + 1e-13])
    back = metric_from_json(metric_to_json(m))
    assert back.labels == m.labels
    assert (back.dist == m.dist).all()
    # encoding is plain JSON with the documented keys
    obj = json.loads(metric_to_json(m))
    assert set(obj) == {"labels", "dist"}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.sampled_from([0.0, 1e-9, 0.25]), st.booleans(), st.data())
def test_validate_reports_what_the_whole_cube_check_reports(n, tol, small_blocks, data):
    """On valid metrics and on matrices with ties, tiny and negative entries,
    asymmetry and a nonzero diagonal, the reports and their order are those
    of the one (n, n, n) comparison, also when every block is one row."""
    if data.draw(st.booleans()):
        d = random_metric(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
    else:
        values = st.sampled_from([0.0, 1e-10, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
        d = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
        if data.draw(st.booleans()):
            d = np.maximum(d, d.T)
            np.fill_diagonal(d, 0.0)
    m = FiniteMetric(tuple(f"x{i}" for i in range(n)), d)
    block = 1 if small_blocks else metricspace.TRIANGLE_BLOCK
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metricspace, "TRIANGLE_BLOCK", block)
        assert validate(m, tol) == reference_validate(m, tol)


def test_validate_memory_stays_quadratic():
    """At n = 200 the triangle check's temporaries take a few MiB; as one
    (n, n, n) comparison they took 68.7 MiB, and at 1,024 points about 9 GiB."""
    m = make_uniform(200, 1.0)
    tracemalloc.start()
    try:
        assert validate(m) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
