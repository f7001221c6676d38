"""Bucket-and-merge portfolios and the two-state merge bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from oracles import drive
from umtslab.algorithms import two_stable_ratio
from umtslab.core import Umts
from umtslab.harness import audit, play
from umtslab.metricspace import make_line, make_uniform
from umtslab.portfolio import (
    LOG_X_FLOOR,
    _logsumexp,
    bucket_index,
    combined_algorithm,
    ratio_budget,
    solve_log_x,
    w_combined_algorithm,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.integers(0, 39), max_size=8),
)
def test_logsumexp_matches_scipy(values, ties):
    a = np.array(values)
    for i in ties:  # ties at the max are taken out together
        a[i % len(a)] = a.max()
    assert _logsumexp(a) == float(logsumexp(a))


def test_logsumexp_on_scales_of_the_bucket_merge():
    logs = np.array([solve_log_x(1.0, r) for r in (1.0, 3.0, 3.0, 50.0, 9e3, 9e3)])
    for members in ([0], [1, 2], [0, 1, 2], [3, 4, 5], list(range(6))):
        assert _logsumexp(logs[members]) == float(logsumexp(logs[members]))


def merge_bound(s, x1, x2):
    return 2.0 * s * (math.log(x1 + x2) + 1.0)


def test_two_state_merge_bound_on_grid():
    xs = np.logspace(0.0, 6.0, 12)
    for s in (0.5, 1.0, 10.0):
        for x1 in xs:
            for x2 in xs:
                f = two_stable_ratio(
                    s,
                    2.0 * s * (math.log(x1) + 1.0),
                    2.0 * s * (math.log(x2) + 1.0),
                )
                assert f <= merge_bound(s, x1, x2) + 1e-9


def test_merge_ratio_monotone_in_both_rates():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = rng.uniform(0.2, 5.0)
        r1 = rng.uniform(0.0, 20.0)
        r2 = rng.uniform(0.0, 20.0)
        f = two_stable_ratio(s, r1, r2)
        assert two_stable_ratio(s, r1 + 0.3, r2) >= f - 1e-12
        assert two_stable_ratio(s, r1, r2 + 0.3) >= f - 1e-12
        assert f <= max(r1, r2) + s + 1e-12


def test_scale_solver_floor_and_inversion():
    assert solve_log_x(1.0, 0.0) == LOG_X_FLOOR
    assert solve_log_x(1.0, ratio_budget(1.0, LOG_X_FLOOR)) == LOG_X_FLOOR
    target = ratio_budget(2.0, 777.0)
    assert solve_log_x(2.0, target) == pytest.approx(777.0, rel=1e-9)
    assert solve_log_x(1.0, 3e5) <= solve_log_x(1.0, 6e5)


def test_bucket_index_pushes_ties_up():
    assert bucket_index(405.0) == 406
    assert bucket_index(405.999) == 406
    assert bucket_index(406.0) == 407


def test_combined_single_point():
    u = Umts(make_uniform(1), np.array([5.0]), 1.0)
    alg = combined_algorithm(u)
    assert alg.declared_ratio == 5.0
    assert (alg.beta, alg.eta) == (1.0, 0.5)
    assert alg.name == "combined(1)"
    assert alg.probabilities(np.zeros(1))[0] == 1.0


def test_combined_rejects_non_uniform():
    u = Umts(make_line(3), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        combined_algorithm(u)
    with pytest.raises(ValueError):
        w_combined_algorithm(u)


def test_combined_all_singletons_structure_and_ratio():
    u = Umts(make_uniform(4), np.array([3.0, 1.0, 2.0, 0.5]), 1.0)
    alg = combined_algorithm(u)
    info = alg.descriptor
    assert info["family"] == "bucket-merge"
    assert len(info["blocks"]) == 4
    assert not any(b["bucket"] for b in info["blocks"])
    assert info["log_x"] == pytest.approx(LOG_X_FLOOR + math.log(4.0))
    # head block is the first state (equal scales, ties by position), the
    # tail quotient rate is max tail rate plus the contracted log term
    tail_hat = 2.0 + 30.0 * math.log(3.0)
    assert alg.declared_ratio == pytest.approx(
        two_stable_ratio(10.0, 3.0, tail_hat), rel=1e-12
    )
    assert (alg.beta, alg.eta) == (1.0, 0.5)
    assert alg.eta_variant_basis == 0.5
    assert alg.declared_ratio <= info["budget"]
    p = alg.probabilities(np.zeros(4))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p >= 0).all()


def test_combined_all_singletons_audit_run():
    u = Umts(make_uniform(4), np.array([3.0, 1.0, 2.0, 0.5]), 1.0)
    alg = combined_algorithm(u)
    report = audit(play(alg, drive(40, seed=11)))
    assert report["steps"] == 40
    assert report["passed"], report["issues"]


def test_combined_variant_contracts_constants():
    u = Umts(make_uniform(3), np.array([3.0, 1.0, 2.0]), 1.0)
    from umtslab.algorithms import rho_variant

    var = rho_variant(combined_algorithm, u, 0.5)
    assert (var.beta, var.eta) == (0.5, 0.25)
    # rebuilt at doubled distance ratio: the contracted quotients double too
    tail_hat = 2.0 + 60.0 * math.log(2.0)
    assert var.declared_ratio == pytest.approx(
        two_stable_ratio(20.0, 3.0, tail_hat), rel=1e-12
    )


def test_combined_single_bucket_is_contracted_odd_exponent():
    n = 412
    u = Umts(make_uniform(n), np.ones(n), 1.0)
    alg = combined_algorithm(u)
    info = alg.descriptor
    assert len(info["blocks"]) == 1 and info["blocks"][0]["bucket"]
    assert alg.name == f"combined({n})"
    assert (alg.beta, alg.eta) == (1.0, 0.5)
    assert alg.declared_ratio == pytest.approx(1.0 + 60.0 * math.log(n))
    p = alg.probabilities(np.zeros(n))
    assert np.allclose(p, 1.0 / n, atol=1e-12)


def test_combined_bucket_plus_outlier():
    n_members = 417
    r_lo = ratio_budget(1.0, 405.9)
    r_hi = ratio_budget(1.0, 406.5)
    rates = np.array([r_lo] * n_members + [r_hi])
    u = Umts(make_uniform(n_members + 1), rates, 1.0)
    alg = combined_algorithm(u)
    info = alg.descriptor
    kinds = [b["bucket"] for b in info["blocks"]]
    assert kinds == [True, False]
    assert len(info["blocks"][0]["labels"]) == n_members
    hat_bucket = r_lo + 60.0 * math.log(n_members)
    assert alg.declared_ratio == pytest.approx(
        two_stable_ratio(10.0, hat_bucket, r_hi), rel=1e-12
    )
    assert alg.declared_ratio <= info["budget"]
    report = audit(play(alg, drive(5, seed=3)))
    assert report["passed"], report["issues"]


def test_anchored_merge_two_states_equal_rates():
    u = Umts(make_uniform(2), np.array([1.0, 1.0]), 1.0)
    alg = w_combined_algorithm(u)
    assert alg.declared_ratio == pytest.approx(6.0)
    assert (alg.beta, alg.eta) == (1.0, 0.6)
    assert alg.descriptor["bound"] == pytest.approx(1.0 + 30.0 * math.log(2.0))


def test_anchored_merge_five_states():
    u = Umts(make_uniform(5), np.array([4.0, 1.0, 1.0, 1.0, 1.0]), 1.0)
    alg = w_combined_algorithm(u)
    tail_hat = 1.0 + 30.0 * math.log(4.0)
    assert alg.declared_ratio == pytest.approx(
        two_stable_ratio(5.0, 4.0, tail_hat), rel=1e-12
    )
    t = 30.0
    bound = t * (
        np.logaddexp(4.0 / t - 1 / 3, math.log(4.0) + 1.0 / t - 1 / 3) + 1 / 3
    )
    assert alg.declared_ratio <= bound
    assert alg.descriptor["bound"] == pytest.approx(bound)
    report = audit(play(alg, drive(40, seed=7)))
    assert report["passed"], report["issues"]


def test_anchored_merge_rejects_unequal_tail():
    u = Umts(make_uniform(3), np.array([1.0, 2.0, 3.0]), 1.0)
    with pytest.raises(ValueError, match="tail"):
        w_combined_algorithm(u)


def test_anchored_merge_rejects_a_tail_rate_off_by_more_than_eps_eq():
    # 1e-6 off a rate of 2 is within numpy's default relative tolerance
    u = Umts(make_uniform(4), np.array([1.0, 2.0, 2.0, 2.000001]), 1.0)
    with pytest.raises(ValueError, match="tail"):
        w_combined_algorithm(u)
