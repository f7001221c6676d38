"""The atomic audit checks a whole run in array passes; it must report exactly
what the step-by-step oracle reports, on passing runs and on one negative
control per check."""

import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from oracles import reference_atomic_audit, run_steps, run_tasks
from umtslab.algorithms import odd_exponent, trivial_algorithm, two_stable
from umtslab.cli import main
from umtslab.core import ElementaryTask, Umts
from umtslab.harness import (
    ADVERSARY_KINDS,
    AdversaryConfig,
    adversary,
    audit,
    play,
    ratio_report,
    replay,
)
from umtslab.metricspace import make_uniform


def uniform_umts(rates, s=1.0):
    rates = np.asarray(rates, dtype=float)
    return Umts(make_uniform(len(rates)), rates, s)


@lru_cache(maxsize=None)
def rule(name: str):
    if name == "trivial":
        return trivial_algorithm(uniform_umts([5.0, 1.0, 2.0]))
    if name == "two-stable":
        return two_stable(uniform_umts([3.0, 1.0]))
    b = int(name.split("-b")[1])
    return odd_exponent(uniform_umts(np.ones(b)))


def as_text(report: dict) -> str:
    """The report as exact text: every float by its shortest round-trip repr,
    NaN included, and each issue as its fields."""
    return json.dumps(report, default=vars, sort_keys=True)


def assert_same_report(run):
    got = audit(run)
    want = reference_atomic_audit(run.alg, run_steps(run))
    assert as_text(got) == as_text(want)
    return got


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("name", ["odd-b2", "odd-b4", "odd-b8", "two-stable", "trivial"])
def test_audit_equals_the_step_by_step_oracle(name, kind):
    run = play(rule(name), adversary(AdversaryConfig(kind=kind, steps=120, seed=11)))
    report = assert_same_report(run)
    assert report["passed"], report["worst"]
    assert report["steps"] == len(run.v) > 0


@pytest.mark.parametrize("name", ["odd-b2", "odd-b4", "two-stable", "trivial"])
def test_audit_evaluates_the_potential_in_one_call(name):
    calls = []
    base = rule(name)

    def counted(w):
        calls.append(np.shape(w))
        return base.phi(w)

    alg = replace(base, phi=counted)
    config = AdversaryConfig(kind="uniform-random", steps=40, seed=2)
    run = play(alg, adversary(config))
    report = audit(run)
    assert calls == [(len(run.v) + 1, alg.umts.n)]
    assert as_text(report) == as_text(audit(replace(run, alg=base)))


def test_empty_run_equals_the_oracle():
    assert_same_report(play(rule("odd-b4"), replay([])))


@pytest.mark.parametrize(
    "alg",
    [
        replace(trivial_algorithm(uniform_umts([5.0, 1.0])), declared_ratio=5.0 / 3.0),
        replace(rule("two-stable"), declared_ratio=1.5),
    ],
    ids=["trivial", "two-stable"],
)
def test_under_declared_rule_fails_sensibility(alg):
    report = assert_same_report(play(alg, adversary(AdversaryConfig(steps=60, seed=4))))
    assert not report["passed"]
    assert set(report["worst"]) == {"sensibility"}


@pytest.mark.parametrize("name", ["two-stable", "odd-b4"])
@pytest.mark.parametrize("excess", [5.0, 1e-8])
def test_charge_beyond_the_crossing_fails_resadv(name, excess):
    alg = rule(name)
    cross = alg.zero_crossing(np.zeros(alg.umts.n), 1)
    tasks = [ElementaryTask("v2", cross + excess), ElementaryTask("v1", 0.1)]
    report = assert_same_report(play(alg, replay(tasks)))
    assert report["worst"]["resadv"]["step"] == 0
    assert report["worst"]["resadv"]["magnitude"] == pytest.approx(excess, rel=1e-6)


def far(w):
    """Whether a work function, or each of a stack of them, has |w|_1 > 0.3."""
    return np.abs(np.asarray(w)).sum(axis=-1) > 0.3


def nan_potential_run():
    """odd-b4 with its potential NaN past |w|_1 = 0.3, 40 uniform-random steps."""
    base = rule("odd-b4")
    alg = replace(base, phi=lambda w: np.where(far(w), math.nan, base.phi(w)))
    return play(alg, adversary(AdversaryConfig(steps=40, seed=0)))


def test_a_nan_potential_fails_sensibility():
    """Every step that leaves or enters a NaN potential fails sensibility."""
    run = nan_potential_run()
    report = assert_same_report(run)
    nan_at = far(run.w)
    steps = np.flatnonzero(nan_at[:-1] | nan_at[1:]).tolist()
    assert len(steps) > 30
    assert [(i.lemma, i.step) for i in report["issues"]] == [("sensibility", i) for i in steps]
    assert all(math.isnan(i.magnitude) for i in report["issues"])


def test_a_nan_crossing_fails_resadv():
    """The same charges on a rule whose crossing is NaN past |w|_1 = 0.3
    fail resadv at every step charged from there."""
    base = rule("odd-b4")
    alg = replace(base, zero_crossing=lambda w, v: math.nan if far(w) else base.zero_crossing(w, v))
    run = play(alg, replay(run_tasks(nan_potential_run())))
    report = assert_same_report(run)
    steps = np.flatnonzero(far(run.w[:-1])).tolist()
    assert len(steps) > 30
    assert [(i.lemma, i.step) for i in report["issues"]] == [("resadv", i) for i in steps]
    assert all(math.isnan(i.magnitude) for i in report["issues"])


def test_mass_on_an_excluded_state_fails_betatagc():
    alg = replace(rule("two-stable"), probabilities=lambda w: np.full(np.shape(w), 0.5))
    tasks = [ElementaryTask("v1", 5.0), ElementaryTask("v2", 0.3), ElementaryTask("v1", 5.0)]
    report = assert_same_report(play(alg, replay(tasks)))
    assert report["worst"]["betatagc"]["step"] == 0
    assert report["worst"]["betatagc"]["detail"] == "mass on excluded state v1"


@pytest.mark.parametrize("name", ["trivial", "two-stable"])
def test_rule_off_the_simplex_fails_distribution(name):
    base = rule(name)
    alg = replace(base, probabilities=lambda w: 1.01 * np.asarray(base.probabilities(w)))
    tasks = run_tasks(play(base, adversary(AdversaryConfig(steps=30, seed=5))))
    run = play(alg, replay(tasks))
    report = assert_same_report(run)
    assert report["passed"] is False
    assert report["worst"]["distribution"]["step"] == 0
    assert math.isnan(report["cost"])
    assert all(math.isnan(row["cost"]) for row in report["trace"][1:])
    # the record prices no step that reads a failing distribution, so its
    # cost is NaN and the ratio check fails
    assert math.isnan(run.cost)
    assert ratio_report(run)["passed"] is False


def test_start_off_the_simplex_leaves_only_the_first_step_unpriced():
    base = rule("two-stable")
    def probabilities(w):
        return np.asarray(base.probabilities(w)) * (1.01 if not np.any(w) else 1.0)

    alg = replace(base, probabilities=probabilities)
    report = assert_same_report(play(alg, adversary(AdversaryConfig(steps=30, seed=5))))
    assert [(i.lemma, i.step) for i in report["issues"]] == [("distribution", 0)]
    costs = [row["cost"] for row in report["trace"][1:]]
    assert math.isnan(costs[0]) and not any(map(math.isnan, costs[1:]))


def test_verify_fails_a_trace_whose_start_is_off_the_simplex(tmp_path, capsys):
    base = rule("two-stable")
    def probabilities(w):
        return np.asarray(base.probabilities(w)) * (1.01 if not np.any(w) else 1.0)

    alg = replace(base, probabilities=probabilities)
    report = audit(play(alg, adversary(AdversaryConfig(steps=30, seed=5))))
    trace = tmp_path / "start.jsonl"
    trace.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in report["trace"]))
    assert main(["verify", str(trace)]) == 1
    assert "distribution violated at step 0" in capsys.readouterr().out
