"""The combined audit reads a run step by step and checks and prices it in
whole-run passes; it must report exactly what the step-by-step oracle
reports, on passing runs and on negative controls."""

import json
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from oracles import ReferenceCombinedRun
from test_combiner import instance_d, two_level_metric, ts_var
from umtslab.algorithms import trivial_algorithm, two_stable
from umtslab.combiner import CombinedRun, block_subsystem, combine
from umtslab.core import Umts
from umtslab.harness import (
    ADVERSARY_KINDS,
    AdversaryConfig,
    adversary,
    audit_steps,
    generate_sequence,
    replay,
    simulate,
)
from umtslab.hst import line_algorithm, weighted_caching_algorithm
from umtslab.metricspace import make_uniform
from umtslab.portfolio import combined_algorithm, w_combined_algorithm


@lru_cache(maxsize=None)
def rule(name: str):
    if name == "line8":
        return line_algorithm(8)
    if name == "caching3-drawn":
        return weighted_caching_algorithm(np.random.default_rng(7).uniform(0.5, 2.0, 4))
    if name == "combined5":
        rates = np.array([3.7, 0.4, 1.9, 0.9, 2.6])
        return combined_algorithm(Umts(make_uniform(5), rates, 1.0))
    if name == "wcombined8":
        rates = np.full(8, 0.8)
        rates[0] = 4.5
        return w_combined_algorithm(Umts(make_uniform(8), rates, 1.0))
    return instance_d()


def as_text(value) -> str:
    """Exact text: every float by its shortest round-trip repr, NaN included,
    and each issue as its fields."""
    return json.dumps(value, default=vars, sort_keys=True)


def assert_same_audit(alg, policy) -> dict:
    """Audit the run ``policy`` makes against ``alg`` as the run makes it,
    then replay its steps through the oracle; both must agree exactly."""
    run, steps = CombinedRun(alg), []
    for rec in simulate(alg, policy):
        steps.append(rec)
        run.step(rec)
    report = run.report()
    oracle = ReferenceCombinedRun(alg)
    for rec in steps:
        oracle.step(rec)
    assert as_text(report) == as_text(oracle.report())
    assert as_text(run.issues) == as_text(oracle.issues)
    assert as_text([run.header(), *run.trace]) == as_text([oracle.header(), *oracle.trace])
    assert as_text(run.report()) == as_text(report)  # a second report reads the same
    return report


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize(
    "name", ["line8", "caching3-drawn", "combined5", "wcombined8", "mixed-depth"])
def test_audit_equals_the_step_by_step_oracle(name, kind):
    alg = rule(name)
    report = assert_same_audit(alg, adversary(AdversaryConfig(kind=kind, steps=30, seed=5)))
    assert report["passed"], report["worst"]
    assert report["steps"] > 0


def test_empty_run_equals_the_oracle():
    report = assert_same_audit(rule("line8"), replay([]))
    assert report["steps"] == 0 and report["passed"]


def scaled(base, factor, where=lambda w: True):
    """``base`` with its distributions scaled by ``factor`` where ``where(w)``."""
    return replace(base, probabilities=lambda w: base.probabilities(w) * (
        factor if where(w) else 1.0))


def off_quotient(qu):
    return scaled(two_stable(qu), 1.01)


def two_trivial_blocks(quotient):
    u = Umts(make_uniform(2), np.array([2.0, 1.0]), 1.0)
    blocks = [["v1"], ["v2"]]
    return combine(u, blocks, [trivial_algorithm(block_subsystem(u, b)) for b in blocks],
                   quotient)


def normalized(base):
    def probabilities(w):
        p = base.probabilities(w)
        return p / p.sum()

    return replace(base, probabilities=probabilities)


NEGATIVE = {
    "start": (lambda: scaled(rule("caching3-drawn"), 1.01, lambda w: not np.any(w)),
              {"distribution"}),
    "rule": (lambda: scaled(rule("caching3-drawn"), 1.01), {"distribution"}),
    "quotient": (lambda: two_trivial_blocks(off_quotient), {"distribution"}),
    "quotient-only": (lambda: normalized(two_trivial_blocks(off_quotient)), {"distribution"}),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE))
def test_off_the_simplex_equals_the_oracle(case):
    make, lemmas = NEGATIVE[case]
    alg = make()
    report = assert_same_audit(alg, adversary(AdversaryConfig(steps=20, seed=5)))
    assert not report["passed"] and set(report["worst"]) == lemmas


def test_quotient_off_the_simplex_fails_distribution_in_the_audit():
    alg = normalized(two_trivial_blocks(off_quotient))
    report = audit_steps(alg, simulate(alg, adversary(AdversaryConfig(steps=20, seed=5))))
    assert report["passed"] is False
    assert report["worst"]["distribution"]["detail"].startswith("quotient ")
    rows = report["trace"][1:]
    assert rows and all(np.isnan(row["qcost"]) and np.isfinite(row["cost"]) for row in rows)


def under_declared(a):
    """``a`` declaring half its ratio and half its zero crossings."""
    return replace(a, declared_ratio=0.5 * a.declared_ratio,
                   zero_crossing=lambda w, v: 0.5 * a.zero_crossing(w, v))


def two_level(weak: bool):
    u = Umts(two_level_metric(), np.array([1.0, 2.0, 3.0, 1.0]), 1.0)
    blocks = [["v1", "v2"], ["v3", "v4"]]
    balgs = [ts_var(0.1)(block_subsystem(u, b)) for b in blocks]
    if weak:
        balgs[0] = under_declared(balgs[0])
    return combine(u, blocks, balgs, ts_var(0.1))


def test_under_declared_block_fails_resadv_and_samecompratio():
    tasks = generate_sequence(two_level(False), AdversaryConfig(steps=60, seed=4))
    report = assert_same_audit(two_level(True), replay(tasks))
    assert {"resadv", "samecompratio"} <= set(report["worst"])
