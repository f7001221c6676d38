"""The audit and ``umtslab verify`` make the checks of ``umtslab.checks`` on
one run: the audit on the record ``play`` makes, verify on the trace the
audit writes. Each identity they share must fail first at the same step in
both, and a passing audit must write a trace that verifies."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import run_tasks
from test_combined_audit import NEGATIVE, assert_same_audit, two_level
from test_combiner import two_level_metric, ts_var
from test_verify import FAMILIES
from umtslab import cli
from umtslab.algorithms import rho_variant
from umtslab.combiner import block_subsystem, combine
from umtslab.core import Umts
from umtslab.harness import ADVERSARY_KINDS, AdversaryConfig, adversary, audit, play, replay
from umtslab.metricspace import make_uniform
from umtslab.portfolio import w_combined_algorithm

# the identities both check; the audit's clamp check of a negative quotient
# charge is a hatw issue of its own, as only the rule knows its tolerance
SHARED = {"welleqw", "hatw", "distribution", "betatagc", "samecompratio"}
AUDIT_ONLY = "negative quotient charge beyond tolerance"


def verified(report) -> tuple[int, str]:
    """``umtslab verify`` on the audit's trace, as ``umtslab run`` writes it."""
    head, *rows = [json.loads(cli.TRACE_ENCODER.encode(line)) for line in report["trace"]]
    return cli._verify(head, rows)


def first_shared(report):
    """(identity, step as verify numbers it) of the audit's first issue among
    the identities verify checks too, or None: the audit counts steps from
    0, verify from 1, and both give a start distribution step 0."""
    for issue in report["issues"]:
        if issue.lemma in SHARED and issue.detail != AUDIT_ONLY:
            return issue.lemma, 0 if "start is not" in issue.detail else issue.step + 1
    return None


def assert_same_first_failure(report):
    code, message = verified(report)
    expected = first_shared(report)
    if expected is None:
        assert code == 0, message
    else:
        check, step = expected
        assert code == 1 and message.startswith(f"{check} violated at step {step}:"), (
            expected, message)
    if report["passed"]:
        assert code == 0, message


def healthy_tasks(steps: int):
    return run_tasks(play(two_level(False), adversary(AdversaryConfig(steps=steps, seed=4))))


def nan_g_rule():
    """``two_level(False)`` whose block 0 potential, and with it the block's
    G value, is NaN once the block work function has |w|_1 > 0.3."""
    u = Umts(two_level_metric(), np.array([1.0, 2.0, 3.0, 1.0]), 1.0)
    blocks = [["v1", "v2"], ["v3", "v4"]]
    balgs = [ts_var(0.1)(block_subsystem(u, b)) for b in blocks]
    base = balgs[0]
    balgs[0] = replace(base, phi=lambda w: math.nan if np.abs(w).sum() > 0.3 else base.phi(w))
    return combine(u, blocks, balgs, ts_var(0.1))


def test_a_nan_g_value_fails_hatw_in_the_audit_and_in_verify():
    report = audit(play(nan_g_rule(), replay(healthy_tasks(20))))
    first = report["issues"][0]
    assert (first.lemma, first.step) == ("hatw", 13)
    assert math.isnan(first.magnitude)
    code, message = verified(report)
    assert code == 1 and message.startswith("hatw violated at step 14:"), message


def test_a_nan_g_value_fails_the_negative_quotient_charge_check():
    """The charged block's G value rises by NaN at steps 13, 14, 17 and 18,
    and the step-by-step oracle reports every issue the audit does."""
    report = assert_same_audit(play(nan_g_rule(), replay(healthy_tasks(20))))
    negative = [issue for issue in report["issues"]
                if issue.detail == "negative quotient charge beyond tolerance"]
    assert [issue.step for issue in negative] == [13, 14, 17, 18]
    assert all(issue.lemma == "hatw" and math.isnan(issue.magnitude) for issue in negative)


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_pass_the_audit_and_verify(name, kind):
    space, algorithm = FAMILIES[name]
    alg = cli.build_algorithm(space, algorithm)
    report = audit(play(alg, adversary(AdversaryConfig(kind=kind, steps=12, seed=0))))
    assert report["passed"], report["worst"]
    assert_same_first_failure(report)


@pytest.mark.parametrize("case", sorted(NEGATIVE))
def test_negative_controls_fail_first_at_the_same_step(case):
    make, _ = NEGATIVE[case]
    report = audit(play(make(), adversary(AdversaryConfig(steps=20, seed=5))))
    assert first_shared(report) is not None
    assert_same_first_failure(report)


@pytest.mark.parametrize("make, steps", [(lambda: two_level(True), 60), (nan_g_rule, 20)],
                         ids=["under-declared", "nan-g"])
def test_broken_rules_fail_first_at_the_same_step(make, steps):
    report = audit(play(make(), replay(healthy_tasks(steps))))
    assert first_shared(report) is not None
    assert_same_first_failure(report)


def test_a_rho_variant_of_a_combined_rule_is_refused_by_name():
    u = Umts(make_uniform(3), np.ones(3), 1.0)
    alg = rho_variant(w_combined_algorithm, u, 0.5)
    run = play(alg, adversary(AdversaryConfig(steps=5, seed=0)))
    with pytest.raises(ValueError, match="rho-variant of a combined rule cannot be audited yet"):
        audit(run)
