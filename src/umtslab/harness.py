"""Adversaries, offline optimum, and empirical audits for online runs.

Every run goes through one engine, :func:`simulate`: a policy (an adversary
or a replayed task list) picks each charge, and every reader (generation,
audit, cost, trace) reads the same stream of steps. Sequences are generated on the algorithm's own channel (the all-zero work
function) and stay reasonable by construction: every charge targets a
state the algorithm currently occupies with positive probability and stays
strictly below both the probability zero crossing and the support
headroom. The offline optimum is the minimum of the work function started
at dist(initial, .), so empirical ratios compare against the fair cost of
the best fixed schedule.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
# loaded with the package: numpy imports numpy.random on first use, which a
# run forked after the package import would otherwise pay for itself
from numpy.random import default_rng

from umtslab.algorithms import OnlineAlgorithm
from umtslab.combiner import AuditIssue, CombinedRun, trace_header, worst_issues
from umtslab.core import (
    ElementaryTask,
    Step,
    Umts,
    apply_task,
    beta_excluded_mass,
    flat_work_function,
    initial_work_function,
    online_step_cost,
    opt_cost,
    step_costs,
    support_headrooms,
)
from umtslab.tolerances import EPS_AUDIT, EPS_EQ
from umtslab.transport import not_distribution

ADVERSARY_KINDS = ("uniform-random", "greedy-pressure", "support-raiser")


@dataclass(frozen=True)
class AdversaryConfig:
    """How to build a charge sequence against an algorithm.

    uniform-random picks a random occupied state and a random fraction of
    the admissible charge; greedy-pressure always charges the occupied
    state with the largest probability-weighted admissible charge;
    support-raiser keeps charging the lowest occupied state, forcing the
    whole work function (and the offline cost) upward.
    """

    kind: str = "uniform-random"
    steps: int = 100
    seed: int = 0
    max_fraction: float = 0.999

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if not 0.0 < self.max_fraction < 1.0:
            raise ValueError("max_fraction must lie strictly between 0 and 1")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


def adversary(config: AdversaryConfig):
    """Policy for :func:`simulate` that charges as the configured adversary.

    It stops when the step budget is spent or no occupied state has
    headroom left. It takes the support headroom of every state in one
    array pass, and computes the zero crossing only where the kind needs
    it: at the charged state, or in one call for every open state for
    greedy-pressure. It passes on the crossing at the charged state; a
    charge that rounds to zero, as at a state whose crossing is zero,
    spends one step of the budget and is not made.
    """
    rng = default_rng(config.seed)
    budget = config.steps

    def choose(alg: OnlineAlgorithm, w, p):
        nonlocal budget
        if budget <= 0:
            return None
        # the open states, picked on Python floats: n is small and numpy's
        # per-call overhead would dominate
        heads = support_headrooms(alg.umts, w).tolist()
        mass = p.tolist()
        open_states = [x for x in range(len(mass)) if mass[x] > EPS_EQ and heads[x] > 0.0]
        if not open_states:
            return None
        cross = {}
        if config.kind == "greedy-pressure":
            cross = dict(zip(open_states, alg.zero_crossing(w, np.array(open_states)).tolist()))

        def cap(v):
            if v not in cross:
                cross[v] = alg.zero_crossing(w, v)
            return min(cross[v], heads[v])

        while budget > 0:
            budget -= 1
            if config.kind == "uniform-random":
                v = open_states[rng.integers(len(open_states))]
                fraction = rng.uniform(0.2, config.max_fraction)
            elif config.kind == "greedy-pressure":
                v = max(open_states, key=lambda x: (p[x] * min(cap(x), 1e12), -x))
                fraction = config.max_fraction
            else:  # support-raiser
                v = min(open_states, key=lambda x: (w[x], x))
                fraction = config.max_fraction
            limit = cap(v)
            if not math.isfinite(limit):
                limit = max(1.0, alg.umts.diameter())
            delta = fraction * limit * (1.0 - EPS_AUDIT)
            if delta > 0.0:
                return v, delta, cross[v]
        return None

    return choose


def replay(tasks):
    """Policy for :func:`simulate` that charges the given elementary tasks in order."""
    it = iter(tasks)

    def choose(alg: OnlineAlgorithm, w, p):
        t = next(it, None)
        return None if t is None else (alg.umts.metric.index(t.state), t.delta, None)

    return choose


def simulate(alg: OnlineAlgorithm, policy) -> Iterator[Step]:
    """Run the rule on its flat channel and yield one :class:`Step` per charge.

    ``policy(alg, w, p)`` sees the current work function and distribution
    and returns the next charge as (state index, delta, zero crossing at
    that state or None), or None to end the run.
    """
    u = alg.umts
    w = flat_work_function(u)
    p = alg.probabilities(w)
    while (charge := policy(alg, w, p)) is not None:
        rec = Step(u, alg, w, p, *charge)
        yield rec
        w, p = rec.w2, rec.p2


def generate_sequence(alg: OnlineAlgorithm, config: AdversaryConfig) -> list[ElementaryTask]:
    """Reasonable task sequence for the algorithm under the given adversary."""
    return [rec.task for rec in simulate(alg, adversary(config))]


def offline_opt(u: Umts, tasks) -> float:
    """Fair offline optimum: min of the work function from dist(init, .)."""
    w = initial_work_function(u)
    for t in tasks:
        w = apply_task(u, w, t)
    return opt_cost(w)


def elementarize(u: Umts, charges, eps: float) -> list[ElementaryTask]:
    """Slice a general charge vector into elementary tasks of size eps.

    Slice j charges every state whose remaining charge is at least j * eps,
    so large charges are spread across slices instead of being served in
    one block. Remainders below eps are dropped.
    """
    if eps <= 0:
        raise ValueError("slice size must be positive")
    c = np.asarray(charges, dtype=float)
    if c.shape != (u.n,):
        raise ValueError("one charge per state required")
    out: list[ElementaryTask] = []
    counts = np.floor(c / eps + 1e-12).astype(int)
    for j in range(1, int(counts.max(initial=0)) + 1):
        for v in range(u.n):
            if counts[v] >= j:
                out.append(ElementaryTask(u.labels[v], eps))
    return out


def audit_run(alg: OnlineAlgorithm, tasks) -> dict:
    """Run the sequence and check the declared per-step contracts."""
    return audit_steps(alg, simulate(alg, replay(tasks)))


def audit_steps(alg: OnlineAlgorithm, steps) -> dict:
    """Check the declared per-step contracts on the steps of one run.

    Combined algorithms get the full structural audit (:class:`CombinedRun`)
    plus the check that the translated quotient adversary is no harder than
    the original one, up to the static offset of the translation. Atomic
    algorithms are checked by :func:`_audit_atomic`. The offline optimum is
    solved once per system, and the report carries the run's trace (header
    and step rows) as ``"trace"``.
    """
    u = alg.umts
    tasks: list[ElementaryTask] = []
    if alg.parts is not None:
        run = CombinedRun(alg)
        for rec in steps:
            tasks.append(rec.task)
            run.step(rec)
        opt = offline_opt(u, tasks)
        report = run.report()
        qu = alg.parts.quotient_umts
        opt_hat = offline_opt(qu, run.qtasks)
        # The translated adversary can exceed the original optimum only by
        # the static offset of the translation: the gap between the two
        # quotient start vectors plus the largest block diameter (the G
        # values sit at most one block diameter above the block minimum).
        parts = alg.parts
        start_gap = float(np.max(initial_work_function(qu) - parts.initial_hat_work()))
        block_diam = max(
            float(u.metric.dist[np.ix_(idx, idx)].max()) for idx in parts.global_index
        )
        resadv_allow = max(0.0, start_gap) + block_diam + EPS_AUDIT + run.steps * run.dhat_tol
        if opt_hat > opt + resadv_allow:
            report["passed"] = False
            report.setdefault("worst", {})["resadv"] = {
                "magnitude": opt_hat - opt - resadv_allow,
                "step": run.steps,
                "detail": "quotient adversary is harder than the original",
            }
        report.update(
            {"kind": "combined", "opt": opt, "opt_hat": opt_hat, "resadv_allow": resadv_allow,
             "trace": [run.header()] + run.trace}
        )
        return report

    return _audit_atomic(alg, list(steps))


def _run_arrays(steps: list[Step]) -> tuple[np.ndarray, np.ndarray]:
    """The (k + 1, n) work functions and distributions a run of k >= 1 steps
    passes through, its start first."""
    w = np.array([steps[0].w] + [rec.w2 for rec in steps])
    p = np.array([steps[0].p] + [rec.p2 for rec in steps])
    return w, p


def _audit_atomic(alg: OnlineAlgorithm, steps: list[Step]) -> dict:
    """Check an atomic rule's finished run, each check over all steps at once.

    The run is stacked into (steps + 1, n) arrays of work functions and
    distributions, and the potential is evaluated in one call on the
    stacked work functions. The checks are: charges below the zero crossing
    (resadv), valid distributions (distribution), no mass on beta-excluded
    states (betatagc, skipped when beta is zero, the single-state
    convention) and sensibility of each step against the potential.
    Distributions are checked before any step is priced, the start one
    included, and a step that reads a failing one keeps a NaN cost. The
    issues come ordered by step, and within a step in that order of checks.
    """
    u = alg.umts
    tasks = [rec.task for rec in steps]
    opt = offline_opt(u, tasks)
    if not steps:
        return {"kind": "atomic", "steps": 0, "cost": 0.0, "opt": opt, "issues": [],
                "worst": {}, "passed": True, "trace": [trace_header(alg, alg.beta)]}
    k = len(steps)
    w, p = _run_arrays(steps)
    w1, w2, p2 = w[:-1], w[1:], p[1:]
    rows = np.arange(k)
    v = np.array([rec.v for rec in steps])
    delta = np.array([rec.delta for rec in steps])
    crossing = np.array([rec.crossing for rec in steps])
    issues: list[AuditIssue] = []

    for i in np.flatnonzero(delta > crossing + EPS_EQ).tolist():
        magnitude = float(delta[i] - crossing[i])
        issues.append(AuditIssue("resadv", i, magnitude, "charge beyond crossing"))

    faulty = not_distribution(p)
    off = np.abs(p.sum(axis=-1) - 1.0).tolist()
    if faulty[0]:
        issues.append(AuditIssue("distribution", 0, off[0], "start is not a distribution"))
    for i in np.flatnonzero(faulty[1:]).tolist():
        issues.append(AuditIssue("distribution", i, off[i + 1], "not a distribution"))

    if alg.beta > 0.0:
        for i, excluded in enumerate(beta_excluded_mass(u, alg.beta, w2, p2)):
            for x, mass in excluded:
                detail = f"mass on excluded state {u.labels[x]}"
                issues.append(AuditIssue("betatagc", i, mass, detail))

    cost = step_costs(u, p, tasks, faulty)

    sens_allow = EPS_AUDIT + alg.phi_slack
    if math.isfinite(sens_allow):
        phi = alg.phi(w)
        local = np.empty(k)
        for x in sorted(set(v.tolist())):  # np.unique would import numpy.ma on first use
            at = v == x
            local[at] = alg.local_cost_integral(w1[at], x, delta[at])
        lhs = cost - p2[rows, v] * u.rates[v] * delta + local
        lhs += phi[1:] - phi[:-1]
        alpha = np.asarray(alg.alpha)[v]
        rhs = alg.declared_ratio * (alpha * (w2[rows, v] - w1[rows, v]))
        for i in np.flatnonzero(lhs > rhs + sens_allow).tolist():
            magnitude = float(lhs[i] - rhs[i])
            issues.append(AuditIssue("sensibility", i, magnitude, "step beyond its allowance"))

    issues.sort(key=lambda issue: issue.step)
    trace = [trace_header(alg, alg.beta, steps[0].p)]
    for i, (rec, wi, pi, ci) in enumerate(zip(steps, w2.tolist(), p2.tolist(), cost.tolist())):
        trace.append({"kind": "step", "i": i + 1, "state": rec.task.state, "delta": rec.delta,
                      "w": wi, "p": pi, "cost": ci})
    return {
        "kind": "atomic",
        "steps": k,
        "cost": float(np.cumsum(cost)[-1]),
        "opt": opt,
        "issues": issues,
        "worst": worst_issues(issues),
        "passed": not issues,
        "trace": trace,
    }


def run_cost(alg: OnlineAlgorithm, tasks) -> float:
    """Total online cost of the run (endpoint charge convention): every step
    priced in one call over the stacked run, summed left to right."""
    steps = list(simulate(alg, replay(tasks)))
    if not steps:
        return 0.0
    _, p = _run_arrays(steps)
    cost = online_step_cost(alg.umts, p[:-1], p[1:], [rec.task for rec in steps])
    return float(np.cumsum(cost)[-1])


def empirical_ratio(alg: OnlineAlgorithm, tasks) -> dict:
    """Cost against the offline optimum, net of the additive allowance."""
    return ratio_report(alg, run_cost(alg, tasks), offline_opt(alg.umts, tasks))


def ratio_report(alg: OnlineAlgorithm, cost: float, opt: float) -> dict:
    """Net ratio of a run's cost against its offline optimum.

    The guarantee has the form cost <= ratio * opt + c with
    c = (1 + eta) * ratio * diam + sup(potential); runs whose offline
    optimum is at most EPS_EQ cannot witness a ratio and are skipped.
    """
    sup = alg.phi_sup if math.isfinite(alg.phi_slack) else alg.potential_bound
    overhead = (1.0 + alg.eta) * alg.declared_ratio * alg.umts.diameter() + sup
    out = {
        "cost": cost,
        "opt": opt,
        "overhead": overhead,
        "declared": alg.declared_ratio,
    }
    if opt <= EPS_EQ:
        out.update({"ratio": math.nan, "passed": None})
        return out
    ratio = (cost - overhead) / opt
    out.update({"ratio": ratio, "passed": bool(ratio <= alg.declared_ratio + EPS_EQ)})
    return out
