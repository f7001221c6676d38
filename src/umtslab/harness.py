"""Adversaries, offline optimum, and empirical audits for online runs.

Every run goes through one engine, :func:`simulate`: a policy (an adversary
or a replayed task list) picks each charge. :func:`play` runs it once and
records the run (:class:`Run`), and every reader (the audit, the ratio, the
trace) reads that record. Sequences are generated on the algorithm's own
channel (the all-zero work function) and stay reasonable by construction: every charge targets a
state the algorithm currently occupies with positive probability and stays
strictly below both the probability zero crossing and the support
headroom. The offline optimum is the minimum of the work function started
at dist(initial, .), so empirical ratios compare against the fair cost of
the best fixed schedule. The audit makes the checks of
:mod:`umtslab.checks` on the record, the ones ``umtslab verify`` makes on
a written trace, and adds those that need the rule.
"""

from __future__ import annotations

import math
import numbers
import operator
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
# loaded with the package: numpy imports numpy.random on first use, which a
# run forked after the package import would otherwise pay for itself
from numpy.random import default_rng

from umtslab.algorithms import OnlineAlgorithm
from umtslab.checks import AuditIssue, combined_issues, rule_issues, trace_header, worst_issues
from umtslab.combiner import CombinedRun
from umtslab.core import (
    FLOAT_STATES,
    ElementaryTask,
    GeneralTask,
    Umts,
    apply_elementary,
    apply_task,
    flat_work_function,
    initial_work_function,
    step_costs,
    support_headrooms,
    total_cost,
)
from umtslab.tolerances import EPS_AUDIT, EPS_EQ
from umtslab.transport import not_distribution

ADVERSARY_KINDS = ("uniform-random", "greedy-pressure", "support-raiser")


@dataclass(frozen=True)
class AdversaryConfig:
    """How to build a charge sequence against an algorithm.

    uniform-random picks a random occupied state and a random fraction of
    the admissible charge, drawn uniformly between 0.2 (or ``max_fraction``
    when it is smaller) and ``max_fraction``; greedy-pressure always
    charges the occupied state with the largest probability-weighted
    admissible charge;
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
        for name in ("steps", "seed"):
            value = getattr(self, name)
            # a bool is an Integral too, but no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


def adversary(config: AdversaryConfig):
    """Policy for :func:`simulate` that charges as the configured adversary.

    It stops when the step budget is spent or no occupied state has
    headroom left. It takes the support headroom of every state in one
    :func:`support_headrooms` call and reads the distribution and the
    headrooms as lists of Python floats: those :func:`simulate` holds up
    to ``core.FLOAT_STATES`` states, and arrays turned into lists once per
    step above that. It computes the zero
    crossing only where the kind needs it: at the charged state, or, for
    greedy-pressure, at the states whose pressure bound
    ``mass * min(headroom, 1e12)`` can still win (:func:`_greediest`). It
    passes on the crossing at the charged state; a charge that rounds to
    zero, as at a state whose crossing is zero, spends one step of the
    budget and is not made.
    """
    rng = default_rng(config.seed)
    budget = config.steps

    def choose(alg: OnlineAlgorithm, w, p):
        nonlocal budget
        if budget <= 0:
            return None
        if isinstance(w, list):
            heads, mass = support_headrooms(alg.umts, w), p
        else:
            heads, mass = support_headrooms(alg.umts, w).tolist(), p.tolist()
        open_states = [x for x in range(len(mass)) if mass[x] > EPS_EQ and heads[x] > 0.0]
        if not open_states:
            return None
        cross = {}

        def cap(v):
            if v not in cross:
                cross[v] = alg.zero_crossing(w, v)
            return min(cross[v], heads[v])

        while budget > 0:
            budget -= 1
            if config.kind == "uniform-random":
                v = open_states[rng.integers(len(open_states))]
                fraction = rng.uniform(min(0.2, config.max_fraction), config.max_fraction)
            elif config.kind == "greedy-pressure":
                v = _greediest(alg, w, mass, heads, open_states, cross)
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


def _greediest(alg: OnlineAlgorithm, w, mass: list, heads: list, open_states: list,
               cross: dict) -> int:
    """The open state of largest pressure ``mass * min(crossing, headroom,
    1e12)``, the lowest index among equal pressures; the crossings it asks
    for go into ``cross``.

    No state's pressure exceeds its bound ``mass * min(headroom, 1e12)``. So
    the crossing of the state of largest bound comes first, then, in index
    order, the crossing of every state whose bound can still beat that
    state's pressure; no other state can win.
    """

    def pressure(x):
        return mass[x] * min(cross[x], heads[x], 1e12), -x

    bound = {x: (mass[x] * min(heads[x], 1e12), -x) for x in open_states}
    top = max(open_states, key=bound.__getitem__)
    if top not in cross:
        cross[top] = alg.zero_crossing(w, top)
    best = pressure(top)
    rivals = [x for x in open_states if x != top and bound[x] > best]
    for x in rivals:
        if x not in cross:
            cross[x] = alg.zero_crossing(w, x)
    return max([top] + rivals, key=pressure)


def replay(tasks):
    """Policy for :func:`simulate` that charges the given elementary tasks in order."""
    it = iter(tasks)

    def choose(alg: OnlineAlgorithm, w, p):
        t = next(it, None)
        return None if t is None else (alg.umts.metric.index(t.state), t.delta, None)

    return choose


def simulate(alg: OnlineAlgorithm, policy) -> Iterator[tuple]:
    """Run the rule on its flat channel and yield one step per charge.

    ``policy(alg, w, p)`` sees the current work function and distribution
    and returns the next charge as (state index, delta, zero crossing at
    that state or None), or None to end the run. A charge that is not
    finite and non-negative raises ``ValueError`` before the work function
    moves. Each step is yielded as ``(v, delta, crossing, w2, p2)``: the
    charge, its crossing (NaN where the policy gave None), and the work
    function and distribution after it.

    On at most ``core.FLOAT_STATES`` states the work function is a list of
    Python floats for the whole run: the policy, the rule and
    :func:`apply_elementary` read it as a list, and the atomic families
    answer it with a list of probabilities. A combined rule, whose memos
    key on float64 bytes, turns it into an array itself, once per call.
    Above the cutoff both are arrays.
    """
    u = alg.umts
    w = flat_work_function(u)
    if u.n <= FLOAT_STATES:
        w = w.tolist()
    p = alg.probabilities(w)
    while (charge := policy(alg, w, p)) is not None:
        v, delta, crossing = charge
        if not 0 <= delta < math.inf:  # NaN fails too
            raise ValueError("charges must be finite and non-negative")
        w = apply_elementary(u, w, v, delta)
        p = alg.probabilities(w)
        yield v, delta, math.nan if crossing is None else crossing, w, p


def offline_opt(u: Umts, tasks) -> float:
    """Fair offline optimum: min of the work function from dist(init, .).

    ``tasks`` holds elementary and general tasks, or (state index, delta)
    pairs, the charges of a recorded run. The work function is kept as a
    list of Python floats, which an elementary charge updates in place as
    :func:`apply_elementary` does; a general task goes through
    :func:`apply_task`.
    """
    w = initial_work_function(u).tolist()
    cols = u.metric.dist_columns
    for t in tasks:
        if isinstance(t, GeneralTask):
            w = apply_task(u, np.array(w), t).tolist()
            continue
        v, delta = (u.metric.index(t.state), t.delta) if isinstance(t, ElementaryTask) else t
        wv, w[v] = w[v], math.inf
        w[v] = min(wv + delta, min(map(operator.add, w, cols[v])))
    return min(w)


@dataclass
class Run:
    """One run of a rule, as :func:`play` records it, in arrays.

    ``w`` and ``p`` are the (k + 1, n) work functions and distributions the
    k steps pass through, the start first. Step i charges ``delta[i]`` at
    state index ``v[i]``; ``crossing[i]`` is the zero crossing there before
    the charge, NaN where the policy did not compute it (as under
    :func:`replay`). ``faulty`` marks the rows of ``p`` that are not
    distributions, ``costs`` holds the cost of each step (NaN where a step
    reads a faulty row) and ``cost`` their sum, left to right. ``opt`` is
    the offline optimum of the run's charges. For a combined rule,
    ``combined`` is the :class:`CombinedRun` that recorded each step as it
    was made.
    """

    alg: OnlineAlgorithm
    w: np.ndarray
    p: np.ndarray
    v: np.ndarray
    delta: np.ndarray
    crossing: np.ndarray
    faulty: np.ndarray
    costs: np.ndarray
    cost: float
    opt: float
    combined: CombinedRun | None


def play(alg: OnlineAlgorithm, policy) -> Run:
    """Run the rule once against ``policy`` and record the run.

    Each step :func:`simulate` yields is written into flat float64 storage
    (``array.array``), which the record views once as arrays at the end; no
    step keeps an object of its own. Every step is then priced in one
    :func:`step_costs` call and the offline optimum solved once. A combined
    rule's :class:`CombinedRun` records each step as it is made, while the
    block and quotient values the step used are still in the memos.
    """
    u = alg.umts
    combined = CombinedRun(alg) if alg.parts is not None else None
    w, p = array("d", flat_work_function(u).tobytes()), array("d")
    v, delta, crossing = array("q"), array("d"), array("d")

    def first_sees_start(alg, w0, p0):
        # the policy is asked first at the start, so p gets its distribution
        if not p:
            _put(p, p0)
        return policy(alg, w0, p0)

    for vi, di, ci, w2, p2 in simulate(alg, first_sees_start):
        v.append(vi)
        delta.append(di)
        crossing.append(ci)
        _put(w, w2)
        _put(p, p2)
        if combined is not None:
            combined.step(vi, di)
    opt = offline_opt(u, zip(v, delta))
    w, p = np.frombuffer(w).reshape(-1, u.n), np.frombuffer(p).reshape(-1, u.n)
    v, delta = np.frombuffer(v, dtype=np.int64), np.frombuffer(delta)
    faulty = not_distribution(p)
    costs = step_costs(u, p, v, delta, faulty)
    return Run(alg, w, p, v, delta, np.frombuffer(crossing), faulty, costs, total_cost(costs),
               opt, combined)


def _put(buf: array, x) -> None:
    """Append the floats of ``x``, a list or a float array, to ``buf``."""
    if isinstance(x, list):
        buf.fromlist(x)
    else:
        buf.frombytes(np.asarray(x, dtype=float).tobytes())


def audit(run: Run) -> dict:
    """Check the declared per-step contracts on a recorded run.

    The checks of :mod:`umtslab.checks`, which ``umtslab verify`` makes on a
    written trace too, run once over the whole run; :func:`_audit_atomic`
    and :func:`_audit_combined` add the checks that need the rule. Issues
    come by step. The report carries the run's trace (header and step rows)
    as ``"trace"``, built from the record's arrays for both kinds of rule.
    """
    u, combined = run.alg.umts, run.combined is not None
    report, issues, header, extras = (_audit_combined if combined else _audit_atomic)(run)
    issues.sort(key=lambda issue: issue.step)
    report.update({"issues": issues, "worst": worst_issues(issues), "passed": not issues})
    steps = zip(run.v.tolist(), run.delta.tolist(), run.w[1:].tolist(), run.p[1:].tolist(),
                run.costs.tolist(), extras)
    report["trace"] = [header] + [
        {"kind": "step", "i": i + 1, "state": u.labels[v], "delta": d, "w": w, "p": p,
         "cost": c, **extra}
        for i, (v, d, w, p, c, extra) in enumerate(steps)
    ]
    return report


def _audit_atomic(run: Run) -> tuple[dict, list, dict, list]:
    """The atomic rule's report, issues, trace header and extra row fields
    (none). Charges below the zero crossing (resadv) and sensibility of each
    step against the potential, evaluated in one call on the stacked work
    functions, are checked over all steps at once. Within a step the issues
    come in the order resadv, distribution, betatagc, sensibility."""
    alg, u, w, p, v, delta = run.alg, run.alg.umts, run.w, run.p, run.v, run.delta
    k = len(v)
    w1, w2, p2 = w[:-1], w[1:], p[1:]
    rows = np.arange(k)
    crossing = run.crossing.copy()
    for i in np.flatnonzero(np.isnan(crossing)).tolist():
        crossing[i] = alg.zero_crossing(w[i], int(v[i]))
    issues = [AuditIssue("resadv", i, float(delta[i] - crossing[i]), "charge beyond crossing")
              for i in np.flatnonzero(~(delta <= crossing + EPS_EQ)).tolist()]
    rule = rule_issues(u, alg.beta, False, w, p, run.faulty)
    issues += rule["start"] + rule["distribution"] + rule["betatagc"]

    sens_allow = EPS_AUDIT + alg.phi_slack
    if math.isfinite(sens_allow) and k:
        if alg.local_cost_integral is None:
            raise ValueError(f"cannot audit {alg.name!r}: it has no local cost integral, and "
                             f"a rho-variant of a combined rule cannot be audited yet")
        phi = alg.phi(w)
        local = np.empty(k)
        for x in sorted(set(v.tolist())):  # np.unique would import numpy.ma on first use
            at = v == x
            local[at] = alg.local_cost_integral(w1[at], x, delta[at])
        lhs = run.costs - p2[rows, v] * u.rates[v] * delta + local
        lhs += phi[1:] - phi[:-1]
        alpha = np.asarray(alg.alpha)[v]
        rhs = alg.declared_ratio * (alpha * (w2[rows, v] - w1[rows, v]))
        # a step that reads a failing distribution, unpriced, is left to the
        # distribution check
        reads_faulty = run.faulty[:-1] | run.faulty[1:]
        for i in np.flatnonzero(~(lhs <= rhs + sens_allow) & ~reads_faulty).tolist():
            magnitude = float(lhs[i] - rhs[i])
            issues.append(AuditIssue("sensibility", i, magnitude, "step beyond its allowance"))

    report = {"kind": "atomic", "steps": k, "cost": run.cost, "opt": run.opt}
    return report, issues, trace_header(alg, alg.beta, p[0]), [{}] * k


def _audit_combined(run: Run) -> tuple[dict, list, dict, list]:
    """The combined rule's report, issues, trace header and extra row fields.

    The quotient run its :class:`CombinedRun` recorded is priced in one
    :func:`step_costs` call (NaN where a step reads a failing distribution)
    and goes to :func:`combined_issues`. The audit adds, within a step in
    this order after the start distributions: the charge against the block
    crossing (resadv), a quotient charge clamped from below ``-dhat_tol``
    (hatw) and the quotient charge against the quotient crossing (resadv).
    After the last step comes the bound on the translated quotient
    adversary (resadv at step k): it may be harder than the original one
    only by the static offset of the translation.
    """
    alg, u, rec, parts = run.alg, run.alg.umts, run.combined, run.alg.parts
    qu, k = parts.quotient_umts, len(run.v)
    g, what, p_hat = np.array(rec.g), np.array(rec.what), np.array(rec.p_hat)
    w_blocks = [np.array([row[b] for row in rec.w_blocks[1:]]).reshape(k, len(idx))
                for b, idx in enumerate(parts.global_index)]
    qfaulty = not_distribution(p_hat)
    qcosts = step_costs(qu, p_hat, np.array(rec.block, dtype=int),
                        np.array(rec.delta_hat, dtype=float), qfaulty)
    slack = alg.phi_slack
    allow = EPS_AUDIT + slack if math.isfinite(slack) else math.inf
    checks = combined_issues(u, parts.beta, run.w, run.p, run.faulty, run.costs,
                             parts.global_index, w_blocks, g[1:], what, p_hat, qfaulty, qcosts,
                             allow)

    dhat_tol = max([EPS_EQ] + [a.phi_slack for a in parts.block_algs if math.isfinite(a.phi_slack)])
    read, gl = [], g.tolist()
    for i, (j, delta, dhat, xb, xq) in enumerate(
            zip(rec.block, run.delta.tolist(), rec.delta_hat, rec.xb, rec.xq)):
        if not delta <= xb + EPS_EQ:
            read.append(AuditIssue("resadv", i, delta - xb,
                                   f"charge {delta:.6g} beyond block crossing {xb:.6g}"))
        if not gl[i][j] - gl[i + 1][j] <= dhat_tol:
            read.append(AuditIssue("hatw", i, gl[i][j] - gl[i + 1][j],
                                   "negative quotient charge beyond tolerance"))
        if not dhat <= xq + EPS_EQ:
            read.append(AuditIssue("resadv", i, dhat - xq,
                                   f"quotient charge {dhat:.6g} beyond crossing {xq:.6g}"))
    issues = checks.pop("start") + checks.pop("quotient start") + read
    issues += [issue for rest in checks.values() for issue in rest]

    opt_hat = offline_opt(qu, zip(rec.block, rec.delta_hat))
    # The translated adversary can exceed the original optimum only by
    # the static offset of the translation: the gap between the two
    # quotient start vectors plus the largest block diameter (the G
    # values sit at most one block diameter above the block minimum).
    start_gap = float(np.max(initial_work_function(qu) - what[0]))
    block_diam = max(float(u.metric.dist[np.ix_(idx, idx)].max()) for idx in parts.global_index)
    resadv_allow = max(0.0, start_gap) + block_diam + EPS_AUDIT + k * dhat_tol
    if not opt_hat <= run.opt + resadv_allow:
        issues.append(AuditIssue("resadv", k, opt_hat - run.opt - resadv_allow,
                                 "quotient adversary is harder than the original"))
    report = {"kind": "combined", "steps": k, "cost": run.cost,
              "quotient_cost": total_cost(qcosts), "opt": run.opt, "opt_hat": opt_hat,
              "resadv_allow": resadv_allow}
    header = trace_header(alg, parts.beta, run.p[0]) | {
        "blocks": [list(b) for b in parts.partition.blocks], "dist_hat": qu.metric.dist.tolist(),
        "hat_rates": qu.rates.tolist(), "hat_init": what[0].tolist(),
        "alpha": np.asarray(alg.alpha).tolist(), "tol": allow if math.isfinite(allow) else None,
        "dhat_tol": dhat_tol, "p_hat0": p_hat[0].tolist(),
    }
    extras = [{"block": j, "delta_hat": dhat, "w_blocks": [x.tolist() for x in wb], "what": wh,
               "g": gv, "p_hat": ph, "qcost": qc}
              for j, dhat, wb, wh, gv, ph, qc in zip(rec.block, rec.delta_hat, rec.w_blocks[1:],
                                                       what[1:].tolist(), gl[1:],
                                                       p_hat[1:].tolist(), qcosts.tolist())]
    return report, issues, header, extras


def ratio_report(run: Run) -> dict:
    """Net ratio of a run's cost against its offline optimum.

    The guarantee has the form cost <= ratio * opt + c with
    c = (1 + eta) * ratio * diam + sup(potential); runs whose offline
    optimum is at most EPS_EQ cannot witness a ratio and are skipped. A
    NaN cost, from a step that read a failing distribution, fails.
    """
    alg, cost, opt = run.alg, run.cost, run.opt
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
