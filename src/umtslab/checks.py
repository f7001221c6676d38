"""The checks a recorded run must pass, each identity written once.

Each check is one pass over all steps of a run's arrays: the (k + 1, n)
work functions ``w`` and distributions ``p``, the start first, and one
entry per step of the rest. The audit (:func:`umtslab.harness.audit`)
calls them on what ``play`` recorded and adds what needs the rule;
``umtslab verify`` calls them on a written trace and adds what needs only
the trace. Every gap is tested as ``not gap <= tol``, so a NaN fails it.
An issue of step i (from 0) is about the rows i and i + 1; a start issue
has step 0 too."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from umtslab.core import Umts, beta_excluded_mass
from umtslab.tolerances import EPS_AUDIT, EPS_EQ


@dataclass
class AuditIssue:
    lemma: str
    step: int
    magnitude: float
    detail: str


def worst_issues(issues: list[AuditIssue]) -> dict[str, dict]:
    """The largest issue of each lemma, with its step and detail."""
    worst: dict[str, dict] = {}
    for issue in issues:
        cur = worst.get(issue.lemma)
        if cur is None or issue.magnitude > cur["magnitude"]:
            worst[issue.lemma] = {
                "magnitude": issue.magnitude, "step": issue.step, "detail": issue.detail
            }
    return worst


def trace_header(alg, beta: float, p0: np.ndarray) -> dict:
    """Header fields every run trace carries: the system, the rule and its
    start distribution ``p0``."""
    u = alg.umts
    return {
        "kind": "header",
        "labels": list(u.labels),
        "dist": u.metric.dist.tolist(),
        "rates": u.rates.tolist(),
        "s": u.s,
        "initial": u.initial_state,
        "beta": beta,
        "ratio": alg.declared_ratio,
        "algorithm": alg.name,
        "p0": p0.tolist(),
    }


def distribution_issues(p: np.ndarray, faulty: np.ndarray, name: str = "") -> tuple[list, list]:
    """The distribution issues of a run through the (k + 1, n) distributions
    ``p``, its start first, whose rows ``faulty`` marks as failing: the
    start's, then one per failing step, each as far off as its sum is from 1.
    ``name`` prefixes the details."""
    off = np.abs(p.sum(axis=-1) - 1.0).tolist()
    start = []
    if faulty[0]:
        start.append(AuditIssue("distribution", 0, off[0], f"{name}start is not a distribution"))
    steps = [AuditIssue("distribution", i, off[i + 1], f"{name}not a distribution")
             for i in np.flatnonzero(faulty[1:]).tolist()]
    return start, steps


def rule_issues(u: Umts, beta: float, combined: bool, w: np.ndarray, p: np.ndarray,
                faulty: np.ndarray) -> dict[str, list]:
    """The rule's own issues on a run through the work functions ``w`` and
    distributions ``p``, whose failing rows ``faulty`` marks, by check: the
    start's distribution issues (``"start"``), the steps' (``"distribution"``)
    and the betatagc ones. An atomic rule of beta 0, as a single-state rule
    declares, is exempt from betatagc."""
    start, distribution = distribution_issues(p, faulty)
    betatagc = []
    if combined or beta > 0.0:
        for i, excluded in enumerate(beta_excluded_mass(u, beta, w[1:], p[1:])):
            betatagc += [AuditIssue("betatagc", i, mass, f"mass on excluded state {u.labels[x]}")
                         for x, mass in excluded]
    return {"start": start, "distribution": distribution, "betatagc": betatagc}


def combined_issues(u: Umts, beta: float, w: np.ndarray, p: np.ndarray, faulty: np.ndarray,
                    costs: np.ndarray, blocks: list, w_blocks: list, g: np.ndarray,
                    what: np.ndarray, p_hat: np.ndarray, qfaulty: np.ndarray,
                    qcosts: np.ndarray, allow: float) -> dict[str, list]:
    """The issues of a combined rule's run, by check, in the order a step is
    checked: the start distributions (``"start"``, ``"quotient start"``),
    welleqw (the block work functions ``w_blocks[b]`` equal the global ones
    on the states ``blocks[b]``), hatw (the quotient work functions ``what``,
    start first, equal the block G values ``g``), the rule's and the
    quotient's distributions, betatagc and samecompratio (a step costs at
    most the quotient's ``qcosts`` plus ``allow``; a step that reads a
    failing distribution, the rule's or the quotient's, is left to the
    distribution checks).
    """
    rule = rule_issues(u, beta, True, w, p, faulty)
    qstart, qdistribution = distribution_issues(p_hat, qfaulty, "quotient ")
    gap = np.array([np.abs(w[1:, idx] - wb).max(axis=1) for idx, wb in zip(blocks, w_blocks)]).T
    welleqw = [AuditIssue("welleqw", i, float(gap[i, b]), f"block {b} work function drifts")
               for i, b in np.argwhere(~(gap <= EPS_EQ)).tolist()]
    ggap = np.abs(what[1:] - g).max(axis=1)
    hatw = [AuditIssue("hatw", i, float(ggap[i]),
                       "quotient work function detached from block G values")
            for i in np.flatnonzero(~(ggap <= EPS_AUDIT)).tolist()]
    reads_faulty = faulty[:-1] | faulty[1:] | qfaulty[:-1] | qfaulty[1:]
    samecompratio = []
    for i in np.flatnonzero(~(costs <= qcosts + allow) & ~reads_faulty).tolist():
        c, qc = float(costs[i]), float(qcosts[i])
        detail = f"combined step cost {c:.6g} exceeds quotient {qc:.6g}"
        samecompratio.append(AuditIssue("samecompratio", i, c - qc, detail))
    return {"start": rule["start"], "quotient start": qstart, "welleqw": welleqw, "hatw": hatw,
            "distribution": rule["distribution"], "quotient distribution": qdistribution,
            "betatagc": rule["betatagc"], "samecompratio": samecompratio}
