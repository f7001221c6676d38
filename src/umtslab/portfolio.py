"""Merged algorithm portfolios on uniform spaces.

Two constructions for a uniform metric with arbitrary cost ratios, both
built from the primitive families by two rounds of combination.

The bucket-and-merge construction assigns each state a scale x_u, the
smallest solution of r_u <= 100 * s * ln(x) * lnln(x) above a fixed
floor, groups states into exponential buckets of x, runs a contracted
odd-exponent rule inside every large bucket and a trivial algorithm on
every stray state, merges all blocks but the heaviest under a contracted
odd-exponent quotient, and finally plays the heaviest block against that
merge under a contracted two-state quotient. The result stays within the
same ratio budget evaluated at x(M) = sum_u x_u and exports constraint
constants (1, 1/2).

The anchored variant keeps the first state separate from an equal-rate
tail and merges the two under a contracted two-state quotient, exporting
(1, 3/5) with a closed-form ratio bound.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from umtslab.algorithms import (
    OnlineAlgorithm,
    odd_exponent,
    require_uniform,
    rho_variant,
    trivial_algorithm,
    two_stable,
)
from umtslab.combiner import block_subsystem, combine
from umtslab.core import Umts
from umtslab.tolerances import EPS_EQ

LOG_X_FLOOR = math.exp(6.0) + 1.0
BUDGET_COEFF = 100.0

EXPORT_BETA = 1.0
EXPORT_ETA = 0.5
W_EXPORT_BETA = 1.0
W_EXPORT_ETA = 0.6


def ratio_budget(s: float, log_x: float) -> float:
    """The scale budget 100 * s * ln(x) * lnln(x)."""
    return BUDGET_COEFF * s * log_x * math.log(log_x)


def solve_log_x(s: float, rate: float) -> float:
    """Smallest ln(x) >= e^6 + 1 whose budget covers the given cost ratio."""
    if s <= 0:
        raise ValueError("distance ratio must be positive")
    lo = LOG_X_FLOOR
    if ratio_budget(s, lo) >= rate:
        return lo
    hi = lo
    while ratio_budget(s, hi) < rate:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ratio_budget(s, mid) >= rate:
            hi = mid
        else:
            lo = mid
    return hi


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array of finite floats, in the arithmetic of
    scipy.special.logsumexp: the m entries equal to the max are taken out,
    the others shifted by the max and summed to s in place, and the result
    is log1p(s / m) + log(m) + max."""
    top = a.max()
    at_top = a == top
    m = float(at_top.sum())
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(s / m) + np.log(m) + top)


def bucket_index(log_x: float) -> int:
    """Bucket number ell with e^(ell-1) <= x < e^ell, ties pushed upward."""
    return int(math.floor(log_x)) + 1


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def combined_algorithm(u: Umts) -> OnlineAlgorithm:
    """Bucket-and-merge portfolio on a uniform space.

    Exports constraint constants (1, 1/2) and a ratio within the budget
    100 * s * ln(x(M)) * lnln(x(M)). The block layout, per-block scales,
    and the checked budget are recorded under ``descriptor["portfolio"]``.
    """
    def export(alg: OnlineAlgorithm, descriptor: dict) -> OnlineAlgorithm:
        return replace(
            alg,
            name=f"combined({u.n})",
            beta=EXPORT_BETA,
            eta=EXPORT_ETA,
            eta_variant_basis=EXPORT_ETA,
            descriptor=descriptor,
        )

    if u.n == 1:
        alg = trivial_algorithm(u)
        return export(alg, {"family": "bucket-merge", "inner": alg.descriptor})
    require_uniform(u)
    labels = u.metric.labels
    logs = np.array([solve_log_x(u.s, float(r)) for r in u.rates])
    log_x_total = _logsumexp(logs)

    by_bucket: dict[int, list[int]] = {}
    for i, lv in enumerate(logs):
        by_bucket.setdefault(bucket_index(float(lv)), []).append(i)
    blocks: list[tuple[list[int], float, bool]] = []
    for ell in sorted(by_bucket):
        members = by_bucket[ell]
        if len(members) >= log_x_total:
            blocks.append((members, _logsumexp(logs[members]), True))
        else:
            for i in members:
                blocks.append(([i], float(logs[i]), False))
    blocks.sort(key=lambda t: (-t[1], t[0][0]))
    b_prime = len(blocks)
    _require(b_prime <= log_x_total ** 2, "block count exceeds ln(x)^2")

    summary = {
        "family": "bucket-merge",
        "log_x": log_x_total,
        "budget": ratio_budget(u.s, log_x_total),
        "blocks": [
            {"labels": [labels[i] for i in idx], "log_x": lx, "bucket": big}
            for idx, lx, big in blocks
        ],
    }

    if b_prime == 1:
        log_x = blocks[0][1]
        alg = rho_variant(odd_exponent, u, 0.1)
        _require(
            alg.declared_ratio <= ratio_budget(u.s, log_x) * (1 + 1e-9),
            "block ratio exceeds its scale budget",
        )
        summary["inner"] = alg.descriptor
        return export(alg, summary)

    block_algs = []
    for idx, log_x, big in blocks:
        sub = block_subsystem(u, [labels[i] for i in idx])
        a = rho_variant(odd_exponent, sub, 0.1) if big else trivial_algorithm(sub)
        _require(
            a.declared_ratio <= ratio_budget(u.s, log_x) * (1 + 1e-9),
            "block ratio exceeds its scale budget",
        )
        block_algs.append(a)

    head_labels = [labels[i] for i in blocks[0][0]]
    tail_labels = [labels[i] for idx, _, _ in blocks[1:] for i in idx]
    # a one-block tail is that block's rule: combine returns it as it is
    merged_tail = combine(
        block_subsystem(u, tail_labels),
        [[labels[i] for i in idx] for idx, _, _ in blocks[1:]],
        block_algs[1:],
        quotient_builder=lambda q: rho_variant(odd_exponent, q, 0.2),
        declared_beta=0.5,
        declared_eta=0.3,
    )
    tail_bound = BUDGET_COEFF * u.s * (blocks[1][1] + 0.6) * math.log(log_x_total)
    _require(
        merged_tail.declared_ratio <= tail_bound * (1 + 1e-9),
        "merged tail ratio exceeds its budget",
    )

    alg = combine(
        u,
        [head_labels, tail_labels],
        [block_algs[0], merged_tail],
        quotient_builder=lambda q: rho_variant(two_stable, q, 0.1),
        declared_beta=EXPORT_BETA,
        declared_eta=EXPORT_ETA,
    )
    _require(
        alg.declared_ratio <= summary["budget"] * (1 + 1e-9),
        "combined ratio exceeds the scale budget",
    )
    summary["tail_bound"] = tail_bound
    summary["combine"] = alg.descriptor
    return export(alg, summary)


def w_combined_algorithm(u: Umts) -> OnlineAlgorithm:
    """Anchored portfolio: first state against an equal-rate tail.

    The first state runs a trivial algorithm, the remaining b - 1 states
    (whose cost ratios must all agree) run a 1/5-contracted odd-exponent
    rule, and the two are merged under a 1/5-contracted two-state
    quotient. Exports (1, 3/5); the achieved ratio is checked against the
    closed-form bound 30s * (ln(e^(r1/30s - 1/3) + (b-1) e^(r2/30s - 1/3)) + 1/3).
    """
    if u.n < 2:
        raise ValueError("needs an anchor state and a non-empty tail")
    require_uniform(u)
    labels = u.metric.labels
    anchor, tail = labels[0], list(labels[1:])
    r1 = float(u.rates[0])
    tail_rates = np.asarray(u.rates[1:], dtype=float)
    if np.abs(tail_rates - tail_rates[0]).max() > EPS_EQ:
        raise ValueError("tail cost ratios must be equal")
    r2 = float(tail_rates[0])

    sub_tail = block_subsystem(u, tail)
    tail_alg = (
        trivial_algorithm(sub_tail)
        if len(tail) == 1
        else rho_variant(odd_exponent, sub_tail, 0.2)
    )
    alg = combine(
        u,
        [[anchor], tail],
        [trivial_algorithm(block_subsystem(u, [anchor])), tail_alg],
        quotient_builder=lambda q: rho_variant(two_stable, q, 0.2),
        declared_beta=W_EXPORT_BETA,
        declared_eta=W_EXPORT_ETA,
    )
    t = 30.0 * u.s
    bound = t * (
        np.logaddexp(r1 / t - 1.0 / 3.0, math.log(u.n - 1) + r2 / t - 1.0 / 3.0)
        + 1.0 / 3.0
    )
    _require(
        alg.declared_ratio <= bound * (1 + 1e-9) + 1e-9,
        "anchored merge ratio exceeds its closed-form bound",
    )
    return replace(
        alg,
        name=f"wcombined({u.n})",
        descriptor={
            "family": "anchored-merge",
            "bound": float(bound),
            "anchor_rate": r1,
            "tail_rate": r2,
            "combine": alg.descriptor,
        },
    )
