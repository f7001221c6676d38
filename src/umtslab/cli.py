"""Command line front end for running experiment matrices and checking traces.

``umtslab run config.json`` expands the config's spaces, algorithms,
adversaries, and seeds into a job matrix, runs every job, and writes a
CSV table, a JSON summary, and one JSONL trace per job into the output
directory. ``umtslab verify trace.jsonl`` replays a trace from its own
numbers alone (no algorithm is rebuilt) and reports the first violated
check, through the audit's own checks (:mod:`umtslab.checks`) and those
that need only the trace. Exit codes: 0 all checks passed, 1 a guarantee
or trace check failed, 2 the config or invocation is unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from umtslab.algorithms import odd_exponent, trivial_algorithm, two_stable
from umtslab.core import Umts, apply_elementary, flat_work_function, step_costs
from umtslab.checks import combined_issues, rule_issues
from umtslab.harness import AdversaryConfig, adversary, audit, play, ratio_report
from umtslab.hst import line_algorithm, weighted_caching_algorithm, with_hst_realization
from umtslab.metricspace import (
    FiniteMetric,
    make_partition,
    make_uniform,
    quotient_metric,
    validate,
)
from umtslab.portfolio import combined_algorithm, w_combined_algorithm
from umtslab.tolerances import EPS_AUDIT, EPS_EQ
from umtslab.transport import needs_lp, not_distribution

RUN_SCHEMA = "umtslab-run-v1"
SUMMARY_SCHEMA = "umtslab-summary-v1"
SEED_ENV = "UMTSLAB_SEED"
UNIFORM_ALGORITHMS = ("trivial", "odd-exponent", "two-stable", "combined", "wcombined")
CSV_COLUMNS = (
    "space",
    "algorithm",
    "adversary",
    "seed",
    "steps",
    "cost",
    "opt",
    "ratio",
    "declared",
    "passed",
)
# one encoder for every trace line: json.dumps builds a new one per call; a
# trace line is a tree of dicts, lists, strings and floats, never circular
TRACE_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)
# the most points a configured space may have: a uniform or line space of n
# points allocates an n x n distance matrix, and a caching space of n fetch
# costs has n points
MAX_POINTS = 1024
# the most (steps + 1) x points a job may ask for: its record holds that many
# work-function entries and as many probabilities, 64 MiB of floats at the cap
MAX_RECORD = 2**22


class ConfigError(Exception):
    """The run config or invocation cannot be executed."""


def _integral(value, what: str) -> int:
    """A config count or seed: a JSON number with an integral value, as an
    int. A boolean, a string or a number with a fraction is a ConfigError
    instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_size(spec, steps: int = 0) -> None:
    """Reject a space of more than ``MAX_POINTS`` points (``points``, or
    the number of ``fetch_costs``), and a job of ``steps`` steps on it whose
    (steps + 1) x points exceeds ``MAX_RECORD``, before anything of its size
    is built."""
    kind = spec.get("kind", "uniform")
    if kind in ("uniform", "line") and "points" in spec:
        n = _integral(spec["points"], "'points'")
    elif kind == "caching" and isinstance(spec.get("fetch_costs"), list):
        n = len(spec["fetch_costs"])
    else:
        return
    if n > MAX_POINTS:
        raise ConfigError(f"space {_space_label(spec)!r} has {n} points, more than the "
                          f"{MAX_POINTS} a config may ask for")
    if (steps + 1) * n > MAX_RECORD:
        raise ConfigError(f"a job of {steps} steps on space {_space_label(spec)!r} records "
                          f"(steps + 1) x points = {(steps + 1) * n} entries, more than the "
                          f"{MAX_RECORD} a job may hold")


def _build_uniform_space(spec) -> Umts:
    try:
        points = _integral(spec["points"], "'points'")
    except KeyError:
        raise ConfigError("uniform space needs a 'points' count") from None
    distance = float(spec.get("distance", 1.0))
    s = float(spec.get("s", 1.0))
    rates = spec.get("rates")
    if rates is None:
        rates = [float(spec.get("rate", 1.0))] * points
    if len(rates) != points:
        raise ConfigError("uniform space needs one rate per point")
    metric = make_uniform(points, d=distance)
    return Umts(metric, np.asarray(rates, dtype=float), s, str(spec.get("initial", "")))


def build_algorithm(space_spec, algorithm: str):
    """Instantiate the named rule on the configured space."""
    _check_size(space_spec)
    kind = space_spec.get("kind", "uniform")
    try:
        if kind == "uniform":
            if algorithm not in UNIFORM_ALGORITHMS:
                raise ConfigError(
                    f"algorithm {algorithm!r} does not run on a uniform space"
                )
            u = _build_uniform_space(space_spec)
            if algorithm == "trivial":
                return trivial_algorithm(u)
            if algorithm == "odd-exponent":
                return odd_exponent(u)
            if algorithm == "two-stable":
                return two_stable(u)
            if algorithm == "combined":
                return combined_algorithm(u)
            return w_combined_algorithm(u)
        if kind == "caching":
            if algorithm != "caching":
                raise ConfigError(f"algorithm {algorithm!r} does not run on a caching space")
            costs = [float(c) for c in space_spec["fetch_costs"]]
            return weighted_caching_algorithm(costs, s=float(space_spec.get("s", 1.0)))
        if kind == "line":
            if algorithm != "line":
                raise ConfigError(f"algorithm {algorithm!r} does not run on a line space")
            return line_algorithm(
                _integral(space_spec["points"], "'points'"),
                gap=float(space_spec.get("gap", 1.0)),
                s=float(space_spec.get("s", 1.0)),
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad space {space_spec.get('name', kind)!r}: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def _adversary_config(entry, seed) -> AdversaryConfig:
    try:
        return AdversaryConfig(
            kind=entry.get("kind", "uniform-random"),
            steps=_integral(entry.get("steps", 100), "'steps'"),
            seed=int(seed),
            max_fraction=float(entry.get("max_fraction", 0.999)),
        )
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad adversary {entry!r}: {exc}") from exc


# the rules this process has built while ``cmd_run`` runs its jobs, by
# (space spec, algorithm); None at any other time
_rules: dict | None = None


def _share_rules(on: bool = True) -> None:
    """Start or end one shared build per rule in this process; rules are immutable."""
    global _rules
    _rules = {} if on else None


def _rule(space_spec, algorithm: str):
    if _rules is None:
        return build_algorithm(space_spec, algorithm)
    key = (json.dumps(space_spec, sort_keys=True), algorithm)
    if key not in _rules:
        _rules[key] = build_algorithm(space_spec, algorithm)
    return _rules[key]


def _run_job(space_spec, algorithm, adversary_spec, seed):
    """Play one job once; the audit, optimum, ratio and trace all read that run."""
    alg = _rule(space_spec, algorithm)
    config = _adversary_config(adversary_spec, seed)
    run = play(alg, adversary(config))
    report = audit(run)
    ratio = ratio_report(run)
    passed = bool(report["passed"]) and ratio["passed"] is not False
    row = {
        "space": _space_label(space_spec),
        "algorithm": algorithm,
        "adversary": config.kind,
        "seed": config.seed,
        "steps": len(run.v),
        "cost": run.cost,
        "opt": run.opt,
        "ratio": ratio["ratio"],
        "declared": alg.declared_ratio,
        "passed": passed,
        "audit_passed": bool(report["passed"]),
        "ratio_passed": ratio["passed"],
        "rule": alg.name,
    }
    return {"row": row, "trace": report["trace"]}


def _run_job_star(job):
    return _run_job(*job)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", str(text))


def _load_config(path: Path) -> dict:
    try:
        config = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or config.get("schema") != RUN_SCHEMA:
        raise ConfigError(f"config schema must be {RUN_SCHEMA!r}")
    return config


def _seeds(config) -> list[int]:
    env = os.environ.get(SEED_ENV)
    if env:
        try:
            return [int(env)]
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    seeds = config.get("seeds", [0])
    if not isinstance(seeds, list):
        raise ConfigError(f"config 'seeds' must be a list, got {seeds!r}")
    if not seeds:
        raise ConfigError("config lists no seeds")
    out = [_integral(s, "seeds") for s in seeds]
    if min(out) < 0:
        raise ConfigError(f"seeds must be non-negative integers, got {seeds!r}")
    return out


def _space_label(space) -> str:
    return str(space.get("name", space.get("kind", "uniform")))


def _trace_name(space, algorithm: str, kind: str, seed: int) -> str:
    """The file name of one job's trace under ``traces/``."""
    parts = [_slug(_space_label(space)), _slug(algorithm), _slug(kind), f"seed{seed}"]
    return "--".join(parts) + ".jsonl"


def cmd_run(args) -> int:
    config = _load_config(Path(args.config))
    seeds = _seeds(config)
    spaces = config.get("spaces")
    algorithms = config.get("algorithms")
    if not spaces or not algorithms:
        raise ConfigError("config needs non-empty 'spaces' and 'algorithms' lists")
    if not isinstance(spaces, list) or not all(isinstance(space, dict) for space in spaces):
        raise ConfigError("config 'spaces' must be a list of objects")
    if not isinstance(algorithms, list) or not all(isinstance(a, str) for a in algorithms):
        raise ConfigError(f"config 'algorithms' must be a list of names, got {algorithms!r}")
    adversaries = config.get("adversaries")
    if adversaries is not None and not isinstance(adversaries, list):
        raise ConfigError(f"config 'adversaries' must be a list, got {adversaries!r}")
    adversaries = adversaries or [{"kind": "uniform-random", "steps": 100}]
    # reject a bad entry, an oversized space or an oversized job before any job runs
    entries = [_adversary_config(entry, seeds[0]) for entry in adversaries]
    kinds = [entry.kind for entry in entries]
    for space in spaces:
        _check_size(space, max(entry.steps for entry in entries))
    jobs, names = [], {}
    for space, algorithm, (entry, kind), seed in product(
        spaces, algorithms, zip(adversaries, kinds), seeds
    ):
        name = _trace_name(space, algorithm, kind, seed)
        if name in names:
            raise ConfigError(
                f"jobs {names[name] + 1} and {len(jobs) + 1} would both write "
                f"the trace traces/{name}"
            )
        names[name] = len(jobs)
        jobs.append((space, algorithm, entry, seed))

    workers = 1 if args.deterministic else max(1, args.jobs)
    # every job of a (space, algorithm) pair reads one build per process;
    # the jobs are not grouped by pair, which would cost --jobs parallelism
    _share_rules()
    try:
        if workers == 1:
            results = [_run_job_star(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers, initializer=_share_rules) as pool:
                results = list(pool.map(_run_job_star, jobs))
    finally:
        _share_rules(False)

    out_dir = Path(args.out)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    for result, name in zip(results, names):
        row = result["row"]
        trace_path = traces_dir / name
        with trace_path.open("w") as fh:
            for line in result["trace"]:
                fh.write(TRACE_ENCODER.encode(line) + "\n")
        srow = dict(row)
        srow["trace"] = str(trace_path.relative_to(out_dir))
        if isinstance(srow["ratio"], float) and math.isnan(srow["ratio"]):
            srow["ratio"] = None
        summary_rows.append(srow)

    with (out_dir / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for result in results:
            row = result["row"]
            writer.writerow(
                [row[key] for key in CSV_COLUMNS[:5]]
                + [repr(float(row[key])) for key in CSV_COLUMNS[5:9]]
                + ["pass" if row["passed"] else "fail"]
            )

    failures = sum(1 for result in results if not result["row"]["passed"])
    summary = {
        "schema": SUMMARY_SCHEMA,
        "config": Path(args.config).name,
        "deterministic": bool(args.deterministic),
        "failures": failures,
        "rows": summary_rows,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for result in results:
        row = result["row"]
        ratio = row["ratio"]
        shown = "n/a" if isinstance(ratio, float) and math.isnan(ratio) else f"{ratio:.4f}"
        verdict = "pass" if row["passed"] else "FAIL"
        print(
            f"{row['space']} {row['algorithm']} {row['adversary']} seed={row['seed']} "
            f"steps={row['steps']} ratio={shown} declared={row['declared']:.4f} {verdict}"
        )
    print(f"{len(results)} runs, {failures} failures, outputs in {out_dir}")
    return 0 if failures == 0 else 1


def _simplex_summary(p: np.ndarray) -> str:
    return f"probabilities sum to {float(p.sum()):.12g}, smallest {float(p.min()):.3g}"


def _stack(vectors: list, n: int, key: str) -> np.ndarray:
    """The trace's ``key`` vectors as one (len(vectors), n) float array; a
    vector of another length is malformed."""
    if any(len(x) != n for x in vectors):
        raise ValueError(f"a {key!r} vector does not have {n} entries")
    return np.array(vectors, dtype=float).reshape(len(vectors), n)


def _charges(values) -> np.ndarray:
    """A trace's charges as floats; a negative or non-finite one, NaN
    included, makes the trace malformed."""
    delta = np.array([float(x) for x in values])
    if not ((delta >= 0.0) & (delta < math.inf)).all():
        raise ValueError("charges must be finite and non-negative")
    return delta


def _verify(head, rows):
    """Recheck a trace from its own numbers; returns (exit code, message).

    The header ``dist`` must be a metric. One that would go to the
    transport LP is priced on its HST instead when it is an ultrametric, as
    the run priced it.
    Composition traces (the header lists ``blocks``) also replay the blocks
    and the quotient: ``dist_hat`` must be the largest cross-block distances
    of ``dist``, and each step must name the block of its state. Every gap
    and cost test reads ``not gap <= tol``, so a NaN fails it.

    The trace is stacked once, its start first. Each step is checked against
    the stored row before it, so every check runs over all steps at once
    through the audit's calls (:func:`apply_elementary` on rows,
    :func:`rule_issues` or :func:`combined_issues`, :func:`step_costs`); the
    first failure is reported by step, then by check in the order made
    below. A malformed row raises wherever it sits: a missing key, an
    unknown state, a vector of the wrong length, or a negative or non-finite
    charge.
    """
    u = Umts(FiniteMetric(tuple(head["labels"]), head["dist"]), head["rates"], float(head["s"]),
             str(head.get("initial", "")))
    combined, beta = "blocks" in head, float(head["beta"])
    w = _stack([flat_work_function(u)] + [row["w"] for row in rows], u.n, "w")
    p = _stack([head["p0"]] + [row["p"] for row in rows], u.n, "p")
    v = np.array([u.metric.index(row["state"]) for row in rows], dtype=int)
    delta = _charges(row["delta"] for row in rows)
    cost = np.array([float(row["cost"]) for row in rows])
    numbers = [row["i"] for row in rows]
    if combined:
        partition = make_partition(u.metric, head["blocks"])
        blocks, j = partition.index, partition.block_of[v]
        named = [row["block"] for row in rows]
        nb, qlabels = len(blocks), tuple(f"B{b}" for b in range(len(blocks)))
        delta_hat = _charges(row["delta_hat"] for row in rows)
        what = _stack([head["hat_init"]] + [row["what"] for row in rows], nb, "what")
        g = _stack([row["g"] for row in rows], nb, "g")
        p_hat = _stack([head["p_hat0"]] + [row["p_hat"] for row in rows], nb, "p_hat")
        qcost = np.array([float(row["qcost"]) for row in rows])
        if any(len(row["w_blocks"]) != nb for row in rows):
            raise ValueError(f"a 'w_blocks' list does not have {nb} blocks")
        w_blocks = [_stack([row["w_blocks"][b] for row in rows], len(idx), "w_blocks")
                    for b, idx in enumerate(blocks)]

    problems = validate(u.metric)
    if problems:
        return 1, f"metric violated in the header: {problems[0]}"
    if needs_lp(u.metric):
        u = replace(u, metric=with_hst_realization(u.metric))
    if combined:
        dist_hat = np.asarray(head["dist_hat"], dtype=float)
        expected = quotient_metric(partition).dist
        same_shape = dist_hat.shape == expected.shape
        gap = float(np.abs(dist_hat - expected).max()) if same_shape else math.inf
        if not gap <= EPS_EQ:  # NaN fails too
            return 1, (f"dist_hat violated in the header: deviates from the largest "
                       f"cross-block distances by {gap:.3g}")
        qu = Umts(FiniteMetric(qlabels, dist_hat), head["hat_rates"], float(head["s"]))
        cost_allow = math.inf if head.get("tol") is None else float(head["tol"])

    found = []  # (step, message) of each check's first failure, in check order

    def first(check, hits, detail, start=1):
        """Note the first of the failing rows ``hits``: row r is step r + start."""
        r = next(iter(hits), None)
        if r is not None:
            found.append((r + start, f"{check} violated at step {r + start}: {detail(r)}"))

    def note(check, issues, detail):
        """Note the first of the shared ``issues``: the issue of step i is step i + 1."""
        if issues:
            first(check, [issues[0].step], lambda r: detail(issues[0]))

    first("numbering", (r for r, x in enumerate(numbers) if isinstance(x, bool) or x != r + 1),
          lambda r: f"the row is numbered {numbers[r]!r}")
    gap = np.abs(apply_elementary(u, w[:-1], v, delta) - w[1:]).max(axis=1)
    first("welleqw", np.flatnonzero(~(gap <= EPS_EQ)),
          lambda r: f"stored work function deviates from the recomputed chain by {gap[r]:.3g}")
    faulty = not_distribution(p)
    if combined:
        qfaulty = not_distribution(p_hat)
        checks = combined_issues(u, beta, w, p, faulty, cost, blocks, w_blocks, g, what, p_hat,
                                 qfaulty, qcost, cost_allow)
        first("block", (r for r, b in enumerate(j.tolist()) if named[r] != b),
              lambda r: f"state {rows[r]['state']} lies in block {int(j[r])}, "
                        f"the row names {named[r]!r}")
        # the issue's detail reads "block b work function drifts"
        note("welleqw", checks["welleqw"], lambda issue: f"{issue.detail} from the restricted "
                                                         f"global one by {issue.magnitude:.3g}")
        hgap = np.abs(apply_elementary(qu, what[:-1], j, delta_hat) - what[1:]).max(axis=1)
        first("hatw", np.flatnonzero(~(hgap <= EPS_EQ)),
              lambda r: f"quotient work function detaches from its charges by {hgap[r]:.3g}")
        note("hatw", checks["hatw"], lambda issue: f"quotient work function differs from the "
                                                   f"block G values by {issue.magnitude:.3g}")
    else:
        checks = rule_issues(u, beta, False, w, p, faulty)
    # the distribution issues are the failing rows, the start's step 0
    first("distribution", np.flatnonzero(faulty), lambda r: _simplex_summary(p[r]), start=0)
    if combined:
        first("distribution", np.flatnonzero(qfaulty),
              lambda r: f"quotient {_simplex_summary(p_hat[r])}", start=0)
    # the issue's detail reads "mass on excluded state X"; the message adds the mass
    note("betatagc", checks["betatagc"],
         lambda issue: issue.detail.replace("mass", f"mass {issue.magnitude:.3g}", 1))
    miss = np.abs(step_costs(u, p, v, delta, faulty) - cost)
    first("samecompratio" if combined else "stepcost", np.flatnonzero(~(miss <= EPS_AUDIT)),
          lambda r: f"stored step cost disagrees with the transport recomputation by "
                    f"{miss[r]:.3g}")
    if combined:
        qmiss = np.abs(step_costs(qu, p_hat, j, delta_hat, qfaulty) - qcost)
        first("samecompratio", np.flatnonzero(~(qmiss <= EPS_AUDIT)),
              lambda r: f"stored quotient cost disagrees with the transport recomputation by "
                        f"{qmiss[r]:.3g}")
        note("samecompratio", checks["samecompratio"],
             lambda issue: f"step cost {cost[issue.step]:.6g} exceeds the quotient step cost "
                           f"{qcost[issue.step]:.6g}")
    if found:
        # min keeps the first of equal steps: the check made first
        return 1, min(found, key=lambda f: f[0])[1]
    checks = "metric, numbering, welleqw, distribution, betatagc, stepcost"
    unchecked = "ratio, beta"
    if combined:
        checks = ("metric, dist_hat, numbering, welleqw, block, hatw, distribution, betatagc, "
                  "samecompratio")
        unchecked += ", alpha, tol, dhat_tol"
    # these header fields come from the rule, which verify does not rebuild
    return 0, f"ok: {len(rows)} steps verified ({checks}); not recomputed: {unchecked}"


def cmd_verify(args) -> int:
    path = Path(args.trace)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc
    try:
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trace is not valid JSONL: {exc}") from exc
    if not lines:
        print("empty trace: nothing to verify")
        return 0
    head = lines[0]
    if not isinstance(head, dict) or head.get("kind") != "header":
        raise ConfigError("trace must start with a header line")
    try:
        code, message = _verify(head, lines[1:])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trace: {exc}") from exc
    print(message)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="umtslab",
        description="Run task-system experiment matrices and verify their traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the matrix described by a JSON config")
    run_p.add_argument("config", help="path to a umtslab-run-v1 JSON config")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    run_p.add_argument(
        "--deterministic",
        action="store_true",
        help="serial execution with byte-stable outputs",
    )
    run_p.add_argument("--out", default="umtslab-out", help="output directory")
    verify_p = sub.add_parser("verify", help="recheck a trace file from its own numbers")
    verify_p.add_argument("trace", help="path to a JSONL trace written by run")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
