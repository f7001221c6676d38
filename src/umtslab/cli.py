"""Command line front end for running experiment matrices and checking traces.

``umtslab run config.json`` expands the config's spaces, algorithms,
adversaries, and seeds into a job matrix, runs every job, and writes a
CSV table, a JSON summary, and one JSONL trace per job into the output
directory. ``umtslab verify trace.jsonl`` replays a trace from its own
numbers alone (no algorithm is rebuilt) and reports the first violated
check. Exit codes: 0 all checks passed, 1 a guarantee or trace check
failed, 2 the config or invocation is unusable.
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
from umtslab.core import (
    ElementaryTask,
    Umts,
    apply_elementary,
    beta_excluded_mass,
    flat_work_function,
    online_step_cost,
)
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
# one encoder for every trace line: json.dumps builds a new one per call
TRACE_ENCODER = json.JSONEncoder(sort_keys=True)


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
        "steps": len(run.steps),
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
    # reject a bad entry before any job runs
    kinds = [_adversary_config(entry, seeds[0]).kind for entry in adversaries]
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


def _verify(head, rows):
    """Replay a trace from its own numbers; returns (exit code, message).

    The header ``dist`` must be a metric. One that would go to the
    transport LP is priced on its HST instead when it is an ultrametric, as
    the run priced it.
    Composition traces (the header lists ``blocks``) also replay the blocks
    and the quotient: ``dist_hat`` must be the largest cross-block distances
    of ``dist``, and each step must name the block of its state. Every gap
    and cost test reads ``not gap <= tol``, so a NaN fails it.
    """
    u = Umts(
        FiniteMetric(tuple(head["labels"]), np.asarray(head["dist"], dtype=float)),
        np.asarray(head["rates"], dtype=float),
        float(head["s"]),
        str(head.get("initial", "")),
    )
    problems = validate(u.metric)
    if problems:
        return 1, f"metric violated in the header: {problems[0]}"
    if needs_lp(u.metric):
        u = replace(u, metric=with_hst_realization(u.metric))
    combined = "blocks" in head
    if combined:
        dist_hat = np.asarray(head["dist_hat"], dtype=float)
        partition = make_partition(u.metric, head["blocks"])
        expected = quotient_metric(u.metric, partition).dist
        same_shape = dist_hat.shape == expected.shape
        gap = float(np.abs(dist_hat - expected).max()) if same_shape else math.inf
        if not gap <= EPS_EQ:  # NaN fails too
            return 1, (
                f"dist_hat violated in the header: deviates from the largest "
                f"cross-block distances by {gap:.3g}"
            )
        blocks = [[u.metric.index(m) for m in b] for b in partition.blocks]
        block_of = {v: b for b, idx in enumerate(blocks) for v in idx}
        qlabels = tuple(f"B{i}" for i in range(len(blocks)))
        qu = Umts(
            FiniteMetric(qlabels, dist_hat),
            np.asarray(head["hat_rates"], dtype=float),
            float(head["s"]),
        )
        beta = float(head["beta"])
        tol = head.get("tol")
        cost_allow = math.inf if tol is None else float(tol)
        what = np.asarray(head["hat_init"], dtype=float)
        ph_prev = np.asarray(head["p_hat0"], dtype=float)
    else:
        beta = float(head.get("beta", 0.0))
    cost_check = "samecompratio" if combined else "stepcost"
    w = flat_work_function(u)
    p_prev = np.asarray(head["p0"], dtype=float)
    if not_distribution(p_prev):
        return 1, f"distribution violated at step 0: {_simplex_summary(p_prev)}"
    if combined and not_distribution(ph_prev):
        return 1, f"distribution violated at step 0: quotient {_simplex_summary(ph_prev)}"
    for i, row in enumerate(rows, 1):
        if row["i"] != i:
            return 1, f"numbering violated at step {i}: the row is numbered {row['i']!r}"
        v = u.metric.index(row["state"])
        delta = float(row["delta"])
        stored_w = np.asarray(row["w"], dtype=float)
        w2 = apply_elementary(u, w, v, delta)
        gap = float(np.abs(w2 - stored_w).max())
        if not gap <= EPS_EQ:
            return 1, (
                f"welleqw violated at step {i}: stored work function deviates "
                f"from the recomputed chain by {gap:.3g}"
            )
        if combined:
            j = block_of[v]
            if row["block"] != j:
                return 1, (
                    f"block violated at step {i}: state {row['state']} lies in "
                    f"block {j}, the row names {row['block']!r}"
                )
            dhat = float(row["delta_hat"])
            for b, idx in enumerate(blocks):
                bgap = float(np.abs(stored_w[idx] - np.asarray(row["w_blocks"][b])).max())
                if not bgap <= EPS_EQ:
                    return 1, (
                        f"welleqw violated at step {i}: block {b} work function "
                        f"drifts from the restricted global one by {bgap:.3g}"
                    )
            stored_what = np.asarray(row["what"], dtype=float)
            what2 = apply_elementary(qu, what, j, dhat)
            hgap = float(np.abs(what2 - stored_what).max())
            if not hgap <= EPS_EQ:
                return 1, (
                    f"hatw violated at step {i}: quotient work function detaches "
                    f"from its charges by {hgap:.3g}"
                )
            ggap = float(np.abs(stored_what - np.asarray(row["g"], dtype=float)).max())
            if not ggap <= EPS_AUDIT:
                return 1, (
                    f"hatw violated at step {i}: quotient work function differs "
                    f"from the block G values by {ggap:.3g}"
                )
        p2 = np.asarray(row["p"], dtype=float)
        if not_distribution(p2):
            return 1, f"distribution violated at step {i}: {_simplex_summary(p2)}"
        if combined:
            ph2 = np.asarray(row["p_hat"], dtype=float)
            if not_distribution(ph2):
                return 1, f"distribution violated at step {i}: quotient {_simplex_summary(ph2)}"
        # a single-state rule declares beta = 0 and is exempt
        excluded = beta_excluded_mass(u, beta, stored_w, p2) if combined or beta > 0.0 else []
        if excluded:
            x, mass = excluded[0]
            return 1, (
                f"betatagc violated at step {i}: mass {mass:.3g} "
                f"on excluded state {u.labels[x]}"
            )
        cost = float(row["cost"])
        cexp = online_step_cost(u, p_prev, p2, ElementaryTask(u.labels[v], delta))
        if not abs(cexp - cost) <= EPS_AUDIT:
            return 1, (
                f"{cost_check} violated at step {i}: stored step cost "
                f"disagrees with the transport recomputation by {abs(cexp - cost):.3g}"
            )
        if combined:
            qcost = float(row["qcost"])
            qexp = online_step_cost(qu, ph_prev, ph2, ElementaryTask(qlabels[j], dhat))
            if not abs(qexp - qcost) <= EPS_AUDIT:
                return 1, (
                    f"samecompratio violated at step {i}: stored quotient cost "
                    f"disagrees with the transport recomputation by {abs(qexp - qcost):.3g}"
                )
            if not cost <= qcost + cost_allow:
                return 1, (
                    f"samecompratio violated at step {i}: step cost {cost:.6g} "
                    f"exceeds the quotient step cost {qcost:.6g}"
                )
            what, ph_prev = stored_what, ph2
        w, p_prev = stored_w, p2
    if combined:
        checks = (
            "metric, dist_hat, numbering, welleqw, block, hatw, distribution, betatagc, "
            "samecompratio"
        )
        unchecked = "ratio, beta, alpha, tol, dhat_tol"
    else:
        checks = "metric, numbering, welleqw, distribution, betatagc, stepcost"
        unchecked = "ratio, beta"
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
