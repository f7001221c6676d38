"""Acceptance battery: ten checks on the laboratory, one verdict line each.

Each criterion is a single test whose final print line is its verdict.
The checks pin the exact guarantees: exact offline optima, transport
oracles, the empirical competitive bounds of every shipped family, the
combination audits and their constraint arithmetic, negative controls
that must be caught, and byte-stable command line runs.
"""

import dataclasses
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from oracles import (
    line_cdf_cost,
    offline_exhaustive,
    random_metric,
    random_prob,
    transport_bruteforce,
)
from test_potential import ts_rule
from umtslab.algorithms import odd_exponent, trivial_algorithm, two_stable, two_stable_ratio
from umtslab.cli import main as cli_main
from umtslab.combiner import nice_beta_eta
from umtslab.core import ElementaryTask, GeneralTask, Umts
from umtslab.harness import AdversaryConfig, adversary, audit, offline_opt, play, ratio_report
from umtslab.hst import (
    HstNode,
    hst_metric,
    leaf,
    line_algorithm,
    rhst,
    weighted_caching_algorithm,
)
from umtslab.metricspace import FiniteMetric, make_line, make_uniform
from umtslab.portfolio import combined_algorithm, w_combined_algorithm
from umtslab.potential import BandPotential, estimate_potential
from umtslab.transport import mcost_metric


def verdict(num: int, name: str) -> None:
    print(f"criterion {num} ({name}): PASS", flush=True)


def test_criterion_01_offline_optimum_matches_exhaustive():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        dist = random_metric(rng, n)
        labels = tuple(f"x{i}" for i in range(n))
        rates = rng.uniform(0.2, 3.0, n)
        u = Umts(FiniteMetric(labels, dist), rates, float(rng.uniform(0.5, 2.0)))
        tasks, rows = [], []
        for _ in range(int(rng.integers(1, 7))):
            if rng.random() < 0.3:
                charges = rng.uniform(0.0, 0.8, n) * (rng.random(n) < 0.5)
                tasks.append(GeneralTask(charges))
                rows.append(charges)
            else:
                v = int(rng.integers(n))
                delta = float(rng.uniform(0.05, 1.0))
                tasks.append(ElementaryTask(labels[v], delta))
                vec = np.zeros(n)
                vec[v] = delta
                rows.append(vec)
        dp = offline_opt(u, tasks)
        brute = offline_exhaustive(dist, 0, rows)
        assert abs(dp - brute) <= 1e-9, (dp, brute)
    assert time.monotonic() - start < 10.0
    verdict(1, "offline optimum equals exhaustive search on 200 instances")


def test_criterion_02_moving_cost_matches_oracles():
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        dist = random_metric(rng, n)
        metric = FiniteMetric(tuple(f"x{i}" for i in range(n)), dist)
        p, q = random_prob(rng, n), random_prob(rng, n)
        assert abs(mcost_metric(metric, p, q) - transport_bruteforce(dist, p, q)) <= 1e-9
    for n in (2, 3, 5, 8):
        line = make_line(n, gap=0.7)
        positions = np.arange(n) * 0.7
        for _ in range(25):
            p, q = random_prob(rng, n), random_prob(rng, n)
            assert abs(mcost_metric(line, p, q) - line_cdf_cost(positions, p, q)) <= 1e-9
    verdict(2, "transport cost equals brute force and the line formula")


def test_criterion_03_odd_exponent_guarantee_on_uniform():
    start = time.monotonic()
    plan = {2: 34, 4: 33, 8: 33}
    for b, count in plan.items():
        u = Umts(make_uniform(b), np.ones(b), 1.0)
        alg = odd_exponent(u)
        bound = 1.0 + 6.0 * math.log(b)
        assert alg.declared_ratio <= bound + 1e-12
        kinds = ["greedy-pressure", "support-raiser"] + ["uniform-random"] * (count - 2)
        for seed, kind in enumerate(kinds):
            run = play(alg, adversary(AdversaryConfig(kind=kind, steps=1000, seed=seed)))
            out = ratio_report(run)
            assert out["passed"] is True, (b, kind, seed, out)
            assert out["ratio"] <= bound + 1e-9
    assert time.monotonic() - start < 60.0
    verdict(3, "odd exponent stays within 1 + 6 ln b over 100 thousand-step runs")


def test_criterion_04_two_stable_forms_and_sensibility():
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        s = float(rng.uniform(0.1, 10.0))
        r1 = float(rng.uniform(0.0, 20.0))
        r2 = float(rng.uniform(0.0, 20.0))
        f = two_stable_ratio(s, r1, r2)
        assert f >= max(r1, r2) - 1e-9
        assert f <= max(r1, r2) + s + 1e-9
        assert abs(f - two_stable_ratio(s, r2, r1)) <= 1e-9
        assert abs(two_stable_ratio(s, r1, r1) - (r1 + s)) <= 1e-9
    for i in range(1000):
        s = float(rng.uniform(0.2, 5.0))
        d = float(rng.uniform(0.5, 2.0))
        r1, r2 = rng.uniform(0.0, 15.0, 2)
        u = Umts(make_uniform(2, d=d), np.array([r1, r2]), s)
        alg = two_stable(u)
        assert abs(alg.declared_ratio - two_stable_ratio(s, r1, r2)) <= 1e-12
        assert alg.phi_sup >= -1e-12
        p = alg.probabilities(np.zeros(2))
        assert abs(p.sum() - 1.0) <= 1e-9 and p.min() >= -1e-12
    kinds = ("uniform-random", "greedy-pressure", "support-raiser")
    for i in range(100):
        s = float(rng.uniform(0.2, 5.0))
        r1, r2 = rng.uniform(0.0, 15.0, 2)
        u = Umts(make_uniform(2, d=float(rng.uniform(0.5, 2.0))), np.array([r1, r2]), s)
        alg = two_stable(u)
        report = audit(play(alg, adversary(AdversaryConfig(kind=kinds[i % 3], steps=150, seed=i))))
        assert report["passed"], (i, r1, r2, s, report["worst"])
    verdict(4, "two-state closed forms hold and 100 runs keep sensibility slack above -1e-6")


def test_criterion_05_two_state_merge_bound_grid():
    xs = np.logspace(0.0, 6.0, 100)
    for s in (0.5, 1.0, 10.0):
        bounds = 2.0 * s * (np.log(xs) + 1.0)
        for i, x1 in enumerate(xs):
            for j, x2 in enumerate(xs):
                merged = two_stable_ratio(s, float(bounds[i]), float(bounds[j]))
                assert merged <= 2.0 * s * (math.log(x1 + x2) + 1.0) + 1e-9
    verdict(5, "merge bound f(s, g(x1), g(x2)) <= g(x1 + x2) on the full grid")


def test_criterion_06_combination_audits_and_arithmetic():
    assert nice_beta_eta(5.0, (0.5, 0.25), [(1.0, 0.5), (1.0, 0.5)]) == pytest.approx(
        (1.0, 0.35), abs=1e-12
    )
    u = Umts(make_uniform(4), np.array([3.0, 1.0, 2.0, 0.5]), 10.0)
    calg = combined_algorithm(u)
    assert (calg.beta, calg.eta) == (1.0, 0.5)
    tail = calg.parts.block_algs[1]
    assert (tail.beta, tail.eta) == (0.5, 0.3)
    tree = HstNode(
        delta=10.0,
        children=(
            HstNode(2.0, (leaf("a"), leaf("b"))),
            HstNode(2.0, (leaf("c"), leaf("d"))),
            leaf("e"),
        ),
    )
    ralg = rhst(Umts(hst_metric(tree), np.array([1.0, 0.5, 0.8, 1.0, 0.3]), 1.0), tree)
    assert (ralg.beta, ralg.eta) == (1.0, 1.0)

    rng = np.random.default_rng(606)
    kinds = ("uniform-random", "greedy-pressure", "support-raiser")
    runs = 0

    def audited(alg, steps, seed):
        nonlocal runs
        config = AdversaryConfig(kind=kinds[seed % 3], steps=steps, seed=seed)
        report = audit(play(alg, adversary(config)))
        assert report["passed"], (alg.name, seed, report["worst"])
        runs += 1

    for i in range(40):
        n = 3 + i % 6
        space = Umts(make_uniform(n), rng.uniform(0.3, 4.0, n), float(rng.uniform(0.5, 2.0)))
        audited(combined_algorithm(space), 40, i)
    for i in range(20):
        n = 2 + i % 7
        rates = np.full(n, float(rng.uniform(0.4, 2.0)))
        rates[0] = float(rng.uniform(0.4, 6.0))
        space = Umts(make_uniform(n), rates, float(rng.uniform(0.5, 2.0)))
        audited(w_combined_algorithm(space), 40, 100 + i)
    cache_algs = [
        weighted_caching_algorithm(list(rng.uniform(0.5, 2.0, 3))),
        weighted_caching_algorithm(list(rng.uniform(0.5, 2.0, 4))),
        weighted_caching_algorithm([1.0, 1.0, 2.0, 0.1]),
    ]
    for i in range(20):
        audited(cache_algs[i % 3], 40, 200 + i)
    line_algs = [line_algorithm(4), line_algorithm(8)]
    for i in range(10):
        audited(line_algs[i % 2], 40, 300 + i)
    for i in range(10):
        audited(ralg, 40, 400 + i)
    assert runs == 100
    verdict(6, "100 combination runs pass all structural audits at 1e-6")


def test_criterion_07_weighted_caching_bound():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    plan = {1: 14, 2: 14, 3: 12, 7: 10}
    kinds = ("uniform-random", "greedy-pressure", "support-raiser")
    for K, count in plan.items():
        bound = 60.0 * (math.log(K + 1.0) + 1.0 / 3.0)
        vectors = [np.ones(K + 1), rng.uniform(0.5, 2.0, K + 1)]
        if K == 3:
            vectors[1] = np.array([1.0, 1.0, 2.0, 0.1])
        algs = [weighted_caching_algorithm(list(v), s=1.0) for v in vectors]
        for alg in algs:
            assert alg.declared_ratio <= bound + 1e-9
        for i in range(count):
            alg = algs[i % 2]
            run = play(alg, adversary(AdversaryConfig(kind=kinds[i % 3], steps=100, seed=i)))
            out = ratio_report(run)
            assert out["passed"] is not False, (K, i, out)
            if out["passed"] is True:
                assert out["ratio"] <= bound + 1e-9
    assert time.monotonic() - start < 120.0
    verdict(7, "weighted caching stays within 60(ln(K+1)+1/3) for K in {1,2,3,7}")


def test_criterion_08_line_metric_bound():
    for n in (2, 4, 8, 16):
        alg = line_algorithm(n)
        expected = 1.0 + 4.0 * math.log2(n)
        assert abs(alg.declared_ratio - expected) <= 1e-6 * expected
        assert alg.declared_ratio <= 8.0 * math.log(n) + 1e-9
        for seed in (0, 1):
            run = play(alg, adversary(AdversaryConfig(kind="uniform-random", steps=80, seed=seed)))
            out = ratio_report(run)
            assert out["passed"] is not False, (n, seed, out)
    verdict(8, "line rule meets 1 + 4 s log2 n, below 8 ln n, on n in {2,4,8,16}")


def test_criterion_09_negative_controls_detected():
    u = Umts(make_uniform(2), np.array([5.0, 1.0]), 1.0)
    alg = trivial_algorithm(u)
    alg.declared_ratio = 5.0 / 3.0
    run = play(alg, adversary(AdversaryConfig(kind="uniform-random", steps=60, seed=9)))
    report = audit(run)
    assert not report["passed"] and "sensibility" in report["worst"]
    out = ratio_report(run)
    assert out["passed"] is False

    true_r = 10.0 + 6.0 * math.log(2.0)
    assert BandPotential(ts_rule(1.0, 1.0, 10.0, 10.0, true_r)).feasible
    halved_band = BandPotential(ts_rule(1.0, 1.0, 10.0, 10.0, true_r / 2.0))
    assert not halved_band.feasible and halved_band.min_gap < -1e-6
    assert BandPotential(ts_rule(1.0, 1.0, 10.0, 10.0, 11.0)).feasible
    assert not BandPotential(ts_rule(1.0, 1.0, 10.0, 10.0, 5.5)).feasible

    u3 = Umts(make_uniform(3), np.ones(3), 1.0)
    bad = dataclasses.replace(odd_exponent(u3), declared_ratio=float(u3.rates.max()))
    est = estimate_potential(bad, grid_step=0.25)
    assert not est.converged
    verdict(9, "under-declared guarantees are caught by band, iteration, audit, and ratio")


def test_criterion_10_cli_deterministic_runs_are_identical(tmp_path):
    source = resources.files("umtslab").joinpath("configs/uniform-oddexponent.json")
    config = tmp_path / "config.json"
    config.write_text(source.read_text())
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        code = cli_main(["run", str(config), "--deterministic", "--out", str(out)])
        assert code == 0
    trees = []
    for out in outs:
        trees.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    assert trees[0] == trees[1]
    assert "results.csv" in trees[0] and "summary.json" in trees[0]
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["failures"] == 0
    for trace in sorted((outs[0] / "traces").glob("*.jsonl")):
        assert cli_main(["verify", str(trace)]) == 0
    verdict(10, "two deterministic command line runs are byte-identical and verify clean")
