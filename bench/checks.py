"""Tests of the benchmark itself.

    python3 -m pytest bench/checks.py -q

The file name does not match ``test_*.py``, so the package's test run
from the repository root does not collect it. The tests run small
configs, not the workloads, so they take seconds.
"""

import json
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

TINY = {
    "schema": workloads.SCHEMA,
    "seeds": [3],
    "spaces": [{"name": "k3", "kind": "caching", "fetch_costs": [1.0, 1.5, 0.7, 1.2], "s": 1.0}],
    "algorithms": ["caching"],
    "adversaries": [{"kind": "uniform-random", "steps": 8, "max_fraction": 0.999}],
}
COUNT_KEYS = ("calls", "outer_calls")


@pytest.fixture(scope="module")
def probe():
    with run.Prober() as prober:
        yield prober


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def counts(result: dict, out_dir) -> dict:
    spans = {name: {k: span[k] for k in COUNT_KEYS} for name, span in result["spans"].items()}
    size = sum(size for size, _ in run.tree_digest(out_dir).values())
    return {"spans": spans, "estimates": result["estimates"], "output_bytes": size}


def test_traced_runs_repeat_their_counts(probe, config, tmp_path):
    first = probe("trace", config, tmp_path / "a")
    second = probe("trace", config, tmp_path / "b")
    assert first["code"] == 0 and second["code"] == 0
    a, b = counts(first, tmp_path / "a"), counts(second, tmp_path / "b")
    assert a == b
    # the layers the caching recursion reaches were really traced
    for layer in ("potential.estimate_potential", "potential.phi", "combiner.step",
                  "combiner.brentq", "algorithms.g_value", "transport.mcost_metric"):
        assert a["spans"][layer]["calls"] > 0, layer
    assert a["spans"]["transport.lp"]["calls"] == 0
    assert a["estimates"]["states"] > 0 and a["estimates"]["sweeps"] > 0
    assert 0 < a["estimates"]["used"] < a["estimates"]["made"]


def test_self_times_sum_to_the_traced_run(probe, config, tmp_path):
    plain = probe("run", config, tmp_path / "plain")
    traced = probe("trace", config, tmp_path / "traced")
    self_sum = sum(span["self_s"] for span in traced["spans"].values())
    gap = traced["run_s"] - self_sum
    # the only time outside every span is cli.main's argument parsing
    assert 0.0 <= gap <= abs(traced["run_s"] - plain["run_s"]) + 0.01


def test_tracing_leaves_outputs_unchanged(probe, config, tmp_path):
    probe("run", config, tmp_path / "plain")
    probe("trace", config, tmp_path / "traced")
    assert run.tree_digest(tmp_path / "plain") == run.tree_digest(tmp_path / "traced")


def test_wrong_reference_row_makes_failed_share_nonzero(probe, config, tmp_path, monkeypatch):
    monkeypatch.setattr(run.workloads, "make_configs", lambda name, seed: [("tiny", TINY)])
    probe("run", config, tmp_path / "ref")
    header, row = (tmp_path / "ref" / "results.csv").read_text().splitlines()
    for name, reference_row in (("exact", row), ("wrong", wrong_cost(row))):
        reference = tmp_path / name / "caching"
        reference.mkdir(parents=True)
        (reference / "tiny.csv").write_text(f"{header}\n{reference_row}\n")
        monkeypatch.setattr(run, "REFERENCE", tmp_path / name)
        work = tmp_path / f"work-{name}"
        work.mkdir()
        w = run.Workload("caching", run.DEFAULT_SEED, work, probe)
        w.run_once()
        assert w.attempted == 1
        assert w.failed == (name == "wrong"), w.reasons


def wrong_cost(row: str) -> str:
    cells = row.split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-9))
    return ",".join(cells)


def test_times_are_rescaled_by_the_calibration():
    samples = {
        "setup_s": [1.0, 2.0, 3.0],
        "config_s": {"a": [1.0, 2.0, 9.0], "b": [0.5, 0.7, 0.5]},
        "peak_rss_mb": [10.0, 12.0, 11.0],
    }
    slow = 2.0 * run.CALIBRATE_REF_S
    metrics, wall = run.summarize(samples, 50, [slow, slow, 0.5 * slow])
    assert wall["run_s"] == pytest.approx(2.5) and wall["setup_s"] == pytest.approx(2.0)
    assert metrics["run_s"]["value"] == pytest.approx(1.25)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["steps_per_s"]["value"] == pytest.approx(40.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(11.0)


def test_rows_match_within_the_summation_tolerance():
    ref = {"steps": "10", "passed": "pass", "cost": "1.5", "opt": "0.5", "ratio": "nan",
           "declared": "3.0"}
    assert run.rows_match(dict(ref), ref)
    assert run.rows_match(dict(ref, cost=repr(1.5 * (1 + 5e-13))), ref)
    assert not run.rows_match(dict(ref, cost=repr(1.5 * (1 + 5e-12))), ref)
    assert not run.rows_match(dict(ref, ratio="0.1"), ref)
    assert not run.rows_match(dict(ref, passed="fail"), ref)
