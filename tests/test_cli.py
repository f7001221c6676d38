"""Run and verify subcommands, exit codes, and trace rechecking."""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from umtslab import cli, harness, transport
from umtslab.cli import build_algorithm, main


def write_config(path: Path, **overrides) -> Path:
    config = {
        "schema": "umtslab-run-v1",
        "seeds": [0],
        "spaces": [
            {"name": "u3", "kind": "uniform", "points": 3, "rates": [2.0, 1.0, 0.5], "s": 1.0}
        ],
        "algorithms": ["combined"],
        "adversaries": [{"kind": "uniform-random", "steps": 20, "max_fraction": 0.999}],
    }
    config.update(overrides)
    target = path / "config.json"
    target.write_text(json.dumps(config))
    return target


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_deterministic_runs_are_byte_identical(tmp_path):
    config = write_config(tmp_path, seeds=[0, 1])
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", str(config), "--deterministic", "--out", str(out1)]) == 0
    assert main(["run", str(config), "--deterministic", "--out", str(out2)]) == 0
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert set(tree1) == set(tree2)
    assert all(tree1[name] == tree2[name] for name in tree1)
    assert "results.csv" in tree1 and "summary.json" in tree1


def test_parallel_run_matches_serial(tmp_path):
    config = write_config(
        tmp_path,
        seeds=[0, 1],
        spaces=[{"name": "u2", "kind": "uniform", "points": 2, "rates": [3.0, 1.0]}],
        algorithms=["trivial", "two-stable"],
        adversaries=[{"kind": "greedy-pressure", "steps": 15}],
    )
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", str(config), "--out", str(serial)]) == 0
    assert main(["run", str(config), "--jobs", "2", "--out", str(parallel)]) == 0
    assert read_tree(serial) == read_tree(parallel)


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other"}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    mismatched = write_config(tmp_path, algorithms=["caching"])
    assert main(["run", str(mismatched), "--out", str(tmp_path / "o")]) == 2
    for entry in (
        {"kind": "uniform-random", "steps": 20, "max_fraction": 1.5},
        {"kind": "chaotic", "steps": 20},
        {"kind": "uniform-random", "steps": -1},
    ):
        # a valid first entry must not run before the bad one is rejected
        config = write_config(tmp_path, adversaries=[{"kind": "uniform-random"}, entry])
        assert main(["run", str(config), "--out", str(tmp_path / "adv")]) == 2
        assert not (tmp_path / "adv").exists()
    nan_rate = write_config(
        tmp_path,
        spaces=[{"name": "u2", "kind": "uniform", "points": 2, "rates": [math.nan, 1.0]}],
        algorithms=["trivial"],
    )
    assert main(["run", str(nan_rate), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "overrides, colliding",
    [
        ({"adversaries": [{"kind": "uniform-random", "steps": 3},
                          {"kind": "uniform-random", "steps": 5}]},
         "u2--trivial--uniform-random--seed0.jsonl"),
        ({"spaces": [{"name": "u", "kind": "uniform", "points": 2},
                     {"name": "u", "kind": "uniform", "points": 3}]},
         "u--trivial--uniform-random--seed0.jsonl"),
        ({"seeds": [4, 4]}, "u2--trivial--uniform-random--seed4.jsonl"),
        # names that differ only in characters a file name replaces
        ({"spaces": [{"name": "a b", "kind": "uniform", "points": 2},
                     {"name": "a/b", "kind": "uniform", "points": 2}]},
         "a-b--trivial--uniform-random--seed0.jsonl"),
    ],
    ids=["adversary-kind", "space-name", "seed", "slug"],
)
def test_colliding_traces_exit_2(tmp_path, capsys, overrides, colliding):
    config = write_config(
        tmp_path,
        **{"spaces": [{"name": "u2", "kind": "uniform", "points": 2}], "algorithms": ["trivial"],
           "adversaries": [{"kind": "uniform-random", "steps": 3}], **overrides},
    )
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"traces/{colliding}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"seeds": "12"}, "'seeds' must be a list"),
        ({"seeds": [1.7]}, "seeds must be an integer, got 1.7"),
        ({"seeds": [True]}, "seeds must be an integer, got True"),
        ({"seeds": ["1"]}, "seeds must be an integer, got '1'"),
        ({"seeds": [-1]}, "seeds must be non-negative integers"),
        ({"algorithms": "trivial"}, "'algorithms' must be a list of names"),
        ({"algorithms": [["trivial"]]}, "'algorithms' must be a list of names"),
        ({"adversaries": {"kind": "uniform-random"}}, "'adversaries' must be a list"),
        ({"adversaries": [{"kind": "uniform-random", "steps": 2.9}]},
         "'steps' must be an integer, got 2.9"),
        ({"adversaries": [{"kind": "uniform-random", "steps": "3"}]},
         "'steps' must be an integer, got '3'"),
        ({"adversaries": [{"kind": "uniform-random", "steps": False}]},
         "'steps' must be an integer, got False"),
        ({"spaces": [{"name": "u", "kind": "uniform", "points": 2.7}]},
         "'points' must be an integer, got 2.7"),
        ({"spaces": [{"name": "u", "kind": "uniform", "points": "3"}]},
         "'points' must be an integer, got '3'"),
        ({"spaces": [{"name": "l", "kind": "line", "points": 4.5}], "algorithms": ["line"]},
         "'points' must be an integer, got 4.5"),
    ],
)
def test_config_values_are_not_reinterpreted(tmp_path, capsys, overrides, message):
    config = write_config(tmp_path, **{"algorithms": ["trivial"], **overrides})
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "space, algorithm",
    [
        ({"name": "u", "kind": "uniform", "points": 10**12}, "trivial"),
        ({"name": "l", "kind": "line", "points": 10**12}, "line"),
        ({"name": "k", "kind": "caching", "fetch_costs": [1.0] * (cli.MAX_POINTS + 1)},
         "caching"),
    ],
    ids=["uniform", "line", "caching"],
)
def test_oversized_spaces_exit_2(tmp_path, capsys, space, algorithm):
    """A space above the cap is rejected before anything of its size is built."""
    config = write_config(tmp_path, spaces=[space], algorithms=[algorithm])
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"more than the {cli.MAX_POINTS} a config may ask for" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(cli.ConfigError):
        build_algorithm(space, algorithm)


@pytest.mark.parametrize(
    "space, points, algorithm",
    [
        ({"name": "u", "kind": "uniform", "points": cli.MAX_POINTS}, cli.MAX_POINTS, "trivial"),
        ({"name": "k", "kind": "caching", "fetch_costs": [1.0, 2.0]}, 2, "caching"),
    ],
    ids=["uniform", "caching"],
)
def test_a_job_over_the_record_budget_exits_2(tmp_path, capsys, space, points, algorithm):
    """A job whose (steps + 1) x points is just over ``MAX_RECORD`` is
    rejected with one line before any job runs; one step fewer is not."""
    steps = cli.MAX_RECORD // points
    adversaries = [{"kind": "uniform-random", "steps": 1},
                   {"kind": "support-raiser", "steps": steps}]
    config = write_config(tmp_path, spaces=[space], algorithms=[algorithm],
                          adversaries=adversaries)
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than the {cli.MAX_RECORD} a job may hold" in err
    assert not (tmp_path / "o").exists()
    cli._check_size(space, steps - 1)


def test_small_max_fraction_charges_at_most_that_fraction(tmp_path):
    """uniform-random draws its fraction from [max_fraction, max_fraction]
    below 0.2, so each charge is at most that fraction of its limit."""
    space = {"name": "u3", "kind": "uniform", "points": 3, "distance": 1.0, "s": 1.0}
    config = write_config(tmp_path, spaces=[space], algorithms=["odd-exponent"],
                          adversaries=[{"kind": "uniform-random", "steps": 30,
                                        "max_fraction": 0.1}])
    out = tmp_path / "o"
    assert main(["run", str(config), "--out", str(out)]) == 0
    alg = build_algorithm(space, "odd-exponent")
    rows = [json.loads(line) for line in
            next((out / "traces").glob("*.jsonl")).read_text().splitlines()[1:]]
    assert len(rows) == 30
    w = np.zeros(3)
    for row in rows:
        v = alg.umts.metric.index(row["state"])
        limit = min(alg.zero_crossing(w, v), harness.support_headrooms(alg.umts, w)[v])
        assert 0.0 < row["delta"] <= 0.1 * limit
        w = np.array(row["w"])


def test_integral_floats_are_counts(tmp_path):
    """A JSON number with an integral value is taken as that integer."""
    config = write_config(
        tmp_path,
        seeds=[2.0],
        spaces=[{"name": "u", "kind": "uniform", "points": 2.0}],
        algorithms=["trivial"],
        adversaries=[{"kind": "uniform-random", "steps": 4.0}],
    )
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 0
    row = json.loads((tmp_path / "o" / "summary.json").read_text())["rows"][0]
    assert (row["seed"], row["steps"], row["trace"]) == (
        2, 4, "traces/u--trivial--uniform-random--seed2.jsonl")


@pytest.mark.parametrize(
    "spaces",
    [
        {"u3": {"kind": "uniform", "points": 3}},
        [{"name": "u3", "kind": "uniform", "points": 3}, "u2"],
    ],
    ids=["spaces-object", "space-entry-not-object"],
)
def test_malformed_spaces_exit_2(tmp_path, capsys, spaces):
    config = write_config(tmp_path, spaces=spaces, algorithms=["trivial"])
    assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "'spaces' must be a list of objects" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_env_overrides_config(tmp_path, monkeypatch):
    config = write_config(tmp_path, seeds=[0, 1, 2], algorithms=["trivial"])
    monkeypatch.setenv("UMTSLAB_SEED", "5")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [row["seed"] for row in summary["rows"]] == [5]
    monkeypatch.setenv("UMTSLAB_SEED", "x")
    assert main(["run", str(config), "--out", str(out)]) == 2


def test_zero_step_runs_report_no_ratio(tmp_path):
    config = write_config(
        tmp_path,
        algorithms=["trivial"],
        adversaries=[{"kind": "uniform-random", "steps": 0}],
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"][0]["ratio"] is None
    csv_text = (out / "results.csv").read_text().splitlines()
    assert csv_text[1].split(",")[7] == "nan"


def test_verify_accepts_written_traces(tmp_path, capsys):
    config = write_config(tmp_path, algorithms=["combined", "trivial"])
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    traces = sorted((out / "traces").glob("*.jsonl"))
    assert len(traces) == 2
    for trace in traces:
        assert main(["verify", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out
    assert "dist_hat" in out and "not recomputed: ratio, beta, alpha, tol, dhat_tol" in out
    assert "not recomputed: ratio, beta\n" in out


def test_verify_recomputes_dist_hat(tmp_path, capsys):
    config = write_config(
        tmp_path,
        spaces=[{"name": "k3", "kind": "caching", "fetch_costs": [1.0, 0.7, 1.6, 2.0]}],
        algorithms=["caching"],
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    lines = next((out / "traces").glob("*.jsonl")).read_text().splitlines()
    head = json.loads(lines[0])
    assert len(head["dist_hat"]) > 1
    head["dist_hat"][0][1] += 1e-3
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
    assert main(["verify", str(doctored)]) == 1
    assert "dist_hat violated in the header" in capsys.readouterr().out


def test_python_m_umtslab_verifies_a_trace(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    trace = next((out / "traces").glob("*.jsonl"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "umtslab", "verify", str(trace)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok:")


def test_verify_flags_corrupted_quotient_charge(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    trace = next((out / "traces").glob("*combined*.jsonl"))
    lines = trace.read_text().splitlines()
    row = json.loads(lines[10])
    row["delta_hat"] += 0.01
    lines[10] = json.dumps(row, sort_keys=True)
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(doctored)]) == 1
    message = capsys.readouterr().out
    assert "hatw violated at step 10" in message


def test_verify_flags_corrupted_work_function(tmp_path, capsys):
    config = write_config(
        tmp_path,
        spaces=[{"name": "u2", "kind": "uniform", "points": 2, "rates": [3.0, 1.0]}],
        algorithms=["two-stable"],
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    trace = next((out / "traces").glob("*.jsonl"))
    lines = trace.read_text().splitlines()
    row = json.loads(lines[5])
    row["w"][0] += 0.5
    lines[5] = json.dumps(row, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(trace)]) == 1
    assert "welleqw violated at step 5" in capsys.readouterr().out


@pytest.mark.parametrize("number", [99, 4, 6, 5.5, "5", True])
def test_verify_checks_step_numbering(tmp_path, capsys, number):
    config = write_config(
        tmp_path,
        spaces=[{"name": "u4", "kind": "uniform", "points": 4}],
        algorithms=["odd-exponent"],
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    trace = next((out / "traces").glob("*.jsonl"))
    lines = trace.read_text().splitlines()
    assert main(["verify", str(trace)]) == 0
    assert "ok: 20 steps verified (metric, numbering," in capsys.readouterr().out
    # True == 1, so the boolean goes on step 1
    step = 1 if number is True else 5
    row = json.loads(lines[step])
    row["i"] = number
    lines[step] = json.dumps(row, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(trace)]) == 1
    assert (f"numbering violated at step {step}: the row is numbered {number!r}"
            in capsys.readouterr().out)


def test_verify_reads_beta_from_every_header(tmp_path, capsys):
    """An odd-exponent header without beta is malformed; a header-only trace verifies."""
    lines = written_trace(tmp_path, {"name": "u4", "kind": "uniform", "points": 4},
                          "odd-exponent")
    head = json.loads(lines[0])
    assert head["beta"] > 0.0
    capsys.readouterr()
    trace = tmp_path / "header.jsonl"
    trace.write_text(lines[0] + "\n")
    assert main(["verify", str(trace)]) == 0
    assert capsys.readouterr().out.startswith("ok: 0 steps verified (metric, numbering,")
    del head["beta"]
    trace.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
    assert main(["verify", str(trace)]) == 2
    assert "malformed trace: 'beta'" in capsys.readouterr().err


def test_verify_flags_corrupted_atomic_cost_and_distribution(tmp_path, capsys):
    config = write_config(
        tmp_path,
        spaces=[{"name": "u2", "kind": "uniform", "points": 2, "rates": [3.0, 1.0]}],
        algorithms=["two-stable"],
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    lines = next((out / "traces").glob("*.jsonl")).read_text().splitlines()
    for key, change, check in (
        ("cost", lambda row: row.update(cost=row["cost"] + 0.01), "stepcost"),
        ("p", lambda row: row["p"].__setitem__(0, row["p"][0] + 0.01), "distribution"),
    ):
        row = json.loads(lines[7])
        change(row)
        doctored = tmp_path / f"{key}.jsonl"
        doctored.write_text("\n".join(lines[:7] + [json.dumps(row)] + lines[8:]) + "\n")
        assert main(["verify", str(doctored)]) == 1
        assert f"{check} violated at step 7" in capsys.readouterr().out


CACHING_K3 = {"name": "caching-k3", "kind": "caching", "fetch_costs": [1.0, 1.0, 2.0, 0.1]}
TWO_STABLE = {"name": "u2", "kind": "uniform", "points": 2, "rates": [3.0, 1.0]}


def written_trace(tmp_path, space, algorithm) -> list[str]:
    config = write_config(tmp_path, spaces=[space], algorithms=[algorithm])
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    return next((out / "traces").glob("*.jsonl")).read_text().splitlines()


def set_nan(row, key):
    value = row[key]
    if not isinstance(value, list):
        row[key] = math.nan
    elif isinstance(value[0], list):
        value[-1][0] = math.nan
    else:
        value[0] = math.nan


@pytest.mark.parametrize(
    "space, algorithm, key, check",
    [
        (TWO_STABLE, "two-stable", "w", "welleqw"),
        (CACHING_K3, "caching", "w_blocks", "welleqw"),
        (CACHING_K3, "caching", "what", "hatw"),
        (CACHING_K3, "caching", "g", "hatw"),
        (CACHING_K3, "caching", "qcost", "samecompratio"),
    ],
)
def test_verify_rejects_nan(tmp_path, capsys, space, algorithm, key, check):
    lines = written_trace(tmp_path, space, algorithm)
    row = json.loads(lines[5])
    set_nan(row, key)
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("\n".join(lines[:5] + [json.dumps(row)] + lines[6:]) + "\n")
    assert main(["verify", str(doctored)]) == 1
    assert f"{check} violated at step 5" in capsys.readouterr().out


def unknown_state(row):
    row["state"] = "nowhere"


def short_vector(row):
    row["p"] = row["p"][:-1]


def negative_charge(row):
    row["delta"] = -0.5


def nan_quotient_charge(row):
    row["delta_hat"] = math.nan


def missing_cost(row):
    del row["cost"]


@pytest.mark.parametrize(
    "malform", [unknown_state, short_vector, negative_charge, nan_quotient_charge, missing_cost]
)
def test_verify_rejects_a_malformed_row_after_a_failing_one(tmp_path, capsys, malform):
    lines = written_trace(tmp_path, CACHING_K3, "caching")
    rows = [json.loads(line) for line in lines]
    rows[5]["w"][0] += 0.5
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("".join(json.dumps(x) + "\n" for x in rows))
    assert main(["verify", str(doctored)]) == 1
    assert "welleqw violated at step 5" in capsys.readouterr().out
    malform(rows[15])
    doctored.write_text("".join(json.dumps(x) + "\n" for x in rows))
    assert main(["verify", str(doctored)]) == 2
    assert "malformed trace" in capsys.readouterr().err


@pytest.mark.parametrize("at", [0, 5])
def test_verify_flags_a_quotient_distribution(tmp_path, capsys, at):
    lines = written_trace(tmp_path, CACHING_K3, "caching")
    row = json.loads(lines[at])
    key = "p_hat0" if at == 0 else "p_hat"
    row[key] = [1.01 * x for x in row[key]]
    lines[at] = json.dumps(row)
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(doctored)]) == 1
    assert f"distribution violated at step {at}: quotient probabilities sum to 1.01" in (
        capsys.readouterr().out)


def test_verify_rejects_a_bad_header_metric_or_block(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    lines = next((out / "traces").glob("*combined*.jsonl")).read_text().splitlines()

    def diagonal(head, rows):
        head["dist"][1][1] = 0.001

    def asymmetric(head, rows):
        head["dist"][0][2] *= 1.001

    def block(head, rows):
        rows[4]["block"] += 0.002

    for change, check in ((diagonal, "metric"), (asymmetric, "metric"), (block, "block")):
        head, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        change(head, rows)
        doctored = tmp_path / f"{change.__name__}.jsonl"
        doctored.write_text("".join(json.dumps(x) + "\n" for x in [head, *rows]))
        assert main(["verify", str(doctored)]) == 1
        assert f"{check} violated" in capsys.readouterr().out


def test_verify_prices_an_hst_trace_on_its_tree(tmp_path, capsys, monkeypatch):
    config = write_config(
        tmp_path,
        spaces=[{"name": "line8", "kind": "line", "points": 8, "gap": 1.0, "s": 1.0}],
        algorithms=["line"],
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    lines = next((out / "traces").glob("*.jsonl")).read_text().splitlines()
    assert len(lines) > 10
    lp_calls = []

    def counted_lp(*args):
        lp_calls.append(args)
        return lp_cost(*args)

    lp_cost = transport._lp_cost
    monkeypatch.setattr(transport, "_lp_cost", counted_lp)
    trace = tmp_path / "line8.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(trace)]) == 0
    row = json.loads(lines[6])
    row["cost"] += 0.01
    trace.write_text("\n".join(lines[:6] + [json.dumps(row)] + lines[7:]) + "\n")
    assert main(["verify", str(trace)]) == 1
    assert "samecompratio violated at step 6" in capsys.readouterr().out
    assert lp_calls == []


def test_run_job_simulates_once(monkeypatch):
    """One job makes one pass: k + 1 rule evaluations, one optimum per system."""
    counts = {"probabilities": 0, "offline_opt": 0}
    build = cli.build_algorithm
    offline_opt = harness.offline_opt

    def counted_build(space, algorithm):
        alg = build(space, algorithm)
        probabilities = alg.probabilities

        def counted(w):
            counts["probabilities"] += 1
            return probabilities(w)

        alg.probabilities = counted
        return alg

    def counted_opt(u, tasks):
        counts["offline_opt"] += 1
        return offline_opt(u, tasks)

    monkeypatch.setattr(cli, "build_algorithm", counted_build)
    monkeypatch.setattr(harness, "offline_opt", counted_opt)
    jobs = (
        ({"name": "u4", "kind": "uniform", "points": 4}, "odd-exponent", 1),
        ({"name": "k2", "kind": "caching", "fetch_costs": [1.0, 0.7, 1.6]}, "caching", 2),
    )
    for space, algorithm, systems in jobs:
        counts.update(probabilities=0, offline_opt=0)
        result = cli._run_job(space, algorithm, {"kind": "uniform-random", "steps": 15}, 3)
        k = result["row"]["steps"]
        assert k == 15
        assert counts["probabilities"] <= k + 1
        assert counts["offline_opt"] == systems


def test_run_builds_each_rule_once(tmp_path, monkeypatch):
    """2 spaces x 1 algorithm x 3 adversaries x 2 seeds make 2 builds per run."""
    config = write_config(
        tmp_path,
        seeds=[0, 1],
        spaces=[
            {"name": "u3", "kind": "uniform", "points": 3},
            {"name": "u2", "kind": "uniform", "points": 2, "rates": [3.0, 1.0]},
        ],
        algorithms=["odd-exponent"],
        adversaries=[
            {"kind": "uniform-random", "steps": 8},
            {"kind": "greedy-pressure", "steps": 8},
            {"kind": "support-raiser", "steps": 8},
        ],
    )
    built = []
    build = cli.build_algorithm

    def counted_build(space, algorithm):
        built.append((space["name"], algorithm))
        return build(space, algorithm)

    monkeypatch.setattr(cli, "build_algorithm", counted_build)
    serial = tmp_path / "serial"
    assert main(["run", str(config), "--deterministic", "--out", str(serial)]) == 0
    assert sorted(built) == [("u2", "odd-exponent"), ("u3", "odd-exponent")]
    # the next run in the same process builds both rules again
    assert main(["run", str(config), "--deterministic", "--out", str(tmp_path / "again")]) == 0
    assert len(built) == 4
    parallel = tmp_path / "parallel"
    assert main(["run", str(config), "--jobs", "2", "--out", str(parallel)]) == 0
    csv_text = (serial / "results.csv").read_text()
    assert len(csv_text.splitlines()) == 1 + 12
    assert (parallel / "results.csv").read_text() == csv_text


def test_run_job_writes_the_audit_trace():
    """The job's trace is the one its audit returns, atomic and combined alike."""
    entry = {"kind": "uniform-random", "steps": 12}
    jobs = (
        ({"name": "u3", "kind": "uniform", "points": 3}, "odd-exponent", "atomic"),
        ({"name": "k2", "kind": "caching", "fetch_costs": [1.0, 0.7, 1.6]}, "caching", "combined"),
    )
    for space, algorithm, kind in jobs:
        alg = build_algorithm(space, algorithm)
        config = cli._adversary_config(entry, 3)
        report = harness.audit(harness.play(alg, harness.adversary(config)))
        assert report["kind"] == kind and "run" not in report
        trace = cli._run_job(space, algorithm, entry, 3)["trace"]
        assert trace == report["trace"]
        assert trace[0]["kind"] == "header" and len(trace) == report["steps"] + 1


def test_verify_empty_and_malformed(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["verify", str(empty)]) == 0
    assert main(["verify", str(tmp_path / "missing.jsonl")]) == 2
    headless = tmp_path / "headless.jsonl"
    headless.write_text(json.dumps({"kind": "step", "i": 1}) + "\n")
    assert main(["verify", str(headless)]) == 2
    flat = tmp_path / "flat.jsonl"
    flat.write_text(json.dumps({"kind": "header", "labels": ["a", "b"], "dist": [0.0, 1.0],
                                "rates": [1.0, 1.0], "s": 1.0, "beta": 0.5, "p0": [1.0, 0.0]}))
    assert main(["verify", str(flat)]) == 2
    capsys.readouterr()


def test_bundled_configs_are_valid():
    for name in ("uniform-oddexponent.json", "caching-k3.json"):
        text = resources.files("umtslab").joinpath(f"configs/{name}").read_text()
        config = json.loads(text)
        assert config["schema"] == "umtslab-run-v1"
        for space in config["spaces"]:
            for algorithm in config["algorithms"]:
                alg = build_algorithm(space, algorithm)
                assert alg.declared_ratio > 0


def test_trace_encoder_writes_what_json_dumps_writes():
    """The shared trace encoder, which skips the circular-reference check,
    writes each trace row as ``json.dumps(row, sort_keys=True)`` does: the
    header rows, and atomic and combined step rows, those holding NaN and
    +-inf in top-level and nested fields included."""
    rows = []
    for space, algorithm in (({"kind": "uniform", "points": 2}, "odd-exponent"),
                             ({"kind": "caching", "fetch_costs": [1.0, 0.6, 1.7, 1.2]},
                              "caching")):
        alg = build_algorithm({"name": "x", "s": 1.0, **space}, algorithm)
        config = harness.AdversaryConfig(steps=4, seed=0)
        head, *steps = harness.audit(harness.play(alg, harness.adversary(config)))["trace"]
        odd = json.loads(json.dumps(steps[-1]))
        for key, value in odd.items():
            if isinstance(value, float):
                odd[key] = math.nan
            elif isinstance(value, list) and value and isinstance(value[0], list):
                odd[key] = [[-math.inf, *row[1:]] for row in value]
            elif isinstance(value, list):
                odd[key] = [math.inf, *value[1:]]
        rows += [head, *steps, odd]
    assert any("w_blocks" in row for row in rows)
    for row in rows:
        assert cli.TRACE_ENCODER.encode(row) == json.dumps(row, sort_keys=True)
