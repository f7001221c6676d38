"""The umtslab benchmark: audited `umtslab run` workloads, end to end and per layer.

    python3 bench/run.py --workload uniform-odd --seed 0 --seconds 40 --trace 0
    python3 bench/run.py              # all three workloads, seed 0

Run from the repository root. For one workload and seed it writes the
generated configs. Then, in a closed loop with one worker, it runs rounds
of the configs through `umtslab run --deterministic`, for as many rounds
as fit in ``--seconds`` and at least three, and times the algorithm
builds (`setup_s`) between rounds. Every set-up and every CLI invocation is measured in
its own process, forked from an interpreter that has only imported the
package (`probe.py`). The outputs are checked (exit code, `verify` on
every trace, byte-identical repeats, and for seed 0 the checked-in
reference rows); a job failing any check counts in `failed_share`.

With ``--trace 1`` it instead alternates untraced and traced runs and
reports the per-layer metrics. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
MIN_RUNS = 3
CHILD_TIMEOUT_S = 170
FLOAT_COLUMNS = ("cost", "opt", "ratio", "declared")
# exact where the arithmetic is unchanged, 1e-12 where only summation order changes
ROW_TOL = 1e-12
# median of probe.calibrate() on the 2-vCPU x86-64 host the benchmark was
# tuned on; timings are reported at the host speed this stands for
CALIBRATE_REF_S = 0.04

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UMTSLAB_SEED", None)  # it would override every config's seeds
    # one BLAS thread: a single worker, and no threads in the process that forks
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Prober:
    """The measurement server `probe.py`; call it to take one measurement."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            start_new_session=True,
        )

    def __call__(self, *args) -> dict:
        self.proc.stdin.write(json.dumps([str(a) for a in args]) + "\n")
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            self.close(kill=True)
            raise BenchError(f"{args[0]} measurement took over {CHILD_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"measurement server exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self, kill: bool = False):
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# correctness gate


def job_key(row) -> tuple:
    return (row["space"], row["algorithm"], row["adversary"], str(row["seed"]))


def read_rows(path: Path) -> dict[tuple, dict]:
    with path.open(newline="") as fh:
        return {job_key(row): row for row in csv.DictReader(fh)}


def expected_jobs(config) -> int:
    return (
        len(config["spaces"])
        * len(config["algorithms"])
        * len(config["adversaries"])
        * len(config["seeds"])
    )


def _same_float(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= ROW_TOL * max(1.0, abs(x), abs(y))


def rows_match(row, ref) -> bool:
    if row["steps"] != ref["steps"] or row["passed"] != ref["passed"]:
        return False
    return all(_same_float(row[c], ref[c]) for c in FLOAT_COLUMNS)


def verify_trace(path: Path) -> bool:
    from umtslab import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", str(path)]) == 0


def check_output(config, out_dir: Path, result: dict, reference=None) -> dict:
    """Gate one `umtslab run` output tree; returns failures, steps and verify time.

    A job fails if the run raised or was unusable, if its row reads
    ``fail``, if `umtslab verify` rejects its trace, or if a reference is
    given and its row is missing from it or differs beyond ROW_TOL.
    """
    jobs = expected_jobs(config)
    out = {"failed": jobs, "steps": 0, "verify_s": 0.0, "reasons": []}
    csv_path, summary_path = out_dir / "results.csv", out_dir / "summary.json"
    if result.get("error") or result.get("code") not in (0, 1) or not summary_path.is_file():
        out["reasons"].append(result.get("error") or f"run exited {result.get('code')}")
        return out
    rows = read_rows(csv_path)
    traces = {job_key(r): r["trace"] for r in json.loads(summary_path.read_text())["rows"]}
    failed = max(0, jobs - len(rows))
    if failed:
        out["reasons"].append(f"{failed} jobs wrote no row")
    start = time.perf_counter()
    for key, row in rows.items():
        reason = None
        if row["passed"] != "pass":
            reason = "row reads fail"
        elif not verify_trace(out_dir / traces[key]):
            reason = "trace fails verify"
        elif reference is not None and (key not in reference or not rows_match(row, reference[key])):
            reason = "row differs from the reference"
        if reason:
            failed += 1
            out["reasons"].append(f"{'/'.join(key)}: {reason}")
        out["steps"] += int(row["steps"])
    out["verify_s"] = time.perf_counter() - start
    out["failed"] = failed
    return out


def tree_digest(root: Path) -> dict[str, tuple[int, str]]:
    """Size and SHA-256 of every file under the output directory."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            out[str(path.relative_to(root))] = (len(data), hashlib.sha256(data).hexdigest())
    return out


def differing_jobs(config, first: dict, tree: dict) -> int:
    """Jobs whose files differ between two runs of one config."""
    if set(first) != set(tree):
        return expected_jobs(config)
    changed = [name for name in first if first[name] != tree[name]]
    if any(not name.startswith("traces") for name in changed):
        return expected_jobs(config)  # the shared tables differ, so blame every job
    return len(changed)


def write_reference(names=workloads.NAMES):
    """Rewrite reference/<workload>/<config>.csv from a seed-0 run of the current code.

    Only for a change that is meant to alter the rows:
    ``cd bench && python3 -c "import run; run.write_reference()"``.
    """
    for name in names:
        target = REFERENCE / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp, Prober() as probe:
            for cname, config in workloads.make_configs(name, DEFAULT_SEED):
                path, out = Path(tmp) / f"{cname}.json", Path(tmp) / cname
                path.write_text(json.dumps(config))
                result = probe("run", path, out)
                if result.get("code") != 0:
                    raise BenchError(f"{name}/{cname}: {result}")
                shutil.copy(out / "results.csv", target / f"{cname}.csv")


def load_reference(workload: str, name: str, seed: int):
    path = REFERENCE / workload / f"{name}.csv"
    if seed != DEFAULT_SEED:
        return None
    if not path.is_file():
        raise BenchError(f"missing reference {path.relative_to(ROOT)}")
    return read_rows(path)


# ---------------------------------------------------------------------------
# measurement


class Workload:
    """One workload's generated configs and the runs made of them."""

    def __init__(self, name: str, seed: int, work: Path, probe: Prober):
        self.name, self.seed, self.work, self.probe = name, seed, work, probe
        self.configs = workloads.make_configs(name, seed)
        self.config_paths = {}
        for cname, config in self.configs:
            path = work / f"{cname}.json"
            path.write_text(json.dumps(config, indent=1))
            self.config_paths[cname] = path
        self.pairs_path = work / "pairs.json"
        self.pairs_path.write_text(json.dumps(workloads.build_pairs(c for _, c in self.configs)))
        self.first_trees: dict[str, dict] = {}
        self.first_failed: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.steps = 0
        self.verify_s = 0.0
        self.output_bytes = 0
        self.omitted: set[str] = set()
        self.runs = 0
        self.calibrate_s: list[float] = []

    def setup(self) -> float:
        result = self.probe("setup", self.pairs_path)
        if "error" in result:
            raise BenchError(result["error"])
        self.omitted.update(result["omitted"])
        self.calibrate_s.append(result["calibrate_s"])
        return result["setup_s"]

    def run_once(self, mode: str = "run") -> dict:
        """Every config once, each in its own measurement process, then the gate."""
        index = self.runs
        self.runs += 1
        total = {"run_s": 0.0, "config_s": {}, "peak_rss_mb": 0.0, "results": []}
        for cname, config in self.configs:
            out_dir = self.work / f"{mode}{index}-{cname}"
            result = self.probe(mode, self.config_paths[cname], out_dir)
            if "run_s" not in result:
                raise BenchError(f"{cname}: {result['error']}")
            total["run_s"] += result["run_s"]
            total["config_s"][cname] = result["run_s"]
            total["peak_rss_mb"] = max(total["peak_rss_mb"], result.get("peak_rss_mb", 0.0))
            total["results"].append(result)
            if "calibrate_s" in result:
                self.calibrate_s.append(result["calibrate_s"])
            self._gate(cname, config, out_dir, result)
            shutil.rmtree(out_dir, ignore_errors=True)
        return total

    def _gate(self, cname, config, out_dir: Path, result: dict):
        jobs = expected_jobs(config)
        self.attempted += jobs
        if cname not in self.first_trees:
            reference = load_reference(self.name, cname, self.seed)
            gate = check_output(config, out_dir, result, reference)
            failed = gate["failed"]
            if self.omitted:
                failed = jobs
                gate["reasons"].append(f"potential omitted for {sorted(self.omitted)}")
            self.first_trees[cname] = tree_digest(out_dir) if out_dir.is_dir() else {}
            self.first_failed[cname] = failed
            self.reasons += gate["reasons"]
            self.steps += gate["steps"]
            self.verify_s += gate["verify_s"]
            self.output_bytes += sum(size for size, _ in self.first_trees[cname].values())
        elif result.get("error") or not out_dir.is_dir():
            failed = jobs
            self.reasons.append(f"{cname}: {result.get('error') or 'no output'}")
        else:
            changed = differing_jobs(config, self.first_trees[cname], tree_digest(out_dir))
            if changed:
                self.reasons.append(f"{cname}: {changed} jobs differ from the first run")
            failed = min(jobs, self.first_failed[cname] + changed)
        self.failed += failed


def fits(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= seconds


def measure(w: Workload, seconds: float) -> dict:
    """Run rounds until `seconds` have passed, at least MIN_RUNS; return each metric's samples.

    A round runs every config once. The set-up is measured before every
    other round, so that the runs get most of the time while both kinds of
    sample still spread over the same minutes, in which the machine's speed
    drifts.
    """
    setup, runs = [], []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or fits(start, len(runs), seconds):
        if len(runs) % 2 == 0:
            setup.append(w.setup())
        runs.append(w.run_once())
    return {
        "setup_s": setup,
        "run_s": [r["run_s"] for r in runs],
        "config_s": {c: [r["config_s"][c] for r in runs] for c, _ in w.configs},
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def measure_traced(w: Workload, seconds: float) -> dict:
    w.setup()  # only for the check that no potential is omitted
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or fits(start, len(traced), seconds):
        plain.append(w.run_once("run"))
        traced.append(w.run_once("trace"))
    return layer_metrics(w, plain, traced)


def _sum_spans(results) -> dict:
    spans: dict[str, dict] = {}
    estimates = {"states": 0, "sweeps": 0, "made": 0, "used": 0}
    for result in results:
        for name, span in result.get("spans", {}).items():
            acc = spans.setdefault(name, dict.fromkeys(span, 0))
            for key, value in span.items():
                acc[key] += value
        for key, value in result.get("estimates", {}).items():
            estimates[key] += value
    return {"spans": spans, "estimates": estimates}


def layer_metrics(w: Workload, plain, traced) -> dict:
    """Per-layer metrics: counts from the first traced run, times as medians."""
    runs = [_sum_spans(t["results"]) for t in traced]

    def span(name, key, run=0):
        return runs[run]["spans"].get(name, {}).get(key, 0)

    def median_time(name, key):
        return statistics.median(span(name, key, i) for i in range(len(runs)))

    est = runs[0]["estimates"]
    steps = max(w.steps, 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("potential.estimate_potential.calls", span("potential.estimate_potential", "calls"), "count")
    put("potential.estimate_potential.s", median_time("potential.estimate_potential", "s"), "s")
    put("potential.estimate_potential.states", est["states"], "count")
    put("potential.estimate_potential.sweeps", est["sweeps"], "count")
    put(
        "potential.estimate_potential.used_share",
        est["used"] / est["made"] if est["made"] else 1.0,
        "fraction",
    )
    for layer in (
        "potential.phi",
        "algorithms.zero_crossing",
        "algorithms.g_value",
        "combiner.step",
        "algorithms.probabilities",
        "transport.mcost_metric",
        "core.apply_elementary",
        "core.online_step_cost",
    ):
        put(f"{layer}.calls", span(layer, "calls"), "count")
        put(f"{layer}.self_s", median_time(layer, "self_s"), "s")
    put("algorithms.brentq.calls", span("algorithms.brentq", "calls"), "count")
    put("combiner.brentq.calls", span("combiner.brentq", "calls"), "count")
    put(
        "algorithms.probabilities.calls_per_step",
        span("algorithms.probabilities", "outer_calls") / steps,
        "calls/step",
    )
    for layer in ("harness.offline_opt", "cli.build_algorithm", "combiner.combine"):
        put(f"{layer}.calls", span(layer, "calls"), "count")
        put(f"{layer}.s", median_time(layer, "s"), "s")
    for layer in ("harness.generate_sequence", "harness.audit_run", "harness.empirical_ratio"):
        put(f"{layer}.s", median_time(layer, "s"), "s")
    put("transport.mcost_metric.lp_calls", span("transport.lp", "calls"), "count")
    put("cli.run.self_s", median_time("cli.run", "self_s"), "s")
    put("cli.output_bytes", w.output_bytes, "bytes")
    put("cli.verify.s", w.verify_s, "s")
    plain_s = statistics.median(p["run_s"] for p in plain)
    traced_s = statistics.median(t["run_s"] for t in traced)
    put("trace.overhead_share", traced_s / plain_s - 1.0, "fraction")
    return out


# ---------------------------------------------------------------------------
# reporting


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def summarize(samples: dict, steps: int, calibrate_s: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics from one workload's samples, and the wall-clock values.

    `run_s` sums each config's median over the rounds, so that a slow
    moment in one config's run does not carry the whole round. The times
    are rescaled from the host's speed during the run to its reference
    speed: each is multiplied by CALIBRATE_REF_S over the median time of the
    calibration work measured just before every set-up and run. The host's
    speed drifts by a quarter and more over minutes; the calibration follows
    that drift and nothing of the package.
    """
    wall_run_s = sum(statistics.median(v) for v in samples["config_s"].values())
    wall_setup_s = statistics.median(samples["setup_s"])
    calibration = statistics.median(calibrate_s)
    scale = CALIBRATE_REF_S / calibration
    values = {
        "setup_s": wall_setup_s * scale,
        "run_s": wall_run_s * scale,
        "steps_per_s": steps / (wall_run_s * scale),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    wall = {
        "setup_s": wall_setup_s,
        "run_s": wall_run_s,
        "steps_per_s": steps / wall_run_s,
        "calibrate_s": calibration,
        "calibrations": len(calibrate_s),
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return metrics, wall


def print_table(workload: str, metrics: dict, samples: dict | None, wall: dict | None, w: Workload):
    print(f"== {workload} (seed {w.seed}, {w.runs} runs of {len(w.configs)} configs)")
    for name, m in metrics.items():
        extra = ""
        if samples and name in samples:
            vals = samples[name]
            kind = "sum of config medians" if name == "run_s" else "median"
            extra = f"  {kind}; {len(vals)} samples, min {min(vals):.6g}, max {max(vals):.6g}"
        if wall and name in wall:
            extra += f"; wall clock {wall[name]:.6g}"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")
    if wall:
        factor = CALIBRATE_REF_S / wall["calibrate_s"]
        print(f"  {'calibration':<44} {wall['calibrate_s']:>14.6g} s  median of "
              f"{wall['calibrations']}; times above scaled by {factor:.4f}")
    share = w.failed / w.attempted if w.attempted else 1.0
    print(f"  {'failed_share':<44} {share:>14.6g} jobs ({w.failed} of {w.attempted})")
    for reason in w.reasons[:20]:
        print(f"  failure: {reason}")


def run_workload(name: str, seed: int, seconds: float, trace: int, work_root: Path):
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    with Prober() as probe:
        w = Workload(name, seed, work, probe)
        if trace:
            metrics, samples, wall = measure_traced(w, seconds), None, None
        else:
            samples = measure(w, seconds)
            metrics, wall = summarize(samples, w.steps, w.calibrate_s)
    print_table(name, metrics, samples, wall, w)
    return w, metrics, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "umtslab" / "cli.py").is_file():
        print(f"error: no umtslab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("UMTSLAB_SEED", None)
    sys.path.insert(0, str(SRC))
    # a terminated run still stops its measurement server and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, work_root) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{w.name}.{k}": v for w, m, _ in results for k, v in m.items()}
    attempted = sum(w.attempted for w, _, _ in results)
    failed = sum(w.failed for w, _, _ in results)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    if not args.trace:
        env["wall_clock"] = {w.name: wall for w, _, wall in results}
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
