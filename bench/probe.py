"""Measurements in processes that have only imported the package.

`run.py` starts this script with `src` on PYTHONPATH. It imports the
package and then reads one JSON request per line from standard input:

    ["setup", PAIRS.json]          build each (space, algorithm) pair once
    ["run", CONFIG.json, OUT_DIR]  one `umtslab run --deterministic`
    ["trace", CONFIG.json, OUT_DIR]  the same run with the layers traced
    ["calibrate"]                  time the calibration work once

A set-up or a run is preceded by the calibration work (`calibrate`), in
a fork of its own, and its reply carries that time as ``calibrate_s``.

For each request it forks a child that takes the measurement and answers
with one JSON line. Every measurement therefore starts from the state of
an interpreter that has just imported the package, so no cache warmed by
one measurement can serve the next, and the interpreter start-up (about
0.8 s, mostly scipy) is paid once per benchmark run instead of once per
measurement.

The traced mode installs wrappers at the public entry points of each
module before anything is built: bound methods and closures are captured
at build time, and names imported with ``from ... import`` are patched in
every module that holds them. Each wrapper records calls, inclusive time
(outermost spans only, so recursion is not counted twice) and self time
(the span minus its direct child spans). Spans are aggregated by name in
memory rather than stored one by one, because the line and caching runs
make millions of calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import resource
import sys
import time
import types

import numpy as np

from umtslab import algorithms, cli, combiner, core, harness, potential, transport

# (layer name, module holding the original, attribute)
FUNCTIONS = (
    ("cli.run", cli, "cmd_run"),
    ("cli.build_algorithm", cli, "build_algorithm"),
    ("harness.generate_sequence", harness, "generate_sequence"),
    ("harness.audit_run", harness, "audit_run"),
    ("harness.empirical_ratio", harness, "empirical_ratio"),
    ("harness.offline_opt", harness, "offline_opt"),
    ("potential.estimate_potential", potential, "estimate_potential"),
    ("algorithms.brentq", algorithms, "brentq"),
    ("combiner.brentq", combiner, "brentq"),
    ("combiner.combine", combiner, "combine"),
    ("transport.mcost_metric", transport, "mcost_metric"),
    ("transport.lp", transport, "_lp_cost"),
    ("core.apply_elementary", core, "apply_elementary"),
    ("core.online_step_cost", core, "online_step_cost"),
)
METHODS = (
    ("potential.phi", potential.PotentialEstimate, "phi"),
    ("algorithms.g_value", algorithms.OnlineAlgorithm, "g_value"),
    ("combiner.step", combiner.CombinedRun, "step"),
)
# callables an OnlineAlgorithm carries as fields, set at build time
FIELDS = {
    "probabilities": "algorithms.probabilities",
    "zero_crossing": "algorithms.zero_crossing",
}


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter and numpy work.

    The mix is integer arithmetic, small-array numpy, and allocating and
    sorting many small objects. It uses nothing of the package, so its time
    follows only the speed the host gives the process at that moment.
    `run.py` rescales the measured times by it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    values = np.arange(4096.0)
    for _ in range(300):
        values = np.sqrt(values * values + 1.0)
    items = [(i * 7919 % 1009, str(i)) for i in range(20_000)]
    items.sort()
    pairs = [_Pair(i, i + 1) for i in range(20_000)]
    total += sum(p.x * p.y for p in pairs)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB.

    VmHWM is the high-water mark of this process's own address space;
    ru_maxrss is the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Aggregated spans keyed by layer name."""

    def __init__(self):
        # name -> [calls, outermost calls, inclusive s, self s, spans open]
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []
        self.states = 0
        self.sweeps = 0
        self.estimates_used = 0
        self.estimates_made = 0
        self._new_estimates: list = []

    def wrap(self, name, fn, after=None):
        if getattr(fn, "_bench_layer", None) is not None:
            return fn
        # shared by every wrapper of this name, as each algorithm wraps its own closure
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats[4] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[4] -= 1
                stack.pop()
                stats[0] += 1
                stats[3] += elapsed - frame[0]
                if not stats[4]:
                    stats[1] += 1
                    stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        wrapper._bench_layer = name
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("umtslab")]
        hooks = {
            "potential.estimate_potential": self._on_estimate,
            "cli.build_algorithm": self._on_build,
        }
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, hooks.get(name))
            # a function defined here is patched wherever it was imported;
            # a foreign one (scipy's brentq) only in the module named
            owners = modules if original.__module__ == module.__name__ else [module]
            for m in owners:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
        for name, cls, attr in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        tracer = self

        def setattr_traced(obj, key, value):
            if key in FIELDS and callable(value):
                value = tracer.wrap(FIELDS[key], value)
            object.__setattr__(obj, key, value)

        algorithms.OnlineAlgorithm.__setattr__ = setattr_traced

    def _on_estimate(self, est):
        self.states += int(est.states.shape[0])
        self.sweeps += int(est.sweeps)
        self._new_estimates.append(est)

    def _on_build(self, alg):
        made, self._new_estimates = self._new_estimates, []
        live = referenced_estimates(alg)
        self.estimates_made += len(made)
        self.estimates_used += sum(1 for est in made if id(est) in live)

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "outer_calls": oc, "s": s, "self_s": ss}
                for name, (c, oc, s, ss, _) in self.stats.items()
            },
            "estimates": {
                "states": self.states,
                "sweeps": self.sweeps,
                "made": self.estimates_made,
                "used": self.estimates_used,
            },
        }


_LEAVES = (str, bytes, int, float, bool, type(None), type, types.ModuleType, Tracer)


def referenced_estimates(root) -> set[int]:
    """Ids of the PotentialEstimates the algorithm can evaluate.

    Walks fields, containers, closures and bound methods, but not the
    ``rebuild`` factories: those make the family on another system and are
    not part of this algorithm's evaluation.
    """
    found, seen, todo = set(), set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, _LEAVES):
            continue
        seen.add(id(obj))
        if isinstance(obj, potential.PotentialEstimate):
            found.add(id(obj))
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, types.MethodType):
            todo.extend((obj.__self__, obj.__func__))
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:
                    pass
        elif hasattr(obj, "__dict__"):
            todo.extend(v for k, v in vars(obj).items() if k != "rebuild")
    return found


def run_cli(config: str, out: str) -> dict:
    result = {"code": None, "error": None}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            result["code"] = cli.main(["run", config, "--deterministic", "--out", out])
        except Exception as exc:  # a crash is a measured failure, not a benchmark error
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["run_s"] = time.perf_counter() - start
    return result


def setup(pairs_path: str) -> dict:
    with open(pairs_path) as fh:
        pairs = json.load(fh)
    omitted = []
    start = time.perf_counter()
    for space, algorithm in pairs:
        alg = cli.build_algorithm(space, algorithm)
        if not math.isfinite(alg.phi_slack):
            omitted.append(f"{space.get('name')}/{algorithm}")
    return {"setup_s": time.perf_counter() - start, "omitted": omitted}


def measure(args: list[str]) -> dict:
    mode = args[0]
    if mode == "calibrate":
        return {"calibrate_s": calibrate()}
    if mode == "setup":
        out = setup(args[1])
    elif mode == "run":
        out = run_cli(args[1], args[2])
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
        out = run_cli(args[1], args[2])
        out.update(tracer.report())
    else:
        raise ValueError(f"unknown measurement {mode!r}")
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def in_child(request: list[str]) -> dict:
    """Take one measurement in a fork of this process and return its result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = measure(request)
            except Exception as exc:  # reported as a failed measurement
                result = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(result, fh)
            code = 0
        finally:
            os._exit(code)  # never return into the request loop
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        return {"error": f"measurement process ended with status {status}"}
    return json.loads(payload)


def serve(requests, replies) -> None:
    """Answer each request line with one measurement taken in a fork of this process.

    A set-up or a run is preceded by the calibration work in a fork of its
    own, so that the calibration leaves nothing in the measured process.
    """
    for line in requests:
        request = json.loads(line)
        calibration = in_child(["calibrate"]) if request[0] in ("setup", "run") else {}
        result = in_child(request)
        if "calibrate_s" in calibration:
            result["calibrate_s"] = calibration["calibrate_s"]
        replies.write(json.dumps(result) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
