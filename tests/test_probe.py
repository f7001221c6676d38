"""The benchmark's probe against this package: a traced run of a tiny
caching config and of a tiny odd-exponent config must each finish and count
calls in the layers it wraps.

``bench/probe.py`` looks up some of the package's names at import and when
it installs its wrappers (``combiner.CombinedRun.step``,
``algorithms.OnlineAlgorithm.g_value``, ``harness.offline_opt``, ``cli``'s
entry points). A rename there would fail every benchmark measurement, and a
call that moves to a name the probe does not wrap leaves its layer at zero
calls; this test finds both first. It only reads ``bench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import umtslab

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "schema": "umtslab-run-v1",
    "seeds": [3],
    "spaces": [{"name": "k3", "kind": "caching", "fetch_costs": [1.0, 1.5, 0.7, 1.2], "s": 1.0}],
    "algorithms": ["caching"],
    "adversaries": [{"kind": "uniform-random", "steps": 8, "max_fraction": 0.999}],
}
TINY_ODD = {
    "schema": "umtslab-run-v1",
    "seeds": [3],
    "spaces": [{"name": "u4", "kind": "uniform", "points": 4}],
    "algorithms": ["odd-exponent"],
    "adversaries": [{"kind": "uniform-random", "steps": 8}],
}
TRACE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("probe", sys.argv[1])
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
print(json.dumps(probe.measure(["trace", sys.argv[2], sys.argv[3]])))
"""


def traced(tmp_path, spec) -> dict:
    """The probe's report of a traced ``umtslab run`` of the config ``spec``."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(spec))
    src = str(Path(umtslab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", TRACE, str(ROOT / "bench" / "probe.py"), str(config),
         str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["error"] is None
    assert result["code"] == 0
    return result


def test_probe_traces_a_run_of_the_package(tmp_path):
    result = traced(tmp_path, TINY)
    for layer in ("combiner.step", "potential.phi", "harness.offline_opt"):
        assert result["spans"][layer]["calls"] > 0, layer


def test_probe_traces_an_atomic_run_of_the_package(tmp_path):
    """The atomic step loop, its crossings and the run's optimum each reach
    a wrapped name."""
    result = traced(tmp_path, TINY_ODD)
    for layer in ("core.apply_elementary", "algorithms.zero_crossing", "harness.offline_opt"):
        assert result["spans"][layer]["calls"] > 0, layer
