"""What a run imports: no scipy, and nothing the package import did not load.

A module a run imports for itself is imported again in every process
forked from an interpreter that has only imported the package, and a run
that needs no LP should not pay for scipy's start-up.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import umtslab

PROBE = """
import contextlib, io, json, sys
import umtslab
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from umtslab import cli
loaded = set(sys.modules)
codes = []
for i, config in enumerate(sys.argv[2:]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["run", config, "--deterministic", "--out", f"{sys.argv[1]}/{i}"]))
print(json.dumps({"scipy": at_import, "codes": codes,
                  "new": sorted(set(sys.modules) - loaded)}))
"""


def test_a_run_imports_no_scipy_and_nothing_new(tmp_path):
    configs = sorted(str(p) for p in resources.files("umtslab").joinpath("configs").iterdir()
                     if p.name.endswith(".json"))
    assert len(configs) == 2
    src = str(Path(umtslab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), *configs],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    assert report["scipy"] == []
    new = report["new"]
    ours = [m for m in new if m.split(".")[0] in ("umtslab", "scipy")]
    assert not ours, f"a run imported package or scipy modules itself: {ours}"
    # anything else is numpy or the standard library loading a submodule
    # lazily, which can change with their versions
    assert not new, f"a run imported numpy or stdlib modules the package import did not: {new}"
