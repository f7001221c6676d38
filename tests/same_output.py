"""`umtslab run --deterministic` and the demos under another package tree and this one.

    PYTHONPATH=src python3 tests/same_output.py PARENT_SRC

PARENT_SRC is the ``src/`` directory of the tree to compare against, for
instance a ``git archive`` of the parent commit. The script runs the
``bench/workloads.py`` configs of every workload at seeds 0 and 7, both
bundled configs and the four demos of this tree, once with the package from
PARENT_SRC and once with this tree's ``src/``, each side in a temporary
directory of its own. It compares the exit codes, the standard output and
error, and every file of the output trees byte for byte. It also runs
this tree's ``umtslab verify`` on every trace either side writes. It
prints each difference and each rejected trace and exits 1 on any. A run
takes a few minutes, so this is a one-off check and not part of the test
suite.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)


def load_workloads():
    """``bench/workloads.py`` as a module, imported from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs() -> list[tuple[str, dict]]:
    """(name, config) of every workload config at each seed, then the bundled ones."""
    workloads = load_workloads()
    out = []
    for workload in workloads.NAMES:
        for seed in SEEDS:
            for name, config in workloads.make_configs(workload, seed):
                out.append((f"{workload}-{name}-seed{seed}", config))
    for path in sorted((ROOT / "src" / "umtslab" / "configs").glob("*.json")):
        out.append((f"bundled-{path.stem}", json.loads(path.read_text())))
    return out


def commands(cases) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, relative to a side's working directory."""
    out = [(name, ["-m", "umtslab", "run", f"cfg/{name}.json", "--deterministic",
                   "--out", f"out/{name}"]) for name, _ in cases]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo-{demo.stem}", [str(demo)]))
    return out


def outcome(src: Path, work: Path, name: str, argv: list[str]) -> dict[str, bytes]:
    """Exit code, standard output and error, and each output file of one run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, *argv], cwd=work, env=env, capture_output=True)
    out = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
           "stderr": done.stderr}
    tree = work / "out" / name
    if tree.is_dir():
        out.update({str(f.relative_to(tree)): f.read_bytes() for f in tree.rglob("*")
                    if f.is_file()})
    return out


def rejected_traces(umtslab, tree: Path) -> list[str]:
    """Each trace under ``tree`` that ``umtslab(["verify", trace])`` rejects,
    with its exit code and message."""
    out = []
    for trace in sorted(tree.rglob("*.jsonl")):
        shown = io.StringIO()
        with contextlib.redirect_stdout(shown), contextlib.redirect_stderr(shown):
            code = umtslab(["verify", str(trace)])
        if code != 0:
            out.append(f"{trace.relative_to(tree)}: exit {code}: {shown.getvalue().strip()}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="src/ directory of the tree to compare against")
    args = parser.parse_args(argv)
    sides = {"parent": Path(args.parent_src).resolve(), "this": ROOT / "src"}
    if not (sides["parent"] / "umtslab").is_dir():
        parser.error(f"no umtslab package under {sides['parent']}")
    sys.path.insert(0, str(sides["this"]))
    from umtslab.cli import main as umtslab

    cases = configs()
    runs = commands(cases)
    differences = rejected = 0
    with tempfile.TemporaryDirectory() as tmp:
        works = {side: Path(tmp) / side for side in sides}
        for work in works.values():
            (work / "cfg").mkdir(parents=True)
            for name, config in cases:
                (work / "cfg" / f"{name}.json").write_text(json.dumps(config))
        for name, argv in runs:
            got = {side: outcome(src, works[side], name, argv) for side, src in sides.items()}
            parent, this = got["parent"], got["this"]
            found = sorted(k for k in parent.keys() | this.keys() if parent.get(k) != this.get(k))
            print(f"{name}: {f'{len(found)} differences' if found else 'same'}", flush=True)
            for key in found:
                print(f"  {name}: {key} differs")
            differences += len(found)
            for side, work in works.items():
                for line in rejected_traces(umtslab, work / "out" / name):
                    print(f"  {name}: {side} {line}")
                    rejected += 1
    print(f"{len(runs)} runs compared, {differences} differences, "
          f"{rejected} traces rejected by verify")
    return 1 if differences or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
