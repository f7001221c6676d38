"""`umtslab run --deterministic` and the demos under another package tree and this one.

    PYTHONPATH=src python3 tests/same_output.py PARENT_SRC

PARENT_SRC is the ``src/`` directory of the tree to compare against, for
instance a ``git archive`` of the parent commit. The script runs the
``bench/workloads.py`` configs of every workload at seeds 0 and 7, its
own configs (:func:`own_configs`) and both bundled configs, once with the
package from PARENT_SRC and once with this tree's ``src/``, each side in a
temporary directory of its own. Each side also runs the demos of its own
tree (``demos/`` next to its ``src/``), which call the package's API of
that tree. It compares the exit codes, the standard output and
error, and every file of the output trees byte for byte. It also runs
each tree's own ``umtslab verify`` on every trace either side writes and
compares their exit codes, standard output and error; a trace that either
rejects counts as rejected. It prints each difference and each rejected
trace and exits 1 on any. A run takes a few minutes, so this is a one-off
check and not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def own_configs() -> list[tuple[str, dict]]:
    """(name, config) of the runs the workloads leave out: odd-exponent at
    every b from 2 to 8 under all three adversary kinds, 300 steps each, so
    that both sides of the 4-state float cutoff run; a caching and a
    wcombined rule under greedy-pressure, whose combined crossings the
    greedy pick asks for; the line on 8 points and the combined rule on
    5 points with unequal rates under all three kinds, 300 steps each, whose
    one-state blocks run for as long as a test's runs; and a caching rule
    whose tree has an internal child, combined ahead of the leaves, under
    all three kinds."""
    kinds = ("uniform-random", "greedy-pressure", "support-raiser")

    def config(spaces, algorithm, adversaries):
        return {"schema": "umtslab-run-v1", "seeds": [0], "spaces": spaces,
                "algorithms": [algorithm], "adversaries": adversaries}

    out = []
    for b in range(2, 9):
        space = {"name": f"u{b}", "kind": "uniform", "points": b, "distance": 1.0,
                 "rate": 1.0, "s": 1.0}
        out.append((f"own-odd-b{b}", config([space], "odd-exponent",
                                            [{"kind": k, "steps": 300} for k in kinds])))
    greedy = [{"kind": "greedy-pressure", "steps": 150}]
    caching = {"name": "k3", "kind": "caching", "fetch_costs": [1.0, 0.6, 1.7, 1.2], "s": 1.0}
    out.append(("own-caching-k3", config([caching], "caching", greedy)))
    anchored = {"name": "w6", "kind": "uniform", "points": 6,
                "rates": [3.0, 1.0, 1.0, 1.0, 1.0, 1.0], "s": 1.0}
    out.append(("own-wcombined-n6", config([anchored], "wcombined", greedy)))
    long_runs = [{"kind": k, "steps": 300} for k in kinds]
    line = {"name": "line8", "kind": "line", "points": 8, "gap": 1.0, "s": 1.0}
    out.append(("own-line-n8", config([line], "line", long_runs)))
    unequal = {"name": "c5", "kind": "uniform", "points": 5, "rates": [2.0, 1.0, 0.5, 3.0, 1.5],
               "s": 1.0}
    out.append(("own-combined-n5", config([unequal], "combined", long_runs)))
    nested = {"name": "k3-nested", "kind": "caching", "fetch_costs": [8.0, 1.0, 1.0, 0.9],
              "s": 1.0}
    out.append(("own-caching-nested", config([nested], "caching", long_runs)))
    return out


def configs() -> list[tuple[str, dict]]:
    """(name, config) of every workload config at each seed, then this
    script's own configs and the bundled ones."""
    workloads = load_workloads()
    out = []
    for workload in workloads.NAMES:
        for seed in SEEDS:
            for name, config in workloads.make_configs(workload, seed):
                out.append((f"{workload}-{name}-seed{seed}", config))
    out += own_configs()
    for path in sorted((ROOT / "src" / "umtslab" / "configs").glob("*.json")):
        out.append((f"bundled-{path.stem}", json.loads(path.read_text())))
    return out


def commands(cases, root: Path) -> dict[str, list[str]]:
    """The argv of every run by name, relative to a side's working
    directory; the demos are those of the tree at ``root``."""
    out = {name: ["-m", "umtslab", "run", f"cfg/{name}.json", "--deterministic",
                  "--out", f"out/{name}"] for name, _ in cases}
    for demo in sorted((root / "demos").glob("*.py")):
        out[f"demo-{demo.stem}"] = [str(demo)]
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


def verified(src: Path, trace: Path) -> tuple:
    """Exit code, standard output and error of the ``umtslab verify`` of the
    package under ``src`` on ``trace``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "umtslab", "verify", str(trace)], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="src/ directory of the tree to compare against")
    args = parser.parse_args(argv)
    sides = {"parent": Path(args.parent_src).resolve(), "this": ROOT / "src"}
    if not (sides["parent"] / "umtslab").is_dir():
        parser.error(f"no umtslab package under {sides['parent']}")
    cases = configs()
    runs = {side: commands(cases, src.parent) for side, src in sides.items()}
    names = list(dict.fromkeys([*runs["this"], *runs["parent"]]))
    differences = rejected = traced = 0
    with tempfile.TemporaryDirectory() as tmp:
        works = {side: Path(tmp) / side for side in sides}
        for work in works.values():
            (work / "cfg").mkdir(parents=True)
            for name, config in cases:
                (work / "cfg" / f"{name}.json").write_text(json.dumps(config))
        for name in names:
            got = {side: outcome(src, works[side], name, runs[side][name])
                   if name in runs[side] else {"run": b"missing"}
                   for side, src in sides.items()}
            parent, this = got["parent"], got["this"]
            found = sorted(k for k in parent.keys() | this.keys() if parent.get(k) != this.get(k))
            print(f"{name}: {f'{len(found)} differences' if found else 'same'}", flush=True)
            for key in found:
                print(f"  {name}: {key} differs")
            differences += len(found)
            for trace in sorted(t for work in works.values()
                                for t in (work / "out" / name).rglob("*.jsonl")):
                parent, this = (verified(src, trace) for src in sides.values())
                traced += 1
                shown = trace.relative_to(tmp)
                if parent != this:
                    print(f"  {name}: verify of {shown} differs: parent {parent}, this {this}")
                    differences += 1
                if parent[0] != 0 or this[0] != 0:
                    print(f"  {name}: {shown} rejected: parent {parent}, this {this}")
                    rejected += 1
    print(f"{len(names)} runs compared, {traced} traces verified by both trees, "
          f"{differences} differences, {rejected} traces rejected by verify")
    return 1 if differences or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
