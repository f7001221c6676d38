"""The benchmark's workloads: `umtslab run` configs generated from a seed.

Every workload is a short list of `umtslab-run-v1` configs. One config is
one `umtslab run` invocation; a workload needs several when its spaces
take different algorithms (the CLI runs every algorithm on every space of
a config). The shapes are fixed and the seed only draws the numbers inside
them (job seeds, fetch costs, cost ratios), so every seed does the same
amount of work in the same layers. NOTES.md says why each shape is here.
"""

from __future__ import annotations

import numpy as np

SCHEMA = "umtslab-run-v1"
KINDS = ("uniform-random", "greedy-pressure", "support-raiser")


def _adversaries(steps: int, kinds=KINDS) -> list[dict]:
    return [{"kind": k, "steps": steps, "max_fraction": 0.999} for k in kinds]


def _config(name, seed, spaces, algorithm, adversaries) -> tuple[str, dict]:
    return name, {
        "schema": SCHEMA,
        "seeds": [seed],
        "spaces": spaces,
        "algorithms": [algorithm],
        "adversaries": adversaries,
    }


def _uniform(name: str, points: int, rates=None) -> dict:
    space = {"name": name, "kind": "uniform", "points": points, "distance": 1.0, "s": 1.0}
    if rates is None:
        space["rate"] = 1.0
    else:
        space["rates"] = [float(r) for r in rates]
    return space


def uniform_odd(rng) -> list[tuple[str, dict]]:
    # b = 2 runs the band potential, b = 4 and 8 the gridded one. At b = 8
    # every audited step makes two gridded phi calls of about 4 ms each, so
    # that run is the short one.
    return [
        _config("odd-b2", int(rng.integers(2**31)), [_uniform("u2", 2)], "odd-exponent",
                _adversaries(1000)),
        _config("odd-b4", int(rng.integers(2**31)), [_uniform("u4", 4)], "odd-exponent",
                _adversaries(1000, KINDS[1:2])),
        _config("odd-b8", int(rng.integers(2**31)), [_uniform("u8", 8)], "odd-exponent",
                _adversaries(80, KINDS[:1])),
    ]


def caching(rng) -> list[tuple[str, dict]]:
    def space(k: int, drawn: bool) -> dict:
        costs = rng.uniform(0.5, 2.0, k + 1) if drawn else np.ones(k + 1)
        return {
            "name": f"k{k}-{'drawn' if drawn else 'equal'}",
            "kind": "caching",
            "fetch_costs": [float(c) for c in costs],
            "s": 1.0,
        }

    # A K = 7 build takes about a second and a step about 50 ms, so K = 7
    # gets one cost vector and one adversary kind, as acceptance criterion 7
    # cycles its cost vectors through the kinds.
    return [
        _config("caching-k3", int(rng.integers(2**31)), [space(3, False), space(3, True)],
                "caching", _adversaries(40)),
        _config("caching-k7", int(rng.integers(2**31)), [space(7, True)], "caching",
                _adversaries(30, KINDS[1:2])),
    ]


def composite(rng) -> list[tuple[str, dict]]:
    # Unequal rates keep the bucket-merge quotient off the symmetric grid:
    # n = 5 gives a 4-point quotient of 17,985 grid states, estimated twice
    # by rho_variant. wcombined needs an equal-rate tail.
    anchored = np.full(8, float(rng.uniform(0.4, 2.0)))
    anchored[0] = float(rng.uniform(0.4, 6.0))
    line = [
        {"name": f"line{n}", "kind": "line", "points": n, "gap": 1.0, "s": 1.0} for n in (8, 16)
    ]
    return [
        _config("combined-n5", int(rng.integers(2**31)),
                [_uniform("c5", 5, rng.uniform(0.3, 4.0, 5))], "combined",
                _adversaries(20, KINDS[:1])),
        _config("wcombined-n8", int(rng.integers(2**31)), [_uniform("w8", 8, anchored)],
                "wcombined", _adversaries(15, KINDS[1:2])),
        _config("line", int(rng.integers(2**31)), line, "line", _adversaries(10)),
    ]


BUILDERS = {"uniform-odd": uniform_odd, "caching": caching, "composite": composite}
NAMES = tuple(BUILDERS)


def make_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (name, config) pairs for one seed.

    The same seed gives the same configs."""
    return BUILDERS[workload](np.random.default_rng([seed, NAMES.index(workload)]))


def build_pairs(configs) -> list[tuple[dict, str]]:
    """Each distinct (space, algorithm) pair of the configs, in order."""
    seen, out = set(), []
    for config in configs:
        for space in config["spaces"]:
            for algorithm in config["algorithms"]:
                key = (repr(sorted(space.items())), algorithm)
                if key not in seen:
                    seen.add(key)
                    out.append((space, algorithm))
    return out
