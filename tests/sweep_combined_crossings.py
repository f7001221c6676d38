"""Combined zero crossings against the unpruned reference on many random triples.

    PYTHONPATH=src python3 tests/sweep_combined_crossings.py --runs 40 --seed 0

For caching, line, combined and wcombined rules (caching with drawn fetch
costs), it plays runs of every adversary kind and takes the work function
after each step, shifted by a drawn one with negative entries in every
other run. At each such work function it walks the rule and, recursively,
each block and quotient rule it combines (through rho-variants too). At
every block state with a finite block crossing it compares
``combiner._crossing_at`` with ``oracles.reference_crossing_at`` bit for
bit: at the quotient crossing the rule asks for, and at quotient crossings
a few ulps and 1e-12 to 1e-6 on either side of the one that puts the bound
at zero. At every one-state block, whose memo is a point memo, it compares
them at the rule's quotient crossing and a few ulps and 1e-12 to 1e-6 on
either side of it, the reference reading the block's G values through a
potential memo of its trivial rule. It prints, per rule, the triples at
the rule's own quotient crossing, how many of them the bound decided
without the block potential and how many the potential decided after the
bound did not, the edge and point-block comparisons and the differences;
it exits 1 on any difference. The
default run takes about a minute, so this is a one-off check and not part
of the test suite.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from oracles import combined_parts, edge_quotient_crossings, reference_crossing_at
from umtslab.combiner import PointMemo, PotentialMemo, _crossing_at
from umtslab.core import Umts
from umtslab.harness import ADVERSARY_KINDS, AdversaryConfig, adversary, simulate
from umtslab.hst import line_algorithm, weighted_caching_algorithm
from umtslab.metricspace import make_uniform
from umtslab.portfolio import combined_algorithm, w_combined_algorithm


def rules(rng: np.random.Generator) -> dict:
    def uniform(rates):
        return Umts(make_uniform(len(rates), 1.0), np.asarray(rates, dtype=float), 1.0)

    anchored = np.full(6, rng.uniform(0.4, 2.0))
    anchored[0] = rng.uniform(0.4, 6.0)
    return {
        "caching-k3": weighted_caching_algorithm(rng.uniform(0.5, 2.0, 4)),
        "caching-k5": weighted_caching_algorithm(rng.uniform(0.5, 2.0, 6)),
        "line-8": line_algorithm(8),
        "combined-n4": combined_algorithm(uniform(rng.uniform(0.3, 4.0, 4))),
        "wcombined-n6": w_combined_algorithm(uniform(anchored)),
    }


def compare(alg, w: np.ndarray, tally: dict) -> None:
    """Compare the two crossings at every block state of ``alg`` at ``w``,
    then recurse into the combined block and quotient rules, those under a
    rho-variant included."""
    parts = combined_parts(alg)
    if parts is None:
        return
    ws, what = parts.split(w), parts.hat_work(w)
    for j, (memo, wb) in enumerate(zip(parts.memos, ws)):
        g0 = float(what[j])
        xq_rule = float(parts.quotient_memo.zero_crossing(what, j))

        def check(lv, xb, xq, ref=memo):
            got = _crossing_at(memo, wb, lv, g0, xb, xq)
            want = reference_crossing_at(ref, wb, lv, g0, xb, xq)
            if np.float64(got).tobytes() != np.float64(want).tobytes():
                tally["differences"] += 1
                print(f"  {alg.name} block {j} state {lv}: xb={xb!r} xq={xq!r} "
                      f"pruned={got!r} reference={want!r}")

        if isinstance(memo, PointMemo):
            # the G rise of a point block is its charge: the reference reads
            # it through a potential memo of the trivial rule
            xqs = [xq_rule] + (edge_quotient_crossings(xq_rule) if math.isfinite(xq_rule) else [])
            tally["points"] += len(xqs)
            for xq in xqs:
                check(0, math.inf, xq, PotentialMemo(memo.alg))
            continue
        for lv in range(len(wb)):
            xb = float(memo.zero_crossing(wb, lv))
            if not math.isfinite(xb):
                continue
            wb2 = wb.copy()
            wb2[lv] += xb
            bound = memo.alg.g_from(wb2, 0.0) - g0
            tally["triples"] += 1
            if bound - xq_rule <= 0.0:
                tally["bound"] += 1
            elif memo(wb2)[1] - g0 - xq_rule <= 0.0:
                tally["potential"] += 1
            edges = edge_quotient_crossings(bound)
            tally["edges"] += len(edges)
            for xq in [xq_rule] + edges:
                check(lv, xb, xq)
    for block, wb in zip(parts.block_algs, ws):
        compare(block, wb, tally)
    compare(parts.quotient_alg, what, tally)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=40, help="runs per rule")
    parser.add_argument("--steps", type=int, default=20, help="steps per run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    differences = 0
    for name, alg in rules(rng).items():
        tally = dict.fromkeys(("triples", "bound", "potential", "edges", "points",
                               "differences"), 0)
        for run in range(args.runs):
            kind = ADVERSARY_KINDS[run % len(ADVERSARY_KINDS)]
            config = AdversaryConfig(kind=kind, steps=args.steps, seed=int(rng.integers(2**31)))
            for _, _, _, w, _ in simulate(alg, adversary(config)):
                w = np.asarray(w)  # a list up to FLOAT_STATES states
                if run % 2:
                    w = w + rng.uniform(-0.25, 0.25, len(w)) * alg.umts.diameter()
                compare(alg, w, tally)
        differences += tally["differences"]
        print(f"{name}: triples={tally['triples']} decided by the bound={tally['bound']} "
              f"by the potential={tally['potential']} edge comparisons={tally['edges']} "
              f"point-block comparisons={tally['points']} differences={tally['differences']}",
              flush=True)
    print(f"all: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
