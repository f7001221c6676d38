"""
Equally spaced points on a line
===============================

The line is the first metric here that is neither uniform nor a star. A
deterministic dyadic embedding turns n equally spaced points into a
4-separated binary tree whose metric dominates the line, and the recursion
then halves the tree at every level, paying 4 s per level. This script
measures the embedding distortion and tracks the declared ratio against
the 8 s ln n ceiling, finishing with audited adversary runs on the tree
system.
"""

import math
import numpy as np

from umtslab.metricspace import make_line
from umtslab.hst import line_to_binary4_hst, hst_metric, line_algorithm
from umtslab.harness import AdversaryConfig, adversary, audit, play, ratio_report

# 1. The embedding. Tree distances never undercut line distances. The worst
# stretch lands on the adjacent pair astride the root split, which the tree
# holds at its full diameter, so the stretch grows with n and is reported
# rather than bounded.
print(" n   worst stretch   declared   1 + 4 log2 n   8 ln n")
for n in (2, 4, 8, 16):
    line = make_line(n, 1.0)
    tree = hst_metric(line_to_binary4_hst(n, 1.0))
    stretch = (tree.dist / np.where(line.dist > 0, line.dist, 1.0)).max()
    alg = line_algorithm(n)
    closed = 1.0 + 4.0 * math.log2(n)
    ceiling = 8.0 * math.log(n)
    print(f"{n:2d}   {stretch:13.3f}   {alg.declared_ratio:8.4f}   {closed:12.4f}   {ceiling:6.4f}")

# The declared value is the exact recursive chain on unit rates, which lands
# on 1 + 4 log2 n and sits below 8 ln n from n = 2 on.

# 2. One run per adversary kind on eight points, played once. The audit of
# that run checks the same five structural identities at every level of the
# recursion, and its ratio compares against the exact offline optimum. The net ratio is
# cost minus the additive allowance over opt, so it sits below zero while
# the allowance still covers the whole run.
alg = line_algorithm(8)
print(f"\neight points, declared {alg.declared_ratio:.4f}")
for kind in ("uniform-random", "greedy-pressure", "support-raiser"):
    run = play(alg, adversary(AdversaryConfig(kind=kind, steps=200, seed=23)))
    report = audit(run)
    out = ratio_report(run)
    print(f"  {kind}: audit passed = {report['passed']},"
          f" cost {out['cost']:.3f}, opt {out['opt']:.3f},"
          f" net ratio {out['ratio']:.3f}, within declared: {out['passed']}")

# 3. The quotient view at the root: the top split pits the left half of the
# line against the right half across the long tree edge.
parts = alg.parts
print("\nroot blocks:", [tuple(b) for b in parts.partition.blocks])
print("root quotient distance:", parts.quotient_umts.metric.dist[0, 1])
print("root quotient algorithm:", parts.quotient_alg.name)
