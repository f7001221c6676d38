"""
Weighted caching on a star
==========================

A cache of size K serving K + 1 pages is a task system on the star whose
arm lengths are half the fetch costs. Each state is the page left out of
the cache, and charging a state models requests to that page. This script
builds the recursive star algorithm for two fetch-cost profiles and
compares the declared ratios with the 60 (ln(K + 1) + 1/3) ceiling. It
then runs audited adversary sequences against the exact offline optimum.
"""

import json
import math

from umtslab.hst import star_to_hst, hst_to_json, weighted_caching_algorithm
from umtslab.harness import AdversaryConfig, adversary, audit, play, ratio_report

# 1. Equal fetch costs, K = 3. The star degenerates to a uniform space.
costs = [1.0, 1.0, 1.0, 1.0]
alg = weighted_caching_algorithm(costs)
K = len(costs) - 1
bound = 60.0 * (math.log(K + 1.0) + 1.0 / 3.0)
print(f"equal costs, K = {K}")
print(f"  declared ratio {alg.declared_ratio:.4f}  ceiling {bound:.4f}")
print(f"  states (page out of cache): {alg.umts.labels}")

# 2. Uneven fetch costs with two nearly free pages. The star embedding
# gathers pages whose arm is below a sixth of the longest into their own
# subtree, so the recursion combines that subtree as a single block.
costs = [4.0, 4.0, 0.2, 0.2]
tree = star_to_hst(costs)
alg = weighted_caching_algorithm(costs)
print(f"\nfetch costs {costs}")
print("  embedded tree:", json.dumps(hst_to_json(tree)))
print(f"  declared ratio {alg.declared_ratio:.4f}  ceiling {bound:.4f}")

# 3. Audited adversary runs. The harness plays each adversary once; the
# structural audit and the comparison against the offline optimum both read
# that run.
# The declared guarantee is cost <= ratio * opt + allowance; on short runs
# of a high-ratio system the allowance dominates, so a net ratio at or
# below zero means the allowance alone covered the whole cost.
for kind in ("uniform-random", "greedy-pressure"):
    run = play(alg, adversary(AdversaryConfig(kind=kind, steps=250, seed=17)))
    report = audit(run)
    out = ratio_report(run)
    verdict = "within declared" if out["passed"] else "OVER DECLARED"
    print(f"\n  {kind}: audit passed = {report['passed']}")
    print(f"    cost {out['cost']:.3f}  opt {out['opt']:.3f}  raw factor "
          f"{out['cost'] / out['opt']:.3f}")
    print(f"    net ratio {out['ratio']:.3f} vs declared {out['declared']:.3f}  ({verdict})")

# 4. Growth of the declared ratio with cache size on equal costs. The
# ceiling is logarithmic in K, and the construction tracks it.
print("\n  K   declared   ceiling")
for K in (1, 2, 3, 7):
    a = weighted_caching_algorithm([1.0] * (K + 1))
    b = 60.0 * (math.log(K + 1.0) + 1.0 / 3.0)
    print(f"  {K}   {a.declared_ratio:8.3f}   {b:8.3f}")
