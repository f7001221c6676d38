"""
Combining algorithms under a quotient
=====================================

The rate-bucket construction partitions the states of a uniform system by
the magnitude of their cost rates and runs a tuned algorithm inside every
block, while a quotient algorithm over block representatives decides how
much probability each block receives. This script builds one such
composition and exposes its internal arithmetic. It then plays an
adversary against it once, with the stepwise recorder keeping every step
as the run makes it, and audits the run for the five structural identities
the construction relies on.
"""

import numpy as np

from umtslab.core import Umts
from umtslab.metricspace import make_uniform
from umtslab.portfolio import combined_algorithm, w_combined_algorithm
from umtslab.combiner import nice_beta_eta
from umtslab.harness import AdversaryConfig, adversary, audit, play

# 1. A four-point uniform space with well-spread rates, distance ratio 1.
rates = np.array([6.0, 2.5, 1.0, 0.2])
u = Umts(make_uniform(4, 1.0), rates, 1.0)
alg = combined_algorithm(u)
parts = alg.parts

print("system rates:", rates)
print("algorithm:", alg.name)
print("declared ratio:", round(alg.declared_ratio, 6))
print("constraint constants (beta, eta):", (alg.beta, alg.eta))
print("\nblocks (grouped by rate bucket):")
for blk, sub_alg in zip(parts.partition.blocks, parts.block_algs):
    print(f"  {blk}  ->  {sub_alg.name}, ratio {sub_alg.declared_ratio:.4f},"
          f" (beta, eta) = ({sub_alg.beta}, {sub_alg.eta})")
print("quotient over representatives:", parts.quotient_alg.name,
      "ratio", round(parts.quotient_alg.declared_ratio, 4))
print("quotient distances (half-contracted):")
print(parts.quotient_umts.metric.dist)

# 2. The constant arithmetic behind the export. The merge rule takes the
# quotient pair and the block pairs and produces the combined pair.
qpair = (parts.quotient_alg.beta, parts.quotient_alg.eta)
bpairs = [(a.beta, a.eta) for a in parts.block_algs]
print("\nmerge arithmetic: quotient", qpair, "blocks", bpairs)
print("nice pair at separation 5:", nice_beta_eta(5.0, (0.5, 0.25), [(1.0, 0.5), (1.0, 0.5)]))

# 3. Play an adversary run; its recorder (run.combined) keeps, step by
# step, the per-block and quotient work functions, the block G values and
# both zero crossings while the run makes it. audit() then checks the
# record against the identities, prices the quotient run in one pass and
# reports the issues and the quotient cost.
run = play(alg, adversary(AdversaryConfig(kind="support-raiser", steps=120, seed=5)))
report = audit(run)

print(f"\naudited run: {report['steps']} steps, {len(report['issues'])} issues")
print(f"  combined cost {run.cost:.4f}  quotient cost {report['quotient_cost']:.4f}")
print("  checks: hatw (quotient work equals block G values)")
print("          welleqw (block work equals restricted global work)")
print("          betatagc (no mass on states excluded by the beta constraint)")
print("          samecompratio (combined step cost at most the quotient step cost)")
print("          resadv (every charge respects both zero crossings)")

# A peek at the final bookkeeping: the quotient work function and the block
# G values it must match.
print("\nfinal quotient work function:", np.round(run.combined.what[-1], 6))
print("final block G values:        ", np.round(parts.hat_work(run.w[-1]), 6))

# 4. The audit also makes the offline comparison: the translated quotient
# adversary can cost more than the original only by the static offset of
# the translation.
print(f"\nharness verdict: passed = {report['passed']}")
print(f"  offline optimum {report['opt']:.4f}  quotient offline {report['opt_hat']:.4f}"
      f"  allowed offset {report['resadv_allow']:.4f}")

# 5. The anchored variant pins one heavy state as its own block above an
# equal-rate tail and reuses the same machinery.
uw = Umts(make_uniform(4, 1.0), np.array([6.0, 1.0, 1.0, 1.0]), 1.0)
walg = w_combined_algorithm(uw)
wrun = audit(play(walg, adversary(AdversaryConfig(kind="greedy-pressure", steps=120, seed=9))))
print(f"\nanchored variant {walg.name}: declared {walg.declared_ratio:.4f},"
      f" audit passed = {wrun['passed']}")
