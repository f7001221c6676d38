"""
Two-state walkthrough
=====================

A guided tour of one unfair task system on two points. The online player
pays rate-inflated service costs and a stretched movement cost while the
offline adversary pays face value. We step the work function by hand and
watch the stable rule move probability mass, then finish with an audited
adversary run comparing cost against the exact offline optimum.
"""

import numpy as np

from umtslab.core import Umts, ElementaryTask, flat_work_function, apply_task
from umtslab.metricspace import make_uniform
from umtslab.algorithms import trivial_algorithm, two_stable, two_stable_ratio
from umtslab.harness import AdversaryConfig, adversary, audit, play, ratio_report

rng = np.random.default_rng(7)

# 1. The system. Two points at distance 1, cost rates (4, 1), distance ratio 1.
u = Umts(make_uniform(2, 1.0), np.array([4.0, 1.0]), 1.0)
print("labels:", u.labels)
print("rates:", u.rates, " distance ratio:", u.s)

# 2. The closed-form optimal ratio for this shape.
r = two_stable_ratio(u.s, 4.0, 1.0)
print(f"\noptimal two-point ratio f(s, r1, r2) = {r:.6f}")
print(f"bounds: max rate {max(u.rates):.1f} <= f <= max rate + s = {max(u.rates) + u.s:.1f}")
print(f"symmetry check f(s, r2, r1) = {two_stable_ratio(u.s, 1.0, 4.0):.6f}")

# 3. Step the work function by hand and watch the rule respond.
alg = two_stable(u)
w = flat_work_function(u)
print("\nstep  charge            work function      probabilities")
print(f"   0  start             {np.round(w, 4)}    {np.round(alg.probabilities(w), 4)}")
for i, (state, delta) in enumerate([("v1", 0.3), ("v1", 0.3), ("v2", 0.8)], start=1):
    w = apply_task(u, w, ElementaryTask(state, delta))
    p = alg.probabilities(w)
    print(f"   {i}  {delta:.1f} at {state}         {np.round(w, 4)}    {np.round(p, 4)}")

# The work function never detaches from its lower envelope: each entry stays
# within one diameter of the other, and mass drains from the pressured state.

# 4. An adversary run, played once and then audited and priced from its
# record. Random reasonable charges already separate the two players: the online side pays the inflated rates while the offline
# side settles wherever the accumulated charge is lightest.
cfg = AdversaryConfig(kind="uniform-random", steps=400, seed=3)
run = play(alg, adversary(cfg))
report = audit(run)
ratio = ratio_report(run)
print(f"\nuniform-random adversary, {cfg.steps} steps")
print(f"  audit passed: {report['passed']}  (checks: resadv, distribution, betatagc, sensibility)")
print(f"  online cost {ratio['cost']:.4f}  offline optimum {ratio['opt']:.4f}")
print(f"  empirical ratio {ratio['ratio']:.4f}  declared {alg.declared_ratio:.4f}  within declared: {ratio['passed']}")

# 5. The do-nothing baseline for contrast. A point mass declares its home
# rate, but its guarantee only covers sequences that never charge the other
# state (the zero crossing there is 0, so any such charge is unreasonable).
# The stable rule declares a slightly larger number and survives every
# reasonable sequence.
base = trivial_algorithm(u)
w0 = flat_work_function(u)
print(f"\nbaseline point-mass rule at {base.descriptor.get('state', u.labels[0])}: "
      f"declared {base.declared_ratio:.4f}")
print(f"  allowed charge at v1: {base.zero_crossing(w0, 0)}   at v2: {base.zero_crossing(w0, 1)}")
base_run = play(base, adversary(AdversaryConfig(kind="uniform-random", steps=400, seed=11)))
base_ratio = ratio_report(base_run)
print(f"  against its own reasonable sequences ({len(base_run.v)} tasks before the"
      f" headroom runs out):")
print(f"  cost {base_ratio['cost']:.4f}  opt {base_ratio['opt']:.4f}  "
      f"empirical {base_ratio['ratio']:.4f}, within declared: {base_ratio['passed']}")
print(f"stable rule declared {alg.declared_ratio:.4f} holds with no such restriction")
