"""Closed-form odd-exponent zero crossings against brentq on many random rows.

    PYTHONPATH=src python3 tests/sweep_crossings.py --rows 1000000 --seed 0

For b = 2..20 it draws 1-Lipschitz work functions on the uniform space of
diameter 1 (every entry in [0, 1]) and a charged state, keeps the rows at
which the rule holds mass, and compares the crossing from the closed form
with the one brentq brackets, as ``odd_exponent`` computes each. It prints
the row count and largest absolute difference per b and exits 1 if any
difference exceeds 1e-12. The brentq solves take about a minute per million
rows, so this is a one-off check and not part of the test suite.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from umtslab.algorithms import odd_crossing_bracketed, odd_crossing_closed

TOL = 1e-12


def sweep(b: int, rows: int, rng: np.random.Generator) -> tuple[int, float]:
    """(rows compared, largest |closed - brentq|) at ``b`` states."""
    t = max(1, math.ceil(math.log(b)))
    t += t % 2 == 0
    w = rng.uniform(0.0, 1.0, (rows, b))
    v = rng.integers(0, b, rows)
    rest = np.array([np.delete(np.arange(b), x) for x in range(b)])
    wv = w[np.arange(rows), v][:, None]
    others = w[np.arange(rows)[:, None], rest[v]] - wv
    heads = (w[np.arange(rows)[:, None], rest[v]] + 1.0).min(axis=1) - wv[:, 0]
    live = 1.0 + (others**t).sum(axis=1) > 1e-12 * b
    others, heads = others[live], heads[live]
    roots = [odd_crossing_closed(o, 1.0, t) for o in others.tolist()]
    closed = np.minimum(np.maximum(roots, 0.0), heads)
    at_head = 1.0 + ((others - heads[:, None]) ** t).sum(axis=1)
    worst = 0.0
    for o, h, x, above in zip(others, heads, closed, at_head > 0.0):
        ref = h if above else odd_crossing_bracketed(o, h, 1.0, t)
        worst = max(worst, abs(x - ref))
    return len(heads), worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000, help="rows drawn over all b")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    per_b = -(-args.rows // 19)
    total, worst = 0, 0.0
    for b in range(2, 21):
        count, gap = sweep(b, per_b, rng)
        total, worst = total + count, max(worst, gap)
        print(f"b={b:2d} rows={count} max|closed-brentq|={gap:.3g}", flush=True)
    print(f"all: rows={total} max|closed-brentq|={worst:.3g} (bound {TOL:g})")
    return 0 if worst <= TOL else 1


if __name__ == "__main__":
    sys.exit(main())
