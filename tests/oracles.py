"""Hand-rolled reference computations, kept independent of the library code.

The transport oracle enumerates every spanning-tree basis of the bipartite
transport graph and solves each by leaf peeling; the offline oracle searches
all state paths; the line oracle uses the cumulative-mass formula. The
gridded-potential oracles are the straightforward loops: interpolation over
the 2^n corners one by one through a dict of state rows, and value
iteration whose local costs come from one scalar call per state and
direction. The band oracle takes each floor of the two-point band potential
as the minimum over a candidate list rebuilt on every call. The
odd-exponent oracles take every integer power with numpy's ``**``, where
the rule multiplies. The support-level, support-headroom, odd-exponent
crossing and one-row odd-exponent distribution references are the numpy
array passes the library ran before it answered small queries on Python
floats; the library must equal them bit for bit. The greedy-pressure
reference asks for the crossing of every open state, as the adversary did
before it pruned by the pressure bound, and the offline-optimum reference
steps a numpy work function through ``apply_task``.

The combined crossing reference, :func:`reference_crossing_at`, is
``combiner._crossing_at`` as it was before it bounded the block crossing's
G rise by the dot product alone: it evaluates the block potential at every
trial charge, the block crossing first.

The metric validation reference, :func:`reference_validate`, checks the
triangle inequality in one (n, n, n) comparison, as ``validate`` did
before it took a block of rows at a time.

The atomic audit oracle walks a run one step at a time with one-row
calls, as the audit did before it checked whole runs in array passes. The
combined audit oracle does the same for combined rules: it steps the
quotient rule beside the run, asks the block and quotient rules directly
instead of through the memos, and checks and prices every step as it
reads it.

The trace verify oracle, :func:`reference_verify`, is ``umtslab verify`` as
a loop over the rows: it checks and prices one step at a time with one-row
calls, in the order the stacked checker reports its first failure.

The combined-audit driver at the end is a shared test helper, not an
oracle: a random reasonable adversary as a ``simulate`` policy. So are
:func:`edge_quotient_crossings`, the quotient crossings at which the
combined crossing's bound changes sign, and :func:`combined_parts`, which
finds the parts of a combined rule that a rho-variant hides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from umtslab.algorithms import (
    CLOSED_FORM_EXPONENTS,
    _int_power,
    odd_crossing_bracketed,
    odd_crossing_closed,
)
from umtslab.combiner import AuditIssue, CombinedParts, trace_header, worst_issues
from umtslab.core import (
    ElementaryTask,
    Step,
    Umts,
    apply_elementary,
    apply_task,
    beta_excluded_mass,
    flat_work_function,
    initial_work_function,
    online_step_cost,
    opt_cost,
    support_headroom,
)
from umtslab.harness import offline_opt
from umtslab.hst import with_hst_realization
from umtslab.metricspace import (
    FiniteMetric,
    make_line,
    make_partition,
    make_star,
    make_uniform,
    quotient_metric,
    validate,
)
from umtslab.tolerances import EPS_AUDIT, EPS_EQ
from umtslab.transport import mcost_metric, needs_lp, not_distribution

_TREE_CACHE: dict[int, list[tuple[tuple[int, int], ...]]] = {}


def _spanning_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees of the complete bipartite graph K(n, n).

    Nodes are rows 0..n-1 and columns n..2n-1; edges are matrix cells (i, j).
    Every optimum of the transport LP is attained on one of these bases.
    """
    if n in _TREE_CACHE:
        return _TREE_CACHE[n]
    cells = [(i, j) for i in range(n) for j in range(n)]
    m = 2 * n - 1
    trees = []
    for subset in itertools.combinations(cells, m):
        parent = list(range(2 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j in subset:
            ri, rj = find(i), find(n + j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            trees.append(subset)
    _TREE_CACHE[n] = trees
    return trees


def transport_bruteforce(dist: np.ndarray, p, q) -> float:
    """Exact transport cost by enumerating basic feasible solutions.

    Each spanning tree fixes the flows uniquely (peel leaves, push the
    leaf's residual supply over its only edge); bases with a negative flow
    are infeasible and skipped.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(p)
    best = np.inf
    for tree in _spanning_trees(n):
        supply = np.concatenate([p, -q])
        deg = [0] * (2 * n)
        for i, j in tree:
            deg[i] += 1
            deg[n + j] += 1
        alive = set(tree)
        flows = {}
        stack = [v for v in range(2 * n) if deg[v] == 1]
        while alive and stack:
            node = stack.pop()
            if deg[node] != 1:
                continue
            edge = next(e for e in alive if node in (e[0], e[1] + n))
            i, j = edge
            # flow runs row -> column, so a column leaf needs the sign flipped
            flows[edge] = supply[node] if node < n else -supply[node]
            other = n + j if node < n else i
            supply[other] += supply[node]
            supply[node] = 0.0
            alive.remove(edge)
            deg[node] -= 1
            deg[other] -= 1
            if deg[other] == 1:
                stack.append(other)
        if alive:
            continue
        if min(flows.values()) < -1e-12:
            continue
        best = min(best, sum(t * dist[i, j] for (i, j), t in flows.items()))
    return float(best)


def offline_exhaustive(dist: np.ndarray, init: int, charge_rows) -> float:
    """Cheapest offline service cost over all state paths, starting at init."""
    n = dist.shape[0]
    horizon = len(charge_rows)
    if horizon == 0:
        return 0.0
    best = np.inf
    for path in itertools.product(range(n), repeat=horizon):
        cost = 0.0
        prev = init
        for t, u in enumerate(path):
            cost += dist[prev, u] + charge_rows[t][u]
            prev = u
        best = min(best, cost)
    return float(best)


def line_cdf_cost(positions, p, q) -> float:
    """Transport on the line: sum over gaps of |cumulative mass difference|."""
    positions = np.asarray(positions, dtype=float)
    diff = np.cumsum(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    gaps = np.diff(positions)
    return float(np.abs(diff[:-1]) @ gaps)


def random_prob(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.random(n) + 1e-3
    return x / x.sum()


def reference_validate(m: FiniteMetric, tol: float = EPS_EQ) -> list[str]:
    """``metricspace.validate`` as it was before it checked the triangle
    inequality a block of rows at a time: one (n, n, n) comparison."""
    report = []
    d = m.dist
    n = m.n
    for i in range(n):
        if abs(d[i, i]) > tol:
            report.append(f"nonzero diagonal at {m.labels[i]}: {d[i, i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > tol:
                report.append(
                    f"asymmetry at ({m.labels[i]},{m.labels[j]}): "
                    f"{d[i, j]} vs {d[j, i]}"
                )
            if d[i, j] <= tol:
                report.append(
                    f"non-positive distance at ({m.labels[i]},{m.labels[j]}): {d[i, j]}"
                )
    for i, j, k in np.argwhere(d[:, :, None] > d[:, None, :] + d.T[None, :, :] + tol):
        report.append(
            f"triangle violation: d({m.labels[i]},{m.labels[j]}) > "
            f"d(.,{m.labels[k]}) sum by {d[i, j] - d[i, k] - d[k, j]:.3g}"
        )
    return report


def random_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random metric via shortest-path closure of a random symmetric matrix."""
    raw = rng.uniform(0.5, 2.0, size=(n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


# metric kinds that mcost_metric prices by each of its closed forms, and by
# the LP ("lp")
METRIC_KINDS = ("uniform-tree", "line", "star", "two-point", "three-point", "uniform", "lp")


def metric_of(kind: str, n: int, rng: np.random.Generator) -> FiniteMetric:
    """A metric of the kind on n points (2 or 3 for the fixed-size kinds);
    the last three kinds carry no tree."""
    if kind == "uniform-tree":
        return make_uniform(n, float(rng.uniform(0.5, 2.0)))
    if kind == "line":
        return make_line(n, float(rng.uniform(0.5, 2.0)))
    if kind == "star":
        return make_star(rng.uniform(0.5, 3.0, n))
    n = {"two-point": 2, "three-point": 3, "lp": max(n, 4)}.get(kind, n)
    labels = tuple(f"x{i}" for i in range(n))
    if kind == "uniform":
        d = np.full((n, n), float(rng.uniform(0.5, 2.0)))
        np.fill_diagonal(d, 0.0)
        return FiniteMetric(labels, d)
    return FiniteMetric(labels, random_metric(rng, n))


def random_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k distributions on n points; some hold a point mass."""
    rows = np.array([random_prob(rng, n) for _ in range(k)])
    for i in np.flatnonzero(rng.random(k) < 0.25):
        rows[i] = np.eye(n)[rng.integers(n)]
    return rows


def _row_dict(states) -> dict:
    return {np.asarray(k, dtype=np.int64).tobytes(): i for i, k in enumerate(states)}


def reference_phi(est, w) -> float:
    """Multilinear interpolation of a gridded estimate, corner by corner."""
    index = _row_dict(est.states)
    w = np.asarray(w, dtype=float)
    x = (w - w.min()) / est.h
    x = np.clip(x, 0.0, float(est.levels))
    lo = np.floor(x).astype(int)
    frac = x - lo
    total, n = 0.0, len(x)
    for corner in itertools.product((0, 1), repeat=n):
        k = np.minimum(lo + np.array(corner), est.levels)
        weight = np.prod(np.where(np.array(corner) == 1, frac, 1.0 - frac))
        if weight == 0.0:
            continue
        k = k - k.min()
        if est.symmetric:
            k = np.sort(k)
        row = index.get(k.astype(np.int64).tobytes())
        if row is not None:
            total += weight * est.table[row]
    return float(total)


def band_phi_candidates(band, y) -> float:
    """The band potential at gap ``y``, each floor the minimum of the
    antiderivative over the active edge, ``y`` and the roots between them."""
    r = band.rule
    y = float(np.clip(y, -r.d, r.d))
    below = above = 0.0
    if y >= band.y_minus:
        cands = [band.y_minus, y] + [z for z in band._roots_minus if band.y_minus <= z <= y]
        below = r.big_g_minus(y) - min(r.big_g_minus(z) for z in cands)
    if y <= band.y_plus:
        cands = [band.y_plus, y] + [z for z in band._roots_plus if y <= z <= band.y_plus]
        above = r.big_g_plus(y) - min(r.big_g_plus(z) for z in cands)
    return max(0.0, below, above)


def odd_raw_pow(w, d: float, t: int) -> np.ndarray:
    """The odd-exponent rule's unclipped mass at every state of ``w``, by ``**``."""
    w = np.asarray(w, dtype=float)
    diffs = (w[None, :] - w[:, None]) / d
    return (1.0 + (diffs**t).sum(axis=-1)) / len(w)


def odd_local_integral_pow(w, v: int, delta: float, d: float, t: int, rate: float) -> float:
    """The odd-exponent rule's local cost of raising w(v) by ``delta``, by ``**``."""
    w = np.asarray(w, dtype=float)
    a = (np.delete(w, v) - w[v]) / d
    poly = (d / (t + 1)) * (a ** (t + 1) - (a - delta / d) ** (t + 1)).sum()
    return float(rate * (delta + poly) / len(w))


def odd_dead_pow(w, v: int, d: float, t: int) -> bool:
    """The odd-exponent crossing's test that the rule holds no mass at v, by ``**``."""
    w = np.asarray(w, dtype=float)
    return bool((1.0 + (((w - w[v]) / d) ** t).sum()) / len(w) <= 1e-12)


def odd_crossing_pow(w, v: int, d: float, t: int) -> float:
    """The odd-exponent zero crossing at v, with every power taken by ``**``:
    0 where the rule holds no mass, the closed-form root for t <= 3 (which
    takes no power of an array), and otherwise the headroom or the brentq
    root below it."""
    w = np.asarray(w, dtype=float)
    if odd_dead_pow(w, v, d, t):
        return 0.0
    others = np.delete(w, v) - w[v]
    head = float((np.delete(w, v) + d).min() - w[v])
    if t <= 3:
        return min(max(odd_crossing_closed(others.tolist(), d, t), 0.0), head)
    if 1.0 + (((others - head) / d) ** t).sum() > 0.0:
        return head
    return float(brentq(lambda x: 1.0 + (((others - x) / d) ** t).sum(), 0.0, head, xtol=1e-12))


def reference_support_level(u, w, v: int) -> float:
    """min over x != v of w(x) + dist(x, v), in one numpy pass (inf on one point)."""
    reach = np.asarray(w, dtype=float) + u.metric.dist[:, v]
    reach[v] = np.inf
    return float(reach.min()) if u.n > 1 else np.inf


def reference_support_headrooms(u, w) -> np.ndarray:
    """Every state's support headroom from one (n, n) array minimum, as
    ``core.support_headrooms`` takes it above ``FLOAT_STATES`` states."""
    reach = w[:, None] + u.metric.dist
    reach.flat[:: len(w) + 1] = np.inf
    return reach.min(axis=0) - w


def reference_odd_probabilities(alg, w) -> np.ndarray:
    """The odd-exponent distribution at one work function in numpy array
    passes, as the rule takes it above ``FLOAT_STATES`` states."""
    u, t = alg.umts, alg.descriptor["t"]
    w = np.asarray(w, dtype=float)
    diffs = (w[None, :] - w[:, None]) / u.diameter()
    p = np.maximum((1.0 + _int_power(diffs, t).sum(axis=-1)) / u.n, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def reference_greedy_pick(alg, w, p):
    """The state greedy-pressure charges at ``w`` and ``p``, by exhaustive
    search: the zero crossing of every open state in one call, then the
    largest ``p * min(crossing, headroom, 1e12)``, the lowest index among
    equal pressures; None when no state is open."""
    heads = reference_support_headrooms(alg.umts, w).tolist()
    open_states = [x for x in range(len(p)) if p[x] > EPS_EQ and heads[x] > 0.0]
    if not open_states:
        return None
    cross = dict(zip(open_states, alg.zero_crossing(w, np.array(open_states)).tolist()))
    return max(open_states, key=lambda x: (p[x] * min(min(cross[x], heads[x]), 1e12), -x))


def reference_offline_opt(u, tasks) -> float:
    """The offline optimum through the chain of ``apply_task`` calls on arrays."""
    w = initial_work_function(u)
    for t in tasks:
        w = apply_task(u, w, t)
    return opt_cost(w)


def reference_odd_crossing(alg, w, v):
    """The odd-exponent zero crossing in numpy array passes, one row per
    requested state: a float for one state, an array for a 1-D array of them."""
    u, t = alg.umts, alg.descriptor["t"]
    n, d = u.n, u.diameter()
    rest = np.array([np.delete(np.arange(n), x) for x in range(n)])
    dist = u.metric.dist
    w = np.asarray(w, dtype=float)
    vs = np.atleast_1d(v)
    wv = w[vs, None]
    dead = (1.0 + _int_power((w - wv) / d, t).sum(axis=-1)) / n <= 1e-12
    idx = rest[vs]
    w_rest = w[idx]
    heads = (w_rest + dist[idx, vs[:, None]]).min(axis=-1) - w[vs]
    others = w_rest - wv
    if t in CLOSED_FORM_EXPONENTS:
        roots = [odd_crossing_closed(o, d, t) for o in others.tolist()]
        x = np.minimum(np.maximum(roots, 0.0), heads)
    else:
        x = heads.copy()
        at_head = 1.0 + _int_power((others - heads[:, None]) / d, t).sum(axis=-1)
        for k in np.flatnonzero(~dead & ~(at_head > 0.0)):
            x[k] = odd_crossing_bracketed(others[k], heads[k], d, t)
    x = np.where(dead, 0.0, x)
    return x if np.ndim(v) else float(x[0])


def reference_estimate(alg, u, grid_step: float, max_sweeps: int = 4000, tol: float = 1e-7):
    """Value iteration with one local_cost_integral call per state and direction.

    Returns (states, table, sweeps, slack) on the grid of ``grid_step``;
    the state order, the symmetry rule and the moving cost are the
    estimator's, so the tables compare row by row.
    """
    from umtslab.potential import _enumerate_states, _uniform_or_transport_batch

    n, D = u.n, u.diameter()
    levels = max(2, int(round(D / grid_step)))
    h = D / levels
    steps = np.round(u.metric.dist / h).astype(np.int64)
    rates = np.asarray(u.rates)
    symmetric = (
        getattr(alg, "symmetric_rule", False)
        and np.abs(u.metric.dist[~np.eye(n, dtype=bool)] - D).max() < 1e-9
        and np.abs(rates - rates[0]).max() < 1e-9
    )
    states = _enumerate_states(n, levels, symmetric)
    S = states.shape[0]
    index = _row_dict(states)
    W = states.astype(float) * h
    P = np.array([alg.probabilities(w) for w in W])
    r, alpha = alg.declared_ratio, np.asarray(alg.alpha)
    target = np.full((n, S), -1, dtype=np.int64)
    gain = np.zeros((n, S))
    for v in range(n):
        caps = (states + steps[:, v][None, :] + np.where(np.arange(n) == v, 10 * levels, 0)[None, :]).min(axis=1)
        legal = (states[:, v] + 1 <= caps) & (P[:, v] > 1e-12)
        tgt = states.copy()
        tgt[:, v] += 1
        tgt -= tgt.min(axis=1)[:, None]
        if symmetric:
            tgt = np.sort(tgt, axis=1)
        rows = np.array([index[tgt[i].tobytes()] if legal[i] else -1 for i in range(S)], dtype=np.int64)
        move = u.s * _uniform_or_transport_batch(u, P, P[np.maximum(rows, 0)], D)
        local = np.array(
            [float(alg.local_cost_integral(W[i], v, h)) if legal[i] else 0.0 for i in range(S)]
        )
        gain[v] = np.where(legal, move + local - r * alpha[v] * h, -np.inf)
        target[v] = rows
    table = np.zeros(S)
    blowup = 50.0 * max(r, 1.0) * D + 10.0
    sweeps = 0
    while sweeps < max_sweeps:
        best = np.zeros(S)
        for v in range(n):
            best = np.maximum(best, gain[v] + np.where(target[v] >= 0, table[np.maximum(target[v], 0)], 0.0))
        new = np.maximum(0.0, best)
        change = float(np.abs(new - table).max())
        table = new
        sweeps += 1
        if change < tol or table.max() > blowup:
            break
    slack = 0.0
    for v in range(n):
        ok = target[v] >= 0
        if ok.any():
            slack = max(slack, float(np.abs(table[target[v][ok]] - table[ok]).max()))
    return states, table, sweeps, slack


def _rejected(u, p) -> bool:
    """True when transport pricing refuses ``p`` as a distribution."""
    try:
        mcost_metric(u.metric, p, p)
    except ValueError:
        return True
    return False


def reference_atomic_audit(alg, steps) -> dict:
    """The atomic audit step by step: per step the checks resadv,
    distribution (the start distribution at step 0 first), betatagc and
    sensibility, then the step's price from one-row calls; a step that reads
    a distribution pricing refuses costs NaN."""
    u = alg.umts
    tasks, issues, trace = [], [], []
    cost = 0.0
    sens_allow = EPS_AUDIT + alg.phi_slack
    phi_w = None
    for i, rec in enumerate(steps):
        tasks.append(rec.task)
        if not trace:
            trace.append(trace_header(alg, alg.beta, rec.p))
        v, delta, p2 = rec.v, rec.delta, rec.p2
        if delta > rec.crossing + EPS_EQ:
            magnitude = float(delta - rec.crossing)
            issues.append(AuditIssue("resadv", i, magnitude, "charge beyond crossing"))
        start_bad = _rejected(u, rec.p)
        if i == 0 and start_bad:
            magnitude = float(abs(rec.p.sum() - 1.0))
            issues.append(AuditIssue("distribution", 0, magnitude, "start is not a distribution"))
        end_bad = _rejected(u, p2)
        if end_bad:
            magnitude = float(abs(p2.sum() - 1.0))
            issues.append(AuditIssue("distribution", i, magnitude, "not a distribution"))
        if alg.beta > 0.0:
            for x, mass in beta_excluded_mass(u, alg.beta, rec.w2, p2):
                detail = f"mass on excluded state {u.labels[x]}"
                issues.append(AuditIssue("betatagc", i, mass, detail))
        step_cost = math.nan if start_bad or end_bad else float(
            online_step_cost(u, rec.p, p2, rec.task))
        if math.isfinite(sens_allow):
            if phi_w is None:
                phi_w = alg.phi(rec.w)
            moving = step_cost - float(p2[v] * u.rates[v] * delta)
            lhs = moving + alg.local_cost_integral(rec.w, v, delta)
            phi_w2 = alg.phi(rec.w2)
            lhs += phi_w2 - phi_w
            rhs = alg.declared_ratio * float(np.asarray(alg.alpha) @ (rec.w2 - rec.w))
            if lhs > rhs + sens_allow:
                magnitude = float(lhs - rhs)
                issues.append(AuditIssue("sensibility", i, magnitude, "step beyond its allowance"))
            phi_w = phi_w2
        cost += step_cost
        trace.append({"kind": "step", "i": i + 1, "state": rec.task.state, "delta": delta,
                      "w": rec.w2.tolist(), "p": p2.tolist(), "cost": step_cost})
    return {
        "kind": "atomic",
        "steps": len(tasks),
        "cost": cost,
        "opt": offline_opt(u, tasks),
        "issues": issues,
        "worst": worst_issues(issues),
        "passed": not issues,
        "trace": trace or [trace_header(alg, alg.beta, alg.probabilities(np.zeros(u.n)))],
    }


def reference_crossing_at(memo, wb, lv: int, g0: float, xb: float, xq: float) -> float:
    """Combined zero crossing at local state ``lv`` of a block whose G values
    ``memo`` gives, with the signature of ``combiner._crossing_at``: the
    block potential is evaluated at the block crossing ``xb`` before any
    solve, and at every trial charge of the doubling loop and of brentq."""
    if xq == math.inf:
        return xb

    def over(x):
        wb2 = wb.copy()
        wb2[lv] += x
        return memo(wb2)[1] - g0 - xq

    if math.isfinite(xb) and over(xb) <= 0.0:
        return xb
    hi = max(xq, 1e-6)
    cap = 1e9 * (1.0 + xq) + 1.0
    while over(hi) < 0.0 and hi < cap:
        hi *= 2.0
    if over(hi) < 0.0:
        return xb
    if over(0.0) >= 0.0:
        return 0.0
    x = float(brentq(over, 0.0, hi, xtol=1e-12))
    return min(x, xb) if math.isfinite(xb) else x


class ReferenceCombinedRun:
    """The combined audit step by step: :class:`CombinedRun` as it was before
    it checked and priced whole runs, plus the check of the quotient
    distributions. Each step checks, in this order: the start distributions
    (step 0 only, the rule's then the quotient's), the charge against the
    block crossing, a negative quotient charge, the quotient charge against
    the quotient crossing, welleqw per block, hatw, the rule's and then the
    quotient's distribution, betatagc and samecompratio."""

    def __init__(self, alg):
        parts = alg.parts
        self.alg, self.parts = alg, parts
        self.w_blocks = [np.zeros(len(idx)) for idx in parts.global_index]
        self.g = self.what = np.array(
            [a.g_value(np.zeros(a.umts.n)) for a in parts.block_algs])
        self.p0 = None
        self.p_ok = self.q_ok = True
        self.p_hat = self.p_hat0 = parts.quotient_alg.probabilities(self.what)
        self.issues, self.trace, self.qtasks = [], [], []
        self.steps, self.cost, self.qcost = 0, 0.0, 0.0
        self.dhat_tol = max(
            EPS_EQ,
            max((a.phi_slack for a in parts.block_algs if math.isfinite(a.phi_slack)),
                default=0.0),
        )

    def _issue(self, lemma, magnitude, detail):
        self.issues.append(AuditIssue(lemma, self.steps, float(magnitude), detail))

    def _distribution_ok(self, u, p, detail) -> bool:
        if not _rejected(u, p):
            return True
        self._issue("distribution", abs(p.sum() - 1.0), detail)
        return False

    def header(self) -> dict:
        parts, alg = self.parts, self.alg
        tol = EPS_AUDIT + alg.phi_slack if math.isfinite(alg.phi_slack) else None
        p0 = alg.probabilities(np.zeros(parts.u.n)) if self.p0 is None else self.p0
        return trace_header(alg, parts.beta, p0) | {
            "blocks": [list(b) for b in parts.partition.blocks],
            "dist_hat": parts.dist_hat.tolist(),
            "hat_rates": parts.quotient_umts.rates.tolist(),
            "hat_init": parts.initial_hat_work().tolist(),
            "alpha": np.asarray(alg.alpha).tolist(),
            "tol": tol,
            "dhat_tol": self.dhat_tol,
            "p_hat0": self.p_hat0.tolist(),
        }

    def step(self, rec):
        parts = self.parts
        u, qu = parts.u, parts.quotient_umts
        v, delta = rec.v, rec.delta
        if self.p0 is None:
            self.p0 = rec.p
            self.p_ok = self._distribution_ok(u, rec.p, "start is not a distribution")
            detail = "quotient start is not a distribution"
            self.q_ok = self._distribution_ok(qu, self.p_hat, detail)
        j, lv = int(parts.block_of[v]), int(parts.local_index[v])
        balg = parts.block_algs[j]
        xb = balg.zero_crossing(self.w_blocks[j], lv)
        if delta > xb + EPS_EQ:
            self._issue("resadv", delta - xb, f"charge {delta:.6g} beyond block crossing {xb:.6g}")
        w_blocks2 = list(self.w_blocks)
        w_blocks2[j] = apply_elementary(parts.block_systems[j], self.w_blocks[j], lv, delta)
        gvals = self.g.copy()
        gvals[j] = balg.g_value(w_blocks2[j])
        raw = float(gvals[j] - self.g[j])
        dhat = max(0.0, raw)
        if -raw > self.dhat_tol:
            self._issue("hatw", -raw, "negative quotient charge beyond tolerance")
        q = Step(qu, parts.quotient_alg, self.what, self.p_hat, j, dhat)
        if dhat > q.crossing + EPS_EQ:
            detail = f"quotient charge {dhat:.6g} beyond crossing {q.crossing:.6g}"
            self._issue("resadv", dhat - q.crossing, detail)
        w2 = rec.w2
        for i, idx in enumerate(parts.global_index):
            gap = np.abs(w2[idx] - w_blocks2[i]).max()
            if gap > EPS_EQ:
                self._issue("welleqw", gap, f"block {i} work function drifts")
        gap = np.abs(q.w2 - gvals).max()
        if gap > EPS_AUDIT:
            self._issue("hatw", gap, "quotient work function detached from block G values")
        p2_ok = self._distribution_ok(u, rec.p2, "not a distribution")
        q2_ok = self._distribution_ok(qu, q.p2, "quotient not a distribution")
        for x, mass in beta_excluded_mass(u, parts.beta, w2, rec.p2):
            self._issue("betatagc", mass, f"mass on excluded state {u.labels[x]}")
        step_cost = (online_step_cost(u, rec.p, rec.p2, rec.task) if self.p_ok and p2_ok
                     else math.nan)
        qstep_cost = online_step_cost(qu, q.p, q.p2, q.task) if self.q_ok and q2_ok else math.nan
        phi_slack = self.alg.phi_slack
        slack_allow = EPS_AUDIT + phi_slack if math.isfinite(phi_slack) else math.inf
        if step_cost > qstep_cost + slack_allow:
            self._issue(
                "samecompratio",
                step_cost - qstep_cost,
                f"combined step cost {step_cost:.6g} exceeds quotient {qstep_cost:.6g}",
            )
        self.w_blocks, self.g, self.what, self.p_hat = w_blocks2, gvals, q.w2, q.p2
        self.p_ok, self.q_ok = p2_ok, q2_ok
        self.qtasks.append(q.task)
        self.cost += step_cost
        self.qcost += qstep_cost
        self.steps += 1
        self.trace.append({
            "kind": "step", "i": self.steps, "state": u.labels[v], "delta": delta, "block": j,
            "delta_hat": dhat, "w": w2.tolist(), "w_blocks": [wb.tolist() for wb in w_blocks2],
            "what": q.w2.tolist(), "g": gvals.tolist(), "p": rec.p2.tolist(),
            "p_hat": q.p2.tolist(), "cost": step_cost, "qcost": qstep_cost,
        })

    def report(self) -> dict:
        return {
            "steps": self.steps,
            "cost": self.cost,
            "quotient_cost": self.qcost,
            "issues": len(self.issues),
            "worst": worst_issues(self.issues),
            "passed": not self.issues,
        }


def _simplex_summary(p: np.ndarray) -> str:
    return f"probabilities sum to {float(p.sum()):.12g}, smallest {float(p.min()):.3g}"


def reference_verify(head, rows):
    """``umtslab verify`` as a loop over the rows, one step at a time with
    one-row calls; returns (exit code, message).

    The header ``dist`` must be a metric. One that would go to the
    transport LP is priced on its HST instead when it is an ultrametric, as
    the run priced it.
    Composition traces (the header lists ``blocks``) also replay the blocks
    and the quotient: ``dist_hat`` must be the largest cross-block distances
    of ``dist``, and each step must name the block of its state. Every gap
    and cost test reads ``not gap <= tol``, so a NaN fails it.

    Where the stacked checker rejects a trace as malformed, this loop may
    not: it never reads the rows after the first failing step, a negative
    or NaN ``delta`` or ``delta_hat`` fails welleqw or hatw, a step numbered
    ``true`` passes as step 1, and an atomic header without ``beta`` skips
    betatagc.
    """
    u = Umts(
        FiniteMetric(tuple(head["labels"]), np.asarray(head["dist"], dtype=float)),
        np.asarray(head["rates"], dtype=float),
        float(head["s"]),
        str(head.get("initial", "")),
    )
    problems = validate(u.metric)
    if problems:
        return 1, f"metric violated in the header: {problems[0]}"
    if needs_lp(u.metric):
        u = replace(u, metric=with_hst_realization(u.metric))
    combined = "blocks" in head
    if combined:
        dist_hat = np.asarray(head["dist_hat"], dtype=float)
        partition = make_partition(u.metric, head["blocks"])
        expected = quotient_metric(u.metric, partition).dist
        same_shape = dist_hat.shape == expected.shape
        gap = float(np.abs(dist_hat - expected).max()) if same_shape else math.inf
        if not gap <= EPS_EQ:  # NaN fails too
            return 1, (
                f"dist_hat violated in the header: deviates from the largest "
                f"cross-block distances by {gap:.3g}"
            )
        blocks = [[u.metric.index(m) for m in b] for b in partition.blocks]
        block_of = {v: b for b, idx in enumerate(blocks) for v in idx}
        qlabels = tuple(f"B{i}" for i in range(len(blocks)))
        qu = Umts(
            FiniteMetric(qlabels, dist_hat),
            np.asarray(head["hat_rates"], dtype=float),
            float(head["s"]),
        )
        beta = float(head["beta"])
        tol = head.get("tol")
        cost_allow = math.inf if tol is None else float(tol)
        what = np.asarray(head["hat_init"], dtype=float)
        ph_prev = np.asarray(head["p_hat0"], dtype=float)
    else:
        beta = float(head.get("beta", 0.0))
    cost_check = "samecompratio" if combined else "stepcost"
    w = flat_work_function(u)
    p_prev = np.asarray(head["p0"], dtype=float)
    if not_distribution(p_prev):
        return 1, f"distribution violated at step 0: {_simplex_summary(p_prev)}"
    if combined and not_distribution(ph_prev):
        return 1, f"distribution violated at step 0: quotient {_simplex_summary(ph_prev)}"
    for i, row in enumerate(rows, 1):
        if row["i"] != i:
            return 1, f"numbering violated at step {i}: the row is numbered {row['i']!r}"
        v = u.metric.index(row["state"])
        delta = float(row["delta"])
        stored_w = np.asarray(row["w"], dtype=float)
        w2 = apply_elementary(u, w, v, delta)
        gap = float(np.abs(w2 - stored_w).max())
        if not gap <= EPS_EQ:
            return 1, (
                f"welleqw violated at step {i}: stored work function deviates "
                f"from the recomputed chain by {gap:.3g}"
            )
        if combined:
            j = block_of[v]
            if row["block"] != j:
                return 1, (
                    f"block violated at step {i}: state {row['state']} lies in "
                    f"block {j}, the row names {row['block']!r}"
                )
            dhat = float(row["delta_hat"])
            for b, idx in enumerate(blocks):
                bgap = float(np.abs(stored_w[idx] - np.asarray(row["w_blocks"][b])).max())
                if not bgap <= EPS_EQ:
                    return 1, (
                        f"welleqw violated at step {i}: block {b} work function "
                        f"drifts from the restricted global one by {bgap:.3g}"
                    )
            stored_what = np.asarray(row["what"], dtype=float)
            what2 = apply_elementary(qu, what, j, dhat)
            hgap = float(np.abs(what2 - stored_what).max())
            if not hgap <= EPS_EQ:
                return 1, (
                    f"hatw violated at step {i}: quotient work function detaches "
                    f"from its charges by {hgap:.3g}"
                )
            ggap = float(np.abs(stored_what - np.asarray(row["g"], dtype=float)).max())
            if not ggap <= EPS_AUDIT:
                return 1, (
                    f"hatw violated at step {i}: quotient work function differs "
                    f"from the block G values by {ggap:.3g}"
                )
        p2 = np.asarray(row["p"], dtype=float)
        if not_distribution(p2):
            return 1, f"distribution violated at step {i}: {_simplex_summary(p2)}"
        if combined:
            ph2 = np.asarray(row["p_hat"], dtype=float)
            if not_distribution(ph2):
                return 1, f"distribution violated at step {i}: quotient {_simplex_summary(ph2)}"
        # a single-state rule declares beta = 0 and is exempt
        excluded = beta_excluded_mass(u, beta, stored_w, p2) if combined or beta > 0.0 else []
        if excluded:
            x, mass = excluded[0]
            return 1, (
                f"betatagc violated at step {i}: mass {mass:.3g} "
                f"on excluded state {u.labels[x]}"
            )
        cost = float(row["cost"])
        cexp = online_step_cost(u, p_prev, p2, ElementaryTask(u.labels[v], delta))
        if not abs(cexp - cost) <= EPS_AUDIT:
            return 1, (
                f"{cost_check} violated at step {i}: stored step cost "
                f"disagrees with the transport recomputation by {abs(cexp - cost):.3g}"
            )
        if combined:
            qcost = float(row["qcost"])
            qexp = online_step_cost(qu, ph_prev, ph2, ElementaryTask(qlabels[j], dhat))
            if not abs(qexp - qcost) <= EPS_AUDIT:
                return 1, (
                    f"samecompratio violated at step {i}: stored quotient cost "
                    f"disagrees with the transport recomputation by {abs(qexp - qcost):.3g}"
                )
            if not cost <= qcost + cost_allow:
                return 1, (
                    f"samecompratio violated at step {i}: step cost {cost:.6g} "
                    f"exceeds the quotient step cost {qcost:.6g}"
                )
            what, ph_prev = stored_what, ph2
        w, p_prev = stored_w, p2
    if combined:
        checks = (
            "metric, dist_hat, numbering, welleqw, block, hatw, distribution, betatagc, "
            "samecompratio"
        )
        unchecked = "ratio, beta, alpha, tol, dhat_tol"
    else:
        checks = "metric, numbering, welleqw, distribution, betatagc, stepcost"
        unchecked = "ratio, beta"
    # these header fields come from the rule, which verify does not rebuild
    return 0, f"ok: {len(rows)} steps verified ({checks}); not recomputed: {unchecked}"


def drive(steps: int, seed: int):
    """Reasonable adversary as a ``simulate`` policy: for each of ``steps``
    rounds, a random positive-probability state and a random fraction of
    its joint crossing; a round whose cap is not positive and finite
    charges nothing."""
    rng = np.random.default_rng(seed)
    budget = steps

    def choose(alg, w, p):
        nonlocal budget
        u = alg.umts
        while budget > 0:
            budget -= 1
            cands = [v for v in range(u.n) if p[v] > 1e-9]
            v = cands[rng.integers(len(cands))]
            cap = min(alg.zero_crossing(w, v), support_headroom(u, w, v))
            if math.isfinite(cap) and cap > 0:
                return v, rng.uniform(0.2, 0.999) * cap * (1.0 - 1e-6), None
        return None

    return choose


def edge_quotient_crossings(rise: float) -> list[float]:
    """Quotient crossings at and around ``rise``, where the bound of the
    block crossing's G rise changes sign: a few ulps and 1e-12 to 1e-6 on
    either side, each non-negative."""
    near = [rise]
    for toward in (-math.inf, math.inf):
        x = rise
        for _ in range(3):
            x = math.nextafter(x, toward)
            near.append(x)
    near += [rise + sign * gap for sign in (-1.0, 1.0) for gap in (1e-12, 1e-9, 1e-6)]
    return [x for x in near if x >= 0.0]


def combined_parts(alg):
    """The :class:`CombinedParts` that the rule's zero crossing reads, or
    None for a rule that combines nothing. A rho-variant of a combined rule
    sets ``parts`` to None, as its blocks live on the scaled system, but it
    evaluates the inner rule on the same work functions, so its crossing's
    closure still holds the inner rule's parts."""
    if alg.parts is not None:
        return alg.parts
    for cell in alg.zero_crossing.__closure__ or ():
        if isinstance(cell.cell_contents, CombinedParts):
            return cell.cell_contents
    return None
