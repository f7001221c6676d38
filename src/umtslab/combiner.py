"""Combining stable algorithms across a partition of the state space.

Given per-block algorithms and a quotient algorithm run on one
representative per block (with block ratios as its cost ratios), the
combination plays the product rule: the quotient work function is kept
equal to each block's charge bookkeeping value

    G_l(w_l) = <alpha_l, w_l> - Phi_l(w_l) / r_l,

so a charge of delta at a state inside block l becomes a quotient charge
of delta_hat = G_l(w_l + step) - G_l(w_l). The exported constraint pair
(beta, eta) follows the combination arithmetic below and the potential is
Phi_hat(w_hat) + r * sum_l alpha_hat(z_l) Phi_l(w_l) / r_l.

:class:`CombinedRun` checks a run step by step for the structural
identities the construction relies on (hatw, welleqw, samecompratio; the
audit in :mod:`umtslab.harness` adds betatagc) plus reasonableness of the
induced sequences, at the tolerances each identity supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from umtslab.algorithms import OnlineAlgorithm
from umtslab.core import Umts, apply_elementary, step_costs, total_cost
from umtslab.metricspace import (
    Partition,
    induced_metric,
    make_partition,
    min_cross_distance,
    quotient_metric,
)
from umtslab.potential import by_rows
from umtslab.rootfind import brentq
from umtslab.tolerances import EPS_AUDIT, EPS_EQ
from umtslab.transport import not_distribution


# ---------------------------------------------------------------------------
# constraint arithmetic


def combine_beta_eta(u: Umts, partition: Partition, dist_hat: np.ndarray,
                     quotient_pair: tuple[float, float],
                     block_pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """The (beta, eta) the combination satisfies, from the general formula.

    beta is the largest of the block betas and, over ordered block pairs
    (i, j), of

        (beta_hat d_hat(z_i, z_j) + beta_j diam_j + (beta_i + eta_i) diam_i)
            / min cross distance(M_i, M_j);

    eta is eta_hat diam(M_hat)/diam(M) + max_i eta_i diam(M_i)/diam(M).
    """
    qb, qe = quotient_pair
    diams = [induced_metric(u.metric, blk).diameter() for blk in partition.blocks]
    beta = max((bp[0] for bp in block_pairs), default=0.0)
    b = partition.b
    for i in range(b):
        for j in range(b):
            if i == j:
                continue
            cross = min_cross_distance(u.metric, partition, i, j)
            num = (
                qb * dist_hat[i, j]
                + block_pairs[j][0] * diams[j]
                + block_pairs[i][0] * diams[i]
                + block_pairs[i][1] * diams[i]
            )
            beta = max(beta, num / cross)
    diam = u.diameter()
    diam_hat = float(dist_hat.max())
    eta = qe * diam_hat / diam if diam > 0 else 0.0
    eta += max(
        (block_pairs[i][1] * diams[i] / diam for i in range(b) if diam > 0),
        default=0.0,
    )
    return beta, eta


def nice_beta_eta(k: float, quotient_pair: tuple[float, float],
                  block_pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Constraint arithmetic for a nice partition with separation factor k.

    Blocks of equal diameter at cross distance at least k times that
    diameter give beta = max(max_i beta_i, beta_hat + max_{i!=j}
    (beta_i + beta_j + eta_i)/k) and eta = eta_hat + max_i eta_i / k.
    """
    qb, qe = quotient_pair
    beta = max(bp[0] for bp in block_pairs)
    if len(block_pairs) > 1:
        worst = -math.inf
        for i, (bi, ei) in enumerate(block_pairs):
            other = max(bp[0] for j, bp in enumerate(block_pairs) if j != i)
            worst = max(worst, bi + ei + other)
        beta = max(beta, qb + worst / k)
    eta = qe + max(ep[1] for ep in block_pairs) / k
    return beta, eta


# ---------------------------------------------------------------------------
# construction

# work functions each rule's memo keeps
MEMO_SIZE = 8


def one_state(v) -> bool:
    """Whether ``v`` is one state index rather than an array of them; an
    integer is told without ``np.ndim``, which takes microseconds on one."""
    return isinstance(v, (int, np.integer)) or np.ndim(v) == 0


class PotentialMemo:
    """What one rule has been asked at the ``MEMO_SIZE`` work functions
    asked about last, keyed by their float64 bytes; the least recently asked
    is dropped first. An entry holds what the rule computed there:
    ``phi(w)`` with ``g_from(w, phi(w))``, the distribution (read-only) and
    the zero crossing of each requested state, so a hit returns exactly
    what a miss would. A block of one state gets a :class:`PointMemo`
    instead.
    """

    def __init__(self, alg: OnlineAlgorithm):
        self.alg = alg
        self.entries: dict[bytes, dict] = {}

    def _entry(self, w: np.ndarray) -> dict:
        key = w.tobytes()
        entry = self.entries.pop(key, None)
        if entry is None:
            if len(self.entries) >= MEMO_SIZE:
                del self.entries[next(iter(self.entries))]
            entry = {"crossings": {}}
        self.entries[key] = entry
        return entry

    def __call__(self, w: np.ndarray) -> tuple[float, float]:
        """``phi(w)`` and the G value from it."""
        entry = self._entry(w)
        if "phi" not in entry:
            pot = self.alg.phi(w)
            entry["phi"] = (pot, self.alg.g_from(w, pot))
        return entry["phi"]

    def probabilities(self, w: np.ndarray) -> np.ndarray:
        entry = self._entry(w)
        if "p" not in entry:
            entry["p"] = self.alg.probabilities(w)
            entry["p"].setflags(write=False)
        return entry["p"]

    def zero_crossing(self, w: np.ndarray, v):
        """The crossing at state ``v``, or one per state of a 1-D array ``v``;
        the states not asked at ``w`` before go to the rule in one call."""
        known = self._entry(w)["crossings"]
        if one_state(v):
            v = int(v)
            if v not in known:
                known[v] = float(self.alg.zero_crossing(w, v))
            return known[v]
        states = np.asarray(v).tolist()
        missing = list(dict.fromkeys(x for x in states if x not in known))
        if missing:
            known.update(zip(missing, self.alg.zero_crossing(w, np.array(missing)).tolist()))
        return np.array([known[x] for x in states])


# the distribution of every one-state block
POINT_DISTRIBUTION = np.ones(1)
POINT_DISTRIBUTION.setflags(write=False)


class PointMemo:
    """The answers of a one-state block's rule, which sits on its state with
    the zero potential, given without a memo: potential 0.0, G value
    ``w[0] + 0.0`` (the dot product with alpha = [1], which also turns -0.0
    into 0.0), the read-only distribution ``POINT_DISTRIBUTION`` and an
    infinite zero crossing. Nothing is hashed, copied or kept.
    """

    def __init__(self, alg: OnlineAlgorithm):
        self.alg = alg

    @staticmethod
    def fits(alg: OnlineAlgorithm) -> bool:
        """Whether the one-state rule ``alg`` has alpha = [1] and answers at
        w = [0.0] what a point memo answers."""
        w = np.zeros(1)
        return (np.asarray(alg.alpha, dtype=float).tolist() == [1.0] and alg.phi(w) == 0.0
                and alg.probabilities(w).tolist() == [1.0]
                and alg.zero_crossing(w, 0) == math.inf)

    def __call__(self, w: np.ndarray) -> tuple[float, float]:
        return 0.0, float(w[0]) + 0.0

    def probabilities(self, w: np.ndarray) -> np.ndarray:
        return POINT_DISTRIBUTION

    def zero_crossing(self, w: np.ndarray, v):
        return math.inf if one_state(v) else np.full(len(v), math.inf)


@dataclass
class CombinedParts:
    """Everything a combined algorithm and its auditor need to run.

    Every reader of a block rule's values (potential, G value, distribution,
    zero crossing) goes through that block's memo in ``memos``, and every
    reader of the quotient rule's through ``quotient_memo``. The memo of a
    block of one state is a :class:`PointMemo`, whose answers are checked
    here once against the rule's own at w = [0.0]; a one-state rule that
    answers otherwise keeps a :class:`PotentialMemo`. ``order`` lists the
    states block after block, and ``all_points`` says whether every block is
    a point memo's, in which case the G values are ``w[order] + 0.0``.
    """

    u: Umts
    partition: Partition
    block_algs: list[OnlineAlgorithm]
    block_systems: list[Umts]
    block_of: np.ndarray
    local_index: np.ndarray
    global_index: list[np.ndarray]
    quotient_umts: Umts
    quotient_alg: OnlineAlgorithm
    dist_hat: np.ndarray
    beta: float
    eta: float
    memos: list[PotentialMemo | PointMemo] = field(init=False, repr=False)
    quotient_memo: PotentialMemo = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    all_points: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.memos = [PointMemo(a) if len(idx) == 1 and PointMemo.fits(a) else PotentialMemo(a)
                      for a, idx in zip(self.block_algs, self.global_index)]
        self.quotient_memo = PotentialMemo(self.quotient_alg)
        self.order = np.concatenate(self.global_index)
        self.all_points = all(isinstance(memo, PointMemo) for memo in self.memos)

    def split(self, w: np.ndarray) -> list[np.ndarray]:
        return [w[idx] for idx in self.global_index]

    def hat_work(self, w: np.ndarray) -> np.ndarray:
        if self.all_points:
            return w[self.order] + 0.0
        return np.array([memo(wb)[1] for memo, wb in zip(self.memos, self.split(w))])

    def initial_hat_work(self) -> np.ndarray:
        return self.hat_work(np.zeros(self.u.n))


def _crossing_at(memo: PotentialMemo | PointMemo, wb: np.ndarray, lv: int, g0: float,
                 xb: float, xq: float) -> float:
    """Combined zero crossing at local state ``lv`` of a block whose G values
    ``memo`` gives.

    The charge stays within the block crossing ``xb`` and keeps the rise of
    the block's G value, from ``g0`` at ``wb``, within the quotient crossing
    ``xq``.

    Whether the whole block crossing fits is first bounded without the
    block potential. G(w) = <alpha, w> - phi(w) / r with phi >= 0 and r > 0,
    so the G value the memo gives is at most its ``g_from(w, 0.0)``, the
    dot product alone. Rounding is monotone, so the rise computed from that
    dot product bounds the one computed from G through both subtractions,
    and a bound at or below zero decides ``over(xb) <= 0`` exactly: no
    margin is needed.

    A point block's crossing ``xb`` is infinite and its G value at charge x
    is ``w0 + x``, summed on Python floats as the memo's copied array would
    be. The root of ``(w0 + x) - g0 - xq`` is still bracketed and found by
    brentq: solving it in closed form would move the crossing by up to
    1e-12, and with it every later step of the run.
    """
    if xq == math.inf:
        return xb
    if isinstance(memo, PointMemo):
        w0 = float(wb[0])

        def over(x):
            return (w0 + x) - g0 - xq
    else:
        def moved(x):
            wb2 = wb.copy()
            wb2[lv] += x
            return wb2

        def over(x):
            return memo(moved(x))[1] - g0 - xq

        if math.isfinite(xb) and (memo.alg.g_from(moved(xb), 0.0) - g0 - xq <= 0.0
                                  or over(xb) <= 0.0):
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


def block_subsystem(u: Umts, block) -> Umts:
    idx = [u.metric.index(x) for x in block]
    return Umts(induced_metric(u.metric, block), u.rates[idx], u.s, block[0])


def combine(
    u: Umts,
    blocks: list[list[str]],
    block_algs: list[OnlineAlgorithm],
    quotient_builder,
    declared_beta: float | None = None,
    declared_eta: float | None = None,
) -> OnlineAlgorithm:
    """Combine per-block algorithms under a quotient family.

    ``quotient_builder`` maps the quotient system (representatives, block
    ratios as cost ratios, same distance ratio) to an algorithm. Declared
    constraint constants may upgrade the computed ones but never undercut
    them; a computed beta above 1 makes the construction unsound and is
    rejected.
    """
    if len(blocks) != len(block_algs):
        raise ValueError("one algorithm per block required")
    partition = make_partition(u.metric, blocks)
    if partition.b == 1:
        return block_algs[0]
    systems = []
    for a, blk in zip(block_algs, blocks):
        sub = block_subsystem(u, blk)
        systems.append(sub)
        if a.umts.labels != sub.labels:
            raise ValueError(f"block algorithm labels {a.umts.labels} != {sub.labels}")
        if not np.allclose(a.umts.metric.dist, sub.metric.dist, atol=EPS_EQ):
            raise ValueError("block algorithm metric disagrees with induced metric")
        if not np.allclose(a.umts.rates, sub.rates, atol=EPS_EQ) or a.umts.s != sub.s:
            raise ValueError("block algorithm rates or distance ratio disagree")

    qmetric = quotient_metric(u.metric, partition)
    dh = qmetric.dist
    hat_rates = np.array([a.declared_ratio for a in block_algs])
    init_block = next(i for i, blk in enumerate(blocks) if u.initial_state in blk)
    qu = Umts(qmetric, hat_rates, u.s, qmetric.labels[init_block])
    qalg = quotient_builder(qu)

    pairs = [(a.beta, a.eta) for a in block_algs]
    beta, eta = combine_beta_eta(u, partition, dh, (qalg.beta, qalg.eta), pairs)
    if declared_beta is not None:
        if declared_beta < beta - 1e-12:
            raise ValueError(f"declared beta {declared_beta} undercuts computed {beta}")
        beta = declared_beta
    if declared_eta is not None:
        if declared_eta < eta - 1e-12:
            raise ValueError(f"declared eta {declared_eta} undercuts computed {eta}")
        eta = declared_eta
    if beta > 1.0 + EPS_EQ:
        raise ValueError(f"combination needs beta <= 1, got {beta:.6g}")

    n = u.n
    block_of = np.zeros(n, dtype=int)
    local_index = np.zeros(n, dtype=int)
    global_index = []
    for j, blk in enumerate(blocks):
        idx = np.array([u.metric.index(x) for x in blk])
        global_index.append(idx)
        block_of[idx] = j
        local_index[idx] = np.arange(len(blk))

    parts = CombinedParts(
        u=u,
        partition=partition,
        block_algs=list(block_algs),
        block_systems=systems,
        block_of=block_of,
        local_index=local_index,
        global_index=global_index,
        quotient_umts=qu,
        quotient_alg=qalg,
        dist_hat=dh,
        beta=beta,
        eta=eta,
    )

    r = qalg.declared_ratio
    alpha = np.zeros(n)
    for j, idx in enumerate(global_index):
        alpha[idx] = qalg.alpha[j] * np.asarray(block_algs[j].alpha)

    def probs(w):
        w = np.asarray(w, dtype=float)
        p_hat = parts.quotient_memo.probabilities(parts.hat_work(w))
        p = np.zeros(n)
        if parts.all_points:
            p[parts.order] = p_hat
            return p
        for j, (idx, wb) in enumerate(zip(global_index, parts.split(w))):
            p[idx] = p_hat[j] * parts.memos[j].probabilities(wb)
        return p

    def phi(w):
        w = np.asarray(w, dtype=float)
        if parts.all_points:
            return float(parts.quotient_memo(parts.hat_work(w))[0])
        values = [memo(wb) for memo, wb in zip(parts.memos, parts.split(w))]
        total = parts.quotient_memo(np.array([g for _, g in values]))[0]
        for j, (bphi, _) in enumerate(values):
            if bphi != 0.0:
                total += r * qalg.alpha[j] * bphi / hat_rates[j]
        return float(total)

    blocks_of, locals_of = block_of.tolist(), local_index.tolist()

    def crossing(w, v):
        w = np.asarray(w, dtype=float)
        what = parts.hat_work(w)
        if one_state(v):
            j, lv = blocks_of[v], locals_of[v]
            memo, wb = parts.memos[j], w[global_index[j]]
            xq = parts.quotient_memo.zero_crossing(what, j)
            return _crossing_at(memo, wb, lv, float(what[j]), memo.zero_crossing(wb, lv), xq)
        vs, ws = np.asarray(v), parts.split(w)
        js = block_of[vs]
        xqs = parts.quotient_memo.zero_crossing(what, js)
        xbs = np.empty(len(vs))
        for j in sorted(set(js.tolist())):  # np.unique would import numpy.ma on first use
            xbs[js == j] = parts.memos[j].zero_crossing(ws[j], local_index[vs[js == j]])
        return np.array([
            _crossing_at(parts.memos[j], ws[j], int(lv), float(what[j]), xb, xq)
            for j, lv, xb, xq in zip(js, local_index[vs], xbs.tolist(), xqs.tolist())
        ])

    block_slack = max(
        (a.phi_slack / rr for a, rr in zip(block_algs, hat_rates) if rr > 0),
        default=0.0,
    )
    phi_sup = qalg.phi_sup + r * max(
        (a.phi_sup / rr for a, rr in zip(block_algs, hat_rates) if rr > 0),
        default=0.0,
    )
    return OnlineAlgorithm(
        name=f"combine[{qalg.name} / {'+'.join(a.name for a in block_algs)}]",
        umts=u,
        alpha=alpha,
        declared_ratio=r,
        beta=beta,
        eta=eta,
        probabilities=probs,
        phi=by_rows(phi),
        phi_sup=float(phi_sup),
        zero_crossing=crossing,
        descriptor={
            "family": "combined",
            "quotient": qalg.descriptor,
            "blocks": [a.descriptor for a in block_algs],
            "partition": [list(blk) for blk in blocks],
            "beta": beta,
            "eta": eta,
            "ratio": r,
        },
        eta_variant_basis=eta,
        phi_slack=qalg.phi_slack + r * block_slack,
        parts=parts,
    )


# ---------------------------------------------------------------------------
# auditing runs


def trace_header(alg: OnlineAlgorithm, beta: float, p0: np.ndarray) -> dict:
    """Header fields every run trace carries: the system, the rule and its
    start distribution ``p0``."""
    u = alg.umts
    return {
        "kind": "header",
        "labels": list(u.labels),
        "dist": u.metric.dist.tolist(),
        "rates": u.rates.tolist(),
        "s": u.s,
        "initial": u.initial_state,
        "beta": beta,
        "ratio": alg.declared_ratio,
        "algorithm": alg.name,
        "p0": p0.tolist(),
    }


@dataclass
class AuditIssue:
    lemma: str
    step: int
    magnitude: float
    detail: str


def worst_issues(issues: list[AuditIssue]) -> dict[str, dict]:
    """The largest issue of each lemma, with its step and detail."""
    worst: dict[str, dict] = {}
    for issue in issues:
        cur = worst.get(issue.lemma)
        if cur is None or issue.magnitude > cur["magnitude"]:
            worst[issue.lemma] = {
                "magnitude": issue.magnitude, "step": issue.step, "detail": issue.detail
            }
    return worst


def distribution_issues(p: np.ndarray, faulty: np.ndarray, name: str = "") -> tuple[list, list]:
    """The distribution issues of a run through the (k + 1, n) distributions
    ``p``, its start first, whose rows ``faulty`` marks as failing: the
    start's, then one per failing step, each as far off as its sum is from 1.
    ``name`` prefixes the details."""
    off = np.abs(p.sum(axis=-1) - 1.0).tolist()
    start = []
    if faulty[0]:
        start.append(AuditIssue("distribution", 0, off[0], f"{name}start is not a distribution"))
    steps = [AuditIssue("distribution", i, off[i + 1], f"{name}not a distribution")
             for i in np.flatnonzero(faulty[1:]).tolist()]
    return start, steps


@dataclass
class CombinedRun:
    """Check a combined algorithm's structural identities on one run.

    :meth:`step` reads each step as :func:`umtslab.harness.simulate` yields
    it, while the values the run used are still in the memos: it moves the
    block work functions and the quotient one, started at G_l(0), keeps the
    quotient run's charges in ``qv`` (block index) and ``qdelta``, and checks
    resadv (the charge against both crossings), hatw (quotient values equal
    block G values, 1e-6) and welleqw (block and restricted global work
    functions agree, 1e-9). :meth:`report` finishes the audit of the
    recorded run: it takes the rule's own distribution and betatagc issues
    and step costs from the audit, checks the quotient's distributions and
    samecompratio (step cost at most the quotient's, 1e-6 plus any gridded
    slack), prices the quotient run in one call (NaN where a step reads a
    failing distribution), and fills in ``issues`` and ``qcost``.
    """

    alg: OnlineAlgorithm
    issues: list[AuditIssue] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)

    def __post_init__(self):
        parts = self.alg.parts
        if parts is None:
            raise ValueError("algorithm was not built by combine()")
        self.parts = parts
        self.w_blocks = [np.zeros(len(idx)) for idx in parts.global_index]
        # block G values of the block work functions; the quotient run starts there
        self.g = self.what = parts.initial_hat_work()
        self.p_hat0 = parts.quotient_memo.probabilities(self.what)
        # the quotient run's charges: block index and delta_hat of each step
        self.qv: list[int] = []
        self.qdelta: list[float] = []
        # issues of the checks made while reading the steps
        self.read_issues: list[AuditIssue] = []
        self.steps, self.qcost = 0, 0.0
        self.dhat_tol = max(
            EPS_EQ,
            max((a.phi_slack for a in parts.block_algs if math.isfinite(a.phi_slack)),
                default=0.0),
        )

    def header(self, p0: np.ndarray) -> dict:
        """The trace header of a run that starts at the rule's distribution ``p0``."""
        parts = self.parts
        return trace_header(self.alg, parts.beta, p0) | {
            "blocks": [list(b) for b in parts.partition.blocks],
            "dist_hat": parts.dist_hat.tolist(),
            "hat_rates": parts.quotient_umts.rates.tolist(),
            "hat_init": parts.initial_hat_work().tolist(),
            "alpha": np.asarray(self.alg.alpha).tolist(),
            "tol": EPS_AUDIT + self.alg.phi_slack if math.isfinite(self.alg.phi_slack) else None,
            "dhat_tol": self.dhat_tol,
            "p_hat0": self.p_hat0.tolist(),
        }

    def _issue(self, lemma, magnitude, detail):
        self.read_issues.append(AuditIssue(lemma, self.steps, float(magnitude), detail))

    def step(self, v: int, delta: float, w2: np.ndarray, p2: np.ndarray) -> None:
        """Read the rule's step that charges ``delta`` at state ``v`` and
        moves it to the work function ``w2`` and distribution ``p2``, and add
        its trace row, whose costs :meth:`report` fills in.

        The charge moves one block's work function; the quotient charge is
        the rise of that block's G value, clamped at zero.
        """
        parts = self.parts
        u = parts.u
        j, lv = int(parts.block_of[v]), int(parts.local_index[v])
        memo, qmemo = parts.memos[j], parts.quotient_memo

        # reasonableness against both crossings, before moving anything
        xb = memo.zero_crossing(self.w_blocks[j], lv)
        if delta > xb + EPS_EQ:
            self._issue("resadv", delta - xb, f"charge {delta:.6g} beyond block crossing {xb:.6g}")

        w_blocks2 = list(self.w_blocks)
        w_blocks2[j] = apply_elementary(parts.block_systems[j], self.w_blocks[j], lv, delta)
        # the other blocks did not move, so their G values stand
        gvals = self.g.copy()
        gvals[j] = memo(w_blocks2[j])[1]
        raw = float(gvals[j] - self.g[j])
        dhat = max(0.0, raw)
        if -raw > self.dhat_tol:
            self._issue("hatw", -raw, "negative quotient charge beyond tolerance")
        xq = qmemo.zero_crossing(self.what, j)
        if dhat > xq + EPS_EQ:
            self._issue("resadv", dhat - xq, f"quotient charge {dhat:.6g} beyond crossing {xq:.6g}")

        what2 = apply_elementary(parts.quotient_umts, self.what, j, dhat)

        # welleqw: restricted global and block-local work functions agree,
        # checked over all blocks at once and block by block where that fails
        if not (np.abs(w2[parts.order] - np.concatenate(w_blocks2)) <= EPS_EQ).all():
            for i, idx in enumerate(parts.global_index):
                gap = np.abs(w2[idx] - w_blocks2[i]).max()
                if gap > EPS_EQ:
                    self._issue("welleqw", gap, f"block {i} work function drifts")

        # hatw: quotient work function equals the block G values
        gap = np.abs(what2 - gvals).max()
        if gap > EPS_AUDIT:
            self._issue("hatw", gap, "quotient work function detached from block G values")

        self.qv.append(j)
        self.qdelta.append(dhat)
        self.w_blocks, self.g, self.what = w_blocks2, gvals, what2
        self.steps += 1
        self.trace.append({
            "kind": "step", "i": self.steps, "state": u.labels[v], "delta": delta, "block": j,
            "delta_hat": dhat, "w": w2.tolist(), "w_blocks": [wb.tolist() for wb in w_blocks2],
            "what": what2.tolist(), "g": gvals.tolist(), "p": p2.tolist(),
            "p_hat": qmemo.probabilities(what2).tolist(),
        })

    def report(self, run, start: list, distribution: list, betatagc: list) -> dict:
        """Finish the audit of ``run``, the :class:`umtslab.harness.Run`
        whose steps this checker read, each check in one pass. ``start``,
        ``distribution`` and ``betatagc`` are the rule's own issues, and
        ``run.costs`` its step costs. Issues come by step, then by check: the
        start distributions, the checks made while reading, the rule's and
        the quotient's distributions, betatagc and samecompratio."""
        p_hat = np.array([self.p_hat0.tolist()] + [row["p_hat"] for row in self.trace])
        qbad = not_distribution(p_hat)
        qstart, qdistribution = distribution_issues(p_hat, qbad, "quotient ")
        qcost = step_costs(self.parts.quotient_umts, p_hat, np.array(self.qv, dtype=int),
                           np.array(self.qdelta, dtype=float), qbad)
        slack = self.alg.phi_slack
        allow = EPS_AUDIT + slack if math.isfinite(slack) else math.inf
        samecompratio = []
        for i in np.flatnonzero(run.costs > qcost + allow).tolist():
            c, qc = float(run.costs[i]), float(qcost[i])
            detail = f"combined step cost {c:.6g} exceeds quotient {qc:.6g}"
            samecompratio.append(AuditIssue("samecompratio", i, c - qc, detail))
        issues = (start + qstart + self.read_issues + distribution + qdistribution + betatagc
                  + samecompratio)
        issues.sort(key=lambda issue: issue.step)
        for row, c, qc in zip(self.trace, run.costs.tolist(), qcost.tolist()):
            row["cost"], row["qcost"] = c, qc
        self.issues, self.qcost = issues, total_cost(qcost)
        return {
            "steps": self.steps,
            "cost": run.cost,
            "quotient_cost": self.qcost,
            "issues": len(issues),
            "worst": worst_issues(issues),
            "passed": not issues,
        }
