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

:class:`CombinedRun` records, step by step, what the combination does
inside on one run: the block and quotient work functions, the block G
values, the quotient charges and distributions and both zero crossings.
It checks nothing: :mod:`umtslab.checks` holds the identities the
construction relies on, and :func:`umtslab.harness.audit` checks a
recorded run against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from umtslab.algorithms import OnlineAlgorithm
from umtslab.core import Umts, apply_elementary
from umtslab.metricspace import Partition, induced_metric, make_partition, quotient_metric
from umtslab.rootfind import brentq
from umtslab.tolerances import EPS_EQ


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
    diams = partition.max_cross.diagonal()
    betas, etas = (np.array(column, dtype=float) for column in zip(*block_pairs))
    beta = max((bp[0] for bp in block_pairs), default=0.0)
    if partition.b > 1:
        scaled = betas * diams
        # summed in the formula's order, entry by entry
        num = qb * dist_hat + scaled[None, :] + scaled[:, None] + (etas * diams)[:, None]
        off = ~np.eye(partition.b, dtype=bool)
        beta = max(beta, (num[off] / partition.min_cross[off]).max())
    diam = u.diameter()
    diam_hat = float(dist_hat.max())
    eta = qe * diam_hat / diam if diam > 0 else 0.0
    eta += max((bp[1] * d / diam for bp, d in zip(block_pairs, diams.tolist()) if diam > 0),
               default=0.0)
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

    def zero_crossing(self, w: np.ndarray, v: int) -> float:
        """The crossing at state ``v``."""
        known = self._entry(w)["crossings"]
        v = int(v)
        if v not in known:
            known[v] = float(self.alg.zero_crossing(w, v))
        return known[v]


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

    def zero_crossing(self, w: np.ndarray, v: int) -> float:
        return math.inf


@dataclass
class CombinedParts:
    """Everything a combined algorithm and its auditor need to run.

    Every reader of a block rule's values (potential, G value, distribution,
    zero crossing) goes through that block's memo in ``memos``, and every
    reader of the quotient rule's through ``quotient_memo``. The memo of a
    block of one state is a :class:`PointMemo`, whose answers are checked
    here once against the rule's own at w = [0.0]; a one-state rule that
    answers otherwise keeps a :class:`PotentialMemo`. The point blocks
    (``point_blocks``, on the states ``point_states``) are read in one
    index step, and only the other blocks (``memo_blocks``) ask their memos.
    """

    u: Umts
    partition: Partition
    block_algs: list[OnlineAlgorithm]
    quotient_umts: Umts
    quotient_alg: OnlineAlgorithm
    beta: float
    memos: list[PotentialMemo | PointMemo] = field(init=False, repr=False)
    quotient_memo: PotentialMemo = field(init=False, repr=False)
    point_blocks: np.ndarray = field(init=False, repr=False)
    point_states: np.ndarray = field(init=False, repr=False)
    memo_blocks: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        index = self.partition.index
        self.memos = [PointMemo(a) if len(idx) == 1 and PointMemo.fits(a) else PotentialMemo(a)
                      for a, idx in zip(self.block_algs, index)]
        self.quotient_memo = PotentialMemo(self.quotient_alg)
        points = [isinstance(memo, PointMemo) for memo in self.memos]
        self.point_blocks = np.flatnonzero(points)
        self.point_states = np.array([index[j][0] for j in self.point_blocks.tolist()], dtype=int)
        self.memo_blocks = [j for j, point in enumerate(points) if not point]

    def split(self, w: np.ndarray) -> list[np.ndarray]:
        return [w[idx] for idx in self.partition.index]

    def hat_work(self, w: np.ndarray) -> np.ndarray:
        """The block G values at ``w``: a point block's is ``w[v] + 0.0``."""
        g = np.empty(self.partition.b)
        g[self.point_blocks] = w[self.point_states] + 0.0
        for j in self.memo_blocks:
            g[j] = self.memos[j](w[self.partition.index[j]])[1]
        return g

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
    block_algs: list[OnlineAlgorithm],
    quotient_builder,
    declared_beta: float | None = None,
    declared_eta: float | None = None,
) -> OnlineAlgorithm:
    """Combine per-block algorithms under a quotient family.

    The blocks are the block rules' own label tuples, which must partition
    ``u``'s labels. ``quotient_builder`` maps the quotient system
    (representatives, block ratios as cost ratios, same distance ratio) to an
    algorithm. Declared constraint constants may upgrade the computed ones
    but never undercut them; a computed beta above 1 makes the construction
    unsound and is rejected.
    """
    partition = make_partition(u.metric, [a.umts.labels for a in block_algs])
    if partition.b == 1:
        return block_algs[0]
    for a, idx in zip(block_algs, partition.index):
        induced = u.metric.dist[np.ix_(idx, idx)]
        if not np.abs(a.umts.metric.dist - induced).max(initial=0.0) <= EPS_EQ:
            raise ValueError("block algorithm metric disagrees with induced metric")
        if not np.abs(a.umts.rates - u.rates[idx]).max(initial=0.0) <= EPS_EQ or a.umts.s != u.s:
            raise ValueError("block algorithm rates or distance ratio disagree")

    qmetric = quotient_metric(partition)
    hat_rates = np.array([a.declared_ratio for a in block_algs])
    init_block = partition.block_of[u.metric.index(u.initial_state)]
    qu = Umts(qmetric, hat_rates, u.s, qmetric.labels[init_block])
    qalg = quotient_builder(qu)

    pairs = [(a.beta, a.eta) for a in block_algs]
    beta, eta = combine_beta_eta(u, partition, qmetric.dist, (qalg.beta, qalg.eta), pairs)
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

    parts = CombinedParts(
        u=u,
        partition=partition,
        block_algs=list(block_algs),
        quotient_umts=qu,
        quotient_alg=qalg,
        beta=beta,
    )

    n, r, index = u.n, qalg.declared_ratio, partition.index
    alpha = np.zeros(n)
    for j, idx in enumerate(index):
        alpha[idx] = qalg.alpha[j] * np.asarray(block_algs[j].alpha)

    # a point block's distribution is [1], so its state gets the quotient mass
    def probs(w):
        w = np.asarray(w, dtype=float)
        p_hat = parts.quotient_memo.probabilities(parts.hat_work(w))
        p = np.zeros(n)
        p[parts.point_states] = p_hat[parts.point_blocks]
        for j in parts.memo_blocks:
            p[index[j]] = p_hat[j] * parts.memos[j].probabilities(w[index[j]])
        return p

    # a point block's potential is 0, so it adds nothing
    def phi(w):
        w = np.asarray(w, dtype=float)
        total = parts.quotient_memo(parts.hat_work(w))[0]
        for j in parts.memo_blocks:
            bphi = parts.memos[j](w[index[j]])[0]
            if bphi != 0.0:
                total += r * qalg.alpha[j] * bphi / hat_rates[j]
        return float(total)

    blocks_of, locals_of = partition.block_of.tolist(), partition.local_index.tolist()

    def crossing(w, v):
        w = np.asarray(w, dtype=float)
        what = parts.hat_work(w)
        j, lv = blocks_of[v], locals_of[v]
        memo, wb = parts.memos[j], w[index[j]]
        xq = parts.quotient_memo.zero_crossing(what, j)
        return _crossing_at(memo, wb, lv, float(what[j]), memo.zero_crossing(wb, lv), xq)

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
        phi=phi,
        phi_sup=float(phi_sup),
        zero_crossing=crossing,
        descriptor={
            "family": "combined",
            "quotient": qalg.descriptor,
            "blocks": [a.descriptor for a in block_algs],
            "partition": [list(blk) for blk in partition.blocks],
            "beta": beta,
            "eta": eta,
            "ratio": r,
        },
        eta_variant_basis=eta,
        phi_slack=qalg.phi_slack + r * block_slack,
        parts=parts,
    )


# ---------------------------------------------------------------------------
# recording runs


@dataclass
class CombinedRun:
    """Record what a combined rule does inside on one run; check nothing.

    :meth:`step` reads each step as :func:`umtslab.harness.simulate` yields
    it, while the values the run used are still in the memos. Each list
    gets one entry per step: the charged block (``block``), the zero
    crossings before the charge in that block (``xb``) and in the quotient
    (``xq``), the quotient charge (``delta_hat``), and after the step the
    block work functions (``w_blocks``, one array per block), the block G
    values (``g``), the quotient work function (``what``) and distribution
    (``p_hat``); the last four hold the start first. The quotient run
    starts at the block G values G_l(0).
    """

    alg: OnlineAlgorithm

    def __post_init__(self):
        parts = self.alg.parts
        if parts is None:
            raise ValueError("algorithm was not built by combine()")
        self.parts = parts
        g0 = parts.initial_hat_work()
        self.block, self.xb, self.xq, self.delta_hat = [], [], [], []
        self.w_blocks = [[np.zeros(len(idx)) for idx in parts.partition.index]]
        self.g, self.what = [g0], [g0]
        self.p_hat = [parts.quotient_memo.probabilities(g0)]

    def step(self, v: int, delta: float) -> None:
        """Record the rule's step that charges ``delta`` at state ``v``. The
        charge moves one block's work function; the quotient charge is the
        rise of that block's G value, clamped at zero."""
        parts = self.parts
        j, lv = int(parts.partition.block_of[v]), int(parts.partition.local_index[v])
        memo, qmemo = parts.memos[j], parts.quotient_memo
        w_blocks, g, what = self.w_blocks[-1], self.g[-1], self.what[-1]
        self.block.append(j)
        self.xb.append(memo.zero_crossing(w_blocks[j], lv))
        w_blocks2 = list(w_blocks)
        w_blocks2[j] = apply_elementary(parts.block_algs[j].umts, w_blocks[j], lv, delta)
        # the other blocks did not move, so their G values stand
        gvals = g.copy()
        gvals[j] = memo(w_blocks2[j])[1]
        dhat = max(0.0, float(gvals[j] - g[j]))
        self.xq.append(qmemo.zero_crossing(what, j))
        what2 = apply_elementary(parts.quotient_umts, what, j, dhat)
        self.delta_hat.append(dhat)
        self.w_blocks.append(w_blocks2)
        self.g.append(gvals)
        self.what.append(what2)
        self.p_hat.append(qmemo.probabilities(what2))
