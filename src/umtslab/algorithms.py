"""Stable online algorithm families on unfair metrical task systems.

Every constructor returns an :class:`OnlineAlgorithm` bundling the
probability rule, a valid potential (analytic where available, gridded
otherwise), the declared competitive ratio, and the constraint constants
(beta, eta) used by the combining machinery. Rules are pure functions of
the work function; all randomness lives in the probability vector itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from umtslab.core import FLOAT_STATES, Umts
from umtslab.metricspace import scale_metric
from umtslab.potential import (
    BandPotential,
    TwoPointRule,
    elementwise,
    estimate_potential,
    grid_shape,
    zero_potential,
)
from umtslab.rootfind import brentq
from umtslab.tolerances import EPS_EQ


@dataclass
class OnlineAlgorithm:
    """A stable rule with its potential, ratio, and constraint constants.

    ``probabilities(w)`` maps a work function to a distribution over states;
    the atomic families take work functions of shape ``(..., n)`` and return
    one distribution per leading index, and answer one work function held as
    a list of Python floats, as :func:`umtslab.harness.simulate` holds it up
    to ``FLOAT_STATES`` states, with a list.
    ``phi(w)`` is a potential certifying the declared ratio, a float for
    one work function; an atomic rule's also takes a stack of shape
    ``(..., n)`` and gives one value per leading index, while a combined
    rule's takes one work function only;
    ``zero_crossing(w, v)`` is the largest charge at state index ``v`` that
    keeps the run reasonable (probability positive throughout), a float, for
    one work function given as an array or a list.
    ``local_cost_integral(w, v, delta)`` is the local cost of raising
    ``w[..., v]`` by ``delta`` for work functions of shape ``(..., n)``, one
    value per leading index; ``delta`` is one charge or an array of them
    aligned with the leading axes.
    """

    name: str
    umts: Umts
    alpha: np.ndarray
    declared_ratio: float
    beta: float
    eta: float
    probabilities: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], float | np.ndarray]
    phi_sup: float
    zero_crossing: Callable[[np.ndarray, int], float]
    descriptor: dict
    eta_variant_basis: float
    local_cost_integral: Callable[[np.ndarray, int, float | np.ndarray], np.ndarray] | None = None
    phi_slack: float = 0.0
    symmetric_rule: bool = False
    parts: object | None = None

    def g_value(self, w) -> float:
        """<alpha, w> - phi(w) / r, the quotient charge bookkeeping value."""
        return self.g_from(w, self.phi(w))

    def g_from(self, w, pot: float) -> float:
        """The G value at ``w`` from its potential ``pot = phi(w)``, already known."""
        base = float(np.asarray(self.alpha) @ np.asarray(w))
        if pot == 0.0:
            return base
        return base - pot / self.declared_ratio

    @property
    def potential_bound(self) -> float:
        """eta * r * diam, the declared ceiling on the potential."""
        return self.eta * self.declared_ratio * self.umts.diameter()


def probabilities(a: OnlineAlgorithm, w) -> np.ndarray:
    """Distribution the algorithm holds at work function ``w``."""
    return a.probabilities(np.asarray(w, dtype=float))


def trivial_algorithm(u: Umts, state: str | None = None) -> OnlineAlgorithm:
    """Sit on one state forever; ratio equals that state's cost ratio.

    The default state is the lexicographically first label. The potential
    is identically zero and both constraint constants vanish, which is what
    makes these the cheap leaves of combined constructions.
    """
    label = min(u.labels) if state is None else state
    v = u.metric.index(label)
    alpha = np.zeros(u.n)
    alpha[v] = 1.0
    rate = float(u.rates[v])
    crossings = [0.0] * u.n
    crossings[v] = math.inf

    def probs(w):
        if isinstance(w, list):
            p = [0.0] * len(w)
            p[v] = 1.0
            return p
        p = np.zeros(np.shape(w))
        p[..., v] = 1.0
        return p

    def crossing(w, j):
        return crossings[j]

    def local_integral(w, j, delta):
        return np.full(np.shape(w)[:-1], rate * delta if j == v else 0.0)

    return OnlineAlgorithm(
        name=f"trivial({label})",
        umts=u,
        alpha=alpha,
        declared_ratio=rate,
        beta=0.0,
        eta=0.0,
        probabilities=probs,
        phi=zero_potential,
        phi_sup=0.0,
        zero_crossing=crossing,
        descriptor={"family": "trivial", "state": label, "ratio": rate},
        eta_variant_basis=0.0,
        local_cost_integral=local_integral,
    )


def require_uniform(u: Umts) -> float:
    d = u.diameter()
    off = u.metric.dist[~np.eye(u.n, dtype=bool)]
    if np.abs(off - d).max() > EPS_EQ * max(1.0, d):
        raise ValueError("rule requires a uniform metric")
    return d


def odd_exponent(u: Umts) -> OnlineAlgorithm:
    """Polynomial rule on a uniform space, ratio max(r) + 6 s ln b.

    The exponent is the smallest odd integer at least ln b, so the rule
    stays monotone while the potential stays within a (1, 1)-constraint.
    The b = 2 potential comes from the exact band construction; larger b
    use the gridded least potential.
    """
    n = u.n
    if n < 2:
        raise ValueError("need at least two states")
    d = require_uniform(u)
    b = n
    t = max(1, math.ceil(math.log(b)))
    if t % 2 == 0:
        t += 1
    r = float(u.rates.max()) + 6.0 * u.s * math.log(b)
    alpha = np.full(n, 1.0 / b)
    rates = np.asarray(u.rates, dtype=float)

    def raw(w):
        diffs = (w[..., None, :] - w[..., :, None]) / d
        return (1.0 + _int_power(diffs, t).sum(axis=-1)) / b

    # one work function on at most FLOAT_STATES states, where t <= 3, is
    # worked through on Python floats; above the cutoff numpy passes on the array
    def float_probs(values: list) -> list:
        # raw(w) on Python floats, row after row, each summed as numpy sums it
        terms = _float_powers([(x - wv) / d for wv in values for x in values], t)
        p = [max((1.0 + left_sum(terms[i:i + n])) / b, 0.0) for i in range(0, n * n, n)]
        total = left_sum(p)
        return [x / total for x in p]

    def probs(w):
        if n <= FLOAT_STATES:
            if isinstance(w, list):
                return float_probs(w)
            w = np.asarray(w, dtype=float)
            if w.ndim == 1:
                # one array, as a combined rule's memo asks
                return np.array(float_probs(w.tolist()))
        p = np.maximum(raw(np.asarray(w, dtype=float)), 0.0)
        return p / p.sum(axis=-1, keepdims=True)

    # rest[v]: the other states, in order; cols[v][x]: dist(x, v), read on
    # Python floats up to the cutoff
    rest = np.array([[x for x in range(n) if x != v] for v in range(n)])
    dist = u.metric.dist
    cols = u.metric.dist_columns if n <= FLOAT_STATES else None

    def crossing(w, v):
        if n <= FLOAT_STATES:
            values = w if isinstance(w, list) else np.asarray(w, dtype=float).tolist()
            wv = values[v]
            # raw(w)[v], its terms summed as numpy sums them
            if (1.0 + left_sum(_float_powers([(x - wv) / d for x in values], t))) / b <= 1e-12:
                return 0.0
            # the support headroom at v, as core.support_headrooms computes it
            reach = list(map(operator.add, values, cols[v]))
            reach[v] = math.inf
            head = min(reach) - wv
            others = [x - wv for x in values]
            del others[v]
            # the polynomial falls strictly: its root, capped by the headroom
            return min(max(odd_crossing_closed(others, d, t), 0.0), head)
        w = np.asarray(w, dtype=float)
        wv = w[v]
        if (1.0 + _int_power((w - wv) / d, t).sum()) / b <= 1e-12:
            return 0.0
        reach = w + dist[:, v]
        reach[v] = math.inf
        head = float(reach.min() - wv)
        others = w[rest[v]] - wv
        if t in CLOSED_FORM_EXPONENTS:
            return min(max(odd_crossing_closed(others.tolist(), d, t), 0.0), head)
        if 1.0 + _int_power((others - head) / d, t).sum() > 0.0:
            return head
        return odd_crossing_bracketed(others, head, d, t)

    def local_integral(w, v, delta):
        w = np.asarray(w, dtype=float)
        a = (w[..., rest[v]] - w[..., v, None]) / d
        poly = _int_power(a, t + 1)
        poly -= _int_power(a - np.asarray(delta / d)[..., None], t + 1)
        poly *= d / (t + 1)
        return rates[v] * (delta + poly.sum(axis=-1)) / b

    alg = OnlineAlgorithm(
        name=f"odd-exponent(b={b})",
        umts=u,
        alpha=alpha,
        declared_ratio=r,
        beta=1.0,
        eta=1.0,
        probabilities=probs,
        phi=zero_potential,
        phi_sup=0.0,
        zero_crossing=crossing,
        descriptor={
            "family": "odd-exponent",
            "b": b,
            "t": t,
            "ratio": r,
            "eta_sharp": 1.0 / max(1, math.ceil(math.log(b))),
        },
        eta_variant_basis=1.0,
        local_cost_integral=local_integral,
        symmetric_rule=True,
    )
    if b == 2:
        band = _odd_exponent_band(u, d, t, r)
        return replace(alg, phi=_gap_potential(band.phi), phi_sup=band.sup())
    _, _, fits = grid_shape(alg)
    if not fits:
        return replace(
            alg,
            phi_slack=math.inf,
            descriptor={**alg.descriptor, "potential": "omitted (state grid too large)"},
        )
    est = estimate_potential(alg)
    return replace(
        alg,
        phi=est.phi,
        phi_sup=est.sup,
        phi_slack=est.slack,
        descriptor={**alg.descriptor, "potential_converged": est.converged},
    )


def _gap_potential(phi: Callable) -> Callable:
    """The potential ``phi(w[0] - w[1])`` of a two-state work function, a
    float for one and one value per leading index for a stack of shape
    (..., 2), whose gaps are taken in one array subtraction and handed to
    ``phi`` as one array."""

    def stacked(w):
        w = np.asarray(w, dtype=float)
        gaps = w[..., 0] - w[..., 1]
        return phi(float(gaps)) if gaps.ndim == 0 else phi(gaps)

    return stacked


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k for a positive integer k, as k - 1 products made in place.

    With an integer exponent numpy's ``**`` calls libm ``pow`` per element,
    which on the potential grid's arrays costs about 40 times the products;
    they differ from it in the last bits only.
    """
    if k == 1:
        return x
    out = x * x
    for _ in range(k - 2):
        out *= x
    return out


def _float_powers(xs: list, k: int) -> list:
    """x ** k of each float x of ``xs`` for k = 1 or 3, as the products of
    :func:`_int_power`."""
    return xs if k == 1 else [x * x * x for x in xs]


def left_sum(values) -> float:
    """The floats ``values`` added left to right from 0.0.

    This is numpy's ``add.reduce`` of fewer than 8 terms bit for bit, and
    the built-in ``sum`` before Python 3.12, from which ``sum`` compensates
    float rounding and so gives other bits.
    """
    total = 0.0
    for x in values:
        total += x
    return total


# odd exponents whose zero crossing is solved in closed form, which covers
# every b <= 20; larger exponents bracket it with brentq
CLOSED_FORM_EXPONENTS = (1, 3)


def odd_crossing_closed(others, d: float, t: int) -> float:
    """Root x of 1 + sum_i ((o_i - x) / d)^t for the values o of ``others``, t = 1 or 3.

    With m values, t = 1 has the linear root (d + sum o) / m. At t = 3,
    shifting x by the mean of o leaves the depressed cubic
    z^3 + 3 p z - 2 h = 0 with p >= 0, whose one real root is taken in the
    cancellation-free Cardano form z = 2 h / (c^2 + p + (p / c)^2), where
    c^3 = h + sign(h) sqrt(h^2 + p^3) is the cube of larger magnitude.
    Scalar float arithmetic: the crossing asks for one root per call, which
    numpy's per-call overhead would dominate. The sums are :func:`left_sum`,
    whose bits do not change with the Python version.
    """
    m = len(others)
    if t == 1:
        return (d + left_sum(others)) / m
    mu = left_sum(others) / m
    dev = [o - mu for o in others]
    p = left_sum(e * e for e in dev) / m
    h = (d**3 + left_sum(e * e * e for e in dev)) / (2 * m)
    c3 = h + math.copysign(math.sqrt(h * h + p * p * p), h)
    c = math.copysign(abs(c3) ** (1.0 / 3.0), c3)
    return mu + 2.0 * h / (c * c + p + (p / c) ** 2)


def odd_crossing_bracketed(others: np.ndarray, head: float, d: float, t: int) -> float:
    """Root in [0, head] of 1 + sum_i ((o_i - x) / d)^t, by brentq to 1e-12."""

    def q(x):
        return 1.0 + _int_power((others - x) / d, t).sum()

    return float(brentq(q, 0.0, head, xtol=1e-12))


_math_pow = np.frompyfunc(math.pow, 2, 1)


def _pow(x, k: int):
    """x ** k of a float, or of each element of a float array by
    ``math.pow``, which gives each element the bits of the float's ``**``
    (numpy's vectorised ``pow`` can differ from it in the last bit). The
    float test comes first: band ``phi`` on one gap calls this six times."""
    if isinstance(x, float):
        return x**k
    return np.asarray(_math_pow(x, k), dtype=float)


def _odd_exponent_band(u: Umts, d: float, t: int, r: float) -> BandPotential:
    r1, r2 = float(u.rates[0]), float(u.rates[1])
    rule = TwoPointRule(
        d=d,
        s=u.s,
        r1=r1,
        r2=r2,
        ratio=r,
        alpha1=0.5,
        alpha2=0.5,
        p1=lambda y: 0.5 - 0.5 * _pow(y / d, t),
        dp1=lambda y: -0.5 * t * _pow(y / d, t - 1) / d,
        P1=lambda y: 0.5 * y - (d / (2 * (t + 1))) * _pow(y / d, t + 1),
    )
    return BandPotential(rule)


# ---------------------------------------------------------------------------
# exponential rule on two points


def _phim1(q: float) -> float:
    """expm1(q) / q, stable through q = 0 and saturating above the
    float64 exponent range (the reciprocal then contributes nothing)."""
    if q == 0.0:
        return 1.0
    if q > 709.0:
        return math.inf
    return math.expm1(q) / q


def two_stable_ratio(s: float, r1: float, r2: float) -> float:
    """r1 + (r1 - r2) / (e^((r1 - r2)/s) - 1), continuously extended."""
    z = (r1 - r2) / s
    return r1 + s / _phim1(z)


_TS_SERIES_Z = 1e-6


def _ts_p1(y: float, d: float, z: float) -> float:
    xi = 0.5 + y / (2.0 * d)
    if z == 0.0:
        p = 1.0 - xi
    else:
        p = 1.0 - math.expm1(z * xi) / math.expm1(z)
    return min(1.0, max(0.0, p))


def _ts_big_p1(y: float, d: float, z: float) -> float:
    """Antiderivative of the p1 curve with value 0 at y = 0."""
    if abs(z) < _TS_SERIES_Z:
        base = 0.5 * y - y * y / (4.0 * d)
        return base - z * y * (y * y / (24.0 * d * d) - 0.125)
    inner = y * math.exp(z / 2.0) * _phim1(z * y / (2.0 * d)) - y
    return y - inner / math.expm1(z)


def _ts_phi_raw(y: float, d: float, z: float, r1: float, r2: float) -> float:
    """Unnormalized convex potential; exact for large z, z-series near 0."""
    if abs(z) >= _TS_SERIES_Z:
        a = (r1 + r2) * math.exp(z / 2.0) * y * _phim1(z * y / (2.0 * d))
        a -= y * (r1 * math.exp(z) + r2)
        return a / (2.0 * math.expm1(z))
    c1 = y * ((r2 - r1) / 2.0 + (r1 + r2) * y / (4.0 * d))
    c2 = y * ((r1 + r2) * (0.125 + y / (8.0 * d) + y * y / (24.0 * d * d)) - r1 / 2.0)
    return c1 / 2.0 + (z / 2.0) * (c2 - c1 / 2.0)


def _ts_minimizer(d: float, z: float, r1: float, r2: float) -> float:
    if r1 + r2 == 0.0:
        return 0.0
    if abs(z) < _TS_SERIES_Z:
        return d * (r1 - r2) / (r1 + r2)
    xi = math.log1p(r1 * math.expm1(z) / (r1 + r2)) / z
    return d * (2.0 * xi - 1.0)


def two_stable(u: Umts) -> OnlineAlgorithm:
    """Exponential-balance rule on two points with its exact potential.

    Ratio r1 + (r1 - r2)/(e^((r1-r2)/s) - 1), symmetric in the two states.
    The potential is the convex closed form pinned to zero at its interior
    minimum; it satisfies the sensibility inequality with equality in both
    charge directions, so the declared ratio is tight.
    """
    if u.n != 2:
        raise ValueError("rule is defined on two states")
    d = u.diameter()
    r1, r2 = float(u.rates[0]), float(u.rates[1])
    z = (r1 - r2) / u.s
    if abs(z) > 500.0:
        raise ValueError(
            "cost ratio gap exceeds the stable range of the two-state "
            f"closed forms (|r1 - r2|/s = {abs(z):.3g} > 500)"
        )
    r = two_stable_ratio(u.s, r1, r2)
    alpha = np.array([0.5, 0.5])
    y_star = _ts_minimizer(d, z, r1, r2)
    phi_floor = _ts_phi_raw(y_star, d, z, r1, r2)

    # the closed forms stay on scalar math.exp/expm1 so every value keeps its bits
    @elementwise
    def p1(y):
        return _ts_p1(y, d, z)

    def probs(w):
        if isinstance(w, list):
            p = _ts_p1(w[0] - w[1], d, z)
            return [p, 1.0 - p]
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            # one array, as a combined rule's memo asks
            return np.array(probs(w.tolist()))
        p = p1(w[..., 0] - w[..., 1])
        out = np.empty(np.shape(p) + (2,))
        out[..., 0] = p
        out[..., 1] = 1.0 - p
        return out

    @elementwise
    def phi(y):
        y = min(max(y, -d), d)
        return max(0.0, _ts_phi_raw(y, d, z, r1, r2) - phi_floor)

    def crossing(w, v):
        y = float(w[0] - w[1])
        return (max(0.0, d - y), max(0.0, d + y))[v]

    def local_step(y, v, delta):
        if v == 0:
            return r1 * (_ts_big_p1(y + delta, d, z) - _ts_big_p1(y, d, z))
        return r2 * (delta - (_ts_big_p1(y, d, z) - _ts_big_p1(y - delta, d, z)))

    local_steps = np.vectorize(local_step, otypes=[float])

    def local_integral(w, v, delta):
        w = np.asarray(w, dtype=float)
        return local_steps(w[..., 0] - w[..., 1], v, delta)

    phi_sup = max(
        _ts_phi_raw(-d, d, z, r1, r2) - phi_floor,
        _ts_phi_raw(d, d, z, r1, r2) - phi_floor,
    )
    return OnlineAlgorithm(
        name="two-stable",
        umts=u,
        alpha=alpha,
        declared_ratio=r,
        beta=1.0,
        eta=4.0,
        probabilities=probs,
        phi=_gap_potential(phi),
        phi_sup=float(phi_sup),
        zero_crossing=crossing,
        descriptor={"family": "two-stable", "r1": r1, "r2": r2, "s": u.s, "ratio": r},
        eta_variant_basis=2.0,
        local_cost_integral=local_integral,
        symmetric_rule=abs(r1 - r2) < EPS_EQ,
    )


def rho_variant(
    family: Callable[[Umts], OnlineAlgorithm], u: Umts, rho: float
) -> OnlineAlgorithm:
    """Build ``family`` at distance ratio s / rho on the rho-scaled metric of ``u``.

    The returned algorithm runs on ``u`` and evaluates the inner rule and
    potential on the same work functions, which on reasonable runs never
    leave the inner rule's admissible region. Only the inner rule is built:
    the name, beta and eta basis taken from it are the family's constants,
    the same on every system. The constraint pair tightens to
    (rho * beta, rho * eta_basis); rho * beta must stay at most 1 for the
    result to remain usable in combinations.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    inner = family(Umts(scale_metric(u.metric, rho), u.rates, u.s / rho, u.initial_state))
    if inner.beta * rho > 1.0 + EPS_EQ:
        raise ValueError("scaled beta exceeds 1")
    if rho == 1.0:
        return inner
    eta = inner.eta_variant_basis * rho
    return replace(
        inner,
        name=f"{rho:g}-variant {inner.name}",
        umts=u,
        beta=inner.beta * rho,
        eta=eta,
        descriptor={"family": "rho-variant", "rho": rho, "base": inner.descriptor},
        eta_variant_basis=eta,
        parts=None,  # a combined inner rule's blocks live on the scaled system
    )
