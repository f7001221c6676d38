"""The in-package Brent solver against scipy's brentq, step for step."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from umtslab import rootfind

finite = st.floats(-4.0, 4.0, allow_nan=False)
positive = st.floats(0.05, 5.0)


def solve(solver, f, a, b, **kwargs):
    """(outcome, root or message, points evaluated) of one solve."""
    seen = []

    def traced(x):
        seen.append(x)
        return f(x)

    try:
        root = solver(traced, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc), seen
    return type(root).__name__, root, seen


def same_solve(f, a, b, xtol, maxiter=rootfind.MAXITER):
    """Ours with MAXITER set to ``maxiter`` against scipy with that maxiter."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "MAXITER", maxiter)
        ours = solve(rootfind.brentq, f, a, b, xtol=xtol)
    assert ours == solve(scipy_brentq, f, a, b, xtol=xtol, maxiter=maxiter)


monotone = st.one_of(
    st.tuples(finite, positive, st.sampled_from([1, 3, 5, 7])).map(
        lambda t: lambda x: t[1] * (x - t[0]) ** t[2]
    ),
    st.tuples(finite, positive).map(lambda t: lambda x: math.expm1(t[1] * (x - t[0]))),
    st.tuples(finite, positive).map(lambda t: lambda x: math.atan(t[1] * (x - t[0])) * 1e-3),
    st.tuples(st.lists(finite, min_size=1, max_size=6), positive).map(
        # the odd-exponent crossing polynomial, falling in x
        lambda t: lambda x: 1.0 + sum(((o - x) / t[1]) ** 5 for o in t[0])
    ),
)
wavy = st.one_of(
    st.tuples(finite, st.floats(0.5, 30.0), st.floats(-1.0, 1.0)).map(
        lambda t: lambda x: math.sin(t[1] * x) + t[2] * (x - t[0])
    ),
    st.lists(finite, min_size=2, max_size=5).map(
        lambda roots: lambda x: math.prod(x - r for r in roots)
    ),
    st.tuples(finite, positive).map(lambda t: lambda x: abs(x - t[0]) - t[1] * 0.1),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(monotone, wavy),
    finite,
    st.floats(0.0, 8.0),
    st.sampled_from([1e-12, 1e-13]),
    st.booleans(),
)
def test_matches_scipy_brentq(f, a, width, xtol, flip):
    b = a + width
    if flip:
        a, b = b, a
    same_solve(f, a, b, xtol=xtol)


@settings(max_examples=100, deadline=None)
@given(st.one_of(monotone, wavy), finite, st.floats(0.01, 8.0), st.integers(0, 6))
def test_matches_scipy_brentq_when_it_runs_out_of_iterations(f, a, width, maxiter):
    same_solve(f, a, a + width, xtol=1e-12, maxiter=maxiter)


def test_errors_match_scipy():
    same_solve(lambda x: 1e-200, 0.0, 1.0, 1e-12)  # one sign, product underflowing to 0
    same_solve(lambda x: math.nan if x > 0.6 else x - 0.3, 0.0, 1.0, 1e-12)
    same_solve(lambda x: -0.0 if x == 0.0 else -1.0, 0.0, 1.0, 1e-12)  # a zero end is a root
    step = lambda x: 1.0 if x > 0.3 else -1.0  # noqa: E731
    same_solve(step, 0.0, 1.0, 1e-12, maxiter=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "MAXITER", 3)
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            rootfind.brentq(step, 0.0, 1.0, xtol=1e-12)
