"""`umtslab verify` in stacked passes against the row loop, on written traces
that one number of has been perturbed."""

import functools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_verify
from umtslab import cli
from umtslab.harness import ADVERSARY_KINDS
from umtslab.tolerances import EPS_AUDIT, EPS_EQ

FAMILIES = {
    "trivial": ({"kind": "uniform", "points": 3, "rates": [5.0, 1.0, 2.0]}, "trivial"),
    "two-stable": ({"kind": "uniform", "points": 2, "rates": [3.0, 1.0]}, "two-stable"),
    "odd-b2": ({"kind": "uniform", "points": 2}, "odd-exponent"),
    "odd-b4": ({"kind": "uniform", "points": 4}, "odd-exponent"),
    "combined": ({"kind": "uniform", "points": 5, "rates": [3.7, 0.4, 1.9, 0.9, 2.6]},
                 "combined"),
    "wcombined": ({"kind": "uniform", "points": 5, "rates": [4.5, 0.8, 0.8, 0.8, 0.8]},
                  "wcombined"),
    "caching-k3": ({"kind": "caching", "fetch_costs": [1.0, 0.6, 1.7, 1.2]}, "caching"),
    "line8": ({"kind": "line", "points": 8}, "line"),
}

# the fields verify compares with a value it recomputes, and the tolerance
# of that check; a step number and a block index must match exactly
CHECKED = {
    "i": 0.0, "block": 0.0, "w": EPS_EQ, "w_blocks": EPS_EQ, "what": EPS_EQ, "g": EPS_AUDIT,
    "p": EPS_EQ, "p_hat": EPS_EQ, "cost": EPS_AUDIT, "qcost": EPS_AUDIT, "p0": EPS_EQ,
    "p_hat0": EPS_EQ, "dist": EPS_EQ, "dist_hat": EPS_EQ,
}


@functools.lru_cache(maxsize=None)
def traces() -> tuple:
    """(name, lines) of a 12-step trace of every family under every
    adversary kind, each line as ``umtslab run`` writes it."""
    out = []
    for name, (space, algorithm) in FAMILIES.items():
        for kind in ADVERSARY_KINDS:
            trace = cli._run_job(space, algorithm, {"kind": kind, "steps": 12}, 0)["trace"]
            out.append((f"{name}-{kind}", tuple(cli.TRACE_ENCODER.encode(x) for x in trace)))
    return tuple(out)


def outcome(verify, lines) -> tuple[int, str]:
    """(exit code, message) of ``verify`` on the trace, as ``umtslab verify``
    reports a malformed one."""
    head, *rows = [json.loads(line) for line in lines]
    try:
        return verify(head, rows)
    except (KeyError, TypeError, ValueError) as exc:
        return 2, f"malformed trace: {exc}"


def number_paths(value, path=()):
    """The index path of every number in a (nested) list, or () for a number."""
    if isinstance(value, list):
        for i, x in enumerate(value):
            yield from number_paths(x, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


@pytest.mark.parametrize("name", [name for name, _ in traces()])
def test_written_traces_verify_as_in_the_row_loop(name):
    lines = dict(traces())[name]
    code, message = outcome(cli._verify, lines)
    assert code == 0, message
    assert (code, message) == outcome(reference_verify, lines)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_perturbed_trace_verifies_as_in_the_row_loop(data):
    """One number of a written trace moves by 10 times the tolerance of its
    check, by 0.5 or to NaN. Stacked verify must give the row loop's exit
    code and message, and exit 1 when a checked field moved beyond its
    tolerance; a negative or NaN charge is malformed (exit 2)."""
    _, lines = data.draw(st.sampled_from(traces()))
    at = data.draw(st.integers(0, len(lines) - 1))
    line = json.loads(lines[at])
    key = data.draw(st.sampled_from(sorted(k for k in line if list(number_paths(line[k])))))
    path = (key,) + data.draw(st.sampled_from(list(number_paths(line[key]))))
    tol = CHECKED.get(key, EPS_EQ)
    amount = data.draw(st.sampled_from([10 * max(tol, EPS_EQ), 0.5, math.nan]))
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    holder, slot = functools.reduce(lambda x, i: x[i], path[:-1], line), path[-1]
    old = holder[slot]
    new = holder[slot] = old + sign * amount
    perturbed = list(lines)
    perturbed[at] = json.dumps(line)

    got = outcome(cli._verify, perturbed)
    if key in ("delta", "delta_hat") and not new >= 0.0:
        assert got[0] == 2, got
    else:
        assert got == outcome(reference_verify, perturbed)
    if key in CHECKED and not abs(new - old) <= tol:
        # a NaN distance makes the header unusable, not a violated metric
        assert got[0] == (2 if key == "dist" and math.isnan(new) else 1), got
