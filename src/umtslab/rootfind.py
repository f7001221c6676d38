"""Brent's root finder on a sign-changing bracket, in plain float arithmetic.

This is the classic method of Brent (1973, *Algorithms for Minimization
without Derivatives*, ch. 4) in the form of scipy's ``brentq`` at its
default ``rtol`` and ``maxiter`` (its C routine and the sign and NaN checks
around it), step for step: the same iterates, the same root and the same
errors for the same function, bracket and ``xtol``. The package only needs
this one solver, so it carries it instead of importing ``scipy.optimize``
into every run.
"""

from __future__ import annotations

import math
import sys

RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def brentq(f, a, b, xtol: float) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    The root is found to within ``xtol + RTOL * |x|``. Raises ValueError
    for f(a) and f(b) of one sign and for a NaN function value;
    RuntimeError when ``MAXITER`` iterations do not converge.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
