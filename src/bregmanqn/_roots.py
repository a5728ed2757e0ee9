"""Safeguarded Newton in log-space for the determinant equation.

The scaling equation of the weighted updates (k = n - 1) and the
dual-coordinate inversion (k = n) are one equation,

    g(ld) = ld - k * log nu(ld) - t = 0,        ld = log z,

with g' = 1 - k * beta(ld) > 0 for admissible potentials (beta < 1/n,
k <= n).  geometry.solve_det_equation solves it in closed form when beta
is constant and otherwise calls this bracketed Newton with rtsafe's
bisection safeguard.  The bracket grows outward until g changes sign, so
the root is found at any log det a float64 factor can represent.
"""

from __future__ import annotations

import numpy as np

from .errors import MaxIterations, RootNotBracketed

MAX_ITER = 200


def newton_bisect_log(g, dg, ld0, tol):
    """Root of an increasing g(ld); stops when |g(ld)| <= tol.

    g, dg: function and derivative of ld = log z
    ld0:   Newton start, clipped into the bracket

    The bracket starts at [log 1e-12, log 1e12] and doubles outward until
    g changes sign; RootNotBracketed means g became non-finite first.
    Each evaluated point then shrinks the bracket.  The safeguard is
    rtsafe's (Press et al., Numerical Recipes, sec. 9.4): the next point
    is the bracket's midpoint when the Newton point leaves the bracket or
    its step is more than half the step before last, so Newton cannot
    alternate between two points inside the bracket.
    """

    def value(ld):
        gval = g(ld)
        if not np.isfinite(gval):
            raise RootNotBracketed(f"residual is {gval} at log z = {ld:.6g}")
        return gval

    lo, hi = np.log(1e-12), np.log(1e12)
    step = 0.5 * (hi - lo)
    while value(lo) > 0.0:
        lo -= step
        step *= 2.0
    step = 0.5 * (hi - lo)
    while value(hi) < 0.0:
        hi += step
        step *= 2.0

    ld = float(np.clip(ld0, lo, hi))
    last = before = np.inf  # the last step and the one before it
    for _ in range(MAX_ITER):
        gval = value(ld)
        if abs(gval) <= tol:
            return ld
        if gval > 0.0:
            hi = ld
        else:
            lo = ld
        dval = dg(ld)
        cand = ld - gval / dval if np.isfinite(dval) and dval != 0.0 else np.nan
        if not (lo < cand < hi and abs(cand - ld) <= 0.5 * before):
            cand = 0.5 * (lo + hi)
        before, last = last, abs(cand - ld)
        ld = cand
    raise MaxIterations(f"scalar solve did not converge within {MAX_ITER} iterations")
