"""Quasi-Newton update rules on the PD cone.

The classical BFGS and DFP formulas are the KL projections of the current
approximation onto the secant slice {B : Bs = y}.  Replacing KL with the
Bregman divergence of a determinant potential V yields a one-parameter
perturbation of BFGS:

    B+ = r * BFGS(B) + (1 - r) * y y'/(s'y),      r = nu(det B+) / nu(det B),

where det B+ is pinned by the scalar scaling equation

    z = C * nu(z)^(n-1),        C = det(BFGS(B)) / nu(det B)^(n-1),

whose left-over log-form zeta(z) = log z - (n-1) log nu(z) is strictly
increasing for admissible potentials.  For the log potential (KL, Fletcher's
variational problem) nu is constant and r = 1: that is BFGS.  The problem
posed on H = B^{-1} with s and y swapped is the dual side,
H+ = r * BFGS(H; y, s) + (1 - r) * s s'/(s'y), DFP for r = 1.

Either side is one rank-one change of the Cholesky factor L of B, with
rho = 1/s'y; the primal enters through L's, the dual through z = L^{-1}y:

    primal   J = sqrt(r) L + (sqrt(rho) y - sqrt(r) L q) q',   q = L's/|L's|
    dual     J = (L - rho y (L's)' + sqrt(r rho) y z'/|z|) / sqrt(r)

The primal J maps q to sqrt(rho) y, and J J' = B+ (Goldfarb, Math. Comp.
30, 1976).  In the dual, (I - rho y s') L = L - rho y (L's)' maps z to 0,
so r J J' = (I - rho y s') B (I - rho s y') + r rho y y', which is r H+^{-1}
by Sherman-Morrison, as DFP(B) s = y.  pdlinalg.rank_one_update scales L
by sqrt(r) or 1/sqrt(r) as it copies it and re-triangularizes J.  Neither
log det BFGS(B) = log det B + log s'y - log |L's|^2 nor
log det BFGS(H; y, s) = log s'y - log det B - log |z|^2 needs a factor, so
r is known before the factor is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureViolation, InvalidParameter, require_array, require_type
from .geometry import _LOG, solve_det_equation
from .pdlinalg import PDMatrix, rank_one_update
from .potentials import Potential, from_string as potential_from_string
# newton_bisect_log and cholesky_factorize are unused here but stay bound:
# bench/ traces and checks these module bindings.
from ._roots import newton_bisect_log  # noqa: F401
from .pdlinalg import cholesky_factorize  # noqa: F401


class SecantPair:
    """Step/gradient-difference pair with finite positive curvature s'y, so
    that the secant slice {B symmetric : B s = y} meets the PD cone."""

    __slots__ = ("s", "y", "curvature")

    def __init__(self, s, y):
        # a vector's exact shape keeps the check on its fast path
        s = require_array("s", s, (len(s) if isinstance(s, np.ndarray) and s.ndim == 1 else None,))
        y = require_array("y", y, s.shape)
        # a non-finite entry of s or y makes s'y non-finite, as does overflow
        with np.errstate(over="ignore", invalid="ignore"):
            sty = float(s @ y)
        if not np.isfinite(sty):
            raise InvalidParameter(f"s, y and s'y must be finite, got s'y = {sty!r}")
        if not sty > 0.0:
            raise CurvatureViolation(f"curvature s'y = {sty:.3e} must be positive")
        self.s = s.copy()
        self.y = y.copy()
        self.curvature = sty

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def __repr__(self):
        return f"SecantPair(n={self.n}, curvature={self.curvature:.6g})"


def _require_pair_length(B: PDMatrix, pair: SecantPair) -> None:
    """Raise InvalidParameter unless B is a PDMatrix and pair a SecantPair
    of its length."""
    if require_type("pair", pair, SecantPair).n != require_type("B", B, PDMatrix).n:
        raise InvalidParameter(f"secant pair of length {pair.n} does not fit an n={B.n} matrix")


def _secant_mix(B: PDMatrix, pair: SecantPair, ratio) -> PDMatrix:
    """r * BFGS(B) + (1 - r) * y y'/(s'y) in one rank-one factor step.

    ratio maps log det BFGS(B) to the weight r > 0.
    """
    _require_pair_length(B, pair)
    L = B.L
    Ls = L.T @ pair.s
    sBs = float(Ls @ Ls)
    root_r = np.sqrt(ratio(B.logdet + np.log(pair.curvature) - np.log(sBs)))
    q = Ls / np.sqrt(sBs)
    u = pair.y / np.sqrt(pair.curvature) - root_r * (L @ q)
    return rank_one_update(B, u, q, scale=root_r)


def _dual_mix(B: PDMatrix, pair: SecantPair, ratio) -> PDMatrix:
    """[r * BFGS(H; y, s) + (1 - r) * s s'/(s'y)]^{-1}, H = B^{-1}, in one
    rank-one factor step.

    ratio maps log det BFGS(H; y, s) to the weight r > 0.
    """
    _require_pair_length(B, pair)
    z = B.solve_factor(pair.y)
    zz = float(z @ z)
    root_r = np.sqrt(ratio(np.log(pair.curvature) - B.logdet - np.log(zz)))
    rho = 1.0 / pair.curvature
    v = np.sqrt(rho) * (z / np.sqrt(zz)) - (rho / root_r) * (B.L.T @ pair.s)
    return rank_one_update(B, pair.y, v, scale=1.0 / root_r)


def _nu_ratio(pot: Potential, n: int, ld: float, ld_bfgs: float) -> float:
    """nu(det S+) / nu(det S) on a side S of dimension n and log det ld,
    det S+ the scaling equation's root at log det BFGS(S) = ld_bfgs."""
    pot.require_admissible(n)
    log_nu_b = pot.log_nu_ld(ld)
    log_c = ld_bfgs - (n - 1) * log_nu_b
    ld_star = solve_det_equation(log_c, n - 1, pot, log_c + (n - 1) * log_nu_b)
    return float(np.exp(pot.log_nu_ld(ld_star) - log_nu_b))


def bfgs_update(B: PDMatrix, pair: SecantPair) -> PDMatrix:
    """BFGS: B - Bss'B/(s'Bs) + yy'/(s'y), computed on the factor."""
    return _secant_mix(B, pair, lambda ld_bfgs: 1.0)


def dfp_update(B: PDMatrix, pair: SecantPair) -> PDMatrix:
    """DFP: (I - ys'/(s'y)) B (I - sy'/(s'y)) + yy'/(s'y).

    Dense sandwich plus one fresh factorization; inverse-dual to BFGS, i.e.
    dfp_update(B; s, y)^{-1} = bfgs_update(B^{-1}; y, s).  No solver path
    calls it: the tests hold the dual factor step of dense dfp and sparse
    algorithm 1 to it, as its exact V's = 0, V = I - sy'/(s'y), holds the
    secant equation more tightly than that step when B+ is ill-conditioned.
    """
    _require_pair_length(B, pair)
    s, y, sty = pair.s, pair.y, pair.curvature
    M = np.eye(pair.n) - np.outer(y, s) / sty
    A = M @ B.matrix @ M.T + np.outer(y, y) / sty
    return PDMatrix.from_matrix(A)


def v_bfgs_update(B: PDMatrix, pair: SecantPair, pot: Potential) -> PDMatrix:
    """Potential-weighted BFGS update.

    Solves min D_V(X, B) over {X : Xs = y}; the minimizer mixes BFGS(B)
    with the rank-one secant point, weighted by the nu-ratio at the new and
    old determinants.  The new determinant solves the scaling equation.
    When beta is constant zero (the log potential, and bounded with c = 0),
    nu is constant, so that determinant is det BFGS(B) and the ratio is
    exactly one: the factor step is bfgs_update's bit for bit.
    """
    require_type("pot", pot, Potential)
    return _secant_mix(B, pair, lambda ld_bfgs: _nu_ratio(pot, B.n, B.logdet, ld_bfgs))


def self_scaling_update(B: PDMatrix, pair: SecantPair) -> PDMatrix:
    """theta * BFGS(B) + (1 - theta) * y y'/(s'y), theta = s'y / s'Bs.

    theta = det BFGS(B) / det B is read off the log determinants the
    factor step computes anyway.  It sits at the boundary of the family:
    no strictly convex potential generates it, and it is known to
    over-scale on well-conditioned problems, so treat it as a baseline
    rather than a default.
    """
    return _secant_mix(B, pair, lambda ld_bfgs: float(np.exp(ld_bfgs - B.logdet)))


@dataclass
class UpdateFamily:
    """A side and a ratio rule, named by kind.

    Every family steps to r * BFGS(S) + (1 - r) * y y'/(s'y) on a side S:
    B for bfgs, vbfgs and selfscale, H = B^{-1} for dfp and vdfp (min
    D_V(B^{-1}, H) over {B : Bs = y} is min D_V(K, H) over {K : Ky = s}).
    The rule is a potential's scaling-equation root, the log potential's
    r = 1 for bfgs and dfp, or, for selfscale (potential None), theta =
    s'y / s'Bs at every step.  The state is B for every kind: the dual
    step too is one rank-one change of B's factor (module docstring).
    """

    kind: str
    potential: Potential | None = None

    KINDS = ("bfgs", "dfp", "vbfgs", "vdfp", "selfscale")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParameter(f"unknown update family {self.kind!r}")
        if self.kind in ("vbfgs", "vdfp"):
            require_type(f"the potential of {self.kind}", self.potential, Potential)
            return
        # bfgs and dfp get the log potential; dataclasses.replace passes it back
        rule = None if self.kind == "selfscale" else _LOG
        if self.potential not in (None, rule):
            raise InvalidParameter(f"{self.kind} takes no potential")
        self.potential = rule

    @classmethod
    def from_string(cls, spec: str) -> "UpdateFamily":
        """Parse CLI family syntax, e.g. "bfgs" or "vbfgs:power:gamma=0.2"."""
        head, _, rest = require_type("family spec", spec, str).strip().lower().partition(":")
        if head in ("vbfgs", "vdfp"):
            if not rest:
                raise InvalidParameter(f"{head} needs a potential, e.g. {head}:log")
            return cls(head, potential_from_string(rest))
        if rest:
            raise InvalidParameter(f"family {head!r} takes no parameters")
        return cls(head)

    def label(self) -> str:
        if self.kind in ("vbfgs", "vdfp"):
            return f"{self.kind}:{self.potential.label()}"
        return self.kind

    @property
    def inverse(self) -> bool:
        """True on the dual side (dfp and vdfp); minimize reads it for one
        thing alone, to pick the side's target for the first Wolfe trial."""
        return self.kind in ("dfp", "vdfp")

    # --- solver-facing state protocol: the state is the PDMatrix B -------

    def initial_state(self, B0: PDMatrix) -> PDMatrix:
        if self.potential is not None:
            self.potential.require_admissible(B0.n)
        return B0

    def direction(self, state: PDMatrix, gradient) -> np.ndarray:
        return -state.solve(gradient)

    def apply(self, state: PDMatrix, pair: SecantPair) -> PDMatrix:
        pot = self.potential
        if pot is None:
            return self_scaling_update(state, pair)
        if self.kind in ("bfgs", "vbfgs"):
            return v_bfgs_update(state, pair, pot)
        return _dual_mix(state, pair, lambda ld: _nu_ratio(pot, state.n, -state.logdet, ld))

    def det_b(self, state: PDMatrix) -> float:
        return state.det()

    def b_matrix(self, state: PDMatrix) -> np.ndarray:
        """B as an array the caller owns."""
        return state.matrix.copy()
