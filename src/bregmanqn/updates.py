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
variational problem) nu is constant and r = 1: that is BFGS, and DFP is the
same step on the inverse approximation with the secant roles swapped.

BFGS (r = 1), the weighted rule and self-scaling (r = theta) are all one
rank-one modification of the Cholesky factor L of B.  With q = L's/|L's|,

    J = sqrt(r) L + (y/sqrt(s'y) - sqrt(r) L q) q'

maps q to y/sqrt(s'y) and has J J' = r * BFGS(B) + (1 - r) * y y'/(s'y)
(Goldfarb, Math. Comp. 30, 1976); pdlinalg.rank_one_update scales L by
sqrt(r) as it copies it and re-triangularizes J.  The determinant needs no
factor,

    log det BFGS(B) = log det B + log s'y - log s'Bs,

so r is known before the factor is touched.  DFP is the same step on the
inverse, dfp_update(B; s, y)^{-1} = bfgs_update(B^{-1}; y, s), so the
solver carries H = B^{-1} for dfp as it does for vdfp.
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

    def swapped(self) -> "SecantPair":
        """The pair with s and y exchanged; it shares this pair's arrays."""
        pair = object.__new__(SecantPair)
        pair.s, pair.y, pair.curvature = self.y, self.s, self.curvature
        return pair

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


def bfgs_update(B: PDMatrix, pair: SecantPair) -> PDMatrix:
    """BFGS: B - Bss'B/(s'Bs) + yy'/(s'y), computed on the factor."""
    return _secant_mix(B, pair, lambda ld_bfgs: 1.0)


def dfp_update(B: PDMatrix, pair: SecantPair) -> PDMatrix:
    """DFP: (I - ys'/(s'y)) B (I - sy'/(s'y)) + yy'/(s'y).

    Dense sandwich plus one fresh factorization; inverse-dual to BFGS, i.e.
    dfp_update(B; s, y)^{-1} = bfgs_update(B^{-1}; y, s).  Not on the dense
    solver path, which carries the inverse and takes that BFGS step (see
    UpdateFamily); sparse algorithm 1 and the tests need B itself.
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

    def ratio(ld_bfgs):
        n = B.n
        pot.require_admissible(n)
        log_nu_b = pot.log_nu_ld(B.logdet)
        log_c = ld_bfgs - (n - 1) * log_nu_b
        ld_star = solve_det_equation(log_c, n - 1, pot, log_c + (n - 1) * log_nu_b)
        return float(np.exp(pot.log_nu_ld(ld_star) - log_nu_b))

    return _secant_mix(B, pair, ratio)


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

    Every family steps to r * BFGS(S) + (1 - r) * y y'/(s'y) on a side S.
    The side is B, or the inverse H = B^{-1} for dfp and vdfp:
    min D_V(B^{-1}, H) over {B : Bs = y} is, with K = B^{-1}, the problem
    min D_V(K, H) over {K : Ky = s}, so H steps with s and y swapped.
    The rule is a potential's scaling-equation root, the log potential's
    r = 1 for bfgs and dfp, or, for selfscale (potential None),
    theta = s'y / s'Bs at every step.  The solver-facing methods hide
    which side is stored.
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
        """True when the carried state is H = B^{-1} (dfp and vdfp)."""
        return self.kind in ("dfp", "vdfp")

    # --- solver-facing state protocol ------------------------------------
    # State is a PDMatrix: the approximation B itself, or its inverse H
    # when self.inverse.

    def initial_state(self, B0: PDMatrix) -> PDMatrix:
        if self.potential is not None:
            self.potential.require_admissible(B0.n)
        # B0 = I when its factor has n nonzero entries, all ones on the
        # diagonal; then H0 is B0 itself, the bytes that inverting and
        # factoring I give, found without an n x n temporary
        L = B0.L
        if self.inverse and not (np.count_nonzero(L) == B0.n and (np.diagonal(L) == 1.0).all()):
            return PDMatrix.from_matrix(B0.inv())
        return B0

    def direction(self, state: PDMatrix, gradient) -> np.ndarray:
        if self.inverse:
            return -state.matvec(gradient)
        return -state.solve(gradient)

    def apply(self, state: PDMatrix, pair: SecantPair) -> PDMatrix:
        if self.inverse:
            pair = pair.swapped()
        if self.potential is None:
            return self_scaling_update(state, pair)
        return v_bfgs_update(state, pair, self.potential)

    def det_b(self, state: PDMatrix) -> float:
        if self.inverse:
            return float(np.exp(-state.logdet))
        return state.det()

    def b_matrix(self, state: PDMatrix) -> np.ndarray:
        """B as an array the caller owns."""
        if self.inverse:
            return state.inv()
        return state.matrix.copy()
