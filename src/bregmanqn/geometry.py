"""Divergences and dual coordinates on the PD cone.

A potential V turns phi(P) = V(det P) into a Bregman seed on PD(n).  Its
gradient supplies the dual ("theta") coordinate

    theta_V(P) = grad phi(P) = -nu(det P) * P^{-1},

a negative definite matrix returned as a plain symmetric array, while
the primal ("eta") coordinate is P itself and is never reified.  Inverting
theta_V and the weighted updates' scaling equation both reduce to one
scalar equation in ld = log det,

    ld - k * log nu(ld) = t        (k = n for theta_V, n - 1 for scaling),

which solve_det_equation solves.  Checks of this geometry, such as the
three-point identity's residual, live in bregmanqn.testing.
"""

from __future__ import annotations

import numpy as np

from ._roots import newton_bisect_log
from .errors import InvalidParameter, NotPositiveDefinite, require_real, require_type
from .pdlinalg import PDMatrix, as_symmetric, cholesky_factorize
from .potentials import Potential, log_potential


def _tr_qinv_p(P: PDMatrix, Q: PDMatrix) -> float:
    # tr(Q^{-1} P) = ||L_Q^{-1} L_P||_F^2, symmetric-exact and cheap.
    W = Q.solve_factor(P.L)
    return float(np.sum(W * W))


def v_bregman_divergence(P, Q, pot: Potential) -> float:
    """Bregman divergence of the seed V(det .) between PD matrices.

    D(P,Q) = V(det P) - V(det Q) + nu(det Q) * (<Q^{-1}, P> - n).
    Computed from log-determinants; collapses to kl_divergence for the
    log potential.  For the power family, nu = z^gamma with gamma != 0,
    it is evaluated in the closed form

        D(P,Q) = nu(det Q) * ((1 - (det P / det Q)^gamma) / gamma + <Q^{-1}, P> - n),

    since V(det P) - V(det Q) = (nu(det Q) - nu(det P)) / gamma, whose
    terms both round to 1/gamma once nu falls below machine epsilon.
    """
    P, Q = require_type("P", P, PDMatrix), require_type("Q", Q, PDMatrix)
    if P.n != Q.n:
        raise InvalidParameter(f"dimension mismatch: n={P.n} and n={Q.n}")
    require_type("pot", pot, Potential).require_admissible(P.n)
    nu_q = pot.nu_ld(Q.logdet)
    gamma = pot.constant_beta
    if gamma:
        dv = -float(np.expm1(gamma * (P.logdet - Q.logdet))) / gamma  # (V(P) - V(Q)) / nu(Q)
        return nu_q * (dv + _tr_qinv_p(P, Q) - P.n)
    return (
        float(pot.value_ld(P.logdet))
        - float(pot.value_ld(Q.logdet))
        + nu_q * (_tr_qinv_p(P, Q) - P.n)
    )


_LOG = log_potential()


def kl_divergence(P, Q) -> float:
    """KL(P, Q) = tr(P Q^{-1}) - log det(P Q^{-1}) - n, the V-Bregman
    divergence of the log potential."""
    return v_bregman_divergence(P, Q, _LOG)


def theta_coordinate(P, pot: Potential) -> np.ndarray:
    """theta_V(P) = -nu(det P) * P^{-1}, exactly symmetric."""
    require_type("P", P, PDMatrix)
    require_type("pot", pot, Potential).require_admissible(P.n)
    nu_p = pot.nu_ld(P.logdet)
    return as_symmetric(-nu_p * P.inv())


def solve_det_equation(t: float, k: int, pot: Potential, ld0: float | None = None) -> float:
    """The root ld = log z of ld - k * log nu(ld) = t.

    Its left side is strictly increasing (the derivative 1 - k*beta is
    positive for admissible potentials and k <= n), so the root is unique.
    A constant beta (nu = z^beta; beta = 0 is the log potential) gives the
    closed form t / (1 - k*beta), which is exactly t at beta = 0; otherwise
    Newton with a bisection safeguard (_roots.newton_bisect_log) from ld0
    (default t) stops when the residual is at most 1e-13 * (1 + |t|).
    """
    if pot.constant_beta is not None:
        return t / (1.0 - k * pot.constant_beta)

    def g(ld):
        return ld - k * pot.log_nu_ld(ld) - t

    def dg(ld):
        return 1.0 - k * pot.beta_ld(ld)

    return newton_bisect_log(g, dg, t if ld0 is None else ld0, 1e-13 * (1.0 + abs(t)))


def solve_neg_theta_det(ld_target: float, n: int, pot: Potential) -> float:
    """Solve nu(z)^n / z = exp(ld_target) for log z.

    ld_target is log det(-T) for a theta coordinate T, a finite real, and
    the equation is solve_det_equation with t = -ld_target and k = n.
    """
    require_type("pot", pot, Potential).require_admissible(n)
    return solve_det_equation(-require_real("ld_target", ld_target), n, pot)


def invert_theta(T, pot: Potential) -> PDMatrix:
    """Recover P from T = theta_V(P); -T = M is factored once.

    det M = nu(z)^n / z pins z = det P; then P = nu(z) * M^{-1}.
    """
    try:
        neg = cholesky_factorize(-as_symmetric(T))
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite("theta coordinate must be negative definite") from exc
    ld_star = solve_neg_theta_det(neg.logdet, neg.n, pot)
    return cholesky_factorize(pot.nu_ld(ld_star) * neg.inv())
