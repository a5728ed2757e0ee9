"""Divergences and dual coordinates on the PD cone.

A potential V turns phi(P) = V(det P) into a Bregman seed on PD(n).  Its
gradient supplies the dual ("theta") coordinate

    theta_V(P) = grad phi(P) = -nu(det P) * P^{-1},

a negative definite matrix returned as a plain symmetric array, while
the primal ("eta") coordinate is P itself and is never reified.  Inverting
theta_V and the weighted updates' scaling equation both reduce to one
scalar equation in ld = log det,

    ld - k * log nu(ld) = t        (k = n for theta_V, n - 1 for scaling),

which solve_det_equation solves.  The three-point identity

    D(P,Q) - D(P,P*) - D(P*,Q) = <theta(Q) - theta(P*), P* - P>

is exposed as a residual so projection tests can assert both Pythagorean
decompositions (swap the first and last arguments for the dual one).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from ._roots import newton_bisect_log
from .errors import InvalidParameter, NotPositiveDefinite
# cholesky_factorize is unused here but stays bound: bench/ traces and
# checks every module binding of it.
from .pdlinalg import PDMatrix, as_symmetric, cholesky_factorize  # noqa: F401
from .potentials import Potential, log_potential


def _as_pd(P) -> PDMatrix:
    """P itself if it is a PDMatrix, else its factorization."""
    return P if isinstance(P, PDMatrix) else PDMatrix.from_matrix(P)


def trace_inner(a, b) -> float:
    """Frobenius inner product <A, B> = tr(A'B) for symmetric inputs."""
    return float(np.tensordot(np.asarray(a, float), np.asarray(b, float)))


def _tr_qinv_p(P: PDMatrix, Q: PDMatrix) -> float:
    # tr(Q^{-1} P) = ||L_Q^{-1} L_P||_F^2, symmetric-exact and cheap.
    W = solve_triangular(Q.factor.L, P.factor.L, lower=True)
    return float(np.sum(W * W))


def v_bregman_divergence(P, Q, pot: Potential) -> float:
    """Bregman divergence of the seed V(det .) between PD matrices.

    D(P,Q) = V(det P) - V(det Q) + nu(det Q) * (<Q^{-1}, P> - n).
    Computed from log-determinants; collapses to kl_divergence for the
    log potential.
    """
    P, Q = _as_pd(P), _as_pd(Q)
    if P.n != Q.n:
        raise InvalidParameter(f"dimension mismatch: n={P.n} and n={Q.n}")
    pot.require_admissible(P.n)
    nu_q = pot.nu_ld(Q.logdet)
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


def generic_bregman(P, Q, phi, grad_phi) -> float:
    """D_phi(P, Q) = phi(P) - phi(Q) - <grad phi(Q), P - Q> for user phi."""
    Pm = as_symmetric(P)
    Qm = as_symmetric(Q)
    return float(phi(Pm) - phi(Qm) - trace_inner(grad_phi(Qm), Pm - Qm))


def theta_coordinate(P, pot: Potential) -> np.ndarray:
    """theta_V(P) = -nu(det P) * P^{-1}, exactly symmetric."""
    P = _as_pd(P)
    pot.require_admissible(P.n)
    nu_p = pot.nu_ld(P.logdet)
    return as_symmetric(-nu_p * P.inv())


def solve_det_equation(t: float, k: int, pot: Potential, ld0: float | None = None) -> float:
    """The root ld = log z of ld - k * log nu(ld) = t.

    Its left side is strictly increasing (the derivative 1 - k*beta is
    positive for admissible potentials and k <= n), so the root is unique.
    Constant nu gives ld = t and the power potential t / (1 - k*gamma);
    otherwise Newton with a bisection safeguard (_roots.newton_bisect_log)
    from ld0 (default t) stops when the residual is at most
    1e-13 * (1 + |t|).
    """
    if pot.constant_nu:
        return t
    if pot.kind == "power":
        return t / (1.0 - k * pot.params["gamma"])

    def g(ld):
        return ld - k * pot.log_nu_ld(ld) - t

    def dg(ld):
        return 1.0 - k * pot.beta_ld(ld)

    return newton_bisect_log(g, dg, t if ld0 is None else ld0, 1e-13 * (1.0 + abs(t)))


def solve_neg_theta_det(ld_target: float, n: int, pot: Potential) -> float:
    """Solve nu(z)^n / z = exp(ld_target) for log z.

    ld_target is log det(-T) for a theta coordinate T, and the equation is
    solve_det_equation with t = -ld_target and k = n.
    """
    pot.require_admissible(n)
    return solve_det_equation(-ld_target, n, pot)


def _from_neg_theta(log_det_m: float, m_inv: np.ndarray, pot: Potential) -> PDMatrix:
    """The P with theta_V(P) = -M, given log det M and M^{-1}.

    det M = nu(z)^n / z at z = det P pins the determinant; then
    P = nu(z) * M^{-1}.
    """
    ld_star = solve_neg_theta_det(log_det_m, m_inv.shape[0], pot)
    return PDMatrix.from_matrix(pot.nu_ld(ld_star) * m_inv)


def invert_theta(T, pot: Potential) -> PDMatrix:
    """Recover P from T = theta_V(P); -T is factored once."""
    try:
        neg = PDMatrix.from_matrix(-as_symmetric(T))
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite("theta coordinate must be negative definite") from exc
    return _from_neg_theta(neg.logdet, neg.inv(), pot)


def pythagorean_residual(P, Pstar, Q, pot: Potential) -> float:
    """Difference of the two sides of the three-point identity.

    [D(P,Q) - D(P,P*) - D(P*,Q)] - <theta(Q) - theta(P*), P* - P>.
    Near zero always; exactly zero in the generalized Pythagorean setting.
    """
    P, Pstar, Q = _as_pd(P), _as_pd(Pstar), _as_pd(Q)
    lhs = (
        v_bregman_divergence(P, Q, pot)
        - v_bregman_divergence(P, Pstar, pot)
        - v_bregman_divergence(Pstar, Q, pot)
    )
    t_q = theta_coordinate(Q, pot)
    t_star = theta_coordinate(Pstar, pot)
    rhs = trace_inner(t_q - t_star, Pstar.matrix - P.matrix)
    return float(lhs - rhs)


def projection_orthogonality_residual(Pstar, Q, directions, pot: Potential) -> float:
    """max_d |<theta(Q) - theta(P*), d>| / (1 + ||theta(Q)||_F).

    directions should span the tangent space of the constraint manifold at
    P*; a vanishing residual certifies P* as the theta-projection of Q.
    """
    Pstar, Q = _as_pd(Pstar), _as_pd(Q)
    t_q = theta_coordinate(Q, pot)
    t_star = theta_coordinate(Pstar, pot)
    gap = t_q - t_star
    worst = 0.0
    for d in directions:
        worst = max(worst, abs(trace_inner(gap, d)))
    return worst / (1.0 + float(np.linalg.norm(t_q)))
