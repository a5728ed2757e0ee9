"""Divergences and dual coordinates on the PD cone.

A potential V turns phi(P) = V(det P) into a Bregman seed on PD(n).  Its
gradient supplies the dual ("theta") coordinate

    theta_V(P) = grad phi(P) = -nu(det P) * P^{-1},

a negative definite matrix, while the primal ("eta") coordinate is P
itself and is never reified.  The three-point identity

    D(P,Q) - D(P,P*) - D(P*,Q) = <theta(Q) - theta(P*), P* - P>

is exposed as a residual so projection tests can assert both Pythagorean
decompositions (swap the first and last arguments for the dual one).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from ._roots import newton_bisect_log
from .errors import CurvatureViolation, NotPositiveDefinite
# cholesky_factorize is unused here but stays bound: bench/ traces and
# checks every module binding of it.
from .pdlinalg import PDMatrix, as_symmetric, cholesky_factorize  # noqa: F401
from .potentials import Potential


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


class SecantManifold:
    """The affine slice {B : B s = y} of symmetric matrices.

    Requires curvature s'y > 0 so the slice meets the PD cone.
    """

    def __init__(self, s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.ndim != 1 or s.shape != y.shape:
            raise ValueError("s and y must be same-length vectors")
        if not np.any(s):
            raise ValueError("s must be nonzero")
        sty = float(s @ y)
        if not sty > 0.0:
            raise CurvatureViolation(f"curvature s'y = {sty:.3e} must be positive")
        self.s = s.copy()
        self.y = y.copy()
        self.n = s.shape[0]
        self.curvature = sty

    def particular_point(self) -> np.ndarray:
        """The rank-one member y y' / s'y (PSD, on the slice)."""
        return np.outer(self.y, self.y) / self.curvature

    def contains(self, B, tol: float = 1e-10) -> bool:
        B = as_symmetric(B)
        return bool(np.linalg.norm(B @ self.s - self.y) <= tol * (1.0 + np.linalg.norm(self.y)))

    def tangent_basis(self) -> list[np.ndarray]:
        """Frobenius-orthonormal basis of {Delta symmetric : Delta s = 0}."""
        n = self.n
        u = self.s / np.linalg.norm(self.s)
        # Householder reflector mapping e1 -> u; its trailing columns span s-perp.
        w = u.copy()
        w[0] += 1.0 if u[0] >= 0.0 else -1.0
        H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
        q = [H[:, j] for j in range(1, n)]
        basis = []
        for i in range(n - 1):
            basis.append(np.outer(q[i], q[i]))
            for j in range(i + 1, n - 1):
                basis.append((np.outer(q[i], q[j]) + np.outer(q[j], q[i])) / np.sqrt(2.0))
        return basis


class ThetaPoint:
    """Dual coordinate: a negative definite matrix tied to its potential.

    -T is factored on first use (log_det_neg, invert_theta), so a
    coordinate that is only read as a matrix costs no factorization.
    """

    __slots__ = ("matrix", "potential", "_neg")

    def __init__(self, matrix, potential: Potential):
        self.matrix = as_symmetric(matrix)
        self.potential = potential
        self._neg = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _neg_pd(self) -> PDMatrix:
        """-T as a PDMatrix; raises NotPositiveDefinite unless T < 0."""
        if self._neg is None:
            try:
                self._neg = PDMatrix.from_matrix(-self.matrix)
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(
                    "theta coordinate must be negative definite"
                ) from exc
        return self._neg

    def log_det_neg(self) -> float:
        """log det(-T)."""
        return self._neg_pd().logdet

    def __repr__(self):
        return f"ThetaPoint(n={self.n}, potential={self.potential.label()})"


def kl_divergence(P, Q) -> float:
    """KL(P, Q) = tr(P Q^{-1}) - log det(P Q^{-1}) - n."""
    P, Q = _as_pd(P), _as_pd(Q)
    if P.n != Q.n:
        raise ValueError("dimension mismatch")
    # Same operation order as v_bregman_divergence with the log potential,
    # so the two agree bit-for-bit.
    return -P.logdet - (-Q.logdet) + 1.0 * (_tr_qinv_p(P, Q) - P.n)


def v_bregman_divergence(P, Q, pot: Potential) -> float:
    """Bregman divergence of the seed V(det .) between PD matrices.

    D(P,Q) = V(det P) - V(det Q) + nu(det Q) * (<Q^{-1}, P> - n).
    Computed from log-determinants; collapses to kl_divergence for the
    log potential.
    """
    P, Q = _as_pd(P), _as_pd(Q)
    if P.n != Q.n:
        raise ValueError("dimension mismatch")
    pot.require_admissible(P.n)
    nu_q = pot.nu_ld(Q.logdet)
    return (
        float(pot.value_ld(P.logdet))
        - float(pot.value_ld(Q.logdet))
        + nu_q * (_tr_qinv_p(P, Q) - P.n)
    )


def generic_bregman(P, Q, phi, grad_phi) -> float:
    """D_phi(P, Q) = phi(P) - phi(Q) - <grad phi(Q), P - Q> for user phi."""
    Pm = as_symmetric(P)
    Qm = as_symmetric(Q)
    return float(phi(Pm) - phi(Qm) - trace_inner(grad_phi(Qm), Pm - Qm))


def theta_coordinate(P, pot: Potential) -> ThetaPoint:
    """theta_V(P) = -nu(det P) * P^{-1}."""
    P = _as_pd(P)
    pot.require_admissible(P.n)
    nu_p = pot.nu_ld(P.logdet)
    tm = -nu_p * P.inv()
    return ThetaPoint(tm, pot)


def solve_neg_theta_det(ld_target: float, n: int, pot: Potential) -> float:
    """Solve nu(z)^n / z = exp(ld_target) for log z.

    In log form this is ld - n log nu(ld) = -ld_target, whose left side is
    strictly increasing (its derivative is 1 - n*beta > 0 for admissible
    potentials), so the solution is unique; ld_target is log det(-T) for
    a theta coordinate T.  Newton with a bisection safeguard
    (_roots.newton_bisect_log) stops when the log-space residual is at
    most 1e-13 * (1 + |ld_target|).
    """
    pot.require_admissible(n)
    t = -ld_target

    def g(ld):
        return ld - n * pot.log_nu_ld(ld) - t

    def dg(ld):
        return 1.0 - n * pot.beta_ld(ld)

    # the start is exact for the log potential (nu == 1)
    return newton_bisect_log(g, dg, t, 1e-13 * (1.0 + abs(t)))


def invert_theta(tp: ThetaPoint) -> PDMatrix:
    """Recover P from T = theta_V(P).

    det(-T) = nu(z)^n / z at z = det P pins the determinant through a
    monotone scalar solve; then P = nu(z) * (-T)^{-1}.
    """
    pot = tp.potential
    n = tp.n
    ld_star = solve_neg_theta_det(tp.log_det_neg(), n, pot)
    return PDMatrix.from_matrix(pot.nu_ld(ld_star) * tp._neg_pd().inv())


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
    t_q = theta_coordinate(Q, pot).matrix
    t_star = theta_coordinate(Pstar, pot).matrix
    rhs = trace_inner(t_q - t_star, Pstar.matrix - P.matrix)
    return float(lhs - rhs)


def projection_orthogonality_residual(Pstar, Q, directions, pot: Potential) -> float:
    """max_d |<theta(Q) - theta(P*), d>| / (1 + ||theta(Q)||_F).

    directions should span the tangent space of the constraint manifold at
    P*; a vanishing residual certifies P* as the theta-projection of Q.
    """
    Pstar, Q = _as_pd(Pstar), _as_pd(Q)
    t_q = theta_coordinate(Q, pot).matrix
    t_star = theta_coordinate(Pstar, pot).matrix
    gap = t_q - t_star
    worst = 0.0
    for d in directions:
        worst = max(worst, abs(trace_inner(gap, d)))
    return worst / (1.0 + float(np.linalg.norm(t_q)))
