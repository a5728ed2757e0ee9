"""Checks of the library: a reference minimizer for its updates and
projections, and residuals of its geometry, none exported at the top level.

Every update here is the minimizer of a Bregman divergence D_V(X, B) over
an affine set of symmetric X: v_bfgs_update over the secant slice
{Xs = y}, theta_v_project_sparse over the matrices supported on a
pattern, and the limit of sparse algorithm 2 over both.
divergence_oracle finds that minimizer directly, by Newton's method on
coordinates of the set, and uses none of the closed forms, scalar solves
or clique factorizations it is meant to check.  It is dense and meant
for n <= 6.

The other functions only check the library too.  The three-point identity

    D(P,Q) - D(P,P*) - D(P*,Q) = <theta(Q) - theta(P*), P* - P>

is exposed as a residual so projection tests can assert both Pythagorean
decompositions (swap the first and last arguments for the dual one).
"""

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite, OracleNoConvergence, require_array
from .errors import require_real, require_type
from .geometry import theta_coordinate, v_bregman_divergence
from .pdlinalg import PDMatrix, as_symmetric, cholesky_factorize

__all__ = [
    "divergence_oracle",
    "sparse_secant_oracle",
    "pythagorean_residual",
    "projection_orthogonality_residual",
    "generic_bregman",
    "trace_inner",
    "check_gradient",
]

MAX_N = 6


def _basis(n, pattern):
    """Frobenius-orthonormal basis of the symmetric n x n matrices that are
    zero off pattern (all of them when pattern is None), as a stack."""
    if pattern is None:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        edges = pattern.edges
    E = np.zeros((n + len(edges), n, n))
    E[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    for m, (i, j) in enumerate(edges, start=n):
        E[m, i, j] = E[m, j, i] = np.sqrt(0.5)
    return E


def _affine_set(B, E, pair):
    """(X0, F): the Frobenius projection X0 of B onto the span of E, cut by
    Xs = y when pair is given, and an orthonormal stack F of the
    directions that stay in that set."""
    coords = np.tensordot(E, B, axes=2)
    if pair is None:
        return np.tensordot(coords, E, axes=1), E
    G = (E @ pair.s).T  # column m is E_m s
    u, *_ = np.linalg.lstsq(G, pair.y, rcond=None)
    if np.linalg.norm(G @ u - pair.y) > 1e-10 * (1.0 + np.linalg.norm(pair.y)):
        # e.g. some s_i = 0 together with all its pattern neighbors' s_j
        raise OracleNoConvergence("secant equation has no solution on the pattern")
    _, sv, vt = np.linalg.svd(G)
    null = vt[int(np.sum(sv > 1e-12 * sv[0])):]
    u += null.T @ (null @ (coords - u))
    return np.tensordot(u, E, axes=1), np.tensordot(null, E, axes=1)


def _raise_lambda_min(X, F):
    """X moved along the directions F until its least eigenvalue is safely
    positive, by ascent on that eigenvalue."""
    for _ in range(300):
        lam, vecs = np.linalg.eigh(X)
        scale = 1.0 + float(np.abs(np.diag(X)).max())
        if lam[0] > 1e-6 * scale:
            return X
        v = vecs[:, 0]
        g = F @ v @ v  # the supergradient v'F_k v of the least eigenvalue
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-14:
            break
        D = np.tensordot(g / gnorm, F, axes=1)
        t = scale
        while np.linalg.eigvalsh(X + t * D)[0] <= lam[0]:
            t *= 0.5
            if t <= 1e-14 * scale:
                raise OracleNoConvergence("no positive definite point on the constraint set")
        X = X + t * D
    raise OracleNoConvergence("no positive definite point on the constraint set")


def _divergence(X, B, pot):
    """(factor of X, D_V(X, B)), or (None, inf) when X is not PD."""
    try:
        P = cholesky_factorize(X)
    except NotPositiveDefinite:
        return None, np.inf
    return P, v_bregman_divergence(P, B, pot)


def divergence_oracle(B, pot, pattern=None, pair=None):
    """argmin D_V(X, B) over symmetric X zero off pattern (no restriction
    when None) with Xs = y when a SecantPair is given; n <= 6.

    X is written in a Frobenius-orthonormal basis of the pattern, and the
    secant equation leaves a least-squares particular point plus an SVD
    null space.  The start is B projected onto that set, moved into the
    PD cone if it is not PD.  Newton's method then runs with the exact
    Hessian nu [tr(X^-1 E X^-1 F) - beta tr(X^-1 E) tr(X^-1 F)] and an
    Armijo backtrack, and stops after one last full step once the Newton
    decrement is at most 1e-14 (1 + |f|).  Returns the minimizer as a
    symmetric array, exactly zero off pattern.

    Raises InvalidParameter for n > 6 or mismatched dimensions, and
    OracleNoConvergence when the set holds no PD point or Newton stalls.
    """
    n = require_type("B", B, PDMatrix).n
    if n > MAX_N:
        raise InvalidParameter(f"the divergence oracle is restricted to n <= {MAX_N}, got n={n}")
    if any(c is not None and c.n != n for c in (pattern, pair)):
        raise InvalidParameter("pattern/pair dimensions do not match the matrix")
    X, F = _affine_set(B.matrix, _basis(n, pattern), pair)
    if len(F) == 0:
        if _divergence(X, B, pot)[0] is None:
            raise OracleNoConvergence("the constraint set is one point, not PD")
        return X
    X = _raise_lambda_min(X, F)
    theta_b = theta_coordinate(B, pot)
    P, f = _divergence(X, B, pot)
    for _ in range(100):
        Xinv = P.inv()
        nu, beta = pot.nu_ld(P.logdet), pot.beta_ld(P.logdet)
        g = np.tensordot(F, -nu * Xinv - theta_b, axes=2)
        A = Xinv @ F
        tr = np.trace(A, axis1=1, axis2=2)
        H = nu * (np.einsum("kij,lji->kl", A, A) - beta * np.outer(tr, tr))
        step = np.linalg.solve(H, -g)
        decrement = -float(g @ step)
        D = np.tensordot(step, F, axes=1)
        if decrement <= 1e-14 * (1.0 + abs(f)):
            return X + D if _divergence(X + D, B, pot)[0] is not None else X
        t = 1.0
        while True:
            P_t, f_t = _divergence(X + t * D, B, pot)
            if f_t <= f - 1e-4 * t * decrement:
                break
            t *= 0.5
            if t < 1e-14:
                raise OracleNoConvergence("Newton line search stalled")
        X, P, f = X + t * D, P_t, f_t
    raise OracleNoConvergence("Newton did not converge in 100 steps")


def sparse_secant_oracle(B, pair, pattern, pot):
    """The PD minimizer of D_V(X, B) over pattern-supported X with Xs = y,
    for n <= 6: the limit that sparse algorithm 2's chain approaches.

    divergence_oracle computes it; raises OracleNoConvergence when that
    set holds no PD point.
    """
    return cholesky_factorize(divergence_oracle(B, pot, pattern, pair))


def trace_inner(a, b) -> float:
    """Frobenius inner product <A, B> = tr(A'B) for symmetric inputs."""
    return float(np.tensordot(np.asarray(a, float), np.asarray(b, float)))


def generic_bregman(P, Q, phi, grad_phi) -> float:
    """D_phi(P, Q) = phi(P) - phi(Q) - <grad phi(Q), P - Q> for user phi."""
    Pm = as_symmetric(P)
    Qm = as_symmetric(Q)
    return float(phi(Pm) - phi(Qm) - trace_inner(grad_phi(Qm), Pm - Qm))


def pythagorean_residual(P, Pstar, Q, pot) -> float:
    """Difference of the two sides of the three-point identity.

    [D(P,Q) - D(P,P*) - D(P*,Q)] - <theta(Q) - theta(P*), P* - P>.
    Near zero always; exactly zero in the generalized Pythagorean setting.
    """
    for name, M in (("P", P), ("Pstar", Pstar), ("Q", Q)):
        require_type(name, M, PDMatrix)
    lhs = (
        v_bregman_divergence(P, Q, pot)
        - v_bregman_divergence(P, Pstar, pot)
        - v_bregman_divergence(Pstar, Q, pot)
    )
    t_q = theta_coordinate(Q, pot)
    t_star = theta_coordinate(Pstar, pot)
    rhs = trace_inner(t_q - t_star, Pstar.matrix - P.matrix)
    return float(lhs - rhs)


def projection_orthogonality_residual(Pstar, Q, directions, pot) -> float:
    """max_d |<theta(Q) - theta(P*), d>| / (1 + ||theta(Q)||_F).

    directions should span the tangent space of the constraint manifold at
    P*; a vanishing residual certifies P* as the theta-projection of Q.
    """
    for name, M in (("Pstar", Pstar), ("Q", Q)):
        require_type(name, M, PDMatrix)
    t_q = theta_coordinate(Q, pot)
    t_star = theta_coordinate(Pstar, pot)
    gap = t_q - t_star
    worst = 0.0
    for d in directions:
        worst = max(worst, abs(trace_inner(gap, d)))
    return worst / (1.0 + float(np.linalg.norm(t_q)))


def check_gradient(obj, x, h=1e-6):
    """Max relative deviation between the gradient and central differences.

    Raises InvalidParameter unless h is finite and positive, x a real array
    of shape (n,), and f and the gradient pass minimize's output rule.
    """
    h = require_real("h", h, 0.0)
    x = require_array("x", x, (obj.n,))
    g = require_array("gradient", obj.gradient(x), (obj.n,))
    fd = np.empty(obj.n)
    for i in range(obj.n):
        e = np.zeros(obj.n)
        e[i] = h
        f_plus, f_minus = (float(require_array("f(x)", obj.value(x + t * e), ())) for t in (1, -1))
        fd[i] = (f_plus - f_minus) / (2.0 * h)
    scale = np.abs(g) + np.abs(fd) + 1.0
    return float(np.abs(g - fd).max() / scale.max())
