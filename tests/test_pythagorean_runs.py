"""The paper's Pythagorean theorem checked over whole runs.

Each V-BFGS step is the Bregman projection of B_k onto the secant set:
B_{k+1} = argmin D_V(X, B_k) over {X : Xs_k = y_k}.  On a quadratic with
Hessian A every pair has y_k = A s_k, so A lies in every such set, and
the generalized Pythagorean theorem holds with equality at each step,

    D_V(A, B_k) = D_V(A, B_{k+1}) + D_V(B_{k+1}, B_k),

under any line search.  So D_V(A, B_k) never rises along a run.  The
dual families (dfp, vdfp) project H = B^{-1} onto {K : Ky = s}, which
holds A^{-1}, and obey the same identity on H against A^{-1}.  One check
covers the update, its side, the pair and the loop together, at n far
beyond the dense oracle's reach.  selfscale is no V-projection and must
fail it, measured with the log potential's D.
"""

import numpy as np
import pytest

from bregmanqn import (
    SolverConfig,
    cholesky_factorize,
    get_problem,
    log_potential,
    minimize,
    v_bregman_divergence,
)

IDENTITY_TOL = 1e-10
QUADRATICS = ["quadratic:100:20", "quadratic:1000:50", "quadratic:100:200"]


def divergence_chain(name, family):
    """(the run's status, D_V(A, B_k) for every k, the identity's residual
    at every step relative to D_V(A, B_k)), on H and A^{-1} for the dual
    families."""
    spec = get_problem(name, seed=3)
    config = SolverConfig(family, grad_tol=1e-6, max_iter=300)
    trace = minimize(spec.objective, spec.start, config=config, record_b=True)
    # the gradient A x at the unit vectors gives A's columns exactly
    a = np.column_stack([spec.objective.gradient(e) for e in np.eye(spec.n)])
    bs = [r.b for r in trace.records]
    if config.family.inverse:
        a, bs = np.linalg.inv(a), [np.linalg.inv(b) for b in bs]
    pot = config.family.potential or log_potential()  # selfscale has none
    A, Bs = cholesky_factorize(a), [cholesky_factorize(b) for b in bs]
    d = np.array([v_bregman_divergence(A, B, pot) for B in Bs])
    steps = np.array([v_bregman_divergence(Bn, B, pot) for B, Bn in zip(Bs, Bs[1:])])
    residuals = np.abs(d[:-1] - d[1:] - steps) / d[:-1]
    return trace.status, d, residuals


@pytest.mark.parametrize("name", QUADRATICS)
@pytest.mark.parametrize("family", [
    "bfgs", "dfp", "vbfgs:power:gamma=-0.25", "vbfgs:bounded:c=0.5", "vdfp:bounded:c=0.5",
])
def test_each_step_splits_the_divergence_to_the_hessian(name, family):
    # measured <= 1.8e-12 over runs of 24-210 steps, with no rise
    status, d, residuals = divergence_chain(name, family)
    assert len(residuals) > 0
    assert residuals.max() <= IDENTITY_TOL
    assert np.all(np.diff(d) <= 0.0)
    assert status == "Converged"


@pytest.mark.parametrize("name", QUADRATICS)
def test_selfscale_is_no_projection(name):
    # selfscale's B is its own theta-scaled BFGS step, so A's divergence
    # is not split: measured residuals 2.4-4.9, rising on 16-46 steps
    status, d, residuals = divergence_chain(name, "selfscale")
    assert status == "Converged"
    assert residuals.max() > 1.0
    assert np.sum(np.diff(d) > 0.0) >= 10
