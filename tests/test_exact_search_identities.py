"""The whole loop checked against BFGS under exact line searches.

Every Broyden-class update takes the same steps on any smooth f when
each line search is exact (Dixon, Math. Prog. 2, 1972), so `dfp` and
`vdfp:log` follow `bfgs`.  Every family here steps to
H+ = (1/r) V'HV + rho ss' on its side; on a convex quadratic with exact
searches s_i'g_{k+1} = 0 for i <= k, so each H_k g_{k+1} is parallel to
BFGS's whatever the r's are, and every family follows the
conjugate-gradient iterates (Nazareth, SIAM J. Numer. Anal. 16, 1979).
On a general f a ratio r != 1 agrees through x_2 and departs at x_3,
where the unscaled rho s_0 s_0' term meets s_0'g_2 != 0.

The gap at step k is |x_k - x^bfgs_k| / (1 + |x^bfgs_k|).  An identity
holds every gap to GAP_TOL; the cases outside the theory are asserted as
departures at the step where their gap first passed GAP_TOL.
"""

from functools import lru_cache

import numpy as np
import pytest

from bregmanqn import LineSearchParams, PDMatrix, SolverConfig, get_problem, minimize

GAP_TOL = 1e-10


@lru_cache(maxsize=None)
def run(name, family, seed=None, grad_tol=1e-8):
    spec = get_problem(name) if seed is None else get_problem(name, seed=seed)
    config = SolverConfig(family, grad_tol=grad_tol,
                          line_search=LineSearchParams(method="exact"))
    trace = minimize(spec.objective, spec.start, config=config)
    assert trace.status == "Converged", (name, family, trace.reason)
    return trace


def gaps(trace, ref):
    return [float(np.linalg.norm(r.x - q.x) / (1.0 + np.linalg.norm(q.x)))
            for r, q in zip(trace.records, ref.records)]


def first_departure(trace, ref):
    return next((k for k, gap in enumerate(gaps(trace, ref)) if gap > GAP_TOL), None)


@pytest.mark.parametrize("name, iterations", [
    ("broyden-tridiagonal:10", 16),
    ("broyden-tridiagonal:50", 55),
    ("broyden-tridiagonal:200", 75),
    ("rosenbrock", 22),
])
@pytest.mark.parametrize("family", ["dfp", "vdfp:log"])
def test_broyden_class_follows_bfgs(name, iterations, family):
    # measured <= 2.9e-14 over the whole run
    ref = run(name, "bfgs", grad_tol=1e-6)
    trace = run(name, family, grad_tol=1e-6)
    assert trace.iterations == ref.iterations == iterations
    assert max(gaps(trace, ref)) <= GAP_TOL


QUADRATICS = {"quadratic:100:20": 20, "quadratic:1000:50": 50, "quadratic:100:200": 93}


@pytest.mark.parametrize("name", sorted(QUADRATICS))
@pytest.mark.parametrize("family", [
    "dfp", "vbfgs:power:gamma=-0.25", "vbfgs:bounded:c=0.5", "vdfp:bounded:c=0.5",
])
def test_every_potential_follows_bfgs_on_a_quadratic(name, family):
    # measured <= 4.7e-15 over the whole run
    ref = run(name, "bfgs", seed=3)
    trace = run(name, family, seed=3)
    assert trace.iterations == ref.iterations == QUADRATICS[name]
    assert max(gaps(trace, ref)) <= GAP_TOL


def test_a_ratio_off_one_departs_at_x3_on_a_general_f():
    # measured 1.9e-14 at x_2 and 4.2e-5 at x_3
    ref = run("broyden-tridiagonal:10", "bfgs")
    trace = run("broyden-tridiagonal:10", "vbfgs:bounded:c=0.5")
    assert first_departure(trace, ref) == 3


def test_dfp_departs_where_the_hessian_is_singular_at_the_solution():
    # extended-powell's Hessian is singular at x*, and the gap grows about
    # a thousandfold a step from 2.9e-12 at k = 5 to 6.0e-9 at k = 6
    ref = run("extended-powell:8", "bfgs")
    assert first_departure(run("extended-powell:8", "dfp"), ref) == 6


@pytest.mark.parametrize("name, departure, iterations", [
    ("quadratic:100:20", 15, 22),
    ("quadratic:1000:50", 19, 85),
    ("quadratic:100:200", 89, 94),
])
def test_selfscale_departs_on_a_quadratic(name, departure, iterations):
    # the theory covers selfscale too, yet its gap grows from float noise
    # to past GAP_TOL at the measured step: float sensitivity to B's
    # scale, as the next test shows
    ref = run(name, "bfgs", seed=3)
    trace = run(name, "selfscale", seed=3)
    assert first_departure(trace, ref) == departure
    assert (trace.iterations, ref.iterations) == (iterations, QUADRATICS[name])


def test_bfgs_from_a_scaled_b0_departs_like_selfscale():
    # selfscale's first theta is about 800 on quadratic:1000:50.  bfgs
    # from B0 = 800 I follows CG in exact arithmetic too, yet departs from
    # its B0 = I run as selfscale does, so the selfscale cases above are
    # asserted at a step, not over the run.  Measured 1.2e-14 at k = 12,
    # 9.2e-12 at 16, 3.5e-6 at 22 and 1.7e-3 at 24
    ref = run("quadratic:1000:50", "bfgs", seed=3)
    spec = get_problem("quadratic:1000:50", seed=3)
    config = SolverConfig("bfgs", line_search=LineSearchParams(method="exact"))
    trace = minimize(spec.objective, spec.start, PDMatrix(np.sqrt(800.0) * np.eye(50)), config)
    assert trace.status == "Converged"
    gap = gaps(trace, ref)
    assert gap[12] <= 1e-13 and gap[16] <= GAP_TOL
    assert gap[22] > 1e-6 and gap[24] > 1e-3
    assert first_departure(trace, ref) == 18
    assert (trace.iterations, ref.iterations) == (55, QUADRATICS["quadratic:1000:50"])
