"""Affine invariance of the update families.

Runs the same minimization in original and linearly transformed
coordinates and measures how far the iterates drift apart.  Unimodular
transforms (det T = 1) leave every family invariant; volume-changing
transforms separate the potentials that are homogeneous in the
determinant from the one that is not.
"""

import numpy as np

from bregmanqn import (
    SolverConfig,
    UpdateFamily,
    get_problem,
    invariance_check,
)


def seeded_transform(n, seed, det_target):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    d = np.linalg.det(M)
    M[:, 0] *= np.sign(d)  # one column: det changes sign at any n
    return M * (abs(d) ** (-1.0 / n)) * det_target ** (1.0 / n)


spec = get_problem("quadratic:20:3", seed=6)
families = ("bfgs", "vbfgs:log", "vbfgs:power:gamma=0.2", "vbfgs:bounded:c=0.5")

print(f"problem: {spec.name}\n")
for det_t in (1.0, 2.0):
    print(f"det(T) = {det_t:g}")
    for fam in families:
        cfg = SolverConfig(UpdateFamily.from_string(fam), grad_tol=1e-10)
        rep = invariance_check(spec.objective, spec.start, None,
                               seeded_transform(3, 0, det_t), cfg,
                               k_max=20, tol=1e-6)
        verdict = "invariant" if rep.invariant else "NOT invariant"
        print(f"  {fam:28s} x_dev = {rep.x_dev:.3e}  b_dev = {rep.b_dev:.3e}  {verdict}")
    print()

print("""The bounded potential's nu depends on the absolute scale of the
determinant, so it commutes only with volume-preserving changes of
variables; log and power potentials are homogeneous and survive both.""")
