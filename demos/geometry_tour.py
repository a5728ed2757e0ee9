"""Divergences and coordinates on the positive definite cone.

Shows the V-Bregman divergence against the matrix KL divergence, the
theta_V coordinate map, and the Pythagorean decomposition through a
projection point.
"""

import numpy as np

from bregmanqn import (
    PDMatrix,
    SecantPair,
    invert_theta,
    kl_divergence,
    log_potential,
    power_potential,
    theta_coordinate,
    v_bfgs_update,
    v_bregman_divergence,
)

rng = np.random.default_rng(1)
n = 3


def rand_pd():
    a = rng.standard_normal((n, n))
    return PDMatrix.from_matrix(a @ a.T + n * np.eye(n))


P, Q = rand_pd(), rand_pd()

print("matrix KL vs V-Bregman with the log potential (identical by design):")
print(f"  KL(P,Q)        = {kl_divergence(P, Q):.8f}")
print(f"  D_log(P,Q)     = {v_bregman_divergence(P, Q, log_potential()):.8f}")
print(f"  D_log(Q,P)     = {v_bregman_divergence(Q, P, log_potential()):.8f}  (asymmetric)")
print()

pot = power_potential(0.25)
theta = theta_coordinate(P, pot)
back = invert_theta(theta, pot)
print("theta_V round trip for the power potential:")
print(f"  theta eigenvalues (all negative): {np.linalg.eigvalsh(theta)}")
print(f"  max |invert(theta(P)) - P|       = {np.abs(back.matrix - P.matrix).max():.2e}")
print()

# Pythagorean identity: project Q onto the secant manifold, then measure
# any on-manifold point A against Q directly and through the projection
s = rng.standard_normal(n)
y = rng.standard_normal(n)
if s @ y <= 0:
    y = -y
pair = SecantPair(s, y)
proj = v_bfgs_update(Q, pair, pot)
A = v_bfgs_update(rand_pd(), pair, pot)  # another point with As = y

lhs = v_bregman_divergence(A, Q, pot)
rhs = v_bregman_divergence(A, proj, pot) + v_bregman_divergence(proj, Q, pot)
print("Pythagorean decomposition through the projection:")
print(f"  D(A,Q)               = {lhs:.10f}")
print(f"  D(A,B') + D(B',Q)    = {rhs:.10f}")
print(f"  residual             = {abs(lhs - rhs):.2e}")
