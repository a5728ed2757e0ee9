"""Tour of the update families.

One secant pair, several potentials: how the V-BFGS point moves as the
potential changes, how Log collapses to classical BFGS, and what the
structure coefficient r = nu(det B')/nu(det B) does.
"""

import numpy as np

from bregmanqn import (
    SecantPair,
    bfgs_update,
    bounded_potential,
    cholesky_factorize,
    dfp_update,
    log_potential,
    power_potential,
    v_bfgs_update,
    v_bregman_divergence,
)

rng = np.random.default_rng(0)
n = 4
a = rng.standard_normal((n, n))
B = cholesky_factorize(a @ a.T + n * np.eye(n))
s = rng.standard_normal(n)
y = rng.standard_normal(n)
if s @ y <= 0:
    y = -y
pair = SecantPair(s, y)

print(f"B: n={n}, det = {B.det():.4f}")
print(f"pair: s'y = {pair.s @ pair.y:.4f}\n")

ref = bfgs_update(B, pair)
print("classical BFGS      det B' = %.6f" % ref.det())
print("classical DFP       det B' = %.6f" % dfp_update(B, pair).det())
print()

for pot in (log_potential(), power_potential(0.2), power_potential(-0.8),
            bounded_potential(0.5)):
    out = v_bfgs_update(B, pair, pot)
    r = pot.nu(out.det()) / pot.nu(B.det())
    gap = np.linalg.norm(out.matrix - ref.matrix, "fro")
    secant = np.linalg.norm(out.matrix @ s - y)
    print(f"{pot.label():16s} det B' = {out.det():.6f}  "
          f"r = {r:.4f}  ||B'-BFGS||_F = {gap:.3e}  ||B's-y|| = {secant:.2e}")

print("""
The log potential reproduces BFGS exactly (nu is constant, r = 1).
Other potentials blend the BFGS point with yy'/s'y through r; the
secant equation holds for every potential.
""")

# every update is the divergence projection of B onto the secant
# manifold, so its divergence is minimal among secant-satisfying points
pot = power_potential(0.2)
out = v_bfgs_update(B, pair, pot)
d_out = v_bregman_divergence(out, B, pot)
d_bfgs = v_bregman_divergence(ref, B, pot)
print(f"D_V(B'_power, B) = {d_out:.6f}  <=  D_V(B'_bfgs, B) = {d_bfgs:.6f}")
