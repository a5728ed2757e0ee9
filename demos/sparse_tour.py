"""Chordal patterns, completions, and the sparse update chain.

Builds a banded pattern, inspects its clique tree, completes partial
data to the maximum-determinant positive definite matrix, and runs the
alternating-projection update until it reaches the constrained optimum.
"""

import numpy as np

from bregmanqn import (
    PDMatrix,
    SecantPair,
    SparseUpdateFamily,
    UpdateFamily,
    banded_pattern,
    cholesky_factorize,
    clique_factorize,
    is_chordal,
    log_potential,
    sparse_update,
    theta_v_project_sparse,
)

n = 6
pattern = banded_pattern(n, 1)
tree = is_chordal(pattern)
print(f"tridiagonal pattern, n={n}")
print(f"  cliques:    {tree.cliques}")
print(f"  separators: {tree.separators}")
print()

rng = np.random.default_rng(2)
a = rng.standard_normal((n, n))
data = pattern.restrict(a @ a.T + n * np.eye(n))
_, k = clique_factorize(data, tree)  # (log det X, X^-1)
x = cholesky_factorize(k).inv()
print("maximum determinant completion of the banded data:")
print(f"  det = {np.linalg.det(x):.4f}")
print(f"  largest off-pattern entry of the inverse = {pattern.off_pattern_magnitude(k):.2e}")
print("  (zero fill in the inverse is the certificate of det-optimality)")
print()

# divergence projection onto the pattern
pot = log_potential()
b = cholesky_factorize(a @ a.T + n * np.eye(n))
bstar = theta_v_project_sparse(b, tree, pot)
print("projection of a dense matrix onto the pattern:")
print(f"  off-pattern magnitude of B* = {pattern.off_pattern_magnitude(bstar.matrix):.2e}")
print()

# the sparse quasi-Newton update: alternate between the secant manifold
# and the pattern until both constraints hold
target = pattern.restrict(a @ a.T + n * np.eye(n))
s = rng.standard_normal(n)
pair = SecantPair(s, target @ s)
family = SparseUpdateFamily(UpdateFamily("vbfgs", pot), pattern, algorithm=2, T=250)
res = sparse_update(PDMatrix.identity(n), pair, family)
print(f"alternating projections ({res.trace_kind} trace), every 50th round:")
for t in range(0, len(res.trace), 50):
    print(f"  t={t:4d}  divergence = {res.trace[t]:.3e}")
print(f"  final ||B's - y|| = {np.abs(res.b_out.matrix @ pair.s - pair.y).max():.2e}")
print(f"  final off-pattern = {pattern.off_pattern_magnitude(res.b_out.matrix):.2e}")
