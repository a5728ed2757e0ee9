"""Solver families across the benchmark catalog.

Iteration counts for each family on Rosenbrock, then a sparse-updated
run on the tridiagonal problem that keeps every Hessian approximation
on the band.
"""

from bregmanqn import SolverConfig, UpdateFamily, get_problem, minimize

families = (
    "bfgs",
    "dfp",
    "vbfgs:log",
    "vbfgs:power:gamma=0.1",
    "vbfgs:bounded:c=0.3",
    "selfscale",
)

spec = get_problem("rosenbrock")
print(f"{spec.name} from {spec.start}, grad tol 1e-8:")
for fam in families:
    cfg = SolverConfig(UpdateFamily.from_string(fam), grad_tol=1e-8)
    trace = minimize(spec.objective, spec.start, config=cfg)
    print(f"  {fam:24s} {trace.status:10s} iters = {trace.iterations:3d}  "
          f"f = {trace.final.f:.3e}")
print()

spec = get_problem("extended-powell:8")
print(f"{spec.name}, grad tol 1e-6:")
for fam in ("bfgs", "vbfgs:power:gamma=0.1"):
    cfg = SolverConfig(UpdateFamily.from_string(fam), grad_tol=1e-6, max_iter=400)
    trace = minimize(spec.objective, spec.start, config=cfg)
    print(f"  {fam:24s} {trace.status:10s} iters = {trace.iterations:3d}  "
          f"f = {trace.final.f:.3e}")
print()

# the broyden problem ships its own band; the sparse chain keeps B on it
spec = get_problem("broyden-tridiagonal:10")
cfg = SolverConfig(
    UpdateFamily.from_string("vbfgs:log"),
    grad_tol=1e-6,
    sparsity=(spec.pattern, 2, 3),
)
trace = minimize(spec.objective, spec.start, config=cfg, record_b=True)
off = max(spec.pattern.off_pattern_magnitude(r.b) for r in trace.records)
print(f"{spec.name} with sparse updates on the band:")
print(f"  {trace.status} in {trace.iterations} iterations "
      f"(nfev = {trace.nfev}, ngev = {trace.ngev}), "
      f"max off-pattern over the run = {off:.2e}")
