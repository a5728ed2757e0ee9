"""Benchmark workloads: catalog problems, update families and seeded inputs.

A workload is a fixed list of cases, each one (problem, family, sparse
rounds), drawn for one or more input sets per seed.  The seed picks the
matrices of the `quadratic` problems and perturbs every start point by a
few percent; the program receives only the built objective, the start
point and the solver configuration.

The benchmark keeps its own copy of every catalog objective so that it
can recheck what the solver returns without trusting the program.
"""

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np

GRAD_TOL = 1e-6  # the CLI default
MAX_ITER = 400
START_JITTER = 0.02  # relative perturbation of each start coordinate


@dataclass(frozen=True)
class Workload:
    problems: tuple
    families: tuple
    # (algorithm, T) of the sparse update, or None for the dense update
    sparsity: tuple = (None,)
    # input sets drawn per seed; more of them steady the per-run fractions
    variants: int = 1


# gamma = -0.25 throughout: a gamma > 0 power potential is inadmissible at
# n >= 10, so such a row would be a workload error, not a program defect.
WORKLOADS = {
    "dense-small": Workload(
        problems=(
            "rosenbrock",
            "extended-powell:8",
            "extended-powell:16",
            "quadratic:1000:20",
            "broyden-tridiagonal:10",
            "broyden-tridiagonal:16",
        ),
        families=(
            "bfgs",
            "dfp",
            "vbfgs:power:gamma=-0.25",
            "vbfgs:bounded:c=0.5",
            "vdfp:log",
            "selfscale",
        ),
        variants=6,
    ),
    # Keeps the known RootNotBracketed failures of vbfgs:bounded and
    # vdfp:log at n = 200 in view; they count as non-converged solves.
    "dense-large": Workload(
        problems=("broyden-tridiagonal:200", "quadratic:100:300", "extended-powell:200"),
        families=("bfgs", "vbfgs:bounded:c=0.5", "vdfp:log", "selfscale", "dfp"),
    ),
    # The n = 4 rows run the numerical secant oracle inside sparse_update.
    "sparse-band": Workload(
        problems=("broyden-tridiagonal:4", "broyden-tridiagonal:12", "broyden-tridiagonal:40"),
        families=("vbfgs:log", "vbfgs:bounded:c=0.5"),
        sparsity=((1, 1), (2, 1), (2, 3)),
    ),
}


@dataclass
class Case:
    label: str
    problem: object  # bregmanqn.ProblemSpec
    x0: np.ndarray
    config: object  # bregmanqn.SolverConfig
    seed: int

    @cached_property
    def reference(self):
        return Reference(self.problem.name, self.seed)


def build_cases(bq, name, seed):
    """The workload's inputs for this seed, in a fixed order."""
    workload = WORKLOADS[name]
    cases = []
    for variant in range(workload.variants):
        # distinct seeds give disjoint input sets
        input_seed = seed * workload.variants + variant
        for index, problem_name in enumerate(workload.problems):
            spec = bq.get_problem(problem_name, seed=input_seed)
            rng = np.random.default_rng([input_seed, index])
            x0 = spec.start * (1.0 + START_JITTER * rng.standard_normal(spec.n))
            for family in workload.families:
                for rounds in workload.sparsity:
                    sparsity = None if rounds is None else (spec.pattern, *rounds)
                    config = bq.SolverConfig(
                        family, grad_tol=GRAD_TOL, max_iter=MAX_ITER, sparsity=sparsity
                    )
                    label = f"{problem_name} {family}"
                    if rounds is not None:
                        label += " alg{} T={}".format(*rounds)
                    if workload.variants > 1:
                        label += f" #{variant}"
                    cases.append(Case(label, spec, x0, config, input_seed))
    return cases


# ---------------------------------------------------------------------------
# solving one case


@dataclass
class Outcome:
    status: str  # the trace status, or the name of the library error raised
    iterations: int | None
    nfev: int
    ngev: int
    skipped: int
    x: np.ndarray | None
    f: float | None
    grad_norm: float | None
    wall: float

    @property
    def converged(self):
        return self.status == "Converged"

    def signature(self):
        """Everything that must repeat exactly for one input."""
        xbytes = b"" if self.x is None else self.x.tobytes()
        return (self.status, self.iterations, self.nfev, self.ngev, self.skipped, xbytes)


def solve(bq, case, wrap=None):
    """Run one closed-loop solve through bregmanqn.minimize.

    wrap(name, fn), when given, wraps the objective's value and gradient
    for tracing; counting happens either way.
    """
    counts = [0, 0]
    inner = case.problem.objective

    def value(x):
        counts[0] += 1
        return inner.value(x)

    def gradient(x):
        counts[1] += 1
        return inner.gradient(x)

    if wrap is not None:
        value, gradient = wrap("problems.value", value), wrap("problems.gradient", gradient)
    objective = bq.Objective(inner.n, value, gradient, name=inner.name)
    start = perf_counter()
    try:
        trace = bq.minimize(objective, case.x0, config=case.config)
    except bq.BregmanQNError as exc:
        wall = perf_counter() - start
        return Outcome(type(exc).__name__, None, *counts, 0, None, None, None, wall)
    wall = perf_counter() - start
    final = trace.final
    skipped = sum(1 for r in trace.records if r.skipped)
    return Outcome(
        trace.status, trace.iterations, *counts, skipped,
        final.x, final.f, final.grad_norm, wall,
    )


def recheck(case, outcome):
    """Why the outcome is wrong by the benchmark's own objective, or None."""
    if outcome.x is None:
        return None  # a library error: counted as not converged
    ref = case.reference
    x = outcome.x
    if not np.all(np.isfinite(x)):
        return "final x is not finite"
    f, gnorm = ref.value(x), float(np.linalg.norm(ref.gradient(x)))
    if not abs(f - outcome.f) <= 1e-8 * (1.0 + abs(f)):
        return f"reported f {outcome.f!r} but f(x) = {f!r}"
    if not abs(gnorm - outcome.grad_norm) <= 1e-6 * gnorm + 1e-12:
        return f"reported |g| {outcome.grad_norm!r} but |g(x)| = {gnorm!r}"
    if f > ref.value(case.x0):
        return "final f is above f(x0)"
    if outcome.converged and gnorm > GRAD_TOL * (1.0 + 1e-6):
        return f"Converged with |g(x)| = {gnorm:.3e} > {GRAD_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# the benchmark's own copy of the catalog objectives


class Reference:
    """f and its gradient for a catalog problem name, written independently
    of bregmanqn.problems (the quadratic rebuilds the same seeded matrix)."""

    def __init__(self, name, seed):
        head, *params = name.split(":")
        self.value, self.gradient = getattr(self, "_" + head.replace("-", "_"))(seed, *params)

    @staticmethod
    def _rosenbrock(seed):
        def value(x):
            return 100.0 * (x[1] - x[0] * x[0]) ** 2 + (1.0 - x[0]) ** 2

        def gradient(x):
            t = x[1] - x[0] * x[0]
            return np.array([-400.0 * x[0] * t - 2.0 * (1.0 - x[0]), 200.0 * t])

        return value, gradient

    @staticmethod
    def _quadratic(seed, cond, n):
        n = int(n)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * np.logspace(0.0, np.log10(float(cond)), n)) @ Q.T
        A = 0.5 * (A + A.T)
        return (lambda x: 0.5 * float(x @ A @ x)), (lambda x: A @ x)

    @staticmethod
    def _extended_powell(seed, n):
        def blocks(x):
            return x.reshape(-1, 4).T

        def value(x):
            a, b, c, d = blocks(x)
            return float(np.sum(
                (a + 10 * b) ** 2 + 5 * (c - d) ** 2 + (b - 2 * c) ** 4 + 10 * (a - d) ** 4
            ))

        def gradient(x):
            a, b, c, d = blocks(x)
            p, q, r, s = a + 10 * b, c - d, b - 2 * c, a - d
            g = np.stack([
                2 * p + 40 * s**3,
                20 * p + 4 * r**3,
                10 * q - 8 * r**3,
                -10 * q - 40 * s**3,
            ])
            return g.T.reshape(-1)

        return value, gradient

    @staticmethod
    def _broyden_tridiagonal(seed, n):
        def residual(x):
            xp = np.concatenate(([0.0], x, [0.0]))
            return (3.0 - 2.0 * x) * x - xp[:-2] - 2.0 * xp[2:] + 1.0

        def value(x):
            r = residual(x)
            return float(np.sum(r * r))

        def gradient(x):
            # 2 J'r with J tridiagonal: diag 3 - 4x, sub -1, super -2
            rp = np.concatenate(([0.0], residual(x), [0.0]))
            return 2.0 * ((3.0 - 4.0 * x) * rp[1:-1] - rp[2:] - 2.0 * rp[:-2])

        return value, gradient
