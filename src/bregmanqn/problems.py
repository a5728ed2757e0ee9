"""Benchmark problem catalog for the CLI and tests."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, require_count, require_real, require_type
from .solver import Objective
from .sparse import SparsityPattern, banded_pattern

__all__ = ["ProblemSpec", "CATALOG", "get_problem", "list_problems"]


@dataclass
class ProblemSpec:
    name: str
    objective: Objective
    start: np.ndarray
    pattern: SparsityPattern | None = None

    @property
    def n(self):
        return self.objective.n


CATALOG = [
    ("rosenbrock", "classic 2-d banana valley, start (-1.2, 1), minimum at (1, 1)"),
    ("quadratic:<cond>[:<n>]", "seeded random SPD quadratic with the given condition number (default n=10)"),
    ("extended-powell[:<n>]", "singular-Hessian sum of fourth powers, n a multiple of 4 (default 8)"),
    ("broyden-tridiagonal[:<n>]",
     "tridiagonal nonlinear least squares, carries its Jacobian's tridiagonal pattern; "
     "the Hessian is pentadiagonal (default 10)"),
]


def _rosenbrock():
    def value(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def gradient(x):
        return np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )

    obj = Objective(2, value, gradient, name="rosenbrock")
    return ProblemSpec("rosenbrock", obj, np.array([-1.2, 1.0]))


def _quadratic(cond, n, seed):
    cond = require_real("quadratic condition number", cond, 1.0, closed=True)
    n = require_count("quadratic n", n)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.logspace(0.0, np.log10(cond), n)
    A = (Q * eigs) @ Q.T
    A = 0.5 * (A + A.T)

    def value(x):
        return float(0.5 * x @ (A @ x))

    def gradient(x):
        return A @ x

    name = f"quadratic:{cond:g}:{n}"
    obj = Objective(n, value, gradient, name=name)
    return ProblemSpec(name, obj, np.ones(n))


def _extended_powell(n):
    if n % 4 != 0 or n < 4:
        raise InvalidParameter("extended-powell needs n to be a positive multiple of 4")
    s5, s10 = np.sqrt(5.0), np.sqrt(10.0)

    def residuals(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return a + 10.0 * b, s5 * (c - d), (b - 2.0 * c) ** 2, s10 * (a - d) ** 2

    def value(x):
        r1, r2, r3, r4 = residuals(x)
        return float(np.sum(r1**2 + r2**2 + r3**2 + r4**2))

    def gradient(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        r1, r2, r3, r4 = residuals(x)
        g = np.empty_like(x)
        g[0::4] = 2.0 * r1 + 4.0 * s10 * r4 * (a - d)
        g[1::4] = 20.0 * r1 + 4.0 * r3 * (b - 2.0 * c)
        g[2::4] = 2.0 * s5 * r2 - 8.0 * r3 * (b - 2.0 * c)
        g[3::4] = -2.0 * s5 * r2 - 4.0 * s10 * r4 * (a - d)
        return g

    name = f"extended-powell:{n}"
    obj = Objective(n, value, gradient, name=name)
    start = np.tile(np.array([3.0, -1.0, 0.0, 1.0]), n // 4)
    return ProblemSpec(name, obj, start)


def _broyden_tridiagonal(n):
    n = require_count("broyden-tridiagonal n", n, 2)

    def residuals(x):
        r = (3.0 - 2.0 * x) * x + 1.0
        r[:-1] -= 2.0 * x[1:]
        r[1:] -= x[:-1]
        return r

    def value(x):
        r = residuals(x)
        return float(r @ r)

    def gradient(x):
        r = residuals(x)
        g = 2.0 * (3.0 - 4.0 * x) * r
        g[:-1] += -2.0 * r[1:]  # dr_{i+1}/dx_i = -1
        g[1:] += -4.0 * r[:-1]  # dr_i/dx_{i+1} = -2, times 2r
        return g

    name = f"broyden-tridiagonal:{n}"
    obj = Objective(n, value, gradient, name=name)
    return ProblemSpec(name, obj, -np.ones(n), pattern=banded_pattern(n, 1))


def get_problem(name, seed=0):
    """Build a catalog problem from its name, e.g. "quadratic:100:6".

    seed, a count from 0, draws the quadratic's random rotation.
    """
    parts = require_type("problem name", name, str).strip().split(":")
    seed = require_count("seed", seed, 0)
    head = parts[0].lower()
    most = {"rosenbrock": 0, "quadratic": 2, "extended-powell": 1, "broyden-tridiagonal": 1}
    if head in most and len(parts) - 1 > most[head]:
        raise InvalidParameter(f"{head} takes at most {most[head]} parameters, got {name!r}")
    try:
        if head == "rosenbrock":
            return _rosenbrock()
        if head == "quadratic":
            if len(parts) < 2:
                raise InvalidParameter("quadratic needs a condition number, e.g. quadratic:100")
            cond = float(parts[1])
            n = int(parts[2]) if len(parts) > 2 else 10
            return _quadratic(cond, n, seed)
        if head == "extended-powell":
            n = int(parts[1]) if len(parts) > 1 else 8
            return _extended_powell(n)
        if head == "broyden-tridiagonal":
            n = int(parts[1]) if len(parts) > 1 else 10
            return _broyden_tridiagonal(n)
    except ValueError as exc:
        raise InvalidParameter(f"bad problem parameter in {name!r}: {exc}")
    raise InvalidParameter(f"unknown problem {name!r}; see list-problems")


def list_problems():
    return list(CATALOG)
