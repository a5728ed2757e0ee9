"""Quasi-Newton driver: line searches, the iteration loop, and
affine-transformation tooling for invariance experiments."""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    BregmanQNError,
    InvalidParameter,
    LineSearchFail,
    SingularTransform,
    require_count,
    require_real,
)
from .pdlinalg import PDMatrix
from .updates import SecantPair, UpdateFamily
from .sparse import SparseUpdateFamily

__all__ = [
    "Objective",
    "LineSearchParams",
    "SolverConfig",
    "IterationRecord",
    "SolverTrace",
    "LineSearchResult",
    "InvarianceReport",
    "wolfe_line_search",
    "minimize",
    "transform_problem",
    "invariance_check",
]

CURVATURE_SKIP_RTOL = 1e-12
# After an Armijo failure the next trial lies within these fractions of
# the way from the bracket's low end to the failed step.
BACKTRACK_MIN_FRAC = 0.2
BACKTRACK_MAX_FRAC = 0.5


@dataclass
class Objective:
    """Smooth function of x in R^n, value(x) -> float, with its gradient,
    gradient(x) -> array of shape (n,); name labels it in reports."""

    n: int
    value: callable
    gradient: callable
    name: str = ""

    def __post_init__(self):
        self.n = require_count("objective dimension n", self.n)


@dataclass
class LineSearchParams:
    """Wolfe constants; method "exact" minimizes along the ray instead."""

    c1: float = 1e-4
    c2: float = 0.9
    alpha_init: float = 1.0
    max_trials: int = 60
    method: str = "wolfe"

    def __post_init__(self):
        self.c1 = require_real("c1", self.c1)
        self.c2 = require_real("c2", self.c2)
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise InvalidParameter("need 0 < c1 < c2 < 1")
        self.alpha_init = require_real("alpha_init", self.alpha_init, 0.0)
        self.max_trials = require_count("max_trials", self.max_trials)
        if self.method not in ("wolfe", "exact"):
            raise InvalidParameter(f"unknown line search method {self.method!r}")


@dataclass
class SolverConfig:
    family: UpdateFamily | str
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    grad_tol: float = 1e-8
    max_iter: int = 200
    sparsity: tuple | None = None  # (pattern, algorithm, T)
    # what minimize runs: family, or the SparseUpdateFamily of family and sparsity
    update_family: UpdateFamily | SparseUpdateFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a bare string uses the same grammar as the CLI --family flag
        if isinstance(self.family, str):
            self.family = UpdateFamily.from_string(self.family)
        elif not isinstance(self.family, UpdateFamily):
            raise InvalidParameter(f"family must be an UpdateFamily or a str, got {self.family!r}")
        if not isinstance(self.line_search, LineSearchParams):
            raise InvalidParameter(f"line_search is not a LineSearchParams: {self.line_search!r}")
        self.grad_tol = require_real("grad_tol", self.grad_tol, 0.0)
        self.max_iter = require_count("max_iter", self.max_iter)
        self.update_family = self.family
        if self.sparsity is not None:
            if not (isinstance(self.sparsity, (tuple, list)) and len(self.sparsity) == 3):
                raise InvalidParameter(
                    f"sparsity must be (pattern, algorithm, T), got {self.sparsity!r}"
                )
            self.update_family = SparseUpdateFamily(self.family, *self.sparsity)


@dataclass
class IterationRecord:
    k: int
    x: np.ndarray
    f: float
    grad_norm: float
    alpha: float | None
    det_b: float
    sty: float | None
    skipped: bool
    b: np.ndarray | None = None
    # cumulative f and g evaluations up to this record: the difference
    # between two records is the step's line-search cost
    nfev: int = 0
    ngev: int = 0


@dataclass
class SolverTrace:
    records: list
    status: str  # Converged | MaxIter | LineSearchFail | UpdateFail
    nfev: int = 0  # objective value evaluations, line search included
    ngev: int = 0  # gradient evaluations, line search included
    reason: str = ""  # the error that ended a failed run; empty otherwise

    @property
    def final(self):
        return self.records[-1]

    @property
    def iterations(self):
        return len(self.records) - 1

    def grad_norms(self):
        return np.array([r.grad_norm for r in self.records])

    def fs(self):
        return np.array([r.f for r in self.records])


class LineSearchResult(NamedTuple):
    """Accepted step length with f and its gradient at x + alpha*d."""

    alpha: float
    f: float
    g: np.ndarray


def _backtrack(lo, f_lo, dphi_lo, t, ft):
    """Trial after an Armijo failure at t, with dphi_lo < 0 the slope at lo.

    The minimizer of the quadratic through (lo, f_lo) with slope dphi_lo
    and through (t, ft), clipped to [BACKTRACK_MIN_FRAC, BACKTRACK_MAX_FRAC]
    of the way from lo to t; the midpoint when ft is not finite or the
    quadratic is not convex.
    """
    w = t - lo
    curv = ft - f_lo - dphi_lo * w
    if not (np.isfinite(ft) and curv > 0.0):
        return 0.5 * (lo + t)
    step = -0.5 * dphi_lo * w * w / curv
    return lo + min(max(step, BACKTRACK_MIN_FRAC * w), BACKTRACK_MAX_FRAC * w)


def wolfe_line_search(obj, x, d, params, f0=None, g0=None, f_prev=None):
    """Step length satisfying the (weak) Wolfe conditions.

    The first trial is params.alpha_init or, when f_prev (f at the
    previous iterate) is given, min(alpha_init, 1.01 * 2 (f_prev - f0) /
    -g0'd): the minimizer of the quadratic with slope g0'd whose minimum
    lies 1.01 times the last decrease below f0 (Nocedal & Wright 2006,
    eq. 3.60), ignored unless finite and positive.  The bracket [lo, hi]
    starts at [0, inf).  An Armijo failure at t sets hi = t and backtracks
    by safeguarded quadratic interpolation from lo (Dennis & Schnabel 1983,
    section 6.3); a curvature failure sets lo = t and, while hi is
    infinite, extrapolates to max(2t, alpha_init), so a cautious first
    trial goes straight to the unit step, else takes the midpoint.  The
    search fails once the next trial coincides with an end of the bracket
    or params.max_trials trials are spent.  Deterministic, so two runs
    related by a linear change of variables take identical branches until
    float noise separates them.
    f0 and g0 are f and its gradient at x, evaluated here when omitted;
    the returned f and g are the values the conditions were tested with
    at the accepted point, so a caller can carry them to the next step.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if f0 is None:
        f0 = float(obj.value(x))
    if g0 is None:
        g0 = obj.gradient(x)
    g0d = float(g0 @ d)
    if not np.isfinite(g0d) or g0d >= 0.0:
        raise LineSearchFail("search direction is not a descent direction")

    t = alpha_init = params.alpha_init
    if f_prev is not None:
        # in Python floats, so an overflow or inf - inf gives inf or nan
        # without a RuntimeWarning
        t_interp = 1.01 * 2.0 * (float(f_prev) - float(f0)) / -g0d
        if np.isfinite(t_interp) and t_interp > 0.0:
            t = min(t, t_interp)
    lo, hi = 0.0, np.inf
    f_lo, dphi_lo = f0, g0d
    for _ in range(params.max_trials):
        ft = float(obj.value(x + t * d))
        if not np.isfinite(ft) or ft > f0 + params.c1 * t * g0d:
            hi = t
            t = _backtrack(lo, f_lo, dphi_lo, t, ft)
        else:
            gt = np.asarray(obj.gradient(x + t * d), dtype=float)
            gtd = float(gt @ d)
            if gtd >= params.c2 * g0d:
                return LineSearchResult(t, ft, gt)
            lo, f_lo, dphi_lo = t, ft, gtd
            t = max(2.0 * t, alpha_init) if np.isinf(hi) else 0.5 * (lo + hi)
        if t == lo or t == hi:
            raise LineSearchFail(f"Wolfe bracket collapsed at step {t!r}")
    raise LineSearchFail(f"no Wolfe step within {params.max_trials} trials")


def _exact_line_search(obj, x, d, params, g0):
    """Minimize f along x + alpha*d by solving dphi(alpha) = 0, where
    dphi(0) = g0'd; f is evaluated once more at the root, and g too unless
    dphi already evaluated it there."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    grads = {}

    def dphi(a):
        g = np.asarray(obj.gradient(x + a * d), dtype=float)
        grads[a] = g
        return float(g @ d)

    d0 = float(g0 @ d)
    if not np.isfinite(d0) or d0 >= 0.0:
        raise LineSearchFail("search direction is not a descent direction")
    # Double hi while the slope there is negative; where it is not finite,
    # halve the step back toward the last finite one, as the Wolfe search
    # does for a non-finite f.
    lo, bad = 0.0, None
    hi = params.alpha_init
    dhi = dphi(hi)
    trials = 0
    while not (np.isfinite(dhi) and dhi >= 0.0):
        if np.isfinite(dhi):
            lo = hi
        else:
            bad = hi
        hi = 2.0 * hi if bad is None else 0.5 * (lo + bad)
        dhi = dphi(hi)
        trials += 1
        if trials >= params.max_trials:
            raise LineSearchFail("could not bracket a minimum along the ray")
    if dhi == 0.0:
        alpha = hi
    else:
        # Imported here so that only the exact search loads scipy.optimize.
        from scipy.optimize import brentq

        try:
            alpha = float(brentq(dphi, 0.0, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200))
        except RuntimeError as exc:  # no convergence within maxiter
            raise LineSearchFail(f"exact line search: {exc}") from exc
    x_new = x + alpha * d
    g = grads.get(alpha)
    if g is None:
        g = np.asarray(obj.gradient(x_new), dtype=float)
    return LineSearchResult(alpha, float(obj.value(x_new)), g)


class _CountingObjective:
    """Counts the value and gradient calls made through it."""

    def __init__(self, obj):
        self._obj = obj
        self.nfev = 0
        self.ngev = 0

    def value(self, x):
        self.nfev += 1
        return self._obj.value(x)

    def gradient(self, x):
        self.ngev += 1
        return self._obj.gradient(x)


def _require_real_values(f, g, n):
    """Raise InvalidParameter unless f is a real scalar and g a real array
    of shape (n,); ints and numpy scalars or 0-d arrays count as real."""
    f_arr, g_arr = np.asarray(f), np.asarray(g)
    if f_arr.shape != () or f_arr.dtype.kind not in "iuf":
        raise InvalidParameter(
            f"f(x0) must be a real scalar, got {type(f).__name__} "
            f"of shape {f_arr.shape} and dtype {f_arr.dtype}"
        )
    if g_arr.shape != (n,) or g_arr.dtype.kind not in "iuf":
        raise InvalidParameter(
            f"gradient at x0 must be a real array of shape ({n},), got "
            f"{type(g).__name__} of shape {g_arr.shape} and dtype {g_arr.dtype}"
        )


def _check_start(obj, B0, config):
    """(B0, config) as minimize's docstring states them, None giving I and
    the default config; InvalidParameter for anything else."""
    if config is None:
        config = SolverConfig(UpdateFamily("bfgs"))
    elif not isinstance(config, SolverConfig):
        raise InvalidParameter(f"config must be a SolverConfig, got {config!r}")
    if B0 is None:
        return PDMatrix.identity(obj.n), config
    if not (isinstance(B0, PDMatrix) and B0.L.shape == (obj.n, obj.n)):
        raise InvalidParameter(f"B0 must be a PDMatrix of dimension n={obj.n}")
    if not (np.isfinite(B0.L).all() and (np.diag(B0.L) > 0).all() and not np.triu(B0.L, 1).any()):
        raise InvalidParameter("B0 needs a finite lower-triangular factor with a positive diagonal")
    return B0, config


def minimize(obj, x0, B0=None, config=None, record_b=False):
    """Quasi-Newton iteration x_{k+1} = x_k - alpha_k B_k^{-1} grad f(x_k).

    Stops when the gradient norm reaches config.grad_tol or the budget
    runs out; a failed line search or a library error inside the update
    ends the run with its partial trace, which stops at the last point
    whose B was formed, and the error's message as trace.reason.  The
    update is config.update_family's, dense or sparse.  config (None for
    the default) must be a SolverConfig and B0 (None for I) a PDMatrix of
    dimension n with a finite lower-triangular factor of positive
    diagonal; anything else, or a B0 the update cannot start from, such
    as one off a sparsity pattern, raises InvalidParameter before the
    first evaluation.  f(x0) must be a real scalar and the gradient
    at x0 a real array of shape (n,); otherwise InvalidParameter is
    raised after those two evaluations.  Each record holds its own
    iterate x_k, which the run never writes into.  record_b stores each
    B_k densely (n^2 per iterate) for invariance comparisons.
    """
    B0, config = _check_start(obj, B0, config)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (obj.n,):
        raise InvalidParameter(f"x0 shape {x.shape} does not match n={obj.n}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("x0 must be finite")
    family = config.update_family
    state = family.initial_state(B0)
    # f and g are evaluated once per accepted point: at x0 here, then by
    # the line search, whose values are carried into the next step
    counted = _CountingObjective(obj)
    f, g = counted.value(x), counted.gradient(x)
    _require_real_values(f, g, obj.n)
    f, g = float(f), np.asarray(g, dtype=float)
    gn = float(np.linalg.norm(g))
    # The Wolfe search's first trial is interpolated from the last decrease
    # for the BFGS-side families only: DFP-type updates lack BFGS's
    # self-correction under the shorter inexact steps this gives (Powell
    # 1986; Byrd, Nocedal & Yuan 1987), so they start every search at
    # alpha_init.
    carry_f_prev = not family.inverse
    params = config.line_search
    records = []
    f_prev = alpha = sty = None
    skipped = False
    reason = ""
    for k in range(config.max_iter + 1):
        # x is rebound each step, never written in place, so the record
        # holds it; b is copied, as a skipped step keeps the state
        with np.errstate(over="ignore"):
            det_b = float(family.det_b(state))
        records.append(
            IterationRecord(
                k=k,
                x=x,
                f=f,
                grad_norm=gn,
                alpha=alpha,
                det_b=det_b,
                sty=sty,
                skipped=skipped,
                b=family.b_matrix(state).copy() if record_b else None,
                nfev=counted.nfev,
                ngev=counted.ngev,
            )
        )
        if gn <= config.grad_tol or k == config.max_iter:
            status = "Converged" if gn <= config.grad_tol else "MaxIter"
            break
        d = family.direction(state, g)
        try:
            if params.method == "exact":
                alpha, f_new, g_new = _exact_line_search(counted, x, d, params, g)
            else:
                alpha, f_new, g_new = wolfe_line_search(counted, x, d, params, f, g, f_prev)
        except LineSearchFail as exc:
            status, reason = "LineSearchFail", str(exc)
            break
        x_new = x + alpha * d
        s = x_new - x
        y = g_new - g
        sty = float(s @ y)
        scale = float(np.linalg.norm(s) * np.linalg.norm(y))
        skipped = sty <= CURVATURE_SKIP_RTOL * scale
        if not skipped:
            try:
                state = family.apply(state, SecantPair(s, y))
            except BregmanQNError as exc:
                status, reason = "UpdateFail", str(exc)
                break
        if carry_f_prev:
            f_prev = f
        x, f, g, gn = x_new, f_new, g_new, float(np.linalg.norm(g_new))
    return SolverTrace(records, status, counted.nfev, counted.ngev, reason)


def transform_problem(obj, T):
    """Change of variables x~ = T x: returns f~(x~) = f(T^{-1} x~).

    The gradient transforms as (T')^{-1} grad f(T^{-1} x~), so a run on
    the transformed problem mirrors the original in the new coordinates.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (obj.n, obj.n):
        raise InvalidParameter(f"transform shape {T.shape} does not match n={obj.n}")
    if not np.all(np.isfinite(T)):
        raise InvalidParameter("transform must be finite")
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularTransform(f"transform condition number {cond:.3e} too large")

    def value(xt):
        return obj.value(np.linalg.solve(T, np.asarray(xt, dtype=float)))

    def gradient(xt):
        gx = obj.gradient(np.linalg.solve(T, np.asarray(xt, dtype=float)))
        return np.linalg.solve(T.T, gx)

    name = f"{obj.name}~" if obj.name else ""
    return Objective(obj.n, value, gradient, name=name)


@dataclass
class InvarianceReport:
    """Deviation between a run and its image under x -> Tx.

    x_dev is max_k ||x~_k - T x_k|| / (1 + ||x_k||); b_dev is
    max_k ||T' B~_k T - B_k||_F / (1 + ||B_k||_F); both over the first
    k_used + 1 iterates.
    """

    x_dev: float
    b_dev: float
    k_used: int
    tol: float

    @property
    def invariant(self):
        return self.x_dev <= self.tol and self.b_dev <= self.tol


def invariance_check(obj, x0, B0, T, config, k_max=20, tol=1e-6):
    """Run the solver on a problem and on its affine image, compare.

    The transformed run starts at T x0 with B0 mapped through the
    congruence (T')^{-1} B0 T^{-1}; deviations beyond tol mean the update
    family is not invariant under this T.  Only iterates 0..k_max are
    compared, so both runs stop after at most k_max iterations.  tol must
    be finite and >= 0.  B0 and config take minimize's rule, checked
    before any evaluation.
    """
    B0, config = _check_start(obj, B0, config)
    k_max = require_count("k_max", k_max)
    tol = require_real("tol", tol, 0.0, closed=True)
    T = np.asarray(T, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    obj_t = transform_problem(obj, T)
    b0t = np.linalg.solve(T.T, np.linalg.solve(T.T, B0.matrix.T).T)
    B0_t = PDMatrix.from_matrix(0.5 * (b0t + b0t.T))

    config = replace(config, max_iter=min(config.max_iter, k_max))
    trace = minimize(obj, x0, B0, config, record_b=True)
    trace_t = minimize(obj_t, T @ x0, B0_t, config, record_b=True)

    k_used = min(len(trace.records), len(trace_t.records)) - 1
    x_dev = b_dev = 0.0
    for r, rt in zip(trace.records, trace_t.records):
        x_dev = max(x_dev, float(np.linalg.norm(rt.x - T @ r.x) / (1.0 + np.linalg.norm(r.x))))
        b_dev = max(b_dev, float(np.linalg.norm(T.T @ rt.b @ T - r.b, "fro")
                                 / (1.0 + np.linalg.norm(r.b, "fro"))))
    return InvarianceReport(x_dev=x_dev, b_dev=b_dev, k_used=k_used, tol=tol)
