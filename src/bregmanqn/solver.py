"""Quasi-Newton driver: line searches, the iteration loop, and
affine-transformation tooling for invariance experiments."""

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    BregmanQNError,
    InvalidParameter,
    LineSearchFail,
    SingularTransform,
    require_array,
    require_count,
    require_real,
    require_type,
)
from .pdlinalg import PDMatrix, cholesky_factorize
from .updates import SecantPair, UpdateFamily
from .sparse import SparseUpdateFamily, _require_on_pattern

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
# While the bracket is open, a curvature failure at t extrapolates to at
# least this multiple of t.
EXTRAPOLATE = 2.0
# On the dual side the first trial may reach this multiple of alpha_init:
# capped at alpha_init, the step that repeats the last first-order change
# undershoots, and DFP does not recover from short steps as BFGS does.
DUAL_FIRST_CAP = 4.0


@dataclass(frozen=True)
class Objective:
    """Smooth function of x in R^n, value(x) -> float, with its gradient,
    gradient(x) -> array of shape (n,); name labels it in reports."""

    n: int
    value: callable
    gradient: callable
    name: str = ""

    def __post_init__(self):
        vars(self).update(n=require_count("objective dimension n", self.n))
        for name in ("value", "gradient"):
            require_type(f"Objective.{name}", getattr(self, name), Callable)


@dataclass(frozen=True)
class LineSearchParams:
    """Wolfe constants; method "exact" minimizes along the ray instead."""

    c1: float = 1e-4
    c2: float = 0.9
    alpha_init: float = 1.0
    max_trials: int = 60
    method: str = "wolfe"

    def __post_init__(self):
        vars(self).update(c1=require_real("c1", self.c1), c2=require_real("c2", self.c2))
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise InvalidParameter("need 0 < c1 < c2 < 1")
        vars(self).update(alpha_init=require_real("alpha_init", self.alpha_init, 0.0),
                          max_trials=require_count("max_trials", self.max_trials))
        if self.method not in ("wolfe", "exact"):
            raise InvalidParameter(f"unknown line search method {self.method!r}")


@dataclass(frozen=True)
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
            vars(self).update(family=UpdateFamily.from_string(self.family))
        require_type("family", self.family, UpdateFamily)
        require_type("line_search", self.line_search, LineSearchParams)
        vars(self).update(grad_tol=require_real("grad_tol", self.grad_tol, 0.0),
                          max_iter=require_count("max_iter", self.max_iter),
                          update_family=self.family)
        if self.sparsity is not None:
            if not (isinstance(self.sparsity, (tuple, list)) and len(self.sparsity) == 3):
                raise InvalidParameter(
                    f"sparsity must be (pattern, algorithm, T), got {self.sparsity!r}")
            vars(self).update(sparsity=tuple(self.sparsity),
                              update_family=SparseUpdateFamily(self.family, *self.sparsity))


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


class _CountingObjective:
    """The one evaluator of an objective: counts its calls and checks each
    output, f(x) as a real scalar and the gradient as a real array (n,)."""

    def __init__(self, obj):
        self._obj = obj
        self.n = obj.n
        self.nfev = 0
        self.ngev = 0

    def value(self, x):
        self.nfev += 1
        return float(require_array("f(x)", self._obj.value(x), ()))

    def gradient(self, x):
        self.ngev += 1
        return require_array("gradient", self._obj.gradient(x), (self.n,))


def wolfe_line_search(obj, x, d, params, f0=None, g0=None, df_prev=None, dual=False):
    """Step length satisfying the (weak) Wolfe conditions.

    The first trial is df_prev / g0'd, the step whose first-order change
    is the target df_prev (Nocedal & Wright 2006, eq. 3.59), capped at
    params.alpha_init, or at DUAL_FIRST_CAP * alpha_init when dual is
    true; it is alpha_init when df_prev is None or that step is not
    finite and positive.  minimize builds the target from the last step
    and sets dual for the DFP-type families.
    The bracket [lo, hi] starts at [0, inf).  An Armijo failure at t sets
    hi = t and backtracks by safeguarded quadratic interpolation from lo
    (Dennis & Schnabel 1983, section 6.3); a curvature failure sets lo = t
    and, while hi is infinite, extrapolates to max(2t, alpha_init), so a
    cautious first trial goes straight to the unit step, else takes the
    midpoint.  The search fails once the next trial coincides with an end
    of the bracket or params.max_trials trials are spent.  Deterministic,
    so two runs related by a linear change of variables take identical
    branches until float noise separates them.
    f0 and g0 are f and its gradient at x, evaluated here when omitted;
    the returned f and g are the values the conditions were tested with
    at the accepted point, so a caller can carry them to the next step.
    f0, df_prev, g0 and every f and gradient evaluated here take
    minimize's output rule: real scalars and real arrays of shape (n,).
    """
    require_type("params", params, LineSearchParams)
    x = require_array("x", x, (obj.n,))
    d = require_array("d", d, (obj.n,))
    if not isinstance(obj, _CountingObjective):
        obj = _CountingObjective(obj)
    f0 = obj.value(x) if f0 is None else float(require_array("f0", f0, ()))
    g0 = obj.gradient(x) if g0 is None else require_array("g0", g0, (obj.n,))
    g0d = float(g0 @ d)
    if not np.isfinite(g0d) or g0d >= 0.0:
        raise LineSearchFail("search direction is not a descent direction")

    t = alpha_init = params.alpha_init
    if df_prev is not None:
        # in Python floats, so an overflow gives inf without a RuntimeWarning
        t_first = float(require_array("df_prev", df_prev, ())) / g0d
        if np.isfinite(t_first) and t_first > 0.0:
            t = min(DUAL_FIRST_CAP * t if dual else t, t_first)
    lo, hi = 0.0, np.inf
    f_lo, dphi_lo = f0, g0d
    for _ in range(params.max_trials):
        ft = obj.value(x + t * d)
        if not np.isfinite(ft) or ft > f0 + params.c1 * t * g0d:
            hi = t
            t = _backtrack(lo, f_lo, dphi_lo, t, ft)
        else:
            gt = obj.gradient(x + t * d)
            gtd = float(gt @ d)
            if gtd >= params.c2 * g0d:
                return LineSearchResult(t, ft, gt)
            lo, f_lo, dphi_lo = t, ft, gtd
            t = max(EXTRAPOLATE * t, alpha_init) if np.isinf(hi) else 0.5 * (lo + hi)
        if t == lo or t == hi:
            raise LineSearchFail(f"Wolfe bracket collapsed at step {t!r}")
    raise LineSearchFail(f"no Wolfe step within {params.max_trials} trials")


def _exact_line_search(obj, x, d, params, g0):
    """Minimize f along x + alpha*d by solving dphi(alpha) = 0, where
    dphi(0) = g0'd; dphi evaluates the gradient once per new alpha and
    reuses it after, so the root finder's calls at the bracket's ends are
    free.  f is evaluated once more at the root, and g too unless dphi
    already evaluated it there.  A non-finite f there fails the search."""
    grads = {0.0: g0}

    def dphi(a):
        if a not in grads:
            grads[a] = obj.gradient(x + a * d)
        return float(grads[a] @ d)

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
    g = grads[alpha] if alpha in grads else obj.gradient(x_new)
    f = obj.value(x_new)
    if not np.isfinite(f):
        raise LineSearchFail(f"exact line search: f = {f} at alpha = {alpha} is not finite")
    return LineSearchResult(alpha, f, g)


def _check_start(obj, B0, config):
    """(B0, config) as minimize's docstring states them, None giving I and
    the default config; InvalidParameter for anything else, B0 = I too
    when it does not fit a sparse config's pattern, and
    PotentialNotAdmissible when the potential rules out obj.n."""
    if config is None:
        config = SolverConfig(UpdateFamily("bfgs"))
    require_type("config", config, SolverConfig)
    if B0 is None:
        B0 = PDMatrix.identity(obj.n)
    else:
        # PDMatrix holds its factor to the rule, and the factor is read-only
        require_array("B0.L", require_type("B0", B0, PDMatrix).L, (obj.n, obj.n))
    if config.sparsity is not None:
        _require_on_pattern(B0, config.update_family.pattern)
    if config.family.potential is not None:
        config.family.potential.require_admissible(obj.n)
    return B0, config


def minimize(obj, x0, B0=None, config=None, record_b=False):
    """Quasi-Newton iteration x_{k+1} = x_k - alpha_k B_k^{-1} grad f(x_k).

    Stops when the gradient norm reaches config.grad_tol or the budget
    runs out; a failed line search or a library error inside the update
    ends the run with its partial trace, which stops at the last point
    whose B was formed, and the error's message as trace.reason.  The
    update is config.update_family's, dense or sparse.  config (None for
    the default) must be a SolverConfig and B0 (None for I) a PDMatrix of
    dimension n, whose constructor has checked its read-only factor; anything
    else, or a B0 the update cannot start from, such as one off a
    sparsity pattern, raises InvalidParameter before the first
    evaluation, as PotentialNotAdmissible does for a potential
    that rules out the dimension n.  f must be a real scalar and the
    gradient a real array of shape (n,) at every point, else
    InvalidParameter is raised by the evaluation that returned it.  Each
    record holds its own iterate x_k, which the run never writes into.
    record_b stores B_k, read once through B.matrix as a new n x n array
    per record, for invariance comparisons.
    """
    B, config = _check_start(obj, B0, config)
    del B0  # B alone holds B0, which can go with the first update
    x = require_array("x0", x0, (obj.n,), finite=True).copy()
    family = config.update_family
    # A sparse run scales B0 once, by theta = s'y / s'B0s, at its first
    # applied update (Oren & Luenberger 1974): the theta-projection keeps
    # P_F(B^-1) of the secant point, so B0^-1's scale would stay in every
    # later B.  Until then (a skipped step keeps the flag) the direction
    # has unit length, so the unit first trial is not scaled by B0.  Dense
    # updates correct the scale within about n steps (README).
    unscaled = config.sparsity is not None
    # f and g are evaluated once per accepted point: at x0 here, then by
    # the line search, whose values are carried into the next step
    counted = _CountingObjective(obj)
    f, g = counted.value(x), counted.gradient(x)
    gn = float(np.linalg.norm(g))
    # Every Wolfe search after the first opens at the step whose
    # first-order change is a target df_prev built from the last step.
    # The BFGS-side families target 1.01 * 2 (f_k - f_{k-1}): the
    # minimizer of the quadratic with the current slope whose minimum lies
    # 1.01 times the last decrease below f (Nocedal & Wright 2006, eq.
    # 3.60).  The dual side targets the last first-order change, alpha
    # g'd (eq. 3.59), and its search may open above alpha_init, up to
    # DUAL_FIRST_CAP * alpha_init: DFP-type updates lack BFGS's
    # self-correction under short steps (Powell 1986; Byrd, Nocedal &
    # Yuan 1987), and with the cap at alpha_init that target undershoots.
    params = config.line_search
    dual = config.family.inverse
    records = []
    df_prev = alpha = sty = None
    skipped = False
    reason = ""
    for k in range(config.max_iter + 1):
        # x is rebound each step, never written in place, so the record
        # holds it; B.matrix is a new array on every read
        det_b = B.det()
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
                b=B.matrix if record_b else None,
                nfev=counted.nfev,
                ngev=counted.ngev,
            )
        )
        if gn <= config.grad_tol or k == config.max_iter:
            status = "Converged" if gn <= config.grad_tol else "MaxIter"
            break
        d = -B.solve(g)
        if unscaled:
            d /= np.linalg.norm(d)
        try:
            if params.method == "exact":
                alpha, f_new, g_new = _exact_line_search(counted, x, d, params, g)
            else:
                alpha, f_new, g_new = wolfe_line_search(
                    counted, x, d, params, f, g, df_prev, dual=dual)
        except LineSearchFail as exc:
            status, reason = "LineSearchFail", str(exc)
            break
        df_prev = alpha * float(g @ d) if dual else 1.01 * 2.0 * (f_new - f)
        x_new = x + alpha * d
        s = x_new - x
        y = g_new - g
        sty = float(s @ y)
        scale = float(np.linalg.norm(s) * np.linalg.norm(y))
        skipped = sty <= CURVATURE_SKIP_RTOL * scale
        if not skipped:
            try:
                pair = SecantPair(s, y)
                if unscaled:
                    Ls = B.L.T @ s
                    B = PDMatrix(np.sqrt(pair.curvature / float(Ls @ Ls)) * B.L)
                    unscaled = False
                B = family.apply(B, pair)
            except BregmanQNError as exc:
                status, reason = "UpdateFail", str(exc)
                break
        x, f, g, gn = x_new, f_new, g_new, float(np.linalg.norm(g_new))
    return SolverTrace(records, status, counted.nfev, counted.ngev, reason)


def transform_problem(obj, T):
    """Change of variables x~ = T x: returns f~(x~) = f(T^{-1} x~).

    The gradient transforms as (T')^{-1} grad f(T^{-1} x~), so a run on
    the transformed problem mirrors the original in the new coordinates.
    """
    T = require_array("T", T, (obj.n, obj.n), finite=True)
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularTransform(f"transform condition number {cond:.3e} too large")

    def value(xt):
        return obj.value(np.linalg.solve(T, require_array("x", xt, (obj.n,))))

    def gradient(xt):
        gx = obj.gradient(np.linalg.solve(T, require_array("x", xt, (obj.n,))))
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
    be finite and >= 0.  B0, the mapped B0 and config take minimize's
    rule, so a mapped B0 off a sparsity pattern is rejected too; all are
    checked before any evaluation.

    The verdict covers the two runs in floating point, not the update
    alone: a run that amplifies rounding can turn it into a different
    Wolfe branch.  bfgs on extended-powell:8 (CLI seed 0, det T = 1) is
    invariant to 2.7e-13 over 3 iterations, but at k = 8 the two searches
    accept steps 1 and 0.017, and over 20 iterations x_dev is 1.8e-1.
    """
    B0, config = _check_start(obj, B0, config)
    k_max = require_count("k_max", k_max)
    tol = require_real("tol", tol, 0.0, closed=True)
    T = require_array("T", T, (obj.n, obj.n), finite=True)
    obj_t = transform_problem(obj, T)
    b0t = np.linalg.solve(T.T, np.linalg.solve(T.T, B0.matrix.T).T)
    B0_t, _ = _check_start(obj_t, cholesky_factorize(b0t), config)

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
