"""Driver loop: line searches, convergence, invariance, skipped updates."""

import contextlib
import re
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bregmanqn.geometry
import bregmanqn.pdlinalg
import bregmanqn.solver
import bregmanqn.sparse
import bregmanqn.updates
from bregmanqn import (
    InvalidParameter,
    LineSearchFail,
    LineSearchParams,
    NotChordal,
    Objective,
    PDMatrix,
    PotentialNotAdmissible,
    RootNotBracketed,
    SecantPair,
    SingularTransform,
    SolverConfig,
    SparsityPattern,
    UpdateFamily,
    banded_pattern,
    bfgs_update,
    cholesky_factorize,
    get_problem,
    invariance_check,
    minimize,
    sparse_update,
    transform_problem,
    wolfe_line_search,
)
from bregmanqn.testing import check_gradient


def quadratic_objective(A, name="quad"):
    A = np.asarray(A, dtype=float)

    def value(x):
        return 0.5 * float(x @ (A @ x))

    def gradient(x):
        return A @ x

    return Objective(A.shape[0], value, gradient, name=name)


# -------------------------------------------------------------- line search


def test_wolfe_accepts_unit_step_on_simple_quadratic():
    obj = quadratic_objective(np.eye(1))
    alpha, _, _ = wolfe_line_search(obj, np.array([1.0]), np.array([-1.0]),
                                    LineSearchParams())
    assert alpha == 1.0


def test_wolfe_conditions_hold_on_quartic():
    obj = Objective(1, lambda x: float(x[0] ** 4),
                    lambda x: np.array([4.0 * x[0] ** 3]))
    x = np.array([1.0])
    d = np.array([-1.0])
    p = LineSearchParams()
    alpha, _, _ = wolfe_line_search(obj, x, d, p)
    f0, g0d = obj.value(x), float(obj.gradient(x) @ d)
    xa = x + alpha * d
    assert obj.value(xa) <= f0 + p.c1 * alpha * g0d
    assert float(obj.gradient(xa) @ d) >= p.c2 * g0d


def test_wolfe_rejects_ascent_direction():
    obj = quadratic_objective(np.eye(2))
    x = np.array([1.0, 0.0])
    with pytest.raises(LineSearchFail):
        wolfe_line_search(obj, x, obj.gradient(x), LineSearchParams())


def test_wolfe_returns_f_and_g_at_accepted_point():
    obj = Objective(1, lambda x: float(x[0] ** 4),
                    lambda x: np.array([4.0 * x[0] ** 3]))
    x = np.array([1.0])
    d = np.array([-1.0])
    p = LineSearchParams()
    alpha, fa, ga = wolfe_line_search(obj, x, d, p)
    assert fa == obj.value(x + alpha * d)
    assert np.array_equal(ga, obj.gradient(x + alpha * d))
    # the caller's f0 and g0 give the same step as evaluating them here
    carried = wolfe_line_search(obj, x, d, p, obj.value(x), obj.gradient(x))
    assert carried.alpha == alpha and carried.f == fa
    assert np.array_equal(carried.g, ga)


def test_wolfe_stops_when_the_bracket_collapses():
    # phi(t) = -t below t = 1 and +inf from there: every finite trial fails
    # the curvature test, so the bracket closes on t = 1 and the search
    # must fail there instead of re-evaluating one point to max_trials
    calls = []

    def value(x):
        calls.append(float(x[0]))
        return -float(x[0]) if x[0] < 1.0 else np.inf

    obj = Objective(1, value, lambda x: np.array([-1.0]))
    with pytest.raises(LineSearchFail, match="collapsed"):
        wolfe_line_search(obj, np.zeros(1), np.ones(1),
                          LineSearchParams(max_trials=1000))
    assert len(calls) < 70
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("df_prev, dual, first", [
    # a huge finite target: the dual side opens at its cap, 4 alpha_init
    (-1e300, True, 2.0),
    (-1e300, False, 0.5),
    # a target of step 3 alpha_init lies under the dual cap only
    (-30.0, True, 1.5),
    (-30.0, False, 0.5),
    # a target whose step is not finite, or not positive, gives alpha_init
    (-np.inf, True, 0.5),
    (np.nan, True, 0.5),
    (0.0, True, 0.5),
    (5.0, True, 0.5),
    (None, True, 0.5),
])
def test_first_wolfe_trial_is_capped_by_the_side(df_prev, dual, first):
    # f = (x - 10)^2 from x = 0 along d = 1: g0'd = -20, and every trial
    # point is the step itself
    trials = []

    def value(x):
        trials.append(float(x[0]))
        return float((x[0] - 10.0) ** 2)

    obj = Objective(1, value, lambda x: np.array([2.0 * (x[0] - 10.0)]))
    wolfe_line_search(obj, np.zeros(1), np.ones(1), LineSearchParams(alpha_init=0.5),
                      100.0, np.array([-20.0]), df_prev, dual=dual)
    assert trials[0] == first


def test_line_search_params_validation():
    for kwargs in (
        dict(c1=0.5, c2=0.1),
        dict(c1=0.0),
        dict(c2=1.0),
        dict(alpha_init=0.0),
        dict(alpha_init=float("nan")),
        dict(alpha_init=float("inf")),
        dict(max_trials=0),
        dict(max_trials=2.5),
        dict(max_trials=True),
        dict(method="golden"),
    ):
        with pytest.raises(InvalidParameter):
            LineSearchParams(**kwargs)


def test_solver_config_rejects_arguments_of_the_wrong_type():
    # these constructed, and minimize died with an AttributeError
    for kwargs in (dict(family=3), dict(family=None),
                   dict(family="bfgs", line_search="wolfe"),
                   dict(family="bfgs", line_search=None)):
        with pytest.raises(InvalidParameter):
            SolverConfig(**kwargs)


def test_solver_config_validation():
    fam = UpdateFamily("bfgs")
    # each of these used to fail mid-run or never converge
    for kwargs in (
        dict(grad_tol=0.0),
        dict(grad_tol=float("nan")),
        dict(grad_tol=float("inf")),
        dict(max_iter=0),
        dict(max_iter=2.5),
        dict(max_iter=True),
    ):
        with pytest.raises(InvalidParameter):
            SolverConfig(fam, **kwargs)
    assert SolverConfig(fam, max_iter=np.int64(3)).max_iter == 3
    pat = banded_pattern(4, 1)
    with pytest.raises(InvalidParameter):
        SolverConfig(UpdateFamily("dfp"), sparsity=(pat, 2, 5))
    with pytest.raises(InvalidParameter):
        SolverConfig(fam, sparsity=(pat, 3, 5))
    with pytest.raises(InvalidParameter):
        SolverConfig(fam, sparsity=(pat, 2, 0))
    # malformed sparsity is rejected before any evaluation
    for sparsity in ((pat, 2, 1.5), (pat, 2), (None, 2, 1)):
        with pytest.raises(InvalidParameter):
            SolverConfig(UpdateFamily.from_string("vbfgs:log"), sparsity=sparsity)
    # a sparsity that is not a sequence raised TypeError from len()
    with pytest.raises(InvalidParameter, match=r"must be \(pattern, algorithm, T\), got 5"):
        SolverConfig("bfgs", sparsity=5)
    cycle = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotChordal):
        SolverConfig(fam, sparsity=(cycle, 2, 1))


def test_solver_config_accepts_family_string():
    cfg = SolverConfig("vbfgs:power:gamma=0.1")
    assert isinstance(cfg.family, UpdateFamily)
    assert cfg.family.kind == "vbfgs"
    with pytest.raises(InvalidParameter):
        SolverConfig("frobnicate")


# -------------------------------------------------------------- convergence


def test_exact_line_search_terminates_on_quadratics():
    # BFGS with exact searches solves an n-dimensional quadratic in at
    # most n steps, modulo the stopping check
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        q = rng.standard_normal((n, n))
        A = q @ q.T + np.eye(n)
        obj = quadratic_objective(A)
        cfg = SolverConfig(
            UpdateFamily("bfgs"),
            line_search=LineSearchParams(method="exact"),
            grad_tol=1e-8,
        )
        trace = minimize(obj, rng.standard_normal(n), config=cfg)
        assert trace.status == "Converged"
        assert trace.iterations <= n + 2


ROSENBROCK_FAMILIES = (
    "bfgs",
    "dfp",
    "vbfgs:log",
    "vdfp:log",
    "vbfgs:power:gamma=0.25",
    "vbfgs:bounded:c=0.5",
    "selfscale",
)


def test_rosenbrock_all_families():
    spec = get_problem("rosenbrock")
    for fam in ROSENBROCK_FAMILIES:
        cfg = SolverConfig(UpdateFamily.from_string(fam), grad_tol=1e-6)
        trace = minimize(spec.objective, spec.start, config=cfg)
        assert trace.status == "Converged", fam
        assert trace.iterations <= 200
        assert np.abs(trace.final.x - [1.0, 1.0]).max() < 1e-5


def test_vbfgs_log_reproduces_bfgs_iterates():
    spec = get_problem("rosenbrock")
    cfg_a = SolverConfig(UpdateFamily.from_string("bfgs"), grad_tol=1e-8)
    cfg_b = SolverConfig(UpdateFamily.from_string("vbfgs:log"), grad_tol=1e-8)
    ta = minimize(spec.objective, spec.start, config=cfg_a, record_b=True)
    tb = minimize(spec.objective, spec.start, config=cfg_b, record_b=True)
    assert len(ta.records) == len(tb.records)
    for ra, rb in zip(ta.records, tb.records):
        assert np.abs(ra.x - rb.x).max() <= 1e-12 * (1 + np.abs(ra.x).max())
        assert np.abs(ra.b - rb.b).max() <= 1e-12 * (1 + np.abs(ra.b).max())


@pytest.mark.parametrize("name", ["rosenbrock", "quadratic:100:30"])
def test_dfp_reproduces_vdfp_log_bit_for_bit(name):
    # both take the log potential's dual step on B's factor
    spec = get_problem(name, seed=3)
    ta = minimize(spec.objective, spec.start, config=SolverConfig("dfp"), record_b=True)
    tb = minimize(spec.objective, spec.start, config=SolverConfig("vdfp:log"),
                  record_b=True)
    assert ta.status == tb.status == "Converged"
    assert (ta.nfev, ta.ngev) == (tb.nfev, tb.ngev)
    assert len(ta.records) == len(tb.records)
    for ra, rb in zip(ta.records, tb.records):
        assert np.array_equal(ra.x, rb.x) and ra.f == rb.f
        assert np.array_equal(ra.b, rb.b)
        assert (ra.nfev, ra.ngev) == (rb.nfev, rb.ngev)


@pytest.mark.parametrize("name", ["rosenbrock", "broyden-tridiagonal:300"])
@pytest.mark.parametrize("head", ["bfgs", "dfp"])
def test_bfgs_and_dfp_run_as_the_log_potential(head, name):
    # bfgs is vbfgs:log and dfp is vdfp:log record for record; the n = 300
    # run reaches log det B > 709, where det B overflows to inf
    spec = get_problem(name)
    ta, tb = (minimize(spec.objective, spec.start,
                       config=SolverConfig(fam, grad_tol=1e-6, max_iter=400))
              for fam in (head, f"v{head}:log"))
    assert ta.status == tb.status == "Converged"
    assert (ta.nfev, ta.ngev) == (tb.nfev, tb.ngev)
    assert len(ta.records) == len(tb.records)
    for ra, rb in zip(ta.records, tb.records):
        assert ra.x.tobytes() == rb.x.tobytes() and ra.f == rb.f
        assert ra.det_b == rb.det_b
        assert (ra.nfev, ra.ngev) == (rb.nfev, rb.ngev)
    if spec.n == 300:
        assert ta.records[-1].det_b == np.inf


def test_dense_dfp_takes_one_rank_one_step_per_update():
    # every DFP step on the solver path, dense or sparse algorithm 1's
    # secant point, is one rank-one change of B's factor; the sparse
    # rounds factor only in their theta-projections, T per update
    band = get_problem("broyden-tridiagonal:40")
    cases = [(get_problem("quadratic:100:30", seed=3), SolverConfig("dfp"), 1, 0)]
    cases += [(band, SolverConfig("vbfgs:bounded:c=0.5", sparsity=(band.pattern, 1, T)), T, T)
              for T in (1, 3)]
    for spec, config, factor_steps, factorizations in cases:
        # one spy over every module binding the solver path can factor through
        chol = mock.Mock(wraps=bregmanqn.pdlinalg.cholesky_factorize)
        with contextlib.ExitStack() as stack:
            dfp = stack.enter_context(mock.patch.object(
                bregmanqn.updates, "dfp_update", wraps=bregmanqn.updates.dfp_update))
            r1 = stack.enter_context(mock.patch.object(
                bregmanqn.updates, "rank_one_update", wraps=bregmanqn.updates.rank_one_update))
            for module in (bregmanqn.geometry, bregmanqn.sparse, bregmanqn.updates):
                stack.enter_context(mock.patch.object(module, "cholesky_factorize", chol))
            trace = minimize(spec.objective, spec.start, config=config)
        assert trace.status == "Converged"
        steps = sum(not r.skipped for r in trace.records[1:])
        assert steps > 0
        assert dfp.call_count == 0
        assert r1.call_count == factor_steps * steps
        assert chol.call_count == factorizations * steps


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller keeps its call's arguments until the call returns")
@pytest.mark.parametrize("sparse", [False, True])
def test_minimize_lets_go_of_b0_after_the_first_update(sparse):
    # B0 is handed over with no other reference; a weakref to its factor
    # (PDMatrix has no __weakref__ slot) dies once the state moves on
    spec = get_problem("broyden-tridiagonal:10")
    family, sparsity = ("bfgs", (spec.pattern, 2, 1)) if sparse else ("dfp", None)
    config = SolverConfig(family, sparsity=sparsity)
    refs, alive = [], []

    def gradient(x):
        alive.append(refs[0]() is not None)
        return spec.objective.gradient(x)

    def fresh_b0():
        b0 = PDMatrix.identity(spec.n)
        refs.append(weakref.ref(b0.L))
        return b0

    obj = Objective(spec.n, spec.objective.value, gradient)
    trace = minimize(obj, spec.start, fresh_b0(), config)
    assert trace.status == "Converged" and not trace.records[1].skipped
    first = trace.records[1].ngev  # gradient evaluations up to the first update
    assert all(alive[:first]) and not any(alive[first:])
    assert len(alive) > first


def counting_objective(obj):
    counts = {"f": 0, "g": 0}

    def value(x):
        counts["f"] += 1
        return obj.value(x)

    def gradient(x):
        counts["g"] += 1
        return obj.gradient(x)

    return Objective(obj.n, value, gradient, name=obj.name), counts


@pytest.mark.parametrize("method", ["wolfe", "exact"])
def test_trace_evaluation_counts_match_calls(method):
    for name, fam in (("rosenbrock", "bfgs"), ("extended-powell:8", "vdfp:log"),
                      ("broyden-tridiagonal:10", "vbfgs:bounded:c=0.5")):
        spec = get_problem(name)
        obj, counts = counting_objective(spec.objective)
        cfg = SolverConfig(fam, line_search=LineSearchParams(method=method),
                           grad_tol=1e-6)
        trace = minimize(obj, spec.start, config=cfg)
        assert trace.nfev == counts["f"] > 0, (name, fam)
        assert trace.ngev == counts["g"] > 0, (name, fam)


@pytest.mark.parametrize("method, iterations, nfev, ngev", [
    ("wolfe", 39, 53, 41),
    ("exact", 22, 23, 262),
])
def test_rosenbrock_evaluation_counts(method, iterations, nfev, ngev):
    # f and g are evaluated once per accepted point; the Wolfe search makes
    # one f per trial and one g per curvature test; the exact search makes
    # one g per new dphi point, none at alpha = 0 (the carried g) or at a
    # point it has seen, and one f at the root, reusing dphi's g there
    spec = get_problem("rosenbrock")
    obj, counts = counting_objective(spec.objective)
    cfg = SolverConfig("bfgs", line_search=LineSearchParams(method=method))
    trace = minimize(obj, spec.start, config=cfg)
    assert trace.status == "Converged" and trace.reason == ""
    assert trace.iterations == iterations
    assert (counts["f"], counts["g"]) == (nfev, ngev)
    assert (trace.nfev, trace.ngev) == (nfev, ngev)
    # the carried values belong to the recorded iterates, bit for bit
    for r in trace.records:
        assert r.f == spec.objective.value(r.x)
        assert r.grad_norm == float(np.linalg.norm(spec.objective.gradient(r.x)))


def test_exact_search_steps_back_from_a_non_finite_slope():
    # f(x) = -log(1 - x) - 2x is NaN from x = 1 on; from x0 = 0 the first
    # trial lands there, and the minimum is at x = 0.5
    def value(x):
        return float(-np.log1p(-x[0]) - 2.0 * x[0]) if x[0] < 1.0 else np.nan

    def gradient(x):
        return np.array([1.0 / (1.0 - x[0]) - 2.0 if x[0] < 1.0 else np.nan])

    obj = Objective(1, value, gradient)
    for method in ("wolfe", "exact"):
        cfg = SolverConfig("bfgs", line_search=LineSearchParams(method=method))
        trace = minimize(obj, np.zeros(1), config=cfg)
        assert trace.status == "Converged", method
        assert trace.final.x[0] == pytest.approx(0.5, abs=1e-8)
    exact = SolverConfig("bfgs", line_search=LineSearchParams(method="exact", max_trials=5))
    # a slope that is NaN at every step ends the run after max_trials halvings
    nowhere = Objective(1, lambda x: -float(x[0]) if x[0] <= 0.0 else np.nan,
                        lambda x: np.array([-1.0 if x[0] <= 0.0 else np.nan]))
    trace = minimize(nowhere, np.zeros(1), config=exact)
    assert trace.status == "LineSearchFail"
    # so does a root search that does not converge
    with mock.patch("scipy.optimize.brentq", side_effect=RuntimeError("no convergence")):
        trace = minimize(obj, np.array([0.25]), config=exact)
    assert trace.status == "LineSearchFail" and "no convergence" in trace.reason


def test_exact_search_fails_on_a_non_finite_f_at_its_step():
    # the exact search never read the f it evaluated at its step, so an f
    # that is nan everywhere ran to Converged after 22 iterations with
    # final.f = nan; the Wolfe search rejects every such trial
    spec = get_problem("rosenbrock")
    obj = Objective(2, lambda x: np.nan, spec.objective.gradient)
    for method in ("wolfe", "exact"):
        cfg = SolverConfig("bfgs", line_search=LineSearchParams(method=method))
        trace = minimize(obj, spec.start, config=cfg)
        assert (trace.status, trace.iterations) == ("LineSearchFail", 0), method
    assert re.fullmatch(r"exact line search: f = nan at alpha = \S+ is not finite", trace.reason)


def test_records_carry_cumulative_evaluation_counts():
    spec = get_problem("extended-powell:8")
    trace = minimize(spec.objective, spec.start,
                     config=SolverConfig("vbfgs:log", grad_tol=1e-6))
    assert trace.status == "Converged"
    assert (trace.records[0].nfev, trace.records[0].ngev) == (1, 1)
    assert (trace.final.nfev, trace.final.ngev) == (trace.nfev, trace.ngev)
    # every step evaluates f and g at least once
    steps = np.diff([(r.nfev, r.ngev) for r in trace.records], axis=0)
    assert np.all(steps >= 1)


@pytest.mark.parametrize("family, least", [
    ("bfgs", 40),
    ("vbfgs:log", 40),
    ("vbfgs:power:gamma=0.1", 40),
    ("vbfgs:bounded:c=0.3", 40),
    ("dfp", 20),
])
def test_rosenbrock_converges_from_perturbed_starts(family, least):
    # the catalog start and 39 starts perturbed by a relative 1e-6; DFP
    # lacks BFGS's self-correction under a loose (c2 = 0.9) search, so it
    # is held to a lower count
    spec = get_problem("rosenbrock")
    rng = np.random.default_rng(0)
    starts = [spec.start] + [spec.start * (1.0 + 1e-6 * rng.standard_normal(2))
                             for _ in range(39)]
    cfg = SolverConfig(family, grad_tol=1e-6, max_iter=200)
    converged = sum(minimize(spec.objective, x0, config=cfg).status == "Converged"
                    for x0 in starts)
    assert converged >= least


def test_max_iter_status():
    spec = get_problem("rosenbrock")
    cfg = SolverConfig(UpdateFamily("bfgs"), max_iter=3)
    trace = minimize(spec.objective, spec.start, config=cfg)
    assert trace.status == "MaxIter" and trace.reason == ""
    assert len(trace.records) == 4


def test_objective_values_never_increase():
    spec = get_problem("quadratic:100:6", seed=5)
    trace = minimize(spec.objective, spec.start,
                     config=SolverConfig(UpdateFamily("bfgs")))
    assert np.all(np.diff(trace.fs()) <= 0.0)
    assert trace.grad_norms()[-1] <= 1e-8


def test_minimize_validates_start_shape():
    spec = get_problem("rosenbrock")
    with pytest.raises(InvalidParameter):
        minimize(spec.objective, np.zeros(3))


def test_objective_dimension_must_be_a_count():
    f, g = (lambda x: 0.0), (lambda x: x)
    for n in (0, 2.5, True, "2"):
        with pytest.raises(InvalidParameter):
            Objective(n, f, g)
    assert Objective(np.int64(2), f, g).n == 2


def _sqrt_gradient_objective(calls):
    # f = (2/3) sum x^1.5 with gradient sqrt(x): nan where x < 0
    def value(x):
        calls.append("f")
        return float(np.sum(np.abs(x) ** 1.5)) * 2.0 / 3.0

    def gradient(x):
        calls.append("g")
        g = np.sqrt(np.abs(x))
        g[x < 0.0] = np.nan
        return g

    return Objective(2, value, gradient)


# the five dense kinds and one sparse run
ALL_KINDS = ("bfgs", "dfp", "vbfgs:bounded:c=0.5", "vdfp:log", "selfscale", "sparse vbfgs:log")


def _config_of(label, **kw):
    head, _, family = label.partition(" ")
    if head == "sparse":
        return SolverConfig(family, sparsity=(banded_pattern(2, 0), 2, 1), **kw)
    return SolverConfig(label, **kw)


@pytest.mark.parametrize("label", ALL_KINDS)
def test_nan_gradient_at_the_start_ends_in_line_search_fail(label):
    # every family's direction is nan, which either search rejects as not descent
    for method in ("wolfe", "exact"):
        config = _config_of(label, line_search=LineSearchParams(method=method))
        trace = minimize(_sqrt_gradient_objective([]), np.array([-1.0, 2.0]), config=config)
        assert trace.status == "LineSearchFail"
        assert len(trace.records) == 1
        assert trace.reason == "search direction is not a descent direction"


@pytest.mark.parametrize("label", ALL_KINDS)
def test_non_finite_start_is_rejected_before_evaluating(label):
    calls = []
    for x0 in ([np.nan, 2.0], [1.0, np.inf]):
        with pytest.raises(InvalidParameter):
            minimize(_sqrt_gradient_objective(calls), np.array(x0), config=_config_of(label))
    assert calls == []


# (f, gradient, the evaluations made when the bad output is rejected)
MALFORMED = {
    "f of shape (1,)": (lambda x: np.array([x @ x]), lambda x: 2.0 * x, ["f"]),
    "complex f": (lambda x: complex(x @ x), lambda x: 2.0 * x, ["f"]),
    "f as text": (lambda x: "1.0", lambda x: 2.0 * x, ["f"]),
    "short gradient": (lambda x: float(x @ x), lambda x: 2.0 * x[:-1], ["f", "g"]),
    "column gradient": (lambda x: float(x @ x), lambda x: (2.0 * x)[:, None], ["f", "g"]),
    "complex gradient": (lambda x: float(x @ x), lambda x: 2.0 * x + 1j, ["f", "g"]),
}


@pytest.mark.parametrize("label", ALL_KINDS)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_output_is_rejected_at_the_evaluation_that_returned_it(label, case):
    value, gradient, expected = MALFORMED[case]
    calls = []
    obj = Objective(
        2,
        lambda x: calls.append("f") or value(x),
        lambda x: calls.append("g") or gradient(x),
    )
    with pytest.raises(InvalidParameter, match="real"):
        minimize(obj, np.array([1.0, 2.0]), config=_config_of(label))
    assert calls == expected


# output -> how it is spoiled from its second evaluation on
TURNS_BAD = {
    "f of shape (1,)": ("value", lambda f: np.array([f])),
    "complex gradient": ("gradient", lambda g: g + 1e-3j),
    "column gradient": ("gradient", lambda g: g[:, None]),
}


def _turning_bad(case):
    """Rosenbrock, with the output TURNS_BAD names spoiled after x0."""
    which, spoil = TURNS_BAD[case]
    rosenbrock = get_problem("rosenbrock").objective
    calls = []

    def evaluate(name):
        def call(x):
            calls.append(name)
            out = getattr(rosenbrock, name)(x)
            return spoil(out) if name == which and calls.count(name) > 1 else out
        return call

    return Objective(2, evaluate("value"), evaluate("gradient"))


@pytest.mark.parametrize("label", ALL_KINDS + ("bfgs exact",))
@pytest.mark.parametrize("case", sorted(TURNS_BAD))
def test_an_output_that_turns_bad_after_x0_is_rejected(label, case):
    # a complex gradient was cut to its real part with a ComplexWarning, a
    # column one raised numpy's matmul ValueError, and a one-element f was
    # read as its entry
    if label == "bfgs exact":
        config = SolverConfig("bfgs", line_search=LineSearchParams(method="exact"))
    else:
        config = _config_of(label)
    with pytest.raises(InvalidParameter, match="real"):
        minimize(_turning_bad(case), get_problem("rosenbrock").start, config=config)


@pytest.mark.parametrize("case", sorted(TURNS_BAD))
def test_wolfe_line_search_checks_a_plain_objective_at_every_trial(case):
    spec = get_problem("rosenbrock")
    d = -spec.objective.gradient(spec.start)
    with pytest.raises(InvalidParameter, match="real"):
        wolfe_line_search(_turning_bad(case), spec.start, d, LineSearchParams())


def test_wolfe_line_search_checks_the_f_values_it_is_given():
    # a text f0 raised TypeError, a one-element f0 made the step an array,
    # and a text target was parsed
    spec = get_problem("rosenbrock")
    obj, x = spec.objective, spec.start
    f, g = obj.value(x), obj.gradient(x)
    for kwargs in ({"f0": "1.0"}, {"f0": np.array([f])}, {"f0": 1j},
                   {"df_prev": "-1.0"}, {"df_prev": np.array([-1.0])}, {"df_prev": True},
                   {"df_prev": 1j}):
        with pytest.raises(InvalidParameter, match="must be a real array of shape"):
            wolfe_line_search(obj, x, -g, LineSearchParams(), **kwargs)
    given = wolfe_line_search(obj, x, -g, LineSearchParams(), np.float64(f), g, np.array(-1.0))
    alpha, f_new, g_new = wolfe_line_search(obj, x, -g, LineSearchParams(), df_prev=-1.0)
    assert (given.alpha, given.f) == (alpha, f_new) and np.array_equal(given.g, g_new)


def test_record_b_toggle():
    spec = get_problem("rosenbrock")
    cfg = SolverConfig(UpdateFamily("bfgs"), max_iter=5)
    plain = minimize(spec.objective, spec.start, config=cfg)
    heavy = minimize(spec.objective, spec.start, config=cfg, record_b=True)
    assert plain.records[0].b is None
    assert heavy.records[0].b is not None
    assert heavy.records[0].b.shape == (2, 2)


def fail_on_call(real, k):
    """real, except that its k-th call raises RootNotBracketed."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise RootNotBracketed("injected failure")
        return real(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("problem, family, sparse", [
    ("rosenbrock", "vbfgs:bounded:c=0.5", False),
    ("broyden-tridiagonal:6", "vbfgs:log", True),
])
def test_update_failure_ends_run_with_partial_trace(problem, family, sparse):
    spec = get_problem(problem)
    cfg = SolverConfig(family, sparsity=(spec.pattern, 2, 3) if sparse else None)
    full = minimize(spec.objective, spec.start, config=cfg)
    k = 4
    assert full.iterations > k
    assert not any(r.skipped for r in full.records[:k + 1])
    owner, name = (bregmanqn.sparse, "sparse_update") if sparse else (UpdateFamily, "apply")
    obj, counts = counting_objective(spec.objective)
    with mock.patch.object(owner, name, fail_on_call(getattr(owner, name), k)):
        trace = minimize(obj, spec.start, config=cfg)
    assert trace.status == "UpdateFail"
    assert "injected failure" in trace.reason
    # the trace ends at the last point whose B was formed, and the counts
    # include the evaluations of the step whose update failed
    assert trace.iterations == k - 1
    for r, ref in zip(trace.records, full.records):
        assert np.array_equal(r.x, ref.x) and r.f == ref.f
    assert (trace.nfev, trace.ngev) == (counts["f"], counts["g"])
    assert trace.ngev > len(trace.records)


def test_collapsed_bracket_ends_run_with_reason():
    # f = -x below x = 1 and +inf from there, slope -1 everywhere: the first
    # search's bracket closes on x = 1 and the run ends at its start
    obj = Objective(1, lambda x: -float(x[0]) if x[0] < 1.0 else np.inf,
                    lambda x: np.array([-1.0]))
    cfg = SolverConfig("bfgs", line_search=LineSearchParams(max_trials=1000))
    trace = minimize(obj, np.zeros(1), config=cfg)
    assert trace.status == "LineSearchFail"
    assert "collapsed" in trace.reason
    assert trace.iterations == 0


class _TrialLog:
    # an objective that records each trial of a Wolfe search and whether
    # the search went on to the gradient there, which it does exactly
    # when Armijo holds
    def __init__(self, obj):
        self.n, self.obj, self.trials = obj.n, obj, []

    def value(self, x):
        self.trials.append([x.copy(), False])
        return self.obj.value(x)

    def gradient(self, x):
        assert np.array_equal(self.trials[-1][0], x)
        self.trials[-1][1] = True
        return self.obj.gradient(x)


def _run_watching_searches(spec, config):
    # minimize with every Wolfe search spied on: one entry per search, of
    # (f0, df_prev, alpha g0'd, dual, first trial step, [Armijo held at
    # each trial]); the first trial step is read back off its point x + t d,
    # so it holds t only to rounding
    real = bregmanqn.solver.wolfe_line_search
    calls = []

    def spy(obj, x, d, params, f0=None, g0=None, df_prev=None, dual=False):
        log = _TrialLog(obj)
        result = real(log, x, d, params, f0, g0, df_prev, dual=dual)
        first = float((log.trials[0][0] - x) @ d / (d @ d))
        calls.append((f0, df_prev, result.alpha * float(g0 @ d), dual, first,
                      [armijo for _, armijo in log.trials]))
        return result

    with mock.patch.object(bregmanqn.solver, "wolfe_line_search", spy):
        trace = minimize(spec.objective, spec.start, config=config)
    assert len(calls) == trace.iterations
    return trace, calls


@pytest.mark.parametrize("family", ["bfgs", "dfp", "vdfp:log"])
def test_first_wolfe_trial_comes_from_the_last_step(family):
    # every search after the first gets a target first-order change built
    # from the last step: 1.01 * 2 (f_k - f_{k-1}) on the BFGS side, so
    # that the search opens at the eq. 3.60 step; on the dual side
    # alpha g'd of the previous step (eq. 3.59), with the first trial
    # capped at 4 alpha_init instead of alpha_init.  The first search of
    # a run gets none
    trace, calls = _run_watching_searches(
        get_problem("rosenbrock"), SolverConfig(family, grad_tol=1e-6))
    assert trace.status == "Converged"
    fs = [r.f for r in trace.records]
    assert [call[0] for call in calls] == fs[:-1]
    df_prevs = [call[1] for call in calls]
    assert df_prevs[0] is None
    dual = family != "bfgs"
    assert {call[3] for call in calls} == {dual}
    firsts = [call[4] for call in calls]
    alpha_init = LineSearchParams().alpha_init
    if not dual:
        # bit for bit, so that the search opens at the eq. 3.60 step
        # 1.01 * 2 (f_{k-1} - f_k) / -g_k'd_k exactly
        assert df_prevs[1:] == [1.01 * 2.0 * (f - f_prev) for f_prev, f in zip(fs, fs[1:-1])]
        assert max(firsts) <= alpha_init * (1.0 + 1e-9)
    else:
        # bit for bit alpha_{k-1} g_{k-1}'d_{k-1}, after every search
        assert df_prevs[1:] == [call[2] for call in calls[:-1]]
        # the cap above alpha_init is used on this run, and holds
        assert max(firsts) > alpha_init
        assert max(firsts) <= 4.0 * alpha_init * (1.0 + 1e-9)


def test_dfp_first_trials_on_a_quadratic_stop_failing_every_time():
    # doubling the step that repeats the last first-order change after
    # every search put each first trial of this run near the far root of
    # the parabola, where f is back at f0: 86 of 86 failed Armijo.  Taking
    # the change as it is after a search that backtracked failed 56 of
    # 108; taking it after every search, with the first trial capped at
    # 4 alpha_init, fails 48 of 127.  The near-exact steps cost iterations
    # here (86 -> 108 -> 127)
    trace, calls = _run_watching_searches(
        get_problem("quadratic:100:300", seed=1), SolverConfig("dfp", grad_tol=1e-6))
    assert trace.status == "Converged"
    first_failed = sum(not armijo[0] for *_, armijo in calls)
    assert first_failed <= 0.6 * len(calls), (first_failed, len(calls))


def test_dfp_converges_on_rosenbrock_from_most_nearby_starts():
    # with every search opening at alpha_init, dfp converged from 18 of
    # these 80 starts (the catalog start and 79 perturbed by 2%); doubling
    # the step that repeats the last first-order decrease took it to 44,
    # and doubling it only after a search with no Armijo failure to 46.
    # That step itself after every search, capped at 4 alpha_init instead
    # of alpha_init, converges from 73
    spec = get_problem("rosenbrock")
    starts = [spec.start] + [
        spec.start * (1.0 + 0.02 * np.random.default_rng(k).standard_normal(2))
        for k in range(1, 80)]
    cfg = SolverConfig("dfp", grad_tol=1e-6, max_iter=200)
    traces = [minimize(spec.objective, x0, config=cfg) for x0 in starts]
    assert sum(t.status == "Converged" for t in traces) >= 65
    # vdfp:log is dfp: the same steps, evaluations and end point
    cfg_log = SolverConfig("vdfp:log", grad_tol=1e-6, max_iter=200)
    for x0, trace in list(zip(starts, traces))[:5]:
        other = minimize(spec.objective, x0, config=cfg_log)
        assert (other.status, other.iterations, other.nfev, other.ngev) == (
            trace.status, trace.iterations, trace.nfev, trace.ngev)
        assert np.array_equal(other.final.x, trace.final.x)


@pytest.mark.parametrize("family, algorithm, T, counts", [
    ("vbfgs:log", 1, 1, (30, 31, 31)),
    ("vbfgs:log", 2, 1, (27, 28, 28)),
    ("vbfgs:bounded:c=0.5", 2, 3, (21, 22, 22)),
])
def test_sparse_vbfgs_rarely_retries_the_first_trial(family, algorithm, T, counts):
    # The theta-projection keeps P_F(B^-1), so an unscaled B0 would set
    # the scale of every later B; the one-time s'y/s'Bs scaling of B0
    # fixes that, the unit-length first step keeps the scale of B0 out
    # of the first search, and the interpolated first trial does the
    # rest: every search here ends on its first trial, one f and one g
    # per step.  counts are (iterations, nfev, ngev), pinned exactly.
    spec = get_problem("broyden-tridiagonal:40")
    cfg = SolverConfig(family, grad_tol=1e-6, sparsity=(spec.pattern, algorithm, T))
    trace = minimize(spec.objective, spec.start, config=cfg)
    assert trace.status == "Converged"
    assert (trace.iterations, trace.nfev, trace.ngev) == counts
    assert trace.nfev == trace.ngev == trace.iterations + 1


def _band_pd(n, bandwidth, rng):
    """A random positive definite matrix on the band |i - j| <= bandwidth."""
    M = rng.uniform(-1.0, 1.0, (n, n))
    M = banded_pattern(n, bandwidth).restrict(0.5 * (M + M.T))
    np.fill_diagonal(M, 2.0 * bandwidth + rng.uniform(0.5, 2.0, n))
    return cholesky_factorize(M)


def _check_step(spec, trace, B, k, unit):
    """Step k of trace went alpha_k along -B^-1 g_k, divided by its norm if unit."""
    r, r_next = trace.records[k], trace.records[k + 1]
    d = -B.solve(spec.objective.gradient(r.x))
    if unit:
        d /= np.linalg.norm(d)
        np.testing.assert_allclose(np.linalg.norm(r_next.x - r.x), r_next.alpha, rtol=1e-12)
    np.testing.assert_allclose(r_next.x - r.x, r_next.alpha * d, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("b0", ["default", "4I", "band"])
def test_first_sparse_step_has_unit_length(b0):
    # B0 sets only the shape of B; its scale goes at the first update, so
    # the first step is one unit long whatever the scale of B0
    spec = get_problem("broyden-tridiagonal:12")
    B0 = {
        "default": None,
        "4I": cholesky_factorize(4.0 * np.eye(12)),
        "band": _band_pd(12, 1, np.random.default_rng(5)),
    }[b0]
    cfg = SolverConfig("vbfgs:log", grad_tol=1e-6, sparsity=(spec.pattern, 2, 1))
    trace = minimize(spec.objective, spec.start, B0, cfg)
    assert trace.status == "Converged"
    assert not trace.records[1].skipped
    _check_step(spec, trace, B0 or PDMatrix.identity(12), 0, unit=True)


@pytest.mark.parametrize("family", ["bfgs", "vbfgs:log", "dfp", "selfscale"])
def test_first_dense_step_is_not_normalized(family):
    spec = get_problem("broyden-tridiagonal:6")
    B0 = cholesky_factorize(4.0 * np.eye(6))
    trace = minimize(spec.objective, spec.start, B0, SolverConfig(family, max_iter=1))
    _check_step(spec, trace, B0, 0, unit=False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 30),
    bandwidth=st.integers(1, 2),
    potential=st.sampled_from(["log", "bounded:c=0.5", "power:gamma=-0.25"]),
    algorithm=st.sampled_from([1, 2]),
    T=st.integers(1, 3),
    log_scale=st.floats(-3.0, 3.0),
)
def test_sparse_steps_are_unit_length_until_the_first_update(
    n, bandwidth, potential, algorithm, T, log_scale
):
    spec = get_problem(f"broyden-tridiagonal:{n}")
    pattern = banded_pattern(n, bandwidth)
    B0 = cholesky_factorize(10.0**log_scale * np.eye(n))
    cfg = SolverConfig(f"vbfgs:{potential}", max_iter=2, sparsity=(pattern, algorithm, T))
    trace = minimize(spec.objective, spec.start, B0, cfg, record_b=True)
    assert len(trace.records) == 3, trace.reason
    _check_step(spec, trace, B0, 0, unit=True)
    # a skipped step leaves B0 unscaled; an update ends the normalization
    r1 = trace.records[1]
    _check_step(spec, trace, cholesky_factorize(r1.b), 1, unit=r1.skipped)


def _first_pairs(spec, trace, count):
    grads = [spec.objective.gradient(r.x) for r in trace.records[: count + 1]]
    return [
        SecantPair(trace.records[k + 1].x - trace.records[k].x, grads[k + 1] - grads[k])
        for k in range(count)
    ]


def test_sparse_run_scales_b0_once_before_its_first_update():
    spec = get_problem("broyden-tridiagonal:6")
    cfg = SolverConfig("bfgs", grad_tol=1e-6, sparsity=(spec.pattern, 2, 3))
    family = cfg.update_family
    trace = minimize(spec.objective, spec.start, config=cfg, record_b=True)
    assert trace.status == "Converged"
    r0, r1, r2 = trace.records[:3]
    assert not r1.skipped and not r2.skipped
    first, second = _first_pairs(spec, trace, 2)
    theta = (first.s @ first.y) / (first.s @ r0.b @ first.s)
    scaled = cholesky_factorize(theta * r0.b)
    expected = sparse_update(scaled, first, family).b_out.matrix
    np.testing.assert_allclose(r1.b, expected, rtol=1e-10, atol=1e-12)
    unscaled = sparse_update(cholesky_factorize(r0.b), first, family)
    assert np.abs(unscaled.b_out.matrix - r1.b).max() > 1e-2
    # once only: the second update starts from the first one's B as it is
    expected = sparse_update(cholesky_factorize(r1.b), second, family).b_out.matrix
    np.testing.assert_allclose(r2.b, expected, rtol=1e-10, atol=1e-12)
    # an explicit identity B0 is scaled like the default one
    explicit = minimize(
        spec.objective, spec.start, PDMatrix.identity(6), cfg, record_b=True
    )
    assert [r.b.tobytes() for r in explicit.records] == [
        r.b.tobytes() for r in trace.records
    ]


def test_dense_run_does_not_scale_b0():
    # dense updates correct their own scale; a one-time scaling slows
    # some of them badly (bfgs on quadratic:1000:20 takes 28 -> 115 steps)
    spec = get_problem("broyden-tridiagonal:6")
    cfg = SolverConfig("bfgs", grad_tol=1e-6)
    trace = minimize(spec.objective, spec.start, config=cfg, record_b=True)
    assert trace.status == "Converged"
    (first,) = _first_pairs(spec, trace, 1)
    expected = bfgs_update(PDMatrix.identity(6), first).matrix
    np.testing.assert_allclose(trace.records[1].b, expected, rtol=1e-12, atol=1e-14)


def test_records_own_their_x():
    # each record holds the loop's x for its step, so no two share an
    # array; writing into one leaves the others as they were
    spec = get_problem("rosenbrock")
    trace = minimize(spec.objective, spec.start, config=SolverConfig("bfgs", grad_tol=1e-6))
    assert trace.status == "Converged" and trace.iterations > 10
    xs = [r.x for r in trace.records]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(xs) for b in xs[i + 1:])
    assert not any(np.shares_memory(spec.start, x) for x in xs)
    before = [x.copy() for x in xs]
    trace.records[0].x[:] = np.nan
    for x, x_before in zip(xs[1:], before[1:]):
        assert np.array_equal(x, x_before)
    assert np.array_equal(spec.start, before[0])


# ---------------------------------------------------------- skipped updates


def skip_trigger_objective():
    # Doctored gradient: honest at the start, then reports a huge
    # component orthogonal to the step.  A Wolfe-accepted step on a
    # consistent gradient always has s'y well above the skip threshold,
    # so the branch needs an inconsistent oracle to fire deterministically.
    def value(x):
        return 0.5 * float(x @ x)

    def gradient(x):
        g = np.array([x[0], 0.0])
        if abs(x[0] + 1.0) > 1e-9:
            g[1] = 1e15
        return g

    return Objective(2, value, gradient)


def test_skip_policy_skip_keeps_b():
    obj = skip_trigger_objective()
    cfg = SolverConfig(UpdateFamily("bfgs"), max_iter=1)
    trace = minimize(obj, np.array([-1.0, 0.0]), config=cfg, record_b=True)
    before, rec = trace.records
    assert rec.skipped
    assert rec.det_b == 1.0  # update suppressed, B still the identity
    # the two records hold equal B but not the same array
    assert np.array_equal(rec.b, before.b) and not np.shares_memory(rec.b, before.b)


# ------------------------------------------------------------- sparse chain


def test_sparse_solver_path_stays_on_pattern():
    spec = get_problem("broyden-tridiagonal:6")
    pattern = spec.pattern
    cfg = SolverConfig(
        UpdateFamily.from_string("vbfgs:log"),
        grad_tol=1e-6,
        sparsity=(pattern, 2, 3),
    )
    trace = minimize(spec.objective, spec.start, config=cfg, record_b=True)
    assert trace.status == "Converged"
    for rec in trace.records:
        assert pattern.off_pattern_magnitude(rec.b) <= 1e-12


def test_sparse_solver_rejects_a_mismatched_start_before_evaluating():
    spec = get_problem("broyden-tridiagonal:6")
    calls = []
    obj = Objective(
        6,
        lambda x: calls.append("f") or spec.objective.value(x),
        lambda x: calls.append("g") or spec.objective.gradient(x),
    )
    off_pattern = cholesky_factorize(np.full((6, 6), 0.5) + np.eye(6))
    # a pattern of the wrong dimension was reported as a "matrix" of the
    # wrong shape, which the caller never passed
    for pattern, B0, message in (
        (banded_pattern(5, 1), None, r"^B of dimension 6 does not fit the n=5 sparsity pattern$"),
        (spec.pattern, off_pattern, r"^B has entries outside the sparsity pattern$"),
    ):
        cfg = SolverConfig("vbfgs:log", sparsity=(pattern, 2, 1))
        with pytest.raises(InvalidParameter, match=message):
            minimize(obj, spec.start, B0, config=cfg)
    assert calls == []


def test_minimize_rejects_a_b0_of_the_wrong_kind_before_evaluating():
    spec = get_problem("rosenbrock")
    calls = []
    obj = Objective(
        2,
        lambda x: calls.append("f") or spec.objective.value(x),
        lambda x: calls.append("g") or spec.objective.gradient(x),
    )
    sparse = SolverConfig("vbfgs:log", sparsity=(banded_pattern(2, 1), 2, 1))
    for family in ("bfgs", "dfp", "selfscale", "vbfgs:log", "vdfp:log"):
        cfg = SolverConfig(family)
        for B0 in (PDMatrix.identity(3), np.eye(2)):
            with pytest.raises(InvalidParameter):
                minimize(obj, spec.start, B0, config=cfg)
    for B0 in (PDMatrix.identity(3), np.eye(2)):
        with pytest.raises(InvalidParameter):
            minimize(obj, spec.start, B0, config=sparse)
    assert calls == []


def test_minimize_rejects_a_b0_that_is_not_a_cholesky_factor_before_evaluating():
    # PDMatrix takes its factor as given: an upper entry was ignored by
    # B0.solve but not by B0.matrix, and a negative diagonal ran to
    # Converged with det_b NaN in every record
    spec = get_problem("rosenbrock")
    calls = []
    obj = Objective(
        2,
        lambda x: calls.append("f") or spec.objective.value(x),
        lambda x: calls.append("g") or spec.objective.gradient(x),
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        bad = [
            PDMatrix(np.array([[1.0, 2.0], [0.0, 1.0]])),
            PDMatrix(-np.eye(2)),
            PDMatrix(np.diag([1.0, 0.0])),
            PDMatrix(np.diag([1.0, np.nan])),
            PDMatrix(np.diag([np.inf, 1.0])),
            PDMatrix(np.array([[1.0, 0.0], [np.nan, 1.0]])),
        ]
    for family in ("bfgs", "dfp", "selfscale"):
        for B0 in bad:
            with pytest.raises(InvalidParameter):
                minimize(obj, spec.start, B0, config=SolverConfig(family))
    assert calls == []
    L = np.array([[1.0, 0.0], [2.0, 1.0]])
    trace = minimize(obj, spec.start, PDMatrix(L), SolverConfig("bfgs", grad_tol=1e-6))
    assert trace.status == "Converged"


def test_minimize_and_invariance_check_share_one_start_check():
    # invariance_check read B0.matrix first: an ndarray B0 and config="bfgs"
    # raised AttributeError, and a B0 of the wrong n a numpy ValueError; so
    # did minimize for config="bfgs" or 5
    spec = get_problem("rosenbrock")
    calls = []
    obj = Objective(
        2,
        lambda x: calls.append("f") or spec.objective.value(x),
        lambda x: calls.append("g") or spec.objective.gradient(x),
    )
    runs = (
        lambda B0, config: minimize(obj, spec.start, B0, config),
        lambda B0, config: invariance_check(obj, spec.start, B0, np.eye(2), config),
    )
    bad = [
        (np.eye(2), SolverConfig("bfgs")),
        (PDMatrix.identity(3), SolverConfig("bfgs")),
        (None, "bfgs"),
        (None, 5),
    ]
    for run in runs:
        for B0, config in bad:
            with pytest.raises(InvalidParameter):
                run(B0, config)
    assert calls == []
    assert invariance_check(obj, spec.start, None, np.eye(2), None).invariant


def test_invariance_check_rejects_a_mapped_b0_off_the_pattern_before_either_run():
    # B0_t = T'^{-1} B0 T^{-1} was checked only by the second minimize,
    # after the first run had spent 16 f evaluations
    spec = get_problem("broyden-tridiagonal:6")
    obj, counts = counting_objective(spec.objective)
    cfg = SolverConfig("bfgs", sparsity=(spec.pattern, 2, 1))
    dense_t = np.eye(6) + 0.1 * np.ones((6, 6))
    with pytest.raises(InvalidParameter, match="outside the sparsity pattern"):
        invariance_check(obj, spec.start, None, dense_t, cfg)
    assert counts == {"f": 0, "g": 0}
    # a diagonal T keeps B0_t on the pattern, and both runs go ahead
    rep = invariance_check(obj, spec.start, None, np.diag(np.arange(1.0, 7.0)), cfg, k_max=5)
    assert rep.k_used == 5 and counts["f"] > 0


def test_a_potential_the_dimension_rules_out_is_rejected_before_evaluating():
    # gamma = 0.2 breaks the power potential's beta bound at n = 10; a
    # run that started anyway would end in UpdateFail at its first update
    spec = get_problem("quadratic:10:10")
    obj, counts = counting_objective(spec.objective)
    pattern = banded_pattern(10, 1)
    dense = SolverConfig("vbfgs:power:gamma=0.2")
    sparse = SolverConfig("vbfgs:power:gamma=0.2", sparsity=(pattern, 2, 1))
    for cfg in (dense, SolverConfig("vdfp:power:gamma=0.2"), sparse):
        with pytest.raises(PotentialNotAdmissible, match=r"not admissible for n=10"):
            minimize(obj, spec.start, None, cfg)
    with pytest.raises(PotentialNotAdmissible, match=r"not admissible for n=10"):
        invariance_check(obj, spec.start, None, np.eye(10), dense)
    # the pattern is checked before the potential
    off_pattern = cholesky_factorize(np.full((10, 10), 0.5) + np.eye(10))
    with pytest.raises(InvalidParameter, match=r"^B has entries outside the sparsity pattern$"):
        minimize(obj, spec.start, off_pattern, sparse)
    assert counts == {"f": 0, "g": 0}


# -------------------------------------------------------------- invariance


def test_gradient_check_on_catalog():
    for name in ("rosenbrock", "quadratic:50:5", "extended-powell:8",
                 "broyden-tridiagonal:6"):
        spec = get_problem(name, seed=2)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = spec.start + 0.1 * rng.standard_normal(spec.n)
            assert check_gradient(spec.objective, x) < 1e-6


def test_gradient_check_requires_a_finite_positive_step():
    # h = 0 raised ZeroDivisionError and h = nan returned nan
    spec = get_problem("rosenbrock")
    for h in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            check_gradient(spec.objective, spec.start, h=h)
    assert check_gradient(spec.objective, spec.start, h=1e-5) < 1e-6


def test_gradient_check_reads_an_integer_gradient_as_real():
    # np.empty_like copied the int dtype, so the central differences were
    # truncated and the exact gradient [3, 2] deviated by 0.167
    obj = Objective(2, lambda x: 3.0 * x[0] + 2.0 * x[1], lambda x: np.array([3, 2]))
    assert check_gradient(obj, np.array([0.3, -0.7])) <= 1e-9
    for gradient in (lambda x: np.array([3.0, 2.0j]), lambda x: np.array([[3.0], [2.0]])):
        with pytest.raises(InvalidParameter, match="gradient must be a real array"):
            check_gradient(Objective(2, obj.value, gradient), np.zeros(2))
    with pytest.raises(InvalidParameter, match=r"f\(x\) must be a real array"):
        check_gradient(Objective(2, lambda x: np.array([1.0]), obj.gradient), np.zeros(2))


def test_gradient_check_rejects_a_point_of_the_wrong_shape():
    # an x of the wrong length raised numpy's broadcasting ValueError
    spec = get_problem("rosenbrock")
    for x in (np.zeros(3), np.zeros((2, 1)), 1.0):
        with pytest.raises(InvalidParameter, match=r"shape .*\(2,\)"):
            check_gradient(spec.objective, x)


def test_gradient_check_flags_wrong_gradient():
    obj = Objective(2, lambda x: float(x @ x),
                    lambda x: 1.5 * x)  # true gradient is 2x
    assert check_gradient(obj, np.array([1.0, 2.0])) > 1e-2


def test_transform_problem_chain_rule():
    rng = np.random.default_rng(4)
    spec = get_problem("quadratic:10:4", seed=1)
    T = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    obj_t = transform_problem(spec.objective, T)
    for _ in range(5):
        x = rng.standard_normal(4)
        xt = T @ x
        assert obj_t.value(xt) == pytest.approx(spec.objective.value(x), rel=1e-10)
        expected = np.linalg.solve(T.T, spec.objective.gradient(x))
        assert np.abs(obj_t.gradient(xt) - expected).max() < 1e-10 * (
            1 + np.abs(expected).max()
        )
    assert check_gradient(obj_t, rng.standard_normal(4)) < 1e-6


def test_transform_problem_rejects_singular():
    spec = get_problem("quadratic:10:3", seed=1)
    T = np.zeros((3, 3))
    T[0, 0] = 1.0
    with pytest.raises(SingularTransform):
        transform_problem(spec.objective, T)
    with pytest.raises(InvalidParameter):
        transform_problem(spec.objective, np.eye(2))


def test_transform_problem_rejects_a_non_finite_transform():
    # a NaN entry raised numpy's LinAlgError from the condition number
    spec = get_problem("quadratic:10:3", seed=1)
    cfg = SolverConfig("bfgs")
    for bad in (np.nan, np.inf, -np.inf):
        T = np.eye(3)
        T[1, 2] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            transform_problem(spec.objective, T)
        with pytest.raises(InvalidParameter, match="finite"):
            invariance_check(spec.objective, spec.start, None, T, cfg)


def seeded_transform(n, seed, det_target):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 3 * np.eye(n)
    d = np.linalg.det(M)
    if d < 0:
        M[0] = -M[0]
        d = -d
    return M * (det_target / d) ** (1.0 / n)


def test_invariance_under_unimodular_transforms():
    # every family in the catalog commutes with det-1 changes of variables
    spec = get_problem("quadratic:20:3", seed=3)
    for fam in ("bfgs", "vbfgs:log", "vbfgs:power:gamma=0.2",
                "vbfgs:bounded:c=0.5", "dfp", "vdfp:log", "vdfp:bounded:c=0.5"):
        cfg = SolverConfig(UpdateFamily.from_string(fam), grad_tol=1e-8)
        for seed in (0, 1, 2):
            T = seeded_transform(3, seed, 1.0)
            rep = invariance_check(spec.objective, spec.start, None, T, cfg)
            assert rep.invariant, (fam, seed, rep.x_dev, rep.b_dev)
    # the dual side's first trial alpha g'd / g'd, the last step's
    # first-order change over the new slope, capped at 4 alpha_init, is
    # unchanged under x -> Tx, and so is whether the cap binds; on
    # Rosenbrock it sets every search from k = 1 on
    spec = get_problem("rosenbrock")
    for seed in (0, 1, 2):
        T = seeded_transform(2, seed, 1.0)
        rep = invariance_check(spec.objective, spec.start, None, T,
                               SolverConfig("dfp", grad_tol=1e-8), k_max=20)
        assert rep.k_used == 20 and rep.invariant, (seed, rep.x_dev, rep.b_dev)


def test_invariance_check_runs_only_the_compared_iterates():
    # both runs stop at k_max, and the report is the one the uncapped
    # runs give over iterates 0..k_max
    spec = get_problem("quadratic:20:6", seed=2)
    T = seeded_transform(6, 4, 2.0)
    cfg = SolverConfig("vbfgs:bounded:c=0.5", grad_tol=1e-10, max_iter=200)
    k_max = 4
    with mock.patch.object(bregmanqn.solver, "minimize", wraps=minimize) as spy:
        rep = invariance_check(spec.objective, spec.start, None, T, cfg, k_max=k_max)
    assert [c.args[3].max_iter for c in spy.call_args_list] == [k_max, k_max]

    B0 = PDMatrix.identity(6)
    b0t = np.linalg.solve(T.T, np.linalg.solve(T.T, B0.matrix.T).T)
    full = minimize(spec.objective, spec.start, B0, cfg, record_b=True)
    full_t = minimize(transform_problem(spec.objective, T), T @ spec.start,
                      cholesky_factorize(0.5 * (b0t + b0t.T)), cfg, record_b=True)
    assert full.iterations > k_max and full_t.iterations > k_max
    pairs = list(zip(full.records, full_t.records))[: k_max + 1]
    x_dev = max(float(np.linalg.norm(rt.x - T @ r.x) / (1.0 + np.linalg.norm(r.x)))
                for r, rt in pairs)
    b_dev = max(float(np.linalg.norm(T.T @ rt.b @ T - r.b, "fro")
                      / (1.0 + np.linalg.norm(r.b, "fro"))) for r, rt in pairs)
    assert (rep.k_used, rep.x_dev, rep.b_dev) == (k_max, x_dev, b_dev)
    assert rep.x_dev > 0.0

    with pytest.raises(InvalidParameter, match="k_max"):
        invariance_check(spec.objective, spec.start, None, T, cfg, k_max=0)


def test_invariance_check_requires_a_finite_nonnegative_tol():
    # tol = nan or -1 reported "NOT invariant" for an invariant family
    spec = get_problem("quadratic:20:3", seed=3)
    T = seeded_transform(3, 0, 1.0)
    cfg = SolverConfig("bfgs", grad_tol=1e-8)
    for tol in (np.nan, -1.0, np.inf, -np.inf):
        with pytest.raises(InvalidParameter, match="tol"):
            invariance_check(spec.objective, spec.start, None, T, cfg, tol=tol)
    assert invariance_check(spec.objective, spec.start, None, T, cfg, tol=1e-6).invariant


def test_invariance_under_scaling_transforms():
    # power potentials survive det != 1, the bounded potential does not
    spec = get_problem("quadratic:20:3", seed=3)
    T = seeded_transform(3, 1, 2.0)
    inv_cfg = SolverConfig(UpdateFamily.from_string("vbfgs:power:gamma=0.2"),
                           grad_tol=1e-8)
    rep = invariance_check(spec.objective, spec.start, None, T, inv_cfg)
    assert rep.invariant

    var_cfg = SolverConfig(UpdateFamily.from_string("vbfgs:bounded:c=0.5"),
                           grad_tol=1e-8)
    rep = invariance_check(spec.objective, spec.start, None, T, var_cfg)
    assert not rep.invariant
    assert rep.x_dev > 1e-4
