"""The argument rule: every count, every real parameter, every handle and
every array of the public API goes through errors.require_count,
errors.require_real, errors.require_type or errors.require_array."""

import math
import re

import numpy as np
import pytest

from bregmanqn import (
    InvalidParameter,
    LineSearchParams,
    Objective,
    PDMatrix,
    Potential,
    SecantPair,
    SolverConfig,
    SparseUpdateFamily,
    SparsityPattern,
    UpdateFamily,
    arrow_pattern,
    banded_pattern,
    bfgs_update,
    bounded_potential,
    cholesky_factorize,
    clique_factorize,
    custom_potential,
    dfp_update,
    diagonal_pattern,
    full_pattern,
    get_problem,
    invariance_check,
    invert_theta,
    is_chordal,
    kl_divergence,
    log_potential,
    minimize,
    pattern_from_text,
    pattern_to_text,
    potential_from_string,
    power_potential,
    rank_one_update,
    self_scaling_update,
    solve_neg_theta_det,
    sparse_update,
    theta_coordinate,
    theta_v_project_sparse,
    transform_problem,
    v_bfgs_update,
    v_bregman_divergence,
    validate,
    wolfe_line_search,
)
from bregmanqn.cli import export_trace
from bregmanqn.errors import require_array, require_count, require_real
from bregmanqn.problems import _broyden_tridiagonal, _quadratic
from bregmanqn.testing import (
    check_gradient,
    divergence_oracle,
    projection_orthogonality_residual,
    pythagorean_residual,
    sparse_secant_oracle,
)

_SPEC = get_problem("quadratic:10:3", seed=1)
_F, _G = (lambda x: 0.0), (lambda x: x)


def _sparse_family(algorithm=2, T=1):
    return SparseUpdateFamily(UpdateFamily("vbfgs", log_potential()), banded_pattern(4, 1),
                              algorithm, T)


def _invariance(**kwargs):
    return invariance_check(_SPEC.objective, _SPEC.start, None, np.eye(3),
                            SolverConfig("bfgs"), **kwargs)


# each public scalar parameter: (name, call with the value, one value out of range)
PARAMETERS = [
    # counts
    ("Objective.n", lambda v: Objective(v, _F, _G), 0),
    ("PDMatrix.identity(n)", PDMatrix.identity, 0),
    ("broyden-tridiagonal n", _broyden_tridiagonal, 1),
    ("quadratic n", lambda v: _quadratic(10.0, v, 0), 0),
    ("get_problem seed", lambda v: get_problem("rosenbrock", seed=v), -1),
    ("LineSearchParams.max_trials", lambda v: LineSearchParams(max_trials=v), 0),
    ("SolverConfig.max_iter", lambda v: SolverConfig("bfgs", max_iter=v), 0),
    ("SparseUpdateFamily.T", lambda v: _sparse_family(T=v), 0),
    ("SparseUpdateFamily.algorithm", lambda v: _sparse_family(algorithm=v), 3),
    ("invariance_check(k_max=)", lambda v: _invariance(k_max=v), 0),
    ("validate(pot, n)", lambda v: validate(log_potential(), v), 0),
    ("SparsityPattern.n", lambda v: SparsityPattern(v), 0),
    ("full_pattern(n)", full_pattern, 0),
    ("diagonal_pattern(n)", diagonal_pattern, 0),
    ("arrow_pattern(n)", arrow_pattern, 0),
    ("banded_pattern(n)", lambda v: banded_pattern(v, 1), 0),
    ("banded_pattern(bandwidth)", lambda v: banded_pattern(5, v), -1),
    ("pattern edge index i", lambda v: SparsityPattern(3, [(v, 0)]), -1),
    ("pattern edge index j", lambda v: SparsityPattern(3, [(0, v)]), 3),
    # reals
    ("LineSearchParams.c1", lambda v: LineSearchParams(c1=v), 0.0),
    ("LineSearchParams.c2", lambda v: LineSearchParams(c2=v), 1.0),
    ("LineSearchParams.alpha_init", lambda v: LineSearchParams(alpha_init=v), 0.0),
    ("SolverConfig.grad_tol", lambda v: SolverConfig("bfgs", grad_tol=v), 0.0),
    ("invariance_check(tol=)", lambda v: _invariance(tol=v), -1e-6),
    ("check_gradient(h=)", lambda v: check_gradient(_SPEC.objective, _SPEC.start, h=v), 0.0),
    ("power_potential(gamma)", power_potential, 1.5),
    ("bounded_potential(c)", bounded_potential, -0.2),
    ("rank_one_update(scale=)",
     lambda v: rank_one_update(PDMatrix.identity(3), np.ones(3), np.ones(3), scale=v), -1.0),
    ("quadratic condition number", lambda v: _quadratic(v, 3, 0), 0.5),
]

BAD_VALUES = ["1", None, 1j, True, math.nan, math.inf, 10**400]


@pytest.mark.parametrize("name, call, out_of_range", PARAMETERS, ids=[p[0] for p in PARAMETERS])
@pytest.mark.parametrize("value", BAD_VALUES + ["out of range"],
                         ids=lambda v: "10**400" if v == 10**400 else repr(v))
def test_every_scalar_parameter_rejects_what_is_not_a_value_of_it(name, call, out_of_range, value):
    # a str, None, 1j and nan raised TypeError or ValueError for the reals,
    # and True stood for 1 in grad_tol and the sparse algorithm
    if value == "out of range":
        value = out_of_range
    with pytest.raises(InvalidParameter):
        call(value)


@pytest.mark.parametrize("pot", [log_potential(), bounded_potential(0.5)], ids=["log", "bounded"])
@pytest.mark.parametrize("value", BAD_VALUES, ids=lambda v: "10**400" if v == 10**400 else repr(v))
def test_solve_neg_theta_det_takes_a_finite_real_target(pot, value):
    # "1" raised TypeError, and nan gave nan for the log potential and
    # RootNotBracketed for the bounded one; every finite real is in range,
    # so ld_target has no out-of-range row in PARAMETERS
    with pytest.raises(InvalidParameter, match=r"^ld_target must be a finite real number, got "):
        solve_neg_theta_det(value, 3, pot)
    assert solve_neg_theta_det(np.float64(-1.5), 3, pot) == solve_neg_theta_det(-1.5, 3, pot)


def test_a_str_in_range_is_not_parsed():
    # power_potential("0.25") used to build the potential for gamma = 0.25
    for call, text in ((power_potential, "0.25"), (bounded_potential, "0.5"),
                       (lambda v: SolverConfig("bfgs", max_iter=v), "20")):
        with pytest.raises(InvalidParameter, match="got '"):
            call(text)


def test_counts_take_whole_reals_and_store_the_int():
    for value in (2.0, np.float64(2.0), np.int64(2)):
        assert type(require_count("n", value)) is int
        assert Objective(value, _F, _G).n == 2
    cfg = SolverConfig("bfgs", max_iter=200.0)
    assert cfg.max_iter == 200 and type(cfg.max_iter) is int
    fam = _sparse_family(algorithm=2.0, T=np.float64(3.0))
    assert (fam.algorithm, fam.T) == (2, 3)
    assert type(fam.algorithm) is int and type(fam.T) is int
    assert type(LineSearchParams(max_trials=5.0).max_trials) is int
    assert banded_pattern(5.0, 2.0) == banded_pattern(5, 2)
    # seed 2.0 raised numpy's TypeError for the quadratic
    x = np.arange(3.0)
    assert (get_problem("quadratic:10:3", seed=2.0).objective.value(x)
            == get_problem("quadratic:10:3", seed=2).objective.value(x))


def test_a_negative_quadratic_dimension_is_reported_as_a_count():
    # it reported numpy's "negative dimensions are not allowed"
    with pytest.raises(InvalidParameter, match=r"quadratic n must be an integer >= 1, got -3"):
        get_problem("quadratic:10:-3")


def test_reals_are_stored_as_floats():
    params = LineSearchParams(c1=np.float64(1e-4), c2=0.9, alpha_init=1)
    assert [type(v) for v in (params.c1, params.c2, params.alpha_init)] == [float] * 3
    assert type(SolverConfig("bfgs", grad_tol=np.float32(1e-3)).grad_tol) is float
    assert power_potential(np.float64(0.25)).label() == "power:gamma=0.25"
    assert bounded_potential(0).label() == "bounded:c=0.0"
    # abs() of the least int64 overflowed with a RuntimeWarning
    assert require_real("x", np.int64(-2**63)) == -2.0**63


def test_argument_messages_name_the_bound_only_when_there_is_one():
    with pytest.raises(InvalidParameter, match=r"^c1 must be a finite real number, got 'a'$"):
        LineSearchParams(c1="a")
    with pytest.raises(InvalidParameter, match=r"^tol must be a finite real number >= 0, got -1$"):
        require_real("tol", -1, 0.0, closed=True)
    with pytest.raises(InvalidParameter, match=r"^h must be a finite real number > 0, got 0$"):
        require_real("h", 0, 0.0)
    with pytest.raises(InvalidParameter, match=r"^T must be an integer >= 1, got 2.5$"):
        require_count("T", 2.5)


@pytest.mark.parametrize(
    "parse, value, type_name",
    [
        (UpdateFamily.from_string, 5, "int"),
        (potential_from_string, None, "NoneType"),
        (get_problem, 5, "int"),
        (pattern_from_text, 5, "int"),
        (pattern_from_text, b"2\n1 2\n", "bytes"),
    ],
    ids=["family", "potential", "problem", "pattern", "pattern-bytes"],
)
def test_spec_parsers_name_a_type_that_is_not_a_str(parse, value, type_name):
    # each raised AttributeError or TypeError from a str method
    with pytest.raises(InvalidParameter, match=rf"must be a str, got {type_name}$"):
        parse(value)


_PATTERN = banded_pattern(3, 1)
_PAIR = SecantPair(np.ones(3), np.full(3, 2.0))
_I3 = PDMatrix.identity(3)

# (id, call, the type name the message ends with)
HANDLES = [
    ("sparse_update", lambda: sparse_update(_I3, _PAIR, UpdateFamily("bfgs")), "UpdateFamily"),
    ("sparse_update-pair",
     lambda: sparse_update(PDMatrix.identity(4), (np.ones(4), np.ones(4)), _sparse_family()),
     "tuple"),
    ("clique_factorize", lambda: clique_factorize(np.eye(3), _PATTERN), "SparsityPattern"),
    ("theta_v_project_sparse",
     lambda: theta_v_project_sparse(_I3, _PATTERN, log_potential()), "SparsityPattern"),
    ("theta_v_project_sparse-pot",
     lambda: theta_v_project_sparse(_I3, is_chordal(_PATTERN), "log"), "str"),
    ("wolfe_line_search-None",
     lambda: wolfe_line_search(_SPEC.objective, _SPEC.start, -_SPEC.start, None), "NoneType"),
    ("wolfe_line_search-str",
     lambda: wolfe_line_search(_SPEC.objective, _SPEC.start, -_SPEC.start, "wolfe"), "str"),
    ("wolfe_line_search-dict",
     lambda: wolfe_line_search(_SPEC.objective, _SPEC.start, -_SPEC.start, {"alpha_init": 1.0}),
     "dict"),
    ("bfgs_update-B", lambda: bfgs_update(np.eye(3), _PAIR), "ndarray"),
    ("dfp_update-pair", lambda: dfp_update(_I3, (np.ones(3), np.ones(3))), "tuple"),
    ("self_scaling_update-B", lambda: self_scaling_update(np.eye(3), _PAIR), "ndarray"),
    ("v_bfgs_update-pot", lambda: v_bfgs_update(_I3, _PAIR, "log"), "str"),
    ("rank_one_update-B", lambda: rank_one_update(np.eye(3), np.ones(3), np.ones(3)), "ndarray"),
    ("v_bregman_divergence-pot", lambda: v_bregman_divergence(_I3, _I3, "log"), "str"),
    ("theta_coordinate-pot", lambda: theta_coordinate(_I3, None), "NoneType"),
    ("solve_neg_theta_det-pot", lambda: solve_neg_theta_det(0.0, 3, "log"), "str"),
    ("invert_theta-pot", lambda: invert_theta(-np.eye(3), "log"), "str"),
    ("validate-pot", lambda: validate("log", 3), "str"),
    ("is_chordal", lambda: is_chordal(np.eye(3)), "ndarray"),
    ("pattern_to_text", lambda: pattern_to_text([(0, 1)]), "list"),
    ("SparseUpdateFamily-family",
     lambda: SparseUpdateFamily("bfgs", _PATTERN, 2, 1), "str"),
    ("SparseUpdateFamily-pattern",
     lambda: SparseUpdateFamily(UpdateFamily("bfgs"), np.eye(3), 2, 1), "ndarray"),
    ("UpdateFamily-potential", lambda: UpdateFamily("vbfgs", "log"), "str"),
    ("SolverConfig-family", lambda: SolverConfig(5), "int"),
    ("SolverConfig-line_search", lambda: SolverConfig("bfgs", line_search="wolfe"), "str"),
    ("minimize-config",
     lambda: minimize(_SPEC.objective, _SPEC.start, config="bfgs"), "str"),
    ("Objective-value", lambda: Objective(2, 5, _G), "int"),
    ("Objective-gradient", lambda: Objective(2, _F, None), "NoneType"),
    ("Potential-label", lambda: Potential(5, _F, _F, _F), "int"),
    ("Potential-value_ld", lambda: Potential("x", 1, _F, _F), "int"),
    ("Potential-log_nu_ld", lambda: Potential("x", _F, 2, _F), "int"),
    ("Potential-beta_ld", lambda: Potential("x", _F, _F, 3), "int"),
    ("custom_potential-value", lambda: custom_potential(1, _F, _F), "int"),
    ("custom_potential-derivative", lambda: custom_potential(_F, 2, _F), "int"),
    ("custom_potential-second_derivative", lambda: custom_potential(_F, _F, 3), "int"),
    ("custom_potential-name", lambda: custom_potential(_F, _F, _F, name=None), "NoneType"),
    ("export_trace", lambda: export_trace(None, "trace.csv", "csv"), "NoneType"),
]


@pytest.mark.parametrize("call, type_name", [h[1:] for h in HANDLES], ids=[h[0] for h in HANDLES])
def test_a_handle_of_the_wrong_type_is_named(call, type_name):
    # each raised AttributeError or TypeError for the attribute it went on
    # to read, or named the value's repr instead of its type
    with pytest.raises(InvalidParameter, match=rf"got {type_name}$"):
        call()


_I4 = PDMatrix.identity(4)
_TREE = is_chordal(_PATTERN)
_LOG = log_potential()

# each argument read as a point of the PD cone: (id, name, call with the value)
PD_ARGUMENTS = [
    ("v_bregman_divergence-P", "P", lambda v: v_bregman_divergence(v, _I3, _LOG)),
    ("v_bregman_divergence-Q", "Q", lambda v: v_bregman_divergence(_I3, v, _LOG)),
    ("kl_divergence-P", "P", lambda v: kl_divergence(v, _I3)),
    ("kl_divergence-Q", "Q", lambda v: kl_divergence(_I3, v)),
    ("theta_coordinate-P", "P", lambda v: theta_coordinate(v, _LOG)),
    ("theta_v_project_sparse-Bbar", "Bbar", lambda v: theta_v_project_sparse(v, _TREE, _LOG)),
    ("sparse_update-B", "B",
     lambda v: sparse_update(v, SecantPair(np.ones(4), np.ones(4)), _sparse_family())),
    ("divergence_oracle-B", "B", lambda v: divergence_oracle(v, _LOG)),
    ("sparse_secant_oracle-B", "B", lambda v: sparse_secant_oracle(v, _PAIR, _PATTERN, _LOG)),
    ("pythagorean_residual-P", "P", lambda v: pythagorean_residual(v, _I3, _I3, _LOG)),
    ("pythagorean_residual-Pstar", "Pstar", lambda v: pythagorean_residual(_I3, v, _I3, _LOG)),
    ("pythagorean_residual-Q", "Q", lambda v: pythagorean_residual(_I3, _I3, v, _LOG)),
    ("projection_orthogonality_residual-Pstar", "Pstar",
     lambda v: projection_orthogonality_residual(v, _I3, [], _LOG)),
    ("projection_orthogonality_residual-Q", "Q",
     lambda v: projection_orthogonality_residual(_I3, v, [], _LOG)),
]


@pytest.mark.parametrize("name, call", [a[1:] for a in PD_ARGUMENTS],
                         ids=[a[0] for a in PD_ARGUMENTS])
@pytest.mark.parametrize("value", [np.eye(3), "I"], ids=["ndarray", "str"])
def test_a_pd_argument_is_a_pdmatrix(name, call, value):
    # an array was symmetrized and factored without a word, so a
    # nonsymmetric one gave the divergence of another matrix, and a str was
    # reported as "matrix must be a real array of shape (1, 1)"
    with pytest.raises(InvalidParameter,
                       match=rf"^{name} must be a PDMatrix, got {type(value).__name__}$"):
        call(value)


_SQUARE = "must be a real array of shape (n, n) with n >= 1, got"


@pytest.mark.parametrize("call, message", [
    (lambda: cholesky_factorize(_I3), f"matrix {_SQUARE} PDMatrix"),
    (lambda: cholesky_factorize(None), f"matrix {_SQUARE} NoneType"),
    (lambda: PDMatrix("x"), f"L {_SQUARE} str"),
    (lambda: PDMatrix(np.ones(3)), f"L {_SQUARE} ndarray of shape (3,)"),
    (lambda: cholesky_factorize(np.zeros((0, 0))), f"matrix {_SQUARE} ndarray of shape (0, 0)"),
    (lambda: cholesky_factorize([[1.0], [1.0, 2.0]]), f"matrix {_SQUARE} list"),
    # a 2-d value of n >= 1 rows is named against the shape (n, n)
    (lambda: cholesky_factorize(np.ones((3, 2))),
     "matrix must be a real array of shape (3, 3), got ndarray of shape (3, 2) and dtype float64"),
], ids=["PDMatrix", "None", "str", "vector", "empty", "ragged", "3x2"])
def test_a_matrix_argument_that_is_not_square_is_named_as_such(call, message):
    # a value without a length, a str among them, was named against the
    # shape (1, 1), which no caller needs
    with pytest.raises(InvalidParameter, match=rf"^{re.escape(message)}$"):
        call()


def test_theta_v_project_sparse_names_bbar_for_a_wrong_dimension():
    # it reported "entries must be a real array of shape (3, 3), got
    # ndarray of shape (4, 4)", for an argument the caller never passed
    with pytest.raises(InvalidParameter,
                       match=r"^Bbar of dimension 4 does not fit the n=3 sparsity pattern$"):
        theta_v_project_sparse(_I4, _TREE, _LOG)


@pytest.mark.parametrize("spec", ["dfp", "vdfp:log", "selfscale"])
def test_a_sparse_family_names_only_the_potential(spec):
    # the reason given was "sparse updates maintain B directly"
    with pytest.raises(InvalidParameter, match=(
            r"^each sparse algorithm fixes its own secant step, so the family names only "
            r"the potential; use bfgs or vbfgs:<potential>$")):
        SparseUpdateFamily(UpdateFamily.from_string(spec), _PATTERN, 1, 1)



def test_constant_beta_is_a_real_or_none():
    # it was stored as given, so "0" or 1j reached the geometry as beta
    assert Potential("x", _F, _F, _F).constant_beta is None
    assert type(Potential("x", _F, _F, _F, np.float64(0.25)).constant_beta) is float
    for value in ("0", 1j, True, math.nan, math.inf, 10**400):
        with pytest.raises(InvalidParameter):
            Potential("x", _F, _F, _F, value)


def _with_factor(L):
    # a PDMatrix built with a valid factor and then given L, which only a
    # caller writing the slot can do
    B = PDMatrix.identity(3)
    B.L = L
    return B


_START = _SPEC.start
_DESCENT = -_SPEC.objective.gradient(_START)
_TRANSFORMED = transform_problem(_SPEC.objective, np.eye(3))

# each array argument: (name, call with the value, a value it accepts, finite only)
ARRAYS = [
    ("PDMatrix L", PDMatrix, np.eye(3), False),
    ("cholesky_factorize", cholesky_factorize, np.eye(3), False),
    ("PDMatrix.solve b", _I3.solve, np.ones(3), False),
    ("PDMatrix.solve_factor b", _I3.solve_factor, np.ones(3), False),
    ("PDMatrix.matvec x", _I3.matvec, np.ones(3), False),
    ("rank_one_update u", lambda v: rank_one_update(_I3, v, np.ones(3)), np.ones(3), False),
    ("rank_one_update v", lambda v: rank_one_update(_I3, np.ones(3), v), np.ones(3), False),
    ("SecantPair s", lambda v: SecantPair(v, np.ones(3)), np.ones(3), False),
    ("SecantPair y", lambda v: SecantPair(np.ones(3), v), np.ones(3), False),
    ("minimize x0", lambda v: minimize(_SPEC.objective, v), _START, True),
    ("minimize B0.L", lambda v: minimize(_SPEC.objective, _START, _with_factor(v)), np.eye(3),
     True),
    ("transform_problem T", lambda v: transform_problem(_SPEC.objective, v), np.eye(3), True),
    ("transform_problem value x", _TRANSFORMED.value, _START, False),
    ("transform_problem gradient x", _TRANSFORMED.gradient, _START, False),
    ("invariance_check T",
     lambda v: invariance_check(_SPEC.objective, _START, None, v, SolverConfig("bfgs")),
     np.eye(3), True),
    ("SparsityPattern.restrict", _PATTERN.restrict, np.eye(3), False),
    ("SparsityPattern.off_pattern_magnitude", _PATTERN.off_pattern_magnitude, np.eye(3), False),
    ("clique_factorize entries", lambda v: clique_factorize(v, is_chordal(_PATTERN)), np.eye(3),
     False),
    ("check_gradient x", lambda v: check_gradient(_SPEC.objective, v), _START, False),
    ("wolfe_line_search x",
     lambda v: wolfe_line_search(_SPEC.objective, v, _DESCENT, LineSearchParams()), _START, False),
    ("wolfe_line_search d",
     lambda v: wolfe_line_search(_SPEC.objective, _START, v, LineSearchParams()), _DESCENT, False),
    ("wolfe_line_search g0",
     lambda v: wolfe_line_search(_SPEC.objective, _START, _DESCENT, LineSearchParams(), g0=v),
     -_DESCENT, False),
]


def _bad_array(good, kind):
    """A value of the given kind made from an accepted one."""
    return {
        "str": good.astype(str),
        "complex": good + 1j,
        "bool": good != 0.0,
        "ragged": [[1.0], [1.0, 2.0]],
        "shape": good[..., 1:],
        "nan": np.full_like(good, np.nan),
    }[kind]


_ARRAY_CASES = [(name, call, good, kind) for name, call, good, finite in ARRAYS
                for kind in ("str", "complex", "bool", "ragged", "shape") + ("nan",) * finite]


@pytest.mark.parametrize("call, good", [a[1:3] for a in ARRAYS], ids=[a[0] for a in ARRAYS])
def test_every_array_argument_takes_its_accepted_value(call, good):
    call(good)


@pytest.mark.parametrize("call, good, kind", [c[1:] for c in _ARRAY_CASES],
                         ids=[f"{c[0]}-{c[3]}" for c in _ARRAY_CASES])
def test_every_array_argument_rejects_what_is_not_a_real_array_of_its_shape(call, good, kind):
    # a str array was parsed, a complex one cut to its real part and a bool
    # one read as 0 and 1; a ragged list or a wrong shape raised numpy's
    # ValueError at some sites
    with pytest.raises(InvalidParameter, match=" must be a (finite )?real array"):
        call(_bad_array(good, kind))


def test_the_array_message_names_both_shapes_and_the_dtype():
    with pytest.raises(InvalidParameter, match=re.escape(
            "x0 must be a finite real array of shape (2,), got list of shape (2,) and dtype complex128")):
        minimize(get_problem("rosenbrock").objective, [-1.2 + 1j, 1.0])
    with pytest.raises(InvalidParameter, match=r"^b must be a real array, got ragged list$"):
        _I3.solve([[1.0], [1.0, 2.0]])
    with pytest.raises(InvalidParameter,
                       match=re.escape("m must be a real array of shape (*, 3), got ndarray")):
        require_array("m", np.ones(3), (None, 3))


def test_a_float_array_is_returned_as_it_is_and_others_as_float_arrays():
    a = np.ones((2, 3))
    assert require_array("a", a, (2, 3)) is a and require_array("a", a, (2, None)) is a
    for value in ([1, 2], np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.float32)):
        got = require_array("a", value, (2,))
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0]
