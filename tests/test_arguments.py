"""The argument rule: every count and every real parameter of the public
API goes through errors.require_count or errors.require_real."""

import math

import numpy as np
import pytest

from bregmanqn import (
    InvalidParameter,
    LineSearchParams,
    Objective,
    PDMatrix,
    SolverConfig,
    SparseUpdateFamily,
    SparsityPattern,
    UpdateFamily,
    arrow_pattern,
    banded_pattern,
    bounded_potential,
    diagonal_pattern,
    full_pattern,
    get_problem,
    invariance_check,
    log_potential,
    pattern_from_text,
    potential_from_string,
    power_potential,
    validate,
)
from bregmanqn.errors import require_count, require_real
from bregmanqn.problems import _broyden_tridiagonal, _quadratic
from bregmanqn.testing import check_gradient

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
