"""Property tests for the reference minimizer bregmanqn.testing.divergence_oracle.

The oracle's answer X* = argmin D_V(X, B) over an affine set must lie in
the set: zero off the pattern, X*s = y for a secant pair.  And for every A
in the set the generalized Pythagorean equality
D(A, B) = D(A, X*) + D(X*, B) holds, which characterizes X* without any
closed form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bregmanqn
from bregmanqn import (
    InvalidParameter,
    OracleNoConvergence,
    PDMatrix,
    SecantPair,
    arrow_pattern,
    banded_pattern,
    diagonal_pattern,
    log_potential,
    potential_from_string,
    v_bregman_divergence,
)
from bregmanqn.testing import divergence_oracle

POTENTIALS = ("log", "power:gamma=-0.25", "bounded:c=0.5")
PATTERNS = {"none": None, "band": lambda n: banded_pattern(n, 1), "arrow": arrow_pattern}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    pot=st.sampled_from(POTENTIALS),
    pattern_kind=st.sampled_from(sorted(PATTERNS)),
    with_pair=st.booleans(),
    log_scale=st.floats(-2.0, 2.0),
)
def test_divergence_oracle_lands_on_the_set_and_splits_the_divergence(
    n, seed, pot, pattern_kind, with_pair, log_scale
):
    rng = np.random.default_rng(seed)
    pot = potential_from_string(pot)
    build = PATTERNS[pattern_kind]
    pattern = None if build is None else build(n)
    scale = 10.0**log_scale
    c = rng.standard_normal((n, n))
    b = scale * (c @ c.T + 0.5 * n * np.eye(n))
    # A: a PD point of the constraint set, which defines y
    a = rng.standard_normal((n, n))
    a = scale * (a @ a.T + n * np.eye(n))
    if pattern is not None:
        a = pattern.restrict(a)
    pair = None
    if with_pair:
        s = rng.standard_normal(n)
        pair = SecantPair(s, a @ s)

    x = divergence_oracle(b, pot, pattern, pair)

    assert np.array_equal(x, x.T)
    if pattern is not None:
        assert np.all(x[~pattern.mask()] == 0.0)
    if pair is not None:
        residual = np.linalg.norm(x @ pair.s - pair.y)
        assert residual <= 1e-10 * (1.0 + np.linalg.norm(pair.y))
    d_ab = v_bregman_divergence(a, b, pot)
    gap = d_ab - v_bregman_divergence(a, x, pot) - v_bregman_divergence(x, b, pot)
    assert abs(gap) <= 1e-12 * (1.0 + abs(d_ab))


def test_divergence_oracle_error_contract():
    pot = log_potential()
    with pytest.raises(InvalidParameter):
        divergence_oracle(PDMatrix.identity(7), pot)
    with pytest.raises(InvalidParameter):
        divergence_oracle(PDMatrix.identity(3), pot, pattern=banded_pattern(4, 1))
    with pytest.raises(InvalidParameter):
        divergence_oracle(PDMatrix.identity(3), pot, pair=SecantPair(np.ones(2), np.ones(2)))
    # a diagonal X cannot map s = (0, 1, 1) to y = (1, 1, 2): the set is empty
    pair = SecantPair(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 2.0]))
    with pytest.raises(OracleNoConvergence):
        divergence_oracle(PDMatrix.identity(3), pot, diagonal_pattern(3), pair)
    # a set with no PD point: X diagonal with X s = y for y_1 < 0 < s_1
    pair = SecantPair(np.array([1.0, 1.0, 1.0]), np.array([-1.0, 2.0, 2.0]))
    with pytest.raises(OracleNoConvergence):
        divergence_oracle(PDMatrix.identity(3), pot, diagonal_pattern(3), pair)


def test_oracles_stay_out_of_the_top_level_namespace():
    gone = {
        "divergence_oracle",
        "minimize_divergence_affine",
        "variational_oracle",
        "sparse_projection_oracle",
        "sparse_secant_oracle",
    }
    assert gone.isdisjoint(bregmanqn.__all__)
    assert gone.isdisjoint(vars(bregmanqn))
