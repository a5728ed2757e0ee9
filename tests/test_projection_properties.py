"""Property tests for the sparse theta-projection over n and determinant scale.

The projection B* of Bbar onto a chordal pattern matches theta_V on the
pattern: P_F(nu(det B*) B*^{-1}) = P_F(nu(det Bbar) Bbar^{-1}).  Divided by
nu(det Bbar), both sides stay inside the float range wherever the factors
of Bbar and B* do, even where theta_V itself under- or overflows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bregmanqn import (
    PDMatrix,
    arrow_pattern,
    banded_pattern,
    cholesky_factorize,
    is_chordal,
    potential_from_string,
    theta_v_project_sparse,
)

POTENTIALS = ("log", "power:gamma=-0.25", "bounded:c=0.5")
PATTERNS = {
    "band1": lambda n: banded_pattern(n, 1),
    "band2": lambda n: banded_pattern(n, 2),
    "arrow": arrow_pattern,
}


@st.composite
def dimension_and_log_det(draw):
    """n in [2, 60] and log det in [-2000, 2000], with |log det| / n <= 500
    so that Bbar and Bbar^{-1} have float64 entries."""
    n = draw(st.integers(2, 60))
    bound = min(2000.0, 500.0 * n)
    return n, draw(st.floats(-bound, bound))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n_ld=dimension_and_log_det(),
    seed=st.integers(0, 2**32 - 1),
    pot=st.sampled_from(POTENTIALS),
    pattern_kind=st.sampled_from(sorted(PATTERNS)),
)
def test_projection_matches_theta_on_the_pattern_at_any_scale(n_ld, seed, pot, pattern_kind):
    (n, log_det), pot = n_ld, potential_from_string(pot)
    pattern = PATTERNS[pattern_kind](n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    unit = cholesky_factorize(a @ a.T + n * np.eye(n))
    bbar = PDMatrix(np.exp(0.5 * (log_det - unit.logdet) / n) * unit.L)

    bstar = theta_v_project_sparse(bbar, is_chordal(pattern), pot)

    assert isinstance(bstar, PDMatrix) and np.all(np.diag(bstar.L) > 0.0)
    assert np.isfinite(bstar.logdet)
    m = bstar.matrix
    assert pattern.off_pattern_magnitude(m) <= 1e-12 * np.abs(m).max()
    # a log det summed from a factor's diagonal is off by about eps times
    # the size of its terms, and exp turns that into a relative error of
    # the ratio: hence the |log det| term of the tolerance
    ratio = np.exp(pot.log_nu_ld(bstar.logdet) - pot.log_nu_ld(bbar.logdet))
    lhs = pattern.restrict(bstar.inv()) * ratio
    rhs = pattern.restrict(bbar.inv())
    rtol = 1e-12 * (1.0 + abs(log_det) / 1000.0)
    assert np.abs(lhs - rhs).max() <= rtol * np.abs(rhs).max()
