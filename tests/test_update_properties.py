"""Property tests for the rank-one factor updates over n and determinant scale.

Every BFGS-type family is r * BFGS(B) + (1 - r) * yy'/(s'y) made by one
call to rank_one_update; these tests check that against the dense formula,
with r worked out independently of the library's scalar solve.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bregmanqn import (
    PDMatrix,
    SecantPair,
    UpdateFamily,
    bfgs_update,
    cholesky_factorize,
    log_potential,
    self_scaling_update,
    v_bfgs_update,
)
from bregmanqn import updates

FAMILIES = ("bfgs", "selfscale", "vbfgs:bounded:c=0.5", "vbfgs:power:gamma=-0.25")


def make_case(n, seed, log_scale, log_cond, log_shift):
    """B with eigenvalues 10^[log_scale, log_scale + log_cond] and y = H s
    for a PD H of condition at most 100 scaled by 10^log_shift, so that
    cos(s, y) >= 0.19 as along a line-search step."""
    rng = np.random.default_rng(seed)
    qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = 10.0 ** (log_scale + log_cond * rng.uniform(size=n))
    B = PDMatrix.from_matrix((qb * eig) @ qb.T)
    s = rng.standard_normal(n)
    qh, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = 10.0 ** (log_scale + log_shift + rng.uniform(-1.0, 1.0, size=n))
    return B, SecantPair(s, qh @ (h * (qh.T @ s)))


def make_case_at(n, seed, log_det, log_cond, log_shift):
    """make_case with log det B near log_det, as far as a smallest
    eigenvalue within 10^[-40, 40] allows."""
    log_scale = np.clip(log_det / (n * np.log(10.0)) - 0.5 * log_cond, -40.0, 40.0)
    return make_case(n, seed, float(log_scale), log_cond, log_shift)


def reference_ratio(family, B, pair, ld_bfgs):
    """r from the family's definition; the scaling equation
    ld - (n-1) log nu(ld) = ld_bfgs - (n-1) log nu(ld_B) is solved by brentq."""
    if family.kind == "bfgs":
        return 1.0
    if family.kind == "selfscale":
        return pair.curvature / float(pair.s @ B.matrix @ pair.s)
    pot, n = family.potential, pair.n
    log_nu_b = pot.log_nu_ld(B.logdet)
    log_c = ld_bfgs - (n - 1) * log_nu_b
    width = abs(log_c) + 60.0 * n

    def zeta(ld):
        return ld - (n - 1) * pot.log_nu_ld(ld) - log_c

    ld_star = brentq(zeta, -width, width, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    return float(np.exp(pot.log_nu_ld(ld_star) - log_nu_b))


def check_update(fam_str, B, pair):
    family = UpdateFamily.from_string(fam_str)
    n, s, y, sty = pair.n, pair.s, pair.y, pair.curvature
    b = B.matrix
    bs = b @ s
    sbs = float(s @ bs)
    yy = np.outer(y, y) / sty
    bfgs = b - np.outer(bs, bs) / sbs + yy
    ld_bfgs = np.linalg.slogdet(bfgs)[1]
    r = reference_ratio(family, B, pair, ld_bfgs)

    with mock.patch.object(
        updates, "rank_one_update", wraps=updates.rank_one_update
    ) as spy:
        out = family.apply(B, pair)
    assert spy.call_count == 1, fam_str

    dense = r * bfgs + (1.0 - r) * yy
    err = np.linalg.norm(out.matrix - dense, "fro") / np.linalg.norm(dense, "fro")
    assert err <= 1e-10, (fam_str, n, err)

    assert np.linalg.norm(out.matvec(s) - y) <= 1e-10 * np.linalg.norm(y), fam_str
    cholesky_factorize(out.matrix)  # raises if not PD

    ld_analytic = (n - 1) * np.log(r) + B.logdet + np.log(sty) - np.log(sbs)
    assert abs(out.factor.log_det() - ld_analytic) <= 1e-10 * max(1.0, abs(ld_analytic))

    # the log potential runs the same arithmetic with r == 1.0
    collapsed = v_bfgs_update(B, pair, log_potential())
    assert np.array_equal(collapsed.factor.L, bfgs_update(B, pair).factor.L)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    log_det=st.integers(-2000, 2000),
    log_cond=st.floats(0.0, 2.0),
    log_shift=st.floats(-1.0, 1.0),
    fam_str=st.sampled_from(FAMILIES),
)
def test_update_is_one_rank_one_step_matching_dense(
    n, seed, log_det, log_cond, log_shift, fam_str
):
    check_update(fam_str, *make_case_at(n, seed, log_det, log_cond, log_shift))


@pytest.mark.parametrize("fam_str", FAMILIES)
def test_update_matches_dense_at_n_300(fam_str):
    check_update(fam_str, *make_case(300, 300, -0.75, 1.5, -0.5))


@pytest.mark.parametrize("fam_str", FAMILIES + ("vbfgs:log",))
def test_update_matches_dense_at_n_300_log_det_860(fam_str):
    B, pair = make_case(300, 300, 0.5, 1.5, -0.5)
    assert 800.0 < B.logdet < 920.0
    check_update(fam_str, B, pair)


@pytest.mark.parametrize("n, log_det", [(400, 2000.0), (400, -2000.0), (150, 2000.0), (150, -2000.0)])
@pytest.mark.parametrize("fam_str", FAMILIES)
def test_update_matches_dense_at_log_det_2000(fam_str, n, log_det):
    B, pair = make_case_at(n, n, log_det, 1.5, -0.5)
    assert abs(B.logdet - log_det) < 50.0
    check_update(fam_str, B, pair)


@pytest.mark.parametrize("n, log_scale", [(5, 0.0), (60, -1.0), (300, 0.5)])
def test_adaptive_self_scaling_takes_theta_from_the_factor_step(n, log_scale):
    # theta = s'y/s'Bs comes from log det BFGS(B) - log det B, so apply
    # makes no product with B; the n = 300 case has log det B near 860
    B, pair = make_case(n, n, log_scale, 1.5, -0.5)
    theta = pair.curvature / float(pair.s @ B.matrix @ pair.s)
    ref = self_scaling_update(B, pair, theta).matrix
    with mock.patch.object(
        updates, "rank_one_update", wraps=updates.rank_one_update
    ) as spy, mock.patch.object(PDMatrix, "matvec") as matvec:
        out = UpdateFamily("selfscale").apply(B, pair)
    assert spy.call_count == 1
    assert matvec.call_count == 0
    err = np.linalg.norm(out.matrix - ref, "fro") / np.linalg.norm(ref, "fro")
    assert err <= 1e-12, (n, err)
