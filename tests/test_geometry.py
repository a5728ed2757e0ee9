from unittest import mock

import numpy as np
import pytest

from bregmanqn import (
    NotPositiveDefinite,
    InvalidParameter,
    PDMatrix,
    bounded_potential,
    cholesky_factorize,
    invert_theta,
    kl_divergence,
    log_potential,
    power_potential,
    solve_neg_theta_det,
    theta_coordinate,
    v_bregman_divergence,
)
from bregmanqn import geometry
from bregmanqn.testing import (
    generic_bregman,
    projection_orthogonality_residual,
    pythagorean_residual,
    trace_inner,
)

POTENTIALS = (log_potential(), power_potential(0.12), power_potential(-0.5),
              bounded_potential(0.5))


def random_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return cholesky_factorize(scale * (a @ a.T) + n * np.eye(n))


def test_trace_inner_is_frobenius():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    assert trace_inner(a, b) == pytest.approx(np.trace(a.T @ b))


def test_kl_is_v_bregman_with_log():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        p = random_pd(rng, n)
        q = random_pd(rng, n)
        assert kl_divergence(p, q) == v_bregman_divergence(p, q, log_potential())
    # a dimension mismatch is a library error that is still a ValueError
    p, q = random_pd(rng, 2), random_pd(rng, 3)
    for pot in POTENTIALS:
        with pytest.raises(InvalidParameter):
            v_bregman_divergence(p, q, pot)
    with pytest.raises(InvalidParameter):
        kl_divergence(p, q)
    assert issubclass(InvalidParameter, ValueError)


def test_divergence_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(2)
    for pot in POTENTIALS:
        for _ in range(25):
            n = int(rng.integers(1, 6))
            p = random_pd(rng, n)
            q = random_pd(rng, n)
            d = v_bregman_divergence(p, q, pot)
            assert d >= -1e-12
            assert v_bregman_divergence(p, p, pot) == pytest.approx(0.0, abs=1e-10)


def test_divergence_asymmetric():
    rng = np.random.default_rng(3)
    p = random_pd(rng, 3)
    q = random_pd(rng, 3)
    pot = power_potential(0.2)
    assert abs(v_bregman_divergence(p, q, pot)
               - v_bregman_divergence(q, p, pot)) > 1e-8


@pytest.mark.parametrize("gamma", [-0.25, 0.15])
def test_power_divergence_scales_exactly_at_any_log_det(gamma):
    # nu(det cP) = c^(n gamma) nu(det P), so D(cP, cQ) = c^(n gamma) D(P, Q).
    # V(det P) - V(det Q) was a difference of two values that both round
    # to 1/gamma once nu falls below machine epsilon: 8.9e-2 off at a log
    # det shifted by 300, and the sign could turn
    pot, n = power_potential(gamma), 5
    rng = np.random.default_rng(12)
    for _ in range(5):
        p, q = random_pd(rng, n), random_pd(rng, n)
        ref = v_bregman_divergence(p, q, pot)
        for shift in (-300.0, 300.0):
            # det is multiplied by exp(shift), nu by exp(gamma * shift)
            f = np.exp(shift / (2 * n))
            d = v_bregman_divergence(PDMatrix(f * p.L), PDMatrix(f * q.L), pot)
            assert d > 0.0
            assert d == pytest.approx(np.exp(gamma * shift) * ref, rel=1e-12)
    # n = 2, log det Q = 200 and P = Q / 1.5: it gave -1.29e-22 for +4.48e-23
    q = PDMatrix(np.exp(50.0) * np.eye(2))
    d = v_bregman_divergence(PDMatrix(q.L / np.sqrt(1.5)), q, power_potential(-0.25))
    assert d == pytest.approx(np.exp(-50.0) * (4.0 * (np.sqrt(1.5) - 1.0) - 2.0 / 3.0), rel=1e-12)


def test_generic_bregman_recovers_v_form():
    # phi(P) = V(det P) as a raw convex function must give the same number
    pot = power_potential(0.15)

    def phi(P):
        return pot.value(float(np.linalg.det(P)))

    def grad_phi(P):
        z = float(np.linalg.det(P))
        return -pot.nu(z) * np.linalg.inv(P)

    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_pd(rng, 3)
        q = random_pd(rng, 3)
        ref = v_bregman_divergence(p, q, pot)
        raw = generic_bregman(p.matrix, q.matrix, phi, grad_phi)
        assert raw == pytest.approx(ref, rel=1e-9, abs=1e-11)
        # it reads arrays only; a PDMatrix is not read as its matrix
        with pytest.raises(InvalidParameter,
                           match=r"^matrix must be a real array of shape \(n, n\) with n >= 1, "
                                 r"got PDMatrix$"):
            generic_bregman(p, q, phi, grad_phi)


def test_theta_coordinate_form():
    rng = np.random.default_rng(5)
    for pot in POTENTIALS:
        p = random_pd(rng, 4)
        tm = theta_coordinate(p, pot)
        expect = -pot.nu(p.det()) * np.linalg.inv(p.matrix)
        assert np.abs(tm - expect).max() < 1e-10 * np.abs(expect).max()
        # theta is symmetric negative definite
        assert np.array_equal(tm, tm.T)
        assert np.all(np.linalg.eigvalsh(tm) < 0)


def test_theta_coordinate_factors_only_on_use():
    p = random_pd(np.random.default_rng(9), 5)
    pot = bounded_potential(0.5)
    with mock.patch.object(
        geometry, "cholesky_factorize", wraps=geometry.cholesky_factorize
    ) as spy:
        tm = theta_coordinate(p, pot)
        assert spy.call_count == 0
        back = invert_theta(tm, pot)
    # one factor of -T plus the factor of the returned matrix
    assert spy.call_count == 2
    assert np.abs(back.matrix - p.matrix).max() < 1e-9 * np.abs(p.matrix).max()


def test_invert_theta_rejects_non_negative_definite():
    with pytest.raises(NotPositiveDefinite):
        invert_theta(np.diag([-1.0, 2.0]), log_potential())


def test_invert_theta_round_trip():
    rng = np.random.default_rng(6)
    for pot in POTENTIALS:
        for _ in range(15):
            n = int(rng.integers(2, 7))
            p = random_pd(rng, n, scale=float(rng.uniform(0.2, 5.0)))
            back = invert_theta(theta_coordinate(p, pot), pot)
            dev = np.abs(back.matrix - p.matrix).max() / np.abs(p.matrix).max()
            assert dev < 1e-9


def test_solve_neg_theta_det_log_closed_form():
    # log potential: nu == 1, so log z = -ld_target exactly
    pot = log_potential()
    for ld in (-20.0, -1.0, 0.0, 3.5, 30.0):
        assert solve_neg_theta_det(ld, 4, pot) == -ld


def test_solve_neg_theta_det_residual():
    # the k = n side of the determinant equation, with the exact closed
    # form t / (1 - n beta) for constant beta: ld = t when beta = 0 (log,
    # bounded with c = 0) and t / (1 - n gamma) for the power potential
    for pot in (*POTENTIALS, bounded_potential(0.0)):
        for n in (2, 3, 6):
            for ld_target in (*np.linspace(-12, 12, 9), -2000.0, 2000.0):
                t = -float(ld_target)
                ld = solve_neg_theta_det(float(ld_target), n, pot)
                resid = n * pot.log_nu_ld(ld) - ld - ld_target
                assert abs(resid) < 1e-11 * (1 + abs(ld_target))
                if pot.constant_beta == 0.0:
                    assert ld == t
                if pot.constant_beta is not None:
                    assert ld == t / (1.0 - n * pot.constant_beta)


def test_solve_neg_theta_det_does_not_alternate_between_two_points():
    # Newton alternated between log z = -1.62 and 9.24, both inside the
    # bracket, so the bisection fallback never ran and MaxIterations was
    # raised after 202 residual evaluations
    pot, ld_target = bounded_potential(0.5), -39.82534134111998
    ld = solve_neg_theta_det(ld_target, 60, pot)
    assert abs(ld - 60 * pot.log_nu_ld(ld) + ld_target) <= 1e-13 * (1.0 + abs(ld_target))
    assert ld == pytest.approx(3.0811374258383, abs=1e-12)


def test_pythagorean_residual_zero_for_exact_split():
    # three-point identity holds exactly when theta(B') - theta(B) is
    # orthogonal to A - B'; build such a triple on a diagonal slice
    pot = log_potential()
    b = cholesky_factorize(np.diag([2.0, 3.0]))
    bp = cholesky_factorize(np.diag([2.0, 5.0]))
    a = cholesky_factorize(np.diag([7.0, 5.0]))
    # theta diff of (b', b) lives on index 1, a - b' lives on index 0
    res = pythagorean_residual(a, bp, b, pot)
    assert abs(res) < 1e-12


def test_orthogonality_residual_detects_misalignment():
    pot = log_potential()
    rng = np.random.default_rng(8)
    b = random_pd(rng, 3)
    bp = random_pd(rng, 3)
    a = random_pd(rng, 3)
    directions = [np.eye(3)]
    r = projection_orthogonality_residual(bp, b, directions, pot)
    # generic triples are far from orthogonal
    assert abs(r) > 1e-6
