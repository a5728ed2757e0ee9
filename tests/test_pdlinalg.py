import numpy as np
import pytest

from bregmanqn import (
    InvalidParameter,
    NotPositiveDefinite,
    PDMatrix,
    cholesky_factorize,
    rank_one_update,
)


def random_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + n * np.eye(n)


def test_factorize_round_trip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 11, 30):
        a = random_pd(rng, n)
        f = cholesky_factorize(a)
        err = np.abs(f.matrix() - a).max() / np.abs(a).max()
        assert err < 1e-12


def test_factorize_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize(a)
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize(np.zeros((3, 3)))


def test_factorize_rejects_tiny_pivot():
    # diagonal entry below the pivot tolerance relative to the max
    a = np.diag([1.0, 1e-30])
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize(a)


def test_factorize_wants_square_and_symmetrizes():
    with pytest.raises(InvalidParameter):
        cholesky_factorize(np.ones((2, 3)))
    # slightly asymmetric input is symmetrized, not rejected
    b = np.array([[1.0, 0.5], [0.4, 1.0]])
    f = cholesky_factorize(b)
    m = f.matrix()
    assert m[0, 1] == m[1, 0] == pytest.approx(0.45)


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(1)
    for n in (2, 4, 9):
        a = random_pd(rng, n)
        f = cholesky_factorize(a)
        sign, ld = np.linalg.slogdet(a)
        assert sign == 1.0
        assert abs(f.log_det() - ld) < 1e-10 * (1 + abs(ld))


def test_log_det_no_overflow_large_n():
    # determinant itself overflows past ~1e308; the log must not
    n = 60
    a = np.diag(np.full(n, 1e7))
    f = cholesky_factorize(a)
    assert np.isfinite(f.log_det())
    assert abs(f.log_det() - n * np.log(1e7)) < 1e-8 * n


def test_solve_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(1, 12)
        a = random_pd(rng, n)
        p = PDMatrix.from_matrix(a)
        b = rng.standard_normal(n)
        x = p.solve(b)
        assert np.abs(a @ x - b).max() < 1e-9 * (1 + np.abs(b).max())
        bm = rng.standard_normal((n, 3))
        xm = p.solve(bm)
        assert np.abs(a @ xm - bm).max() < 1e-9


def test_rank_one_update_matches_rebuild():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(1, 10)
        a = random_pd(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        f = cholesky_factorize(a)
        up = rank_one_update(f, u, v)
        m = f.L + np.outer(u, v)
        ref = cholesky_factorize(m @ m.T)
        assert np.abs(up.matrix() - ref.matrix()).max() < 1e-9 * np.abs(a).max()


def test_update_does_not_mutate_input():
    a = random_pd(np.random.default_rng(5), 4)
    f = cholesky_factorize(a)
    before = f.matrix().copy()
    rank_one_update(f, np.ones(4), np.ones(4))
    assert np.array_equal(f.matrix(), before)


def test_pdmatrix_identity_and_inverse():
    rng = np.random.default_rng(6)
    eye = PDMatrix.identity(4)
    assert eye.det() == pytest.approx(1.0)
    assert np.array_equal(eye.matrix, np.eye(4))
    a = random_pd(rng, 5)
    p = PDMatrix.from_matrix(a)
    pinv = p.inv()
    assert np.abs(pinv @ a - np.eye(5)).max() < 1e-9
    x = rng.standard_normal(5)
    assert np.abs(p.solve(p.matvec(x)) - x).max() < 1e-9


def test_pdmatrix_rejects_nonsquare_and_indefinite():
    with pytest.raises(InvalidParameter):
        PDMatrix.from_matrix(np.ones((2, 3)))
    with pytest.raises(NotPositiveDefinite):
        PDMatrix.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
