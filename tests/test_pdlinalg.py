import numpy as np
import pytest
from scipy.linalg import solve_triangular

from bregmanqn import (
    InvalidParameter,
    NotPositiveDefinite,
    PDMatrix,
    cholesky_factorize,
    rank_one_update,
)
from bregmanqn.pdlinalg import _solve_lower


def random_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + n * np.eye(n)


def test_factorize_round_trip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 11, 30):
        a = random_pd(rng, n)
        f = cholesky_factorize(a)
        err = np.abs(f.matrix - a).max() / np.abs(a).max()
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


def test_factorize_rejects_nan_entries():
    # a NaN pivot fails the tolerance test instead of slipping past it
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize([[np.nan, 0.0], [0.0, 1.0]])


def test_factorize_wants_square_and_symmetrizes():
    with pytest.raises(InvalidParameter):
        cholesky_factorize(np.ones((2, 3)))
    # slightly asymmetric input is symmetrized, not rejected
    b = np.array([[1.0, 0.5], [0.4, 1.0]])
    f = cholesky_factorize(b)
    m = f.matrix
    assert m[0, 1] == m[1, 0] == pytest.approx(0.45)


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(1)
    for n in (2, 4, 9):
        a = random_pd(rng, n)
        f = cholesky_factorize(a)
        sign, ld = np.linalg.slogdet(a)
        assert sign == 1.0
        assert abs(f.logdet - ld) < 1e-10 * (1 + abs(ld))


def test_log_det_no_overflow_large_n():
    # determinant itself overflows past ~1e308; the log must not
    n = 60
    a = np.diag(np.full(n, 1e7))
    f = cholesky_factorize(a)
    assert np.isfinite(f.logdet)
    assert abs(f.logdet - n * np.log(1e7)) < 1e-8 * n


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
        assert np.abs(up.matrix - ref.matrix).max() < 1e-9 * np.abs(a).max()


def test_update_does_not_mutate_input():
    rng = np.random.default_rng(5)
    f = cholesky_factorize(random_pd(rng, 4))
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    before = f.L.copy(), u.copy(), v.copy()
    rank_one_update(f, u, v)
    for arr, old in zip((f.L, u, v), before):
        assert np.array_equal(arr, old)


def test_update_rejects_vectors_of_the_wrong_length():
    f = cholesky_factorize(np.eye(3))
    for u, v in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones((3, 1)))):
        with pytest.raises(InvalidParameter):
            rank_one_update(f, u, v)


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


def test_pdmatrix_rejects_a_factor_that_is_not_square():
    # a 1-D factor warned "divide by zero" and got log det -inf, a 2 x 3
    # one built with n = 2 and failed later in solve, and a 0 x 0 one
    # built an empty matrix
    for L in (np.ones(3), np.ones((2, 3)), np.zeros((0, 0)), np.ones((1, 1, 1)), 2.0):
        with pytest.raises(InvalidParameter, match="not n x n"):
            PDMatrix(L)
    assert PDMatrix(np.array([[2.0]])).logdet == pytest.approx(2.0 * np.log(2.0))


@pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
def test_triangular_solves_give_solve_triangulars_bytes(n):
    # the solves call LAPACK trtrs on L' directly, as solve_triangular does
    # for the C-ordered factors the library builds
    rng = np.random.default_rng(n)
    A = cholesky_factorize(random_pd(rng, n))
    factors = [A, rank_one_update(A, 0.1 * rng.standard_normal(n), rng.standard_normal(n))]
    for B in factors:
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            for trans in (0, 1):
                got = _solve_lower(B.L, b, transposed=bool(trans))
                want = solve_triangular(B.L, b, lower=True, trans=trans, check_finite=False)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        b = rng.standard_normal(n)
        x = solve_triangular(B.L, b, lower=True)
        want = solve_triangular(B.L, x, lower=True, trans=1)
        assert B.solve(b).tobytes() == want.tobytes()


def test_triangular_solve_rejects_a_zero_pivot_and_a_mismatched_rhs():
    with np.errstate(divide="ignore"):
        B = PDMatrix(np.diag([1.0, 0.0, 2.0]))
    for solve in (B.solve, B.solve_factor):
        with pytest.raises(NotPositiveDefinite):
            solve(np.ones(3))
    with pytest.raises(NotPositiveDefinite):
        B.inv()
    A = PDMatrix.identity(3)
    for b in (np.ones(4), np.ones((2, 3)), np.ones((3, 2, 2)), 1.0):
        with pytest.raises(InvalidParameter):
            A.solve(b)
