import copy
import pickle
import re

import numpy as np
import pytest
from scipy.linalg import qr_update, solve_triangular

from bregmanqn import (
    InvalidParameter,
    NotPositiveDefinite,
    PDMatrix,
    cholesky_factorize,
    pdlinalg,
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
    # det() warned "overflow encountered in exp", an error under the
    # suite's filter, unless each caller silenced it
    assert f.det() == cholesky_factorize(np.diag([1e200] * 4)).det() == np.inf
    assert cholesky_factorize(np.diag([1e-200] * 4)).det() == 0.0


def test_solve_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(1, 12)
        a = random_pd(rng, n)
        p = cholesky_factorize(a)
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


@pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
def test_the_qr_kernel_gives_the_public_functions_bytes(n):
    # scipy >= 1.15 wraps qr_update to batch; the module calls the kernel
    # beneath, and on an older scipy the public function itself
    if not hasattr(qr_update, "__wrapped__"):
        assert pdlinalg._qr_update is qr_update
        return
    rng = np.random.default_rng(n)
    R0 = np.array(cholesky_factorize(random_pd(rng, n)).L.T, order="F")
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    got = [f(np.eye(n, order="F"), R0.copy(order="F"), u.copy(), v.copy(),
             overwrite_qruv=True, check_finite=False)[1]
           for f in (qr_update, pdlinalg._qr_update)]
    assert pdlinalg._qr_update is qr_update.__wrapped__
    assert got[0].tobytes() == got[1].tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_a_scaled_update_gives_the_bytes_of_the_update_of_the_scaled_factor(n):
    # scale multiplies L as the update copies it, with the bytes of a
    # separately scaled factor; the input factor stays as it was
    rng = np.random.default_rng(n)
    B = cholesky_factorize(random_pd(rng, n))
    L = B.L.copy()
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    for scale in (1.0, 0.3, np.sqrt(2.5)):
        got = rank_one_update(B, u, v, scale=scale)
        want = rank_one_update(PDMatrix(scale * B.L), u, v)
        assert got.L.tobytes() == want.L.tobytes()
        assert got.logdet == want.logdet
        assert not np.shares_memory(got.L, B.L)
    assert np.array_equal(B.L, L)


@pytest.mark.parametrize("n", [1, 3])
def test_the_pivot_test_holds_at_any_factor_scale(n):
    # a diagonal of 2^+-600 squares past float64's range: the test used to
    # read an overflowing pivot as inf <= inf and an underflowing one as 0
    rng = np.random.default_rng(17)
    B = cholesky_factorize(random_pd(rng, n))
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    want = rank_one_update(B, u, v).L
    for k in (-600, 600):
        got = rank_one_update(PDMatrix(2.0**k * B.L), 2.0**k * u, v).L
        assert np.abs(got / 2.0**k - want).max() <= 1e-14 * np.abs(want).max()
    big = 2.0**600
    with pytest.raises(NotPositiveDefinite):
        rank_one_update(PDMatrix(big * np.eye(2)), -big * np.ones(2), np.array([1.0, 0.0]))


def test_a_zero_scale_leaves_the_rank_one_term_alone():
    # u v' is PD only at n = 1, where it is the update of the zero factor
    B = PDMatrix(np.array([[3.0]]))
    got = rank_one_update(B, np.array([2.0]), np.array([-1.5]), scale=0.0)
    assert got.L.tobytes() == np.array([[3.0]]).tobytes()
    with pytest.raises(NotPositiveDefinite):
        rank_one_update(PDMatrix.identity(2), np.ones(2), np.ones(2), scale=0.0)


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
    p = cholesky_factorize(a)
    pinv = p.inv()
    assert np.abs(pinv @ a - np.eye(5)).max() < 1e-9
    x = rng.standard_normal(5)
    assert np.abs(p.solve(p.matrix @ x) - x).max() < 1e-9


def test_pdmatrix_rejects_nonsquare_and_indefinite():
    with pytest.raises(InvalidParameter):
        cholesky_factorize(np.ones((2, 3)))
    with pytest.raises(NotPositiveDefinite):
        cholesky_factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pdmatrix_rejects_a_factor_that_is_not_square():
    # a 1-D factor warned "divide by zero" and got log det -inf, a 2 x 3
    # one built with n = 2 and failed later in solve, and a 0 x 0 one
    # built an empty matrix; the message names the square shape wanted and
    # what was given
    for L, shapes in [
        (np.ones(3), "(n, n) with n >= 1, got ndarray of shape (3,)"),
        (np.ones((2, 3)), "(2, 2), got ndarray of shape (2, 3) and dtype float64"),
        (np.zeros((0, 0)), "(n, n) with n >= 1, got ndarray of shape (0, 0)"),
        (np.ones((1, 1, 1)), "(n, n) with n >= 1, got ndarray of shape (1, 1, 1)"),
        (2.0, "(n, n) with n >= 1, got float"),
    ]:
        with pytest.raises(InvalidParameter,
                           match=rf"^L must be a real array of shape {re.escape(shapes)}$"):
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


@pytest.mark.parametrize("n", [1, 7, 40, 300])
def test_inv_gives_the_solve_triangular_chains_bytes(n):
    # inv solves in place in one F-ordered block, with the bytes of two
    # solve_triangular calls on the identity
    rng = np.random.default_rng(n)
    A = cholesky_factorize(random_pd(rng, n))
    for B in (A, rank_one_update(A, 0.1 * rng.standard_normal(n), rng.standard_normal(n))):
        x = solve_triangular(B.L, np.eye(n), lower=True)
        want = solve_triangular(B.L, x, lower=True, trans=1)
        got = B.inv()
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous and not np.shares_memory(got, B.L)


def test_solves_leave_the_callers_b_untouched():
    # only inv overwrites, and only its own arrays; an F-ordered b, which
    # trtrs could take in place, is copied as a C-ordered one is
    rng = np.random.default_rng(8)
    B = cholesky_factorize(random_pd(rng, 6))
    for b in (rng.standard_normal(6), rng.standard_normal((6, 3)),
              np.asfortranarray(rng.standard_normal((6, 3)))):
        before = b.copy()
        for solve in (B.solve, B.solve_factor):
            x = solve(b)
            assert np.array_equal(b, before)
            assert not np.shares_memory(x, b)


def test_no_write_reaches_a_checked_pdmatrix():
    # the constructor kept the caller's L, and matrix handed out its cache:
    # after L[0, 0] = nan logdet still read 0 while solve gave nan, and
    # after M = B.matrix; M += 1 matrix and solve described two matrices
    rng = np.random.default_rng(21)
    L = np.linalg.cholesky(random_pd(rng, 4))
    B = PDMatrix(L)
    b = rng.standard_normal(4)
    want = (B.solve(b), B.logdet, B.matrix)
    L[0, 0] = np.nan
    M = B.matrix
    M += 1.0
    with pytest.raises(ValueError, match="read-only"):
        B.L[0, 0] = np.nan
    for built in (cholesky_factorize(want[2]), rank_one_update(B, b, b)):
        with pytest.raises(ValueError, match="read-only"):
            built.L[0, 0] = np.nan
    got = (B.solve(b), B.logdet, B.matrix)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(got[2], want[2]) and got[2] is not M


@pytest.mark.parametrize("dup", [lambda B: pickle.loads(pickle.dumps(B)), copy.copy,
                                 copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_a_pdmatrix_copy_is_equal_and_its_factor_read_only(dup):
    B = cholesky_factorize(random_pd(np.random.default_rng(22), 5))
    C = dup(B)
    assert type(C) is PDMatrix and C.n == B.n and C.logdet == B.logdet
    assert np.array_equal(C.L, B.L) and not C.L.flags.writeable
    assert np.array_equal(C.solve(np.ones(5)), B.solve(np.ones(5)))


_RULE = "^L must be lower triangular with a positive diagonal$"
_FINITE = r"^L must be a finite real array, got "


@pytest.mark.parametrize("L, message", [
    ([[1.0, 5.0], [0.0, 1.0]], _RULE),
    (np.diag([1.0, 0.0]), _RULE),
    (-np.eye(2), _RULE),
    ([[-1.0]], _RULE),
    (np.diag([1.0, np.nan]), _FINITE),
    (np.diag([np.inf, 1.0]), _FINITE),
    ([[1.0, 0.0], [np.nan, 1.0]], _FINITE),
], ids=["upper", "zero-pivot", "negative", "negative-1x1", "nan-pivot", "inf-pivot", "nan-lower"])
def test_pdmatrix_refuses_a_factor_that_breaks_its_rule(L, message):
    # the factor was taken as given: for [[1, 5], [0, 1]] solve read the
    # lower triangle alone and gave [1, 1] for b = [1, 1], though its own
    # matrix [[26, 5], [5, 1]] gives [-4, 21]
    with pytest.raises(InvalidParameter, match=message):
        PDMatrix(L)


@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_every_factor_the_library_builds_keeps_the_public_rule(n):
    # cholesky_factorize and rank_one_update build their PDMatrix without
    # the constructor's check, on the premise that their factors pass it
    rng = np.random.default_rng(n)
    for k in range(20):
        B = cholesky_factorize(10.0 ** rng.uniform(-100, 100) * random_pd(rng, n, 10.0 ** (k % 5)))
        for got in (B, rank_one_update(B, rng.standard_normal(n) * np.abs(B.L).max(),
                                       rng.standard_normal(n), scale=rng.uniform(0.01, 10.0))):
            assert PDMatrix(got.L).logdet == got.logdet


def test_triangular_solve_rejects_a_zero_pivot_and_a_mismatched_rhs():
    # PDMatrix refuses a zero pivot, so the factor enters as the library's
    # own would; the solves still check LAPACK's error return
    with np.errstate(divide="ignore"):
        B = PDMatrix._from_factor(np.diag([1.0, 0.0, 2.0]))
    for solve in (B.solve, B.solve_factor):
        with pytest.raises(NotPositiveDefinite):
            solve(np.ones(3))
    with pytest.raises(NotPositiveDefinite):
        B.inv()
    A = PDMatrix.identity(3)
    for b in (np.ones(4), np.ones((2, 3)), np.ones((3, 2, 2)), 1.0):
        with pytest.raises(InvalidParameter):
            A.solve(b)
