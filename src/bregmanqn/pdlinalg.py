"""Dense symmetric / positive definite matrix primitives.

Everything downstream (divergences, updates, projections) manipulates PD
matrices as a PDMatrix(L), built from the lower-triangular Cholesky factor
L of A = L L'.  The factor is the source of truth; full matrices are
reconstructed on demand.  Storage is dense and real -- the intended scale
is desk-sized (n up to a few hundred) -- and only this module solves with it.

A factor is modified in one way only: rank_one_update(B, u, v) returns the
PDMatrix (L + u v')(L + u v')' for L = B.L.  Transposed, L + u v' is a
rank-one change of the upper-triangular L', so a QR update re-triangularizes
it in O(n^2) (Gill, Golub, Murray & Saunders, Math. Comp. 28, 1974) and the
orthogonal factor drops out of the product.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr_update
from scipy.linalg.lapack import dtrtrs

from .errors import InvalidParameter, NotPositiveDefinite, require_count

# Relative pivot tolerance: a factorization pivot at or below this fraction
# of the largest diagonal entry is treated as a PD failure.
PIVOT_RTOL = 1e-13


def as_symmetric(a) -> np.ndarray:
    """Coerce to an exactly symmetric ndarray."""
    if isinstance(a, PDMatrix):
        return a.matrix
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameter(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def cholesky_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices, shape
    (m, k, k) with k >= 1, and for each whether it is numerically PD.

    A matrix passes when every pivot of its factor is above PIVOT_RTOL
    times its largest diagonal entry; the test is negated so that a NaN
    entry fails too.  The factor of a failing matrix is meaningless.
    """
    scale = np.max(np.diagonal(a, axis1=1, axis2=2), axis=1)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # LAPACK met a non-positive pivot somewhere; factor one at a time
        if len(a) == 1:
            return a, np.zeros(1, dtype=bool)
        parts = [cholesky_stack(b[None]) for b in a]
        return np.concatenate([L for L, _ in parts]), np.concatenate([ok for _, ok in parts])
    pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
    return L, np.min(pivots, axis=1) > PIVOT_RTOL * scale


def cholesky_factorize(a) -> PDMatrix:
    """Factor a symmetric matrix as L L'.

    Raises NotPositiveDefinite when a pivot falls at or below
    PIVOT_RTOL times the largest diagonal entry, or is NaN.
    """
    a = as_symmetric(a)
    if a.shape[0] == 0:
        raise NotPositiveDefinite("matrix is empty")
    L, ok = cholesky_stack(a[None])
    if not ok[0]:
        raise NotPositiveDefinite(
            f"matrix has a pivot at or below {PIVOT_RTOL} times its largest diagonal entry"
        )
    return PDMatrix(L[0])


def rank_one_update(B: PDMatrix, u, v) -> PDMatrix:
    """The PDMatrix (L + u v')(L + u v')' for L = B.L.

    Runs a QR update of L' + v u' from Q = I, in place on private copies,
    and flips the signs of R's rows so that its diagonal is positive; O(n^2).
    Raises InvalidParameter unless u and v have length n, and
    NotPositiveDefinite when a pivot falls at or below PIVOT_RTOL times the
    largest pivot, i.e. when L + u v' is numerically singular.
    """
    n = B.n
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)
    if u.shape != (n,) or v.shape != (n,):
        raise InvalidParameter(f"vector shapes {u.shape}, {v.shape} do not match n={n}")
    Q, R = np.eye(n, order="F"), np.array(B.L.T, order="F")
    _, R = qr_update(Q, R, v, u, overwrite_qruv=True, check_finite=False)
    d = np.diag(R)
    pivots = d * d
    # negated so that a NaN pivot fails too
    if not np.min(pivots) > PIVOT_RTOL * np.max(pivots):
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance {PIVOT_RTOL * np.max(pivots):.3e}"
        )
    return PDMatrix((np.sign(d)[:, None] * R).T)


def _solve_lower(L, b, transposed=False) -> np.ndarray:
    # L x = b, or L' x = b, for a vector or an n-row block: trtrs on the upper
    # L', as solve_triangular does for a C-ordered L.  A factor is finite by
    # construction, and a non-finite b gives a non-finite x.
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != L.shape[0]:
        raise InvalidParameter(f"right-hand side shape {b.shape} does not match n={L.shape[0]}")
    x, info = dtrtrs(L.T, b, lower=0, trans=0 if transposed else 1)
    if info != 0:
        raise NotPositiveDefinite(f"factor has a zero pivot at diagonal {info - 1}")
    return x


class PDMatrix:
    """Positive definite matrix A = L L', built from its lower-triangular
    Cholesky factor L (strictly positive diagonal), with log det A cached
    and A itself formed on first use.  L must be a square n x n array
    with n >= 1; its entries are taken as given."""

    __slots__ = ("n", "L", "logdet", "_matrix")

    def __init__(self, L):
        L = np.asarray(L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] == 0:
            raise InvalidParameter(f"factor shape {L.shape} is not n x n with n >= 1")
        self.n = L.shape[0]
        self.L = L
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        self._matrix = None

    @staticmethod
    def from_matrix(a) -> "PDMatrix":
        return cholesky_factorize(a)

    @classmethod
    def identity(cls, n: int) -> "PDMatrix":
        return cls(np.eye(require_count("PDMatrix dimension n", n)))

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.L @ self.L.T
        return self._matrix

    def det(self) -> float:
        return float(np.exp(self.logdet))

    def solve(self, b) -> np.ndarray:
        """Solve A x = b for one right-hand side or a block of them."""
        return _solve_lower(self.L, _solve_lower(self.L, b), transposed=True)

    def solve_factor(self, b) -> np.ndarray:
        """Solve L x = b, half of solve: |x|^2 = b' A^{-1} b for a vector."""
        return _solve_lower(self.L, b)

    def inv(self) -> np.ndarray:
        return _solve_lower(self.L, _solve_lower(self.L, np.eye(self.n)), transposed=True)

    def matvec(self, x) -> np.ndarray:
        return self.L @ (self.L.T @ np.asarray(x, dtype=float))

    def __repr__(self):
        return f"PDMatrix(n={self.n}, logdet={self.logdet:.6g})"
