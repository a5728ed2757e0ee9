"""Dense symmetric / positive definite matrix primitives.

Everything downstream (divergences, updates, projections) manipulates PD
matrices through a lower-triangular Cholesky factor.  The factor is the
source of truth; full matrices are reconstructed on demand.  Storage is
dense and real -- the intended scale is desk-sized (n up to a few hundred).

A factor is modified in one way only: rank_one_update(factor, u, v) returns
the Cholesky factor of (L + u v')(L + u v')'.  Transposed, L + u v' is a
rank-one change of the upper-triangular L', so a QR update re-triangularizes
it in O(n^2) (Gill, Golub, Murray & Saunders, Math. Comp. 28, 1974) and the
orthogonal factor drops out of the product.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr_update, solve_triangular

from .errors import InvalidParameter, NotPositiveDefinite

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


class CholeskyFactor:
    """Lower-triangular factor L with strictly positive diagonal, A = L L'."""

    __slots__ = ("n", "L")

    def __init__(self, L):
        L = np.asarray(L, dtype=float)
        self.n = L.shape[0]
        self.L = L

    def log_det(self) -> float:
        """log det of the factored matrix, 2 * sum(log diag L)."""
        return 2.0 * float(np.sum(np.log(np.diag(self.L))))

    def matrix(self) -> np.ndarray:
        return self.L @ self.L.T

    def copy(self) -> "CholeskyFactor":
        return CholeskyFactor(self.L.copy())

    def __repr__(self):
        return f"CholeskyFactor(n={self.n})"


def cholesky_factorize(a) -> CholeskyFactor:
    """Factor a symmetric matrix as L L'.

    Raises NotPositiveDefinite when a pivot falls at or below
    PIVOT_RTOL times the largest diagonal entry.
    """
    a = as_symmetric(a)
    n = a.shape[0]
    diag = np.diag(a)
    scale = float(np.max(diag)) if n else 0.0
    if n == 0 or scale <= 0.0 or not np.isfinite(scale):
        raise NotPositiveDefinite("matrix has no positive diagonal entry")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    # LAPACK succeeds for any strictly positive pivot sequence; enforce the
    # relative tolerance so near-singular inputs are rejected uniformly.
    pivots = np.diag(L) ** 2
    if np.min(pivots) <= PIVOT_RTOL * scale:
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance {PIVOT_RTOL * scale:.3e}"
        )
    return CholeskyFactor(L)


def rank_one_update(factor: CholeskyFactor, u, v) -> CholeskyFactor:
    """Cholesky factor of (L + u v')(L + u v')' for L = factor.L.

    Runs a QR update of L' + v u' from Q = I and flips the signs of R's rows
    so that its diagonal is positive; O(n^2).  Raises NotPositiveDefinite
    when a pivot falls at or below PIVOT_RTOL times the largest pivot, i.e.
    when L + u v' is numerically singular.
    """
    n = factor.n
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"vector shapes {u.shape}, {v.shape} do not match n={n}")
    _, R = qr_update(np.eye(n), factor.L.T, v, u, check_finite=False)
    d = np.diag(R)
    pivots = d * d
    # negated so that a NaN pivot fails too
    if not np.min(pivots) > PIVOT_RTOL * np.max(pivots):
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance {PIVOT_RTOL * np.max(pivots):.3e}"
        )
    return CholeskyFactor((np.sign(d)[:, None] * R).T)


def log_det(factor: CholeskyFactor) -> float:
    return factor.log_det()


def solve(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve (L L') x = b for one right-hand side or a block of them."""
    b = np.asarray(b, dtype=float)
    y = solve_triangular(factor.L, b, lower=True)
    return solve_triangular(factor.L, y, lower=True, trans="T")


class PDMatrix:
    """Positive definite matrix held as a Cholesky factor plus cached log-det."""

    __slots__ = ("n", "factor", "logdet", "_matrix")

    def __init__(self, factor: CholeskyFactor):
        self.n = factor.n
        self.factor = factor
        self.logdet = factor.log_det()
        self._matrix = None

    @classmethod
    def from_matrix(cls, a) -> "PDMatrix":
        return cls(cholesky_factorize(a))

    @classmethod
    def from_factor(cls, L) -> "PDMatrix":
        return cls(CholeskyFactor(np.asarray(L, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> "PDMatrix":
        return cls(CholeskyFactor(np.eye(n)))

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.factor.matrix()
        return self._matrix

    def det(self) -> float:
        return float(np.exp(self.logdet))

    def solve(self, b) -> np.ndarray:
        return solve(self.factor, b)

    def inv(self) -> np.ndarray:
        return solve(self.factor, np.eye(self.n))

    def matvec(self, x) -> np.ndarray:
        L = self.factor.L
        return L @ (L.T @ np.asarray(x, dtype=float))

    def __repr__(self):
        return f"PDMatrix(n={self.n}, logdet={self.logdet:.6g})"
