"""Dense symmetric / positive definite matrix primitives.

Everything downstream (divergences, updates, projections) manipulates PD
matrices as a PDMatrix(L), built from the lower-triangular Cholesky factor
L of A = L L'.  The factor, read-only, is the one state; a full matrix is
formed on demand as a new array.  Storage is dense and real -- the
intended scale is desk-sized (n up to a few hundred) -- and only this
module solves with it.

A factor is modified in one way only: rank_one_update(B, u, v, scale=c)
returns the PDMatrix (c L + u v')(c L + u v')' for L = B.L.  Transposed,
c L + u v' is a rank-one change of the upper-triangular c L', so a QR update
re-triangularizes it in O(n^2) (Gill, Golub, Murray & Saunders, Math. Comp.
28, 1974) and the orthogonal factor drops out of the product.  One step
allocates two n x n arrays, the identity Q and the scaled copy of L' that
becomes the new factor, and works in place on both.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr_update
from scipy.linalg.lapack import dtrtrs

from .errors import (
    InvalidParameter,
    NotPositiveDefinite,
    require_array,
    require_count,
    require_real,
    require_type,
)

# scipy >= 1.15 wraps qr_update to batch over leading dimensions; a single
# factor needs only the kernel beneath, which gives the same bytes
_qr_update = getattr(qr_update, "__wrapped__", qr_update)

# Relative pivot tolerance: a factorization pivot at or below this fraction
# of the largest diagonal entry is treated as a PD failure.
PIVOT_RTOL = 1e-13


def _require_square(name, a) -> np.ndarray:
    """a as a real n x n array with n >= 1; InvalidParameter otherwise,
    naming the shape wanted: (n, n) for a 2-d a of n >= 1 rows, and a
    square shape of any n >= 1 for any other a."""
    try:
        shape = np.shape(a)
    except ValueError:  # a ragged nesting
        shape = ()
    if len(shape) == 2 and shape[0] > 0:
        return require_array(name, a, (shape[0], shape[0]))
    got = type(a).__name__ + (f" of shape {shape}" if shape else "")
    raise InvalidParameter(f"{name} must be a real array of shape (n, n) with n >= 1, got {got}")


def as_symmetric(a) -> np.ndarray:
    """Coerce to an exactly symmetric ndarray."""
    a = _require_square("matrix", a)
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
    L, ok = cholesky_stack(a[None])
    if not ok[0]:
        raise NotPositiveDefinite(
            f"matrix has a pivot at or below {PIVOT_RTOL} times its largest diagonal entry"
        )
    return PDMatrix._from_factor(L[0])


def rank_one_update(B: PDMatrix, u, v, scale=1.0) -> PDMatrix:
    """The PDMatrix (c L + u v')(c L + u v')' for L = B.L and c = scale.

    Runs a QR update of c L' + v u' from Q = I, in place on private copies
    (Q, the scaled copy of L' and u and v), and flips the signs of R's rows
    so that its diagonal is positive; R' is the new factor.  O(n^2).
    Raises InvalidParameter unless u and v are real arrays of length n and
    scale a finite real >= 0, and NotPositiveDefinite when a pivot falls at
    or below PIVOT_RTOL times the largest pivot, i.e. when c L + u v' is
    numerically singular, as it is for c = 0 unless n = 1.
    """
    n = require_type("B", B, PDMatrix).n
    u = require_array("u", u, (n,)).copy()
    v = require_array("v", v, (n,)).copy()
    R = np.multiply(B.L.T, require_real("scale", scale, 0.0, closed=True), order="F")
    _, R = _qr_update(np.eye(n, order="F"), R, v, u, overwrite_qruv=True, check_finite=False)
    d = np.diag(R)
    # the pivots d^2 compared through |d|, which stays finite and nonzero
    # wherever the factor does; negated so that a NaN pivot fails too
    a = np.abs(d)
    if not np.min(a) > np.sqrt(PIVOT_RTOL) * np.max(a):
        raise NotPositiveDefinite(
            f"factor diagonal {np.min(a):.3e} at or below sqrt({PIVOT_RTOL}) times {np.max(a):.3e}"
        )
    R *= np.sign(d)[:, None]
    return PDMatrix._from_factor(R.T)


def _solve_lower(L, b, transposed=False, overwrite=False) -> np.ndarray:
    # L x = b, or L' x = b, for a vector or an n-row block: trtrs on the upper
    # L', as solve_triangular does for a C-ordered L.  A PDMatrix's factor is
    # finite, and a non-finite b gives a non-finite x.  overwrite lets
    # trtrs solve in place in an F-ordered b, for private arrays only.
    if not isinstance(b, np.ndarray):
        b = require_array("b", b, None)
    b = require_array("b", b, (len(L),) + b.shape[1:2])
    x, info = dtrtrs(L.T, b, lower=0, trans=0 if transposed else 1, overwrite_b=overwrite)
    if info != 0:
        raise NotPositiveDefinite(f"factor has a zero pivot at diagonal {info - 1}")
    return x


class PDMatrix:
    """Positive definite matrix A = L L', held as its Cholesky factor L.
    L must be a finite real n x n array with n >= 1, zero above the
    diagonal and positive on it; InvalidParameter otherwise.  The factor
    is a read-only copy and L, n and logdet cannot be rebound, so A stays
    the matrix that was checked; matrix is a new array on every read."""

    __slots__ = ("_L", "_logdet")

    def __init__(self, L):
        L = require_array("L", _require_square("L", L), None, finite=True)
        if not ((np.diag(L) > 0).all() and not np.triu(L, 1).any()):
            raise InvalidParameter("L must be lower triangular with a positive diagonal")
        self._hold(L.copy())

    @classmethod
    def _from_factor(cls, L) -> "PDMatrix":
        """The PDMatrix of a factor this module built, which keeps
        __init__'s rule by construction, so the check is skipped."""
        B = cls.__new__(cls)
        B._hold(L)
        return B

    def _hold(self, L):
        L.flags.writeable = False
        self._L = L
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(L))))

    def __reduce__(self):
        # pickle and both copies rebuild through _hold: a read-only factor
        return self._from_factor, (self._L,)

    L = property(lambda self: self._L, doc="The lower Cholesky factor, read-only.")
    n = property(lambda self: len(self._L), doc="The dimension.")
    logdet = property(lambda self: self._logdet, doc="log det A.")

    @classmethod
    def identity(cls, n: int) -> "PDMatrix":
        return cls(np.eye(require_count("PDMatrix dimension n", n)))

    @property
    def matrix(self) -> np.ndarray:
        """A = L L' as a new array."""
        return self._L @ self._L.T

    def det(self) -> float:
        """det A, inf where it overflows a float."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.logdet))

    def solve(self, b) -> np.ndarray:
        """Solve A x = b for one right-hand side or a block of them."""
        return _solve_lower(self.L, _solve_lower(self.L, b), transposed=True)

    def solve_factor(self, b) -> np.ndarray:
        """Solve L x = b, half of solve: |x|^2 = b' A^{-1} b for a vector."""
        return _solve_lower(self.L, b)

    def inv(self) -> np.ndarray:
        """A^{-1} as a new array, both solves in place in one F-ordered block."""
        x = _solve_lower(self.L, np.eye(self.n, order="F"), overwrite=True)
        return _solve_lower(self.L, x, transposed=True, overwrite=True)

    def __repr__(self):
        return f"PDMatrix(n={self.n}, logdet={self.logdet:.6g})"
