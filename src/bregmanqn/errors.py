"""Exception types shared across the package, and the two checks that
every count and every real parameter of the library goes through."""

import numbers
from math import inf


class BregmanQNError(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(BregmanQNError):
    """A matrix required to be positive definite failed factorization."""


class InvalidParameter(BregmanQNError, ValueError):
    """A potential or config parameter is outside its admissible range."""


class PotentialNotAdmissible(BregmanQNError):
    """Potential failed admissibility validation for the working dimension."""


class RootNotBracketed(BregmanQNError):
    """A scalar solve's residual became non-finite before the root was bracketed."""


class MaxIterations(BregmanQNError):
    """An iterative scalar solve exceeded its iteration budget."""


class CurvatureViolation(BregmanQNError):
    """Secant pair has non-positive or negligible curvature s'y."""


class OracleNoConvergence(BregmanQNError):
    """The reference minimizer testing.divergence_oracle found no PD point
    of its constraint set, or its Newton iteration stalled."""


class NotChordal(BregmanQNError):
    """Sparsity pattern is not chordal.

    Carries ``cycle``: vertices (0-based) of a chordless cycle of length
    at least four, as a witness.
    """

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class CliqueBlockNotPD(NotPositiveDefinite):
    """A clique principal submatrix of a partial matrix is not PD."""


class LineSearchFail(BregmanQNError):
    """No step satisfying the Wolfe conditions within max_trials."""


class SingularTransform(BregmanQNError, ValueError):
    """Change-of-variables matrix is singular or too ill-conditioned."""


def _finite_real(value):
    """Whether value is a finite real number; a bool or a str is not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and -inf < value < inf


def require_count(name, value, low=1):
    """value as an int; InvalidParameter unless it is a whole real >= low:
    2, 2.0 and np.float64(2.0) pass; 2.5, nan, inf, "2" and a bool do not."""
    if not (_finite_real(value) and value % 1 == 0 and value >= low):
        raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_real(name, value, low=-inf, closed=False):
    """value as a float; InvalidParameter unless it is a finite real above
    low, or at low when closed."""
    if not (_finite_real(value) and (value >= low if closed else value > low)):
        bound = "" if low == -inf else f" {'>=' if closed else '>'} {low:g}"
        raise InvalidParameter(f"{name} must be a finite real number{bound}, got {value!r}")
    return float(value)
