"""Exception types shared across the package, and the count check that
raises one."""

import numbers


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


def require_count(name, value):
    """Raise InvalidParameter unless value is an integer >= 1 (a bool is not)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1):
        raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")
