"""Exception types shared across the package, and the four checks that
every count, every real parameter, every handle and every array of the
library goes through."""

import numbers
import sys
from math import inf

import numpy as np

_FLOAT = np.dtype(float)


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
    """Whether value is a real number that a finite float can hold; a
    bool, a str and an int such as 10**400 are not."""
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and -inf < float(value) < inf)
    except OverflowError:
        return False


def require_count(name, value, low=1):
    """value as an int; InvalidParameter unless it is a whole real from low
    to sys.maxsize: 2, 2.0 and np.float64(2.0) pass; 2.5, nan, inf, "2",
    a bool and 10**400 do not."""
    whole = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or (_finite_real(value) and value % 1 == 0))
    count = int(value) if whole else None
    if count is None or not low <= count <= sys.maxsize:
        top = " and <= sys.maxsize" if count is not None and count > sys.maxsize else ""
        raise InvalidParameter(f"{name} must be an integer >= {low}{top}, got {value!r}")
    return count


def require_real(name, value, low=-inf, closed=False):
    """value as a float; InvalidParameter unless it is a finite real above
    low, or at low when closed."""
    if not (_finite_real(value) and (value >= low if closed else value > low)):
        bound = "" if low == -inf else f" {'>=' if closed else '>'} {low:g}"
        raise InvalidParameter(f"{name} must be a finite real number{bound}, got {value!r}")
    return float(value)


def require_type(name, value, cls):
    """value itself; InvalidParameter, naming the type it got, unless it is
    an instance of cls."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidParameter(
            f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def require_array(name, value, shape, finite=False):
    """value as a float array, with no copy when it already is one;
    InvalidParameter unless it holds real numbers (no bool, complex, str,
    object or ragged nesting) in shape, None matching any length and a
    shape of None any shape, and, under finite, only finite ones."""
    # the hot case, a float64 array of the exact shape, returns at one test
    if type(value) is np.ndarray and value.dtype is _FLOAT and value.shape == shape and not finite:
        return value
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        a = None
    if a is not None and a.dtype.kind in "iuf" and (shape is None or a.shape == shape or (
            len(a.shape) == len(shape) and all(w in (None, g) for w, g in zip(shape, a.shape)))):
        a = np.asarray(a, dtype=float)
        if not finite or np.isfinite(a).all():
            return a
    want = "" if shape is None else f" of shape {shape}".replace("None", "*")
    got = (f"ragged {type(value).__name__}" if a is None
           else f"{type(value).__name__} of shape {a.shape} and dtype {a.dtype}")
    raise InvalidParameter(
        f"{name} must be a {'finite ' if finite else ''}real array{want}, got {got}")
