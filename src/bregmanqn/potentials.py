"""Scalar potentials of the determinant.

A potential is a strictly convex, strictly decreasing function V on the
positive reals, applied to det(P) to produce a seed function V(det P) on the
PD cone.  Two derived quantities drive everything downstream:

    nu(z)   = -z * V'(z)            (positive weight)
    beta(z) = z * nu'(z) / nu(z)    (log-derivative of nu)

A potential is defined by its log-space triple: V, log nu and beta as
functions of ld = log z, so large determinants never overflow.  The
linear-space V, V', V'', nu and beta are derived from the triple.

Admissibility for dimension n requires nu > 0, beta(z) < 1/n everywhere
and z / nu(z)^(n-1) -> 0 as z -> 0+.  They are checked on fixed grids by
``validate`` and the per-dimension verdict is cached on the potential.
Together they make V decreasing (nu > 0) and strictly convex
(V'' = nu (1 - beta) / z^2 > 0).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, PotentialNotAdmissible, require_count, require_real
from .errors import require_array, require_type

BETA_GRID = np.logspace(-8.0, 8.0, 256)
LIMIT_GRID = np.logspace(-12.0, 0.0, 256)


@dataclass(frozen=True)
class PotentialReport:
    """Outcome of the admissibility grid checks for one dimension.

    beta_bound_ok says that log nu is finite (nu > 0) and beta < 1/n on
    the grid; limit_ok that z / nu(z)^(n-1) vanishes as z -> 0+.
    """

    beta_bound_ok: bool
    limit_ok: bool

    @property
    def admissible(self) -> bool:
        return self.beta_bound_ok and self.limit_ok


class Potential:
    """Potential V given by its log-space triple and a label.

    value_ld, log_nu_ld and beta_ld take ld = log z and return V(z),
    log nu(z) and beta(z).  constant_beta is beta's value when beta is
    constant -- exactly the power family nu = z^gamma, with gamma = 0 the
    log potential -- and None otherwise.  Immutable once built.
    """

    def __init__(self, label: str, value_ld, log_nu_ld, beta_ld, constant_beta=None):
        vars(self).update(_label=require_type("Potential label", label, str), _reports={})
        for name, f in (("value_ld", value_ld), ("log_nu_ld", log_nu_ld), ("beta_ld", beta_ld)):
            vars(self).update({name: require_type(f"Potential {name}", f, Callable)})
        vars(self).update(constant_beta=None if constant_beta is None
                          else require_real("constant_beta", constant_beta))

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign or delete {name!r}: a Potential is immutable")
    __delattr__ = __setattr__

    def nu_ld(self, ld: float) -> float:
        return float(np.exp(self.log_nu_ld(ld)))

    def value(self, z: float) -> float:
        return float(self.value_ld(np.log(z)))

    def nu(self, z: float) -> float:
        return self.nu_ld(np.log(z))

    def beta(self, z: float) -> float:
        return float(self.beta_ld(np.log(z)))

    def derivative(self, z: float) -> float:
        """V'(z) = -nu(z) / z."""
        return -self.nu(z) / z

    def second_derivative(self, z: float) -> float:
        """V''(z) = nu(z) (1 - beta(z)) / z^2."""
        return self.nu(z) * (1.0 - self.beta(z)) / (z * z)

    def label(self) -> str:
        return self._label

    def __repr__(self):
        return f"Potential({self._label})"

    def require_admissible(self, n: int) -> None:
        """Validate for dimension n (cached); raise if inadmissible."""
        report = validate(self, n)
        if not report.admissible:
            raise PotentialNotAdmissible(
                f"potential {self._label} is not admissible for n={n}: "
                f"beta_bound_ok={report.beta_bound_ok}, limit_ok={report.limit_ok}"
            )


def _power_triple(label: str, gamma: float) -> Potential:
    """nu = z^gamma, beta == gamma; V = (1 - z^gamma)/gamma, or -log z at
    gamma = 0."""
    if gamma == 0.0:
        value_ld, log_nu_ld = (lambda ld: -ld), (lambda ld: 0.0)
    else:
        value_ld = lambda ld: (1.0 - np.exp(gamma * ld)) / gamma
        log_nu_ld = lambda ld: gamma * ld
    return Potential(label, value_ld, log_nu_ld, lambda ld: gamma, constant_beta=gamma)


def log_potential() -> Potential:
    """V(z) = -log z; nu == 1, beta == 0.  The KL seed."""
    return _power_triple("log", 0.0)


def power_potential(gamma: float) -> Potential:
    """V(z) = (1 - z^gamma)/gamma; nu = z^gamma, beta == gamma.

    gamma = 0 is the log potential's limit and is rejected: use "log".
    Admissibility additionally needs gamma < 1/n, checked by validate.
    """
    gamma = require_real("gamma", gamma)
    if gamma == 0.0:
        raise InvalidParameter("gamma=0 is the logarithmic limit; use the log potential")
    if gamma >= 1.0:
        raise InvalidParameter(f"power potential needs gamma < 1, got {gamma}")
    return _power_triple(f"power:gamma={gamma!r}", gamma)


def bounded_potential(c: float) -> Potential:
    """V(z) = c log(cz + 1) - log z for 0 <= c < 1.

    nu(z) = 1 - c + c/(cz + 1) stays inside [1 - c, 1], and
    beta(z) = -c^2 z / ((cz + 1)(c(1 - c)z + 1)) <= 0, so the potential is
    admissible in every dimension.  c = 0 is the log potential's triple.
    """
    c = require_real("c", c, 0.0, closed=True)
    if c >= 1.0:
        raise InvalidParameter(f"bounded potential needs 0 <= c < 1, got {c}")
    label = f"bounded:c={c!r}"
    if c == 0.0:
        return _power_triple(label, 0.0)
    log_c = np.log(c)
    # log(c*(1-c)) is finite because 0 < c < 1 here.
    log_c1c = np.log(c * (1.0 - c))

    def value_ld(ld):
        return c * np.logaddexp(log_c + ld, 0.0) - ld

    def log_nu_ld(ld):
        t1 = np.logaddexp(log_c + ld, 0.0)  # log(cz + 1)
        return float(np.log(1.0 - c + c * np.exp(-t1)))

    def beta_ld(ld):
        t1 = np.logaddexp(log_c + ld, 0.0)
        t2 = np.logaddexp(log_c1c + ld, 0.0)  # log(c(1-c)z + 1)
        return float(-np.exp(2.0 * log_c + ld - t1 - t2))

    return Potential(label, value_ld, log_nu_ld, beta_ld)


def custom_potential(value, derivative, second_derivative, name: str = "custom") -> Potential:
    """Build the log-space triple from user callables V, V', V''.

    log nu = log(-z V'(z)) and beta = 1 + z V''(z) / V'(z), evaluated at
    z = exp(ld); name is the label.  They exponentiate, so extremely large
    determinants can overflow for custom potentials; the builtins do not
    have this caveat.  Where V increases, nu <= 0 and log nu is silently
    nan or -inf, which validate rejects.
    """
    for arg, f in (("value", value), ("derivative", derivative),
                   ("second_derivative", second_derivative)):
        require_type(f"custom_potential {arg}", f, Callable)

    def log_nu_ld(ld):
        z = np.exp(ld)
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(np.log(-z * derivative(z)))

    def beta_ld(ld):
        z = np.exp(ld)
        return float(1.0 + z * second_derivative(z) / derivative(z))

    return Potential(name, lambda ld: value(np.exp(ld)), log_nu_ld, beta_ld)


# builder and its required keywords for each name from_string accepts
_BUILTINS = {
    "log": (log_potential, ()),
    "power": (power_potential, ("gamma",)),
    "bounded": (bounded_potential, ("c",)),
}


def from_string(spec: str) -> Potential:
    """Parse CLI potential syntax: log | power:gamma=<g> | bounded:c=<c>."""
    head, _, rest = require_type("potential spec", spec, str).strip().lower().partition(":")
    if head not in _BUILTINS:
        raise InvalidParameter(f"unknown potential kind {head!r}")
    build, keys = _BUILTINS[head]
    kv = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq:
                raise InvalidParameter(f"malformed potential parameter {item!r}")
            if key in kv:
                raise InvalidParameter(f"potential parameter {key!r} is given twice")
            try:
                kv[key] = float(val)
            except ValueError as exc:
                raise InvalidParameter(f"non-numeric potential parameter {item!r}") from exc
    if set(kv) != set(keys):
        wants = ", ".join(f"{k}=<float>" for k in keys) or "no parameters"
        raise InvalidParameter(f"{head} potential takes exactly {wants}")
    return build(**kv)


def validate(pot: Potential, n: int) -> PotentialReport:
    """Grid admissibility checks for dimension n; result cached on pot.

    nu > 0 (a finite log nu) and beta < 1/n are probed on BETA_GRID; the
    vanishing of z / nu(z)^(n-1) near zero is probed on LIMIT_GRID via
    monotone growth plus the bound w(z_min) <= w(1) * z_min^(1/n) that
    admissibility implies.  Outputs pass require_array and may be non-finite.
    """
    n = require_count("dimension", n)
    cached = require_type("pot", pot, Potential)._reports.get(n)
    if cached is not None:
        return cached

    lds = np.log(BETA_GRID)
    beta_vals = require_array("beta_ld", [pot.beta_ld(ld) for ld in lds], lds.shape)
    log_nu = require_array("log_nu_ld", [pot.log_nu_ld(ld) for ld in lds], lds.shape)

    # beta is the log-derivative of nu, so its bound presumes nu > 0.
    beta_bound_ok = bool(np.all(np.isfinite(log_nu)) and np.all(beta_vals < 1.0 / n))

    lds = np.log(LIMIT_GRID)
    lw = lds - (n - 1) * require_array("log_nu_ld", [pot.log_nu_ld(ld) for ld in lds], lds.shape)
    monotone = bool(np.all(np.diff(lw) > 0.0))
    # Admissibility forces w(z) <= w(1) * z^(1/n); allow float slack.
    small_enough = bool(lw[0] <= lw[-1] + lds[0] / n + 1e-9)
    limit_ok = monotone and small_enough

    report = PotentialReport(beta_bound_ok=beta_bound_ok, limit_ok=limit_ok)
    pot._reports[n] = report
    return report
