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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, PotentialNotAdmissible, require_count

BETA_GRID = np.logspace(-8.0, 8.0, 256)
LIMIT_GRID = np.logspace(-12.0, 0.0, 256)


@dataclass
class PotentialReport:
    """Outcome of the admissibility grid checks for one dimension.

    beta_bound_ok says that log nu is finite (nu > 0) and beta < 1/n on
    the grid; limit_ok that z / nu(z)^(n-1) vanishes as z -> 0+.
    """

    dimension: int
    beta_bound_ok: bool
    limit_ok: bool
    beta_max: float

    @property
    def admissible(self) -> bool:
        return self.beta_bound_ok and self.limit_ok


class Potential:
    """Potential V given by its log-space triple.

    ``kind`` is one of "log", "power", "bounded", "custom".  value_ld,
    log_nu_ld and beta_ld take ld = log z and return V(z), log nu(z) and
    beta(z).
    """

    def __init__(self, kind: str, params: dict, value_ld, log_nu_ld, beta_ld):
        self.kind = kind
        self.params = dict(params)
        self.value_ld = value_ld
        self.log_nu_ld = log_nu_ld
        self.beta_ld = beta_ld
        self._reports: dict[int, PotentialReport] = {}

    @property
    def constant_nu(self) -> bool:
        """nu is constant (log, and bounded with c = 0), so the determinant
        equation ld - k log nu(ld) = t has the root ld = t and the weight
        ratio of every weighted update is exactly one."""
        return self.kind == "log" or (self.kind == "bounded" and self.params["c"] == 0.0)

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
        if self.kind == "power":
            return f"power:gamma={self.params['gamma']!r}"
        if self.kind == "bounded":
            return f"bounded:c={self.params['c']!r}"
        return self.kind

    def __repr__(self):
        return f"Potential({self.label()})"

    def require_admissible(self, n: int) -> None:
        """Validate for dimension n (cached); raise if inadmissible."""
        report = self._reports.get(n)
        if report is None:
            report = validate(self, n)
        if not report.admissible:
            raise PotentialNotAdmissible(
                f"potential {self.label()} is not admissible for n={n}: "
                f"beta_bound_ok={report.beta_bound_ok}, limit_ok={report.limit_ok}"
            )


def log_potential() -> Potential:
    """V(z) = -log z; nu == 1, beta == 0.  The KL seed."""
    return Potential(
        kind="log",
        params={},
        value_ld=lambda ld: -ld,
        log_nu_ld=lambda ld: 0.0,
        beta_ld=lambda ld: 0.0,
    )


def power_potential(gamma: float) -> Potential:
    """V(z) = (1 - z^gamma)/gamma; nu = z^gamma, beta == gamma.

    gamma = 0 is the log potential's limit and is rejected: use "log".
    Admissibility additionally needs gamma < 1/n, checked by validate.
    """
    gamma = float(gamma)
    if gamma == 0.0:
        raise InvalidParameter("gamma=0 is the logarithmic limit; use the log potential")
    if not np.isfinite(gamma) or gamma >= 1.0:
        raise InvalidParameter(f"power potential needs gamma < 1, got {gamma}")
    return Potential(
        kind="power",
        params={"gamma": gamma},
        value_ld=lambda ld: (1.0 - np.exp(gamma * ld)) / gamma,
        log_nu_ld=lambda ld: gamma * ld,
        beta_ld=lambda ld: gamma,
    )


def bounded_potential(c: float) -> Potential:
    """V(z) = c log(cz + 1) - log z for 0 <= c < 1.

    nu(z) = 1 - c + c/(cz + 1) stays inside [1 - c, 1], and
    beta(z) = -c^2 z / ((cz + 1)(c(1 - c)z + 1)) <= 0, so the potential is
    admissible in every dimension.  c = 0 coincides with the log potential.
    """
    c = float(c)
    if not (0.0 <= c < 1.0) or not np.isfinite(c):
        raise InvalidParameter(f"bounded potential needs 0 <= c < 1, got {c}")

    if c == 0.0:
        value_ld = lambda ld: -ld
        log_nu_ld = lambda ld: 0.0
        beta_ld = lambda ld: 0.0
    else:
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

    return Potential(
        kind="bounded",
        params={"c": c},
        value_ld=value_ld,
        log_nu_ld=log_nu_ld,
        beta_ld=beta_ld,
    )


def custom_potential(value, derivative, second_derivative, name: str = "custom") -> Potential:
    """Build the log-space triple from user callables V, V', V''.

    log nu = log(-z V'(z)) and beta = 1 + z V''(z) / V'(z), evaluated at
    z = exp(ld).  They exponentiate, so extremely large determinants can
    overflow for custom potentials; the builtins do not have this caveat.
    Where V increases, nu <= 0 and log nu is silently nan or -inf, which
    validate rejects.
    """

    def log_nu_ld(ld):
        z = np.exp(ld)
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(np.log(-z * derivative(z)))

    def beta_ld(ld):
        z = np.exp(ld)
        return float(1.0 + z * second_derivative(z) / derivative(z))

    return Potential(
        kind="custom",
        params={"name": name},
        value_ld=lambda ld: value(np.exp(ld)),
        log_nu_ld=log_nu_ld,
        beta_ld=beta_ld,
    )


def make_builtin(kind: str, **params) -> Potential:
    """Construct one of the builtin potentials by name."""
    kind = kind.lower()
    if kind == "log":
        if params:
            raise InvalidParameter("log potential takes no parameters")
        return log_potential()
    if kind == "power":
        if set(params) != {"gamma"}:
            raise InvalidParameter("power potential takes exactly gamma=<float>")
        return power_potential(params["gamma"])
    if kind == "bounded":
        if set(params) != {"c"}:
            raise InvalidParameter("bounded potential takes exactly c=<float>")
        return bounded_potential(params["c"])
    raise InvalidParameter(f"unknown potential kind {kind!r}")


def from_string(spec: str) -> Potential:
    """Parse CLI potential syntax: log | power:gamma=<g> | bounded:c=<c>."""
    spec = spec.strip().lower()
    if spec == "log":
        return log_potential()
    head, _, rest = spec.partition(":")
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
    return make_builtin(head, **kv)


def validate(pot: Potential, n: int) -> PotentialReport:
    """Grid admissibility checks for dimension n; result cached on pot.

    nu > 0 (a finite log nu) and beta < 1/n are probed on BETA_GRID; the
    vanishing of z / nu(z)^(n-1) near zero is probed on LIMIT_GRID via
    monotone growth plus the bound w(z_min) <= w(1) * z_min^(1/n) that
    admissibility implies.
    """
    require_count("dimension", n)
    cached = pot._reports.get(n)
    if cached is not None:
        return cached

    lds = np.log(BETA_GRID)
    beta_vals = np.array([pot.beta_ld(ld) for ld in lds], dtype=float)
    log_nu = np.array([pot.log_nu_ld(ld) for ld in lds], dtype=float)

    beta_max = float(np.max(beta_vals))
    # beta is the log-derivative of nu, so its bound presumes nu > 0.
    beta_bound_ok = bool(np.all(np.isfinite(log_nu)) and np.all(beta_vals < 1.0 / n))

    lds = np.log(LIMIT_GRID)
    lw = np.array([ld - (n - 1) * pot.log_nu_ld(ld) for ld in lds], dtype=float)
    monotone = bool(np.all(np.diff(lw) > 0.0))
    # Admissibility forces w(z) <= w(1) * z^(1/n); allow float slack.
    small_enough = bool(lw[0] <= lw[-1] + lds[0] / n + 1e-9)
    limit_ok = monotone and small_enough

    report = PotentialReport(
        dimension=n,
        beta_bound_ok=beta_bound_ok,
        limit_ok=limit_ok,
        beta_max=beta_max,
    )
    pot._reports[n] = report
    return report
