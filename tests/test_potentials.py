"""Potential evaluation, admissibility, and string parsing."""

import numpy as np
import pytest

from bregmanqn import (
    InvalidParameter,
    Potential,
    PotentialNotAdmissible,
    bounded_potential,
    custom_potential,
    log_potential,
    potential_from_string,
    power_potential,
    validate,
)


def test_log_potential_values():
    pot = log_potential()
    for z in (0.1, 1.0, 7.3, 1e6):
        assert pot.value(z) == pytest.approx(-np.log(z))
        assert pot.nu(z) == pytest.approx(1.0)
        assert pot.beta(z) == pytest.approx(0.0)
    assert pot.constant_beta == 0.0


def test_power_potential_values():
    g = 0.2
    pot = power_potential(g)
    for z in (0.5, 1.0, 3.0):
        assert pot.value(z) == pytest.approx((1 - z ** g) / g)
        assert pot.nu(z) == pytest.approx(z ** g)
        assert pot.beta(z) == pytest.approx(g)


def test_power_gamma_zero_rejected():
    # the gamma -> 0 limit is the log potential, offered under its own name
    with pytest.raises(InvalidParameter):
        power_potential(0.0)


def test_bounded_potential_values():
    c = 0.5
    pot = bounded_potential(c)
    # nu decreases from 1 toward 1-c; beta <= 0
    for z in (1e-6, 0.3, 1.0, 40.0, 1e8):
        nu = pot.nu(z)
        assert 1 - c - 1e-12 <= nu <= 1.0 + 1e-12
        assert pot.beta(z) <= 1e-12
    assert pot.nu(1e-12) == pytest.approx(1.0, abs=1e-9)
    assert pot.nu(1e12) == pytest.approx(1 - c, abs=1e-9)


def test_nu_is_minus_z_vprime():
    rng = np.random.default_rng(0)
    for pot in (log_potential(), power_potential(0.15),
                power_potential(-0.4), bounded_potential(0.3)):
        for _ in range(20):
            z = float(np.exp(rng.uniform(-4, 4)))
            h = 1e-6 * z
            vprime = (pot.value(z + h) - pot.value(z - h)) / (2 * h)
            assert -z * vprime == pytest.approx(pot.nu(z), rel=1e-5)


def test_beta_is_z_nuprime_over_nu():
    rng = np.random.default_rng(1)
    for pot in (power_potential(0.3), bounded_potential(0.7)):
        for _ in range(20):
            z = float(np.exp(rng.uniform(-3, 3)))
            h = 1e-6 * z
            nuprime = (pot.nu(z + h) - pot.nu(z - h)) / (2 * h)
            assert z * nuprime / pot.nu(z) == pytest.approx(pot.beta(z), abs=1e-5)


def test_log_space_forms_match_linear():
    pots = (log_potential(), power_potential(0.25), bounded_potential(0.5))
    for pot in pots:
        for ld in (-5.0, 0.0, 2.5):
            z = np.exp(ld)
            assert pot.nu_ld(ld) == pytest.approx(pot.nu(z), rel=1e-12)
            assert pot.log_nu_ld(ld) == pytest.approx(np.log(pot.nu(z)), abs=1e-12)
            assert pot.beta_ld(ld) == pytest.approx(pot.beta(z), abs=1e-12)


def test_log_space_forms_survive_extreme_logdet():
    # det itself would overflow float64 at these log-determinants
    for pot in (log_potential(), power_potential(0.001), bounded_potential(0.9)):
        for ld in (-800.0, 800.0):
            assert np.isfinite(pot.log_nu_ld(ld))
            assert np.isfinite(pot.beta_ld(ld))


def test_admissibility_power():
    # beta = gamma must stay below 1/n
    power_potential(0.3).require_admissible(3)
    with pytest.raises(PotentialNotAdmissible):
        power_potential(0.34).require_admissible(3)
    with pytest.raises(PotentialNotAdmissible):
        power_potential(0.1).require_admissible(10)
    power_potential(0.099).require_admissible(10)
    power_potential(-2.0).require_admissible(10)


def test_admissibility_log_and_bounded_all_n():
    for n in (1, 2, 5, 20, 50):
        log_potential().require_admissible(n)
        bounded_potential(0.5).require_admissible(n)
        bounded_potential(0.99).require_admissible(n)


def test_validate_report_fields():
    rep = validate(power_potential(0.2), 3)
    assert rep.admissible
    rep = validate(power_potential(0.5), 3)
    assert not rep.admissible
    assert not rep.beta_bound_ok
    # a dimension that is not a whole number >= 1 is refused, not cached
    pot = log_potential()
    for bad in (2.5, 0, "3"):
        with pytest.raises(InvalidParameter):
            validate(pot, bad)
    assert pot._reports == {}


def test_validate_takes_the_potential_s_outputs_through_the_array_rule():
    # text from beta_ld raised numpy's ValueError, None from log_nu_ld a
    # TypeError, and a numeric string was parsed
    zero = lambda ld: 0.0  # noqa: E731
    for beta_ld, log_nu_ld in ((lambda ld: "abc", zero), (lambda ld: "0.0", zero),
                               (zero, lambda ld: None), (zero, lambda ld: 1j)):
        with pytest.raises(InvalidParameter, match=r"^(beta|log_nu)_ld must be a real array"):
            validate(Potential("x", zero, log_nu_ld, beta_ld), 3)
    # non-finite values are outputs the verdict reads, not errors
    assert not validate(Potential("x", zero, lambda ld: np.nan, zero), 3).admissible
    assert validate(Potential("x", zero, zero, zero), 3).admissible


def test_custom_potential_matches_builtin():
    g = 0.2
    pot = custom_potential(
        lambda z: (1 - z ** g) / g,
        lambda z: -z ** (g - 1),
        lambda z: -(g - 1) * z ** (g - 2),
        name="mypower",
    )
    assert pot.label() == "mypower"
    assert repr(pot) == "Potential(mypower)"
    assert pot.constant_beta is None
    ref = power_potential(g)
    for z in (0.4, 1.0, 6.0):
        assert pot.nu(z) == pytest.approx(ref.nu(z))
        assert pot.beta(z) == pytest.approx(g, abs=1e-10)
        assert pot.derivative(z) == pytest.approx(-z ** (g - 1))
    pot.require_admissible(4)


def test_require_admissible_rejects_increasing_custom():
    # V = log z increases everywhere (nu = -1 although beta = 0); V = |log z|
    # increases beyond z = 1 only, where beta == 0 and the z -> 0+ limit
    # hold, so only nu > 0 (a finite log nu) rejects it
    increasing = custom_potential(np.log, lambda z: 1.0 / z, lambda z: -1.0 / z ** 2)
    kinked = custom_potential(lambda z: abs(np.log(z)),
                              lambda z: -1.0 / z if z <= 1.0 else 1.0 / z,
                              lambda z: 1.0 / z ** 2 if z <= 1.0 else -1.0 / z ** 2)
    assert validate(kinked, 4).limit_ok and validate(kinked, 4).beta_max < 1e-12
    for pot in (increasing, kinked):
        for n in (1, 4):
            assert not validate(pot, n).beta_bound_ok
            with pytest.raises(PotentialNotAdmissible):
                pot.require_admissible(n)


DIMS = (1, 2, 3, 5, 10, 50)
VERDICTS = {
    "log": (True,) * 6,
    "power:gamma=-2.0": (True,) * 6,
    "power:gamma=-0.25": (True,) * 6,
    "power:gamma=0.099": (True, True, True, True, True, False),
    "power:gamma=0.2": (True, True, True, False, False, False),
    "power:gamma=0.5": (True, False, False, False, False, False),
    "bounded:c=0.0": (True,) * 6,
    "bounded:c=0.5": (True,) * 6,
    "bounded:c=0.99": (True,) * 6,
}


@pytest.mark.parametrize("spec", sorted(VERDICTS))
def test_admissibility_verdicts(spec):
    got = tuple(validate(potential_from_string(spec), n).admissible for n in DIMS)
    assert got == VERDICTS[spec]


def test_derived_derivatives_match_finite_differences():
    for pot in (log_potential(), power_potential(0.15), bounded_potential(0.6)):
        for z in (0.05, 1.0, 30.0):
            h = 1e-6 * z
            vprime = (pot.value(z + h) - pot.value(z - h)) / (2 * h)
            assert pot.derivative(z) == pytest.approx(vprime, rel=1e-6)
            vsecond = (pot.derivative(z + h) - pot.derivative(z - h)) / (2 * h)
            assert pot.second_derivative(z) == pytest.approx(vsecond, rel=1e-5)


def test_parameter_validation():
    # c = 0 coincides with log, allowed, and has log's constant beta
    assert bounded_potential(0.0).constant_beta == 0.0
    assert bounded_potential(0.0).label() == "bounded:c=0.0"
    assert bounded_potential(0.5).constant_beta is None
    assert power_potential(-0.25).constant_beta == -0.25
    with pytest.raises(InvalidParameter):
        bounded_potential(1.0)
    with pytest.raises(InvalidParameter):
        bounded_potential(-0.2)
    with pytest.raises(InvalidParameter):
        power_potential(1.5)


def test_from_string():
    assert potential_from_string("log").label() == "log"
    p = potential_from_string("power:gamma=0.25")
    assert p.label() == "power:gamma=0.25"
    assert p.nu(2.0) == pytest.approx(2.0 ** 0.25)
    b = potential_from_string("bounded:c=0.5")
    assert b.nu(1e9) == pytest.approx(0.5, rel=1e-6)
    for bad in ("", "nope", "power", "power:g=1", "bounded:c=2", "log:x=1",
                "power:gamma=0.1,gamma=0.2", "power:gamma", "power:gamma=x"):
        with pytest.raises(InvalidParameter):
            potential_from_string(bad)


def test_labels_round_trip():
    for s in ("log", "power:gamma=-0.3", "bounded:c=0.25"):
        assert potential_from_string(s).label() == s
