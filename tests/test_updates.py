"""Update formulas: secant feasibility, duality, scaling equation, optimality."""

import numpy as np
import pytest

from bregmanqn import (
    CurvatureViolation,
    InvalidParameter,
    RootNotBracketed,
    PDMatrix,
    SecantPair,
    SparseUpdateFamily,
    UpdateFamily,
    banded_pattern,
    bfgs_update,
    bounded_potential,
    cholesky_factorize,
    dfp_update,
    log_potential,
    power_potential,
    self_scaling_update,
    solve_scaling_equation,
    sparse_update,
    v_bfgs_update,
    v_bregman_divergence,
    v_dfp_update,
)
from bregmanqn._roots import newton_bisect_log
from bregmanqn.geometry import solve_det_equation
from bregmanqn.testing import divergence_oracle

POTS = (log_potential(), power_potential(0.1), power_potential(-0.8),
        bounded_potential(0.4))


def random_case(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    b = PDMatrix.from_matrix(scale * (a @ a.T) + n * np.eye(n))
    s = rng.standard_normal(n)
    y = rng.standard_normal(n)
    if s @ y <= 0:
        y = y - 2 * (s @ y) / (s @ s) * s
    return b, SecantPair(s, y)


def test_secant_pair_validation():
    with pytest.raises(CurvatureViolation):
        SecantPair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    with pytest.raises(InvalidParameter):
        SecantPair(np.array([1.0]), np.array([1.0, 2.0]))
    # non-finite vectors, and finite ones whose s'y overflows to inf or nan
    for s, y in (
        ([np.inf, 1.0], [1.0, 1.0]),
        ([1.0, 1.0], [np.nan, 1.0]),
        ([1e308, 1.0], [1e308, 1.0]),
        ([1e308, 1e308], [1e308, -1e308]),
    ):
        with pytest.raises(InvalidParameter):
            SecantPair(np.array(s), np.array(y))
    p = SecantPair(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    assert p.curvature == pytest.approx(5.0)
    sw = p.swapped()
    assert np.array_equal(sw.s, p.y) and np.array_equal(sw.y, p.s)


def test_updates_reject_a_pair_of_the_wrong_length():
    # these raised numpy's own ValueError from a matrix product
    rng = np.random.default_rng(30)
    updates = (
        bfgs_update,
        dfp_update,
        self_scaling_update,
        lambda b, pair: self_scaling_update(b, pair, 0.5),
        lambda b, pair: v_bfgs_update(b, pair, log_potential()),
        lambda b, pair: v_bfgs_update(b, pair, power_potential(0.1)),
        lambda b, pair: v_dfp_update(b, pair, bounded_potential(0.4)),
    )
    for n in (3, 6):
        b, _ = random_case(rng, n)
        _, short = random_case(rng, n - 1)
        for update in updates:
            with pytest.raises(InvalidParameter):
                update(b, short)
        # the n <= 4 sparse check used to come from the secant oracle alone
        for algorithm in (1, 2):
            family = SparseUpdateFamily(UpdateFamily("bfgs"), banded_pattern(n, 1), algorithm, 2)
            with pytest.raises(InvalidParameter):
                sparse_update(PDMatrix.identity(n), short, family)


def test_bfgs_secant_and_pd():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        b, pair = random_case(rng, n)
        bp = bfgs_update(b, pair)
        assert np.abs(bp.matrix @ pair.s - pair.y).max() <= 1e-10 * (
            1 + np.abs(pair.y).max()
        )
        cholesky_factorize(bp.matrix)


def test_dfp_secant_and_pd():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        b, pair = random_case(rng, n)
        bp = dfp_update(b, pair)
        assert np.abs(bp.matrix @ pair.s - pair.y).max() <= 1e-10 * (
            1 + np.abs(pair.y).max()
        )
        cholesky_factorize(bp.matrix)


def test_bfgs_dfp_duality():
    # inverse of the BFGS update of B is the DFP update of B^{-1} on (y, s)
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        b, pair = random_case(rng, n)
        lhs = np.linalg.inv(bfgs_update(b, pair).matrix)
        binv = PDMatrix.from_matrix(np.linalg.inv(b.matrix))
        rhs = dfp_update(binv, pair.swapped()).matrix
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()


def test_v_bfgs_log_collapse():
    rng = np.random.default_rng(3)
    pot = log_potential()
    for _ in range(300):
        n = int(rng.integers(2, 11))
        b, pair = random_case(rng, n)
        ref = bfgs_update(b, pair).matrix
        out = v_bfgs_update(b, pair, pot).matrix
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_v_bfgs_secant_and_pd_all_potentials():
    rng = np.random.default_rng(4)
    for pot in POTS:
        for _ in range(100):
            n = int(rng.integers(2, 9))
            b, pair = random_case(rng, n, scale=float(rng.uniform(0.3, 3.0)))
            bp = v_bfgs_update(b, pair, pot)
            assert np.abs(bp.matrix @ pair.s - pair.y).max() <= 1e-10 * (
                1 + np.abs(pair.y).max()
            )
            cholesky_factorize(bp.matrix)


def test_v_bfgs_structure_theorem():
    # output = r * BFGS + (1-r) * yy'/s'y with r = nu(det B')/nu(det B) > 0;
    # r can exceed 1 when nu is decreasing, PD still holds
    rng = np.random.default_rng(5)
    for pot in POTS:
        for _ in range(40):
            n = int(rng.integers(2, 7))
            b, pair = random_case(rng, n)
            bp = v_bfgs_update(b, pair, pot)
            bfgs = bfgs_update(b, pair).matrix
            rank1 = np.outer(pair.y, pair.y) / pair.curvature
            r = pot.nu_ld(bp.logdet) / pot.nu_ld(b.logdet)
            assert r > 0.0
            recon = r * bfgs + (1 - r) * rank1
            assert np.abs(bp.matrix - recon).max() < 1e-9 * np.abs(bp.matrix).max()


def test_v_dfp_log_collapse():
    # with the log potential the inverse-space update is the BFGS formula
    # applied to H on the swapped pair
    rng = np.random.default_rng(6)
    pot = log_potential()
    for _ in range(50):
        n = int(rng.integers(2, 8))
        b, pair = random_case(rng, n)
        h = PDMatrix.from_matrix(np.linalg.inv(b.matrix))
        hp = v_dfp_update(h, pair, pot)
        ref = bfgs_update(h, pair.swapped())
        assert np.abs(hp.matrix - ref.matrix).max() < 1e-11 * np.abs(
            ref.matrix
        ).max()


def assert_collapse_beyond_exp_range(pot):
    # log det B = 400 log 10 > 700: a potential with constant nu needs no
    # scalar solve, so the update cannot run out of bracket and is BFGS
    # bit for bit
    n = 400
    rng = np.random.default_rng(11)
    b = PDMatrix.from_matrix(10.0 * np.eye(n))
    assert b.logdet > 900.0
    s = rng.standard_normal(n)
    pair = SecantPair(s, 10.0 * s + 0.1 * rng.standard_normal(n))
    assert np.array_equal(
        v_bfgs_update(b, pair, pot).L, bfgs_update(b, pair).L
    )
    assert np.array_equal(
        v_dfp_update(b, pair, pot).L,
        bfgs_update(b, pair.swapped()).L,
    )


def test_log_collapse_beyond_exp_range():
    assert_collapse_beyond_exp_range(log_potential())


def test_bounded_c0_collapse_beyond_exp_range():
    # bounded with c = 0 has nu == 1 like the log potential
    assert_collapse_beyond_exp_range(bounded_potential(0.0))


def test_bounded_update_beyond_exp_range():
    # log det B = 400 log 10 > 700: the scaling equation's root lies far
    # outside exp's range, and the bracket grows until it holds it
    n = 400
    rng = np.random.default_rng(11)
    b = PDMatrix.from_matrix(10.0 * np.eye(n))
    s = rng.standard_normal(n)
    pair = SecantPair(s, 10.0 * s + 0.1 * rng.standard_normal(n))
    pot = bounded_potential(0.5)
    bp = v_bfgs_update(b, pair, pot)
    assert np.abs(bp.matrix @ pair.s - pair.y).max() <= 1e-10 * np.abs(pair.y).max()
    cholesky_factorize(bp.matrix)
    hp = v_dfp_update(b, pair, pot)
    assert np.abs(hp.matrix @ pair.y - pair.s).max() <= 1e-10 * np.abs(pair.s).max()
    cholesky_factorize(hp.matrix)


def test_scalar_solve_has_no_bracket_cap():
    def dg(ld):
        return 1.0

    for root in (-5000.0, 5000.0):
        ld = newton_bisect_log(lambda ld: ld - root, dg, 0.0, 1e-9)
        assert abs(ld - root) <= 1e-9
    # the only way to run out of bracket is a non-finite residual
    with pytest.raises(RootNotBracketed):
        newton_bisect_log(lambda ld: ld - 5000.0 if ld < 900.0 else np.nan, dg, 0.0, 1e-9)


def test_v_dfp_secant_all_potentials():
    rng = np.random.default_rng(7)
    for pot in POTS:
        for _ in range(100):
            n = int(rng.integers(2, 9))
            b, pair = random_case(rng, n)
            h = PDMatrix.from_matrix(np.linalg.inv(b.matrix))
            hp = v_dfp_update(h, pair, pot)
            # inverse-space secant: H' y = s
            assert np.abs(hp.matrix @ pair.y - pair.s).max() <= 1e-10 * (
                1 + np.abs(pair.s).max()
            )
            cholesky_factorize(hp.matrix)


def test_self_scaling_theta_one_is_bfgs():
    rng = np.random.default_rng(8)
    b, pair = random_case(rng, 5)
    out = self_scaling_update(b, pair, 1.0)
    ref = bfgs_update(b, pair)
    assert np.abs(out.matrix - ref.matrix).max() < 1e-12 * np.abs(ref.matrix).max()


def test_self_scaling_secant_and_pd():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        b, pair = random_case(rng, n)
        theta = float(rng.uniform(0.05, 1.0))
        out = self_scaling_update(b, pair, theta)
        assert np.abs(out.matrix @ pair.s - pair.y).max() <= 1e-10 * (
            1 + np.abs(pair.y).max()
        )
        cholesky_factorize(out.matrix)


def test_scaling_equation_residual_and_power_closed_form():
    for pot in POTS:
        for n in (2, 4, 8):
            for logc in np.linspace(-13.8, 13.8, 13):
                c = float(np.exp(logc))
                z = solve_scaling_equation(c, pot, n)
                resid = abs(c * pot.nu(z) ** (n - 1) - z)
                assert resid <= 1e-12 * max(z, 1.0)
    g = 0.1
    pot = power_potential(g)
    for n in (2, 5, 9):
        for logc in np.linspace(-10, 10, 9):
            c = float(np.exp(logc))
            z = solve_scaling_equation(c, pot, n)
            closed = c ** (1.0 / (1.0 - (n - 1) * g))
            assert z == pytest.approx(closed, rel=1e-12)
    # the k = n - 1 side of the determinant equation up to |log C| = 2000,
    # with exact closed forms for constant nu (ld = t) and the power
    # potential (t / (1 - (n-1) gamma))
    for pot in (*POTS, bounded_potential(0.0)):
        for n in (2, 4, 8):
            k = n - 1
            for t in (*np.linspace(-13.8, 13.8, 7), -2000.0, 2000.0):
                ld = solve_det_equation(float(t), k, pot)
                assert abs(ld - k * pot.log_nu_ld(ld) - t) <= 1e-11 * (1 + abs(t))
                if pot.constant_nu:
                    assert ld == t
                elif pot.kind == "power":
                    assert ld == t / (1.0 - k * pot.params["gamma"])


def test_variational_oracle_agrees_with_update():
    rng = np.random.default_rng(10)
    for pot in (log_potential(), power_potential(0.2), bounded_potential(0.5)):
        for _ in range(6):
            n = int(rng.integers(2, 4))
            b, pair = random_case(rng, n)
            bp = v_bfgs_update(b, pair, pot)
            opt = divergence_oracle(b, pot, pair=pair)
            dev = np.abs(opt - bp.matrix).max() / np.abs(bp.matrix).max()
            assert dev < 5e-7


def test_update_strictly_decreases_divergence_on_manifold():
    # any other feasible point is strictly farther from B than the update
    rng = np.random.default_rng(11)
    for pot in POTS:
        n = 3
        b, pair = random_case(rng, n)
        bp = v_bfgs_update(b, pair, pot)
        d_opt = v_bregman_divergence(bp, b, pot)
        # P D P with P = I - ss'/s's and D symmetric keeps Xs = y
        proj = np.eye(n) - np.outer(pair.s, pair.s) / (pair.s @ pair.s)
        for _ in range(20):
            w = 0.3 * rng.standard_normal((n, n))
            cand = bp.matrix + proj @ (0.5 * (w + w.T)) @ proj
            try:
                c = PDMatrix.from_matrix(cand)
            except Exception:
                continue
            assert v_bregman_divergence(c, b, pot) >= d_opt - 1e-10


def test_family_from_string():
    fam = UpdateFamily.from_string("vbfgs:power:gamma=0.2")
    assert fam.kind == "vbfgs"
    assert fam.potential.label() == "power:gamma=0.2"
    assert UpdateFamily.from_string("bfgs").potential is None
    assert UpdateFamily.from_string("selfscale").kind == "selfscale"
    for bad in ("", "bfgs:log", "vbfgs", "vbfgs:nope", "what"):
        with pytest.raises(InvalidParameter):
            UpdateFamily.from_string(bad)


def test_family_labels():
    assert UpdateFamily.from_string("bfgs").label() == "bfgs"
    assert (
        UpdateFamily.from_string("vdfp:bounded:c=0.3").label() == "vdfp:bounded:c=0.3"
    )
