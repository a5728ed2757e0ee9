"""Update formulas: secant feasibility, duality, scaling equation, optimality."""

from dataclasses import replace

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
    custom_potential,
    dfp_update,
    log_potential,
    power_potential,
    self_scaling_update,
    sparse_update,
    v_bfgs_update,
    v_bregman_divergence,
)
from bregmanqn._roots import newton_bisect_log
from bregmanqn.geometry import solve_det_equation
from bregmanqn.testing import divergence_oracle

POTS = (log_potential(), power_potential(0.1), power_potential(-0.8),
        bounded_potential(0.4))


def scaling_root(c, pot, n):
    """The positive root z of z = c * nu(z)^(n-1)."""
    return float(np.exp(solve_det_equation(np.log(c), n - 1, pot)))


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


def test_updates_reject_a_pair_of_the_wrong_length():
    # these raised numpy's own ValueError from a matrix product
    rng = np.random.default_rng(30)
    updates = (
        bfgs_update,
        dfp_update,
        self_scaling_update,
        lambda b, pair: v_bfgs_update(b, pair, log_potential()),
        lambda b, pair: v_bfgs_update(b, pair, power_potential(0.1)),
        UpdateFamily("vdfp", bounded_potential(0.4)).apply,
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
        rhs = dfp_update(binv, SecantPair(pair.y, pair.s)).matrix
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
    # with the log potential the inverse-side update is the BFGS step on H
    # with the swapped pair, bit for bit (its inverse is DFP(B): see
    # test_bfgs_dfp_duality)
    rng = np.random.default_rng(6)
    pot = log_potential()
    for _ in range(50):
        n = int(rng.integers(2, 8))
        b, pair = random_case(rng, n)
        h = PDMatrix.from_matrix(np.linalg.inv(b.matrix))
        hp = v_bfgs_update(h, SecantPair(pair.y, pair.s), pot)
        assert np.array_equal(hp.L, bfgs_update(h, SecantPair(pair.y, pair.s)).L)


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
        v_bfgs_update(b, SecantPair(pair.y, pair.s), pot).L,
        bfgs_update(b, SecantPair(pair.y, pair.s)).L,
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
    hp = v_bfgs_update(b, SecantPair(pair.y, pair.s), pot)
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
            hp = v_bfgs_update(h, SecantPair(pair.y, pair.s), pot)
            # inverse-space secant: H' y = s
            assert np.abs(hp.matrix @ pair.y - pair.s).max() <= 1e-10 * (
                1 + np.abs(pair.s).max()
            )
            cholesky_factorize(hp.matrix)


def test_self_scaling_theta_one_is_bfgs():
    # scale y so that theta = s'y / s'Bs is one
    rng = np.random.default_rng(8)
    b, pair = random_case(rng, 5)
    pair = SecantPair(pair.s, pair.y * (float(pair.s @ b.matvec(pair.s)) / pair.curvature))
    out = self_scaling_update(b, pair)
    ref = bfgs_update(b, pair)
    assert np.abs(out.matrix - ref.matrix).max() < 1e-12 * np.abs(ref.matrix).max()


def test_self_scaling_secant_and_pd():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        b, pair = random_case(rng, n, scale=float(rng.uniform(0.3, 3.0)))
        out = self_scaling_update(b, pair)
        assert np.abs(out.matrix @ pair.s - pair.y).max() <= 1e-10 * (
            1 + np.abs(pair.y).max()
        )
        cholesky_factorize(out.matrix)


def test_scaled_updates_leave_their_inputs_and_share_no_memory_with_them():
    # the sqrt(r) scaling happens in the update's own copy of the factor
    rng = np.random.default_rng(12)
    b, pair = random_case(rng, 6)
    before = b.L.copy(), pair.s.copy(), pair.y.copy()
    for update in (lambda: v_bfgs_update(b, pair, bounded_potential(0.5)),
                   lambda: self_scaling_update(b, pair)):
        out = update()
        assert out.logdet != b.logdet  # r != 1
        for arr, old in zip((b.L, pair.s, pair.y), before):
            assert np.array_equal(arr, old)
        assert not np.shares_memory(out.L, b.L)


def test_scaling_equation_residual_and_power_closed_form():
    for pot in POTS:
        for n in (2, 4, 8):
            for logc in np.linspace(-13.8, 13.8, 13):
                c = float(np.exp(logc))
                z = scaling_root(c, pot, n)
                resid = abs(c * pot.nu(z) ** (n - 1) - z)
                assert resid <= 1e-12 * max(z, 1.0)
    g = 0.1
    pot = power_potential(g)
    for n in (2, 5, 9):
        for logc in np.linspace(-10, 10, 9):
            c = float(np.exp(logc))
            z = scaling_root(c, pot, n)
            closed = c ** (1.0 / (1.0 - (n - 1) * g))
            assert z == pytest.approx(closed, rel=1e-12)
    # the k = n - 1 side of the determinant equation up to |log C| = 2000,
    # with the exact closed form t / (1 - (n-1) beta) for constant beta:
    # ld = t when beta = 0 and t / (1 - (n-1) gamma) for the power potential
    for pot in (*POTS, bounded_potential(0.0)):
        for n in (2, 4, 8):
            k = n - 1
            for t in (*np.linspace(-13.8, 13.8, 7), -2000.0, 2000.0):
                ld = solve_det_equation(float(t), k, pot)
                assert abs(ld - k * pot.log_nu_ld(ld) - t) <= 1e-11 * (1 + abs(t))
                if pot.constant_beta == 0.0:
                    assert ld == t
                if pot.constant_beta is not None:
                    assert ld == t / (1.0 - k * pot.constant_beta)


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
    # bfgs and dfp are the log potential's rule on B and on H = B^{-1}
    for head, inverse in (("bfgs", False), ("dfp", True)):
        fam = UpdateFamily.from_string(head)
        assert fam.potential.label() == "log" and fam.inverse == inverse
    assert UpdateFamily.from_string("selfscale").kind == "selfscale"
    assert UpdateFamily.from_string("selfscale").potential is None
    for bad in ("", "bfgs:log", "vbfgs", "vbfgs:nope", "what"):
        with pytest.raises(InvalidParameter):
            UpdateFamily.from_string(bad)


def test_family_labels():
    for spec in ("bfgs", "dfp", "selfscale", "vbfgs:log", "vdfp:log"):
        assert UpdateFamily.from_string(spec).label() == spec
    assert (
        UpdateFamily.from_string("vdfp:bounded:c=0.3").label() == "vdfp:bounded:c=0.3"
    )
    # a custom potential's name is its label, in the family's label too
    mine = custom_potential(lambda z: -np.log(z), lambda z: -1.0 / z,
                            lambda z: 1.0 / z ** 2, name="mine")
    assert mine.label() == "mine"
    assert UpdateFamily("vbfgs", mine).label() == "vbfgs:mine"


def test_family_rejects_a_potential_that_is_not_one():
    # a spec string is not a Potential: refused here, not an AttributeError
    # from the first update
    for kind in ("vbfgs", "vdfp"):
        for bad in ("log", None, 0.5):
            with pytest.raises(InvalidParameter):
                UpdateFamily(kind, bad)
    UpdateFamily("vbfgs", log_potential())
    # bfgs, dfp and selfscale take none; bfgs and dfp carry the log potential
    for kind in ("bfgs", "dfp", "selfscale"):
        with pytest.raises(InvalidParameter):
            UpdateFamily(kind, log_potential())
        assert replace(UpdateFamily(kind)) == UpdateFamily(kind)


SPECS = ("bfgs", "dfp", "vbfgs:bounded:c=0.5", "vdfp:log", "vdfp:power:gamma=-0.25", "selfscale")


@pytest.mark.parametrize("spec", SPECS)
def test_every_kind_carries_b_itself(spec):
    # one side for every family: no inversion of B0, and the direction is
    # -B^{-1} g on the state B
    rng = np.random.default_rng(13)
    fam = UpdateFamily.from_string(spec)
    for b0 in (random_case(rng, 5)[0], PDMatrix.identity(5), PDMatrix(2.0 * np.eye(5))):
        assert fam.initial_state(b0) is b0
        g = rng.standard_normal(5)
        d = fam.direction(b0, g)
        assert np.abs(b0.matvec(d) + g).max() <= 1e-12 * np.abs(g).max()


@pytest.mark.parametrize("spec", SPECS)
def test_b_matrix_returns_an_array_the_caller_owns(spec):
    rng = np.random.default_rng(14)
    b0, pair = random_case(rng, 4)
    fam = UpdateFamily.from_string(spec)
    state = fam.apply(fam.initial_state(b0), pair)
    got = fam.b_matrix(state)
    assert np.array_equal(got, state.matrix)
    assert not np.shares_memory(got, state.matrix)
    assert not np.shares_memory(got, fam.b_matrix(state))
    assert fam.det_b(state) == state.det()
    sparse = SparseUpdateFamily(UpdateFamily("bfgs"), banded_pattern(4, 1), 1, 1)
    state = sparse.initial_state(PDMatrix.identity(4))
    assert np.array_equal(sparse.b_matrix(state), np.eye(4))
    assert not np.shares_memory(sparse.b_matrix(state), state[0].matrix)


DUAL_SPECS = ("dfp", "vdfp:log", "vdfp:bounded:c=0.5", "vdfp:power:gamma=-0.25")


def scaled_case(rng, n, logdet):
    """(B, pair, c) with log det B = logdet: B = c^2 B^ and the pair
    (s^/c, c y^), so that y = c y^ = c A s^ is at B's scale for every
    logdet; B^ and A are well-conditioned PD matrices."""
    a, m = rng.standard_normal((2, n, n))
    b_hat = PDMatrix.from_matrix(a @ a.T / n + np.eye(n))
    s = rng.standard_normal(n)
    y = (m @ m.T / n + np.eye(n)) @ s
    c = np.exp((logdet - b_hat.logdet) / (2 * n))
    return PDMatrix(c * b_hat.L), SecantPair(s / c, c * y), c


def inverse_factor(L):
    """A lower factor of (L L')^{-1}: with L^{-1} = QR, (L L')^{-1} = R'R."""
    r = np.linalg.qr(np.linalg.inv(L), mode="r")
    return (np.sign(np.diag(r))[:, None] * r).T


@pytest.mark.parametrize("spec", DUAL_SPECS)
@pytest.mark.parametrize("n", [1, 2, 5, 40, 200])
def test_the_dual_step_is_the_inverse_of_the_step_on_h(spec, n):
    # B+ = [r BFGS(H; y, s) + (1 - r) ss'/s'y]^{-1} for H = B^{-1}, the
    # step v_bfgs_update takes on H with the pair swapped.  Compared at
    # unit scale, B+ / c^2 against the inverse of c^2 H+, as a float64
    # matrix holds neither B+ nor H+ at |log det| = 1000 and n = 1.
    rng = np.random.default_rng(15 + n)
    fam = UpdateFamily.from_string(spec)
    for logdet in (-1000.0, 0.0, 1000.0):
        b, pair, c = scaled_case(rng, n, logdet)
        assert b.logdet == pytest.approx(logdet, rel=1e-12, abs=1e-9)
        h = PDMatrix(inverse_factor(b.L / c) / c)
        hp = v_bfgs_update(h, SecantPair(pair.y, pair.s), fam.potential)
        bp = fam.apply(b, pair)
        got = PDMatrix(bp.L / c)
        want = np.linalg.inv(PDMatrix(hp.L * c).matrix)
        assert np.abs(got.matrix - want).max() <= 1e-12 * np.abs(want).max(), (logdet, n)
        # the secant equation B+ s = y at test_update_properties' tolerance,
        # as (B+ / c^2)(c s) = y / c, and PD
        y_hat = pair.y / c
        assert np.linalg.norm(got.matvec(c * pair.s) - y_hat) <= 1e-10 * np.linalg.norm(y_hat)
        assert np.isfinite(bp.L).all() and (np.diag(bp.L) > 0).all()
        cholesky_factorize(got.matrix)


def test_dfp_and_vdfp_log_take_the_same_dual_step_to_the_byte():
    # and at log det 0 both match dfp_update's dense sandwich, the
    # reference for the dual factor step that dense and sparse runs take
    rng = np.random.default_rng(16)
    dfp, vdfp = UpdateFamily("dfp"), UpdateFamily("vdfp", log_potential())
    for n in (1, 2, 5, 40, 200):
        for logdet in (-1000.0, 0.0, 1000.0):
            b, pair, _ = scaled_case(rng, n, logdet)
            step = dfp.apply(b, pair)
            assert step.L.tobytes() == vdfp.apply(b, pair).L.tobytes()
            if logdet == 0.0:
                ref = dfp_update(b, pair).matrix
                assert np.abs(step.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
