"""Acceptance gate: ten numbered criteria, one pass line each.

Run with -s to see the summary lines.  Every criterion is seeded, uses
the tolerances stated in its assertions, and is independent of the
others.
"""

import numpy as np
import pytest

from bregmanqn import (
    PDMatrix,
    SecantPair,
    SolverConfig,
    SparseUpdateFamily,
    UpdateFamily,
    arrow_pattern,
    banded_pattern,
    bfgs_update,
    bounded_potential,
    cholesky_factorize,
    clique_factorize,
    get_problem,
    invariance_check,
    is_chordal,
    log_potential,
    minimize,
    power_potential,
    sparse_update,
    theta_coordinate,
    theta_v_project_sparse,
    v_bfgs_update,
    v_bregman_divergence,
)
from bregmanqn.cli import run_command
from bregmanqn.geometry import solve_det_equation
from bregmanqn.testing import divergence_oracle

BUILTINS = (log_potential(), power_potential(0.1), bounded_potential(0.5))


def random_pd(rng, n, shift=None):
    a = rng.standard_normal((n, n))
    return cholesky_factorize(a @ a.T + (n if shift is None else shift) * np.eye(n))


def random_pair(rng, n):
    while True:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if s @ y > 0:
            return SecantPair(s, y)


def well_curved_pair(rng, n, floor=0.05):
    # assembled-matrix secant residuals grow as eps / cos(s,y)^2, so the
    # family sweep keeps the curvature angle representative of pairs a
    # Wolfe search would accept rather than near-orthogonal ones
    while True:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if s @ y > floor * np.linalg.norm(s) * np.linalg.norm(y):
            return SecantPair(s, y)


def test_criterion_01_log_collapse():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for k in range(1000):
        n = 2 + k % 9
        b = random_pd(rng, n)
        pair = random_pair(rng, n)
        ref = bfgs_update(b, pair).matrix
        out = v_bfgs_update(b, pair, log_potential()).matrix
        dev = np.linalg.norm(out - ref, "fro") / np.linalg.norm(ref, "fro")
        worst = max(worst, dev)
        assert dev <= 1e-12
    print(f"criterion 1: PASS - log collapse, 1000 cases, worst rel dev {worst:.2e}")


def test_criterion_02_secant_and_pd_every_family():
    families = (
        "bfgs",
        "dfp",
        "vbfgs:log",
        "vbfgs:power:gamma=0.08",
        "vbfgs:bounded:c=0.5",
        "vdfp:log",
        "selfscale",
    )
    worst = 0.0
    for fam_str in families:
        family = UpdateFamily.from_string(fam_str)
        rng = np.random.default_rng(1002)
        for k in range(1000):
            n = 2 + k % 9
            b = random_pd(rng, n)
            pair = well_curved_pair(rng, n)
            bp = family.apply(b, pair).matrix
            res = np.linalg.norm(bp @ pair.s - pair.y) / np.linalg.norm(pair.y)
            worst = max(worst, res)
            assert res <= 1e-10, fam_str
            cholesky_factorize(bp)  # raises if not PD
    print(
        f"criterion 2: PASS - secant+PD, {len(families)} families x 1000, "
        f"worst residual {worst:.2e}"
    )


def test_criterion_03_determinant_equation():
    n = 5
    grid = np.logspace(-6.0, 6.0, 49)
    worst = 0.0
    for pot in (log_potential(), power_potential(0.12), bounded_potential(0.5)):
        for C in grid:
            z = float(np.exp(solve_det_equation(np.log(C), n - 1, pot)))
            res = abs(C * pot.nu(z) ** (n - 1) - z)
            worst = max(worst, res / max(z, 1.0))
            assert res <= 1e-12 * max(z, 1.0)
    gamma = 0.12
    pow_pot = power_potential(gamma)
    closed_worst = 0.0
    for C in grid:
        z = float(np.exp(solve_det_equation(np.log(C), n - 1, pow_pot)))
        z_closed = C ** (1.0 / (1.0 - (n - 1) * gamma))
        dev = abs(z - z_closed) / z_closed
        closed_worst = max(closed_worst, dev)
        assert dev <= 1e-12
    print(
        f"criterion 3: PASS - determinant equation, 3 potentials x 49 C values, "
        f"worst residual {worst:.2e}, closed form dev {closed_worst:.2e}"
    )


def test_criterion_04_variational_optimality():
    pots = (log_potential(), power_potential(0.2), bounded_potential(0.5))
    worst = 0.0
    for pot in pots:
        rng = np.random.default_rng(1004)
        for k in range(100):
            n = 2 + k % 2
            b = random_pd(rng, n)
            pair = random_pair(rng, n)
            closed = v_bfgs_update(b, pair, pot).matrix
            oracle = divergence_oracle(b, pot, pair=pair)
            dev = np.linalg.norm(closed - oracle, "fro") / np.linalg.norm(
                closed, "fro"
            )
            worst = max(worst, dev)
            assert dev <= 1e-6
    print(
        f"criterion 4: PASS - variational optimality, 3 potentials x 100, "
        f"worst rel dev {worst:.2e}"
    )


def manifold_point_near(bp, pair, rng, pot):
    # a second point on the secant manifold, PD by construction via a
    # shrinking tangent perturbation P D P, P = I - ss'/s's, D symmetric
    proj = np.eye(pair.n) - np.outer(pair.s, pair.s) / (pair.s @ pair.s)
    c = rng.standard_normal((pair.n, pair.n))
    step = proj @ (0.5 * (c + c.T)) @ proj
    t = 0.5
    for _ in range(60):
        cand = bp.matrix + t * step
        try:
            cholesky_factorize(cand)
            return cholesky_factorize(cand)
        except Exception:
            t *= 0.5
    raise AssertionError("could not build a PD point on the manifold")


def test_criterion_05_pythagorean_identities():
    # dense side: B' = v_bfgs_update is the theta_V projection onto the
    # secant manifold, so D(A,B) = D(A,B') + D(B',B) for A on the manifold
    worst = 0.0
    rng = np.random.default_rng(1005)
    for k in range(200):
        n = 3 + k % 4
        pot = BUILTINS[k % 3]
        b = random_pd(rng, n)
        pair = random_pair(rng, n)
        bp = v_bfgs_update(b, pair, pot)
        a = manifold_point_near(bp, pair, rng, pot)
        lhs = v_bregman_divergence(a, b, pot)
        rhs = v_bregman_divergence(a, bp, pot) + v_bregman_divergence(bp, b, pot)
        res = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        worst = max(worst, res)
        assert res <= 1e-8
    # sparse side: B* = theta_v_project_sparse against pattern-supported A
    rng = np.random.default_rng(1055)
    for k in range(200):
        n = 3 + k % 4
        pot = BUILTINS[k % 3]
        pattern = banded_pattern(n, 1) if k % 2 == 0 else arrow_pattern(n)
        tree = is_chordal(pattern)
        b = random_pd(rng, n)
        bstar = theta_v_project_sparse(b, tree, pot)
        c = rng.standard_normal((n, n))
        a = cholesky_factorize(pattern.restrict(c @ c.T + n * np.eye(n)))
        lhs = v_bregman_divergence(a, b, pot)
        rhs = v_bregman_divergence(a, bstar, pot) + v_bregman_divergence(
            bstar, b, pot
        )
        res = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        worst = max(worst, res)
        assert res <= 1e-8
    print(
        f"criterion 5: PASS - Pythagorean identities, 200 dense + 200 sparse, "
        f"worst rel residual {worst:.2e}"
    )


def seeded_det_transform(n, seed, det_target):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    d = np.linalg.det(M)
    M *= np.sign(d)
    return M * (abs(d) ** (-1.0 / n)) * det_target ** (1.0 / n)


def test_criterion_06_invariance():
    spec = get_problem("quadratic:20:3", seed=6)
    pot_strings = ("vbfgs:log", "vbfgs:power:gamma=0.2", "vbfgs:bounded:c=0.5")
    for fam_str in pot_strings:
        cfg = SolverConfig(UpdateFamily.from_string(fam_str), grad_tol=1e-10)
        for seed in range(10):
            T = seeded_det_transform(3, seed, 1.0)
            rep = invariance_check(
                spec.objective, spec.start, None, T, cfg, k_max=20, tol=1e-6
            )
            assert rep.invariant, (fam_str, seed, rep.x_dev, rep.b_dev)
    gl_cfg = SolverConfig(
        UpdateFamily.from_string("vbfgs:power:gamma=0.2"), grad_tol=1e-10
    )
    for det_t in (0.5, 2.0):
        for seed in range(3):
            T = seeded_det_transform(3, seed, det_t)
            rep = invariance_check(
                spec.objective, spec.start, None, T, gl_cfg, k_max=20, tol=1e-6
            )
            assert rep.invariant, (det_t, seed, rep.x_dev)
    bad_cfg = SolverConfig(
        UpdateFamily.from_string("vbfgs:bounded:c=0.5"), grad_tol=1e-10
    )
    T = seeded_det_transform(3, 0, 2.0)
    rep = invariance_check(
        spec.objective, spec.start, None, T, bad_cfg, k_max=20, tol=1e-6
    )
    assert not rep.invariant, (rep.x_dev, rep.b_dev)
    print(
        "criterion 6: PASS - SL(3) invariance for 3 builtins x 10 seeds, "
        "GL for power, bounded det=2 fails as required "
        f"(x_dev {rep.x_dev:.2e})"
    )


def test_criterion_07_sparse_algorithm2():
    # feasible n=3 tridiagonal instances with a non-degenerate manifold
    # intersection angle; a secant dominated by the path's middle vertex
    # keeps the hidden direction nearly orthogonal to the secant normals
    pattern = banded_pattern(3, 1)
    worst = 0.0
    for pot in (log_potential(), power_potential(-0.2)):
        family = SparseUpdateFamily(UpdateFamily("vbfgs", pot), pattern, 2, 50)
        rng = np.random.default_rng(1007)
        for _ in range(40):
            a = rng.standard_normal((3, 3))
            target = pattern.restrict(a @ a.T + 3 * np.eye(3))
            s = np.array([0.0, 1.0, 0.0]) + 0.05 * rng.standard_normal(3)
            pair = SecantPair(s, target @ s)
            res = sparse_update(PDMatrix.identity(3), pair, family)
            assert res.trace_kind == "to-limit"
            assert np.all(np.diff(res.trace) <= 1e-9)
            worst = max(worst, float(res.trace[-1]))
            assert res.trace[-1] <= 1e-8
    print(
        f"criterion 7: PASS - sparse algorithm 2, 2 potentials x 40 chains, "
        f"worst final divergence {worst:.2e}"
    )


def test_criterion_08_sparse_projection():
    rng = np.random.default_rng(1008)
    theta_worst = 0.0
    off_worst = 0.0
    for k in range(50):
        n = 3 + k % 6
        pattern = banded_pattern(n, 1) if k % 2 == 0 else arrow_pattern(n)
        tree = is_chordal(pattern)
        pot = BUILTINS[k % 3]
        b = random_pd(rng, n)
        bstar = theta_v_project_sparse(b, tree, pot)
        tb = theta_coordinate(b, pot)
        ts = theta_coordinate(bstar, pot)
        for (i, j) in zip(*np.nonzero(pattern.mask())):
            dev = abs(ts[i, j] - tb[i, j]) / max(abs(tb[i, j]), 1e-12)
            theta_worst = max(theta_worst, dev)
            assert ts[i, j] == pytest.approx(tb[i, j], rel=1e-9, abs=1e-12)
        off = pattern.off_pattern_magnitude(bstar.matrix)
        off_rel = off / np.linalg.norm(bstar.matrix, "fro")
        off_worst = max(off_worst, off_rel)
        assert off <= 1e-10 * np.linalg.norm(bstar.matrix, "fro")
        # max-determinant completion of the pattern data: moving any one
        # free entry never improves the determinant
        entries = pattern.restrict(b.matrix)
        _, inv_x = clique_factorize(entries, tree)
        x = cholesky_factorize(inv_x).inv()
        best = np.linalg.det(x)
        free = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not pattern.contains(i, j)
        ][:8]
        for (i, j) in free:
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            for t in np.linspace(-0.5, 0.5, 41):
                assert np.linalg.det(x + t * e) <= best * (1 + 1e-8)
    print(
        f"criterion 8: PASS - sparse projection, 50 instances, worst theta dev "
        f"{theta_worst:.2e}, worst off-pattern {off_worst:.2e}, grid search clean"
    )


def test_criterion_09_rosenbrock_end_to_end():
    spec = get_problem("rosenbrock")
    counts = {}
    for fam_str in (
        "bfgs",
        "dfp",
        "vbfgs:log",
        "vbfgs:power:gamma=0.1",
        "vbfgs:bounded:c=0.3",
    ):
        cfg = SolverConfig(
            UpdateFamily.from_string(fam_str), grad_tol=1e-6, max_iter=200
        )
        trace = minimize(spec.objective, spec.start, config=cfg)
        assert trace.status == "Converged", fam_str
        assert trace.final.grad_norm <= 1e-6
        assert np.abs(trace.final.x - np.array([1.0, 1.0])).max() <= 1e-5
        counts[fam_str] = trace.iterations
    detail = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"criterion 9: PASS - Rosenbrock end to end ({detail})")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    commands = (
        ["solve", "--problem", "quadratic:30:4", "--seed", "42"],
        ["solve", "--format", "json", "--seed", "42"],
        ["compare", "--families", "bfgs,vbfgs:log,dfp", "--seed", "42"],
        [
            "invariance", "--problem", "quadratic:10:3", "--family",
            "vbfgs:power:gamma=0.2", "--transform", "gl", "--format", "json",
            "--seed", "42",
        ],
        ["sparse-demo", "--T", "150", "--seed", "42"],
    )
    for idx, argv in enumerate(commands):
        fmt = "json" if "json" in argv else "csv"
        out = tmp_path / f"c{idx}.{fmt}"
        outs = []
        texts = []
        for _run in (0, 1):
            rc = run_command(argv + ["--out", str(out)])
            assert rc == 0, argv
            outs.append(out.read_bytes())
            texts.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
        assert texts[0] == texts[1], argv
    print("criterion 10: PASS - 5 CLI commands byte-identical across reruns")
