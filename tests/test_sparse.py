"""Chordal patterns, max-determinant completion, and sparse update chains."""

import itertools
import re

import numpy as np
import pytest

from bregmanqn import (
    CliqueBlockNotPD,
    InvalidParameter,
    NotChordal,
    PDMatrix,
    SecantPair,
    SparseUpdateFamily,
    SparsityPattern,
    UpdateFamily,
    arrow_pattern,
    banded_pattern,
    bfgs_update,
    clique_factorize,
    diagonal_pattern,
    full_pattern,
    invert_theta,
    is_chordal,
    load_pattern,
    log_potential,
    pattern_from_text,
    pattern_to_text,
    power_potential,
    bounded_potential,
    sparse_update,
    theta_v_project_sparse,
    theta_coordinate,
    v_bfgs_update,
    v_bregman_divergence,
)
from bregmanqn.testing import divergence_oracle, sparse_secant_oracle


def sparse_family(pattern, pot, algorithm, T):
    return SparseUpdateFamily(UpdateFamily("vbfgs", pot), pattern, algorithm, T)


def tridiag_entries(rng, n, diag=4.0):
    m = np.zeros((n, n))
    d = diag + rng.uniform(0, 1, n)
    o = rng.uniform(-1, 1, n - 1)
    m[np.arange(n), np.arange(n)] = d
    m[np.arange(n - 1), np.arange(1, n)] = o
    m[np.arange(1, n), np.arange(n - 1)] = o
    return m


# ---------------------------------------------------------------- patterns


def test_pattern_basics():
    p = SparsityPattern(4, [(0, 1), (1, 2), (2, 1)])
    assert p.edges == ((0, 1), (1, 2))
    assert p.contains(1, 0) and p.contains(2, 2)
    assert not p.contains(0, 3)
    assert p.neighbors(1) == [0, 2]
    assert not p.is_full
    assert full_pattern(3).is_full
    assert diagonal_pattern(5).edges == ()
    assert banded_pattern(4, 1).edges == ((0, 1), (1, 2), (2, 3))
    assert arrow_pattern(4).edges == ((0, 1), (0, 2), (0, 3))


def test_pattern_rejects_bad_edges():
    with pytest.raises(InvalidParameter):
        SparsityPattern(3, [(0, 3)])
    with pytest.raises(InvalidParameter):
        SparsityPattern(0, [])
    for n in (2.5, float("nan"), float("inf"), "3", True):
        with pytest.raises(InvalidParameter):
            SparsityPattern(n, [(0, 2)])
    assert SparsityPattern(np.int64(3), [(0, 2)]).n == 3
    # a non-integral index is refused, not truncated onto another entry
    # True used to stand for index 1 and add edge (1, 2)
    for bad in (2.7, -0.5, float("nan"), float("inf"), "1", True, False):
        with pytest.raises(InvalidParameter):
            SparsityPattern(3, [(0, bad)])
        with pytest.raises(InvalidParameter):
            SparsityPattern(3, [(bad, 0)])
    assert SparsityPattern(3, [(0, 2.0), (np.float64(1.0), np.int64(2))]).edges == (
        (0, 2),
        (1, 2),
    )
    # each of these raised TypeError or ValueError
    for edges, entry in ((5, "5"), ([5], "5"), ([(0, 1, 2)], r"\(0, 1, 2\)"),
                         ([(0, (1, 2))], r"got \(1, 2\)")):
        with pytest.raises(InvalidParameter, match=entry):
            SparsityPattern(3, edges)
    # self loops fold into the implied diagonal
    assert SparsityPattern(3, [(1, 1)]).edges == ()
    # the builders take the sizes SparsityPattern takes: a nan bandwidth
    # used to give the full pattern, 2.0 a TypeError from range
    # banded_pattern(True, 1) used to be a 1 x 1 pattern
    for bad in (2.5, float("nan"), float("inf"), 0, -1, "3", True, False):
        for build in (full_pattern, arrow_pattern, lambda n: banded_pattern(n, 1)):
            with pytest.raises(InvalidParameter):
                build(bad)
    for bad in (1.5, float("nan"), float("inf"), -1, "1", True, False):
        with pytest.raises(InvalidParameter):
            banded_pattern(5, bad)
    assert banded_pattern(5.0, 2.0) == banded_pattern(5, 2)
    assert full_pattern(3.0) == full_pattern(3)
    assert arrow_pattern(np.float64(3.0)) == arrow_pattern(3)
    assert banded_pattern(5, 0) == diagonal_pattern(5)


def test_pattern_restrict_and_off_pattern():
    rng = np.random.default_rng(0)
    p = banded_pattern(4, 1)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    r = p.restrict(a)
    assert r[0, 2] == 0.0 and r[0, 3] == 0.0
    assert r[0, 1] == a[0, 1]
    assert p.off_pattern_magnitude(r) == 0.0
    assert p.off_pattern_magnitude(a) == pytest.approx(
        max(abs(a[0, 2]), abs(a[0, 3]), abs(a[1, 3]))
    )


def test_pattern_restrict_and_off_pattern_check_the_shape():
    # a matrix of another shape raised numpy's broadcast ValueError
    p = banded_pattern(4, 1)
    for a in (np.ones((3, 3)), np.ones((4, 5)), np.ones(4)):
        message = re.escape(f"matrix must be a real array of shape (4, 4), got ndarray of shape {a.shape}")
        for method in (p.restrict, p.off_pattern_magnitude):
            with pytest.raises(InvalidParameter, match=message):
                method(a)


def test_pattern_text_round_trip(tmp_path):
    p = SparsityPattern(5, [(0, 1), (1, 3), (2, 4)])
    text = pattern_to_text(p)
    assert pattern_from_text(text) == p
    f = tmp_path / "pat.txt"
    f.write_text(text)
    assert load_pattern(str(f)) == p


def test_pattern_text_format():
    text = "# comment\n4\n1 2\n3 4\n"
    p = pattern_from_text(text)
    assert p.n == 4
    assert p.edges == ((0, 1), (2, 3))
    for bad in ("", "0\n", "3\n1 5\n", "2\nx y\n", "2\n1\n", "x\n1 2\n"):
        with pytest.raises(InvalidParameter):
            pattern_from_text(bad)


# --------------------------------------------------------------- chordality


def test_tridiagonal_is_chordal():
    tree = is_chordal(banded_pattern(5, 1))
    assert tree.cliques == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert tree.parent == [None, 0, 1, 2]
    # running intersection: separators are single shared vertices
    assert tree.separators[1:] == [(1,), (2,), (3,)]


def test_full_and_diagonal_are_chordal():
    t = is_chordal(full_pattern(4))
    assert t.cliques == [(0, 1, 2, 3)]
    t = is_chordal(diagonal_pattern(3))
    assert t.cliques == [(0,), (1,), (2,)]


def test_arrow_and_band2_are_chordal():
    is_chordal(arrow_pattern(6))
    is_chordal(banded_pattern(8, 2))


def assert_chordless_cycle(p, cyc):
    # the witness is a cycle in the pattern with no chord
    k = len(cyc)
    assert k >= 4 and len(set(cyc)) == k
    for i in range(k):
        assert p.contains(cyc[i], cyc[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) != (0, k - 1):
                assert not p.contains(cyc[i], cyc[j])


def test_four_cycle_is_not_chordal():
    p = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotChordal) as ex:
        is_chordal(p)
    assert_chordless_cycle(p, ex.value.cycle)


def test_larger_hole_witness():
    # 6-cycle plus pendant edges; MCS must surface a chordless cycle
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 6), (3, 7)]
    p = SparsityPattern(8, edges)
    with pytest.raises(NotChordal) as ex:
        is_chordal(p)
    assert_chordless_cycle(p, ex.value.cycle)


def random_dense_pattern(rng, n):
    density = rng.uniform(0.15, 0.75)
    pairs = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(pairs)) < density
    return SparsityPattern(n, [pair for pair, k in zip(pairs, keep) if k])


def brute_force_maximal_cliques(p):
    cliques = [
        c
        for c in itertools.chain.from_iterable(
            itertools.combinations(range(p.n), k) for k in range(1, p.n + 1)
        )
        if all(p.contains(i, j) for i, j in itertools.combinations(c, 2))
    ]
    return sorted(c for c in cliques if not any(set(c) < set(d) for d in cliques))


def assert_clique_tree(p, tree):
    assert sorted(tree.cliques) == brute_force_maximal_cliques(p)
    covered = set()
    for r, clique in enumerate(tree.cliques):
        assert list(clique) == sorted(clique)
        sep = set(tree.separators[r])
        # running intersection: the separator is all the clique shares
        # with earlier cliques, and it lies in the parent clique
        assert sep == set(clique) & covered
        if tree.parent[r] is None:
            assert not sep
        else:
            assert sep and tree.parent[r] < r
            assert sep <= set(tree.cliques[tree.parent[r]])
        covered |= set(clique)


def test_random_patterns_give_a_tree_or_a_chordless_cycle():
    # every failed check must produce a witness from its one search
    rng = np.random.default_rng(17)
    outcomes = {"tree": 0, "cycle": 0}
    for _ in range(500):
        p = random_dense_pattern(rng, int(rng.integers(4, 13)))
        try:
            tree = is_chordal(p)
        except NotChordal as ex:
            assert_chordless_cycle(p, ex.cycle)
            outcomes["cycle"] += 1
        else:
            assert_clique_tree(p, tree)
            outcomes["tree"] += 1
    assert min(outcomes.values()) > 50


def test_chordal_random_interval_graphs():
    # interval graphs are chordal by construction
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        starts = rng.uniform(0, 1, n)
        ends = starts + rng.uniform(0.05, 0.5, n)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if starts[j] < ends[i] and starts[i] < ends[j]
        ]
        p = SparsityPattern(n, edges)
        assert_clique_tree(p, is_chordal(p))


def random_fill_pattern(rng, n):
    # the fill graph of an elimination order is chordal: eliminating a
    # vertex joins all of its neighbors not yet eliminated
    density = rng.uniform(0.05, 0.5)
    adj = [set() for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.uniform() < density:
            adj[i].add(j)
            adj[j].add(i)
    remaining = set(range(n))
    for v in rng.permutation(n):
        remaining.discard(int(v))
        for a, b in itertools.combinations(sorted(adj[v] & remaining), 2):
            adj[a].add(b)
            adj[b].add(a)
    return SparsityPattern(n, [(i, j) for i in range(n) for j in adj[i] if i < j])


def test_clique_tree_of_random_fill_graphs():
    # sparse draws give disconnected patterns, n = 1 a single vertex
    rng = np.random.default_rng(4)
    seen_disconnected = seen_single = False
    for _ in range(300):
        p = random_fill_pattern(rng, int(rng.integers(1, 10)))
        tree = is_chordal(p)
        assert_clique_tree(p, tree)
        seen_single |= p.n == 1
        seen_disconnected |= tree.parent.count(None) > 1
    assert seen_single and seen_disconnected


def test_clique_tree_satisfies_rip():
    patterns = [arrow_pattern(6), diagonal_pattern(4), full_pattern(3)]
    patterns += [banded_pattern(n, 2) for n in range(5, 10)]
    # disconnected: a path, an isolated vertex, a triangle, two joined triangles
    patterns.append(SparsityPattern(
        11, [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9), (8, 10), (9, 10)]
    ))
    for p in patterns:
        assert_clique_tree(p, is_chordal(p))


# --------------------------------------------------------------- completion


def test_completion_small_oracle():
    # fill X13 of [[2,1,.],[1,2,1],[.,1,2]]: max det at the product through
    # the separator, X13 = 0.5, det = 4.5, and the inverse has a zero there
    entries = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    pattern = banded_pattern(3, 1)
    tree = is_chordal(pattern)
    log_det, k = clique_factorize(entries, tree)
    x = PDMatrix.from_matrix(k).inv()
    assert x[0, 2] == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.det(x) == pytest.approx(4.5, rel=1e-12)
    assert np.exp(log_det) == pytest.approx(4.5, rel=1e-12)
    assert abs(k[0, 2]) < 1e-14
    assert np.abs(k @ x - np.eye(3)).max() < 1e-12


def test_completion_beats_grid_search():
    rng = np.random.default_rng(3)
    for _ in range(10):
        entries = tridiag_entries(rng, 4)
        pattern = banded_pattern(4, 1)
        tree = is_chordal(pattern)
        _, k = clique_factorize(entries, tree)
        x = PDMatrix.from_matrix(k).inv()
        best = np.linalg.det(x)
        for (i, j) in [(0, 2), (0, 3), (1, 3)]:
            e = np.zeros((4, 4))
            e[i, j] = e[j, i] = 1.0
            for t in np.linspace(-0.5, 0.5, 81):
                cand = np.linalg.det(x + t * e)
                assert cand <= best * (1 + 1e-8)


def test_factorize_rejects_non_pd_clique():
    entries = np.array([[1.0, 5.0, 0.0], [5.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tree = is_chordal(banded_pattern(3, 1))
    with pytest.raises(CliqueBlockNotPD):
        clique_factorize(entries, tree)


# no separators: three disjoint cliques of sizes 3, 2 and 3
MIXED_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (5, 7), (6, 7)]


def _factorize_by_hand(entries, tree):
    """The maximum-determinant completion one block at a time: each block
    factored and inverted alone, the cliques summed in order, then the
    separators, then the difference."""
    sums = []
    for blocks in (tree.cliques, [b for b in tree.separators if b]):
        ld, K = 0.0, np.zeros(entries.shape)
        for b in blocks:
            block = entries[np.ix_(b, b)]
            ld += 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(block))))
            K[np.ix_(b, b)] += np.linalg.inv(block)
        sums.append((ld, K))
    (ld_c, K_c), (ld_s, K_s) = sums
    K = K_c - K_s
    return ld_c - ld_s, 0.5 * (K + K.T)


@pytest.mark.parametrize("pattern", [
    banded_pattern(12, 1), banded_pattern(12, 2), arrow_pattern(12),
    SparsityPattern(8, MIXED_EDGES),
], ids=["band-1", "band-2", "arrow", "mixed"])
def test_clique_factorize_is_the_clique_sum_minus_the_separator_sum(pattern):
    # bit for bit: the stacks change how the blocks are computed, not what
    # is summed or in which order
    n = pattern.n
    a = np.random.default_rng(11).standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    entries = pattern.restrict(0.5 * (m + m.T))
    tree = is_chordal(pattern)
    log_det, k = clique_factorize(entries, tree)
    ref_log_det, ref_k = _factorize_by_hand(entries, tree)
    assert log_det == ref_log_det
    assert np.array_equal(k, ref_k)


def test_factorize_rejects_nan_entry_and_names_first_failing_clique():
    tree = is_chordal(banded_pattern(5, 1))
    entries = tridiag_entries(np.random.default_rng(2), 5)
    entries[2, 3] = entries[3, 2] = np.nan
    with pytest.raises(CliqueBlockNotPD, match=r"\(2, 3\)"):
        clique_factorize(entries, tree)
    # cliques (0, 1, 2), (3, 4), (5, 6, 7): the blocks are stacked by size,
    # and the failure named is still the first in list order; the cliques
    # are checked before the separators
    tree = is_chordal(SparsityPattern(8, MIXED_EDGES))
    assert tree.cliques == [(0, 1, 2), (3, 4), (5, 6, 7)]
    entries = np.eye(8)
    entries[3, 4] = entries[4, 3] = entries[5, 6] = entries[6, 5] = 2.0
    with pytest.raises(CliqueBlockNotPD, match=r"\(3, 4\)"):
        clique_factorize(entries, tree)


def test_completion_respects_given_entries():
    rng = np.random.default_rng(5)
    pattern = arrow_pattern(6)
    tree = is_chordal(pattern)
    a = rng.standard_normal((6, 6))
    entries = pattern.restrict(a @ a.T + 6 * np.eye(6))
    _, k = clique_factorize(entries, tree)
    x = PDMatrix.from_matrix(k).inv()
    for (i, j) in pattern.pairs:
        assert x[i, j] == pytest.approx(entries[i, j], rel=1e-10, abs=1e-10)
    assert pattern.off_pattern_magnitude(k) < 1e-12


# --------------------------------------------------------------- projection


def test_projection_full_pattern_is_identity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4))
    b = PDMatrix.from_matrix(a @ a.T + 4 * np.eye(4))
    pattern = full_pattern(4)
    tree = is_chordal(pattern)
    for pot in (log_potential(), power_potential(0.2)):
        out = theta_v_project_sparse(b, tree, pot)
        assert np.abs(out.matrix - b.matrix).max() < 1e-10 * np.abs(b.matrix).max()


def test_projection_diagonal_log_closed_form():
    # log potential, diagonal pattern: B*_ii = 1 / (B^{-1})_ii
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    b = PDMatrix.from_matrix(a @ a.T + 5 * np.eye(5))
    pattern = diagonal_pattern(5)
    tree = is_chordal(pattern)
    out = theta_v_project_sparse(b, tree, log_potential())
    expect = np.diag(1.0 / np.diag(np.linalg.inv(b.matrix)))
    assert np.abs(out.matrix - expect).max() < 1e-12 * np.abs(expect).max()


def test_projection_theta_match_and_membership():
    rng = np.random.default_rng(8)
    # gamma must stay below 1/n for every drawn n, here up to 6
    pots = (log_potential(), power_potential(0.12), bounded_potential(0.5))
    for pot in pots:
        for _ in range(20):
            n = int(rng.integers(3, 7))
            pattern = banded_pattern(n, 1)
            tree = is_chordal(pattern)
            a = rng.standard_normal((n, n))
            b = PDMatrix.from_matrix(a @ a.T + n * np.eye(n))
            out = theta_v_project_sparse(b, tree, pot)
            assert pattern.off_pattern_magnitude(out.matrix) < 1e-10 * np.abs(
                out.matrix
            ).max()
            tb = theta_coordinate(b, pot)
            to = theta_coordinate(out, pot)
            for (i, j) in pattern.pairs:
                assert to[i, j] == pytest.approx(tb[i, j], rel=1e-9, abs=1e-12)


def test_projection_agrees_with_numeric_oracle():
    rng = np.random.default_rng(9)
    for pot in (log_potential(), power_potential(0.2), bounded_potential(0.5)):
        for _ in range(4):
            n = 3
            pattern = banded_pattern(n, 1)
            tree = is_chordal(pattern)
            a = rng.standard_normal((n, n))
            b = PDMatrix.from_matrix(a @ a.T + n * np.eye(n))
            closed = theta_v_project_sparse(b, tree, pot)
            numeric = divergence_oracle(b, pot, pattern)
            dev = np.abs(closed.matrix - numeric).max()
            assert dev < 1e-6 * np.abs(closed.matrix).max()


def test_projection_pythagoras():
    # D(A, B) = D(A, B*) + D(B*, B) for every A on the pattern
    rng = np.random.default_rng(10)
    for pot in (log_potential(), power_potential(-0.3)):
        for _ in range(25):
            n = int(rng.integers(3, 6))
            pattern = banded_pattern(n, 1)
            tree = is_chordal(pattern)
            a = rng.standard_normal((n, n))
            b = PDMatrix.from_matrix(a @ a.T + n * np.eye(n))
            bstar = theta_v_project_sparse(b, tree, pot)
            c = rng.standard_normal((n, n))
            other = PDMatrix.from_matrix(
                pattern.restrict(c @ c.T + n * np.eye(n))
            )
            lhs = v_bregman_divergence(other, b, pot)
            rhs = v_bregman_divergence(other, bstar, pot) + v_bregman_divergence(
                bstar, b, pot
            )
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("log_det", [936.0, -906.0])
def test_theta_maps_beyond_exp_range(log_det):
    # det(-theta) = nu(z)^n / z has its root at |log z| > 700, far outside
    # exp's range; inversion and projection still hold
    n = 400
    rng = np.random.default_rng(17)
    pot = bounded_potential(0.5)
    a = rng.standard_normal((n, n))
    m = np.eye(n) + 0.3 * (a @ a.T) / n
    m *= np.exp((log_det - np.linalg.slogdet(m)[1]) / n)
    b = PDMatrix.from_matrix(m)
    assert b.logdet == pytest.approx(log_det, abs=1e-6)

    back = invert_theta(theta_coordinate(b, pot), pot)
    assert np.abs(back.matrix - m).max() < 1e-9 * np.abs(m).max()

    pattern = banded_pattern(n, 2)
    out = theta_v_project_sparse(b, is_chordal(pattern), pot)
    assert pattern.off_pattern_magnitude(out.matrix) < 1e-10 * np.abs(out.matrix).max()
    tb = pattern.restrict(theta_coordinate(b, pot))
    to = pattern.restrict(theta_coordinate(out, pot))
    assert np.abs(to - tb).max() < 1e-9 * np.abs(tb).max()


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_projection_where_theta_leaves_the_float_range(scale):
    # for nu = z^-0.25 at n = 8, nu(det Bbar) Bbar^{-1} is about 1e-450 or
    # 1e450; Bbar is on the band already, so it is its own projection
    n = 8
    bbar = PDMatrix(np.sqrt(scale) * np.eye(n))
    out = theta_v_project_sparse(bbar, is_chordal(banded_pattern(n, 1)), power_potential(-0.25))
    assert np.abs(out.matrix - scale * np.eye(n)).max() <= 1e-12 * scale


def test_log_projection_is_the_theta_formula_bit_for_bit():
    # nu == 1: completing P_F(Bbar^{-1}) is completing P_F(-theta(Bbar))
    rng = np.random.default_rng(21)
    n = 12
    a = rng.standard_normal((n, n))
    bbar = PDMatrix.from_matrix(a @ a.T + n * np.eye(n))
    pot = log_potential()
    for pattern in (banded_pattern(n, 2), arrow_pattern(n)):
        tree = is_chordal(pattern)
        expect = PDMatrix.from_matrix(clique_factorize(-theta_coordinate(bbar, pot), tree)[1])
        assert np.array_equal(theta_v_project_sparse(bbar, tree, pot).L, expect.L)


# ------------------------------------------------------------ update chains


def feasible_instance(rng, n, pattern):
    a = rng.standard_normal((n, n))
    target = pattern.restrict(a @ a.T + n * np.eye(n))
    s = rng.standard_normal(n)
    y = target @ s
    return SecantPair(s, y)


def well_angled_instance(rng, pattern):
    # A generic secant can make the two constraint manifolds meet at an
    # arbitrarily shallow angle, and the chain's linear rate degrades with
    # it.  A secant dominated by the middle vertex of the n=3 path keeps
    # the off-pattern direction nearly orthogonal to the secant normal
    # space, so fifty rounds are plenty.
    a = rng.standard_normal((3, 3))
    target = pattern.restrict(a @ a.T + 3 * np.eye(3))
    s = np.array([0.0, 1.0, 0.0]) + 0.1 * rng.standard_normal(3)
    y = target @ s
    return SecantPair(s, y)


def test_sparse_update_algorithm2_chain():
    rng = np.random.default_rng(11)
    pattern = banded_pattern(3, 1)
    for pot in (log_potential(), power_potential(-0.2)):
        family = sparse_family(pattern, pot, algorithm=2, T=50)
        for _ in range(5):
            pair = well_angled_instance(rng, pattern)
            b0 = PDMatrix.identity(3)
            res = sparse_update(b0, pair, family)
            assert res.trace_kind == "to-limit"
            assert res.bstar is not None
            diffs = np.diff(res.trace)
            assert np.all(diffs <= 1e-9)
            assert res.trace[-1] <= 1e-8
            # output satisfies the secant condition and lives on the pattern
            assert np.abs(res.b_out.matrix @ pair.s - pair.y).max() < 1e-6 * (
                1 + np.abs(pair.y).max()
            )
            assert pattern.off_pattern_magnitude(res.b_out.matrix) < 1e-9


def test_sparse_update_algorithm2_monotone_generic():
    # the distance to the limit is non-increasing for any feasible secant,
    # however slow the instance
    rng = np.random.default_rng(21)
    pattern = banded_pattern(3, 1)
    for pot in (log_potential(), power_potential(-0.2)):
        family = sparse_family(pattern, pot, algorithm=2, T=30)
        for _ in range(6):
            pair = feasible_instance(rng, 3, pattern)
            res = sparse_update(PDMatrix.identity(3), pair, family)
            assert res.trace_kind == "to-limit"
            assert np.all(np.diff(res.trace) <= 1e-9)


def test_sparse_update_algorithm1_log_monotone():
    rng = np.random.default_rng(12)
    pattern = banded_pattern(4, 1)
    family = sparse_family(pattern, log_potential(), algorithm=1, T=40)
    for _ in range(5):
        pair = feasible_instance(rng, 4, pattern)
        res = sparse_update(PDMatrix.identity(4), pair, family)
        assert res.trace_kind == "eta-gap"
        assert np.all(np.diff(res.trace) <= 1e-9)


def test_sparse_update_full_pattern_single_step_is_bfgs():
    rng = np.random.default_rng(13)
    pattern = full_pattern(4)
    a = rng.standard_normal((4, 4))
    b = PDMatrix.from_matrix(a @ a.T + 4 * np.eye(4))
    s = rng.standard_normal(4)
    y = rng.standard_normal(4)
    if s @ y <= 0:
        y = -y
    pair = SecantPair(s, y)
    res = sparse_update(b, pair, sparse_family(pattern, log_potential(), algorithm=2, T=1))
    ref = bfgs_update(b, pair)
    assert np.abs(res.b_out.matrix - ref.matrix).max() < 1e-10 * np.abs(
        ref.matrix
    ).max()


def test_sparse_update_infeasible_falls_back_to_successive():
    # diagonal pattern cannot reproduce y with mixed support from this s
    family = sparse_family(diagonal_pattern(3), log_potential(), algorithm=2, T=30)
    s = np.array([0.0, 1.0, 1.0])
    y = np.array([1.0, 1.0, 2.0])
    res = sparse_update(PDMatrix.identity(3), SecantPair(s, y), family)
    assert res.trace_kind == "successive"
    assert res.bstar is None


def test_sparse_update_larger_n_successive():
    rng = np.random.default_rng(14)
    pattern = banded_pattern(6, 1)
    pair = feasible_instance(rng, 6, pattern)
    family = sparse_family(pattern, log_potential(), algorithm=2, T=250)
    res = sparse_update(PDMatrix.identity(6), pair, family)
    assert res.trace_kind == "successive"
    assert res.trace[-1] <= 1e-9
    assert np.all(np.diff(res.trace) <= 1e-9)


def test_sparse_update_trace_is_the_chain_rebuilt_by_hand():
    # pins each trace rule bit for bit, with its length: T for eta-gap and
    # successive, T + 1 for to-limit; algorithm 1's secant point is dense
    # dfp's step
    rng = np.random.default_rng(17)
    pot, T, dfp = power_potential(-0.2), 5, UpdateFamily("dfp")
    for n, algorithm, kind in ((4, 1, "eta-gap"), (4, 2, "to-limit"), (6, 2, "successive")):
        pattern = banded_pattern(n, 1)
        pair = feasible_instance(rng, n, pattern)
        family = sparse_family(pattern, pot, algorithm, T)
        res = sparse_update(PDMatrix.identity(n), pair, family)
        chain, bars = [PDMatrix.identity(n)], []
        for _ in range(T):
            cur = chain[-1]
            bars.append(dfp.apply(cur, pair) if algorithm == 1 else v_bfgs_update(cur, pair, pot))
            chain.append(theta_v_project_sparse(bars[-1], family.tree, pot))
        if kind == "eta-gap":
            want = [v_bregman_divergence(b, bar, pot) for b, bar in zip(chain, bars)]
        elif kind == "to-limit":
            bstar = sparse_secant_oracle(chain[0], pair, pattern, pot)
            want = [v_bregman_divergence(bstar, b, pot) for b in chain]
        else:
            want = [v_bregman_divergence(b1, b0, pot) for b0, b1 in zip(chain, chain[1:])]
        assert res.trace_kind == kind
        assert len(want) == T + (kind == "to-limit")
        assert res.trace.tolist() == want
        assert np.array_equal(res.b_out.L, chain[-1].L)


def test_sparse_update_validates_inputs():
    pattern = banded_pattern(3, 1)
    pair = SecantPair(np.ones(3), np.ones(3))
    # algorithm and T are checked once, by the family
    for algorithm, T in ((3, 5), (1, 0), (1, 1.5)):
        with pytest.raises(InvalidParameter):
            sparse_family(pattern, log_potential(), algorithm, T)
    off = PDMatrix.from_matrix(np.eye(3) + 0.5 * np.ones((3, 3)))
    with pytest.raises(InvalidParameter):
        sparse_update(
            off, pair, sparse_family(SparsityPattern(3, [(0, 1)]), log_potential(), 1, 5)
        )


def test_sparse_secant_oracle_matches_limit():
    rng = np.random.default_rng(15)
    pattern = banded_pattern(3, 1)
    pair = feasible_instance(rng, 3, pattern)
    b = PDMatrix.identity(3)
    bstar = sparse_secant_oracle(b, pair, pattern, log_potential())
    assert np.abs(bstar.matrix @ pair.s - pair.y).max() < 1e-7
    assert pattern.off_pattern_magnitude(bstar.matrix) < 1e-9
    res = sparse_update(b, pair, sparse_family(pattern, log_potential(), algorithm=2, T=120))
    dev = np.abs(res.b_out.matrix - bstar.matrix).max()
    assert dev < 1e-5 * np.abs(bstar.matrix).max()


def test_scales_to_medium_n():
    # a few hundred vertices stays well inside the time budget
    rng = np.random.default_rng(16)
    n = 200
    pattern = banded_pattern(n, 1)
    pair = feasible_instance(rng, n, pattern)
    family = sparse_family(pattern, log_potential(), algorithm=2, T=3)
    res = sparse_update(PDMatrix.identity(n), pair, family)
    assert res.trace.shape == (3,)
    assert pattern.off_pattern_magnitude(res.b_out.matrix) < 1e-8
