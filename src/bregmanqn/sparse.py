"""Sparse quasi-Newton updates on chordal sparsity patterns.

A chordality test that builds the clique tree in one maximum
cardinality search or returns a chordless-cycle witness, the
maximum-determinant completion assembled block by block over that tree,
projection of a dense update onto the sparse submanifold, the two
alternating projection schemes built from these pieces, and the update
family that holds their checked configuration and through which the
solver runs them.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    CliqueBlockNotPD,
    InvalidParameter,
    NotChordal,
    NotPositiveDefinite,
    OracleNoConvergence,
    require_count,
)
from .pdlinalg import CholeskyFactor, PDMatrix, as_symmetric, cholesky_factorize
from .potentials import log_potential
from .geometry import (
    _as_pd,
    _from_neg_theta,
    theta_coordinate,
    trace_inner,
    v_bregman_divergence,
)
from .updates import (
    _require_pair_length,
    SecantPair,
    dfp_update,
    minimize_divergence_affine,
    v_bfgs_update,
)

__all__ = [
    "SparsityPattern",
    "CliqueTree",
    "SparseUpdateResult",
    "full_pattern",
    "diagonal_pattern",
    "banded_pattern",
    "arrow_pattern",
    "pattern_from_text",
    "pattern_to_text",
    "load_pattern",
    "is_chordal",
    "clique_factorize",
    "theta_v_project_sparse",
    "sparse_projection_oracle",
    "sparse_secant_oracle",
    "sparse_update",
    "SparseUpdateFamily",
]


class SparsityPattern:
    """Symmetric index set F on an n x n matrix; the diagonal is always in."""

    def __init__(self, n, edges=()):
        self.n = _require_size("pattern dimension", n, 1)
        cleaned = set()
        for i, j in edges:
            # negated so that nan fails too; 2.0 is taken as 2, 2.7 is not
            if not all(v % 1 == 0 and 0 <= v < self.n for v in (i, j)):
                raise InvalidParameter(
                    f"pattern index ({i!r}, {j!r}) is not an integer in [0, {self.n})"
                )
            i, j = int(i), int(j)
            if i == j:
                continue  # diagonal is implied
            cleaned.add((min(i, j), max(i, j)))
        self.edges = tuple(sorted(cleaned))
        self._adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            self._adj[i].add(j)
            self._adj[j].add(i)

    @property
    def pairs(self):
        """Full symmetric pair set including the diagonal."""
        out = {(i, i) for i in range(self.n)}
        for i, j in self.edges:
            out.add((i, j))
            out.add((j, i))
        return frozenset(out)

    def neighbors(self, i):
        return sorted(self._adj[i])

    def contains(self, i, j):
        return i == j or j in self._adj[i]

    @property
    def is_full(self):
        return len(self.edges) == self.n * (self.n - 1) // 2

    def mask(self):
        m = np.eye(self.n, dtype=bool)
        for i, j in self.edges:
            m[i, j] = m[j, i] = True
        return m

    def restrict(self, matrix):
        """Zero the entries outside the pattern."""
        a = np.asarray(matrix, dtype=float)
        return np.where(self.mask(), a, 0.0)

    def off_pattern_magnitude(self, matrix):
        a = np.asarray(matrix, dtype=float)
        off = np.where(self.mask(), 0.0, a)
        return float(np.abs(off).max()) if self.n > 1 else 0.0

    def __eq__(self, other):
        return (
            isinstance(other, SparsityPattern)
            and other.n == self.n
            and other.edges == self.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SparsityPattern(n={self.n}, edges={len(self.edges)})"


def _require_size(name, value, low):
    """value as an int; InvalidParameter unless it is an integer >= low."""
    # negated so that nan and inf fail too; 2.0 is taken as 2, 2.7 is not
    if not (value % 1 == 0 and value >= low):
        raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def full_pattern(n):
    n = _require_size("pattern dimension", n, 1)
    return SparsityPattern(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diagonal_pattern(n):
    return SparsityPattern(n)


def banded_pattern(n, bandwidth):
    """Band |i - j| <= bandwidth; bandwidth 1 is tridiagonal."""
    n = _require_size("pattern dimension", n, 1)
    bandwidth = _require_size("bandwidth", bandwidth, 0)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, min(n, i + bandwidth + 1))
    ]
    return SparsityPattern(n, edges)


def arrow_pattern(n):
    """Dense first row/column plus the diagonal."""
    n = _require_size("pattern dimension", n, 1)
    return SparsityPattern(n, [(0, j) for j in range(1, n)])


def pattern_from_text(text):
    """Parse the pattern file format.

    First non-blank line is n; each following line is "i j" with 1-based
    indices in the upper triangle.  The diagonal is implied and lines
    starting with '#' are skipped.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise InvalidParameter("empty pattern text")
    try:
        n = int(lines[0])
    except ValueError:
        raise InvalidParameter(f"first pattern line must be the dimension, got {lines[0]!r}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParameter(f"pattern line must be 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidParameter(f"pattern indices must be integers, got {ln!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidParameter(f"pattern entry ({i}, {j}) out of range for n={n}")
        edges.append((i - 1, j - 1))
    return SparsityPattern(n, edges)


def pattern_to_text(pattern):
    lines = [str(pattern.n)]
    lines += [f"{i + 1} {j + 1}" for i, j in pattern.edges]
    return "\n".join(lines) + "\n"


def load_pattern(path):
    with open(path, "r", encoding="utf-8") as fh:
        return pattern_from_text(fh.read())


# ---------------------------------------------------------------------------
# chordality and clique trees


def _witness_cycle(pattern, v, u, w):
    """Chordless cycle through v given non-adjacent neighbors u, w visited before it."""

    def bfs_avoiding(a, b, banned):
        prev = {a: None}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            if x == b:
                path = [b]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            for y in pattern.neighbors(x):
                if y not in prev and y not in banned:
                    prev[y] = x
                    queue.append(y)
        return None

    banned = (set(pattern._adj[v]) | {v}) - {u, w}
    path = bfs_avoiding(u, w, banned)
    if path is not None:
        return [v] + path
    # The primary triple gave no path; scan all triples.  A non-chordal
    # graph always yields one this way: take any chordless cycle and
    # pick three consecutive vertices on it.
    for vv in range(pattern.n):
        nb = pattern.neighbors(vv)
        for ai in range(len(nb)):
            for bi in range(ai + 1, len(nb)):
                a, b = nb[ai], nb[bi]
                if pattern.contains(a, b):
                    continue
                banned = (set(pattern._adj[vv]) | {vv}) - {a, b}
                path = bfs_avoiding(a, b, banned)
                if path is not None:
                    return [vv] + path
    return None


@dataclass
class CliqueTree:
    """Clique forest of a chordal pattern in running-intersection order.

    cliques[r] is a sorted tuple of vertices; intersected with the union
    of all earlier cliques it equals separators[r], which is contained in
    cliques[parent[r]] (empty for a root, whose parent is None).
    """

    pattern: SparsityPattern
    cliques: list
    parent: list
    separators: list


def is_chordal(pattern):
    """Return the clique tree of a chordal pattern.

    One maximum cardinality search, ties broken toward the lowest index,
    builds the tree as it visits (Blair & Peyton, An introduction to
    chordal graphs and clique trees, 1993).  The reversed visit order is
    a perfect elimination ordering exactly when every visited neighbor of
    each vertex is adjacent to its latest-visited one; raises NotChordal
    with a chordless cycle witness otherwise.  A vertex whose count of
    visited neighbors did not grow opens a new clique, whose separator is
    those visited neighbors and whose parent is the clique of the latest
    of them; any other vertex joins the newest clique.  The cliques come
    out in running-intersection order.
    """
    n = pattern.n
    weights = [0] * n  # visited neighbors of each vertex
    visit_step = [None] * n
    clique_of = [None] * n
    cliques, parents, separators = [], [], []
    last_weight = 0
    for step in range(n):
        v = max(
            (i for i in range(n) if visit_step[i] is None),
            key=lambda i: (weights[i], -i),
        )
        earlier = [u for u in pattern.neighbors(v) if visit_step[u] is not None]
        if earlier:
            u = max(earlier, key=lambda x: visit_step[x])
            for w in earlier:
                if w != u and not pattern.contains(u, w):
                    cycle = _witness_cycle(pattern, v, u, w)
                    raise NotChordal(
                        f"pattern graph is not chordal; chordless cycle {cycle}",
                        cycle=cycle,
                    )
        if weights[v] <= last_weight:
            cliques.append(set(earlier))
            parents.append(clique_of[u] if earlier else None)
            separators.append(tuple(sorted(earlier)))
        cliques[-1].add(v)
        clique_of[v] = len(cliques) - 1
        last_weight = weights[v]
        visit_step[v] = step
        for x in pattern._adj[v]:
            weights[x] += 1
    return CliqueTree(pattern, [tuple(sorted(c)) for c in cliques], parents, separators)


# ---------------------------------------------------------------------------
# clique factorization of the maximum-determinant completion


def clique_factorize(entries, tree):
    """(log det X, X^{-1}) of the maximum-determinant PD completion X.

    entries is a dense symmetric array read only at pattern positions;
    every clique principal block must be PD, which is exactly the
    condition for a PD completion to exist on a chordal pattern.  X^{-1}
    is the sum over cliques of the inverse clique blocks minus the sum
    over separators of the inverse separator blocks, zero off-pattern,
    and log det X is the matching sum of block log-determinants
    (Vandenberghe & Andersen, Chordal Graphs and Semidefinite
    Optimization, 2015); one pass over the tree factors and inverts
    every block.
    """
    A = as_symmetric(entries)
    n = tree.pattern.n
    if A.shape != (n, n):
        raise InvalidParameter(f"entries shape {A.shape} does not match pattern n={n}")

    ld_cliques = ld_separators = 0
    K = np.zeros((n, n))
    for cl, sep in zip(tree.cliques, tree.separators):
        Acc = A[np.ix_(cl, cl)]
        try:
            ld_cliques += cholesky_factorize(Acc).log_det()
        except NotPositiveDefinite:
            raise CliqueBlockNotPD(f"clique {cl} principal block is not positive definite")
        K[np.ix_(cl, cl)] += np.linalg.inv(Acc)
        if sep:
            Ass = A[np.ix_(sep, sep)]
            ld_separators += cholesky_factorize(Ass).log_det()
            K[np.ix_(sep, sep)] -= np.linalg.inv(Ass)
    return float(ld_cliques - ld_separators), 0.5 * (K + K.T)


# ---------------------------------------------------------------------------
# projection onto the sparse submanifold


def theta_v_project_sparse(Bbar, tree, pot):
    """Project Bbar onto {B in PD : B zero off tree.pattern} along theta_V.

    The projection matches theta_V on the pattern, so it is theta_V^{-1}
    of -X, where X is the maximum-determinant completion of the pattern
    entries of -theta_V(Bbar), built through the clique tree:
    B* = nu(z*) X^{-1} with det X = nu(z*)^n / z*.
    """
    log_det_x, K = clique_factorize(-theta_coordinate(Bbar, pot), tree)
    return _from_neg_theta(log_det_x, K, pot)


def _pattern_basis(pattern):
    """Frobenius-orthonormal symmetric basis of the pattern subspace."""
    n = pattern.n
    mats = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        mats.append(E)
    for i, j in pattern.edges:
        E = np.zeros((n, n))
        E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
        mats.append(E)
    return mats


def _raise_lambda_min(base, basis, w):
    """Push base + sum w_k E_k strictly inside the PD cone if possible."""

    def assemble(wv):
        X = base.copy()
        for wk, Ek in zip(wv, basis):
            X += wk * Ek
        return X

    w = np.asarray(w, dtype=float).copy()
    for _ in range(300):
        X = assemble(w)
        lam, vecs = np.linalg.eigh(X)
        scale = 1.0 + float(np.abs(np.diag(X)).max())
        if lam[0] > 1e-6 * scale:
            return w
        if not basis:
            break
        v = vecs[:, 0]
        g = np.array([v @ (Ek @ v) for Ek in basis])
        gn = float(np.linalg.norm(g))
        if gn <= 1e-14:
            break
        t = scale / gn
        improved = False
        while t > 1e-14 * scale / gn:
            lam_new = np.linalg.eigvalsh(assemble(w + t * g))[0]
            if lam_new > lam[0]:
                w = w + t * g
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    raise OracleNoConvergence("no strictly positive definite point found on the constraint set")


def sparse_projection_oracle(Bbar, pattern, pot, grad_tol=1e-9, max_iter=500):
    """Minimize D_V(X, Bbar) over pattern-supported X directly; n <= 6.

    Independent check on theta_v_project_sparse: damped Newton over all
    pattern coefficients, no clique machinery involved.
    """
    Bbar = _as_pd(Bbar)
    if Bbar.n > 6:
        raise ValueError("sparse projection oracle is restricted to n <= 6")
    if pattern.n != Bbar.n:
        raise InvalidParameter("pattern dimension does not match the matrix")
    basis = _pattern_basis(pattern)
    base = np.zeros((Bbar.n, Bbar.n))
    restricted = pattern.restrict(Bbar.matrix)
    try:
        cholesky_factorize(restricted)
        u0 = np.array([trace_inner(restricted, E) for E in basis])
    except NotPositiveDefinite:
        # fall back to the diagonal part, which is always PD
        diag_only = np.diag(np.diag(Bbar.matrix))
        u0 = np.array([trace_inner(diag_only, E) for E in basis])
    return minimize_divergence_affine(Bbar, base, basis, u0, pot, grad_tol, max_iter)


def sparse_secant_oracle(B, pair, pattern, pot, grad_tol=1e-9, max_iter=500):
    """Minimize D_V(X, B) over pattern-supported X with Xs = y; n <= 6.

    Reference for the limit of the alternating projections.  The secant
    equation is solved on the pattern coefficients by least squares; a
    residual there means the pattern cannot carry the pair (some s_i = 0
    with all its neighbors' too) and the constraint set is empty.
    """
    B = _as_pd(B)
    n = B.n
    if n > 6:
        raise ValueError("sparse secant oracle is restricted to n <= 6")
    if pattern.n != n or pair.n != n:
        raise InvalidParameter("pattern/pair dimensions do not match the matrix")
    basis = _pattern_basis(pattern)
    dim = len(basis)
    G = np.column_stack([E @ pair.s for E in basis])  # (n, dim)
    u_p, *_ = np.linalg.lstsq(G, pair.y, rcond=None)
    if np.linalg.norm(G @ u_p - pair.y) > 1e-10 * (1.0 + np.linalg.norm(pair.y)):
        raise OracleNoConvergence("secant equation has no solution on the pattern")
    _, sv, vt = np.linalg.svd(G)
    rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
    null = vt[rank:].T  # (dim, dim - rank), orthonormal columns

    base = np.zeros((n, n))
    for um, Em in zip(u_p, basis):
        base += um * Em
    null_basis = []
    for k in range(null.shape[1]):
        Ek = np.zeros((n, n))
        for cm, Em in zip(null[:, k], basis):
            Ek += cm * Em
        null_basis.append(Ek)

    # Start from B projected onto the constraint set in coefficient space.
    u_b = np.array([trace_inner(B.matrix, E) for E in basis])
    w0 = null.T @ (u_b - u_p)
    X0 = base.copy()
    for wk, Ek in zip(w0, null_basis):
        X0 += wk * Ek
    try:
        cholesky_factorize(X0)
    except NotPositiveDefinite:
        w0 = _raise_lambda_min(base, null_basis, w0)
    return minimize_divergence_affine(B, base, null_basis, w0, pot, grad_tol, max_iter)


# ---------------------------------------------------------------------------
# alternating projections


@dataclass
class SparseUpdateResult:
    """Output of sparse_update.

    trace_kind says what the divergence sequence measures: "eta-gap" is
    D_V(B_t, Bbar_t) per iteration (algorithm 1), "to-limit" is
    D_V(B*, B_t) for t = 0..T against the oracle limit (algorithm 2,
    small n), "successive" is D_V(B_{t+1}, B_t) when no limit reference
    is available.
    """

    b_out: PDMatrix
    trace: np.ndarray
    trace_kind: str
    bstar: PDMatrix | None = None


def _require_on_pattern(B, pattern):
    """Raise InvalidParameter unless the PDMatrix B is supported on pattern."""
    if pattern.n != B.n:
        raise InvalidParameter("pattern dimension does not match the matrix")
    scale = float(np.abs(B.matrix).max())
    if pattern.off_pattern_magnitude(B.matrix) > 1e-8 * (1.0 + scale):
        raise InvalidParameter("B has entries outside the sparsity pattern")


def sparse_update(B, pair, family):
    """Alternate a secant-manifold update with the sparse projection.

    family is the SparseUpdateFamily that names the pattern, its clique
    tree, the potential, the algorithm and the number of rounds T.
    Algorithm 1 moves to the DFP point of the current iterate, algorithm
    2 to its theta_V-projection on the secant manifold (the V-BFGS
    point); both then project back onto the pattern.  One round is the
    plain sparse quasi-Newton update.
    """
    B = _as_pd(B)
    n = B.n
    _require_pair_length(B, pair)
    _require_on_pattern(B, family.pattern)
    pot, tree, algorithm = family.potential, family.tree, family.algorithm
    pot.require_admissible(n)

    bstar = None
    if algorithm == 2 and n <= 4:
        try:
            bstar = sparse_secant_oracle(B, pair, family.pattern, pot)
        except OracleNoConvergence:
            bstar = None  # constraint sets may not intersect; run the chain anyway

    trace = []
    cur = B
    for _ in range(family.T):
        if algorithm == 1:
            bar = dfp_update(cur, pair)
            trace.append(v_bregman_divergence(cur, bar, pot))
        else:
            bar = v_bfgs_update(cur, pair, pot)
            if bstar is not None:
                trace.append(v_bregman_divergence(bstar, cur, pot))
        nxt = theta_v_project_sparse(bar, tree, pot)
        if algorithm == 2 and bstar is None:
            trace.append(v_bregman_divergence(nxt, cur, pot))
        cur = nxt
    if algorithm == 1:
        kind = "eta-gap"
    elif bstar is not None:
        trace.append(v_bregman_divergence(bstar, cur, pot))
        kind = "to-limit"
    else:
        kind = "successive"
    return SparseUpdateResult(
        b_out=cur, trace=np.array(trace), trace_kind=kind, bstar=bstar
    )


class SparseUpdateFamily:
    """sparse_update on a chordal pattern, behind UpdateFamily's state protocol.

    Takes a bfgs or vbfgs family, bfgs meaning the log potential, and
    checks it, the pattern, algorithm (1 or 2) and T once, keeping the
    clique tree; sparse_update(B, pair, family) reads all of them from
    here.  The state is (B, unscaled); initial_state raises
    InvalidParameter for a B0 of the wrong dimension or off the pattern.

    The first applied update replaces B by theta B, theta = s'y / s'Bs,
    whatever B0 is (Oren & Luenberger 1974; Shanno & Phua 1978).  The
    theta-projection keeps P_F(B^-1) of the secant point, so the scale of
    an unscaled B0^-1 would stay in every later B and the line search
    would backtrack at most steps.  theta B stays on the pattern and
    theta is invariant under congruence.  At the determinants this
    gives, vbfgs:bounded:c=0.5 has the same iteration and evaluation
    counts as vbfgs:log on the benchmark's sparse-band cases.  Dense
    families are not scaled: their updates correct the scale within
    about n steps, and a one-time scaling can cost many steps (bfgs on
    quadratic:1000:20 from its catalog start at grad_tol 1e-6 takes 28
    without it, 115 with it).  The flag is in the state because one
    family serves every solve of its SolverConfig.

    B0 thus sets only the shape of B.  Until the first applied update
    (a skipped step leaves the state unscaled) the direction -B^-1 g is
    divided by its Euclidean norm: the unit first trial is a step of
    length one, not one scaled by B0, which the search would cut back
    at a cost of several f evaluations (L-BFGS takes 1/|g| as its first
    step, Liu & Nocedal 1989; L-BFGS-B 1/|d|, Byrd, Lu, Nocedal & Zhu
    1995).  theta B does not depend on the scale of B, so the first
    update is unaffected.  The length is Euclidean, so the first step is
    not invariant under a change of variables; the update, a function of
    B, s and y alone, is as invariant as before.
    """

    inverse = False

    def __init__(self, family, pattern, algorithm, T):
        if family.kind not in ("bfgs", "vbfgs"):
            raise InvalidParameter("sparse updates maintain B directly; use a bfgs or vbfgs family")
        if not isinstance(pattern, SparsityPattern):
            raise InvalidParameter(f"sparsity pattern must be a SparsityPattern, got {pattern!r}")
        if algorithm not in (1, 2):
            raise InvalidParameter(f"algorithm must be 1 or 2, got {algorithm!r}")
        require_count("T", T)
        self.pattern, self.algorithm, self.T = pattern, algorithm, T
        self.tree = is_chordal(pattern)
        self.potential = family.potential if family.potential is not None else log_potential()

    def initial_state(self, B0: PDMatrix):
        _require_on_pattern(B0, self.pattern)
        self.potential.require_admissible(B0.n)
        return B0, True

    def direction(self, state, gradient) -> np.ndarray:
        B, unscaled = state
        d = -B.solve(gradient)
        if unscaled:
            d /= np.linalg.norm(d)
        return d

    def apply(self, state, pair: SecantPair):
        B, unscaled = state
        if unscaled:
            Ls = B.factor.L.T @ pair.s
            theta = pair.curvature / float(Ls @ Ls)
            B = PDMatrix(CholeskyFactor(np.sqrt(theta) * B.factor.L))
        return sparse_update(B, pair, self).b_out, False

    def det_b(self, state) -> float:
        return state[0].det()

    def b_matrix(self, state) -> np.ndarray:
        return state[0].matrix
