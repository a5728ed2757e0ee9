"""Sparse quasi-Newton updates on chordal sparsity patterns.

Chordality testing with witness extraction, clique-tree construction,
maximum-determinant completion through clique factorization, projection
of a dense update onto the sparse submanifold, and the two alternating
projection schemes built from these pieces.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CliqueBlockNotPD,
    InvalidParameter,
    NotChordal,
    NotPositiveDefinite,
    OracleNoConvergence,
)
from .pdlinalg import PDMatrix, as_symmetric, cholesky_factorize
from .potentials import Potential
from .geometry import (
    solve_neg_theta_det,
    theta_coordinate,
    trace_inner,
    v_bregman_divergence,
)
from .updates import SecantPair, dfp_update, minimize_divergence_affine, v_bfgs_update

__all__ = [
    "SparsityPattern",
    "CliqueTree",
    "CliqueFactorization",
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
]


class SparsityPattern:
    """Symmetric index set F on an n x n matrix; the diagonal is always in."""

    def __init__(self, n, edges=()):
        if n < 1:
            raise InvalidParameter("pattern dimension must be at least 1")
        self.n = int(n)
        cleaned = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameter(f"pattern index ({i}, {j}) out of range for n={n}")
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


def full_pattern(n):
    return SparsityPattern(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diagonal_pattern(n):
    return SparsityPattern(n)


def banded_pattern(n, bandwidth):
    """Band |i - j| <= bandwidth; bandwidth 1 is tridiagonal."""
    if bandwidth < 0:
        raise InvalidParameter("bandwidth must be nonnegative")
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, min(n, i + bandwidth + 1))
    ]
    return SparsityPattern(n, edges)


def arrow_pattern(n):
    """Dense first row/column plus the diagonal."""
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


def _mcs_visit_order(pattern):
    # Maximum cardinality search; ties break toward the lowest index.
    n = pattern.n
    weights = [0] * n
    seen = [False] * n
    order = []
    for _ in range(n):
        v = max(
            (i for i in range(n) if not seen[i]),
            key=lambda i: (weights[i], -i),
        )
        order.append(v)
        seen[v] = True
        for u in pattern._adj[v]:
            if not seen[u]:
                weights[u] += 1
    return order


def _witness_cycle(pattern, v, u, w):
    """Chordless cycle through v given non-adjacent later neighbors u, w."""

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

    cliques[r] intersected with the union of all earlier cliques equals
    separators[r], which is contained in cliques[parent[r]].  residuals[r]
    partition the vertices; vertex_order lists them residual by residual,
    which makes every factor in the clique factorization lower triangular.
    """

    pattern: SparsityPattern
    elimination_order: list
    cliques: list
    parent: list
    separators: list = field(init=False)
    residuals: list = field(init=False)
    vertex_order: list = field(init=False)

    def __post_init__(self):
        covered = set()
        seps, resids, order = [], [], []
        for r, c in enumerate(self.cliques):
            cset = set(c)
            sep = tuple(sorted(cset & covered))
            if self.parent[r] is None:
                if sep:
                    raise RuntimeError("clique forest root has a nonempty separator")
            elif set(sep) - set(self.cliques[self.parent[r]]):
                raise RuntimeError("clique tree lost the running intersection property")
            res = tuple(sorted(cset - covered))
            seps.append(sep)
            resids.append(res)
            order.extend(res)
            covered |= cset
        self.separators = seps
        self.residuals = resids
        self.vertex_order = order

    @property
    def n(self):
        return self.pattern.n

    @property
    def ell(self):
        return len(self.cliques)

    @property
    def maximal_cliques(self):
        return [tuple(c) for c in self.cliques]


def is_chordal(pattern):
    """Return the clique tree of a chordal pattern.

    Runs maximum cardinality search and verifies the reversed visit order
    is a perfect elimination ordering; raises NotChordal with a chordless
    cycle witness otherwise.
    """
    n = pattern.n
    visit = _mcs_visit_order(pattern)
    elim = visit[::-1]
    pos = {v: k for k, v in enumerate(elim)}

    for v in elim:
        later = [u for u in pattern.neighbors(v) if pos[u] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda x: pos[x])
        for w in later:
            if w != u and not pattern.contains(u, w):
                cycle = _witness_cycle(pattern, v, u, w)
                raise NotChordal(
                    f"pattern graph is not chordal; chordless cycle {cycle}",
                    cycle=cycle,
                )

    # Maximal cliques from the elimination ordering.
    cands = []
    for v in elim:
        cand = frozenset([v] + [u for u in pattern.neighbors(v) if pos[u] > pos[v]])
        cands.append(cand)
    cands = sorted(set(cands), key=lambda c: (-len(c), tuple(sorted(c))))
    cliques = []
    for c in cands:
        if not any(c <= kept for kept in cliques):
            cliques.append(c)
    cliques = sorted(cliques, key=lambda c: tuple(sorted(c)))

    # Maximum-weight spanning forest of the clique intersection graph
    # gives a valid clique tree (junction tree theorem).
    ell = len(cliques)
    cedges = []
    for a in range(ell):
        for b in range(a + 1, ell):
            wgt = len(cliques[a] & cliques[b])
            if wgt > 0:
                cedges.append((-wgt, a, b))
    cedges.sort()
    root_of = list(range(ell))

    def find(x):
        while root_of[x] != x:
            root_of[x] = root_of[root_of[x]]
            x = root_of[x]
        return x

    adj = [set() for _ in range(ell)]
    for negw, a, b in cedges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root_of[ra] = rb
            adj[a].add(b)
            adj[b].add(a)

    # Preorder over each component produces a running-intersection order.
    order, parent_of = [], {}
    visited = [False] * ell
    for r0 in range(ell):
        if visited[r0]:
            continue
        stack = [(r0, None)]
        while stack:
            c, par = stack.pop()
            if visited[c]:
                continue
            visited[c] = True
            order.append(c)
            parent_of[c] = par
            for nxt in sorted(adj[c], reverse=True):
                if not visited[nxt]:
                    stack.append((nxt, c))

    newpos = {c: k for k, c in enumerate(order)}
    ordered = [tuple(sorted(cliques[c])) for c in order]
    parents = [None if parent_of[c] is None else newpos[parent_of[c]] for c in order]
    return CliqueTree(pattern, elim, ordered, parents)


# ---------------------------------------------------------------------------
# clique factorization of the maximum-determinant completion


@dataclass(repr=False)
class CliqueFactorization:
    """Factored inverse of the maximum-determinant completion.

    In the permuted vertex order (perm), the inverse K of the completion
    satisfies K = L_1' ... L_{l-1}' D L_{l-1} ... L_1 with unit lower
    triangular L_j and a PD block diagonal D whose blocks sit on the
    residual index ranges.  lower_factors returns the L_j densely; the
    sum form over clique and separator inverses is used for assembly.
    """

    tree: CliqueTree
    perm: np.ndarray
    _gammas: list
    _dblocks: list
    _ld_cliques: list
    _ld_separators: list
    _clique_entries: list
    _sep_entries: list

    @property
    def n(self):
        return self.tree.n

    @property
    def lower_factors(self):
        ppos = {v: k for k, v in enumerate(self.perm)}
        out = []
        # L_j corresponds to clique l+1-j, so leaves come first.
        for r in range(self.tree.ell - 1, 0, -1):
            L = np.eye(self.n)
            rows = [ppos[v] for v in self.tree.residuals[r]]
            cols = [ppos[v] for v in self.tree.separators[r]]
            if rows and cols:
                L[np.ix_(rows, cols)] = -self._gammas[r]
            out.append(L)
        return out

    @property
    def block_diagonal(self):
        ppos = {v: k for k, v in enumerate(self.perm)}
        D = np.zeros((self.n, self.n))
        for r in range(self.tree.ell):
            rows = [ppos[v] for v in self.tree.residuals[r]]
            D[np.ix_(rows, rows)] = self._dblocks[r]
        return D

    def product(self):
        """Assemble L_1' ... L_{l-1}' D L_{l-1} ... L_1 explicitly."""
        K = self.block_diagonal
        # fold from the innermost factor L_{l-1} outward to L_1
        for L in reversed(self.lower_factors):
            K = L.T @ K @ L
        return K

    def inverse_completion(self):
        """K = X^{-1} in the original vertex order; K is zero off-pattern."""
        tr = self.tree
        K = np.zeros((self.n, self.n))
        for r in range(tr.ell):
            cl = list(tr.cliques[r])
            block = np.linalg.inv(self._clique_entries[r])
            K[np.ix_(cl, cl)] += block
            sep = list(tr.separators[r])
            if sep:
                K[np.ix_(sep, sep)] -= np.linalg.inv(self._sep_entries[r])
        return 0.5 * (K + K.T)

    def completion(self):
        """The maximum-determinant completion X itself, original order."""
        return PDMatrix.from_matrix(self.inverse_completion()).inv()

    def log_det_completion(self):
        return float(sum(self._ld_cliques) - sum(self._ld_separators))


def clique_factorize(entries, tree):
    """Factor the maximum-determinant PD completion of a partial matrix.

    entries is a dense symmetric array read only at pattern positions;
    every clique principal block must be PD, which is exactly the
    condition for a PD completion to exist on a chordal pattern.
    """
    A = as_symmetric(entries)
    n = tree.n
    if A.shape != (n, n):
        raise InvalidParameter(f"entries shape {A.shape} does not match pattern n={n}")

    ppos = {v: k for k, v in enumerate(tree.vertex_order)}
    gammas, dblocks = [], []
    ld_cl, ld_sep = [], []
    clique_entries, sep_entries = [], []
    for r in range(tree.ell):
        cl = list(tree.cliques[r])
        Acc = A[np.ix_(cl, cl)]
        try:
            ld_cl.append(cholesky_factorize(Acc).log_det())
        except NotPositiveDefinite:
            raise CliqueBlockNotPD(
                f"clique {tuple(cl)} principal block is not positive definite"
            )
        clique_entries.append(Acc)
        res = list(tree.residuals[r])
        sep = list(tree.separators[r])
        Arr = A[np.ix_(res, res)]
        Ars = A[np.ix_(res, sep)]
        Ass = A[np.ix_(sep, sep)]
        sep_entries.append(Ass)
        if sep:
            ld_sep.append(cholesky_factorize(Ass).log_det())
            gamma = np.linalg.solve(Ass, Ars.T).T
            schur = Arr - gamma @ Ars.T
        else:
            ld_sep.append(0.0)
            gamma = np.zeros((len(res), 0))
            schur = Arr
        gammas.append(gamma)
        dblocks.append(np.linalg.inv(0.5 * (schur + schur.T)))

    return CliqueFactorization(
        tree=tree,
        perm=np.array(tree.vertex_order, dtype=int),
        _gammas=gammas,
        _dblocks=dblocks,
        _ld_cliques=ld_cl,
        _ld_separators=ld_sep,
        _clique_entries=clique_entries,
        _sep_entries=sep_entries,
    )


# ---------------------------------------------------------------------------
# projection onto the sparse submanifold


def _as_pd(P):
    return P if isinstance(P, PDMatrix) else PDMatrix.from_matrix(P)


def theta_v_project_sparse(Bbar, pattern, tree, pot):
    """Project Bbar onto {B in PD : B zero off-pattern} along theta_V.

    The projection matches theta_V on the pattern, so take the pattern
    entries of -theta_V(Bbar), build the maximum-determinant completion X
    through the clique tree, solve det X = nu(z)^n / z for the projected
    determinant, and scale: B* = nu(z*) X^{-1}.
    """
    Bbar = _as_pd(Bbar)
    n = Bbar.n
    if pattern.n != n or tree.pattern != pattern:
        raise InvalidParameter("pattern/tree do not match the matrix dimension")
    pot.require_admissible(n)

    neg_theta = -theta_coordinate(Bbar, pot).matrix
    fac = clique_factorize(neg_theta, tree)
    ld_star = solve_neg_theta_det(fac.log_det_completion(), n, pot)
    bstar = pot.nu_ld(ld_star) * fac.inverse_completion()
    return PDMatrix.from_matrix(bstar)


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


def sparse_update(B, pair, pattern, tree, pot, algorithm, T=1):
    """Alternate a secant-manifold update with the sparse projection.

    Algorithm 1 moves to the DFP point of the current iterate, algorithm
    2 to its theta_V-projection on the secant manifold (the V-BFGS
    point); both then project back onto the pattern.  T controls the
    number of rounds; one round is the plain sparse quasi-Newton update.
    """
    if algorithm not in (1, 2):
        raise InvalidParameter(f"algorithm must be 1 or 2, got {algorithm!r}")
    if T < 1:
        raise InvalidParameter("T must be at least 1")
    B = _as_pd(B)
    n = B.n
    if pattern.n != n:
        raise InvalidParameter("pattern dimension does not match the matrix")
    pot.require_admissible(n)
    scale = float(np.abs(B.matrix).max())
    if pattern.off_pattern_magnitude(B.matrix) > 1e-8 * (1.0 + scale):
        raise InvalidParameter("B has entries outside the sparsity pattern")

    bstar = None
    if algorithm == 2 and n <= 4:
        try:
            bstar = sparse_secant_oracle(B, pair, pattern, pot)
        except OracleNoConvergence:
            bstar = None  # constraint sets may not intersect; run the chain anyway

    trace = []
    cur = B
    for _ in range(T):
        if algorithm == 1:
            bar = dfp_update(cur, pair)
            trace.append(v_bregman_divergence(cur, bar, pot))
        else:
            bar = v_bfgs_update(cur, pair, pot)
            if bstar is not None:
                trace.append(v_bregman_divergence(bstar, cur, pot))
        nxt = theta_v_project_sparse(bar, pattern, tree, pot)
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
