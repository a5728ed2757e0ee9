"""Sparse quasi-Newton updates on chordal sparsity patterns.

A chordality test that builds the clique tree in one maximum
cardinality search or returns a chordless-cycle witness, the
maximum-determinant completion summed from the tree's clique and
separator blocks, projection of a dense update onto the sparse
submanifold, the two alternating projection schemes built from these
pieces, and the update family that holds their checked configuration
and through which the solver runs them.
"""

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    CliqueBlockNotPD,
    InvalidParameter,
    NotChordal,
    OracleNoConvergence,
    require_array,
    require_count,
    require_type,
)
from .pdlinalg import PDMatrix, as_symmetric, cholesky_factorize, cholesky_stack
from .geometry import solve_neg_theta_det, v_bregman_divergence
from .potentials import Potential
# algorithm 2's chain is measured against this limit at n <= 4
from .testing import sparse_secant_oracle
from .updates import _dual_mix, _require_pair_length, SecantPair, UpdateFamily, v_bfgs_update

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
    "sparse_update",
    "SparseUpdateFamily",
]


class SparsityPattern:
    """Symmetric index set F on an n x n matrix; the diagonal is always in."""

    def __init__(self, n, edges=()):
        self.n = require_count("pattern dimension", n)
        if not isinstance(edges, Iterable):
            raise InvalidParameter(f"pattern edges must be pairs (i, j), got {edges!r}")
        cleaned = set()
        for edge in edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise InvalidParameter(f"pattern edge {edge!r} is not a pair (i, j)") from None
            i, j = (require_count("pattern index", v, 0) for v in (i, j))
            if max(i, j) >= self.n:
                raise InvalidParameter(f"pattern edge {edge!r} has an index >= n={self.n}")
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
        return np.where(self.mask(), require_array("matrix", matrix, (self.n, self.n)), 0.0)

    def off_pattern_magnitude(self, matrix):
        off = np.where(self.mask(), 0.0, require_array("matrix", matrix, (self.n, self.n)))
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
    return banded_pattern(n, require_count("pattern dimension", n) - 1)


def diagonal_pattern(n):
    return SparsityPattern(n)


def banded_pattern(n, bandwidth):
    """Band |i - j| <= bandwidth; bandwidth 1 is tridiagonal."""
    n = require_count("pattern dimension", n)
    bandwidth = require_count("bandwidth", bandwidth, 0)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, min(n, i + bandwidth + 1))
    ]
    return SparsityPattern(n, edges)


def arrow_pattern(n):
    """Dense first row/column plus the diagonal."""
    n = require_count("pattern dimension", n)
    return SparsityPattern(n, [(0, j) for j in range(1, n)])


def pattern_from_text(text):
    """Parse the pattern file format.

    First non-blank line is n; each following line is "i j" with 1-based
    indices in the upper triangle.  The diagonal is implied and lines
    starting with '#' are skipped.
    """
    lines = [ln.strip() for ln in require_type("pattern text", text, str).splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParameter("empty pattern text")
    try:
        n = int(lines[0])
    except ValueError:
        raise InvalidParameter(f"first pattern line must be the dimension, got {lines[0]!r}")
    edges = []
    for ln in lines[1:]:
        try:
            i, j = (int(v) for v in ln.split())
        except ValueError:
            raise InvalidParameter(f"pattern line must be two integers 'i j', got {ln!r}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidParameter(f"pattern entry ({i}, {j}) out of range for n={n}")
        edges.append((i - 1, j - 1))
    return SparsityPattern(n, edges)


def pattern_to_text(pattern):
    lines = [str(require_type("pattern", pattern, SparsityPattern).n)]
    lines += [f"{i + 1} {j + 1}" for i, j in pattern.edges]
    return "\n".join(lines) + "\n"


def load_pattern(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParameter(f"pattern file {path} is not UTF-8 text: {exc}") from exc
    return pattern_from_text(text)


# ---------------------------------------------------------------------------
# chordality and clique trees


def _witness_cycle(pattern, v, u, w):
    """v followed by a shortest u-w path that avoids v's other neighbors.

    u and w are non-adjacent neighbors of v, so such a path has no chord
    and closes a chordless cycle of length at least four through v.
    None when the breadth-first search finds no such path.
    """
    banned = (pattern._adj[v] | {v}) - {u, w}
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            path = [w]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return [v] + path[::-1]
        for y in pattern.neighbors(x):
            if y not in prev and y not in banned:
                prev[y] = x
                queue.append(y)
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

    One maximum cardinality search builds the tree as it visits (Blair &
    Peyton, An introduction to chordal graphs and clique trees, 1993).
    Each vertex's count of visited neighbors is kept in an int array,
    -1 once the vertex is visited, and np.argmax picks the next vertex:
    the largest count, ties broken toward the lowest index.  Each pick is
    one numpy call, so the search over banded_pattern(3000, 2) takes
    about 0.05 s on one core.  The reversed visit order is a
    perfect elimination ordering exactly when every visited neighbor of
    each vertex is adjacent to its latest-visited one; raises NotChordal
    otherwise, with the chordless cycle that one breadth-first search
    finds through the failing vertex as witness.  A vertex whose count of
    visited neighbors did not grow opens a new clique, whose separator is
    those visited neighbors and whose parent is the clique of the latest
    of them; any other vertex joins the newest clique.  The cliques come
    out in running-intersection order.
    """
    n = require_type("pattern", pattern, SparsityPattern).n
    weights = np.zeros(n, dtype=int)  # visited neighbors; -1 once visited
    visit_step = [None] * n
    clique_of = [None] * n
    cliques, parents, separators = [], [], []
    last_weight = 0
    for step in range(n):
        v = int(np.argmax(weights))
        earlier = [u for u in pattern.neighbors(v) if visit_step[u] is not None]
        if earlier:
            u = max(earlier, key=visit_step.__getitem__)
            for w in earlier:
                if w != u and not pattern.contains(u, w):
                    cycle = _witness_cycle(pattern, v, u, w)
                    raise NotChordal(
                        f"pattern graph is not chordal; chordless cycle {cycle}",
                        cycle=cycle,
                    )
        if len(earlier) <= last_weight:
            cliques.append(set(earlier))
            parents.append(clique_of[u] if earlier else None)
            separators.append(tuple(earlier))
        cliques[-1].add(v)
        clique_of[v] = len(cliques) - 1
        last_weight = len(earlier)
        visit_step[v] = step
        weights[v] = -1
        weights[[x for x in pattern._adj[v] if visit_step[x] is None]] += 1
    return CliqueTree(pattern, [tuple(sorted(c)) for c in cliques], parents, separators)


# ---------------------------------------------------------------------------
# clique factorization of the maximum-determinant completion


def _block_sum(A, blocks):
    """(sum of log det A[b, b], sum of inv(A[b, b]) placed at b x b in an
    n x n array) over the principal blocks b of the list.

    One stacked Cholesky factorization, one stacked inversion and one
    np.add.at per block size, the sizes in order of first appearance; the
    log dets are summed in list order.  Raises CliqueBlockNotPD naming
    the first block, in list order, that is not numerically PD.
    """
    lds, K, failed = np.zeros(len(blocks)), np.zeros(A.shape), []
    by_size = {}
    for i, b in enumerate(blocks):
        by_size.setdefault(len(b), []).append(i)
    for rows in by_size.values():
        idx = np.array([blocks[i] for i in rows])
        at = idx[:, :, None], idx[:, None, :]
        stack = A[at]
        L, ok = cholesky_stack(stack)
        if not ok.all():
            failed.append(rows[int(np.argmin(ok))])
            continue
        lds[rows] = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        np.add.at(K, at, np.linalg.inv(stack))
    if failed:
        raise CliqueBlockNotPD(f"principal block {blocks[min(failed)]} is not positive definite")
    return sum(lds.tolist()), K


def clique_factorize(entries, tree):
    """(log det X, X^{-1}) of the maximum-determinant PD completion X.

    entries is a dense symmetric array read only at pattern positions;
    every clique principal block must be PD, which is exactly the
    condition for a PD completion to exist on a chordal pattern.  X^{-1}
    is the sum over cliques of the inverse clique blocks minus the sum
    over separators of the inverse separator blocks, zero off-pattern,
    and log det X is the matching difference of block log-determinants
    (Vandenberghe & Andersen, Chordal Graphs and Semidefinite
    Optimization, 2015).  _block_sum forms each sum with one stacked
    factorization, inversion and scatter per block size; the cliques are
    checked before the separators, so CliqueBlockNotPD names the first
    failing clique.
    """
    n = require_type("tree", tree, CliqueTree).pattern.n
    A = as_symmetric(require_array("entries", entries, (n, n)))
    ld_c, K_c = _block_sum(A, tree.cliques)
    ld_s, K_s = _block_sum(A, [s for s in tree.separators if s])
    K = K_c - K_s
    return float(ld_c - ld_s), 0.5 * (K + K.T)


# ---------------------------------------------------------------------------
# projection onto the sparse submanifold


def theta_v_project_sparse(Bbar, tree, pot):
    """Project Bbar onto {B in PD : B zero off tree.pattern} along theta_V.

    The projection matches theta_V on the pattern, so it is theta_V^{-1}
    of -X, where X is the maximum-determinant completion of the pattern
    entries of -theta_V(Bbar) = nu(det Bbar) Bbar^{-1}: B* = nu(z*) X^{-1}
    with det X = nu(z*)^n / z*.  The scalar nu(det Bbar) is kept in log
    space: X is nu(det Bbar) times the completion X0 of P_F(Bbar^{-1}), so
    log det X = log det X0 + n log nu(det Bbar) and
    B* = exp(log nu(z*) - log nu(det Bbar)) X0^{-1}.  This holds at any
    log det whenever Bbar^{-1} and B* have float64 entries, where
    theta_V(Bbar) itself may under- or overflow.
    """
    require_type("pot", pot, Potential)
    _require_fits("Bbar", Bbar, require_type("tree", tree, CliqueTree).pattern)
    log_det_x0, K0 = clique_factorize(Bbar.inv(), tree)
    log_nu_bar = pot.log_nu_ld(Bbar.logdet)
    ld_star = solve_neg_theta_det(log_det_x0 + Bbar.n * log_nu_bar, Bbar.n, pot)
    return cholesky_factorize(np.exp(pot.log_nu_ld(ld_star) - log_nu_bar) * K0)


# ---------------------------------------------------------------------------
# alternating projections


@dataclass
class SparseUpdateResult:
    """Output of sparse_update.

    trace_kind names the divergence that trace records, by one of three
    rules: "eta-gap" (algorithm 1), D_V(B_t, Bbar_t) for t = 0..T-1, from
    each iterate to its secant point; "to-limit" (algorithm 2 with a
    limit), D_V(B*, B_t) for t = 0..T, T + 1 entries; "successive"
    (algorithm 2 without one), D_V(B_{t+1}, B_t) for t = 0..T-1.  B* is
    bstar, the minimizer of D_V(X, B_0) over pattern-supported X with
    Xs = y that sparse_secant_oracle gets from
    bregmanqn.testing.divergence_oracle, the independent reference.
    """

    b_out: PDMatrix
    trace: np.ndarray
    trace_kind: str
    bstar: PDMatrix | None = None


def _require_fits(name, B, pattern):
    """Raise InvalidParameter unless B is a PDMatrix of the pattern's dimension."""
    if require_type(name, B, PDMatrix).n != pattern.n:
        raise InvalidParameter(
            f"{name} of dimension {B.n} does not fit the n={pattern.n} sparsity pattern")


def _require_on_pattern(B, pattern):
    """Raise InvalidParameter unless B fits the pattern and has no entry off it."""
    _require_fits("B", B, pattern)
    scale = float(np.abs(B.matrix).max())
    if pattern.off_pattern_magnitude(B.matrix) > 1e-8 * (1.0 + scale):
        raise InvalidParameter("B has entries outside the sparsity pattern")


def sparse_update(B, pair, family):
    """Alternate a secant-manifold update with the sparse projection.

    family is the SparseUpdateFamily that names the pattern, its clique
    tree, the potential, the algorithm and the number of rounds T.  Each
    round moves the current iterate B_t to its secant point Bbar_t, the
    DFP point for algorithm 1 and the theta_V-projection on the secant
    manifold (the V-BFGS point) for algorithm 2, then projects Bbar_t
    back onto the pattern to give B_{t+1}.  One round is the plain sparse
    quasi-Newton update.  The trace records one divergence per round:
    D_V(B_t, Bbar_t) ("eta-gap", algorithm 1); D_V(B*, B_t) against the
    limit B* that sparse_secant_oracle gives for algorithm 2 at n <= 4,
    with D_V(B*, B_T) appended ("to-limit"); otherwise D_V(B_{t+1}, B_t)
    ("successive"), also when the pattern and the secant slice have no PD
    point in common.
    """
    require_type("family", family, SparseUpdateFamily)
    _require_pair_length(B, pair)
    _require_on_pattern(B, family.pattern)
    pot, tree, algorithm = family.potential, family.tree, family.algorithm
    pot.require_admissible(B.n)

    # stays on the solver path: bench/selftest.py requires its traced
    # sparse-band solve to reach sparse.sparse_secant_oracle (ROADMAP 1, 3)
    bstar = None
    if algorithm == 2 and B.n <= 4:
        try:
            bstar = sparse_secant_oracle(B, pair, family.pattern, pot)
        except OracleNoConvergence:
            bstar = None  # constraint sets may not intersect; run the chain anyway
    kind = "eta-gap" if algorithm == 1 else "successive" if bstar is None else "to-limit"

    trace = []
    cur = B
    for _ in range(family.T):
        bar = _dual_mix(cur, pair, lambda ld: 1.0) if algorithm == 1 else v_bfgs_update(cur, pair, pot)
        nxt = theta_v_project_sparse(bar, tree, pot)
        p, q = {"eta-gap": (cur, bar), "to-limit": (bstar, cur), "successive": (nxt, cur)}[kind]
        trace.append(v_bregman_divergence(p, q, pot))
        cur = nxt
    if kind == "to-limit":
        trace.append(v_bregman_divergence(bstar, cur, pot))
    return SparseUpdateResult(b_out=cur, trace=np.array(trace), trace_kind=kind, bstar=bstar)


class SparseUpdateFamily:
    """sparse_update on a chordal pattern, with UpdateFamily's apply.

    Each algorithm fixes its own secant step (the DFP point or the V-BFGS
    point), so the family only names the potential: bfgs for the log
    potential or vbfgs:<potential>.  Checks it, the pattern, algorithm (1
    or 2) and T once, keeping the clique tree; sparse_update(B, pair,
    family) reads all of them from here.  minimize checks that B0 fits
    the pattern before its first evaluation, and scales B0 once at a
    sparse run's first update.
    """

    def __init__(self, family, pattern, algorithm, T):
        if require_type("family", family, UpdateFamily).kind not in ("bfgs", "vbfgs"):
            raise InvalidParameter(
                "each sparse algorithm fixes its own secant step, so the family names only "
                "the potential; use bfgs or vbfgs:<potential>")
        require_type("sparsity pattern", pattern, SparsityPattern)
        algorithm = require_count("algorithm", algorithm)
        if algorithm not in (1, 2):
            raise InvalidParameter(f"algorithm must be 1 or 2, got {algorithm!r}")
        self.pattern, self.algorithm, self.T = pattern, algorithm, require_count("T", T)
        self.tree = is_chordal(pattern)
        self.potential = family.potential

    def apply(self, B: PDMatrix, pair: SecantPair) -> PDMatrix:
        return sparse_update(B, pair, self).b_out
