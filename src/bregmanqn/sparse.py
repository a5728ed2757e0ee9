"""Sparse quasi-Newton updates on chordal sparsity patterns.

A chordality test that builds the clique tree in one maximum
cardinality search or returns a chordless-cycle witness, the
maximum-determinant completion assembled block by block over that tree,
projection of a dense update onto the sparse submanifold, the two
alternating projection schemes built from these pieces, and the update
family that holds their checked configuration and through which the
solver runs them.
"""

import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    CliqueBlockNotPD,
    InvalidParameter,
    NotChordal,
    OracleNoConvergence,
    require_count,
)
from .pdlinalg import PDMatrix, as_symmetric, cholesky_stack
# cholesky_factorize is unused here but stays bound: bench/ traces and
# checks every module binding of it.
from .pdlinalg import cholesky_factorize  # noqa: F401
from .potentials import log_potential
from .geometry import _as_pd, _from_neg_theta, theta_coordinate, v_bregman_divergence
from .testing import divergence_oracle
from .updates import _require_pair_length, SecantPair, dfp_update, v_bfgs_update

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
        self.n = _require_size("pattern dimension", n, 1)
        cleaned = set()
        for i, j in edges:
            if not all(_is_whole(v) and 0 <= v < self.n for v in (i, j)):
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


def _is_whole(value):
    """Whether value is a real number without a fractional part: 2 and 2.0
    are, 2.7, nan, inf and "2" are not."""
    return isinstance(value, numbers.Real) and value % 1 == 0


def _require_size(name, value, low):
    """value as an int; InvalidParameter unless it is an integer >= low."""
    if not (_is_whole(value) and value >= low):
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
    n = pattern.n
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


def _factor_blocks(A, blocks):
    """(log det, inverse) of each principal block A[b, b] of the list.

    One stacked Cholesky factorization and one stacked inversion per
    block size; raises CliqueBlockNotPD naming the first block, in list
    order, that is not numerically PD.
    """
    factored = [None] * len(blocks)
    by_size = {}
    for i, b in enumerate(blocks):
        by_size.setdefault(len(b), []).append(i)
    failed = []
    for rows in by_size.values():
        idx = np.array([blocks[i] for i in rows])
        stack = A[idx[:, :, None], idx[:, None, :]]
        L, ok = cholesky_stack(stack)
        if not ok.all():
            failed.append(rows[int(np.argmin(ok))])
            continue
        lds = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        for i, ld, inv in zip(rows, lds.tolist(), np.linalg.inv(stack)):
            factored[i] = ld, inv
    if failed:
        raise CliqueBlockNotPD(f"principal block {blocks[min(failed)]} is not positive definite")
    return factored


def clique_factorize(entries, tree):
    """(log det X, X^{-1}) of the maximum-determinant PD completion X.

    entries is a dense symmetric array read only at pattern positions;
    every clique principal block must be PD, which is exactly the
    condition for a PD completion to exist on a chordal pattern.  X^{-1}
    is the sum over cliques of the inverse clique blocks minus the sum
    over separators of the inverse separator blocks, zero off-pattern,
    and log det X is the matching sum of block log-determinants
    (Vandenberghe & Andersen, Chordal Graphs and Semidefinite
    Optimization, 2015).  The blocks are factored and inverted as
    stacks, one per block size, then summed in tree order.
    """
    A = as_symmetric(entries)
    n = tree.pattern.n
    if A.shape != (n, n):
        raise InvalidParameter(f"entries shape {A.shape} does not match pattern n={n}")

    # each clique, then its separator if it has one: the order of the PD
    # checks and of the sums
    blocks = [b for pair in zip(tree.cliques, tree.separators) for b in pair if b]
    factored = iter(_factor_blocks(A, blocks))
    ld_cliques = ld_separators = 0.0
    K = np.zeros((n, n))
    for cl, sep in zip(tree.cliques, tree.separators):
        ld, inv = next(factored)
        ld_cliques += ld
        K[np.ix_(cl, cl)] += inv
        if sep:
            ld, inv = next(factored)
            ld_separators += ld
            K[np.ix_(sep, sep)] -= inv
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


def sparse_secant_oracle(B, pair, pattern, pot):
    """The PD minimizer of D_V(X, B) over pattern-supported X with Xs = y,
    for n <= 6: the limit that algorithm 2's chain approaches.

    testing.divergence_oracle computes it; raises OracleNoConvergence
    when that set holds no PD point.
    """
    return PDMatrix.from_matrix(divergence_oracle(B, pot, pattern, pair))


# ---------------------------------------------------------------------------
# alternating projections


@dataclass
class SparseUpdateResult:
    """Output of sparse_update.

    trace_kind says what the divergence sequence measures: "eta-gap" is
    D_V(B_t, Bbar_t) per iteration (algorithm 1), "to-limit" is
    D_V(B*, B_t) for t = 0..T against the limit B* (algorithm 2, n <= 4),
    "successive" is D_V(B_{t+1}, B_t) when no limit reference is
    available.  B* is bstar, the minimizer of D_V(X, B_0) over
    pattern-supported X with Xs = y that sparse_secant_oracle gets from
    bregmanqn.testing.divergence_oracle, the independent reference.
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
    plain sparse quasi-Newton update.  For algorithm 2 at n <= 4 the
    limit of the chain comes from sparse_secant_oracle and the trace is
    measured against it; when the pattern and the secant slice have no
    PD point in common, the trace is "successive" instead.
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
            Ls = B.L.T @ pair.s
            theta = pair.curvature / float(Ls @ Ls)
            B = PDMatrix(np.sqrt(theta) * B.L)
        return sparse_update(B, pair, self).b_out, False

    def det_b(self, state) -> float:
        return state[0].det()

    def b_matrix(self, state) -> np.ndarray:
        return state[0].matrix
