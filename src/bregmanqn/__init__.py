"""Quasi-Newton updates derived from Bregman divergences on the PD cone."""

from .errors import (
    BregmanQNError,
    CliqueBlockNotPD,
    CurvatureViolation,
    InvalidParameter,
    LineSearchFail,
    MaxIterations,
    NotChordal,
    NotPositiveDefinite,
    OracleNoConvergence,
    PotentialNotAdmissible,
    RootNotBracketed,
    SingularTransform,
)
from .pdlinalg import (
    PDMatrix,
    cholesky_factorize,
    rank_one_update,
)
from .potentials import (
    Potential,
    PotentialReport,
    bounded_potential,
    custom_potential,
    log_potential,
    make_builtin,
    power_potential,
    validate,
)
from .potentials import from_string as potential_from_string
from .geometry import (
    generic_bregman,
    invert_theta,
    kl_divergence,
    projection_orthogonality_residual,
    pythagorean_residual,
    solve_neg_theta_det,
    theta_coordinate,
    trace_inner,
    v_bregman_divergence,
)
from .updates import (
    SecantPair,
    UpdateFamily,
    bfgs_update,
    dfp_update,
    self_scaling_update,
    solve_scaling_equation,
    v_bfgs_update,
    v_dfp_update,
)
from .solver import (
    InvarianceReport,
    IterationRecord,
    LineSearchParams,
    LineSearchResult,
    Objective,
    SolverConfig,
    SolverTrace,
    check_gradient,
    invariance_check,
    minimize,
    transform_problem,
    wolfe_line_search,
)
from .problems import ProblemSpec, get_problem, list_problems
from .sparse import (
    CliqueTree,
    SparseUpdateResult,
    SparseUpdateFamily,
    SparsityPattern,
    arrow_pattern,
    banded_pattern,
    clique_factorize,
    diagonal_pattern,
    full_pattern,
    is_chordal,
    load_pattern,
    pattern_from_text,
    pattern_to_text,
    sparse_update,
    theta_v_project_sparse,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
