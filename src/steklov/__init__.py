"""Boundary (Dirichlet-to-Neumann) spectra on marked graphs, flow calculus
on trees, executable law checkers, and counterexample hunts."""

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    EigensolverError,
    GraphValidationError,
    InternalFault,
    NormalizationFailure,
    ParseError,
    ResonantLambda,
    SteklovError,
)
from .graphs import (
    BoundaryGraph,
    add_pendant,
    ball,
    branch,
    build,
    diameter,
    diametral_path,
    double_at,
    double_ball,
    is_subgraph,
    leaves,
    path_tree,
    random_tree,
    remove_leaf,
    star,
    tree_canonical_form,
    tree_center,
    trees_isomorphic,
)
from .serialize import (
    from_edge_list,
    from_graph6,
    loads,
    to_dot,
    to_edge_list,
    to_graph6,
)
from .spectral import (
    DtnMatrix,
    Spectrum,
    dtn_matrix,
    harmonic_extension,
    lambda2,
    laplacian_apply,
    laplacian_matrix,
    steklov_spectra,
    steklov_spectrum,
)
from .flows import (
    LambdaFlow,
    SigmaResult,
    default_norm_vertex,
    edge_flow_residual,
    flow_to_json,
    positivity_check,
    sigma,
    solve_flow,
    verify_flow,
)
from .checks import (
    CheckReport,
    DiameterDecomposition,
    check_branch_dichotomy,
    check_degree_diameter,
    check_diameter,
    check_doubling,
    check_monotonicity_chain,
    check_partition,
    diameter_decomposition,
    doubled_branch_graph,
)
from .hunt import (
    CandidatePair,
    HuntConfig,
    HuntReport,
    find_fig1,
    hunt_problem1,
    hunt_problem2,
    make_pair,
    reverify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
