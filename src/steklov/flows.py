"""Flow calculus on trees.

A lambda-flow to a vertex x is a nonzero function that is harmonic at every
interior vertex except x and satisfies the spectral boundary condition at
every boundary vertex except x.  On a tree the solution space is one
dimensional; solve_flow builds it by a transfer recursion over the tree
rooted at x, solve_flow_dense solves the equivalent square linear system as
an independent oracle.  sigma(g, x) is the smallest lambda whose flow
vanishes at x with positive gradients toward x; it is computed either from
the spectral gap of the doubled graph or by bisection below the branch bound
sigma1, and the two routes are kept strictly separate so they can check each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    GraphValidationError,
    InternalFault,
    NearSingular,
    NormalizationFailure,
    ResonantLambda,
)
from .graphs import BoundaryGraph, _bfs, branch, double_at
from .spectral import laplacian_apply, laplacian_matrix, steklov_spectrum


@dataclass(frozen=True)
class TransferPair:
    """Subtree solution summary, relative to the value at the subtree root.

    c scales the value induced at the parent, d the gradient flowing into
    the parent edge; c + d = 1 by construction and a leaf carries
    (1 - lambda, lambda).
    """

    c: float
    d: float


@dataclass(frozen=True)
class LambdaFlow:
    lam: float
    target: int
    norm_vertex: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class SigmaResult:
    sigma: float
    method: str
    witness: LambdaFlow | None
    sigma1: float | None


def _require_flow_tree(g: BoundaryGraph, x: int) -> None:
    if not g.is_tree:
        raise GraphValidationError("flows are defined on trees")
    if not g.is_default_boundary:
        raise GraphValidationError("flow calculus needs boundary == leaves")
    if not 0 <= x < g.n:
        raise GraphValidationError(f"vertex {x} out of range")


def default_norm_vertex(g: BoundaryGraph, x: int) -> int:
    """Smallest boundary id different from x."""
    cands = sorted(g.boundary - {x})
    if not cands:
        raise GraphValidationError("no boundary vertex available for normalization")
    return cands[0]


def _resonant(c: float, d: float, tol: Tolerances) -> bool:
    return abs(c) < tol.resonance * max(1.0, abs(c) + abs(d))


def transfer_pairs(
    g: BoundaryGraph, x: int, lam: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> dict[int, TransferPair]:
    """Transfer pair of every subtree hanging below x."""
    _require_flow_tree(g, x)
    order, parent, _ = _bfs(g, x)
    return _transfer(g, order, parent, lam, tol)


def _transfer(
    g: BoundaryGraph, order: list[int], parent: list[int], lam: float, tol: Tolerances
) -> dict[int, TransferPair]:
    """transfer_pairs on a tree already rooted at order[0] by _bfs."""
    pairs: dict[int, TransferPair] = {}
    for u in reversed(order[1:]):
        kids = [v for v in g.neighbors(u) if v != parent[u]]
        if not kids:
            pairs[u] = TransferPair(c=1.0 - lam, d=lam)
            continue
        total = 0.0
        for k in kids:
            pk = pairs[k]
            if _resonant(pk.c, pk.d, tol):
                raise ResonantLambda(lam, k, pk.c)
            total += pk.d / pk.c
        pairs[u] = TransferPair(c=1.0 - total, d=total)
    return pairs


def solve_flow(
    g: BoundaryGraph,
    x: int,
    lam: float,
    w: int | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LambdaFlow:
    """Lambda-flow to x via the transfer recursion, normalized to f(w) = 1."""
    _require_flow_tree(g, x)
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if w is None:
        w = default_norm_vertex(g, x)
    if w == x or w not in g.boundary:
        raise GraphValidationError(f"normalization vertex {w} must be boundary != x")

    order, parent, _ = _bfs(g, x)
    pairs = _transfer(g, order, parent, lam, tol)
    f = np.zeros(g.n)
    scale: dict[int, float] = {}
    kids_x = [v for v in g.neighbors(x)]
    if len(kids_x) == 1:
        # boundary target: the single subtree keeps its free scale, the
        # value at x may legitimately vanish (that zero is sigma)
        scale[kids_x[0]] = 1.0
        f[x] = pairs[kids_x[0]].c
    else:
        # interior target: reconcile all subtrees to a common value at x
        for k in kids_x:
            pk = pairs[k]
            if _resonant(pk.c, pk.d, tol):
                raise ResonantLambda(lam, k, pk.c)
            scale[k] = 1.0 / pk.c
        f[x] = 1.0
    for u in order[1:]:
        f[u] = scale[u]
        for v in g.neighbors(u):
            if v != parent[u]:
                scale[v] = f[u] / pairs[v].c

    fw = f[w]
    if abs(fw) < 1e-15 * max(1.0, float(np.max(np.abs(f)))):
        raise NormalizationFailure(
            f"flow vanishes at normalization vertex {w} (lambda={lam!r})"
        )
    f = f / fw
    flow = LambdaFlow(lam=lam, target=x, norm_vertex=w, values=f)
    residual = verify_flow(g, flow)
    bound = tol.flow_residual * max(1.0, float(np.max(np.abs(f))))
    if residual > bound:
        raise InternalFault(
            f"transfer flow residual {residual:.3e} exceeds {bound:.3e} "
            f"at lambda={lam!r}"
        )
    return flow


def solve_flow_dense(
    g: BoundaryGraph,
    x: int,
    lam: float,
    w: int | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LambdaFlow:
    """Independent oracle: assemble and solve the flow system densely.

    Accepts non-tree graphs as well; resonances surface as a near-singular
    system.
    """
    if not 0 <= x < g.n:
        raise GraphValidationError(f"vertex {x} out of range")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if w is None:
        w = default_norm_vertex(g, x)
    if w == x or w not in g.boundary:
        raise GraphValidationError(f"normalization vertex {w} must be boundary != x")

    lap = laplacian_matrix(g)
    rows = []
    rhs = []
    for v in range(g.n):
        if v == x:
            continue
        row = lap[v].copy()
        if v in g.boundary:
            row[v] -= lam
        rows.append(row)
        rhs.append(0.0)
    norm_row = np.zeros(g.n)
    norm_row[w] = 1.0
    rows.append(norm_row)
    rhs.append(1.0)
    a = np.vstack(rows)
    b = np.array(rhs)
    sol, _, _, svals = np.linalg.lstsq(a, b, rcond=None)
    if svals[-1] < 1e-10 * svals[0]:
        raise NearSingular(lam, float(svals[-1]))
    residual = float(np.max(np.abs(a @ sol - b)))
    bound = tol.dense_flow_residual * max(1.0, float(np.max(np.abs(sol))))
    if residual > bound:
        raise NearSingular(lam, float(svals[-1]))
    return LambdaFlow(lam=lam, target=x, norm_vertex=w, values=sol)


def verify_flow(g: BoundaryGraph, flow: LambdaFlow) -> float:
    """Max residual of the defining equations away from the target."""
    f = flow.values
    lap = laplacian_apply(g, f)
    res = 0.0
    for v in range(g.n):
        if v == flow.target:
            continue
        if v in g.boundary:
            res = max(res, abs(lap[v] - flow.lam * f[v]))
        else:
            res = max(res, abs(lap[v]))
    return res


def edge_flow_residual(g: BoundaryGraph, flow: LambdaFlow) -> float:
    """Max gap in the branch identity: the gradient on each edge toward the
    target equals lambda times the boundary mass hanging behind it."""
    _require_flow_tree(g, flow.target)
    f = flow.values
    order, parent, _ = _bfs(g, flow.target)
    bsum = [0.0] * g.n
    res = 0.0
    for u in reversed(order[1:]):
        if u in g.boundary:
            bsum[u] += f[u]
        p = parent[u]
        grad = f[u] - f[p]
        res = max(res, abs(grad - flow.lam * bsum[u]))
        bsum[p] += bsum[u]
    return res


def positivity_check(
    g: BoundaryGraph, flow: LambdaFlow, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """True iff gradients toward the target and boundary values are positive.

    The two sides are equivalent for lambda > 0; a clear disagreement is a
    fault, not a result.
    """
    if flow.lam <= 0:
        raise ValueError("positivity is defined for lambda > 0")
    _require_flow_tree(g, flow.target)
    f = flow.values
    order, parent, _ = _bfs(g, flow.target)
    min_grad = math.inf
    for u in order[1:]:
        min_grad = min(min_grad, f[u] - f[parent[u]])
    min_bnd = min(f[z] for z in g.boundary if z != flow.target)
    slack = tol.sigma_witness
    grad_side = bool(min_grad > -slack)
    bnd_side = bool(min_bnd > -slack)
    if grad_side != bnd_side:
        clear = (min_grad > slack and min_bnd < -slack) or (
            min_bnd > slack and min_grad < -slack
        )
        if clear:
            raise InternalFault(
                f"positivity equivalence mismatch: min gradient {min_grad:.3e}, "
                f"min boundary value {min_bnd:.3e} at lambda={flow.lam!r}"
            )
    return grad_side and bnd_side


def _flow_with_retry(
    g: BoundaryGraph, x: int, lam: float, w: int, tol: Tolerances
) -> LambdaFlow:
    try:
        return solve_flow(g, x, lam, w, tol)
    except ResonantLambda:
        # measure-zero collision with a branch resonance: nudge once
        return solve_flow(g, x, lam + 1e-10, w, tol)


def _check_witness(
    g: BoundaryGraph, witness: LambdaFlow, sig: float, tol: Tolerances
) -> None:
    fx = float(witness.values[witness.target])
    if abs(fx) > tol.sigma_witness:
        raise InternalFault(
            f"sigma witness has f(x) = {fx:.3e} at lambda={sig!r}"
        )
    if sig > 0 and not positivity_check(g, witness, tol):
        raise InternalFault(f"sigma witness fails positivity at lambda={sig!r}")


def _sigma1(g: BoundaryGraph, x: int, tol: Tolerances) -> float:
    """Smallest branch sigma at the neighbor x1 of x; inf for the single edge.

    Branch v is v's subtree, with g rooted at x, plus v's parent, taken at
    the parent; its own sigma1 is the least sigma of its children's branches."""
    order, parent, _ = _bfs(g, x)
    best = [math.inf] * g.n
    for v in reversed(order[2:]):  # leaves first
        p = parent[v]
        sub, relabel = branch(g, v, p, closed=True).as_graph(g)
        best[p] = min(best[p], _bisect(sub, relabel[p], best[v], tol).sigma)
    return best[order[1]]


def _bisect(
    g: BoundaryGraph, x: int, sigma1: float, tol: Tolerances
) -> SigmaResult:
    w = default_norm_vertex(g, x)
    if g.n == 2:
        witness = solve_flow(g, x, 1.0, w, tol)
        return SigmaResult(sigma=1.0, method="bisection", witness=witness, sigma1=None)
    # Below sigma1 every transfer coefficient under x's neighbor x1 is positive
    # (c_leaf = 1 - lambda and c_u = deg(u) - sum 1/c_k fall, and cross 0 only
    # through -inf), so f(w) > 0 and f(x) has the sign of c_x1, which falls
    # from 1 to -inf: f(x) changes sign exactly once in (0, sigma1).  Stop once
    # the bracket is narrow and the midpoint flow is a witness (steep flows
    # need a narrower bracket than tol.bisection), or once it cannot shrink.
    lo, hi = 0.0, sigma1
    while True:
        sig = (lo + hi) / 2.0
        witness = _flow_with_retry(g, x, sig, w, tol)
        val = float(witness.values[x])
        if sig in (lo, hi) or (
            hi - lo <= tol.bisection and abs(val) <= tol.sigma_witness
        ):
            break
        if val > 0.0:
            lo = sig
        else:
            hi = sig
    _check_witness(g, witness, sig, tol)
    return SigmaResult(sigma=sig, method="bisection", witness=witness, sigma1=sigma1)


def sigma(
    g: BoundaryGraph,
    x: int,
    method: str = "doubling",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SigmaResult:
    """Smallest lambda whose flow vanishes at x with positive gradients.

    method "doubling" reads it off the spectral gap of the graph doubled at
    x (one eigensolve); method "bisection" bisects the flow value at x below
    the branch bound sigma1.
    """
    _require_flow_tree(g, x)
    if x not in g.boundary:
        raise GraphValidationError("sigma is evaluated at boundary vertices only")
    if method == "bisection":
        return _bisect(g, x, _sigma1(g, x, tol), tol)
    if method != "doubling":
        raise ValueError(f"unknown sigma method {method!r}")
    w = default_norm_vertex(g, x)
    if g.n == 2:
        witness = solve_flow(g, x, 1.0, w, tol)
        return SigmaResult(sigma=1.0, method="doubling", witness=witness, sigma1=None)
    doubled = double_at(g, x)
    sig = steklov_spectrum(doubled.graph, tol).lambda2
    witness = _flow_with_retry(g, x, sig, w, tol)
    _check_witness(g, witness, sig, tol)
    return SigmaResult(sigma=sig, method="doubling", witness=witness, sigma1=None)


def sigma_upper_bound(
    g: BoundaryGraph, x: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """The branch bound sigma1 (resonance-free zone is [0, sigma1))."""
    _require_flow_tree(g, x)
    if x not in g.boundary:
        raise GraphValidationError("sigma1 is defined at boundary vertices only")
    return _sigma1(g, x, tol)


def flow_to_json(g: BoundaryGraph, flow: LambdaFlow) -> dict:
    doc = {
        "lambda": float(flow.lam),
        "target": flow.target,
        "norm_vertex": flow.norm_vertex,
        "values": [float(v) for v in flow.values],
        "residual_system": verify_flow(g, flow),
    }
    if g.is_tree:
        doc["residual_edge_flow"] = edge_flow_residual(g, flow)
    return doc
