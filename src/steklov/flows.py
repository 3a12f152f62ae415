"""Flow calculus on trees.

A lambda-flow to a vertex x is a nonzero function that is harmonic at every
interior vertex except x and satisfies the spectral boundary condition at
every boundary vertex except x.  On a tree the solution space is one
dimensional; solve_flow builds it by a transfer recursion over the tree
rooted at x.  sigma(g, x) is the smallest lambda whose flow vanishes at x
with positive gradients toward x; it is computed either from the spectral
gap of the doubled graph or by bisecting, to float resolution, the first
lambda at which a transfer coefficient below x stops being positive.  The
two routes are kept strictly separate so they can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    GraphValidationError,
    InternalFault,
    NormalizationFailure,
    ResonantLambda,
)
from .graphs import BoundaryGraph, _bfs, double_at
from .spectral import _steklov_residuals, steklov_spectrum

NORM_VANISH_REL = 1e-15  # |f(w)| below this times max |f| cannot normalize
RESONANCE_NUDGE = 1e-10  # lambda shift for the one retry after a resonance


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


def _transfer(
    g: BoundaryGraph, order: list[int], parent: list[int], lam: float, tol: Tolerances
) -> dict[int, TransferPair]:
    """Transfer pair of every subtree hanging below order[0], on a tree
    rooted at order[0] by _bfs."""
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
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if w is None:
        w = default_norm_vertex(g, x)
    if w == x or w not in g.boundary:
        raise GraphValidationError(f"normalization vertex {w} must be boundary != x")

    order, parent, _ = _bfs(g.adjacency, x)
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
    if abs(fw) < NORM_VANISH_REL * max(1.0, float(np.max(np.abs(f)))):
        raise NormalizationFailure(
            f"flow vanishes at normalization vertex {w} (lambda={lam!r})"
        )
    f = f / fw
    flow = LambdaFlow(lam=lam, target=x, norm_vertex=w, values=f)
    residual = verify_flow(g, flow)
    bound = tol.flow_residual * max(1.0, float(np.max(np.abs(f))))
    if not residual <= bound:  # a NaN residual fails too
        raise InternalFault(
            f"transfer flow residual {residual:.3e} exceeds {bound:.3e} "
            f"at lambda={lam!r}"
        )
    return flow


def verify_flow(g: BoundaryGraph, flow: LambdaFlow) -> float:
    """Max residual of the defining equations away from the target."""
    res = _steklov_residuals(g, flow.values, flow.lam)
    res[flow.target] = 0.0
    return float(np.max(res))


def edge_flow_residual(g: BoundaryGraph, flow: LambdaFlow) -> float:
    """Max gap in the branch identity: the gradient on each edge toward the
    target equals lambda times the boundary mass hanging behind it."""
    _require_flow_tree(g, flow.target)
    f = flow.values
    order, parent, _ = _bfs(g.adjacency, flow.target)
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
    order, parent, _ = _bfs(g.adjacency, flow.target)
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
        return solve_flow(g, x, lam + RESONANCE_NUDGE, w, tol)


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


def _first_zero(
    g: BoundaryGraph, order: list[int], parent: list[int], tol: Tolerances
) -> float:
    """Least lambda at which a transfer coefficient of the walk order[1:]
    stops being positive; inf when the walk is empty.

    c_leaf = 1 - lambda and c_u = deg(u) - sum 1/c_k fall from 1 while the
    children stay positive, and reach -inf as a child reaches 0, so "every c
    is positive" holds exactly below one threshold.  It lies in (0, 1]: every
    walk holds a leaf.  A resonance (a child c near 0) leaves that c or its
    parent's c at or below 0.  Bisect to float resolution."""
    if len(order) < 2:
        return math.inf

    def positive(lam: float) -> bool:
        try:
            pairs = _transfer(g, order, parent, lam, tol)
        except ResonantLambda:
            return False
        return all(p.c > 0.0 for p in pairs.values())

    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return hi


def sigma(
    g: BoundaryGraph,
    x: int,
    method: str = "doubling",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SigmaResult:
    """Smallest lambda whose flow vanishes at x with positive gradients.

    method "doubling" reads it off the spectral gap of the graph doubled at
    x (one eigensolve); method "bisection" bisects the sign of the transfer
    coefficients below x to float resolution (no eigensolve).
    """
    _require_flow_tree(g, x)
    if x not in g.boundary:
        raise GraphValidationError("sigma is evaluated at boundary vertices only")
    w = default_norm_vertex(g, x)
    if method == "bisection":
        # f(x) has the sign of c at x's neighbor x1: sigma is where the walk
        # below x stops being positive, sigma1 where the walk below x1 does
        order, parent, _ = _bfs(g.adjacency, x)
        sig = _first_zero(g, order, parent, tol)
        sigma1 = _first_zero(g, order[1:], parent, tol) if g.n > 2 else None
        witness = solve_flow(g, x, sig, w, tol)
    elif method != "doubling":
        raise ValueError(f"unknown sigma method {method!r}")
    elif g.n == 2:
        witness = solve_flow(g, x, 1.0, w, tol)
        return SigmaResult(sigma=1.0, method="doubling", witness=witness, sigma1=None)
    else:
        sig = steklov_spectrum(double_at(g, x), tol).lambda2
        sigma1 = None
        witness = _flow_with_retry(g, x, sig, w, tol)
    _check_witness(g, witness, sig, tol)
    return SigmaResult(sigma=sig, method=method, witness=witness, sigma1=sigma1)


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
