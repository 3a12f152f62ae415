"""Reference routes the tests check the package against.

None of them has a caller in the package: the dense flow solve is an
independent oracle for the transfer recursion (it raises `NearSingular`
at a resonance), the Rayleigh quotient, normal derivative and Green
identity are the variational side of the Steklov problem, the wedge sum is
the general gluing that `double_at` specialises, `prufer_tree` is
`random_tree` validated by `build`, `enumerate_trees` is hunt 1's base
trees validated by `build`, `enumerate_graphs` filters hunt 2's small
graphs from networkx's graph atlas, independently of the table the hunt
embeds, `peeled_centers` finds a tree's centres by peeling leaf
layers, a route independent of the diametral path that `tree_center`
reads them from, and `bfs_diameter` takes the diameter from one BFS per
vertex, where `diameter` sweeps a tree twice.
"""

import random

import numpy as np

from steklov import (
    BoundaryGraph,
    GraphValidationError,
    LambdaFlow,
    SteklovError,
    build,
    default_norm_vertex,
    laplacian_apply,
    laplacian_matrix,
)
from steklov.graphs import _prufer_decode
from steklov.hunt import _tree_edges

# dense-solve system residual, relative to the largest flow value
DENSE_FLOW_RESIDUAL = 1e-9


class NearSingular(SteklovError, RuntimeError):
    """The dense flow system is numerically singular (resonance)."""

    def __init__(self, lam, smallest_singular_value):
        super().__init__(
            f"near-singular flow system at lambda={lam!r} "
            f"(smallest singular value {smallest_singular_value:.3e})"
        )
        self.lam = lam
        self.smallest_singular_value = smallest_singular_value


def solve_flow_dense(
    g: BoundaryGraph,
    x: int,
    lam: float,
    w: int | None = None,
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
    bound = DENSE_FLOW_RESIDUAL * max(1.0, float(np.max(np.abs(sol))))
    if residual > bound:
        raise NearSingular(lam, float(svals[-1]))
    return LambdaFlow(lam=lam, target=x, norm_vertex=w, values=sol)


def rayleigh(g: BoundaryGraph, f) -> float:
    """Edge energy over boundary mass, undirected edge convention."""
    f = np.asarray(f, dtype=float)
    energy = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
    mass = sum(f[v] ** 2 for v in g.boundary)
    if mass == 0.0:
        raise ValueError("Rayleigh quotient needs f nonzero on the boundary")
    return float(energy / mass)


def normal_derivative(g: BoundaryGraph, f) -> np.ndarray:
    """Outward normal derivative on the sorted boundary (equals Lf there)."""
    lap = laplacian_apply(g, np.asarray(f, dtype=float))
    return lap[list(g.boundary_sorted())]


def green_identity_gap(g: BoundaryGraph, f) -> float:
    """|edge energy - (Lf, f)|; zero in exact arithmetic on any graph."""
    f = np.asarray(f, dtype=float)
    energy = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
    pairing = float(laplacian_apply(g, f) @ f)
    return abs(energy - pairing)


def wedge_sum(
    g1: BoundaryGraph, x1: int, g2: BoundaryGraph, x2: int
) -> tuple[BoundaryGraph, int]:
    """Glue g2 onto g1 by identifying x2 with x1; return the graph and the
    glue vertex.  g1 keeps its ids and g2's other vertices follow in order."""
    if not (0 <= x1 < g1.n and 0 <= x2 < g2.n):
        raise GraphValidationError("glue vertex out of range")
    map2 = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == x2:
            map2[v] = x1
        else:
            map2[v] = nxt
            nxt += 1
    edges = list(g1.edges) + [(map2[a], map2[b]) for a, b in g2.edges]
    is_tree_result = g1.is_tree and g2.is_tree
    if is_tree_result and g1.is_default_boundary and g2.is_default_boundary:
        bnd = None  # recompute as leaves
    else:
        bnd = set(g1.boundary) | {map2[v] for v in g2.boundary}
        if g1.degree(x1) + g2.degree(x2) > 1:
            bnd.discard(x1)
    graph = build(nxt, edges, boundary=bnd, strict=g1.strict and g2.strict)
    return graph, x1


def prufer_tree(n: int, seed: int) -> BoundaryGraph:
    """random_tree(n, seed) through build: the Prufer decode of the same
    draws, validated."""
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return build(n, _prufer_decode(seq, n))


def enumerate_trees(n: int):
    """One tree per isomorphism class, canonical generation order."""
    if not 3 <= n <= 12:
        raise ValueError(f"tree enumeration supports 3 <= n <= 12, got {n}")
    for edges in _tree_edges(n):
        yield build(n, edges, boundary=None)


def enumerate_graphs(n: int):
    """Connected graphs on n vertices with at least one degree-1 vertex,
    in graph-atlas order."""
    if not 3 <= n <= 7:
        raise ValueError(f"graph enumeration supports 3 <= n <= 7, got {n}")
    import networkx as nx

    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != n or not nx.is_connected(g):
            continue
        if min(d for _v, d in g.degree()) != 1:
            continue
        yield build(n, sorted(tuple(sorted(e)) for e in g.edges()), boundary=None)


def peeled_centers(g: BoundaryGraph) -> list[int]:
    """The one or two centers of a tree, ascending, by peeling leaf layers."""
    deg = [g.degree(v) for v in range(g.n)]
    remaining = set(range(g.n))
    layer = [v for v in remaining if deg[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for u in g.neighbors(v):
                if u in remaining:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(remaining)


def bfs_diameter(g: BoundaryGraph) -> int:
    """The largest distance between two vertices, by a BFS from every vertex."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = 0
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        queue = [src]
        for u in queue:
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        best = max(best, dist[queue[-1]])  # the queue ends at a farthest vertex
    return best
