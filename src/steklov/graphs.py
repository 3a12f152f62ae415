"""Boundary-marked graphs and the surgeries the spectral pipeline needs.

A BoundaryGraph is a finite simple connected graph with a distinguished
nonempty set of boundary vertices.  Strict validation additionally requires
that no edge joins two boundary vertices and that the interior induces a
connected nonempty subgraph; the relaxed flag waives those two constraints
for the two-vertex base case used by the flow calculus.
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GraphValidationError

SUBGRAPH_LIMIT = 20  # largest order is_subgraph backtracks over


@dataclass(frozen=True)
class BoundaryGraph:
    """A boundary-marked graph; construct it with ``build``, which
    validates it and sorts its edges.  The constructor checks nothing:
    ``random_tree`` and ``add_pendant`` call it only on graphs valid by
    construction, and the surgeries trust their inputs to be valid."""

    n: int
    edges: tuple[tuple[int, int], ...]
    boundary: frozenset[int]
    strict: bool = True

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def interior(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.boundary

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    @cached_property
    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1

    @cached_property
    def is_default_boundary(self) -> bool:
        return self.boundary == leaves(self)

    def boundary_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.boundary))

    def __repr__(self) -> str:
        return (
            f"BoundaryGraph(n={self.n}, edges={list(self.edges)}, "
            f"boundary={sorted(self.boundary)}, strict={self.strict})"
        )


def _normalize_edges(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out = []
    for e in edges:
        u, v = e
        out.append((u, v) if u < v else (v, u))
    return tuple(sorted(out))


def build(
    n: int,
    edges: Iterable[tuple[int, int]],
    boundary: Iterable[int] | None = None,
    strict: bool = True,
) -> BoundaryGraph:
    """Validate and construct a BoundaryGraph.

    boundary=None marks every degree-1 vertex as boundary (the default
    convention; for trees that is exactly the leaf set).
    """
    if n < 2:
        raise GraphValidationError(f"need at least 2 vertices, got n={n}")
    norm = _normalize_edges(edges)
    seen_edges = set()
    for u, v in norm:
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphValidationError(f"edge ({u},{v}) out of range for n={n}")
        if (u, v) in seen_edges:
            raise GraphValidationError(f"multi-edge ({u},{v})")
        seen_edges.add((u, v))

    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        nbrs[u].append(v)
        nbrs[v].append(u)
    if len(_bfs(nbrs, 0)[0]) < n:
        raise GraphValidationError("graph is not connected")

    if boundary is None:
        bset = frozenset(v for v in range(n) if len(nbrs[v]) == 1)
    else:
        bset = frozenset(boundary)
        for v in bset:
            if not (0 <= v < n):
                raise GraphValidationError(f"boundary vertex {v} out of range")
    if not bset:
        raise GraphValidationError("boundary set is empty")

    if strict:
        for u, v in norm:
            if u in bset and v in bset:
                raise GraphValidationError(
                    f"edge ({u},{v}) joins two boundary vertices"
                )
        interior = set(range(n)) - bset
        if not interior:
            raise GraphValidationError(
                "empty interior (use strict=False for the 2-vertex base case)"
            )
        if len(_bfs(nbrs, next(iter(interior)), bset)[0]) < len(interior):
            raise GraphValidationError("interior is not connected")

    return BoundaryGraph(n=n, edges=norm, boundary=bset, strict=strict)


def leaves(g: BoundaryGraph) -> frozenset[int]:
    """Vertices of degree 1, counted straight from the edge list: a graph
    used once, like a hunt's random base tree, never builds its adjacency."""
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return frozenset(v for v, d in enumerate(degree) if d == 1)


def _induced(
    g: BoundaryGraph, keep: Iterable[int]
) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The edges of g with both ends in keep, relabelled in id order, and
    the old -> new map."""
    relabel = {old: new for new, old in enumerate(sorted(keep))}
    edges = [
        (relabel[a], relabel[b]) for a, b in g.edges if a in relabel and b in relabel
    ]
    return edges, relabel


# ---------------------------------------------------------------------------
# surgeries

def branch(g: BoundaryGraph, u: int, v: int) -> tuple[BoundaryGraph, dict[int, int]]:
    """Closed branch of a tree at directed edge (u, v): u's side of the cut
    plus v, with its leaves as boundary, and the old -> new map."""
    if not g.is_tree:
        raise GraphValidationError("branches are defined on trees only")
    if v not in g.neighbors(u):
        raise GraphValidationError(f"({u},{v}) is not an edge")
    # on a tree, cutting the edge (u, v) is the same as blocking v
    edges, relabel = _induced(g, _bfs(g.adjacency, u, {v})[0] + [v])
    return build(len(relabel), edges, strict=len(relabel) > 2), relabel


def double_at(g: BoundaryGraph, x: int) -> BoundaryGraph:
    """g glued to a disjoint copy of itself at x.

    x keeps its id, and copy vertex v != x becomes g.n + v - (v > x).  A
    tree with its leaves as boundary doubles to one; otherwise both copies
    keep their boundary, minus the glue vertex, which is no longer a leaf.
    """
    if not 0 <= x < g.n:
        raise GraphValidationError("glue vertex out of range")
    copy = [g.n + v - (v > x) for v in range(g.n)]
    copy[x] = x
    edges = list(g.edges) + [(copy[a], copy[b]) for a, b in g.edges]
    if g.is_tree and g.is_default_boundary:
        bnd = None
    else:
        bnd = (g.boundary | {copy[v] for v in g.boundary}) - {x}
    return build(2 * g.n - 1, edges, boundary=bnd, strict=g.strict)


def add_pendant(g: BoundaryGraph, x: int) -> BoundaryGraph:
    """Attach a new leaf to x; the new vertex gets id g.n.

    g must come from ``build`` (or a surgery here): it is trusted to be
    valid with sorted edges, so only the new edge is checked.  The graph
    stays connected, and the interior gains at most x (a leaf of the
    default boundary), whose one neighbour is interior in a strict graph.
    """
    if not (0 <= x < g.n):
        raise GraphValidationError(f"vertex {x} out of range")
    n = g.n
    if g.is_default_boundary:
        bnd = (g.boundary - {x}) | {n}
    elif g.strict and x in g.boundary:
        raise GraphValidationError(f"edge ({x},{n}) joins two boundary vertices")
    else:
        bnd = g.boundary | {n}
    i = bisect.bisect(g.edges, (x, n))
    edges = g.edges[:i] + ((x, n),) + g.edges[i:]
    return BoundaryGraph(n=n + 1, edges=edges, boundary=bnd, strict=g.strict)


def remove_leaf(g: BoundaryGraph, v: int) -> tuple[BoundaryGraph, dict[int, int]]:
    """Delete leaf v, relabel ids to stay dense, return (graph, old->new map)."""
    if g.degree(v) != 1:
        raise GraphValidationError(f"vertex {v} is not a leaf")
    edges, relabel = _induced(g, [u for u in range(g.n) if u != v])
    if g.is_default_boundary:
        bnd = None
    else:
        bnd = {relabel[b] for b in g.boundary if b != v}
    graph = build(g.n - 1, edges, boundary=bnd, strict=g.strict)
    return graph, relabel


# ---------------------------------------------------------------------------
# generators

def path_tree(length: int) -> BoundaryGraph:
    """Path with `length` edges, vertices 0..length.

    length 1 yields the two-vertex base case under relaxed validation
    (both endpoints are boundary).
    """
    if length < 1:
        raise GraphValidationError("path needs at least 1 edge")
    return build(
        length + 1, [(i, i + 1) for i in range(length)], strict=length > 1
    )


def star(k: int) -> BoundaryGraph:
    """Star with center 0 and k leaves."""
    if k < 3:
        raise GraphValidationError("star needs at least 3 leaves")
    return build(k + 1, [(0, i) for i in range(1, k + 1)])


def _arms(edges: list, frontier: Iterable[int], nxt: int, D: int, depth: int) -> int:
    """Hang D new children under each frontier vertex, level by level, for
    depth levels; new ids count up from nxt in breadth-first order.  Returns
    the next free id."""
    for _ in range(depth):
        grown = []
        for u in frontier:
            for _ in range(D):
                edges.append((u, nxt))
                grown.append(nxt)
                nxt += 1
        frontier = grown
    return nxt


def ball(D: int, R: int) -> BoundaryGraph:
    """Radius-R ball in the (D+1)-regular tree, centered at vertex 0."""
    if D < 2 or R < 1:
        raise GraphValidationError("ball needs D >= 2 and R >= 1")
    edges = [(0, v) for v in range(1, D + 2)]
    n = _arms(edges, range(1, D + 2), D + 2, D, R - 1)
    return build(n, edges)


def double_ball(D: int, R: int) -> BoundaryGraph:
    """Two adjacent centers 0, 1, each carrying a depth-R regular arm."""
    if D < 2 or R < 1:
        raise GraphValidationError("double_ball needs D >= 2 and R >= 1")
    edges = [(0, 1)]
    n = _arms(edges, [0], 2, D, R)
    n = _arms(edges, [1], n, D, R)
    return build(n, edges)


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for s in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(heap, s)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return edges


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1, draw for draw: CPython's
    `_randbelow_with_getrandbits` without randrange's argument checks."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _prufer_draws(n: int, seed: int) -> list[int]:
    """The Prufer sequence of ``random_tree(n, seed)``: n - 2 labels below n."""
    rng = random.Random(seed)
    return [_below(rng, n) for _ in range(n - 2)]


def _prufer_tree(seq: list[int]) -> BoundaryGraph:
    """The tree of a Prufer sequence of length n - 2 >= 1, with its leaves
    as boundary.  It skips ``build``: a decode is always a tree whose leaves
    are the labels absent from the sequence, and for n >= 3 that leaf
    boundary is strict."""
    n = len(seq) + 2
    leaf_set = frozenset(range(n)).difference(seq)
    return BoundaryGraph(n, _normalize_edges(_prufer_decode(seq, n)), leaf_set)


def random_tree(n: int, seed: int) -> BoundaryGraph:
    """Uniform random labeled tree on n vertices via Prufer decoding."""
    if n < 3:
        raise GraphValidationError("random_tree needs n >= 3")
    return _prufer_tree(_prufer_draws(n, seed))


# ---------------------------------------------------------------------------
# metrics and canonical forms

def _bfs(
    adjacency, src: int, blocked=()
) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first order from src, never entering a blocked vertex, with
    the parent array (-1 at src and at unreached vertices) and the distance
    array (-1 at unreached vertices).  Each vertex's neighbours are visited
    in adjacency order."""
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    dist[src] = 0
    order = [src]
    for u in order:
        for v in adjacency[u]:
            if dist[v] < 0 and v not in blocked:
                dist[v] = dist[u] + 1
                parent[v] = u
                order.append(v)
    return order, parent, dist


def diameter(g: BoundaryGraph) -> int:
    """Largest combinatorial distance between two vertices: the double
    sweep of ``diametral_path`` on a tree, one BFS per vertex otherwise."""
    if g.is_tree:
        return len(diametral_path(g)) - 1
    return max(max(_bfs(g.adjacency, v)[2]) for v in range(g.n))


def diametral_path(g: BoundaryGraph) -> list[int]:
    """One shortest path realizing the diameter of a tree (smallest-id
    tie-break), by double sweep: a farthest vertex from 0, then a farthest
    vertex from that one.  The sweep is exact on trees only."""
    if not g.is_tree:
        raise GraphValidationError("diametral_path needs a tree")
    dist0 = _bfs(g.adjacency, 0)[2]
    x0 = max(range(g.n), key=lambda v: (dist0[v], -v))
    _, parent, dist = _bfs(g.adjacency, x0)
    xl = max(range(g.n), key=lambda v: (dist[v], -v))
    path = [xl]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def tree_center(g: BoundaryGraph) -> int:
    """Center of a tree (smallest id if bicentral)."""
    if not g.is_tree:
        raise GraphValidationError("tree_center needs a tree")
    path = diametral_path(g)
    return min(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def _ahu_root_form(g: BoundaryGraph, root: int) -> str:
    order, parent, _ = _bfs(g.adjacency, root)
    label: dict[int, str] = {}
    for u in reversed(order):
        kids = sorted(label[v] for v in g.neighbors(u) if v != parent[u])
        label[u] = "(" + "".join(kids) + ")"
    return label[root]


def tree_canonical_form(g: BoundaryGraph) -> str:
    """AHU canonical string of the underlying free tree."""
    if not g.is_tree:
        raise GraphValidationError("canonical form needs a tree")
    # a tree's one or two centres are the middle of any diametral path
    path = diametral_path(g)
    return min(
        _ahu_root_form(g, c) for c in path[(len(path) - 1) // 2 : len(path) // 2 + 1]
    )


def trees_isomorphic(g1: BoundaryGraph, g2: BoundaryGraph) -> bool:
    return g1.n == g2.n and tree_canonical_form(g1) == tree_canonical_form(g2)


def is_subgraph(pattern: BoundaryGraph, host: BoundaryGraph) -> bool:
    """Injective homomorphism test by backtracking, for graphs of at most
    SUBGRAPH_LIMIT vertices (the rigidity checks' n <= 20)."""
    if max(pattern.n, host.n) > SUBGRAPH_LIMIT:
        raise GraphValidationError(
            f"subgraph check limited to {SUBGRAPH_LIMIT} vertices (got "
            f"{pattern.n} and {host.n})"
        )
    if pattern.n > host.n or len(pattern.edges) > len(host.edges):
        return False

    # breadth-first from a top-degree vertex: each one touches an earlier one
    order = _bfs(pattern.adjacency, max(range(pattern.n), key=pattern.degree))[0]

    host_edges = set(host.edges)

    def adjacent(a: int, b: int) -> bool:
        return (a, b) in host_edges if a < b else (b, a) in host_edges

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        anchors = [u for u in pattern.neighbors(v) if u in assignment]
        if anchors:
            candidates = [
                c
                for c in host.neighbors(assignment[anchors[0]])
                if c not in used
            ]
        else:
            candidates = [c for c in range(host.n) if c not in used]
        for c in candidates:
            if host.degree(c) < pattern.degree(v):
                continue
            if any(not adjacent(c, assignment[u]) for u in anchors):
                continue
            assignment[v] = c
            used.add(c)
            if extend(i + 1):
                return True
            del assignment[v]
            used.discard(c)
        return False

    return extend(0)
