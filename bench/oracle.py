"""Independent reference for the benchmark's output checks.

Everything here is rebuilt from the definitions, with numpy only: the graph
Laplacian, the Schur complement of its interior block (the Dirichlet-to-
Neumann matrix), LAPACK's symmetric eigenvalues and a breadth-first-search
diameter.  Nothing is imported from ``steklov``, so a fault in the package's
own Laplacian, Schur complement, eigensolver or graph surgery cannot hide
behind the same fault in its checker.

A graph is given as ``(n, edges, boundary)``; ``boundary=None`` means the
degree-1 vertices, the package's default.
"""

from __future__ import annotations

import numpy as np


def degree_one(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [v for v in range(n) if deg[v] == 1]


def laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


def dtn(n: int, edges, boundary=None) -> np.ndarray:
    """Schur complement L_BB - L_BI L_II^-1 L_IB, boundary in ascending order."""
    bnd = sorted(degree_one(n, edges) if boundary is None else boundary)
    inner = sorted(set(range(n)) - set(bnd))
    lap = laplacian(n, edges)
    l_bb = lap[np.ix_(bnd, bnd)]
    if not inner:
        return l_bb
    l_bi = lap[np.ix_(bnd, inner)]
    l_ii = lap[np.ix_(inner, inner)]
    return l_bb - l_bi @ np.linalg.solve(l_ii, l_bi.T)


def eigenvalues(n: int, edges, boundary=None) -> np.ndarray:
    """The full Steklov spectrum, ascending."""
    mat = dtn(n, edges, boundary)
    return np.linalg.eigvalsh((mat + mat.T) / 2.0)


def lambda2(n: int, edges, boundary=None) -> float:
    return float(eigenvalues(n, edges, boundary)[1])


def _adjacency(n: int, edges) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _bfs(nbrs, src: int) -> list[int]:
    dist = [-1] * len(nbrs)
    dist[src] = 0
    queue = [src]
    for u in queue:
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(n: int, edges) -> int:
    nbrs = _adjacency(n, edges)
    return max(max(_bfs(nbrs, v)) for v in range(n))


def doubled(n: int, edges, x: int) -> tuple[int, list[tuple[int, int]]]:
    """Two copies of a tree glued at x; boundary stays the degree-1 set."""
    copy = {v: (v if v == x else n + v - (v > x)) for v in range(n)}
    return 2 * n - 1, list(edges) + [(copy[a], copy[b]) for a, b in edges]


def closed_branch(n: int, edges, x: int, j: int) -> tuple[int, list, int]:
    """The side of tree edge (x, j) that holds j, with x added back.

    Returns (order, edges, position of x) with vertices relabelled densely.
    """
    nbrs = _adjacency(n, edges)
    side = {j}
    stack = [j]
    while stack:
        a = stack.pop()
        for b in nbrs[a]:
            if b != x and b not in side:
                side.add(b)
                stack.append(b)
    side.add(x)
    relabel = {v: i for i, v in enumerate(sorted(side))}
    sub = [(relabel[a], relabel[b]) for a, b in edges if a in side and b in side]
    return len(side), sub, relabel[x]


def branch_sigma(n: int, edges, x: int, j: int) -> float:
    """sigma at x of the closed branch through neighbour j: the gap of that
    branch doubled at x (the paper's doubling identity)."""
    m, sub, xb = closed_branch(n, edges, x, j)
    if m == 2:
        return 1.0
    return lambda2(*doubled(m, sub, xb))


def agree(claimed, n: int, edges, boundary=None, tol: float = 1e-9) -> str | None:
    """None when every claimed eigenvalue matches the reference to tol,
    else a message saying which does not."""
    ref = eigenvalues(n, edges, boundary)
    claimed = np.asarray(claimed, dtype=float)
    if claimed.shape != ref.shape:
        return f"spectrum has {claimed.size} values, reference {ref.size}"
    err = np.abs(claimed - ref)
    k = int(np.argmax(err))
    if err[k] > tol:
        return f"lambda_{k + 1} = {claimed[k]!r}, reference {ref[k]!r}"
    return None


# closed forms used by the self-test -------------------------------------------


def path(length: int) -> tuple[int, list[tuple[int, int]]]:
    return length + 1, [(i, i + 1) for i in range(length)]


def _arms(edges: list, roots: list[int], nxt: int, fanout, depth: int) -> int:
    frontier = roots
    for level in range(depth):
        grown = []
        for u in frontier:
            for _ in range(fanout(level)):
                edges.append((u, nxt))
                grown.append(nxt)
                nxt += 1
        frontier = grown
    return nxt


def ball(d: int, r: int) -> tuple[int, list[tuple[int, int]]]:
    """Radius-r ball of the (d+1)-regular tree; gap (d-1)/(d^r - 1)."""
    edges: list = []
    n = _arms(edges, [0], 1, lambda level: d + 1 if level == 0 else d, r)
    return n, edges


def double_ball(d: int, r: int) -> tuple[int, list[tuple[int, int]]]:
    """Two adjacent centres, each with a depth-r d-ary arm;
    gap 2(d-1)/(d^(r+1) + d^r - 2)."""
    edges: list = [(0, 1)]
    n = _arms(edges, [0], 2, lambda level: d, r)
    n = _arms(edges, [1], n, lambda level: d, r)
    return n, edges
