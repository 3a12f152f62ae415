"""Reference routes the tests check the package against.

None of them has a caller in the package: the dense flow solve is an
independent oracle for the transfer recursion, and the Rayleigh quotient,
normal derivative and Green identity are the variational side of the
Steklov problem.
"""

import numpy as np

from steklov import (
    BoundaryGraph,
    GraphValidationError,
    LambdaFlow,
    NearSingular,
    default_norm_vertex,
    laplacian_apply,
    laplacian_matrix,
)

# dense-solve system residual, relative to the largest flow value
DENSE_FLOW_RESIDUAL = 1e-9


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
