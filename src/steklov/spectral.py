"""Steklov spectra via the Dirichlet-to-Neumann operator.

The DtN matrix is the Schur complement of the interior block of the graph
Laplacian.  Its eigendecomposition is LAPACK's symmetric solver through
numpy, with the sign of each eigenvector fixed so output is deterministic;
a cyclic Jacobi solver in the test suite serves as the independent
reference.  Boundary data is always ordered by ascending vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import EigensolverError, GraphValidationError, InternalFault
from .graphs import BoundaryGraph


def laplacian_matrix(g: BoundaryGraph) -> np.ndarray:
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


def laplacian_apply(g: BoundaryGraph, f: np.ndarray) -> np.ndarray:
    """(Lf)(x) = sum over neighbors y of f(x) - f(y)."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(g.n)
    for u, v in g.edges:
        d = f[u] - f[v]
        out[u] += d
        out[v] -= d
    return out


def _boundary_vector(g: BoundaryGraph, data) -> np.ndarray:
    order = g.boundary_sorted()
    if isinstance(data, dict):
        return np.array([float(data[v]) for v in order])
    arr = np.asarray(data, dtype=float)
    if arr.shape[0] != len(order):
        raise ValueError(
            f"boundary data has length {arr.shape[0]}, expected {len(order)}"
        )
    return arr


def harmonic_extension(
    g: BoundaryGraph, boundary_values, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Extend boundary data harmonically to the interior.

    boundary_values: dict keyed by boundary vertex, or an array aligned with
    the sorted boundary.  Returns the full vertex function.
    """
    fb = _boundary_vector(g, boundary_values)
    bnd = list(g.boundary_sorted())
    f = np.zeros(g.n)
    f[bnd] = fb
    interior = sorted(g.interior)
    if not interior:
        return f
    lap = laplacian_matrix(g)
    try:
        f[interior] = np.linalg.solve(
            lap[np.ix_(interior, interior)], -lap[np.ix_(interior, bnd)] @ fb
        )
    except np.linalg.LinAlgError as exc:
        raise InternalFault(f"singular interior block: {exc}") from None
    residual = np.max(np.abs(laplacian_apply(g, f)[interior]))
    scale = max(1.0, float(np.max(np.abs(fb))))
    if residual > tol.harmonic_residual * scale:
        raise InternalFault(
            f"harmonic extension residual {residual:.3e} exceeds tolerance"
        )
    return f


@dataclass(frozen=True)
class DtnMatrix:
    boundary: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def dtn_matrix(g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES) -> DtnMatrix:
    """Schur complement of the interior block of the Laplacian."""
    if len(g.boundary) < 1:
        raise GraphValidationError("graph has no boundary")
    lap = laplacian_matrix(g)
    bnd = list(g.boundary_sorted())
    interior = sorted(g.interior)
    if interior:
        lap_bb = lap[np.ix_(bnd, bnd)]
        lap_bi = lap[np.ix_(bnd, interior)]
        lap_ii = lap[np.ix_(interior, interior)]
        try:
            sol = np.linalg.solve(lap_ii, lap_bi.T)
        except np.linalg.LinAlgError as exc:
            raise InternalFault(f"singular interior block: {exc}") from None
        mat = lap_bb - lap_bi @ sol
    else:
        mat = lap[np.ix_(bnd, bnd)]
    scale = max(1.0, float(np.max(np.abs(mat))))
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > tol.dtn_symmetry * scale:
        raise InternalFault(f"DtN asymmetry {asym:.3e} out of bounds")
    mat = (mat + mat.T) / 2.0
    rowsum = float(np.max(np.abs(mat.sum(axis=1))))
    if rowsum > tol.dtn_rowsum * scale:
        raise InternalFault(f"DtN row sums {rowsum:.3e} out of bounds")
    return DtnMatrix(boundary=tuple(bnd), matrix=mat)


@dataclass(frozen=True)
class Spectrum:
    graph: BoundaryGraph
    boundary: tuple[int, ...]
    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthonormal columns over the boundary ordering
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.vectors.setflags(write=False)

    def lambda_k(self, k: int) -> float:
        """k-th eigenvalue, 1-based ascending (lambda_1 = 0)."""
        if not 1 <= k <= len(self.eigenvalues):
            raise IndexError(f"k={k} outside 1..{len(self.eigenvalues)}")
        return float(self.eigenvalues[k - 1])

    @property
    def lambda2(self) -> float:
        return self.lambda_k(2)

    @cached_property
    def extensions(self) -> np.ndarray:
        """Harmonic extension of each eigenvector; column j matches vector j."""
        cols = []
        for j in range(self.vectors.shape[1]):
            cols.append(harmonic_extension(self.graph, self.vectors[:, j]))
        return np.column_stack(cols)

    def eigenpair(self, k: int) -> tuple[float, np.ndarray]:
        """(lambda_k, full vertex function), 1-based."""
        return self.lambda_k(k), self.extensions[:, k - 1].copy()

    def groups(self, tol: float = DEFAULT_TOLERANCES.multiplicity) -> list[tuple[int, int]]:
        """Multiplicity groups as 1-based inclusive index ranges."""
        out = []
        start = 1
        for i in range(1, len(self.eigenvalues)):
            if self.eigenvalues[i] - self.eigenvalues[i - 1] > tol:
                out.append((start, i))
                start = i + 1
        out.append((start, len(self.eigenvalues)))
        return out

    def group_of(self, k: int, tol: float = DEFAULT_TOLERANCES.multiplicity) -> tuple[int, int]:
        for lo, hi in self.groups(tol):
            if lo <= k <= hi:
                return lo, hi
        raise IndexError(k)

    def to_json(self, include_vectors: bool = False) -> dict:
        doc = {
            "n": self.graph.n,
            "boundary": list(self.boundary),
            "eigenvalues": [float(w) for w in self.eigenvalues],
        }
        if include_vectors:
            # row i is the boundary vertex boundary[i]; column j is vector j
            doc["eigenvectors"] = [
                [float(x) for x in row] for row in self.vectors
            ]
        return doc


def steklov_spectrum(
    g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES
) -> Spectrum:
    """Full DtN eigendecomposition with invariant checks."""
    dtn = dtn_matrix(g, tol)
    try:
        w, vec = np.linalg.eigh(dtn.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigh failed: {exc}") from None
    # deterministic sign: largest-magnitude entry of each column positive
    top = np.argmax(np.abs(vec), axis=0)
    vec = vec * np.where(vec[top, np.arange(len(w))] < 0, -1.0, 1.0)
    scale = max(1.0, float(np.max(np.abs(dtn.matrix))))
    residual = float(np.max(np.abs(dtn.matrix @ vec - vec * w)))
    if residual > tol.eigen_residual * scale:
        raise EigensolverError(f"eigen residual {residual:.3e} out of bounds")
    w = np.where(np.abs(w) < 1e-12, 0.0, w)

    notes = []
    b = len(dtn.boundary)
    if g.strict:
        if abs(w[0]) > 1e-10:
            raise InternalFault(f"lambda_1 = {w[0]:.3e} is not zero")
        if b >= 2 and w[1] <= 1e-11:
            raise InternalFault(f"lambda_2 = {w[1]:.3e} is not positive")
        if w[-1] > 1.0 + 1e-9:
            raise InternalFault(f"lambda_max = {w[-1]:.12f} exceeds 1")
    else:
        if w[-1] > 1.0 + 1e-9:
            notes.append(f"relaxed graph: lambda_max = {w[-1]:.6g} exceeds 1")
        if b >= 2 and w[1] <= 1e-11:
            notes.append("relaxed graph: lambda_2 is not positive")
    return Spectrum(
        graph=g,
        boundary=dtn.boundary,
        eigenvalues=w,
        vectors=vec,
        notes=tuple(notes),
    )


def lambda2(g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """First nonzero Steklov eigenvalue (the spectral gap of the DtN map)."""
    return steklov_spectrum(g, tol).lambda2


def rayleigh(g: BoundaryGraph, f) -> float:
    """Edge energy over boundary mass, undirected edge convention."""
    f = np.asarray(f, dtype=float)
    energy = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
    mass = sum(f[v] ** 2 for v in g.boundary)
    if mass == 0.0:
        raise ValueError("Rayleigh quotient needs f nonzero on the boundary")
    return float(energy / mass)


def _steklov_residuals(g: BoundaryGraph, f, lam: float) -> np.ndarray:
    """Per-vertex residual of the eigenvalue system at (f, lam): |Lf| at
    interior vertices, |Lf - lam f| at boundary vertices (the normal
    derivative equals the Laplacian there, as no edge joins two boundary
    vertices)."""
    f = np.asarray(f, dtype=float)
    res = laplacian_apply(g, f)
    bnd = list(g.boundary)
    res[bnd] -= lam * f[bnd]
    return np.abs(res)


def check_steklov_system(g: BoundaryGraph, f, lam: float) -> float:
    """Max residual of the eigenvalue system at (f, lam)."""
    return float(np.max(_steklov_residuals(g, f, lam)))


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
