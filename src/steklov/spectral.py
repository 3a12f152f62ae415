"""Steklov spectra via the Dirichlet-to-Neumann operator.

The DtN matrix is the Schur complement of the interior block of the graph
Laplacian.  Its eigendecomposition is LAPACK's symmetric solver through
numpy, with the sign of each eigenvector fixed so output is deterministic;
a cyclic Jacobi solver in the test suite serves as the independent
reference.  Boundary data is always ordered by ascending vertex id.

One kernel serves every caller: graphs are grouped by (n, boundary size)
and each group is solved as a stack.  The Laplacian blocks come from one
scatter of the edge lists, the Schur complements from one stacked solve
and matmul, the eigenpairs from one stacked `eigh`, and the symmetry,
row-sum and residual checks are stacked reductions.  LAPACK runs the same
routine on each matrix of a stack, so a batch gives bit-identical results
to one graph at a time.  The kernel has two entry points.
`steklov_spectra` adds the sign rule, checks each graph's range as it
writes its notes, and builds Spectrum objects (`steklov_spectrum` and
`dtn_matrix` are batches of one).  `_eigenvalues` returns the eigenvalues
alone, with the range checks as stacked reductions, for callers that read
nothing else.  Hunts ask for a chunk of instances' eigenvalues per call,
which pays the numpy call overhead once per group and not once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import EigensolverError, GraphValidationError, InternalFault
from .graphs import BoundaryGraph

ZERO_SNAP = 1e-12  # |eigenvalue| below this reads as 0
LAMBDA1_ZERO = 1e-10  # bound on |lambda_1| of a strict graph
LAMBDA2_FLOOR = 1e-11  # lambda_2 of a strict graph lies above this
LAMBDA_MAX_SLACK = 1e-9  # lambda_max of a strict graph is at most 1 + this


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


def _groups(graphs: list[BoundaryGraph]) -> list[list[int]]:
    """Input positions grouped by (n, boundary size), the shape of a stack."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, g in enumerate(graphs):
        if not g.boundary:
            raise GraphValidationError("graph has no boundary")
        groups.setdefault((g.n, len(g.boundary)), []).append(i)
    return list(groups.values())


def _dtn_stack(graphs: list[BoundaryGraph], tol: Tolerances) -> np.ndarray:
    """DtN matrices, stacked, of graphs that share n and the boundary size.

    Each graph's vertices are ordered as its sorted boundary, then its
    sorted interior.  One scatter of the edge lists assembles every
    Laplacian; one stacked solve and one matmul give the Schur complements;
    the symmetry and row-sum checks are stacked reductions, and the first
    flagged graph of the stack raises.
    """
    count, n, b = len(graphs), graphs[0].n, len(graphs[0].boundary)
    # rank[i, v]: place of vertex v in graph i's order (a stable sort of keys
    # 0 for boundary, 1 for interior keeps each class ascending)
    key = np.ones(count * n, dtype=np.int8)
    key[[i * n + v for i, g in enumerate(graphs) for v in g.boundary]] = 0
    rank = np.argsort(np.argsort(key.reshape(count, n), axis=1, kind="stable"), axis=1)
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)), np.intp
    ).reshape(-1, 2)
    first = np.repeat(np.arange(0, count * n, n), [len(g.edges) for g in graphs])[:, None]
    pos = rank.ravel()[ends + first]
    row = (pos + first) * n  # flat offset of each end's row in the stack
    size = count * n * n
    lap = np.bincount((row + pos).ravel(), minlength=size) - np.bincount(
        (row + pos[:, ::-1]).ravel(), minlength=size
    )
    lap = lap.astype(float).reshape(count, n, n)
    if b < n:
        # each L_BI contiguous, as a lone matrix would be, so BLAS sees the
        # same layout in a stack as in a batch of one
        lap_bi = np.ascontiguousarray(lap[:, :b, b:])
        try:
            sol = np.linalg.solve(lap[:, b:, b:], lap_bi.transpose(0, 2, 1))
        except np.linalg.LinAlgError as exc:
            raise InternalFault(f"singular interior block: {exc}") from None
        mat = lap[:, :b, :b] - lap_bi @ sol
    else:
        mat = lap
    scale = np.maximum(1.0, np.abs(mat).max(axis=(1, 2)))
    asym = np.abs(mat - mat.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = asym > tol.dtn_symmetry * scale
    if bad.any():
        raise InternalFault(f"DtN asymmetry {asym[bad.argmax()]:.3e} out of bounds")
    mat = (mat + mat.transpose(0, 2, 1)) / 2.0
    rowsum = np.abs(mat.sum(axis=2)).max(axis=1)
    bad = rowsum > tol.dtn_rowsum * scale
    if bad.any():
        raise InternalFault(f"DtN row sums {rowsum[bad.argmax()]:.3e} out of bounds")
    return mat


@dataclass(frozen=True)
class DtnMatrix:
    boundary: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def dtn_matrix(g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES) -> DtnMatrix:
    """Schur complement of the interior block of the Laplacian."""
    if not g.boundary:
        raise GraphValidationError("graph has no boundary")
    return DtnMatrix(boundary=g.boundary_sorted(), matrix=_dtn_stack([g], tol)[0])


@dataclass(frozen=True)
class Spectrum:
    graph: BoundaryGraph
    boundary: tuple[int, ...]
    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthonormal columns over the boundary ordering
    notes: tuple[str, ...] = field(default_factory=tuple)
    tol: Tolerances = DEFAULT_TOLERANCES  # the solve's, for the extensions

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
            cols.append(harmonic_extension(self.graph, self.vectors[:, j], self.tol))
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


def _range_notes(g: BoundaryGraph, w: np.ndarray) -> tuple[str, ...]:
    """A strict graph's spectrum lies in [0, 1] with lambda_1 = 0 < lambda_2;
    a relaxed graph may leave that range, and gets notes saying where."""
    high = w[-1] > 1.0 + LAMBDA_MAX_SLACK
    flat = len(w) >= 2 and w[1] <= LAMBDA2_FLOOR
    if g.strict:
        if abs(w[0]) > LAMBDA1_ZERO:
            raise InternalFault(f"lambda_1 = {w[0]:.3e} is not zero")
        if flat:
            raise InternalFault(f"lambda_2 = {w[1]:.3e} is not positive")
        if high:
            raise InternalFault(f"lambda_max = {w[-1]:.12f} exceeds 1")
        return ()
    notes = []
    if high:
        notes.append(f"relaxed graph: lambda_max = {w[-1]:.6g} exceeds 1")
    if flat:
        notes.append("relaxed graph: lambda_2 is not positive")
    return tuple(notes)


def _solve_stack(
    graphs: list[BoundaryGraph], tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (zero-snapped) and eigenvectors (signs as LAPACK leaves
    them) of a stack of graphs that share n and the boundary size.

    The DtN and residual checks are stacked reductions; the first flagged
    graph of the stack raises.  Negating an eigenvector negates its
    residual exactly, so the check reads the same before the sign rule as
    after it.  The range checks are the caller's.
    """
    mat = _dtn_stack(graphs, tol)
    try:
        w, vec = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigh failed: {exc}") from None
    scale = np.maximum(1.0, np.abs(mat).max(axis=(1, 2)))
    residual = np.abs(mat @ vec - vec * w[:, None, :]).max(axis=(1, 2))
    bad = residual > tol.eigen_residual * scale
    if bad.any():
        raise EigensolverError(
            f"eigen residual {residual[bad.argmax()]:.3e} out of bounds"
        )
    return np.where(np.abs(w) < ZERO_SNAP, 0.0, w), vec


def steklov_spectra(
    graphs: Iterable[BoundaryGraph], tol: Tolerances = DEFAULT_TOLERANCES
) -> list[Spectrum]:
    """Full DtN eigendecompositions with invariant checks, in input order.

    Graphs that share n and the boundary size are solved as one stack: one
    DtN stage, one stacked eigh, and stacked checks.  LAPACK runs the same
    routine on each matrix of a stack, so every result is bit-identical to a
    batch of one.  A graph that fails a check raises its typed error, with
    the message a batch of one would give; which graph raises, when several
    fail, is not specified.
    """
    graphs = list(graphs)
    spectra: list = [None] * len(graphs)
    for idxs in _groups(graphs):
        group = [graphs[i] for i in idxs]
        w, vec = _solve_stack(group, tol)
        # deterministic sign: largest-magnitude entry of each column positive
        top = np.argmax(np.abs(vec), axis=1)
        lead = vec[np.arange(len(group))[:, None], top, np.arange(w.shape[1])]
        vec = vec * np.where(lead < 0, -1.0, 1.0)[:, None, :]
        for j, (i, g) in enumerate(zip(idxs, group)):
            spectra[i] = Spectrum(
                graph=g,
                boundary=g.boundary_sorted(),
                eigenvalues=w[j],
                vectors=vec[j],
                notes=_range_notes(g, w[j]),
                tol=tol,
            )
    return spectra


def _eigenvalues(
    graphs: list[BoundaryGraph], tol: Tolerances = DEFAULT_TOLERANCES
) -> list[list[float]]:
    """The ascending eigenvalues of each graph, in input order: the stacks
    and every check of `steklov_spectra`, bit-identical to its eigenvalues,
    without eigenvector signs, Spectrum objects or notes.

    The strict range checks are stacked reductions here, where
    `steklov_spectra` makes them per graph with its notes; a flagged strict
    graph raises through `_range_notes`, with the same message.
    """
    rows: list = [None] * len(graphs)
    for idxs in _groups(graphs):
        group = [graphs[i] for i in idxs]
        w, _vec = _solve_stack(group, tol)
        # the conditions under which _range_notes raises for a strict graph
        flagged = np.abs(w[:, 0]) > LAMBDA1_ZERO
        flagged |= w[:, -1] > 1.0 + LAMBDA_MAX_SLACK
        if w.shape[1] >= 2:
            flagged |= w[:, 1] <= LAMBDA2_FLOOR
        for j in np.flatnonzero(flagged):
            if group[j].strict:
                _range_notes(group[j], w[j])  # raises
        for i, row in zip(idxs, w.tolist()):
            rows[i] = row
    return rows


def steklov_spectrum(
    g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES
) -> Spectrum:
    """Full DtN eigendecomposition with invariant checks."""
    return steklov_spectra([g], tol)[0]


def lambda2(g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """First nonzero Steklov eigenvalue (the spectral gap of the DtN map)."""
    return steklov_spectrum(g, tol).lambda2


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
