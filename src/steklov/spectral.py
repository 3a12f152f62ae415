"""Steklov spectra via the Dirichlet-to-Neumann operator.

The DtN matrix is the Schur complement of the interior block of the graph
Laplacian.  Its eigendecomposition is LAPACK's symmetric solver through
numpy, with the sign of each eigenvector fixed so output is deterministic;
a cyclic Jacobi solver in the test suite serves as the independent
reference.  Boundary data is always ordered by ascending vertex id.

One kernel serves every caller.  A batch of graphs is a few arrays
(`_Batch`: each graph's order and boundary mask, and every edge with its
graph), and one scatter of its edges per order assembles the Laplacians,
in boundary-first order.  Graphs are grouped by (n, boundary size), and
each group's Schur complements come from one stacked solve and matmul.
The DtN matrices of one boundary size are then stacked across orders, and
the rest runs once per boundary size: the symmetry and row-sum checks as
stacked reductions, one stacked `eigh`, the residual check and the zero
snap.  LAPACK runs the same routine on each matrix of a stack, so a batch
gives bit-identical results to one graph at a time.  A batch of one is a
single group and needs no copy.  The kernel has two entry points.
`steklov_spectra` adds the sign rule, checks each graph's range as it
writes its notes, and builds Spectrum objects (`steklov_spectrum` and
`dtn_matrix` are batches of one).  `_batch_eigenvalues` returns the
eigenvalues alone, as padded rows, with the range checks as stacked
reductions (`_eigenvalues` is its form for a list of graphs).  It takes
the arrays and a strict mask, not graph objects, so a hunt hands it grown
graphs and tail trees that it never builds, a chunk of instances per call:
the numpy call overhead is paid once per group and not once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

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


class _Batch(NamedTuple):
    """Graphs as arrays.  Graph i has order[i] vertices, the boundary mask
    boundary[i, :order[i]] (each row padded with False to the widest graph)
    and the edges ends[owner == i] of a simple graph.  `_batch` lays the
    edges out graph by graph; the scatter reads them in any order."""

    order: np.ndarray  # (graphs,) vertex counts
    boundary: np.ndarray  # (graphs, width) bool
    ends: np.ndarray  # (edges, 2) vertex ids
    owner: np.ndarray  # (edges,) the graph of each edge


def _batch(graphs: list[BoundaryGraph]) -> _Batch:
    """The arrays of a list of graphs."""
    ns = [g.n for g in graphs]
    count, width = len(ns), max(ns, default=0)
    boundary = np.zeros(count * width, bool)
    boundary[[i * width + v for i, g in enumerate(graphs) for v in g.boundary]] = True
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)), np.intp
    ).reshape(-1, 2)
    owner = np.arange(count).repeat([len(g.edges) for g in graphs])
    return _Batch(np.array(ns, np.intp), boundary.reshape(count, width), ends, owner)


def _stacks(batch: _Batch):
    """(input positions, stacked Laplacians, boundary size) for each group
    of the batch's graphs that share n and the boundary size.

    Each Laplacian orders its graph's vertices as the sorted boundary, then
    the sorted interior.  One scatter of the edges per order assembles the
    Laplacians of that order's graphs, in input order and unpadded, so a
    batch holds one order's Laplacians at a time.  A group's stack is its
    order's Laplacians when it has them all, or else a contiguous copy.
    """
    order, boundary, ends, owner = batch
    count, width = boundary.shape
    # place of each vertex in its graph's order (a stable sort keeps each
    # class ascending), and of each end of each edge
    rank = (~boundary).argsort(axis=1, kind="stable").argsort(axis=1)
    first = (owner * width)[:, None]
    pos = rank.ravel()[ends + first]
    bsizes = boundary.sum(axis=1).tolist()
    if 0 in bsizes:
        raise GraphValidationError("graph has no boundary")
    tally: dict[int, int] = {}  # n -> graphs of order n so far
    groups: dict[int, dict[int, list[int]]] = {}  # n -> b -> input positions
    local = []  # place of each graph among the batch's graphs of its order
    for i, (n, b) in enumerate(zip(order.tolist(), bsizes)):
        local.append(tally.get(n, 0))
        tally[n] = local[-1] + 1
        groups.setdefault(n, {}).setdefault(b, []).append(i)
    local = np.array(local)
    for n, sizes in groups.items():
        if tally[n] == count:  # one order, so n is the width: every edge
            mine, start = slice(None), first
        else:
            mine = np.flatnonzero(order[owner] == n)
            start = local[owner[mine], None] * n
        at = pos[mine]
        row = start + at  # row of each end among the order's stacked rows
        # each vertex's degree on the diagonal, and -1 at each edge's two
        # entries off it (the graphs are simple, so no entry repeats)
        lap = np.zeros((tally[n], n, n))
        lap.ravel()[row * n + at[:, ::-1]] = -1.0
        degree = np.bincount(row.ravel(), minlength=tally[n] * n)
        lap.reshape(tally[n], n * n)[:, :: n + 1] = degree.reshape(tally[n], n)
        for b, idxs in sizes.items():
            yield idxs, lap if len(idxs) == tally[n] else lap[local[idxs]], b


def _schur(lap: np.ndarray, b: int) -> np.ndarray:
    """Schur complements of the interior blocks of stacked Laplacians whose
    first b vertices are the boundary, from one stacked solve and one
    matmul."""
    if b == lap.shape[1]:
        return lap
    # each L_BI contiguous, as a lone matrix would be, so BLAS sees the
    # same layout in a stack as in a batch of one
    lap_bi = np.ascontiguousarray(lap[:, :b, b:])
    try:
        sol = np.linalg.solve(lap[:, b:, b:], lap_bi.transpose(0, 2, 1))
    except np.linalg.LinAlgError as exc:
        raise InternalFault(f"singular interior block: {exc}") from None
    return lap[:, :b, :b] - lap_bi @ sol


def _dtn_stacks(batch: _Batch, tol: Tolerances):
    """(input positions, DtN matrices) for each boundary size of the batch.

    The Schur complements come per (n, b) group of `_stacks`.  The groups
    of one boundary size are then stacked across orders, with a copy only
    when there are several, and checked at once: the symmetry and row-sum
    checks are stacked reductions, and the first flagged graph raises.
    """
    sizes: dict[int, list] = {}  # b -> (input positions, Schur complements)
    for idxs, lap, b in _stacks(batch):
        sizes.setdefault(b, []).append((idxs, _schur(lap, b)))
    for groups in sizes.values():
        if len(groups) == 1:
            ((idxs, mat),) = groups
        else:
            idxs = [i for group, _mat in groups for i in group]
            mat = np.concatenate([schur for _group, schur in groups])
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
        yield idxs, mat


@dataclass(frozen=True)
class DtnMatrix:
    boundary: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def dtn_matrix(g: BoundaryGraph, tol: Tolerances = DEFAULT_TOLERANCES) -> DtnMatrix:
    """Schur complement of the interior block of the Laplacian."""
    ((_idxs, mat),) = _dtn_stacks(_batch([g]), tol)
    return DtnMatrix(boundary=g.boundary_sorted(), matrix=mat[0])


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


def _range_notes(strict: bool, w: np.ndarray) -> tuple[str, ...]:
    """A strict graph's spectrum lies in [0, 1] with lambda_1 = 0 < lambda_2;
    a relaxed graph may leave that range, and gets notes saying where."""
    high = w[-1] > 1.0 + LAMBDA_MAX_SLACK
    flat = len(w) >= 2 and w[1] <= LAMBDA2_FLOOR
    if strict:
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


def _solve_stack(mat: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (zero-snapped) and eigenvectors (signs as LAPACK leaves
    them) of stacked DtN matrices.

    The residual check is a stacked reduction; the first flagged graph of
    the stack raises.  Negating an eigenvector negates its residual exactly,
    so the check reads the same before the sign rule as after it.  The
    range checks are the caller's.
    """
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

    Graphs that share n and the boundary size share one Schur stage, and
    graphs that share the boundary size share one stacked eigh and the
    stacked checks.  LAPACK runs the same routine on each matrix of a
    stack, so every result is bit-identical to a batch of one.  A graph
    that fails a check raises its typed error, with the message a batch of
    one would give; which graph raises, when several fail, is not
    specified.
    """
    graphs = list(graphs)
    spectra: list = [None] * len(graphs)
    for idxs, mat in _dtn_stacks(_batch(graphs), tol):
        w, vec = _solve_stack(mat, tol)
        b = mat.shape[1]
        # deterministic sign: largest-magnitude entry of each column positive
        top = np.abs(vec).argmax(axis=1)
        lead = vec[np.arange(len(idxs))[:, None], top, np.arange(b)]
        vec = vec * np.where(lead < 0, -1.0, 1.0)[:, None, :]
        for j, i in enumerate(idxs):
            g = graphs[i]
            spectra[i] = Spectrum(
                graph=g,
                boundary=g.boundary_sorted(),
                eigenvalues=w[j],
                vectors=vec[j],
                notes=_range_notes(g.strict, w[j]),
                tol=tol,
            )
    return spectra


def _batch_eigenvalues(batch: _Batch, tol: Tolerances, strict) -> np.ndarray:
    """The ascending eigenvalues of each graph of a batch, as the rows of
    one array, each padded with NaN past its graph's boundary size: the
    stacks and every check of `steklov_spectra`, bit-identical to its
    eigenvalues, without eigenvector signs, Spectrum objects or notes.

    strict is a boolean mask over the batch's graphs.  The strict range
    checks are stacked reductions here, where `steklov_spectra` makes them
    per graph with its notes; a flagged strict graph raises through
    `_range_notes`, with the same message.
    """
    strict = np.asarray(strict, bool)
    rows = np.full(batch.boundary.shape, np.nan)
    for idxs, mat in _dtn_stacks(batch, tol):
        w, _vec = _solve_stack(mat, tol)
        b = mat.shape[1]
        # the conditions under which _range_notes raises for a strict graph
        flagged = np.abs(w[:, 0]) > LAMBDA1_ZERO
        flagged |= w[:, -1] > 1.0 + LAMBDA_MAX_SLACK
        if b >= 2:
            flagged |= w[:, 1] <= LAMBDA2_FLOOR
        for j in np.flatnonzero(flagged & strict[idxs]):
            _range_notes(True, w[j])  # raises
        rows[idxs, :b] = w
    return rows


def _eigenvalues(
    graphs: list[BoundaryGraph], tol: Tolerances = DEFAULT_TOLERANCES
) -> list[list[float]]:
    """The ascending eigenvalues of each graph, in input order, as
    `_batch_eigenvalues` gives them."""
    rows = _batch_eigenvalues(_batch(graphs), tol, [g.strict for g in graphs])
    return [w[: len(g.boundary)] for w, g in zip(rows.tolist(), graphs)]


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
