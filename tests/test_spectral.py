"""Boundary-spectrum engine: operator assembly, eigensolver, identities.

The reference values below were frozen against an independent dense route
(`_oracle_dtn` + numpy's eigensolver) before the package's own solver was
trusted; the two implementations stay deliberately separate.  The package
diagonalizes with LAPACK; `jacobi_eigh` below is a cyclic Jacobi solver
that shares no code with it and serves as the reference eigensolver.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    BoundaryGraph,
    EigensolverError,
    GraphValidationError,
    InternalFault,
    Tolerances,
    ball,
    build,
    check_steklov_system,
    double_ball,
    dtn_matrix,
    enumerate_graphs,
    harmonic_extension,
    lambda2,
    laplacian_apply,
    laplacian_matrix,
    path_tree,
    random_tree,
    star,
    steklov_spectra,
    steklov_spectrum,
)
from oracles import green_identity_gap, normal_derivative, rayleigh
from steklov import spectral


# ---------------------------------------------------------------------------
# independent oracle: plain numpy Schur complement + LAPACK eigensolver


def _oracle_dtn(g):
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    b = list(g.boundary_sorted())
    i = sorted(g.interior)
    if not i:
        return lap[np.ix_(b, b)]
    return lap[np.ix_(b, b)] - lap[np.ix_(b, i)] @ np.linalg.solve(
        lap[np.ix_(i, i)], lap[np.ix_(i, b)]
    )


def _oracle_eigs(g):
    return np.linalg.eigvalsh(_oracle_dtn(g))


# ---------------------------------------------------------------------------
# Laplacian and harmonic extension


def test_laplacian_matrix_star():
    lap = laplacian_matrix(star(3))
    assert lap[0, 0] == 3 and lap[1, 1] == 1
    assert lap[0, 1] == -1 and lap[1, 2] == 0
    assert np.allclose(lap.sum(axis=0), 0)


def test_laplacian_apply_matches_matrix():
    g = random_tree(11, 4)
    f = np.linspace(-1, 2, g.n)
    assert np.allclose(laplacian_apply(g, f), laplacian_matrix(g) @ f)


def test_harmonic_extension_path():
    # on 0-1-2-3 with ends 1 and 4, the interior interpolates linearly
    g = path_tree(3)
    f = harmonic_extension(g, {0: 1.0, 3: 4.0})
    assert np.allclose(f, [1.0, 2.0, 3.0, 4.0])


def test_harmonic_extension_no_interior():
    g = path_tree(1)
    f = harmonic_extension(g, [2.0, 5.0])
    assert np.allclose(f, [2.0, 5.0])


def test_harmonic_extension_rejects_bad_input():
    g = path_tree(2)
    with pytest.raises(ValueError):
        harmonic_extension(g, [1.0, 2.0, 3.0])


def test_harmonic_extension_is_mean_value():
    g = random_tree(10, 7)
    f = harmonic_extension(g, np.arange(len(g.boundary), dtype=float))
    for v in g.interior:
        nbrs = g.neighbors(v)
        assert abs(f[v] - sum(f[u] for u in nbrs) / len(nbrs)) < 1e-10


# ---------------------------------------------------------------------------
# DtN assembly


def test_dtn_p3():
    m = dtn_matrix(path_tree(2)).matrix
    assert np.allclose(m, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_dtn_p4():
    m = dtn_matrix(path_tree(3)).matrix
    third = 1.0 / 3.0
    assert np.allclose(m, [[third, -third], [-third, third]], atol=1e-12)


def test_dtn_star3():
    m = dtn_matrix(star(3)).matrix
    assert np.allclose(m, np.eye(3) - np.ones((3, 3)) / 3.0, atol=1e-12)


def test_dtn_boundary_ordering():
    d = dtn_matrix(ball(2, 1))
    assert d.boundary == tuple(sorted(ball(2, 1).boundary))
    assert d.matrix.shape == (3, 3)


def test_dtn_matches_oracle_on_random_trees():
    for seed in range(30):
        g = random_tree(4 + seed % 9, seed)
        assert np.max(np.abs(dtn_matrix(g).matrix - _oracle_dtn(g))) < 1e-12


def test_dtn_matrix_is_readonly():
    m = dtn_matrix(star(3)).matrix
    with pytest.raises(ValueError):
        m[0, 0] = 7.0


# ---------------------------------------------------------------------------
# eigensolver: the Jacobi reference, and LAPACK in steklov_spectrum


def jacobi_eigh(
    a: np.ndarray, offdiag_tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps rotate every (p, q) pair until the off-diagonal Frobenius norm
    drops below offdiag_tol (relative to the matrix scale).  Returns
    eigenvalues ascending and orthonormal eigenvector columns, each with its
    largest-magnitude entry positive.
    """
    a = np.array(a, dtype=float)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    vec = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), vec
    scale = max(1.0, float(np.sqrt(np.sum(a * a))))
    thresh = offdiag_tol * scale
    elem_skip = thresh / n

    def offdiag_norm(m: np.ndarray) -> float:
        # zero the diagonal structurally: the subtract-norms formulation
        # cancels catastrophically once the off-diagonal part is tiny
        off = m - np.diag(np.diag(m))
        return float(np.sqrt(np.sum(off * off)))

    converged = False
    for _ in range(max_sweeps):
        if offdiag_norm(a) <= thresh:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= elem_skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                v_p = vec[:, p].copy()
                v_q = vec[:, q].copy()
                vec[:, p] = c * v_p - s * v_q
                vec[:, q] = s * v_p + c * v_q
    if not converged:
        off = offdiag_norm(a)
        if off > thresh:
            raise EigensolverError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal {off:.3e})"
            )
    w = np.diag(a).copy()
    idx = np.argsort(w, kind="stable")
    w = w[idx]
    vec = vec[:, idx]
    for j in range(n):
        k = int(np.argmax(np.abs(vec[:, j])))
        if vec[k, j] < 0:
            vec[:, j] = -vec[:, j]
    return w, vec


def test_jacobi_identity_and_diagonal():
    w, vec = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vec), np.eye(3)[:, [1, 2, 0]])


def test_jacobi_matches_lapack_structured():
    # exact multiplicity: I - J/3 has eigenvalues {0, 1, 1}
    m = np.eye(3) - np.ones((3, 3)) / 3.0
    w, vec = jacobi_eigh(m)
    assert np.allclose(w, [0.0, 1.0, 1.0], atol=1e-12)
    assert np.max(np.abs(m @ vec - vec * w)) < 1e-12


@given(st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_jacobi_matches_lapack_random(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2.0
    w, vec = jacobi_eigh(a)
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-9
    assert np.max(np.abs(vec.T @ vec - np.eye(n))) < 1e-12
    assert np.max(np.abs(a @ vec - vec * w)) < 1e-9


def test_jacobi_deterministic_sign():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    _, v1 = jacobi_eigh(a)
    _, v2 = jacobi_eigh(a.copy())
    assert np.allclose(v1, v2)
    assert v1[np.argmax(np.abs(v1[:, 0])), 0] > 0


def test_jacobi_nonconvergence_raises():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2.0
    with pytest.raises(EigensolverError):
        jacobi_eigh(a, max_sweeps=0)


def test_spectrum_matches_jacobi_reference():
    for seed in range(40):
        g = random_tree(4 + seed % 27, seed)
        s = steklov_spectrum(g)
        w, vec = jacobi_eigh(dtn_matrix(g).matrix)
        w = np.where(np.abs(w) < 1e-12, 0.0, w)
        assert np.max(np.abs(s.eigenvalues - w)) < 1e-12
        # the sign rule holds for LAPACK's vectors as well
        top = np.argmax(np.abs(s.vectors), axis=0)
        assert np.all(s.vectors[top, np.arange(len(w))] > 0)


def test_spectrum_lapack_failure_is_typed(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigensolverError, match="did not converge"):
        steklov_spectrum(star(3))


# ---------------------------------------------------------------------------
# the batched kernel against per-graph arithmetic


def _reference_spectrum(g):
    """One graph at a time: dense Laplacian, np.ix_ blocks, solve, eigh, and
    the sign rule and zero snap, in the order the kernel's contract states."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    bnd = list(g.boundary_sorted())
    interior = sorted(g.interior)
    if interior:
        lap_bi = lap[np.ix_(bnd, interior)]
        sol = np.linalg.solve(lap[np.ix_(interior, interior)], lap_bi.T)
        mat = lap[np.ix_(bnd, bnd)] - lap_bi @ sol
    else:
        mat = lap[np.ix_(bnd, bnd)]
    mat = (mat + mat.T) / 2.0
    w, vec = np.linalg.eigh(mat)
    top = np.argmax(np.abs(vec), axis=0)
    vec = vec * np.where(vec[top, np.arange(len(w))] < 0, -1.0, 1.0)
    return mat, np.where(np.abs(w) < 1e-12, 0.0, w), vec


def _mixed_graphs():
    rng = np.random.default_rng(9)
    graphs = [random_tree(n, int(rng.integers(2**31))) for n in range(3, 41) for _ in range(5)]
    graphs += list(enumerate_graphs(6))
    graphs += [
        double_ball(2, 1),
        build(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)], boundary={0, 5}),
        path_tree(1),  # relaxed: two boundary vertices, empty interior
    ]
    graphs += graphs[::25]  # duplicates by value and by identity
    graphs += [random_tree(12, 5), random_tree(12, 5)]
    return graphs


def _spectra_values(graphs, tol=Tolerances()):
    return [s.eigenvalues.tolist() for s in steklov_spectra(graphs, tol)]


# the kernel's two entry points, each as eigenvalue rows in input order: the
# Spectrum path and the values-only path that hunts take
ENTRY_POINTS = (_spectra_values, spectral._eigenvalues)


def test_spectra_bit_identical_to_per_graph_arithmetic():
    graphs = _mixed_graphs()
    assert len(graphs) > 250
    reference = [_reference_spectrum(g) for g in graphs]
    for values in ENTRY_POINTS:
        rows = values(graphs)
        assert len(rows) == len(graphs)
        for row, (_mat, w, _vec) in zip(rows, reference):
            assert type(row) is list and row == w.tolist()
    for g, s in zip(graphs, steklov_spectra(graphs)):
        mat, w, vec = _reference_spectrum(g)
        assert np.array_equal(s.eigenvalues, w)
        assert np.array_equal(s.vectors, vec)
        assert s.graph is g and s.boundary == g.boundary_sorted()
        assert np.array_equal(dtn_matrix(g).matrix, mat)


def test_spectra_independent_of_batch_order_and_size():
    graphs = _mixed_graphs()
    perm = np.random.default_rng(3).permutation(len(graphs))
    for values in ENTRY_POINTS:
        rows = values(graphs)
        shuffled = values([graphs[i] for i in perm])
        assert [shuffled[k] for k in np.argsort(perm)] == rows
        assert [values([g])[0] for g in graphs[::7]] == rows[::7]
        assert values([]) == []
    batched = steklov_spectra(graphs)
    shuffled = steklov_spectra([graphs[i] for i in perm])
    for k, i in enumerate(perm):
        assert np.array_equal(shuffled[k].eigenvalues, batched[i].eigenvalues)
        assert np.array_equal(shuffled[k].vectors, batched[i].vectors)
    for g, s in zip(graphs[::7], batched[::7]):
        (one,) = steklov_spectra([g])
        assert np.array_equal(one.eigenvalues, s.eigenvalues)
        assert np.array_equal(one.vectors, s.vectors)
        assert one.notes == s.notes
    assert steklov_spectra([]) == []


def test_spectra_notes_follow_each_graph():
    edge, p3 = path_tree(1), path_tree(2)
    notes = [s.notes for s in steklov_spectra([p3, edge, p3])]
    assert notes[0] == notes[2] == ()
    assert any("exceeds 1" in note for note in notes[1])


def test_spectra_errors_are_typed_inside_a_batch():
    graphs = [random_tree(n, n) for n in range(4, 20)]
    bare = BoundaryGraph(3, ((0, 1), (1, 2)), frozenset())
    for values in ENTRY_POINTS:
        with pytest.raises(EigensolverError, match="eigen residual"):
            values(graphs, Tolerances(eigen_residual=0))
        with pytest.raises(InternalFault, match="DtN asymmetry"):
            values(graphs, Tolerances(dtn_symmetry=-1.0))
        with pytest.raises(InternalFault, match="DtN row sums"):
            values(graphs, Tolerances(dtn_rowsum=-1.0))
        with pytest.raises(GraphValidationError, match="no boundary"):
            values(graphs + [bare])
    with pytest.raises(GraphValidationError, match="no boundary"):
        dtn_matrix(bare)


def test_strict_graph_out_of_range_raises_alike_through_both_entry_points():
    # the raw constructor admits what build rejects: a strict path 0-1-2-3
    # whose boundary {0, 1, 3} has the edge (0, 1); its lambda_max is
    # (3 + sqrt 3) / 2, and it shares a stack with two stars
    bad = BoundaryGraph(4, ((0, 1), (1, 2), (2, 3)), frozenset({0, 1, 3}))
    with pytest.raises(InternalFault) as alone:
        steklov_spectrum(bad)
    assert str(alone.value) == "lambda_max = 2.366025403784 exceeds 1"
    for values in ENTRY_POINTS:
        with pytest.raises(InternalFault) as batched:
            values([star(3), bad, star(3)])
        assert str(batched.value) == str(alone.value)


def test_spectra_range_checks_inside_a_batch(monkeypatch):
    # path_tree(3) has spectrum {0, 2/3}, each star {0, 1, ..., 1}, and the
    # relaxed path_tree(1) {0, 2}; path_tree(3) is the one strict graph that
    # each lowered bound flags, and a relaxed graph is never range-checked
    cases = [
        ("LAMBDA1_ZERO", -1.0, [], "lambda_1 = 0.000e+00 is not zero"),
        ("LAMBDA2_FLOOR", 0.7, [star(3), star(5)],
         "lambda_2 = 6.667e-01 is not positive"),
        ("LAMBDA_MAX_SLACK", -0.5, [], "lambda_max = 0.666666666667 exceeds 1"),
    ]
    for bound, value, others, message in cases:
        with monkeypatch.context() as m:
            m.setattr(spectral, bound, value)
            for values in ENTRY_POINTS:
                with pytest.raises(InternalFault) as exc:
                    values([*others[:1], path_tree(1), path_tree(3), *others[1:]])
                assert str(exc.value) == message, bound
    for values in ENTRY_POINTS:
        assert values([path_tree(1)]) == [[0.0, 2.0]]


# ---------------------------------------------------------------------------
# spectrum facade


def test_spectrum_p3():
    s = steklov_spectrum(path_tree(2))
    assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-12)
    assert s.lambda_k(1) == 0.0
    assert abs(s.lambda2 - 1.0) < 1e-12


def test_spectrum_star3():
    s = steklov_spectrum(star(3))
    assert np.allclose(s.eigenvalues, [0.0, 1.0, 1.0], atol=1e-12)
    assert s.groups() == [(1, 1), (2, 3)]
    assert s.group_of(2) == (2, 3)


def test_path_law():
    # the L-edge path has spectral gap exactly 2/L
    for L in range(2, 13):
        assert abs(lambda2(path_tree(L)) - 2.0 / L) < 1e-9


def test_ball_law():
    for D, R in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        expect = (D - 1) / (D**R - 1)
        assert abs(lambda2(ball(D, R)) - expect) < 1e-9


def test_double_ball_law():
    for D, R in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        expect = 2.0 * (D - 1) / (D ** (R + 1) + D**R - 2)
        assert abs(lambda2(double_ball(D, R)) - expect) < 1e-9


def test_double_ball_2_1_full_spectrum():
    s = steklov_spectrum(double_ball(2, 1))
    assert np.allclose(s.eigenvalues, [0.0, 0.5, 1.0, 1.0], atol=1e-10)


def test_spectrum_matches_oracle():
    graphs = [random_tree(5 + seed, seed) for seed in range(15)]
    graphs += [ball(2, 2), double_ball(2, 2), star(6)]
    # a non-tree: 4-cycle with two pendants
    graphs.append(build(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)]))
    for g in graphs:
        s = steklov_spectrum(g)
        assert np.max(np.abs(s.eigenvalues - _oracle_eigs(g))) < 1e-10


def test_spectrum_invariants_random():
    for seed in range(40):
        s = steklov_spectrum(random_tree(4 + seed % 11, seed))
        assert s.eigenvalues[0] == 0.0
        assert s.lambda2 > 0.0
        assert s.eigenvalues[-1] <= 1.0 + 1e-9
        assert np.all(np.diff(s.eigenvalues) >= -1e-12)


def test_relaxed_edge_spectrum():
    s = steklov_spectrum(path_tree(1))
    assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert any("exceeds 1" in note for note in s.notes)


def test_spectrum_eigenpair_solves_system():
    g = random_tree(10, 3)
    s = steklov_spectrum(g)
    for k in range(1, len(s.eigenvalues) + 1):
        lam, f = s.eigenpair(k)
        assert check_steklov_system(g, f, lam) < 1e-9


def test_spectrum_lambda_k_bounds():
    s = steklov_spectrum(star(3))
    with pytest.raises(IndexError):
        s.lambda_k(0)
    with pytest.raises(IndexError):
        s.lambda_k(4)


def test_spectrum_to_json():
    s = steklov_spectrum(path_tree(2))
    doc = s.to_json()
    assert doc["n"] == 3 and doc["boundary"] == [0, 2]
    assert "eigenvectors" not in doc
    doc = s.to_json(include_vectors=True)
    assert len(doc["eigenvectors"]) == 2


# ---------------------------------------------------------------------------
# quadratic-form identities


def test_rayleigh_of_eigen_extensions():
    # energy over boundary mass reproduces the eigenvalue for eigenfunctions
    for g in [path_tree(2), path_tree(3), star(3), ball(2, 2), double_ball(2, 1)]:
        s = steklov_spectrum(g)
        for k in range(2, len(s.eigenvalues) + 1):
            lam, f = s.eigenpair(k)
            assert abs(rayleigh(g, f) - lam) < 1e-9


def test_rayleigh_p3_top():
    lam, f = steklov_spectrum(path_tree(2)).eigenpair(2)
    assert abs(lam - 1.0) < 1e-12
    assert abs(rayleigh(path_tree(2), f) - 1.0) < 1e-12


def test_rayleigh_scale_invariance():
    g = star(4)
    _, f = steklov_spectrum(g).eigenpair(2)
    assert abs(rayleigh(g, f) - rayleigh(g, 13.7 * f)) < 1e-12


def test_rayleigh_rejects_boundary_zero():
    g = path_tree(2)
    with pytest.raises(ValueError):
        rayleigh(g, [0.0, 1.0, 0.0])


def test_variational_bound():
    # any extension orthogonal to constants on the boundary sits above lambda_2
    rng = np.random.default_rng(0)
    for seed in range(25):
        g = random_tree(4 + seed % 10, seed)
        lam2 = lambda2(g)
        b = len(g.boundary)
        vals = rng.normal(size=b)
        vals -= vals.mean()
        if np.max(np.abs(vals)) < 1e-12:
            continue
        f = harmonic_extension(g, vals)
        assert rayleigh(g, f) >= lam2 - 1e-9


def test_normal_derivative_matches_dtn_action():
    g = random_tree(9, 11)
    d = dtn_matrix(g)
    vals = np.sin(np.arange(len(d.boundary), dtype=float))
    f = harmonic_extension(g, vals)
    assert np.max(np.abs(normal_derivative(g, f) - d.matrix @ vals)) < 1e-10


def test_green_identity_random_functions():
    rng = np.random.default_rng(5)
    for g in [path_tree(4), star(5), ball(2, 2), random_tree(12, 2)]:
        for _ in range(100):
            f = rng.normal(size=g.n)
            assert green_identity_gap(g, f) <= 1e-10 * max(1.0, float(f @ f))


def test_green_identity_exact_statement():
    g = ball(2, 1)
    f = np.arange(g.n, dtype=float)
    energy = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
    assert math.isclose(energy, float(laplacian_apply(g, f) @ f), rel_tol=1e-12)
