"""Graph container, surgeries, generators, and isomorphism machinery."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    BoundaryGraph,
    GraphValidationError,
    add_pendant,
    ball,
    branch,
    build,
    diameter,
    diametral_path,
    double_at,
    double_ball,
    enumerate_graphs,
    is_subgraph,
    leaves,
    path_tree,
    random_tree,
    remove_leaf,
    star,
    tree_canonical_form,
    tree_center,
    trees_isomorphic,
)
from steklov.graphs import SUBGRAPH_LIMIT, _below

from oracles import prufer_tree, wedge_sum


# ---------------------------------------------------------------------------
# construction and validation


def test_build_p3():
    g = build(3, [(0, 1), (1, 2)])
    assert g.boundary == frozenset({0, 2})
    assert g.interior == frozenset({1})
    assert g.is_tree
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)


def test_build_rejects_vertex_out_of_range():
    with pytest.raises(GraphValidationError):
        build(2, [(0, 2)])


def test_build_rejects_self_loop():
    with pytest.raises(GraphValidationError):
        build(3, [(0, 0), (0, 1), (1, 2)])


def test_build_rejects_multi_edge():
    with pytest.raises(GraphValidationError):
        build(3, [(0, 1), (1, 0), (1, 2)])


def test_build_rejects_disconnected():
    with pytest.raises(GraphValidationError):
        build(4, [(0, 1), (2, 3)])


def test_build_rejects_empty_boundary():
    with pytest.raises(GraphValidationError):
        build(3, [(0, 1), (1, 2), (0, 2)])  # triangle has no leaves


def test_strict_rejects_boundary_boundary_edge():
    with pytest.raises(GraphValidationError):
        build(2, [(0, 1)], strict=True)


def test_strict_rejects_disconnected_interior():
    # interior {0, 3} is split by the boundary vertex 2 sitting between them
    edges = [(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)]
    with pytest.raises(GraphValidationError, match="interior"):
        build(6, edges, boundary={1, 2, 4, 5}, strict=True)


def test_relaxed_allows_single_edge():
    g = build(2, [(0, 1)], strict=False)
    assert g.boundary == frozenset({0, 1})
    assert g.interior == frozenset()
    assert not g.strict


def test_explicit_boundary_respected():
    g = build(4, [(0, 1), (1, 2), (2, 3)], boundary={0})
    assert g.boundary == frozenset({0})
    assert not g.is_default_boundary


def test_leaves():
    assert leaves(star(4)) == frozenset({1, 2, 3, 4})
    assert leaves(path_tree(3)) == frozenset({0, 3})


# ---------------------------------------------------------------------------
# branches


def test_branch_vertices_and_closed():
    g = path_tree(3)  # 0-1-2-3
    sub, relabel = branch(g, 2, 1)
    assert sub.n == 3
    assert sub.is_tree
    # relabeled copy of 1-2-3
    assert relabel == {1: 0, 2: 1, 3: 2}


def test_branch_single_edge_is_relaxed():
    g = star(3)
    sub, relabel = branch(g, 1, 0)
    assert sub.n == 2
    assert not sub.strict
    assert relabel[0] in sub.boundary


def test_branch_requires_edge():
    with pytest.raises(GraphValidationError):
        branch(path_tree(3), 0, 2)


def test_branch_rejects_non_tree():
    g = build(4, [(0, 1), (1, 2), (2, 3), (1, 3)], boundary={0})
    with pytest.raises(GraphValidationError):
        branch(g, 1, 0)


# ---------------------------------------------------------------------------
# surgeries


def _closed_component(g, u, v):
    """branch(g, u, v) from scratch: the component of u once edge (u, v)
    is gone, plus v, relabelled in id order."""
    side = {u}
    grew = True
    while grew:
        grew = False
        for a, b in g.edges:
            if {a, b} != {u, v} and (a in side) != (b in side):
                side |= {a, b}
                grew = True
    side.add(v)
    relabel = {old: new for new, old in enumerate(sorted(side))}
    edges = [(relabel[a], relabel[b]) for a, b in g.edges if a in side and b in side]
    return build(len(side), edges, strict=len(side) > 2), relabel


def test_branch_equals_the_relabelled_closed_component():
    trees = [path_tree(1), path_tree(4), star(3), ball(2, 2), double_ball(2, 1)]
    trees += [random_tree(n, seed) for n in range(3, 25) for seed in range(2)]
    for g in trees:
        for a, b in g.edges:
            for u, v in ((a, b), (b, a)):
                assert branch(g, u, v) == _closed_component(g, u, v)


def test_double_at_leaf_counts():
    g = path_tree(2)
    d = double_at(g, 2)
    assert d.n == 2 * g.n - 1
    assert trees_isomorphic(d, path_tree(4))
    assert d.degree(2) == 2


def test_double_at_interior():
    g = path_tree(3)
    d = double_at(g, 1)
    assert d.n == 7
    assert d.degree(1) == 4
    assert sorted(d.degree(v) for v in range(7)) == [1, 1, 1, 1, 2, 2, 4]


def test_double_at_equals_the_wedge_with_itself():
    cases = _surgery_cases()
    assert any(not g.is_tree for g in cases)
    rejections = 0
    for g in cases:
        for x in range(g.n):
            try:
                wedge, glue = wedge_sum(g, x, g, x)
            except GraphValidationError as exc:
                with pytest.raises(GraphValidationError) as fast:
                    double_at(g, x)
                assert str(fast.value) == str(exc)
                rejections += 1
                continue
            assert glue == x
            assert double_at(g, x) == wedge
    assert rejections > 0  # a boundary of x alone doubles to an empty one
    for x in (-1, 4):
        with pytest.raises(GraphValidationError, match="glue vertex out of range"):
            double_at(path_tree(3), x)


def test_add_pendant_then_remove_round_trip():
    g = path_tree(3)
    g2 = add_pendant(g, 1)
    assert g2.n == g.n + 1
    assert g2.degree(g.n) == 1
    back, relabel = remove_leaf(g2, g.n)
    assert back.edges == g.edges
    assert relabel[0] == 0


def test_remove_leaf_requires_leaf():
    with pytest.raises(GraphValidationError):
        remove_leaf(path_tree(3), 1)


def _pendant_by_build(g, x):
    """add_pendant as a full rebuild: the whole edge list through build."""
    bnd = None if g.is_default_boundary else set(g.boundary) | {g.n}
    return build(g.n + 1, list(g.edges) + [(x, g.n)], boundary=bnd, strict=g.strict)


def _fresh(g):
    """The same graph with nothing cached, so every property is recomputed."""
    return BoundaryGraph(g.n, g.edges, g.boundary, g.strict)


def _surgery_cases():
    from steklov.hunt import _random_general_graph

    rng = random.Random(11)
    cases = [path_tree(1), path_tree(2), star(3), ball(2, 2)]
    cases += [random_tree(n, seed) for n in range(3, 16) for seed in range(3)]
    cases += list(enumerate_graphs(5))  # cycles, default boundary
    cases += [_random_general_graph(n, rng) for n in range(8, 13)]
    # custom boundaries, strict and relaxed, kept where build accepts them
    for n in range(4, 12):
        t = random_tree(n, 100 + n)
        tips = sorted(leaves(t))
        for _ in range(6):
            some_tips = rng.sample(tips, rng.randint(1, len(tips)))
            anything = rng.sample(range(n), rng.randint(1, n - 1))
            for bnd, strict in itertools.product((some_tips, anything), (True, False)):
                try:
                    g = build(n, t.edges, boundary=bnd, strict=strict)
                except GraphValidationError:
                    continue
                if not g.is_default_boundary:
                    cases.append(g)
    return cases


def test_add_pendant_equals_build_of_the_grown_edge_list():
    cases = _surgery_cases()
    assert sum(not g.strict and not g.is_default_boundary for g in cases) > 5
    assert sum(g.strict and not g.is_default_boundary for g in cases) > 5
    strict_rejections = 0
    for g in cases:
        for x in range(g.n):
            try:
                slow = _pendant_by_build(g, x)
            except GraphValidationError as exc:
                with pytest.raises(GraphValidationError) as fast:
                    add_pendant(g, x)
                assert str(fast.value) == str(exc)
                strict_rejections += 1
                continue
            fast = add_pendant(g, x)
            assert fast == slow
            assert fast.adjacency == slow.adjacency == _fresh(fast).adjacency
            assert fast.is_default_boundary == _fresh(slow).is_default_boundary
            assert slow.is_default_boundary == _fresh(slow).is_default_boundary
    assert strict_rejections > 0  # custom strict boundaries with x on them


def test_add_pendant_rejects_out_of_range_vertex():
    for x in (-1, 4):
        with pytest.raises(GraphValidationError, match=f"vertex {x} out of range"):
            add_pendant(path_tree(3), x)


def test_leaves_counts_degrees_as_the_adjacency_does():
    cases = _surgery_cases()
    assert sum(not g.is_default_boundary for g in cases) > 10
    for g in cases:
        by_adjacency = frozenset(v for v in range(g.n) if len(g.adjacency[v]) == 1)
        assert leaves(g) == by_adjacency


# ---------------------------------------------------------------------------
# generators


def test_path_tree_shapes():
    g = path_tree(5)
    assert g.n == 6
    assert diameter(g) == 5
    assert g.boundary == frozenset({0, 5})
    assert path_tree(1).n == 2


def test_star_shapes():
    g = star(5)
    assert g.n == 6
    assert g.degree(0) == 5
    assert len(g.boundary) == 5
    with pytest.raises(GraphValidationError):
        star(2)


def test_ball_shapes():
    g = ball(2, 2)
    assert g.n == 1 + 3 + 6
    assert g.degree(0) == 3
    assert diameter(g) == 4
    assert len(leaves(g)) == 6


def test_double_ball_shapes():
    g = double_ball(2, 1)
    assert g.n == 6
    assert g.degree(0) == 3 and g.degree(1) == 3
    assert diameter(g) == 3
    g2 = double_ball(2, 2)
    assert g2.n == 14
    assert diameter(g2) == 5


@given(st.integers(3, 20), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_tree_is_tree(n, seed):
    g = random_tree(n, seed)
    assert g.n == n
    assert len(g.edges) == n - 1
    assert g.is_tree
    assert g.boundary == leaves(g)


def test_random_tree_deterministic():
    assert random_tree(9, 5).edges == random_tree(9, 5).edges
    alternatives = {random_tree(9, s).edges for s in range(10)}
    assert len(alternatives) > 1


def test_random_tree_equals_build_of_its_decode():
    # random_tree skips build; the validated decode must give the same graph
    for n in range(3, 201):
        for seed in (0, 1, n, 7919 * n + 13):
            fast = random_tree(n, seed)
            slow = prufer_tree(n, seed)
            assert fast == slow, (n, seed)
            assert fast.adjacency == slow.adjacency
            assert fast.is_default_boundary is True


def test_below_draws_as_randrange_and_randint_do():
    sizes = list(range(1, 71)) + [2**k for k in range(41)] + [2**32, 2**32 + 1]
    for seed in (0, 1, 12345, "3:1806"):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in sizes:
            for _ in range(3):
                assert _below(ours, n) == theirs.randrange(n), (seed, n)
        for lo, hi in ((0, 0), (11, 11), (11, 13), (8, 15), (-5, 64), (3, 2**32)):
            for _ in range(3):
                assert lo + _below(ours, hi - lo + 1) == theirs.randint(lo, hi)
        assert ours.getstate() == theirs.getstate()


def test_prufer_bijection_count():
    # all 5^3 sequences give distinct labeled trees on 5 vertices
    from steklov.graphs import _prufer_decode

    seen = set()
    for seq in itertools.product(range(5), repeat=3):
        edges = _prufer_decode(list(seq), 5)
        seen.add(tuple(sorted(tuple(sorted(e)) for e in edges)))
    assert len(seen) == 125


# ---------------------------------------------------------------------------
# metrics


def test_diameter_and_path():
    g = path_tree(4)
    assert diameter(g) == 4
    p = diametral_path(g)
    assert p[0] in {0, 4} and p[-1] in {0, 4} and len(p) == 5
    assert diameter(star(3)) == 2


def test_diametral_path_is_a_path():
    g = random_tree(12, 3)
    p = diametral_path(g)
    assert len(p) == diameter(g) + 1
    for a, b in zip(p, p[1:]):
        assert b in g.neighbors(a)


def test_tree_center():
    assert tree_center(path_tree(4)) == 2
    assert tree_center(star(5)) == 0
    # bicentral path: smallest id wins the tie
    assert tree_center(path_tree(3)) == 1


# ---------------------------------------------------------------------------
# isomorphism and containment


def test_canonical_form_invariant_under_relabeling():
    g = build(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    h = build(5, [(4, 3), (3, 1), (1, 0), (1, 2)])
    assert tree_canonical_form(g) == tree_canonical_form(h)
    assert trees_isomorphic(g, h)


def test_canonical_form_separates():
    assert not trees_isomorphic(star(3), path_tree(3))
    assert not trees_isomorphic(path_tree(4), star(4))


def test_is_subgraph_basics():
    assert is_subgraph(path_tree(2), star(3))
    assert is_subgraph(path_tree(3), path_tree(5))
    assert not is_subgraph(star(3), path_tree(5))
    assert not is_subgraph(path_tree(5), path_tree(3))


def test_is_subgraph_limit_guard():
    assert SUBGRAPH_LIMIT == 20
    assert is_subgraph(path_tree(3), path_tree(SUBGRAPH_LIMIT - 1))
    with pytest.raises(GraphValidationError, match="limited to 20 vertices"):
        is_subgraph(path_tree(3), random_tree(21, 0))


def test_frozen_graph_is_hashable_value():
    g1 = path_tree(3)
    g2 = build(4, [(0, 1), (1, 2), (2, 3)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 in {g2}


def test_repr_mentions_shape():
    r = repr(path_tree(2))
    assert "n=3" in r and "boundary=[0, 2]" in r
