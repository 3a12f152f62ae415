"""Executable law checkers: instance oracles, random batches, error paths."""

import json
import math

import pytest

from steklov import (
    GraphValidationError,
    InternalFault,
    Tolerances,
    add_pendant,
    ball,
    build,
    check_branch_dichotomy,
    check_degree_diameter,
    check_diameter,
    check_doubling,
    check_monotonicity_chain,
    check_partition,
    diameter,
    diameter_decomposition,
    double_ball,
    doubled_branch_graph,
    from_graph6,
    leaves,
    path_tree,
    random_tree,
    star,
    steklov_spectrum,
    tree_canonical_form,
    trees_isomorphic,
)

from oracles import bfs_diameter


# ---------------------------------------------------------------------------
# monotonicity under leaf removal


def test_monotonicity_p4_chain():
    r = check_monotonicity_chain(path_tree(3), seed=1)
    assert r.passed
    assert r.margins["worst_step"] >= -1e-8
    sizes = [n for n, _ in r.details["chain"]]
    assert sizes == [4, 3]
    gaps = [lam for _, lam in r.details["chain"]]
    assert gaps[0] <= gaps[1] + 1e-8


def test_monotonicity_minimal_tree_is_vacuous():
    r = check_monotonicity_chain(path_tree(2))
    assert r.passed
    assert r.margins["worst_step"] == math.inf
    assert any("empty" in a for a in r.anomalies)


def test_monotonicity_seed_changes_chain():
    g = random_tree(10, 0)
    chains = {
        tuple(tuple(step) for step in check_monotonicity_chain(g, seed=s).details["chain"])
        for s in range(6)
    }
    assert len(chains) > 1  # different removal orders explored
    r1 = check_monotonicity_chain(g, seed=3)
    r2 = check_monotonicity_chain(g, seed=3)
    assert r1.details["chain"] == r2.details["chain"]


def test_monotonicity_random_batch():
    for seed in range(25):
        r = check_monotonicity_chain(random_tree(4 + seed % 11, seed), seed=seed)
        assert r.passed, r.json_line()


def test_monotonicity_rejects_non_tree():
    cyc = build(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
    with pytest.raises(GraphValidationError):
        check_monotonicity_chain(cyc)


# ---------------------------------------------------------------------------
# doubling law


def test_doubling_p3_at_leaf():
    r = check_doubling(path_tree(2), 2)
    assert r.passed
    assert r.margins["doubling_gap"] <= 1e-8
    assert r.margins["wedge_value"] <= 1e-7
    assert r.details["lambda2_double"] == pytest.approx(0.5, abs=1e-9)
    assert r.details["branch_sigmas"] == {"1": pytest.approx(0.5, abs=1e-9)}


def test_doubling_star_at_center():
    r = check_doubling(star(3), 0)
    assert r.passed
    assert r.details["lambda2_double"] == pytest.approx(1.0, abs=1e-9)
    assert set(r.details["branch_sigmas"]) == {"1", "2", "3"}
    for s in r.details["branch_sigmas"].values():
        assert s == pytest.approx(1.0, abs=1e-9)


def test_doubling_p4_at_interior():
    r = check_doubling(path_tree(3), 1)
    assert r.passed
    # branch through vertex 2 is the long side: sigma = 1/2 beats the bare edge
    assert r.details["branch_sigmas"]["0"] == pytest.approx(1.0, abs=1e-8)
    assert r.details["branch_sigmas"]["2"] == pytest.approx(0.5, abs=1e-8)
    assert r.details["lambda2_double"] == pytest.approx(0.5, abs=1e-9)


def test_doubling_random_batch():
    for seed in range(20):
        g = random_tree(4 + seed % 8, seed + 10)
        x = seed % g.n
        r = check_doubling(g, x)
        assert r.passed, r.json_line()


def test_doubling_vertex_range():
    with pytest.raises(GraphValidationError):
        check_doubling(path_tree(2), 17)


# ---------------------------------------------------------------------------
# partition of the gap by vertex type


def test_partition_boundary_strict():
    r = check_partition(path_tree(2), 0)
    assert r.passed
    assert r.details["lambda2"] == pytest.approx(1.0, abs=1e-9)
    assert r.details["sigma"] == pytest.approx(0.5, abs=1e-9)
    assert r.margins["strict_margin"] == pytest.approx(0.5, abs=1e-8)
    assert r.details["sigma_route"] == "doubling"
    assert "kind=boundary" in r.instance


def test_partition_interior_equality_allowed():
    # doubling the star at its center leaves the gap untouched
    r = check_partition(star(3), 0)
    assert r.passed
    assert "kind=interior" in r.instance
    assert abs(r.margins["interior_margin"]) <= 1e-8


def test_partition_interior_strict_drop():
    r = check_partition(path_tree(3), 1)
    assert r.passed
    assert r.margins["interior_margin"] > 0.1  # 2/3 vs 1/2


def test_partition_ball_leaf():
    g = ball(2, 2)
    r = check_partition(g, max(g.boundary))
    assert r.passed
    assert r.margins["strict_margin"] > 0


def test_partition_random_batch():
    for seed in range(15):
        g = random_tree(5 + seed % 7, seed + 30)
        for x in (min(g.boundary), min(g.interior)):
            r = check_partition(g, x)
            assert r.passed, r.json_line()


# ---------------------------------------------------------------------------
# diameter bound and its equality structure


def test_diameter_even_path_consistent():
    r = check_diameter(path_tree(4))
    assert r.passed and not r.anomalies
    assert abs(r.margins["bound_margin"]) <= 1e-8
    st = r.details["equality_structure"]
    assert st["diameter_even"] and st["branches_only_at_midpoint"]
    assert st["midpoint_double_at_least_bound"] is True


def test_diameter_odd_path_reports_discrepancy():
    # odd paths attain 2/L too: the checker must report, never assert
    r = check_diameter(path_tree(3))
    assert r.passed
    assert r.anomalies and "structure" in r.anomalies[0]
    assert r.details["equality_structure"]["diameter_even"] is False


def test_diameter_strict_case_no_structure():
    r = check_diameter(ball(2, 2))
    assert r.passed and not r.anomalies
    assert r.margins["bound_margin"] > 0.1  # 1/2 - 1/3
    assert "equality_structure" not in r.details


def test_diameter_caterpillar_equality():
    # midpoint may carry a branch as long as its doubled gap clears the bound
    g = add_pendant(path_tree(4), 2)
    r = check_diameter(g)
    assert r.passed and not r.anomalies
    assert r.details["lambda2"] == pytest.approx(0.5, abs=1e-9)
    assert r.details["lambda2_midpoint_double"] == pytest.approx(1.0, abs=1e-9)
    assert r.details["boundary_counts"] == [0, 0, 1, 0, 0]


def test_diameter_random_batch():
    for seed in range(20):
        r = check_diameter(random_tree(4 + seed % 10, seed + 60))
        assert r.passed, r.json_line()


def test_diameter_decomposition_fields():
    g = add_pendant(path_tree(4), 2)
    dec = diameter_decomposition(g)
    assert len(dec.path) == 5
    assert set(dec.path) == {0, 1, 2, 3, 4}
    assert dec.boundary_counts == (0, 0, 1, 0, 0)
    assert dec.h2 is not None and dec.h2.n == 2
    assert dec.h2_center == 0


def test_diameter_decomposition_bare_path():
    dec = diameter_decomposition(path_tree(4))
    assert dec.boundary_counts == (0, 0, 0, 0, 0)
    assert dec.h2 is None and dec.h2_center is None


# ---------------------------------------------------------------------------
# degree-diameter bound with rigidity


def test_degree_diameter_even_equality_rigid():
    r = check_degree_diameter(ball(2, 2), 2, 4)
    assert r.passed
    assert abs(r.margins["bound_margin"]) <= 1e-8
    assert r.details["rigidity"] == "confirmed"
    assert r.details["rigidity_mode"] == "contains_doubled_branch"
    assert r.details["parity"] == "even"


def test_degree_diameter_odd_equality_rigid():
    r = check_degree_diameter(double_ball(2, 1), 2, 3)
    assert r.passed
    assert r.details["rigidity"] == "confirmed"
    assert r.details["rigidity_mode"] == "isomorphic_to_double_ball"
    assert r.details["bound"] == pytest.approx(0.5, abs=1e-12)


def test_degree_diameter_star_equality():
    r = check_degree_diameter(star(3), 2, 2)
    assert r.passed
    assert r.details["bound"] == pytest.approx(1.0)
    assert r.details["rigidity"] == "confirmed"


def test_degree_diameter_strict():
    r = check_degree_diameter(path_tree(4), 2, 4)
    assert r.passed
    assert r.margins["bound_margin"] > 0.1  # 1/2 vs 1/3
    assert r.details["rigidity"] == "not_applicable"


def test_degree_diameter_large_equality_skips_rigidity():
    g = ball(2, 4)  # n = 46 > 20, gap = 1/15 attains the bound
    r = check_degree_diameter(g, 2, 8)
    assert r.passed
    assert abs(r.margins["bound_margin"]) <= 1e-8
    assert any("skipped" in a for a in r.anomalies)
    assert "rigidity" not in r.details


def test_degree_diameter_validation():
    with pytest.raises(GraphValidationError):
        check_degree_diameter(path_tree(4), 1, 4)  # D too small
    with pytest.raises(GraphValidationError):
        check_degree_diameter(star(4), 2, 2)  # degree 4 > D + 1
    with pytest.raises(GraphValidationError):
        check_degree_diameter(path_tree(5), 2, 4)  # diameter 5 > L


def test_degree_diameter_random_batch():
    for seed in range(15):
        g = random_tree(5 + seed % 8, seed + 200)
        D = max(2, max(g.degree(v) for v in range(g.n)) - 1)
        r = check_degree_diameter(g, D, diameter(g))
        assert r.passed, r.json_line()


def test_doubled_branch_graph_shape():
    # D=2, R=2: 4-vertex half doubled into 7 vertices
    g = doubled_branch_graph(2, 2)
    assert g.n == 7
    assert max(g.degree(v) for v in range(g.n)) == 3
    # R=1 collapses to the 2-path
    assert trees_isomorphic(doubled_branch_graph(2, 1), path_tree(2))
    with pytest.raises(GraphValidationError):
        doubled_branch_graph(1, 2)


# ---------------------------------------------------------------------------
# branch dichotomy


def test_dichotomy_all_equal_star():
    r = check_branch_dichotomy(star(3), 0)
    assert r.passed
    assert r.details["below"] == []
    assert len(r.details["equal"]) == 3
    assert r.margins["vanishing_at_z"] <= 1e-7


def test_dichotomy_one_below_p4():
    r = check_branch_dichotomy(path_tree(3), 1)
    assert r.passed
    assert r.details["below"] == [2]
    assert r.details["equal"] == []
    assert "vanishing_at_z" not in r.margins


def test_dichotomy_double_ball_center():
    r = check_branch_dichotomy(double_ball(2, 1), 0)
    assert r.passed
    assert r.details["below"] == [1]
    assert r.details["branch_sigmas"]["1"] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_dichotomy_random_batch():
    for seed in range(15):
        g = random_tree(5 + seed % 8, seed + 400)
        z = max(range(g.n), key=g.degree)
        r = check_branch_dichotomy(g, z)
        assert r.passed, r.json_line()


def test_dichotomy_validation():
    with pytest.raises(GraphValidationError):
        check_branch_dichotomy(path_tree(3), 0)  # leaf
    with pytest.raises(GraphValidationError):
        check_branch_dichotomy(path_tree(3), 9)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_line_round_trip():
    r = check_doubling(path_tree(2), 2)
    doc = json.loads(r.json_line())
    assert doc["check"] == "doubling"
    assert doc["passed"] is True
    assert "g6=" in doc["instance"]
    assert set(doc["margins"]) == {"doubling_gap", "wedge_value"}
    assert doc["anomalies"] == []


def test_instance_string_is_reconstructible():
    from steklov import from_graph6

    r = check_diameter(random_tree(8, 77))
    g6 = r.instance.split("g6=")[1].split()[0]
    g = from_graph6(g6)
    assert tree_canonical_form(g) == tree_canonical_form(random_tree(8, 77))


# ---------------------------------------------------------------------------
# large trees


@pytest.mark.parametrize("n", [200, 500, 1000])
def test_checkers_on_large_trees(n):
    # the diameter and the report's graph6 take linear time, so these four
    # reports cost little more than their eigensolves
    g = random_tree(n, 11)
    hub = max(range(n), key=lambda v: (g.degree(v), -v))
    length = bfs_diameter(g)
    reports = [
        check_diameter(g),
        check_degree_diameter(g, g.degree(hub) - 1, diameter(g)),
        check_partition(g, min(g.boundary)),
        check_partition(g, hub),
    ]
    for r in reports:
        assert r.passed, r.json_line()
        assert from_graph6(r.instance.split("g6=")[1].split()[0]).edges == g.edges
    assert reports[0].details["diameter"] == reports[1].details["L"] == length


# ---------------------------------------------------------------------------
# tolerances


def test_harmonic_residual_override_reaches_the_extensions():
    # a negative bound fails every extension, so each route that extends an
    # eigenvector must raise: the override reached it
    g, tol = random_tree(12, 3), Tolerances(harmonic_residual=-1.0)
    with pytest.raises(InternalFault, match="harmonic extension residual"):
        check_doubling(g, 1, tol)
    with pytest.raises(InternalFault, match="harmonic extension residual"):
        steklov_spectrum(g, tol).eigenpair(2)
