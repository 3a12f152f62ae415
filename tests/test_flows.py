"""Flow calculus on trees: transfer recursion, dense oracle, sigma routes.

Frozen closed forms used as oracles:
  - single edge: sigma at either endpoint is 1, flow at lambda 1 is (1, 0)
  - path with L edges, target a leaf: sigma = 1/L
  - star with 3 rays, target a leaf: sigma = 1/3
  - spider 0-1, 1-2, 1-3-4, target 0: sigma = (5 - sqrt(5))/10
"""

import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steklov import flows
from steklov import (
    DEFAULT_TOLERANCES,
    GraphValidationError,
    InternalFault,
    ResonantLambda,
    build,
    default_norm_vertex,
    edge_flow_residual,
    flow_to_json,
    leaves,
    path_tree,
    positivity_check,
    random_tree,
    sigma,
    solve_flow,
    star,
    verify_flow,
)
from steklov.graphs import _bfs
from oracles import NearSingular, rayleigh, solve_flow_dense

SPIDER = build(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
SPIDER_SIGMA = (5.0 - math.sqrt(5.0)) / 10.0


# ---------------------------------------------------------------------------
# transfer recursion


def transfer_pairs(g, x, lam):
    """The transfer pair of every subtree hanging below x."""
    order, parent, _ = _bfs(g.adjacency, x)
    return flows._transfer(g, order, parent, lam, DEFAULT_TOLERANCES)


def sigma1(g, x):
    """The branch bound sigma1 at leaf x: the resonance-free zone is [0, sigma1)."""
    return sigma(g, x, method="bisection").sigma1


def test_transfer_pairs_p4_hand_values():
    # rooted at 3 on 0-1-2-3 with lambda = 1/3:
    # leaf 0 carries (2/3, 1/3); folding up gives (1/2, 1/2) then (0, 1)
    pairs = transfer_pairs(path_tree(3), 3, 1.0 / 3.0)
    assert math.isclose(pairs[0].c, 2.0 / 3.0) and math.isclose(pairs[0].d, 1.0 / 3.0)
    assert math.isclose(pairs[1].c, 0.5) and math.isclose(pairs[1].d, 0.5)
    assert abs(pairs[2].c) < 1e-15 and math.isclose(pairs[2].d, 1.0)


def _exact_c(g, x, v, lam: Fraction) -> Fraction:
    """c of the subtree at v, rooted away from x, in exact arithmetic."""
    parent = {x: None}
    queue = [x]
    for u in queue:
        for k in g.neighbors(u):
            if k not in parent:
                parent[k] = u
                queue.append(k)

    def c_of(u):
        kids = [k for k in g.neighbors(u) if k != parent[u]]
        if not kids:
            return 1 - lam
        return 1 - sum((1 - c) / c for c in map(c_of, kids))

    return c_of(v)


@given(st.integers(3, 14), st.integers(0, 10**5), st.floats(0.0, 0.2))
@example(7, 0, 0.19999999999999998)  # c at vertex 0 is (1 - 5 lam)/(1 - 3 lam)
@settings(max_examples=60, deadline=None)
def test_transfer_pairs_sum_to_one(n, seed, lam):
    # pairs exist, or the lambda is a true resonance: the coefficient the
    # error names is also below the cutoff when recomputed exactly
    g = random_tree(n, seed)
    x = min(g.boundary)
    try:
        pairs = transfer_pairs(g, x, lam)
    except ResonantLambda as exc:
        exact = _exact_c(g, x, exc.vertex, Fraction(lam))
        assert abs(exact) < DEFAULT_TOLERANCES.resonance
        return
    assert len(pairs) == g.n - 1
    for p in pairs.values():
        assert abs(p.c + p.d - 1.0) < 1e-12


def test_transfer_resonance_star():
    with pytest.raises(ResonantLambda) as exc:
        transfer_pairs(star(3), 1, 1.0)
    assert exc.value.lam == 1.0


# ---------------------------------------------------------------------------
# flow solving


def test_flow_constant_at_lambda_zero():
    g = random_tree(9, 2)
    f = solve_flow(g, min(g.boundary), 0.0)
    assert np.allclose(f.values, 1.0, atol=1e-12)


def test_flow_p3_frozen():
    f = solve_flow(path_tree(2), 2, 0.5)
    assert np.allclose(f.values, [1.0, 0.5, 0.0], atol=1e-12)
    assert f.norm_vertex == 0


def test_flow_p4_frozen():
    f = solve_flow(path_tree(3), 3, 1.0 / 3.0)
    assert np.allclose(f.values, [1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-12)


def test_flow_edge_frozen():
    f = solve_flow(path_tree(1), 1, 1.0)
    assert np.allclose(f.values, [1.0, 0.0], atol=1e-12)


def test_flow_interior_target():
    # center of the 3-star at lambda 1/4: every ray scales by 4/3, then the
    # normalization at a leaf pulls the center value down to 3/4
    g = star(3)
    f = solve_flow(g, 0, 0.25)
    assert np.allclose(f.values, [0.75, 1.0, 1.0, 1.0], atol=1e-12)
    assert verify_flow(g, f) < 1e-12


def test_flow_values_read_only():
    f = solve_flow(path_tree(2), 2, 0.5)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_flow_validation_errors():
    with pytest.raises(ValueError):
        solve_flow(path_tree(2), 2, -0.1)
    with pytest.raises(GraphValidationError):
        solve_flow(path_tree(2), 2, 0.5, w=1)  # interior normalization
    with pytest.raises(GraphValidationError):
        solve_flow(path_tree(2), 2, 0.5, w=2)  # w == target
    cyc = build(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
    with pytest.raises(GraphValidationError):
        solve_flow(cyc, 4, 0.1)
    custom = build(4, [(0, 1), (1, 2), (2, 3)], boundary={0})
    with pytest.raises(GraphValidationError):
        solve_flow(custom, 0, 0.1)


def test_solve_flow_rejects_nonfinite_lambda_and_nan_residual(monkeypatch):
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda must be finite"):
            solve_flow(path_tree(2), 2, lam)
    # a NaN residual compares false with its bound, and is still a fault
    monkeypatch.setattr(flows, "verify_flow", lambda g, flow: math.nan)
    with pytest.raises(InternalFault, match="transfer flow residual nan"):
        solve_flow(path_tree(2), 2, 0.5)


def test_default_norm_vertex():
    assert default_norm_vertex(path_tree(3), 3) == 0
    assert default_norm_vertex(path_tree(3), 0) == 3
    assert default_norm_vertex(SPIDER, 2) == 0


def test_solve_flow_resonance_propagates():
    with pytest.raises(ResonantLambda):
        solve_flow(star(3), 1, 1.0)


# ---------------------------------------------------------------------------
# dense route


def test_dense_matches_transfer():
    worst = 0.0
    for seed in range(20):
        g = random_tree(4 + seed % 9, seed)
        x = min(g.boundary)
        cap = min(sigma1(g, x), 1.0)
        for frac in (0.15, 0.5, 0.85):
            lam = frac * cap
            a = solve_flow(g, x, lam)
            b = solve_flow_dense(g, x, lam)
            scale = max(1.0, float(np.max(np.abs(a.values))))
            worst = max(worst, float(np.max(np.abs(a.values - b.values))) / scale)
    assert worst < 1e-9


def test_dense_handles_cycles():
    g = build(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
    f = solve_flow_dense(g, 4, 0.2)
    assert verify_flow(g, f) < 1e-9
    assert f.values[f.norm_vertex] == pytest.approx(1.0)


def test_dense_near_singular_at_resonance():
    with pytest.raises(NearSingular):
        solve_flow_dense(star(3), 1, 1.0)


# ---------------------------------------------------------------------------
# residuals and positivity


@given(st.integers(4, 12), st.integers(0, 10**5))
@settings(max_examples=40, deadline=None)
def test_residuals_small_on_solved_flows(n, seed):
    g = random_tree(n, seed)
    x = max(g.boundary)
    lam = 0.4 * min(sigma1(g, x), 1.0)
    f = solve_flow(g, x, lam)
    assert verify_flow(g, f) < 1e-10 * max(1.0, float(np.max(np.abs(f.values))))
    assert edge_flow_residual(g, f) < 1e-9 * max(1.0, float(np.max(np.abs(f.values))))


def test_positivity_flips_across_sigma():
    below = solve_flow(SPIDER, 0, 0.2)
    above = solve_flow(SPIDER, 0, 0.6)
    assert positivity_check(SPIDER, below) is True
    assert positivity_check(SPIDER, above) is False


def test_positivity_needs_positive_lambda():
    f = solve_flow(SPIDER, 0, 0.0)
    with pytest.raises(ValueError):
        positivity_check(SPIDER, f)


# ---------------------------------------------------------------------------
# sigma: frozen values, route agreement, witness laws


FROZEN_SIGMA = [
    (path_tree(1), 0, 1.0),
    (path_tree(2), 0, 0.5),
    (path_tree(3), 0, 1.0 / 3.0),
    (star(3), 1, 1.0 / 3.0),
    (SPIDER, 0, SPIDER_SIGMA),
]


@pytest.mark.parametrize("g,x,expect", FROZEN_SIGMA)
def test_sigma_frozen_both_routes(g, x, expect):
    for method in ("doubling", "bisection"):
        res = sigma(g, x, method=method)
        assert res.method == method
        assert abs(res.sigma - expect) < 1e-8


def test_sigma_path_law():
    # doubling a path at a leaf gives the double-length path: sigma = 1/L
    for L in range(1, 7):
        assert abs(sigma(path_tree(L), 0).sigma - 1.0 / L) < 1e-10


def test_sigma_routes_agree_random():
    for seed in range(30):
        g = random_tree(4 + seed % 9, seed + 100)
        x = min(g.boundary)
        d = sigma(g, x, method="doubling").sigma
        b = sigma(g, x, method="bisection").sigma
        assert abs(d - b) < 1e-8


def test_sigma_bisection_on_steep_flow():
    # near sigma the flow at vertex 0 is so steep that a lambda-bracket of
    # width 1e-11 leaves |f(0)| above the witness bound
    g = random_tree(30, 2)
    b = sigma(g, 0, method="bisection")
    assert abs(b.witness.values[0]) <= DEFAULT_TOLERANCES.sigma_witness
    assert abs(b.sigma - sigma(g, 0, method="doubling").sigma) < 1e-8


def test_sigma_routes_agree_large_trees():
    for n in (*range(30, 61, 5), 80, 120, 160, 200):
        g = random_tree(n, n)
        for x in (min(g.boundary), max(g.boundary)):
            d = sigma(g, x, method="doubling").sigma
            b = sigma(g, x, method="bisection").sigma
            assert abs(d - b) < 1e-10


def test_sigma_bisection_solves_one_flow(monkeypatch):
    # the bisection probes the transfer coefficients; only the witness is a flow
    calls = []
    solve = flows.solve_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flows, "solve_flow", counted)
    cases = [(g, x) for g, x, _ in FROZEN_SIGMA]
    for g, x in cases + [(random_tree(30, 2), 0), (path_tree(257), 0)]:
        calls.clear()
        sigma(g, x, method="bisection")
        assert len(calls) == 1


def test_sigma_bisection_long_path_skips_the_doubling_route(monkeypatch):
    # sigma / sigma1 = 256/257: the zero sits in the last 1/257 of (0, sigma1)
    def refuse(*args, **kwargs):
        raise AssertionError("the bisection route called the doubling route")

    monkeypatch.setattr(flows, "double_at", refuse)
    monkeypatch.setattr(flows, "steklov_spectrum", refuse)
    res = sigma(path_tree(257), 0, method="bisection")
    assert abs(res.sigma - 1.0 / 257.0) < 1e-10


def test_sigma_bisection_needs_no_recursion():
    # one stack frame per tree level would overrun this limit
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 80)
    try:
        res = sigma(path_tree(100), 0, method="bisection")
    finally:
        sys.setrecursionlimit(old)
    assert abs(res.sigma - 0.01) < 1e-10


@given(st.integers(3, 20), st.integers(0, 10**5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_one_sign_change_below_sigma1(n, seed, last):
    # below sigma1 every coefficient under x's neighbor x1 stays positive,
    # so f(x), which has the sign of c at x1, changes sign at most once
    g = random_tree(n, seed)
    x = max(g.boundary) if last else min(g.boundary)
    (x1,) = g.neighbors(x)
    s1 = sigma1(g, x)
    signs = []
    for i in range(1, 41):
        lam = s1 * i / 41.0
        pairs = transfer_pairs(g, x, lam)
        assert all(p.c > 0.0 for v, p in pairs.items() if v != x1)
        signs.append(solve_flow(g, x, lam).values[x] > 0.0)
    assert sum(a != b for a, b in zip(signs, signs[1:])) <= 1


def test_sigma_witness_laws():
    for g, x, expect in FROZEN_SIGMA:
        res = sigma(g, x, method="bisection")
        wit = res.witness
        assert wit is not None
        assert abs(wit.values[x]) <= 1e-9
        if res.sigma > 0:
            assert positivity_check(g, wit)
        # energy over boundary mass recovers the eigenvalue, at any scale
        assert abs(rayleigh(g, wit.values) - res.sigma) < 1e-9
        assert abs(rayleigh(g, 3.25 * wit.values) - res.sigma) < 1e-9


def test_sigma_result_fields():
    res = sigma(path_tree(3), 0, method="bisection")
    assert res.sigma1 is not None and res.sigma < res.sigma1
    res_d = sigma(path_tree(3), 0, method="doubling")
    assert res_d.sigma1 is None


def test_sigma_below_upper_bound_random():
    for seed in range(20):
        g = random_tree(5 + seed % 8, seed + 55)
        x = min(g.boundary)
        s1 = sigma1(g, x)
        assert sigma(g, x).sigma < s1 + 1e-12


def test_sigma_monotone_under_path_growth():
    vals = [sigma(path_tree(L), 0).sigma for L in range(1, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sigma_validation():
    with pytest.raises(GraphValidationError):
        sigma(path_tree(2), 1)  # interior vertex
    with pytest.raises(ValueError):
        sigma(path_tree(2), 0, method="newton")
    cyc = build(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
    with pytest.raises(GraphValidationError):
        sigma(cyc, 4)


def test_sigma_upper_bound_values():
    assert sigma1(path_tree(1), 0) is None
    # sigma1 at a path's leaf is sigma of the path one edge shorter
    for L in range(2, 41):
        assert abs(sigma1(path_tree(L), 0) - 1.0 / (L - 1)) < 1e-15
    with pytest.raises(GraphValidationError):
        sigma1(path_tree(2), 1)


# ---------------------------------------------------------------------------
# serialization of flows


def test_flow_to_json():
    g = path_tree(3)
    f = solve_flow(g, 3, 1.0 / 3.0)
    doc = flow_to_json(g, f)
    assert doc["lambda"] == pytest.approx(1.0 / 3.0)
    assert doc["target"] == 3 and doc["norm_vertex"] == 0
    assert doc["values"] == pytest.approx([1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])
    assert doc["residual_system"] < 1e-12
    assert doc["residual_edge_flow"] < 1e-12


def test_leaves_helper_consistency():
    # flow preconditions quietly rely on this equivalence
    g = random_tree(10, 42)
    assert g.boundary == leaves(g)
