"""End-to-end acceptance: every law the package claims, at contract tolerances.

One test function per criterion; each prints a single PASS/FAIL line (also
mirrored past pytest's capture so it shows up in live output and tee logs).
Criteria with a runtime budget assert it.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from steklov import (
    HuntConfig,
    ball,
    check_diameter,
    check_doubling,
    check_monotonicity_chain,
    double_ball,
    dtn_matrix,
    edge_flow_residual,
    find_fig1,
    hunt_problem1,
    lambda2,
    path_tree,
    positivity_check,
    random_tree,
    reverify,
    sigma,
    solve_flow,
    star,
    steklov_spectrum,
)
from oracles import green_identity_gap, rayleigh, solve_flow_dense


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.get_plugin("capturemanager")
    yield


def _announce(line: str) -> None:
    print(line, flush=True)  # captured copy, shows in failure reports
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            # leading newline: verbose mode leaves the cursor after the test name
            print(f"\n{line}", flush=True)  # live copy, survives into tee logs


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        _announce(f"FAIL: {label}")
        raise
    _announce(f"PASS: {label}")


def _tree_stream(count: int, lo: int, hi: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        yield random_tree(rng.randint(lo, hi), rng.randrange(2**32)), rng


# ---------------------------------------------------------------------------


def test_01_path_family_law():
    with criterion("path family: spectral gap is 2/L for L = 2..12 (< 1 s)"):
        t0 = time.perf_counter()
        for L in range(2, 13):
            assert abs(lambda2(path_tree(L)) - 2.0 / L) < 1e-9, f"L={L}"
        assert time.perf_counter() - t0 < 1.0


def test_02_ball_family_law():
    with criterion("regular ball family: gap is (D-1)/(D^R - 1)"):
        for D, R in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            expect = (D - 1) / (D**R - 1)
            assert abs(lambda2(ball(D, R)) - expect) < 1e-9, f"D={D} R={R}"


def test_03_double_ball_family_law():
    with criterion("double ball family: gap is 2(D-1)/(D^(R+1) + D^R - 2)"):
        for D, R in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
            expect = 2.0 * (D - 1) / (D ** (R + 1) + D**R - 2)
            assert abs(lambda2(double_ball(D, R)) - expect) < 1e-9, f"D={D} R={R}"


def test_04_monotonicity_500_chains():
    with criterion(
        "gap monotone under leaf removal: 500 random trees, full chains, "
        "0 violations (< 30 s)"
    ):
        t0 = time.perf_counter()
        violations = 0
        for i, (g, _) in enumerate(_tree_stream(500, 4, 14, seed=401)):
            rep = check_monotonicity_chain(g, seed=i)
            if rep.margins["worst_step"] < -1e-8:
                violations += 1
        assert violations == 0
        assert time.perf_counter() - t0 < 30.0


def test_05_doubling_200_pairs():
    with criterion(
        "doubling law: 200 random (tree, vertex) pairs, eigensolve vs branch "
        "flows within 1e-8, glue-vertex vanishing within 1e-7"
    ):
        for g, rng in _tree_stream(200, 4, 14, seed=502):
            x = rng.randrange(g.n)
            rep = check_doubling(g, x)
            assert rep.margins["doubling_gap"] <= 1e-8, rep.instance
            assert rep.margins["wedge_value"] <= 1e-7, rep.instance


def test_06_sigma_route_agreement_200():
    with criterion(
        "sigma routes: 200 random (tree, leaf) pairs, doubling vs bisection "
        "within 1e-8, witnesses vanish and stay positive to 1e-9"
    ):
        for g, rng in _tree_stream(200, 4, 14, seed=603):
            x = rng.choice(sorted(g.boundary))
            res_d = sigma(g, x, method="doubling")
            res_b = sigma(g, x, method="bisection")
            assert abs(res_d.sigma - res_b.sigma) < 1e-8
            for res in (res_d, res_b):
                wit = res.witness
                assert wit is not None
                assert abs(float(wit.values[x])) <= 1e-9
                if res.sigma > 0:
                    assert positivity_check(g, wit)


def test_07_flow_identities_200x5():
    with criterion(
        "flow identities: 200 trees x 5 lambdas transfer-vs-dense within "
        "1e-9, edge-sum identity within 1e-9, witness energy ratio recovers "
        "lambda within 1e-9 at any scale"
    ):
        fracs = (0.0, 0.22, 0.45, 0.7, 0.93)
        for g, rng in _tree_stream(200, 4, 14, seed=704):
            x = rng.choice(sorted(g.boundary))
            cap = min(sigma(g, x, method="bisection").sigma1, 1.0)
            for frac in fracs:
                lam = frac * cap
                a = solve_flow(g, x, lam)
                b = solve_flow_dense(g, x, lam)
                scale = max(1.0, float(np.max(np.abs(a.values))))
                assert float(np.max(np.abs(a.values - b.values))) < 1e-9 * scale
                assert edge_flow_residual(g, a) < 1e-9 * scale
            res = sigma(g, x, method="doubling")
            wit = res.witness
            assert abs(rayleigh(g, wit.values) - res.sigma) < 1e-9
            assert abs(rayleigh(g, -7.5 * wit.values) - res.sigma) < 1e-9


def test_08_operator_sanity():
    with criterion(
        "operator sanity: symmetry 1e-12, row sums 1e-10, spectrum in "
        "[-1e-9, 1+1e-9], positive gap, energy pairing gap 1e-10 on 100 "
        "random functions per graph"
    ):
        graphs = [g for g, _ in _tree_stream(10, 4, 14, seed=805)]
        graphs += [ball(2, 2), double_ball(2, 2), star(5), path_tree(6)]
        pair = find_fig1(6)
        graphs.append(pair.g2)
        rng = np.random.default_rng(805)
        for g in graphs:
            d = dtn_matrix(g)
            m = d.matrix
            assert float(np.max(np.abs(m - m.T))) <= 1e-12
            assert float(np.max(np.abs(m.sum(axis=1)))) <= 1e-10
            spec = steklov_spectrum(g)
            assert spec.eigenvalues[0] >= -1e-9
            assert spec.eigenvalues[-1] <= 1.0 + 1e-9
            assert spec.lambda2 > 0.0
            for _ in range(100):
                f = rng.normal(size=g.n)
                assert green_identity_gap(g, f) <= 1e-10


def test_09_two_thirds_pair():
    with criterion(
        "gap non-monotonicity on general graphs: deleting a cycle vertex "
        "moves the gap 2/3 -> 1/2, both within 1e-9, and the pair reverifies"
    ):
        pair = find_fig1(6)
        assert pair is not None
        assert abs(pair.eigenvalues2[1] - 2.0 / 3.0) <= 1e-9
        assert abs(pair.eigenvalues1[1] - 0.5) <= 1e-9
        assert pair.violating_k == [2]
        assert reverify(pair)


def test_10_diameter_checker():
    with criterion(
        "diameter bound checker: 100 random trees pass; the odd-diameter "
        "path attains the bound and is reported, not failed"
    ):
        for g, _ in _tree_stream(100, 4, 14, seed=1006):
            rep = check_diameter(g)
            assert rep.passed, rep.instance
        odd = check_diameter(path_tree(3))
        assert odd.passed
        assert odd.anomalies, "equality discrepancy must be reported"
        assert odd.details["equality_structure"]["diameter_even"] is False


def test_11_hunt_campaigns():
    with criterion(
        "hunt campaigns: index-2 exhaustive sweep to 9 vertices is clean; "
        "the index->=3 campaign completes reproducibly (< 5 min)"
    ):
        t0 = time.perf_counter()
        gate = hunt_problem1(
            HuntConfig(problem="1", n_max=9, k_min=2, k_max=2, budget=400)
        )
        assert gate.status == "complete"
        assert gate.instances == 323  # every tree on 3..8 vertices, every vertex
        assert gate.violations == []
        assert sum(gate.histogram.values()) == gate.instances

        cfg = HuntConfig(problem="1", n_max=9, k_min=3, budget=400, seed=17)
        rep1 = hunt_problem1(cfg)
        rep2 = hunt_problem1(cfg)
        doc1, doc2 = rep1.to_json(), rep2.to_json()
        doc1.pop("wall_time_s")
        doc2.pop("wall_time_s")
        assert doc1 == doc2, "campaign must be seed-reproducible"
        assert rep1.status == "complete"
        assert rep1.cursor == rep1.instances == 323
        assert rep1.violations == []
        assert set(rep1.to_json()) == {
            "config",
            "instances",
            "violations",
            "histogram",
            "wall_time_s",
            "status",
            "cursor",
            "anomalies",
        }
        assert time.perf_counter() - t0 < 300.0
