"""Tests of the benchmark itself: the oracle, the output checks, the tracer
and the hunt resume path.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import steklov  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("length", range(2, 13))
def test_oracle_path_gap(length):
    assert abs(oracle.lambda2(*oracle.path(length)) - 2.0 / length) < 1e-12


@pytest.mark.parametrize("d,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
def test_oracle_ball_families(d, r):
    assert abs(oracle.lambda2(*oracle.ball(d, r)) - (d - 1) / (d**r - 1)) < 1e-12
    expect = 2.0 * (d - 1) / (d ** (r + 1) + d**r - 2)
    assert abs(oracle.lambda2(*oracle.double_ball(d, r)) - expect) < 1e-12


def test_oracle_graph_helpers():
    n, edges = oracle.path(6)
    assert oracle.diameter(n, edges) == 6
    assert oracle.doubled(n, edges, 0) == (13, edges + [(0, 7)] + [(i + 6, i + 7) for i in range(1, 6)])
    # sigma at the end of a path of length L is 1/L; a branch of the path at
    # vertex 3 towards 4 is a path of length 3
    assert abs(oracle.branch_sigma(n, edges, 3, 4) - 1.0 / 3.0) < 1e-12


def test_oracle_rejects_a_perturbed_eigenvalue():
    n, edges = oracle.ball(2, 2)
    ref = oracle.eigenvalues(n, edges)
    assert oracle.agree(ref, n, edges) is None
    bumped = ref.copy()
    bumped[3] += 1e-8
    assert "lambda_4" in oracle.agree(bumped, n, edges)
    assert oracle.agree(ref[:-1], n, edges) is not None


def test_law_check_rejects_a_perturbed_gap():
    edges = tuple(workloads.random_tree_edges(12, 5))
    c = workloads.CheckInput("diameter", 12, edges, 0)
    report = steklov.check_diameter(steklov.build(12, edges))
    assert workloads.VerifyLaws.report_errors(c, report) == []
    report.details["lambda2"] += 1e-8
    assert workloads.VerifyLaws.report_errors(c, report)


def test_generators_match_the_package():
    for n, seed in ((30, 2), (40, 9), (7, 123)):
        assert steklov.build(n, workloads.random_tree_edges(n, seed)) == steklov.random_tree(n, seed)
    rng = workloads.random.Random(3)
    for n in (40, 150, 400):
        b = workloads.leaf_count(n)
        g = steklov.build(n, workloads.tree_with_leaves(n, b, rng))
        assert len(g.boundary) == b


def test_fault_instances_fail_with_the_witness_fault(tmp_path):
    wl = workloads.VerifyLaws(0, tmp_path)
    faults = [(c, g) for c, g in wl.inputs() if c.expect_fault]
    assert len(faults) == len(workloads.FAULTS)
    c, g = faults[0]
    with pytest.raises(steklov.InternalFault, match="sigma witness"):
        wl.call(c, g)


def test_legged_hunt_equals_one_campaign(tmp_path):
    wl = workloads.HuntTrees(4, tmp_path)
    wl.BUDGET, wl.LEGS = 2000, 4  # the last leg runs past the 1806-instance prefix
    for argv in wl.legs(0):
        assert wl.cli(argv)[1] == 0
    whole = wl.inputs() + ["--budget", "2000", "--out", str(tmp_path / "whole.json")]
    assert wl.cli(whole)[1] == 0
    docs = [json.loads((tmp_path / name).read_text()) for name in ("p0-leg4.json", "whole.json")]
    for doc in docs:
        del doc["wall_time_s"], doc["config"]
    assert docs[0] == docs[1]


def _bindings():
    """Every (module, name) in the package that refers to a function."""
    for modname, mod in sorted(sys.modules.items()):
        if modname == "steklov" or modname.startswith("steklov."):
            for attr, value in vars(mod).items():
                if callable(value) and getattr(value, "__module__", "").startswith("steklov"):
                    yield mod, attr, value


def test_tracer_rebinds_every_name_and_restores_them(tmp_path):
    before = {(m.__name__, a): v for m, a, v in _bindings()}
    t = tracer.Tracer()
    t.install()
    try:
        patched = {(m.__name__, a): v for m, a, v in _bindings()}
        assert patched["steklov.hunt", "steklov_spectrum"] is patched["steklov.spectral", "steklov_spectrum"]
        assert patched["steklov.checks", "sigma"] is patched["steklov", "sigma"]
        assert patched["steklov.cli", "hunt_problem1"] is not before["steklov.cli", "hunt_problem1"]
        steklov.check_doubling(steklov.build(8, workloads.random_tree_edges(8, 1)), 1)
    finally:
        t.uninstall()
    assert {(m.__name__, a): v for m, a, v in _bindings()} == before
    layers = t.layers()
    assert layers["checks.check_doubling"]["calls"] == 1
    assert layers["flows.sigma.bisection"]["calls"] >= 1
    assert all(v["self_s"] >= 0 for v in layers.values())


def test_traced_call_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        wl = workloads.VerifyLaws(9, tmp_path)
        wl._inputs = [(c, g) for c, g in wl.inputs() if c.n <= 12]
        t = tracer.Tracer()
        t.install()
        try:
            wl.run_pass(0)
        finally:
            t.uninstall()
        counts.append({k: v for k, v in t.metrics(0.0).items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["flows.solve_flow.calls"] > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summary_takes_each_operations_least_time():
    Op = workloads.Op
    passes = [
        [Op(0.4), Op(2.0, count=4), Op(0.1, error=steklov.InternalFault("x"))],
        [Op(0.2), Op(3.0, count=4), Op(0.3, error=steklov.InternalFault("x"))],
    ]
    doc = workloads.Workload.summary(passes)
    assert (doc["attempted"], doc["failed"]) == (12, 2)
    assert doc["ops_per_s"] == 5 / (0.2 + 2.0 + 0.1)
    assert doc["op_p50_ms"] == 200.0  # nearest rank over 0.2 s and 2.0/4 s
    assert doc["op_p90_ms"] == 500.0


def test_unknown_failure_is_an_error(tmp_path):
    wl = workloads.VerifyLaws(0, tmp_path)
    c = replace(wl.inputs()[0][0], expect_fault=False)
    op = workloads.Op(0.1, result=c, error=steklov.InternalFault("sigma witness"))
    assert wl.check([op])
