"""Command-line surface: golden outputs, exit codes, plumbing."""

import io
import json

import pytest

from steklov import from_edge_list, from_graph6
from steklov.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_path4_golden(capsys):
    rc, out, _ = run(capsys, "spectrum", "--gen", "path:4")
    assert rc == 0
    assert out.strip() == "0 0.5"


def test_spectrum_star3_golden(capsys):
    rc, out, _ = run(capsys, "spectrum", "--gen", "star:3")
    assert rc == 0
    assert out.strip() == "0 1 1"


def test_spectrum_json(capsys):
    rc, out, _ = run(capsys, "spectrum", "--gen", "ball:2,2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 10
    assert doc["eigenvalues"][1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert "eigenvectors" not in doc


def test_spectrum_json_vectors(capsys):
    rc, out, _ = run(capsys, "spectrum", "--gen", "star:3", "--json", "--vectors")
    doc = json.loads(out)
    assert rc == 0
    assert len(doc["eigenvectors"]) == 3 and len(doc["eigenvectors"][0]) == 3


def test_spectrum_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 2\n0 1\n1 2\n"))
    rc, out, _ = run(capsys, "spectrum")
    assert rc == 0
    assert out.strip() == "0 1"


def test_spectrum_random_uses_seed(capsys):
    rc1, out1, _ = run(capsys, "spectrum", "--gen", "random:9", "--seed", "4")
    rc2, out2, _ = run(capsys, "spectrum", "--gen", "random:9", "--seed", "4")
    rc3, out3, _ = run(capsys, "spectrum", "--gen", "random:9,77")
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out3  # explicit seed parameter wins over --seed


# ---------------------------------------------------------------------------
# sigma


def test_sigma_table(capsys):
    rc, out, _ = run(capsys, "sigma", "--gen", "path:2", "--at", "leaf")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "doubling 0.5"
    assert lines[1] == "bisection 0.5"
    assert lines[2].startswith("agreement ")


def test_sigma_json(capsys):
    rc, out, _ = run(capsys, "sigma", "--gen", "path:3", "--at", "v0", "--json")
    doc = json.loads(out)
    assert rc == 0
    assert doc["vertex"] == 0
    assert doc["doubling"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert doc["bisection"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert doc["agreement"] < 1e-8
    assert doc["sigma1"] == pytest.approx(0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# flow


def test_flow_table_golden(capsys):
    rc, out, _ = run(
        capsys, "flow", "--gen", "path:2", "--to", "v2", "--lambda", "0.5"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "values 1 0.5 0"
    assert lines[1].startswith("residual_system ")
    assert lines[2].startswith("residual_edge_flow ")


def test_flow_lambda_zero_constant(capsys):
    rc, out, _ = run(
        capsys, "flow", "--gen", "star:3", "--to", "leaf", "--lambda", "0"
    )
    assert rc == 0
    assert out.splitlines()[0] == "values 1 1 1 1"


def test_flow_json_with_norm(capsys):
    rc, out, _ = run(
        capsys,
        "flow", "--gen", "path:3", "--to", "v0", "--norm", "v3",
        "--lambda", "0.1", "--json",
    )
    doc = json.loads(out)
    assert rc == 0
    assert doc["target"] == 0 and doc["norm_vertex"] == 3
    assert doc["values"][3] == pytest.approx(1.0)
    assert doc["residual_system"] < 1e-10


def test_flow_center_selector(capsys):
    rc, out, _ = run(
        capsys, "flow", "--gen", "star:4", "--to", "center", "--lambda", "0.2",
        "--json",
    )
    assert rc == 0
    assert json.loads(out)["target"] == 0


# ---------------------------------------------------------------------------
# verify


def test_verify_doubling_single_instance(capsys):
    rc, out, _ = run(
        capsys, "verify", "doubling", "--gen", "star:3", "--at", "center"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS doubling")
    assert lines[-1] == "1/1 passed"


def test_verify_diameter_anomaly_is_reported_not_failed(capsys):
    rc, out, _ = run(capsys, "verify", "diameter", "--gen", "path:3")
    assert rc == 0
    assert out.splitlines()[0].startswith("PASS diameter")
    assert any(line.strip().startswith("note:") for line in out.splitlines())


def test_verify_degree_diameter_defaults(capsys):
    rc, out, _ = run(capsys, "verify", "degree_diameter", "--gen", "ball:2,2")
    assert rc == 0
    assert out.splitlines()[0].startswith("PASS degree_diameter")


def test_verify_dichotomy_alias(capsys):
    for alias in ("dichotomy", "branch_dichotomy"):
        rc, out, _ = run(
            capsys, "verify", alias, "--gen", "dball:2,1", "--at", "v0"
        )
        assert rc == 0
        assert out.splitlines()[0].startswith("PASS branch_dichotomy")


def test_verify_random_trees_reproducible(capsys, tmp_path):
    args = ("verify", "monotonicity", "--random-trees", "5", "--seed", "7")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.splitlines()[-1] == "5/5 passed"


def test_verify_zero_random_trees_is_an_empty_batch(capsys, monkeypatch, tmp_path):
    # an explicit 0 is a batch of no trees; it never reads a graph from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    out_file = tmp_path / "reports.jsonl"
    rc, out, err = run(
        capsys, "verify", "diameter", "--random-trees", "0", "--out", str(out_file)
    )
    assert (rc, out, err) == (0, "0/0 passed\n", "")
    assert out_file.read_text() == ""


def test_verify_out_writes_json_lines(capsys, tmp_path):
    out_file = tmp_path / "reports.jsonl"
    rc, _, _ = run(
        capsys,
        "verify", "partition", "--random-trees", "3", "--seed", "1",
        "--out", str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        doc = json.loads(line)
        assert doc["check"] == "partition" and doc["passed"] is True


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "perpetual_motion", "--gen", "path:4")
    assert rc == 3
    assert "unknown check" in err


def test_verify_failure_exits_5_and_names_seed(capsys, monkeypatch):
    # an impossible threshold turns a healthy margin into a failure, which
    # must surface as exit code 5 plus a reproduction hint
    monkeypatch.setenv("STEKLOV_TOL_ASSERTION", "-1")
    rc, out, err = run(
        capsys, "verify", "partition", "--gen", "path:2", "--at", "v1"
    )
    assert rc == 5
    assert out.splitlines()[0].startswith("FAIL partition")
    assert "0/1 passed" in out
    assert "reproduce with --seed 0" in err


# ---------------------------------------------------------------------------
# hunt


def test_hunt_fig1(capsys, tmp_path):
    out_file = tmp_path / "pair.json"
    rc, out, _ = run(
        capsys, "hunt", "fig1", "--nmax", "6", "--out", str(out_file)
    )
    assert rc == 0
    assert "pair found" in out
    assert "0.666667 -> 0.5" in out
    doc = json.loads(out_file.read_text())
    assert doc["relation"] == "vertex_deletion"


def test_hunt_fig1_without_nmax(capsys):
    rc, out, _ = run(capsys, "hunt", "fig1")
    assert rc == 0
    assert out == run(capsys, "hunt", "fig1", "--nmax", "6")[1]


@pytest.mark.parametrize("problem", ["1", "2"])
def test_hunt_needs_nmax(capsys, problem):
    with pytest.raises(SystemExit) as exc:
        main(["hunt", problem, "--budget", "5"])
    assert exc.value.code == 2
    assert "required: --nmax" in capsys.readouterr().err


def test_hunt_problem1_summary(capsys):
    rc, out, _ = run(
        capsys, "hunt", "1", "--nmax", "6", "--kmin", "2", "--budget", "1000"
    )
    assert rc == 0
    assert out.startswith("complete: 26 instances, 0 violations")


def test_hunt_resume_via_cli(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    rc, out, _ = run(
        capsys,
        "hunt", "1", "--nmax", "6", "--kmin", "2", "--budget", "10",
        "--out", str(out_file),
    )
    assert rc == 0 and "budget_exhausted: 10 instances" in out
    rc, out, _ = run(
        capsys,
        "hunt", "1", "--nmax", "6", "--kmin", "2", "--budget", "26",
        "--resume", str(out_file),
    )
    assert rc == 0
    assert out.startswith("complete: 26 instances, 0 violations")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_hunt_honors_tolerance_overrides(capsys, monkeypatch, workers):
    # an impossible residual bound must reach every hunt worker; 300
    # instances make two chunks, so two workers both get one
    monkeypatch.setenv("STEKLOV_TOL_EIGEN_RESIDUAL", "0")
    rc, _, err = run(
        capsys,
        "hunt", "1", "--nmax", "9", "--budget", "300", "--kmin", "2",
        "--workers", workers,
    )
    assert rc == 1
    assert "eigen residual" in err


# ---------------------------------------------------------------------------
# generate


def test_generate_edge_list_round_trip(capsys):
    rc, out, _ = run(capsys, "generate", "--gen", "dball:2,1")
    assert rc == 0
    g = from_edge_list(out)
    assert g.n == 6 and len(g.edges) == 5


def test_generate_graph6_round_trip(capsys):
    rc, out, _ = run(capsys, "generate", "--gen", "fig1", "--format", "graph6")
    assert rc == 0
    g = from_graph6(out.strip())
    assert g.n == 6 and len(g.edges) == 6  # 4-cycle plus two pendants


def test_generate_json(capsys):
    rc, out, _ = run(capsys, "generate", "--gen", "star:3", "--format", "json")
    doc = json.loads(out)
    assert rc == 0
    assert doc["n"] == 4 and doc["boundary"] == [1, 2, 3]


def test_generate_feeds_spectrum_stdin(capsys, monkeypatch):
    rc, out, _ = run(capsys, "generate", "--gen", "fig1")
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    rc, out, _ = run(capsys, "spectrum")
    assert rc == 0
    eigs = [float(t) for t in out.split()]
    assert eigs[1] == pytest.approx(2.0 / 3.0, abs=1e-6)  # table prints %g


def test_dot_side_file(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    rc, _, _ = run(capsys, "spectrum", "--gen", "star:3", "--dot", str(dot))
    assert rc == 0
    text = dot.read_text()
    assert text.count("doublecircle") == 3


def test_generate_dot_format(capsys):
    rc, out, _ = run(capsys, "generate", "--gen", "path:2", "--format", "dot")
    assert rc == 0
    assert out.startswith("graph G {") and "0 -- 1;" in out


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_validation(capsys):
    rc, _, err = run(capsys, "spectrum", "--gen", "path:0")
    assert rc == 2 and "validation error" in err
    rc, _, err = run(
        capsys, "flow", "--gen", "path:2", "--to", "v2", "--lambda", "-1"
    )
    assert rc == 2
    # no vertex of degree >= 2 to draw, and a negative batch size
    rc, _, err = run(capsys, "verify", "dichotomy", "--gen", "path:1")
    assert rc == 2
    assert err == "validation error: dichotomy needs a vertex of degree >= 2\n"
    rc, out, err = run(capsys, "verify", "diameter", "--random-trees", "-1")
    assert rc == 2 and out == ""
    assert err.startswith("validation error:") and "--random-trees" in err
    # an explicit 0 is a given value, not the default
    for argv, message in (
        (["hunt", "1", "--nmax", "9", "--kmin", "0"], "eigenvalue index starts at 2"),
        (["verify", "degree_diameter", "--gen", "path:4", "--degree", "0"],
         "degree parameter D must be >= 2"),
        (["verify", "degree_diameter", "--gen", "path:4", "--length", "0"],
         "graph has diameter 4 > 0"),
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and message in err, argv


def test_exit_3_parse(capsys, monkeypatch):
    rc, _, err = run(capsys, "spectrum", "--gen", "mystery:9")
    assert rc == 3 and "parse error" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("this is not a graph"))
    rc, _, err = run(capsys, "spectrum")
    assert rc == 3


def test_exit_4_resonance(capsys):
    rc, _, err = run(
        capsys, "flow", "--gen", "star:3", "--to", "v1", "--lambda", "1"
    )
    assert rc == 4
    assert "resonance" in err


def test_vertex_out_of_range_is_validation(capsys):
    rc, _, err = run(capsys, "sigma", "--gen", "path:2", "--at", "v9")
    assert rc == 2


def test_unreadable_input_file_is_validation(capsys, tmp_path):
    rc, _, err = run(capsys, "spectrum", "--input", str(tmp_path / "missing.txt"))
    assert rc == 2
    assert err.startswith("validation error:") and "missing.txt" in err


def test_unreadable_resume_file_is_validation(capsys, tmp_path):
    rc, _, err = run(
        capsys, "hunt", "1", "--nmax", "7", "--resume", str(tmp_path / "missing.json")
    )
    assert rc == 2
    assert err.startswith("validation error:") and "missing.json" in err


def _saved_report(tmp_path, capsys) -> dict:
    path = tmp_path / "run.json"
    run(capsys, "hunt", "1", "--nmax", "7", "--budget", "10", "--out", str(path))
    return json.loads(path.read_text())


def _unknown_config_key(tmp_path, capsys):
    doc = _saved_report(tmp_path, capsys)
    doc["config"]["colour"] = "blue"
    return json.dumps(doc)


@pytest.mark.parametrize(
    "make_text",
    [lambda *_: "{}", _unknown_config_key, lambda *_: "{not json"],
    ids=["empty_object", "unknown_config_key", "bad_json"],
)
def test_resume_file_that_is_not_a_report_is_parse_error(capsys, tmp_path, make_text):
    path = tmp_path / "resume.json"
    path.write_text(make_text(tmp_path, capsys))
    rc, _, err = run(capsys, "hunt", "1", "--nmax", "7", "--resume", str(path))
    assert rc == 3
    assert err.startswith("parse error:") and "is not a hunt report" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("instances", "10"),
        ("instances", True),
        ("cursor", 10.0),
        ("cursor", None),
        ("violations", {}),
        ("histogram", [0, 10]),
        ("histogram", {"[0,0.0001)": "10"}),
        ("status", "running"),
    ],
    ids=[
        "instances_str", "instances_bool", "cursor_float", "cursor_null",
        "violations_dict", "histogram_list", "histogram_str_count", "status_unknown",
    ],
)
def test_resume_report_with_a_wrong_field_type_is_parse_error(
    capsys, tmp_path, key, value
):
    doc = _saved_report(tmp_path, capsys)
    doc[key] = value
    path = tmp_path / "resume.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "hunt", "1", "--nmax", "7", "--resume", str(path))
    assert (rc, out) == (3, "")
    assert err.startswith("parse error:") and "is not a hunt report" in err
    assert f"wrong type of {key}" in err


@pytest.mark.parametrize(
    "histogram",
    [{"foo": 3}, {"[-inf,-1e-08)": 0}],
    ids=["unknown_bin", "missing_bins"],
)
def test_resume_report_with_foreign_histogram_bins_is_parse_error(
    capsys, tmp_path, histogram
):
    doc = _saved_report(tmp_path, capsys)
    doc["histogram"] = histogram
    path = tmp_path / "resume.json"
    path.write_text(json.dumps(doc))
    argv = ("hunt", "1", "--nmax", "7", "--budget", "40", "--resume", str(path))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err.startswith("parse error:") and "histogram bins" in err


def _python(*args):
    """Exit code, stdout and stderr of a fresh interpreter on this package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import steklov

    src = str(Path(steklov.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_in_process_calls_share_one_parser_and_match_fresh_processes(capsys):
    from steklov.cli import build_parser

    assert build_parser() is build_parser()
    # a usage error first, so the second call runs on a parser that has exited once
    calls = [("hunt", "1"), ("spectrum", "--gen", "path:4")]
    in_process = []
    for argv in calls:
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        in_process.append((rc, *capsys.readouterr()))
    assert in_process == [_python("-m", "steklov.cli", *argv) for argv in calls]
    assert in_process[0][0] == 2 and "--nmax" in in_process[0][2]
    assert in_process[1] == (0, "0 0.5\n", "")


def test_console_script_entry_point():
    import shutil
    import subprocess

    exe = shutil.which("steklov")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "spectrum", "--gen", "path:4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 0.5"


def test_cli_import_leaves_networkx_unloaded(tmp_path):
    # no command reads networkx; the CLI runs without it, graph6 input included
    code = "import sys, steklov.cli; print('networkx' in sys.modules)"
    rc, out, err = _python("-c", code)
    assert rc == 0, err
    assert out.strip() == "False"
    g6 = tmp_path / "star.g6"
    g6.write_text("Cs\n")  # the star on 4 vertices, centre 0
    code = (
        "import sys; from steklov.cli import main; "
        f"rc = main(['verify', 'doubling', '--input', {str(g6)!r}, '--at', 'center']); "
        "print(rc, 'networkx' in sys.modules)"
    )
    rc, out, err = _python("-c", code)
    assert rc == 0, err
    assert out.splitlines()[0].startswith("PASS doubling")
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "argv",
    [
        ["hunt", "1", "--nmax", "12", "--budget", "3000", "--kmin", "2"],
        ["hunt", "2", "--nmax", "9", "--kmin", "2", "--budget", "3000"],
    ],
    ids=["1", "2"],
)
def test_hunt_runs_with_networkx_blocked(capsys, tmp_path, argv):
    # a None entry in sys.modules makes every import of networkx fail
    blocked, normal = tmp_path / "blocked.json", tmp_path / "normal.json"
    code = (
        "import sys; sys.modules['networkx'] = None; from steklov.cli import main; "
        f"sys.exit(main({argv + ['--out', str(blocked)]!r}))"
    )
    rc, out, err = _python("-c", code)
    assert rc == 0, err
    assert out.startswith("budget_exhausted: 3000 instances, 0 violations")
    assert run(capsys, *argv, "--out", str(normal))[0] == 0
    docs = [json.loads(p.read_text()) for p in (blocked, normal)]
    for doc in docs:
        del doc["wall_time_s"], doc["config"]["out"]
    assert docs[0] == docs[1]
