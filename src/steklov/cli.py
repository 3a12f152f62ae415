"""Command-line front door.

Subcommands: spectrum, sigma, flow, verify, hunt, generate.  Graphs come
from --gen family:params, from --input FILE (edge list or graph6), or from
standard input.  Exit codes are a stable contract: 0 ok, 2 validation
failure, 3 parse failure, 4 resonance, 5 assertion-class violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .checks import (
    CheckReport,
    check_branch_dichotomy,
    check_degree_diameter,
    check_diameter,
    check_doubling,
    check_monotonicity_chain,
    check_partition,
)
from .config import Tolerances
from .errors import (
    GraphValidationError,
    NormalizationFailure,
    ParseError,
    ResonantLambda,
    SteklovError,
)
from .flows import flow_to_json, sigma, solve_flow
from .graphs import (
    BoundaryGraph,
    ball,
    diameter,
    double_ball,
    leaves,
    path_tree,
    random_tree,
    star,
    tree_center,
)
from .hunt import (
    HuntConfig,
    HuntReport,
    _fig1_graph,
    find_fig1,
    hunt_problem1,
    hunt_problem2,
)
from .serialize import loads, to_dot, to_edge_list, to_graph6
from .spectral import steklov_spectrum

CHECKS = (
    "monotonicity", "doubling", "partition", "diameter", "degree_diameter", "dichotomy"
)
CHECK_ALIASES = {"branch_dichotomy": "dichotomy"}


# ---------------------------------------------------------------------------
# inputs


def from_spec(spec: str, seed: int) -> BoundaryGraph:
    """Named-generator mini-language: family[:comma-separated-ints]."""
    name, _, argstr = spec.partition(":")
    try:
        params = [int(tok) for tok in argstr.split(",") if tok] if argstr else []
    except ValueError as exc:
        raise ParseError(f"bad generator parameters in {spec!r}") from exc
    if name == "path" and len(params) == 1:
        return path_tree(params[0])
    if name == "star" and len(params) == 1:
        return star(params[0])
    if name == "ball" and len(params) == 2:
        return ball(params[0], params[1])
    if name in {"double_ball", "dball"} and len(params) == 2:
        return double_ball(params[0], params[1])
    if name == "random" and len(params) in {1, 2}:
        n = params[0]
        s = params[1] if len(params) == 2 else seed
        return random_tree(n, s)
    if name == "fig1" and not params:
        return _fig1_graph()
    raise ParseError(f"unknown generator spec {spec!r}")


def load_graph(args, parser: argparse.ArgumentParser) -> BoundaryGraph:
    gen = getattr(args, "gen", None)
    inp = getattr(args, "input", None)
    if gen and inp:
        parser.error("use exactly one of --gen and --input")
    if gen:
        return from_spec(gen, args.seed)
    if inp and inp != "-":
        return loads(Path(inp).read_text())
    return loads(sys.stdin.read())


def pick_vertex(sel: str, g: BoundaryGraph) -> int:
    """Vertex selector: integer id, v<id>, 'leaf' (smallest), or 'center'."""
    if sel == "leaf":
        return min(leaves(g))
    if sel == "center":
        return tree_center(g)
    body = sel[1:] if sel.startswith("v") else sel
    try:
        v = int(body)
    except ValueError as exc:
        raise ParseError(f"bad vertex selector {sel!r}") from exc
    if not 0 <= v < g.n:
        raise GraphValidationError(f"vertex {v} out of range 0..{g.n - 1}")
    return v


def _fmt(x: float) -> str:
    return f"{x:g}"


def _emit_dot(args, g: BoundaryGraph) -> None:
    if getattr(args, "dot", None):
        Path(args.dot).write_text(to_dot(g))


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, parser, tol: Tolerances) -> int:
    g = load_graph(args, parser)
    spec = steklov_spectrum(g, tol)
    _emit_dot(args, g)
    if args.format == "json":
        print(json.dumps(spec.to_json(include_vectors=args.vectors)))
    elif args.format == "dot":
        print(to_dot(g), end="")
    else:
        print(" ".join(_fmt(w) for w in spec.eigenvalues))
    return 0


def cmd_sigma(args, parser, tol: Tolerances) -> int:
    g = load_graph(args, parser)
    x = pick_vertex(args.at, g)
    _emit_dot(args, g)
    doubling = sigma(g, x, method="doubling", tol=tol)
    bisect = sigma(g, x, method="bisection", tol=tol)
    agreement = abs(doubling.sigma - bisect.sigma)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "vertex": x,
                    "doubling": doubling.sigma,
                    "bisection": bisect.sigma,
                    "agreement": agreement,
                    "sigma1": bisect.sigma1,
                }
            )
        )
    else:
        print(f"doubling {_fmt(doubling.sigma)}")
        print(f"bisection {_fmt(bisect.sigma)}")
        print(f"agreement {_fmt(agreement)}")
    return 0


def cmd_flow(args, parser, tol: Tolerances) -> int:
    g = load_graph(args, parser)
    x = pick_vertex(args.to, g)
    w = pick_vertex(args.norm, g) if args.norm else None
    flow = solve_flow(g, x, args.lam, w, tol)
    _emit_dot(args, g)
    doc = flow_to_json(g, flow)
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print("values " + " ".join(_fmt(v) for v in flow.values))
        print(f"residual_system {doc['residual_system']:.3e}")
        if "residual_edge_flow" in doc:
            print(f"residual_edge_flow {doc['residual_edge_flow']:.3e}")
    return 0


def _interior_candidates(g: BoundaryGraph) -> list[int]:
    return [v for v in range(g.n) if g.degree(v) >= 2]


def _run_check(name: str, g: BoundaryGraph, rng: random.Random, args, tol) -> CheckReport:
    if name == "monotonicity":
        return check_monotonicity_chain(g, seed=rng.randrange(2**32), tol=tol)
    if name == "doubling":
        x = pick_vertex(args.at, g) if args.at else rng.randrange(g.n)
        return check_doubling(g, x, tol)
    if name == "partition":
        x = pick_vertex(args.at, g) if args.at else rng.randrange(g.n)
        return check_partition(g, x, tol)
    if name == "diameter":
        return check_diameter(g, tol)
    if name == "degree_diameter":
        deg = max(g.degree(v) for v in range(g.n))
        d_param = args.degree if args.degree is not None else max(2, deg - 1)
        l_param = args.length if args.length is not None else diameter(g)
        return check_degree_diameter(g, d_param, l_param, tol)
    if name == "dichotomy":
        if args.at:
            z = pick_vertex(args.at, g)
        else:
            # with no vertex of degree >= 2, vertex 0 gets the checker's error
            z = rng.choice(_interior_candidates(g) or [0])
        return check_branch_dichotomy(g, z, tol)
    raise ParseError(f"unknown check {name!r}")


def cmd_verify(args, parser, tol: Tolerances) -> int:
    name = CHECK_ALIASES.get(args.check, args.check)
    if name not in CHECKS:
        raise ParseError(f"unknown check {args.check!r}")
    if args.random_trees is not None and args.random_trees < 0:
        raise ValueError(f"--random-trees must be >= 0, got {args.random_trees}")
    rng = random.Random(args.seed)
    reports: list[CheckReport] = []
    if args.random_trees is not None:  # a batch, empty when N is 0
        for _ in range(args.random_trees):
            n = rng.randint(4, 14)
            g = random_tree(n, rng.randrange(2**32))
            reports.append(_run_check(name, g, rng, args, tol))
    else:
        g = load_graph(args, parser)
        reports.append(_run_check(name, g, rng, args, tol))
    # with --json, stdout is the --out lines alone and the summary goes to stderr
    table = args.format != "json"
    lines = [rep.json_line() for rep in reports]
    for rep, line in zip(reports, lines):
        if not table:
            print(line)
            continue
        flag = "PASS" if rep.passed else "FAIL"
        margins = " ".join(f"{k}={v:.3e}" for k, v in rep.margins.items())
        print(f"{flag} {rep.check} {rep.instance} {margins}")
        for note in rep.anomalies:
            print(f"  note: {note}")
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines))
    failed = [rep for rep in reports if not rep.passed]
    total = len(reports)
    print(f"{total - len(failed)}/{total} passed", file=sys.stdout if table else sys.stderr)
    if failed:
        print(f"reproduce with --seed {args.seed}", file=sys.stderr)
        return 5
    return 0


def cmd_hunt(args, parser, tol: Tolerances) -> int:
    if args.problem == "fig1":
        pair = find_fig1(args.nmax, tol)
        lam1 = pair.eigenvalues1[1]
        lam2 = pair.eigenvalues2[1]
        print(
            f"pair found: lambda2 drops {_fmt(lam2)} -> {_fmt(lam1)} "
            f"when the graph shrinks ({pair.relation})"
        )
        if args.out:
            Path(args.out).write_text(json.dumps(pair.to_json(), indent=1) + "\n")
        return 0
    if args.nmax is None:
        args.hunt_parser.error("the following arguments are required: --nmax")
    k_min = args.kmin if args.kmin is not None else (3 if args.problem == "1" else 2)
    cfg = HuntConfig(
        problem=args.problem,
        n_max=args.nmax,
        k_min=k_min,
        k_max=args.kmax,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        out=args.out,
    )
    resume = HuntReport.load(args.resume) if args.resume else None
    runner = hunt_problem1 if args.problem == "1" else hunt_problem2
    report = runner(cfg, resume, tol)
    print(
        f"{report.status}: {report.instances} instances, "
        f"{len(report.violations)} violations, {report.wall_time_s:.2f}s"
    )
    for i, pair in enumerate(report.violations):
        print(f"violation {i}: k={pair.violating_k} margin={pair.min_margin:.3e}")
    return 0


def cmd_generate(args, parser, tol: Tolerances) -> int:
    g = load_graph(args, parser)
    _emit_dot(args, g)
    if args.format == "json":
        doc = {"n": g.n, "edges": [list(e) for e in g.edges], "boundary": sorted(g.boundary)}
        print(json.dumps(doc))
    elif args.format == "graph6":
        print(to_graph6(g))
    elif args.format == "dot":
        print(to_dot(g), end="")
    else:
        print(to_edge_list(g), end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_input_opts(p: argparse.ArgumentParser, formats=("table", "json", "dot")) -> None:
    p.add_argument("--gen", help="generator spec, e.g. path:4, ball:2,2, fig1")
    p.add_argument("--input", help="edge-list or graph6 file ('-' for stdin)")
    p.add_argument("--format", choices=formats, default="table")
    p.add_argument("--json", dest="format", action="store_const", const="json")
    p.add_argument("--dot", metavar="PATH", help="also write DOT to PATH")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The steklov parser, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Boundary spectra, flows, and law checks on marked graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("spectrum", help="boundary spectrum of a graph")
    _add_input_opts(p)
    p.add_argument("--vectors", action="store_true", help="include eigenvectors")
    p.set_defaults(func=cmd_spectrum)

    p = add_parser("sigma", help="smallest vanishing-flow lambda at a vertex")
    _add_input_opts(p)
    p.add_argument("--at", required=True, help="vertex: id, v<id>, leaf, center")
    p.set_defaults(func=cmd_sigma)

    p = add_parser("flow", help="lambda-flow to a vertex")
    _add_input_opts(p)
    p.add_argument("--to", required=True, help="target vertex selector")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--norm", help="normalization vertex selector")
    p.set_defaults(func=cmd_flow)

    p = add_parser("verify", help="run a law checker")
    p.add_argument("check", help="|".join(sorted(CHECKS + tuple(CHECK_ALIASES))))
    _add_input_opts(p)
    p.add_argument("--at", help="vertex selector for vertex-anchored checks")
    p.add_argument("--random-trees", type=int, metavar="N")
    p.add_argument("--degree", type=int, help="degree parameter (degree_diameter)")
    p.add_argument("--length", type=int, help="diameter parameter (degree_diameter)")
    p.add_argument("--out", help="write JSON-lines reports here")
    p.set_defaults(func=cmd_verify)

    p = add_parser("hunt", help="counterexample search campaigns")
    p.add_argument("problem", choices=["1", "2", "fig1"])
    p.add_argument("--nmax", type=int, help="largest order searched (problems 1 and 2)")
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--resume", help="resume from a saved report")
    p.set_defaults(func=cmd_hunt, hunt_parser=p)

    p = add_parser("generate", help="emit a graph in a chosen encoding")
    _add_input_opts(p, formats=("table", "json", "dot", "graph6"))
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = Tolerances.from_env()
    try:
        return args.func(args, parser, tol)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except GraphValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ResonantLambda, NormalizationFailure) as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SteklovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
