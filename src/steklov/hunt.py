"""Search campaigns for eigenvalue-monotonicity counterexamples.

Two standing questions drive the module: does removing a pendant vertex
ever *decrease* a higher eigenvalue on trees (problem "1"), and does the
same happen on general graphs whose boundary is the degree-1 vertices when
growth is restricted to pendant additions (problem "2")?  The engine
enumerates base graphs (exhaustively for small orders, seeded-randomly
beyond), attaches one pendant at a time, compares spectra index by index,
and records every violation as a self-contained, re-verifiable pair.

Runs are deterministic given the config: instance idx -> content is a pure
function of (problem, n_max, seed), so a report can be resumed from its
cursor and a parallel run merges to byte-identical results.  A run
materializes only its window [cursor, budget) of the stream: it skips
whole orders of the exhaustive sweep by their counted size, builds only
the base graphs with an instance in the window, and stops enumerating at
the window's end; each grown graph extends its valid base graph by one
checked edge (`add_pendant`), without re-validation, and each random tail
tree comes straight from its Prufer decode (`random_tree`), which is a
valid tree by construction and skips `build`.  Pending
instances are evaluated in fixed chunks of CHUNK: each chunk asks the
stacked kernel for the eigenvalues alone (`spectral._eigenvalues`, every
check of `steklov_spectra` but no eigenvector signs or Spectrum objects)
in one call over its distinct base graphs and all its grown graphs, and
builds a CandidatePair only for a violation; `--workers` maps chunks to
processes.  The batched kernel is bit-identical to one graph at a time,
so chunking never changes a report.  Problem 1's trees are generated and
counted here, so only problem 2, which reads networkx's graph atlas,
imports networkx; it and the process pool are imported where a hunt first
needs them, so the rest of the package runs without loading either.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import random
import time
from dataclasses import dataclass, field
from operator import sub
from pathlib import Path
from typing import Iterable

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InternalFault, ParseError
from .graphs import BoundaryGraph, _below, _induced, add_pendant, build, random_tree
from .serialize import to_edge_list
from .spectral import _eigenvalues
# unused here, but bench/test_bench.py's tracer test reads this binding
from .spectral import steklov_spectrum  # noqa: F401

VIOLATION_TOL = 1e-8
REVERIFY_TOL = 1e-9
CHUNK = 256  # instances per batched eigensolve; bounds a chunk's memory

_HIST_EDGES = (-math.inf, -1e-8, 0.0, 1e-4, 1e-2, 0.1, 0.5, math.inf)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class HuntConfig:
    problem: str  # "1" (trees), "2" (general graphs)
    n_max: int
    k_min: int = 3
    k_max: int | None = None
    budget: int = 1000
    seed: int = 0
    workers: int = 1
    out: str | None = None

    def __post_init__(self):
        problem = str(self.problem)
        object.__setattr__(self, "problem", problem)
        if problem not in {"1", "2"}:
            raise ValueError(f"unknown problem {problem!r}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.k_min < 2:
            raise ValueError("eigenvalue index starts at 2")
        if self.k_max is not None and self.k_max < self.k_min:
            raise ValueError("k_max below k_min")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.n_max < 4:
            raise ValueError(f"n_max must be >= 4 for problem {problem}")

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "n_max": self.n_max,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "budget": self.budget,
            "seed": self.seed,
            "workers": self.workers,
            "out": self.out,
        }

    @staticmethod
    def from_json(doc: dict) -> "HuntConfig":
        return HuntConfig(**doc)


# ---------------------------------------------------------------------------
# candidate pairs


@dataclass(frozen=True)
class CandidatePair:
    """A comparison g1 vs g2 where g2 extends g1.

    relation is "pendant" (g2 = g1 plus one pendant at `attachment`) or
    "vertex_deletion" (g1 = g2 minus one vertex); either way g1 embeds in
    g2, which is what the monotonicity questions quantify over.
    """

    g1: BoundaryGraph
    g2: BoundaryGraph
    attachment: int | None
    relation: str
    eigenvalues1: tuple[float, ...]
    eigenvalues2: tuple[float, ...]
    margins: dict[int, float]

    @property
    def min_margin(self) -> float:
        if not self.margins:
            return math.inf
        return min(self.margins.values())

    @property
    def violating_k(self) -> list[int]:
        return sorted(k for k, m in self.margins.items() if m < -VIOLATION_TOL)

    def to_json(self) -> dict:
        return {
            "g1": _graph_doc(self.g1),
            "g2": _graph_doc(self.g2),
            "attachment": self.attachment,
            "relation": self.relation,
            "eigenvalues1": list(self.eigenvalues1),
            "eigenvalues2": list(self.eigenvalues2),
            "margins": {str(k): v for k, v in self.margins.items()},
        }

    @staticmethod
    def from_json(doc: dict) -> "CandidatePair":
        return CandidatePair(
            g1=_graph_from_doc(doc["g1"]),
            g2=_graph_from_doc(doc["g2"]),
            attachment=doc["attachment"],
            relation=doc["relation"],
            eigenvalues1=tuple(doc["eigenvalues1"]),
            eigenvalues2=tuple(doc["eigenvalues2"]),
            margins={int(k): v for k, v in doc["margins"].items()},
        )


def _graph_doc(g: BoundaryGraph) -> dict:
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "boundary": sorted(g.boundary),
        "strict": g.strict,
    }


def _graph_from_doc(doc: dict) -> BoundaryGraph:
    return build(
        doc["n"],
        [tuple(e) for e in doc["edges"]],
        boundary=set(doc["boundary"]),
        strict=doc["strict"],
    )


def _window(w1: list[float], w2: list[float], k_min: int, k_max: int | None) -> slice:
    """The list positions of the indices k_min <= k <= k_max that two
    ascending spectra share; position k - 1 holds lambda_k."""
    top = min(len(w1), len(w2))
    if k_max is not None:
        top = min(top, k_max)
    return slice(k_min - 1, top)


def _compare(
    g1: BoundaryGraph,
    g2: BoundaryGraph,
    attachment: int | None,
    relation: str,
    w1: list[float],
    w2: list[float],
    k_min: int,
    k_max: int | None,
) -> CandidatePair:
    """The pair with margins lambda_k(g1) - lambda_k(g2) for every shared
    index k in the window, from the two ascending spectra."""
    win = _window(w1, w2, k_min, k_max)
    margins = dict(enumerate(map(sub, w1[win], w2[win]), start=k_min))
    return CandidatePair(g1, g2, attachment, relation, tuple(w1), tuple(w2), margins)


def make_pair(
    g1: BoundaryGraph,
    g2: BoundaryGraph,
    attachment: int | None,
    relation: str,
    k_min: int,
    k_max: int | None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CandidatePair:
    """Compare lambda_k(g1) against lambda_k(g2) for every shared index k."""
    w1, w2 = _eigenvalues([g1, g2], tol)
    return _compare(g1, g2, attachment, relation, w1, w2, k_min, k_max)


def reverify(pair: CandidatePair, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Recompute both spectra from the stored graphs alone and confirm the
    recorded eigenvalues and margins to REVERIFY_TOL."""
    fresh = make_pair(
        pair.g1,
        pair.g2,
        pair.attachment,
        pair.relation,
        k_min=min(pair.margins) if pair.margins else 2,
        k_max=max(pair.margins) if pair.margins else None,
        tol=tol,
    )
    for old, new in (
        (pair.eigenvalues1, fresh.eigenvalues1),
        (pair.eigenvalues2, fresh.eigenvalues2),
    ):
        if len(old) != len(new):
            return False
        if any(abs(a - b) > REVERIFY_TOL for a, b in zip(old, new)):
            return False
    if set(pair.margins) != set(fresh.margins):
        return False
    return all(
        abs(pair.margins[k] - fresh.margins[k]) <= REVERIFY_TOL
        for k in pair.margins
    )


# ---------------------------------------------------------------------------
# reports


@dataclass
class HuntReport:
    config: HuntConfig
    instances: int
    violations: list[CandidatePair]
    histogram: dict[str, int]
    wall_time_s: float
    status: str  # "complete" | "budget_exhausted"
    cursor: int
    anomalies: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "instances": self.instances,
            "violations": [p.to_json() for p in self.violations],
            "histogram": dict(self.histogram),
            "wall_time_s": self.wall_time_s,
            "status": self.status,
            "cursor": self.cursor,
            "anomalies": list(self.anomalies),
        }

    @staticmethod
    def from_json(doc: dict) -> "HuntReport":
        """The report of a document; a field of the wrong type raises TypeError."""
        hist = doc["histogram"]
        typed = {
            "instances": type(doc["instances"]) is int,
            "cursor": type(doc["cursor"]) is int,
            "violations": isinstance(doc["violations"], list),
            "histogram": isinstance(hist, dict)
            and all(type(c) is int for c in hist.values()),
            "status": doc["status"] in ("complete", "budget_exhausted"),
        }
        if not all(typed.values()):
            wrong = ", ".join(key for key, ok in typed.items() if not ok)
            raise TypeError(f"wrong type of {wrong}")
        return HuntReport(
            config=HuntConfig.from_json(doc["config"]),
            instances=doc["instances"],
            violations=[CandidatePair.from_json(p) for p in doc["violations"]],
            histogram=dict(doc["histogram"]),
            wall_time_s=doc["wall_time_s"],
            status=doc["status"],
            cursor=doc["cursor"],
            anomalies=list(doc.get("anomalies", [])),
        )

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=1) + "\n")
        for i, pair in enumerate(self.violations):
            for tag, g in (("g1", pair.g1), ("g2", pair.g2)):
                side = path.with_suffix(f".v{i}.{tag}.edges")
                side.write_text(to_edge_list(g))

    @staticmethod
    def load(path: str | Path) -> "HuntReport":
        """Read a saved report; a file that is not one raises ParseError."""
        text = Path(path).read_text()
        try:
            return HuntReport.from_json(json.loads(text))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(
                f"{path} is not a hunt report ({type(exc).__name__}: {exc})"
            ) from exc


_HIST_LABELS = tuple(
    f"[{lo:g},{hi:g})" for lo, hi in zip(_HIST_EDGES, _HIST_EDGES[1:])
)


def _empty_histogram() -> dict[str, int]:
    return dict.fromkeys(_HIST_LABELS, 0)


def _hist_add(hist: dict[str, int], value: float) -> None:
    """Count value in the bin [lo, hi) that holds it; +inf and NaN, which
    no bin holds, count in the last."""
    i = bisect.bisect(_HIST_EDGES, value, 1, len(_HIST_EDGES) - 1)  # inner edges
    hist[_HIST_LABELS[i - 1]] += 1


# ---------------------------------------------------------------------------
# enumeration


def enumerate_trees(n: int):
    """One tree per isomorphism class, canonical generation order."""
    if not 3 <= n <= 12:
        raise ValueError(f"tree enumeration supports 3 <= n <= 12, got {n}")
    for edges in _tree_edges(n):
        yield build(n, edges, boundary=None)


def _tree_edges(n: int):
    """The sorted edge list of each free tree on n >= 2 vertices, unvalidated,
    in networkx's `nonisomorphic_trees` order: the Wright-Richmond-Odlyzko-
    McKay (1986) walk over level sequences (vertex i at depth layout[i], in
    preorder), which visits only the canonical rooting of each free tree."""
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # a path
    while layout is not None:
        layout = _next_free_tree(layout)
        last = {}  # depth -> the latest vertex at that depth, a parent
        edges = []
        for v, d in enumerate(layout):
            if d:
                edges.append((last[d - 1], v))
            last[d] = v
        yield sorted(edges)
        layout = _next_rooted_tree(layout)


def _next_rooted_tree(layout: list[int], p: int | None = None) -> list[int] | None:
    """The Beyer-Hedetniemi successor of a rooted tree's level sequence,
    changed from position p on (by default the last vertex deeper than 1);
    None after the last one, the star."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _first_subtree_end(layout: list[int]) -> int:
    """The end of the root's first subtree: its second child, or len(layout)."""
    return next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))


def _next_free_tree(layout: list[int]) -> list[int]:
    """layout if it is the canonical rooting of its free tree, or else the
    next canonical one.  Canonical means that the root's first subtree is no
    higher than the rest of the tree; if equally high, it has no more
    vertices, and if also equally large, it is lexicographically no later."""
    m = _first_subtree_end(layout)
    left = [d - 1 for d in layout[1:m]]
    rest = [0] + layout[m:]
    high_left, high_rest = max(left), max(rest)
    if high_left < high_rest or (
        high_left == high_rest and (len(left), left) <= (len(rest), rest)
    ):
        return layout
    # not canonical: jump past every rooting that keeps this first subtree
    p = m - 1
    out = _next_rooted_tree(layout, p)
    if layout[p] > 2:
        depth = max(out[1 : _first_subtree_end(out)])  # of the new first subtree
        out[-depth:] = range(1, depth + 1)
    return out


@functools.cache
def _atlas() -> tuple:
    """networkx's graph atlas (every graph up to 7 vertices), read once."""
    import networkx as nx

    return tuple(nx.graph_atlas_g())


def enumerate_graphs(n: int):
    """Connected graphs on n vertices with at least one degree-1 vertex,
    in graph-atlas order."""
    if not 3 <= n <= 7:
        raise ValueError(f"graph enumeration supports 3 <= n <= 7, got {n}")
    for edges in _atlas_edges(n):
        yield build(n, edges, boundary=None)


def _atlas_edges(n: int):
    """The sorted edge list of each graph of enumerate_graphs(n), unvalidated."""
    import networkx as nx

    for g in _atlas():
        if g.number_of_nodes() != n or g.number_of_edges() == 0:
            continue
        if not nx.is_connected(g):
            continue
        degrees = dict(g.degree())
        if min(degrees.values()) != 1:
            continue
        yield sorted(tuple(sorted(e)) for e in g.edges())


def _random_general_graph(n: int, rng: random.Random) -> BoundaryGraph:
    """Random connected graph with degree-1 boundary: a tree plus a few
    extra edges between interior vertices (leaves stay leaves)."""
    t = random_tree(n, rng.randrange(2**32))
    interior = sorted(t.interior)
    edges = set(t.edges)
    if len(interior) >= 2:
        for _ in range(rng.randint(1, 3)):
            for _attempt in range(10):
                a, b = rng.sample(interior, 2)
                e = (a, b) if a < b else (b, a)
                if e not in edges:
                    edges.add(e)
                    break
    return build(n, sorted(edges), boundary=None)


# ---------------------------------------------------------------------------
# deterministic instance streams


def _prefix_orders(cfg: HuntConfig) -> list[tuple[int, int, Iterable[list]]]:
    """(order n, instances of order n, base edge lists of order n) for each
    order of the exhaustive prefix.  Tree edge lists come lazily, so a
    window can stop enumerating at its end; their number is `_tree_count`."""
    if cfg.problem == "2":
        orders = range(3, min(cfg.n_max - 1, 7) + 1)
        lists = [list(_atlas_edges(n)) for n in orders]
        return [(n, n * len(e), e) for n, e in zip(orders, lists)]
    orders = range(3, min(cfg.n_max - 1, 10) + 1)
    return [(n, n * _tree_count(n), _tree_edges(n)) for n in orders]


@functools.cache
def _rooted_tree_count(n: int) -> int:
    """Rooted trees on n vertices up to isomorphism (OEIS A000081)."""
    if n < 2:
        return n
    total = sum(
        d * _rooted_tree_count(d) * _rooted_tree_count(n - j)
        for j in range(1, n)
        for d in range(1, j + 1)
        if j % d == 0
    )
    return total // (n - 1)


@functools.cache
def _tree_count(n: int) -> int:
    """Free trees on n vertices up to isomorphism (OEIS A000055), from the
    rooted counts by Otter's formula."""
    r = _rooted_tree_count
    pairs = sum(r(k) * r(n - k) for k in range(n + 1))
    if n % 2 == 0:
        pairs -= r(n // 2)
    return r(n) - pairs // 2


def _stream(cfg: HuntConfig, cursor: int, want: int) -> tuple[list[tuple], float]:
    """Instances [cursor, cursor + want) of the stream for cfg (fewer at the
    end of a finite stream), and the stream's length.

    The exhaustive prefix takes each base graph of orders 3, 4, ... in
    generation order, with every attachment vertex x.  Orders wholly before
    the cursor are skipped by their size, and only base graphs with an
    instance in the window are built.  Past the prefix, instance idx draws a
    random base graph of order 11 (8 for problem 2) to n_max - 1 from a
    sub-seed bound to idx alone, so the mapping never depends on budget,
    cursor, or worker count.  Without such orders the stream ends with
    its prefix.
    """
    stop = cursor + want
    out: list[tuple] = []
    start = 0
    for n, size, edge_lists in _prefix_orders(cfg):
        if start < stop and start + size > cursor:
            # base graph i of this order holds instances first..first + n - 1
            for first, edges in zip(range(start, stop, n), edge_lists):
                if first + n > cursor:
                    g = build(n, edges, boundary=None)
                    xs = range(max(cursor - first, 0), min(stop - first, n))
                    out.extend((g, x) for x in xs)
        start += size
    lo, hi = (8 if cfg.problem == "2" else 11), cfg.n_max - 1
    if hi < lo:
        return out, start
    for idx in range(max(cursor, start), stop):
        # _below(rng, m) is rng.randrange(m), draw for draw, and cheaper
        rng = random.Random(f"{cfg.seed}:{idx}")
        n = lo + _below(rng, hi - lo + 1)  # rng.randint(lo, hi)
        if cfg.problem == "2":
            g1 = _random_general_graph(n, rng)
        else:
            g1 = random_tree(n, _below(rng, 2**32))
        out.append((g1, _below(rng, g1.n)))
    return out, math.inf


def _eval_chunk(payload: tuple) -> list[tuple[float, dict | None]]:
    """Worker body: a chunk of pendant instances in one batched eigensolve.

    Each distinct base graph is solved once; every grown graph is solved.
    A base graph repeats by identity (the stream builds each one once, and
    pickling a chunk keeps shared objects shared), so bases are told apart
    by id, without hashing their edges.  Returns (min margin, violation
    document or None) per instance, in order.
    """
    instances, k_min, k_max, tol = payload
    row: dict[int, int] = {}  # id of a base graph -> its row in eigs
    bases = []
    for g1, _x in instances:
        if id(g1) not in row:
            row[id(g1)] = len(bases)
            bases.append(g1)
    grown = [add_pendant(g1, x) for g1, x in instances]
    eigs = _eigenvalues(bases + grown, tol)
    out = []
    for (g1, x), g2, w2 in zip(instances, grown, eigs[len(bases):]):
        w1 = eigs[row[id(g1)]]
        win = _window(w1, w2, k_min, k_max)
        margin = min(map(sub, w1[win], w2[win]), default=math.inf)
        doc = None
        if margin < -VIOLATION_TOL:
            doc = _compare(g1, g2, x, "pendant", w1, w2, k_min, k_max).to_json()
        out.append((margin, doc))
    return out


def _run_hunt(
    cfg: HuntConfig, resume: HuntReport | None, tol: Tolerances
) -> HuntReport:
    start = time.monotonic()
    cursor = 0
    violations: list[CandidatePair] = []
    histogram = _empty_histogram()
    examined = 0
    if resume is not None:
        stream_keys = ("problem", "n_max", "k_min", "k_max", "seed")
        old, new = resume.config.to_json(), cfg.to_json()
        if any(old[k] != new[k] for k in stream_keys):
            raise ValueError(
                "resume report comes from a different instance stream "
                f"({ {k: old[k] for k in stream_keys} } vs "
                f"{ {k: new[k] for k in stream_keys} })"
            )
        if resume.histogram.keys() != histogram.keys():
            raise ParseError(
                "resume report's histogram bins "
                f"{sorted(resume.histogram)} are not the hunt's {list(histogram)}"
            )
        cursor = resume.cursor
        violations = list(resume.violations)
        histogram = dict(resume.histogram)
        examined = resume.instances

    pending, end = _stream(cfg, cursor, max(cfg.budget - examined, 0))
    payloads = [
        (pending[i : i + CHUNK], cfg.k_min, cfg.k_max, tol)
        for i in range(0, len(pending), CHUNK)
    ]
    if cfg.workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_eval_chunk, payloads))
    else:
        chunks = [_eval_chunk(p) for p in payloads]
    for margin, doc in (r for chunk in chunks for r in chunk):
        _hist_add(histogram, margin)
        if doc is not None:
            violations.append(CandidatePair.from_json(doc))
    examined += len(pending)
    cursor += len(pending)
    status = "complete" if cursor >= end else "budget_exhausted"
    report = HuntReport(
        config=cfg,
        instances=examined,
        violations=violations,
        histogram=histogram,
        wall_time_s=time.monotonic() - start,
        status=status,
        cursor=cursor,
    )
    if cfg.out:
        report.save(cfg.out)
    return report


def hunt_problem1(
    cfg: HuntConfig,
    resume: HuntReport | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> HuntReport:
    """Search trees for lambda_k(g1) < lambda_k(g1 + pendant)."""
    if cfg.problem != "1":
        raise ValueError("config is not for problem 1")
    return _run_hunt(cfg, resume, tol)


def hunt_problem2(
    cfg: HuntConfig,
    resume: HuntReport | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> HuntReport:
    """Search degree-1-boundary graphs (pendant growth only, so the cycle
    structure is preserved) for the same violation."""
    if cfg.problem != "2":
        raise ValueError("config is not for problem 2")
    return _run_hunt(cfg, resume, tol)


# ---------------------------------------------------------------------------
# the two-thirds pair


def find_fig1(
    n_max: int | None = None, tol: Tolerances = DEFAULT_TOLERANCES
) -> CandidatePair:
    """A subgraph pair on general graphs where the gap moves the wrong way:
    lambda_2 rises from 1/2 to 2/3 when the deleted cycle vertex returns.

    The known reconstruction is a 4-cycle with pendants on opposite corners,
    against the 5-path left by removing a bare cycle vertex.  Its values are
    closed forms, so a failed validation is a fault of the spectral code.
    The pair has 6 vertices; n_max, if given, must leave room for it.
    """
    if n_max is not None and n_max < 6:
        raise ValueError("n_max must be >= 6")
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g2 = build(6, cycle + [(0, 4), (2, 5)], boundary=None)
    g1_edges, _ = _induced(g2, [0, 2, 3, 4, 5])  # delete cycle vertex 1
    pair = make_pair(build(5, g1_edges), g2, None, "vertex_deletion", 2, 2, tol)
    lam1, lam2 = pair.eigenvalues1[1], pair.eigenvalues2[1]
    if abs(lam1 - 0.5) > REVERIFY_TOL or abs(lam2 - 2.0 / 3.0) > REVERIFY_TOL:
        raise InternalFault(f"fig1 pair has lambda_2 {lam1!r} -> {lam2!r}")
    return pair
