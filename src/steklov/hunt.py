"""Search campaigns for eigenvalue-monotonicity counterexamples.

Two problems drive the module: does removing a pendant vertex ever
*decrease* a higher eigenvalue on trees (problem "1"), and does the same
happen on general graphs whose boundary is the degree-1 vertices when
growth is restricted to pendant additions (problem "2")?  The engine
enumerates base graphs (exhaustively for small orders, seeded-randomly
beyond), attaches one pendant at a time, compares spectra index by index,
and records every violation as a self-contained, re-verifiable pair.

Neither can have a violation.  For g' = add_pendant(g, x) on any graph,
lambda_k(g') <= lambda_k(g) <= lambda_{k+1}(g') for every k, where M_g is
the DtN matrix of unit boundary weights that `spectral` computes.  The
lemma: for a positive semidefinite C and its Schur complement S onto all
but one vertex v, lambda_k(C) <= lambda_k(S) <= lambda_{k+1}(C).
Extending a vector by its energy-minimising value at v keeps its energy
and grows its norm (Courant-Fischer), and S is below C with v deleted
(Cauchy interlacing).  If x is interior, the boundary gains the new vertex
n, and eliminating n from M_g' leaves M_g, so the lemma is the claim.  If
x is a leaf, the boundary swaps x for n.  Giving x the value at n and
extending harmonically over g puts no energy on the new edge, so M_g' is
below M_g with n in x's place, and Courant-Fischer gives the lower bound.
Eliminating x or n from C = M_g + (e_x - e_n)(e_x - e_n)^T, on the
boundary of g plus n, leaves M_g' or M_g, so
lambda_k(g) <= lambda_{k+1}(C) <= lambda_{k+1}(g').  A recorded violation
is therefore a numerical fault, not a finding, and the hunts are a
self-test of the spectral pipeline.

Runs are deterministic given the config: instance idx -> content is a pure
function of (problem, n_max, seed), so a report can be resumed from its
cursor and a parallel run merges to byte-identical results.  A run
materializes only its window [cursor, budget) of the stream: it skips
whole orders of the exhaustive sweep by their counted size, builds only
the base graphs with an instance in the window, and stops enumerating at
the window's end.  A random tail tree of problem 1 stays as its Prufer
sequence, the draws of `random_tree`.  Pending instances are evaluated in
fixed chunks of CHUNK, and `--workers` maps chunks to processes.  A
chunk's distinct base graphs become arrays once, and its tail sequences
are decoded together, in one numpy pass, straight into arrays
(`_prufer_batch`); each grown graph is its base's arrays plus one edge
and one boundary change, with no graph object.  One call of the stacked
kernel (`spectral._batch_eigenvalues`, every check of `steklov_spectra`
but no eigenvector signs or Spectrum objects) scatters the chunk's
Laplacians, one scatter per order, and returns the eigenvalues as padded
rows; the margins and histogram counts are taken over them in numpy.  A
tail tree or a grown graph becomes a graph object (`random_tree`'s
`_prufer_tree`, then `add_pendant`) only for a violation's CandidatePair
or a flagged range check.  The batched kernel is bit-identical to one
graph at a time, and the Laplacians' entries are small integers, exact
in any scatter, so chunking never changes a report.  Problem 1's trees are
generated and counted here, and problem 2's small graphs are a table of graph6 strings
(`_ATLAS_G6`), so no hunt needs networkx; the process pool is imported
where a hunt first needs it.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InternalFault, ParseError
from .graphs import (
    BoundaryGraph,
    _below,
    _induced,
    _prufer_draws,
    _prufer_tree,
    add_pendant,
    build,
    random_tree,
)
from .serialize import _graph6_edges, to_edge_list
from .spectral import _Batch, _batch, _batch_eigenvalues, _eigenvalues
# unused here, but bench/test_bench.py's tracer test reads this binding
from .spectral import steklov_spectrum  # noqa: F401

VIOLATION_TOL = 1e-8
REVERIFY_TOL = 1e-9
# instances per call of the batched kernel; bounds a chunk's memory, as
# the Laplacians of each order of a chunk are held at once
CHUNK = 256

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
    top = min(len(w1), len(w2), math.inf if k_max is None else k_max)
    win = slice(k_min - 1, top)  # position k - 1 holds lambda_k
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


def _hist_counts(values: np.ndarray) -> list[int]:
    """The number of values in each bin [lo, hi); +inf and NaN, which no bin
    holds, count in the last."""
    inner = np.array(_HIST_EDGES[1:-1])
    where = inner.searchsorted(values, side="right")
    return np.bincount(where, minlength=len(_HIST_LABELS)).tolist()


# ---------------------------------------------------------------------------
# enumeration


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


# The graph6 strings of the connected graphs on 3 to 7 vertices with a
# degree-1 vertex (1, 3, 10, 51 and 346 per order), in the order of networkx's
# graph atlas (Read and Wilson, "An Atlas of Graphs"), written from networkx
# 3.6.1; tests/oracles.py filters the same graphs from networkx's atlas.
_ATLAS_G6 = tuple(
    r"""
Bo CF Ck CN D?{ DBc Dh_ D@{ Dx_ DJc DbW DjW Db[ DJ{ E?Bw EhP? EsCO EiGO
EBe? E`EG E?Fw EC{O E@dW EG}? E]a? EYWO E]_O EQKo EsCW EJe? EBy? Ehd? EB{G
EhX_ E^_O EJwG E`Xg EtaG Eht? EtoO EB}? EXSg Eld? EJy? Exd? EYOw E~a? E~_O
EzW_ Ejt? EjsG Ez`_ Eju? Ev`_ EXSw E~AG Er`o E~H_ E~`_ El{G EZSw E~@g En{G
En}? E~|? F??Fw FhG`? FiO`? FiOG_ FiO_G FIo`? Fk_`? FaOH_ FEW`? Fk_G_
FhCK? FsaC_ FItA? F?Bcw FkoK? FhG`G FMpA? FhoI? FhoGO FHAgg FiG`G FbW`?
FiO`G FMoG_ Fg?hg Fko`? Fpq?_ FMoa? Fpq?G Fpa?g FhoG_ FhD@G FhoGG FIo`G
Fh_gG FpQO_ FXAGg Fk_`G FMo`? FK_h_ FIc`G FMo@G FPq?g FmpA? FupA? FexA?
FMtA? F\CoG FE|A? F[EoG FjKGO F`?Fw FH?NW Fh?Dw Fepa? Flg`? FXAgg FhDb?
FmW`? FFwG_ FxUA? FeoJ? Fewa? FxSI? FxSQ? FEtB? FxaGG FFwH? Fhoh? Fmo`?
Fh?JW Fpa_g FFw`? FjCHO F`DbG FhogG FMs`? FFwc? FLg`G FwaK_ FxOY? FxSAG
FhFE? FK{@G FsNA? F_{p? FhT@G FhDIO F_{Og FSYK_ FFwGG Fgogg FxOWO FHt@G
FHFEG F_sPg FhFK? FhMK? FxU?G FHhGg FLJK? FFw_G F~aC? F~a@? F~_Q? FzW`?
FzWa? FjtA? Fjt?O Fz`a? FjsGO FjsG_ Fz`c? FjuA? FXSx? Fv`c? F~a?G Fju?O
FjsH? FXSwG F~_?g FjuC? FlkG_ Fz`_G FXSwO Fju@? Fv`_G Fv@h? Fr`s? F~AGG
FB}GO Fxec? FB}G_ FzW_G F?~oO FhMh? FjsAG FB}H? FB}K? FyQAg Flec? FJyGO
FjsGG FhMgO FhMgG FyaAg Fxea? Fxe_O FJyH? Fle__ Fle`? Fz@cO F?~q? Fju?G
FhMi? FhMk? FhMg_ FyIAg FhdW_ Flea? FhNGO Fv@cO Fhfa? FJyK? FHS|? Fhfc?
FhdWG Fle_O FyAIg FhUgG FhdY? FJyG_ F~AGO Fhd[? Fhf_O FhNK? Fr@sO FhUk?
F~H`? F~Ha? F~`a? F~`c? F~`__ Fl{GO FZSw_ F~@h? FZSx? FxqgG F~`_G FZSwO
F~@gG F?~wG F|ec? F|e`? F?~y? F|e__ FyuK? FyVI? F~aK? FlfO_ F|e_G F^eG_
FyVK? FPzp? F~@`O Fxf`? FyVGG F|e_O F^MG_ F~aH? FO~oG F^eH? FPzs? FlfQ?
F^MGO F~@cO Fxf_G FyuGG FO~s? FyVH? FlMh? FhewG Flfc? F~aGG Fl{?W F^eI?
FlfOO FhewO FlfP? Fhe{? FlMgG Flfa? Fxf__ FJS|? FhDjO FlMk? Flf__ Flf`?
F~@_W F^MI? F^MGG FO~q? Fhey? FlMi? Flf_O FtTgO FlUk? Fn{GO Fn{OO Fn{_O
Fn{`? Fn{c? F_~wO FjtY? FjtWO F_~y? F^mH? FjtWG F^Mh? FjvI? F^Mg_ FjvGO
F@`zw Flfs? F^Mk? Fxva? FjvGG Fjt[? FrXx? FjvG_ Fxv`? F^MgG FlfoG FrXwG
Fn{GG Flfq? Fxv_O Fxv_G FrXwO F^mI? Fn{@G FhfwG FzNI? Fhfy? FjvH? F^Mi?
F?\vg FyUy? FzNGG FzNG_ FlfoO Fxv__ F^NI? FyUx? FrX{? F?\~_ F~|A? F~{OO
F~Xq? F~Xo_ Fn}GO Fn}I? F~Xs? Fn}K? Fn}H? F~wY? F~wWO F~{AG FyVy? FlNwG
F}RBg FlNw_ F~XoO FyVx? F}bBg FR~g_ FR~k? Fn}GG Fl^gG Fp~oO Fp~s? F}BJg
Fp~o_ Fl^k? F~wWG F@\|w F~{WO F}~I? Ftilg F@\}w FC\zw Fse|o F@\~g FBX|w
Fp~y? F~{WG FB^bw FBX~o F~~I? FB\|w Fsmtw FB\~W FK\zw Fz~y? Fz~{? F~~x?
""".split()
)


def _atlas_edges(n: int):
    """The sorted edge list of each connected graph on n vertices with a
    degree-1 vertex, unvalidated, in graph-atlas order."""
    order = chr(n + 63)  # a graph6 string's first character, for n < 63
    for text in _ATLAS_G6:
        if text[0] == order:
            yield sorted(_graph6_edges(text)[1])


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
    cursor, or worker count.  A problem-1 tail tree is given as its Prufer
    sequence, which `_base_graph` turns into the graph `random_tree` gives.
    Without such orders the stream ends with its prefix.
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
            base = _random_general_graph(n, rng)
        else:  # random_tree's draws, which the chunk decodes
            base = _prufer_draws(n, _below(rng, 2**32))
        out.append((base, _below(rng, n)))
    return out, math.inf


def _base_graph(base) -> BoundaryGraph:
    """An instance's base graph: itself, or the tree of a tail's Prufer
    sequence, as `random_tree` builds it."""
    return base if isinstance(base, BoundaryGraph) else _prufer_tree(base)


def _prufer_batch(seqs: list[list[int]]) -> _Batch:
    """The arrays of the trees of nonempty Prufer sequences, leaves as
    boundary, with the edges laid out graph by graph: `_prufer_tree`'s
    graphs, up to the orientation and order of each graph's edges.

    One numpy pass decodes them all, longest first, so that the trees still
    decoding at step i are a leading block.  Step i joins each one's
    smallest label of degree 1, which is the label `_prufer_decode`'s heap
    pops, to its sequence's label i; the last two labels of degree 1 close
    each tree.
    """
    count = len(seqs)
    steps = np.array([len(seq) for seq in seqs])  # n - 2 of each tree
    by = np.argsort(-steps, kind="stable")  # longest first
    size = steps[by]
    width = int(size[0]) + 2
    cols, rows = np.arange(width), np.arange(count)
    drawn = cols[:-2] < size[:, None]  # the labels of each sequence
    seq = np.zeros((count, width - 2), np.intp)
    seq[drawn] = np.fromiter(chain.from_iterable([seqs[i] for i in by]), np.intp)
    # degree: 1 plus the label's count in the sequence, 0 past the order
    deg = (cols < size[:, None] + 2).astype(np.intp)
    counted = np.bincount((rows[:, None] * width + seq)[drawn], minlength=count * width)
    deg += counted.reshape(count, width)
    leaves = deg == 1
    # edge i of a tree is (the leaf taken at step i, label i); its last edge
    # is at column n - 2
    ends = np.empty((count, width - 1, 2), np.intp)
    ends[:, :-1, 1] = seq
    for i, m in enumerate(drawn.sum(axis=0).tolist()):  # m trees take step i
        live = deg[:m]
        leaf = (live == 1).argmax(axis=1)
        ends[:m, i, 0] = leaf
        live[rows[:m], leaf] = 0
        live[rows[:m], seq[:m, i]] -= 1
    ends[rows, size] = np.nonzero(deg == 1)[1].reshape(count, 2)
    back = np.empty_like(by)
    back[by] = rows
    kept = cols[:-1] <= steps[:, None]
    return _Batch(steps + 2, leaves[back], ends[back][kept], rows.repeat(steps + 1))


def _with_pendants(parts: list[_Batch], rows: np.ndarray, xs: np.ndarray) -> _Batch:
    """The graphs of the parts, in order, then one grown graph per
    instance: base rows[i] with a new leaf n on vertex xs[i], where n is the
    base's order.

    This is `add_pendant` on a graph whose boundary is its degree-1
    vertices, as every base graph of the stream is: the boundary loses
    xs[i] (if it was a leaf) and gains n.  Each part must lay its edges out
    graph by graph, as `_batch` and `_prufer_batch` do.
    """
    order = np.concatenate([part.order for part in parts])
    count = len(order)
    firsts = np.cumsum([0] + [len(part.order) for part in parts])
    mask = np.zeros((count + len(rows), order.max() + 1), bool)
    for part, first in zip(parts, firsts):
        mask[first : first + len(part.order), : part.boundary.shape[1]] = part.boundary
    grown = np.arange(count, count + len(rows))
    n = order[rows]
    mask[count:] = mask[rows]
    mask[grown, xs] = False
    mask[grown, n] = True
    ends = np.concatenate([part.ends for part in parts])
    owner = np.concatenate([part.owner + first for part, first in zip(parts, firsts)])
    # a grown graph's edges: a copy of its base's, then (x, n); copied
    # edge j of copy i is the base's first edge plus j
    per_base = np.bincount(owner, minlength=count)
    sizes = per_base[rows]
    shift = (np.cumsum(per_base) - per_base)[rows] - (np.cumsum(sizes) - sizes)
    take = np.arange(sizes.sum()) + shift.repeat(sizes)
    return _Batch(
        np.concatenate([order, n + 1]),
        mask,
        np.concatenate([ends, ends[take], np.column_stack([xs, n])]),
        np.concatenate([owner, grown.repeat(sizes), grown]),
    )


def _eval_chunk(payload: tuple) -> tuple[list[int], list[dict]]:
    """Worker body: a chunk of pendant instances in one batched eigensolve.

    Each distinct base becomes arrays once: a base graph through `_batch`,
    and the tail's Prufer sequences all at once through `_prufer_batch`.
    Each grown graph is its base's arrays plus one edge (`_with_pendants`),
    and one call of `_batch_eigenvalues` solves them all.  A base graph
    repeats by identity (the stream builds each one once, and pickling a
    chunk keeps shared objects shared), so bases are told apart by id,
    without hashing their edges.  The margins are taken over the padded
    eigenvalue rows at once, and a tail tree or grown graph becomes a
    BoundaryGraph only for a violation's CandidatePair or a flagged range
    check.  Returns the histogram counts of the margins and the violation
    documents, in instance order.
    """
    instances, k_min, k_max, tol = payload
    graphs: dict[int, BoundaryGraph] = {}  # id -> each distinct base graph
    seqs: dict[int, list[int]] = {}  # id -> each tail tree's Prufer sequence
    for base, _x in instances:
        (graphs if isinstance(base, BoundaryGraph) else seqs)[id(base)] = base
    bases = [*graphs.values(), *seqs.values()]
    row = {key: i for i, key in enumerate([*graphs, *seqs])}
    count = len(bases)
    rows = np.array([row[id(base)] for base, _x in instances])
    xs = np.array([x for _base, x in instances])
    parts = [_batch(list(graphs.values()))]
    if seqs:
        parts.append(_prufer_batch(list(seqs.values())))
    batch = _with_pendants(parts, rows, xs)

    def graph(i: int) -> BoundaryGraph:
        """The batch's graph i, for a violation or a flagged range check."""
        if i < count:
            return _base_graph(bases[i])
        base, x = instances[i - count]
        return add_pendant(_base_graph(base), x)

    vals = _batch_eigenvalues(batch, tol, graph)
    size = batch.boundary.sum(axis=1)
    w1, w2 = vals[rows], vals[count:]
    top = np.minimum(size[rows], size[count:])
    if k_max is not None:
        top = np.minimum(top, k_max)
    col = np.arange(vals.shape[1])
    shared = (col >= k_min - 1) & (col < top[:, None])
    margins = np.where(shared, w1 - w2, math.inf).min(axis=1)
    docs = []
    for i in np.flatnonzero(margins < -VIOLATION_TOL).tolist():
        r, j, x = rows[i], count + i, instances[i][1]
        e1, e2 = vals[r, : size[r]].tolist(), vals[j, : size[j]].tolist()
        pair = _compare(graph(r), graph(j), x, "pendant", e1, e2, k_min, k_max)
        docs.append(pair.to_json())
    return _hist_counts(margins), docs


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
    for counts, docs in chunks:
        for label, count in zip(_HIST_LABELS, counts):
            histogram[label] += count
        violations += map(CandidatePair.from_json, docs)
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


def _fig1_graph() -> BoundaryGraph:
    """A 4-cycle with pendants on opposite corners, its leaves as boundary."""
    return build(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])


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
    g2 = _fig1_graph()
    g1_edges, _ = _induced(g2, [0, 2, 3, 4, 5])  # delete cycle vertex 1
    pair = make_pair(build(5, g1_edges), g2, None, "vertex_deletion", 2, 2, tol)
    lam1, lam2 = pair.eigenvalues1[1], pair.eigenvalues2[1]
    if abs(lam1 - 0.5) > REVERIFY_TOL or abs(lam2 - 2.0 / 3.0) > REVERIFY_TOL:
        raise InternalFault(f"fig1 pair has lambda_2 {lam1!r} -> {lam2!r}")
    return pair
