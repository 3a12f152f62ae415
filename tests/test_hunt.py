"""Counterexample hunts: enumeration, streams, determinism, reports."""

import dataclasses
import functools
import itertools
import json
import math
import random

import numpy as np
import pytest

from steklov import (
    BoundaryGraph,
    HuntConfig,
    HuntReport,
    InternalFault,
    add_pendant,
    build,
    find_fig1,
    from_edge_list,
    hunt_problem1,
    hunt_problem2,
    make_pair,
    path_tree,
    reverify,
    tree_canonical_form,
)
from steklov.hunt import (
    _HIST_EDGES,
    _base_graph,
    _empty_histogram,
    _hist_counts,
    _prefix,
    _stream,
)

from oracles import enumerate_graphs, enumerate_trees, prufer_tree

# one tree per isomorphism class; the unlabeled-tree counting sequence
TREE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
# connected graphs with at least one degree-1 vertex, from the atlas
GRAPH_COUNTS = {3: 1, 4: 3, 5: 10, 6: 51, 7: 346}


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_trees_counts():
    for n, count in TREE_COUNTS.items():
        assert sum(1 for _ in enumerate_trees(n)) == count


def test_enumerate_trees_matches_prufer_oracle():
    # independent route: decode every Prufer sequence, dedupe by canonical form
    from steklov.graphs import _prufer_decode, build as _build

    for n in range(3, 7):
        oracle = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            g = _build(n, _prufer_decode(list(seq), n))
            oracle.add(tree_canonical_form(g))
        enumerated = [tree_canonical_form(g) for g in enumerate_trees(n)]
        assert len(enumerated) == len(set(enumerated))  # pairwise distinct
        assert set(enumerated) == oracle


def test_tree_edges_match_networkx_order():
    # the idx -> instance map of every report depends on this order
    nx = pytest.importorskip("networkx")
    from steklov.hunt import _tree_edges

    for n in range(3, 15):
        expected = [
            sorted(tuple(sorted(e)) for e in t.edges())
            for t in nx.nonisomorphic_trees(n)
        ]
        assert list(_tree_edges(n)) == expected, n


def test_enumerate_graphs_counts_and_shape():
    for n, count in GRAPH_COUNTS.items():
        if n > 6:
            continue  # n=7 is covered by the count probe below
        graphs = list(enumerate_graphs(n))
        assert len(graphs) == count
        for g in graphs:
            assert g.n == n
            assert min(g.degree(v) for v in range(g.n)) == 1


def test_enumerate_graphs_n7_count():
    assert sum(1 for _ in enumerate_graphs(7)) == GRAPH_COUNTS[7]


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        list(enumerate_trees(2))
    with pytest.raises(ValueError):
        list(enumerate_trees(13))
    with pytest.raises(ValueError):
        list(enumerate_graphs(8))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        HuntConfig(problem="1", n_max=9, budget=0)
    with pytest.raises(ValueError):
        HuntConfig(problem="1", n_max=9, k_min=1)
    with pytest.raises(ValueError):
        HuntConfig(problem="1", n_max=9, k_min=4, k_max=3)
    with pytest.raises(ValueError):
        HuntConfig(problem="1", n_max=9, workers=0)
    with pytest.raises(ValueError):
        HuntConfig(problem="7", n_max=9)
    with pytest.raises(ValueError):
        HuntConfig(problem="1", n_max=3)
    with pytest.raises(ValueError, match="unknown problem"):
        HuntConfig(problem="fig1", n_max=6)  # fig1 is not a HuntConfig problem


def test_config_normalizes_problem_and_round_trips():
    cfg = HuntConfig(problem=1, n_max=9, budget=50)
    assert cfg.problem == "1"
    assert HuntConfig.from_json(cfg.to_json()) == cfg


# ---------------------------------------------------------------------------
# pair bookkeeping


def test_make_pair_path_growth():
    g1 = path_tree(3)
    pair = make_pair(g1, add_pendant(g1, 3), 3, "pendant", 2, None)
    assert pair.margins == {2: pytest.approx(1.0 / 6.0, abs=1e-10)}
    assert pair.min_margin > 0
    assert pair.violating_k == []
    assert reverify(pair)


def test_pair_json_round_trip():
    g1 = path_tree(3)
    pair = make_pair(g1, add_pendant(g1, 1), 1, "pendant", 2, 3)
    back = type(pair).from_json(pair.to_json())
    assert back.g1 == pair.g1 and back.g2 == pair.g2
    assert back.margins == pytest.approx(pair.margins)
    assert back.relation == "pendant" and back.attachment == 1


def test_reverify_rejects_tampered_pair():
    pair = find_fig1(6)
    assert pair is not None
    tampered = dataclasses.replace(
        pair, eigenvalues1=tuple(w + 0.01 for w in pair.eigenvalues1)
    )
    assert reverify(pair)
    assert not reverify(tampered)


# ---------------------------------------------------------------------------
# the two-thirds pair


def test_find_fig1_values():
    pair = find_fig1(6)
    assert pair is not None
    assert pair.relation == "vertex_deletion"
    assert pair.eigenvalues1[1] == pytest.approx(0.5, abs=1e-9)
    assert pair.eigenvalues2[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert pair.margins[2] == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert pair.violating_k == [2]
    assert pair.g1.is_tree and not pair.g2.is_tree
    assert pair.g2.n == 6 and pair.g1.n == 5


def test_find_fig1_failed_validation_is_a_fault(monkeypatch):
    from steklov import hunt

    monkeypatch.setattr(hunt, "REVERIFY_TOL", -1.0)
    with pytest.raises(InternalFault):
        find_fig1(6)


def test_find_fig1_rejects_small_n():
    with pytest.raises(ValueError):
        find_fig1(5)


def test_find_fig1_needs_no_bound():
    assert find_fig1().to_json() == find_fig1(6).to_json() == find_fig1(12).to_json()


# ---------------------------------------------------------------------------
# hunts: determinism, workers, resume, gates


def _strip_time(report: HuntReport) -> dict:
    doc = report.to_json()
    doc.pop("wall_time_s")
    return doc


def test_hunt1_exhaustive_small_is_clean_and_complete():
    cfg = HuntConfig(problem="1", n_max=6, k_min=2, budget=1000)
    rep = hunt_problem1(cfg)
    # trees on 3..5 vertices, every attachment: 1*3 + 2*4 + 3*5
    assert rep.instances == 26
    assert rep.status == "complete"
    assert rep.violations == []
    assert sum(rep.histogram.values()) == rep.instances
    assert rep.cursor == 26


def test_hunt1_deterministic():
    cfg = HuntConfig(problem="1", n_max=12, k_min=3, budget=60, seed=11)
    assert _strip_time(hunt_problem1(cfg)) == _strip_time(hunt_problem1(cfg))


def test_hunt1_worker_independent():
    base = dict(problem="1", n_max=6, k_min=2, budget=1000)
    solo = hunt_problem1(HuntConfig(**base, workers=1))
    duo = hunt_problem1(HuntConfig(**base, workers=2))
    a, b = _strip_time(solo), _strip_time(duo)
    a["config"].pop("workers")
    b["config"].pop("workers")
    assert a == b


def test_hunt1_resume_equivalence():
    full = hunt_problem1(HuntConfig(problem="1", n_max=6, k_min=2, budget=26))
    half = hunt_problem1(HuntConfig(problem="1", n_max=6, k_min=2, budget=10))
    assert half.status == "budget_exhausted" and half.cursor == 10
    resumed = hunt_problem1(
        HuntConfig(problem="1", n_max=6, k_min=2, budget=26), resume=half
    )
    assert _strip_time(resumed) == _strip_time(full)
    assert resumed.status == "complete"


def test_hunt1_resume_rejects_foreign_stream():
    half = hunt_problem1(HuntConfig(problem="1", n_max=6, k_min=2, budget=10))
    with pytest.raises(ValueError, match="different instance stream"):
        hunt_problem1(
            HuntConfig(problem="1", n_max=6, k_min=2, budget=26, seed=99),
            resume=half,
        )


def test_hunt1_random_tail_reaches_big_trees():
    cfg = HuntConfig(problem="1", n_max=12, k_min=3, budget=2000, seed=5)
    prefix = len(_prefix("1", 10))  # the trees of orders 3 to 10
    assert prefix < 2000  # the run below must enter the random tail
    rep = hunt_problem1(cfg)
    assert rep.instances == 2000
    assert rep.status == "budget_exhausted"
    assert rep.violations == []
    assert sum(rep.histogram.values()) == 2000


def test_hunt2_exhaustive_small_is_clean():
    cfg = HuntConfig(problem="2", n_max=6, k_min=2, budget=1000)
    rep = hunt_problem2(cfg)
    # leafy connected graphs on 3..5 vertices: 1*3 + 3*4 + 10*5
    assert rep.instances == 65
    assert rep.status == "complete"
    assert rep.violations == []


def test_hunt_problem_id_guards():
    with pytest.raises(ValueError):
        hunt_problem1(HuntConfig(problem="2", n_max=9))
    with pytest.raises(ValueError):
        hunt_problem2(HuntConfig(problem="1", n_max=9))


def _graphs(instances: list[tuple]) -> list[tuple]:
    """Stream instances with each base built: an edge list by `build`, and
    a tail tree's Prufer draws into the graph that random_tree builds."""
    return [(_base_graph(n, body), x) for _pos, n, body, x in instances]


def test_seed_changes_random_tail_only():
    a = HuntConfig(problem="1", n_max=13, k_min=3, budget=10, seed=1)
    b = HuntConfig(problem="1", n_max=13, k_min=3, budget=10, seed=2)
    # the exhaustive prefix is seed-independent ...
    assert _stream(a, 0, 1) == _stream(b, 0, 1)
    # ... and the random tail is not
    idx = len(_prefix("1", 10))
    assert _graphs(_stream(a, idx, 5)[0]) != _graphs(_stream(b, idx, 5)[0])


# ---------------------------------------------------------------------------
# report persistence


def test_report_save_load_round_trip(tmp_path):
    pair = find_fig1(6)
    cfg = HuntConfig(problem="2", n_max=6)
    report = HuntReport(
        config=cfg,
        instances=1,
        violations=[pair],
        histogram={"all": 1},
        wall_time_s=0.25,
        status="complete",
        cursor=1,
    )
    path = tmp_path / "hunt.json"
    report.save(path)
    loaded = HuntReport.load(path)
    assert loaded.config == cfg
    assert loaded.instances == 1 and loaded.status == "complete"
    assert loaded.violations[0].margins == pytest.approx(pair.margins)
    # the side files carry structure and boundary (strictness is implicit)
    for tag, g in (("g1", pair.g1), ("g2", pair.g2)):
        side = from_edge_list((tmp_path / f"hunt.v0.{tag}.edges").read_text())
        assert (side.n, side.edges, side.boundary) == (g.n, g.edges, g.boundary)


def test_hunt_out_config_writes_report(tmp_path):
    out = tmp_path / "auto.json"
    cfg = HuntConfig(problem="1", n_max=6, k_min=2, budget=12, out=str(out))
    rep = hunt_problem1(cfg)
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["instances"] == rep.instances == 12
    assert doc["cursor"] == 12


def test_histogram_bins_are_fixed():
    rep = hunt_problem1(HuntConfig(problem="1", n_max=6, k_min=2, budget=5))
    assert len(rep.histogram) == 7
    assert any(label.startswith("[-inf") for label in rep.histogram)
    assert sum(rep.histogram.values()) == 5


def test_hist_add_bins_as_the_edge_scan_does():
    def scanned(value):
        """The bin of the plain scan: the first [lo, hi) that holds value,
        else the last bin (+inf and NaN)."""
        for i in range(len(_HIST_EDGES) - 1):
            if _HIST_EDGES[i] <= value < _HIST_EDGES[i + 1]:
                return i
        return len(_HIST_EDGES) - 2

    values = [math.nan, -math.inf, math.inf, 0.0, -0.0, 0.3, -1.0, 1e-5, 7.0]
    for edge in _HIST_EDGES:
        values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    bins = len(_HIST_EDGES) - 1
    for value in values:
        want = [int(i == scanned(value)) for i in range(bins)]
        assert _hist_counts(np.array([value])) == want, value
    together = [0] * bins
    for value in values:
        together[scanned(value)] += 1
    assert _hist_counts(np.array(values)) == together
    assert _hist_counts(np.array([])) == [0] * bins


@pytest.mark.parametrize(
    "n_max, budget, seed, counts",
    [
        (12, 3000, 0, [0, 796, 1291, 587, 319, 7, 0]),
        (14, 6000, 3, [0, 1407, 2529, 1549, 508, 7, 0]),
    ],
)
def test_hunt1_histograms_are_frozen(n_max, budget, seed, counts):
    # an instance whose margin moves across a bin edge changes these counts
    cfg = HuntConfig(problem="1", n_max=n_max, k_min=2, budget=budget, seed=seed)
    report = hunt_problem1(cfg)
    assert list(report.histogram.values()) == counts
    assert report.violations == []


def test_make_pair_eigenvalues_are_the_spectra_eigenvalues():
    from steklov import random_tree, steklov_spectrum

    for n, seed in ((4, 0), (9, 1), (13, 7), (30, 2)):
        g1 = random_tree(n, seed)
        for x in (0, n - 1):
            g2 = add_pendant(g1, x)
            pair = make_pair(g1, g2, x, "pendant", 2, None)
            assert list(pair.eigenvalues1) == steklov_spectrum(g1).eigenvalues.tolist()
            assert list(pair.eigenvalues2) == steklov_spectrum(g2).eigenvalues.tolist()


def test_instance_stream_ignores_budget():
    a = HuntConfig(problem="1", n_max=13, k_min=3, budget=10, seed=4)
    b = HuntConfig(problem="1", n_max=13, k_min=3, budget=5000, seed=4)
    # prefix instances, then tail instances past 1806
    for idx in (0, 20, 400, 401, 1806, 2500):
        (ia,) = _graphs(_stream(a, idx, 1)[0])
        (ib,) = _graphs(_stream(b, idx, 1)[0])
        assert ia[0] == ib[0] and ia[1] == ib[1]


# ---------------------------------------------------------------------------
# windows of the instance stream against a full enumeration


def _reference_prefix(cfg: HuntConfig) -> list[tuple]:
    """The exhaustive prefix, materialized: every base graph of orders 3 up
    to n_max - 1 (at most 10 for trees, 7 for graphs), every attachment."""
    if cfg.problem == "2":
        gen, top = enumerate_graphs, min(cfg.n_max - 1, 7)
    else:
        gen, top = enumerate_trees, min(cfg.n_max - 1, 10)
    return [(g, x) for n in range(3, top + 1) for g in gen(n) for x in range(n)]


def _reference_stream(cfg: HuntConfig, stop: int) -> list[tuple]:
    """Instances [0, stop) of the stream, fewer if it ends: the prefix, then
    one random base graph of order 11 (8 for problem 2) to n_max - 1 per
    index, drawn from the sub-seed "seed:idx".  Tail trees are decoded and
    validated here, independently of random_tree's trusted construction."""
    from steklov.hunt import _random_general_graph

    out = _reference_prefix(cfg)
    lo, hi = (8 if cfg.problem == "2" else 11), cfg.n_max - 1
    if hi >= lo:
        for idx in range(len(out), stop):
            rng = random.Random(f"{cfg.seed}:{idx}")
            n = rng.randint(lo, hi)
            if cfg.problem == "2":
                g1 = build(n, _random_general_graph(n, rng))
            else:
                g1 = prufer_tree(n, rng.randrange(2**32))
            out.append((g1, rng.randrange(g1.n)))
    return out[:stop]


@functools.cache
def _reference_window(problem: str, n_max: int, cursor: int, want: int) -> tuple:
    """Instances [cursor, cursor + want) of the seed-0 stream, as
    `_reference_stream` gives them."""
    cfg = HuntConfig(problem=problem, n_max=n_max)
    return tuple(_reference_stream(cfg, cursor + want)[cursor:])


@pytest.mark.parametrize(
    "problem, n_max, windows",
    [
        # order blocks start at 0, 3, 11, 26, 62, 139, 323, 746; the tail at 1806
        ("1", 12, [(0, 1), (1, 2), (2, 5), (137, 5), (140, 7), (650, 200),
                   (1300, 500), (1800, 12), (1805, 1), (1806, 3), (1807, 4),
                   (2500, 10), (0, 1900)]),
        # a finite stream: windows past its end come back short
        ("1", 11, [(1800, 12), (1805, 1), (1806, 3), (2000, 5)]),
        # order blocks start at 0, 3, 15, 65, 371; the tail at 2793
        ("2", 9, [(0, 2), (10, 10), (60, 20), (100, 400), (2790, 6),
                  (2793, 2), (2900, 3)]),
        # the whole prefix: every graph of the hunt's table against networkx
        ("2", 8, [(650, 5), (2790, 6), (2793, 2), (0, 2793)]),
    ],
)
def test_stream_windows_match_full_enumeration(problem, n_max, windows):
    cfg = HuntConfig(problem=problem, n_max=n_max, seed=3)
    full = _reference_stream(cfg, 3000)
    prefix = len(_reference_prefix(cfg))
    for cursor, want in windows:
        got, end = _stream(cfg, cursor, want)
        # hunt 1's tail trees stay Prufer draws (n - 2 labels); every other
        # base is an edge list
        drawn = [len(body) == n - 2 for _pos, n, body, _x in got]
        assert drawn == [
            problem == "1" and idx >= prefix for idx in range(cursor, cursor + len(got))
        ]
        # a base is keyed by the position of its first instance, idx - x in
        # the prefix, where each base holds n instances, and idx in the tail
        firsts = [idx - x * (idx < prefix) for idx, (*_b, x) in enumerate(got, cursor)]
        assert [pos for pos, *_rest in got] == firsts
        assert _graphs(got) == full[cursor : cursor + want], (cursor, want)
        assert end == (math.inf if len(full) == 3000 else prefix)


def test_counted_prefix_sizes_match_enumeration():
    # order n holds n instances of each base, contiguous, the base's first
    # instance its position, with x = 0..n - 1
    for problem, top, counts in (("1", 10, TREE_COUNTS), ("2", 7, GRAPH_COUNTS)):
        table = _prefix(problem, top)
        orders = [n for _first, n, _edges, _x in table]
        assert orders == [n for n in range(3, top + 1) for _ in range(n * counts[n])]
        for idx, (first, n, edges, x) in enumerate(table):
            assert first == idx - x and 0 <= x < n, idx
            assert table[first : first + n] == tuple(
                (first, n, edges, v) for v in range(n)
            )
            assert type(edges) is tuple
    assert _prefix("1", 5) == _prefix("1", 10)[:26]


@pytest.mark.parametrize("problem, n_max, end", [("1", 11, 1806), ("2", 8, 2793)])
def test_end_of_stream_status(problem, n_max, end):
    runner = hunt_problem1 if problem == "1" else hunt_problem2

    def leg(cursor: int, budget: int) -> tuple:
        cfg = HuntConfig(problem=problem, n_max=n_max, k_min=2, budget=budget)
        resume = HuntReport(
            cfg, cursor, [], _empty_histogram(), 0.0, "budget_exhausted", cursor
        )
        report = runner(cfg, resume=resume)
        return report.status, report.cursor, report.instances

    assert leg(600, 650) == ("budget_exhausted", 650, 650)
    assert leg(end - 3, end - 1) == ("budget_exhausted", end - 1, end - 1)
    assert leg(end - 1, end) == ("complete", end, end)
    assert leg(end - 1, end + 5) == ("complete", end, end)
    assert leg(end, end + 5) == ("complete", end, end)
    assert leg(end + 3, end + 5) == ("complete", end + 3, end + 3)


# ---------------------------------------------------------------------------
# chunked evaluation against instance-by-instance recomputation


def _recompute(cfg: HuntConfig) -> dict:
    """The report of cfg rebuilt one instance at a time through make_pair."""
    from steklov.hunt import VIOLATION_TOL

    instances = _reference_stream(cfg, cfg.budget + 1)
    margins, violations = [], []
    for g1, x in instances[: cfg.budget]:
        pair = make_pair(g1, add_pendant(g1, x), x, "pendant", cfg.k_min, cfg.k_max)
        margins.append(pair.min_margin)
        if pair.min_margin < -VIOLATION_TOL:
            violations.append(pair.to_json())
    hist = dict(zip(_empty_histogram(), _hist_counts(np.array(margins))))
    idx = min(len(instances), cfg.budget)
    done = len(instances) == idx
    return {
        "config": cfg.to_json(),
        "instances": idx,
        "violations": violations,
        "histogram": hist,
        "status": "complete" if done else "budget_exhausted",
        "cursor": idx,
        "anomalies": [],
    }


@pytest.mark.parametrize(
    "problem, n_max, budget", [("1", 12, 2000), ("2", 9, 600)]
)
def test_chunked_hunt_equals_instance_by_instance(problem, n_max, budget):
    cfg = HuntConfig(problem=problem, n_max=n_max, k_min=2, budget=budget)
    runner = hunt_problem1 if problem == "1" else hunt_problem2
    assert _strip_time(runner(cfg)) == _recompute(cfg)


def test_chunked_violation_documents_match(monkeypatch):
    # a negative bound turns every margin below 0.05 into a "violation", so
    # the chunk's violation documents are compared pair by pair
    from steklov import hunt

    monkeypatch.setattr(hunt, "VIOLATION_TOL", -0.05)
    cfg = HuntConfig(problem="2", n_max=8, k_min=2, budget=400)
    report = _strip_time(hunt_problem2(cfg))
    assert len(report["violations"]) > 100
    assert report == _recompute(cfg)


@pytest.mark.parametrize("k_min, k_max", [(2, None), (3, None), (2, 3), (4, 4), (9, None)])
def test_chunk_margins_and_documents_are_make_pairs_bit_for_bit(monkeypatch, k_min, k_max):
    # one chunk of trees and general graphs (m != n - 1) of many orders:
    # windows across hunt 1's prefix/tail boundary at 1806 (at n_max 16, the
    # tail trees of orders 11 to 15 are Prufer draws decoded together), one
    # across hunt 2's at 2793, random general graphs, and a path grown at a
    # leaf and at an interior vertex.  Each base repeats by its stream
    # position, so each window's positions are moved to a range of its own
    from steklov import hunt
    from steklov.config import DEFAULT_TOLERANCES
    from steklov.hunt import _random_general_graph

    rng = random.Random(5)
    extra = [(n, _random_general_graph(n, rng)) for n in (8, 9, 11)]
    own = [(-1 - i, n, edges, x) for i, (n, edges) in enumerate(extra) for x in range(n)]
    path = list(path_tree(6).edges)
    own += [(-9, 7, path, x) for x in (0, 3, 6, 3)]
    windows = [("1", 12, 1800, 12), ("1", 16, 1790, 40), ("2", 12, 2788, 10)]
    instances = [
        (pos + 10**4 * w, n, body, x)
        for w, (problem, n_max, cursor, want) in enumerate(windows)
        for pos, n, body, x in _stream(HuntConfig(problem=problem, n_max=n_max), cursor, want)[0]
    ] + own
    # the reference builds and validates every base graph, tail trees too
    reference = [inst for window in windows for inst in _reference_window(*window)]
    reference += [(build(n, body), x) for _pos, n, body, x in own]
    assert _graphs(instances) == reference
    tail_orders = {n for _pos, n, body, _x in instances if len(body) == n - 2}
    assert tail_orders >= set(range(11, 16))
    assert len({g.n for g, _x in reference}) >= 5
    assert any(len(g.edges) != g.n - 1 for g, _x in reference)
    assert {x in g.boundary for g, x in reference} == {True, False}

    # every finite margin is a "violation", so each pair's document is
    # compared; the histogram's input is each instance's minimum margin
    monkeypatch.setattr(hunt, "VIOLATION_TOL", -math.inf)
    margins = []
    binned = hunt._hist_counts

    def kept(values):
        margins.extend(values.tolist())
        return binned(values)

    monkeypatch.setattr(hunt, "_hist_counts", kept)
    counts, docs = hunt._eval_chunk((instances, k_min, k_max, DEFAULT_TOLERANCES))
    pairs = [
        make_pair(g1, add_pendant(g1, x), x, "pendant", k_min, k_max)
        for g1, x in reference
    ]
    want = [p.min_margin for p in pairs]
    assert [m.hex() for m in margins] == [m.hex() for m in want]
    assert counts == binned(np.array(want))
    want_docs = [p.to_json() for p in pairs if p.min_margin < math.inf]
    assert json.dumps(docs) == json.dumps(want_docs)
    assert len(docs) < len(pairs)  # some windows are empty: a margin of inf


def test_edge_batch_is_the_batch_of_built_graphs():
    from steklov.hunt import _atlas_edges, _edge_batch, _random_general_graph, _tree_edges
    from steklov.spectral import _batch

    # the stream's edge-list bases, unvalidated: every tree of the prefix,
    # every graph of the table, and random general graphs, in one batch
    bases = [(n, edges) for n in range(3, 11) for edges in _tree_edges(n)]
    bases += [(n, edges) for n in range(3, 8) for edges in _atlas_edges(n)]
    rng = random.Random(3)
    bases += [(n, _random_general_graph(n, rng)) for n in (8, 12, 30, 8)]
    assert len(bases) == sum(TREE_COUNTS.values()) + sum(GRAPH_COUNTS.values()) + 4
    graphs = [build(n, edges) for n, edges in bases]
    got, want = _edge_batch(bases), _batch(graphs)
    assert got.order.tolist() == want.order.tolist() == [g.n for g in graphs]
    assert got.boundary.shape == want.boundary.shape
    assert (got.boundary == want.boundary).all()
    assert got.owner.tolist() == want.owner.tolist()
    for i, g in enumerate(graphs):
        assert list(map(tuple, got.ends[got.owner == i].tolist())) == list(g.edges), i
    empty = _edge_batch([])
    assert empty.order.shape == empty.owner.shape == (0,) and empty.ends.shape == (0, 2)


def test_prufer_batch_is_the_batch_of_random_trees():
    from steklov import build, random_tree
    from steklov.graphs import _prufer_draws
    from steklov.hunt import _prufer_batch
    from steklov.spectral import _batch

    # mixed orders 3 to 40 in one call, n = 3 being a one-label sequence
    rng = random.Random(11)
    orders = (3, 40, 11, 3, 25, 12, 12, 4, 17, 9, 40)
    draws = [(n, rng.randrange(2**32)) for n in orders]
    seqs = [_prufer_draws(n, seed) for n, seed in draws]
    trees = [random_tree(n, seed) for n, seed in draws]
    # stars: every label of the sequence is the centre
    for n, centre in ((40, 7), (9, 0), (12, 11)):
        seqs.append([centre] * (n - 2))
        trees.append(build(n, [(centre, v) for v in range(n) if v != centre]))
    got, want = _prufer_batch(seqs), _batch(trees)
    assert got.order.tolist() == want.order.tolist() == [g.n for g in trees]
    assert got.boundary.shape == want.boundary.shape
    assert (got.boundary == want.boundary).all()
    # laid out graph by graph, n - 1 edges each, as _with_pendants requires
    assert got.owner.tolist() == want.owner.tolist()
    for i, g in enumerate(trees):
        edges = np.sort(got.ends[got.owner == i], axis=1).tolist()
        assert sorted(map(tuple, edges)) == list(g.edges), i


def test_resume_across_a_chunk_boundary():
    base = dict(problem="1", n_max=12, k_min=2, seed=7)
    full = hunt_problem1(HuntConfig(**base, budget=600))
    first = hunt_problem1(HuntConfig(**base, budget=200))
    resumed = hunt_problem1(HuntConfig(**base, budget=600), resume=first)
    assert _strip_time(resumed) == _strip_time(full)


class _InProcessPool:
    """ProcessPoolExecutor's map, run in this process, so that a test can
    see the chunks that a hunt with workers hands out."""

    def __init__(self, max_workers):
        self.workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


def _chunk_sizes(monkeypatch, cfg: HuntConfig, resume=None) -> list[int]:
    """The instance counts of the chunks a hunt evaluates, in order."""
    import concurrent.futures

    from steklov import hunt

    sizes = []
    evaluate = hunt._eval_chunk

    def counted(payload):
        sizes.append(len(payload[0]))
        return evaluate(payload)

    monkeypatch.setattr(hunt, "_eval_chunk", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    hunt_problem1(cfg, resume=resume)
    return sizes


def test_workers_map_chunks(monkeypatch):
    # 300 instances: one chunk alone, and two chunks of 150 on two workers
    base = dict(problem="1", n_max=12, k_min=2, budget=300, seed=2)
    solo = _strip_time(hunt_problem1(HuntConfig(**base, workers=1)))
    duo = _strip_time(hunt_problem1(HuntConfig(**base, workers=2)))
    solo["config"].pop("workers")
    duo["config"].pop("workers")
    assert solo == duo
    assert _chunk_sizes(monkeypatch, HuntConfig(**base)) == [300]
    assert _chunk_sizes(monkeypatch, HuntConfig(**base, workers=2)) == [150, 150]
    # at least one chunk per worker, near-equal, while there are instances
    assert _chunk_sizes(monkeypatch, HuntConfig(**base, workers=7)) == [42] + [43] * 6
    few = dict(base, budget=3)
    assert _chunk_sizes(monkeypatch, HuntConfig(**few, workers=4)) == [1, 1, 1]


def test_one_batched_solve_per_chunk(monkeypatch):
    from steklov import hunt
    from steklov.config import DEFAULT_TOLERANCES

    sizes = []
    batched = hunt._batch_eigenvalues

    def counted(batch, tol, strict):
        sizes.append(len(batch.order))
        return batched(batch, tol, strict)

    monkeypatch.setattr(hunt, "_batch_eigenvalues", counted)
    hunt_problem1(HuntConfig(problem="1", n_max=12, k_min=2, budget=600))
    assert len(sizes) == 2  # chunks of 300 and 300 instances
    # a window splits into len // CHUNK near-equal chunks: none is a runt,
    # and none holds 2 * CHUNK instances
    for budget, want in [(255, [255]), (511, [511]), (512, [256, 256]),
                         (1000, [333, 333, 334])]:
        cfg = HuntConfig(problem="1", n_max=12, k_min=2, budget=budget)
        assert _chunk_sizes(monkeypatch, cfg) == want

    # a leg across the prefix/tail boundary at 1806: a tail tree is its own
    # base, so its chunk solves one row for it and one for its grown tree
    sizes.clear()
    cfg = HuntConfig(problem="1", n_max=16, k_min=2, budget=1900)
    resume = HuntReport(
        cfg, 1800, [], _empty_histogram(), 0.0, "budget_exhausted", 1800
    )
    hunt_problem1(cfg, resume=resume)
    assert sizes == [6 + 1 + 2 * 94]  # 6 instances on one base, 94 tail trees

    sizes.clear()
    path = list(path_tree(9).edges)
    counts, docs = hunt._eval_chunk(
        ([(0, 10, path, x) for x in range(10)], 2, None, DEFAULT_TOLERANCES)
    )
    assert sizes == [11]  # the base tree's Laplacian once, and ten grown trees'
    assert sum(counts) == 10 and docs == []


@pytest.mark.parametrize(
    "problem, n_max, cursor, budget",
    # across hunt 1's prefix/tail boundary at 1806, and hunt 2's at 2793
    [("1", 14, 1780, 1840), ("2", 10, 2770, 2820)],
)
def test_chunk_split_never_changes_a_report(monkeypatch, problem, n_max, cursor, budget):
    from steklov import hunt

    runner = hunt_problem1 if problem == "1" else hunt_problem2
    reports = []
    for chunk in (1, 7, 256, 10**6):
        monkeypatch.setattr(hunt, "CHUNK", chunk)
        for workers in (1, 2):
            cfg = HuntConfig(problem=problem, n_max=n_max, k_min=2, budget=budget,
                             seed=4, workers=workers)
            resume = HuntReport(
                cfg, cursor, [], _empty_histogram(), 0.0, "budget_exhausted", cursor
            )
            report = _strip_time(runner(cfg, resume=resume))
            report["config"].pop("workers")
            reports.append(report)
    assert reports[0]["instances"] == budget
    assert all(report == reports[0] for report in reports[1:])


def test_interleaved_resumed_hunts_match_whole_runs():
    # the prefix tables of several (problem, top) pairs live in one process:
    # legs of six campaigns, interleaved and resumed, one leg on two
    # workers, end in the reports of whole runs that built their own table
    campaigns = [("1", 8), ("2", 6), ("1", 12), ("2", 9), ("1", 10), ("2", 12)]
    runners = {"1": hunt_problem1, "2": hunt_problem2}
    budget, legs = 2900, 5

    def doc(report: HuntReport) -> dict:
        out = _strip_time(report)
        out["config"].pop("workers")
        return out

    whole = {}
    for problem, n_max in campaigns:
        _prefix.cache_clear()
        cfg = HuntConfig(problem=problem, n_max=n_max, k_min=2, budget=budget, seed=6)
        whole[problem, n_max] = doc(runners[problem](cfg))
    _prefix.cache_clear()
    reports = dict.fromkeys(campaigns)
    for leg in range(1, legs + 1):
        for (problem, n_max), report in reports.items():
            cfg = HuntConfig(problem=problem, n_max=n_max, k_min=2, seed=6,
                             budget=budget * leg // legs, workers=1 + (leg == 3))
            reports[problem, n_max] = runners[problem](cfg, resume=report)
    assert {key: doc(report) for key, report in reports.items()} == whole
    tables = {(p, min(n_max - 1, 7 if p == "2" else 10)) for p, n_max in campaigns}
    assert _prefix.cache_info().currsize == len(tables) == 5
    for problem, top in tables:
        assert _prefix(problem, top) == _prefix.__wrapped__(problem, top)


@pytest.mark.parametrize(
    "bound, value, message",
    # each bound moved so that every graph fails its check
    [("LAMBDA1_ZERO", -1.0, "is not zero"),
     ("LAMBDA2_FLOOR", 2.0, "is not positive"),
     ("LAMBDA_MAX_SLACK", -2.0, "exceeds 1")],
)
@pytest.mark.parametrize(
    "problem, n_max, cursor",
    # a base of the exhaustive prefix, and one of the random tail, each
    # with a lambda_2
    [("1", 12, 700), ("1", 12, 1900), ("2", 9, 1100), ("2", 9, 2800)],
)
def test_flagged_range_check_in_a_chunk_raises(
    monkeypatch, bound, value, message, problem, n_max, cursor
):
    # a one-instance window: the chunk's first graph is the base, whose
    # flagged range check raises the message its own spectrum raises
    from steklov import spectral, steklov_spectrum

    cfg = HuntConfig(problem=problem, n_max=n_max, k_min=2, budget=cursor + 1)
    ((_pos, n, body, _x),), _end = _stream(cfg, cursor, 1)
    monkeypatch.setattr(spectral, bound, value)
    with pytest.raises(InternalFault, match=message) as want:
        steklov_spectrum(_base_graph(n, body))
    resume = HuntReport(cfg, cursor, [], _empty_histogram(), 0.0, "budget_exhausted", cursor)
    runner = hunt_problem1 if problem == "1" else hunt_problem2
    with pytest.raises(InternalFault) as got:
        runner(cfg, resume=resume)
    assert str(got.value) == str(want.value)
