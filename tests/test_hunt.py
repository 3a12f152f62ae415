"""Counterexample hunts: enumeration, streams, determinism, reports."""

import dataclasses
import itertools
import json
import math
import random

import pytest

from steklov import (
    HuntConfig,
    HuntReport,
    InternalFault,
    add_pendant,
    enumerate_graphs,
    enumerate_trees,
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
    _empty_histogram,
    _hist_add,
    _prefix_orders,
    _stream,
)

from oracles import prufer_tree

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


def test_tree_count_matches_networkx():
    nx = pytest.importorskip("networkx")
    from steklov.hunt import _tree_count

    for n in range(1, 21):
        assert _tree_count(n) == nx.number_of_nonisomorphic_trees(n), n
    assert [_tree_count(n) for n in TREE_COUNTS] == list(TREE_COUNTS.values())


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


def test_enumerate_graphs_reads_the_atlas_once(monkeypatch):
    import networkx

    from steklov import hunt

    reads = []
    atlas = networkx.graph_atlas_g

    def counted():
        reads.append(1)
        return atlas()

    monkeypatch.setattr(networkx, "graph_atlas_g", counted)
    hunt._atlas.cache_clear()
    for n in range(3, 8):
        assert sum(1 for _ in enumerate_graphs(n)) == GRAPH_COUNTS[n]
    assert len(reads) == 1


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
    prefix = sum(size for _n, size, _edges in _prefix_orders(cfg))
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


def test_seed_changes_random_tail_only():
    a = HuntConfig(problem="1", n_max=13, k_min=3, budget=10, seed=1)
    b = HuntConfig(problem="1", n_max=13, k_min=3, budget=10, seed=2)
    # the exhaustive prefix is seed-independent ...
    assert _stream(a, 0, 1) == _stream(b, 0, 1)
    # ... and the random tail is not
    idx = sum(size for _n, size, _edges in _prefix_orders(a))
    assert _stream(a, idx, 5)[0] != _stream(b, idx, 5)[0]


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

    labels = list(_empty_histogram())
    values = [math.nan, -math.inf, math.inf, 0.3, -1.0, 1e-5, 7.0]
    values += list(_HIST_EDGES) + [math.nextafter(e, -math.inf) for e in _HIST_EDGES]
    for value in values:
        hist = _empty_histogram()
        _hist_add(hist, value)
        want = {label: int(i == scanned(value)) for i, label in enumerate(labels)}
        assert hist == want, value


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
    for idx in (0, 20, 400, 401):
        (ia,), _ = _stream(a, idx, 1)
        (ib,), _ = _stream(b, idx, 1)
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
                g1 = _random_general_graph(n, rng)
            else:
                g1 = prufer_tree(n, rng.randrange(2**32))
            out.append((g1, rng.randrange(g1.n)))
    return out[:stop]


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
        ("2", 8, [(650, 5), (2790, 6), (2793, 2)]),
    ],
)
def test_stream_windows_match_full_enumeration(problem, n_max, windows):
    cfg = HuntConfig(problem=problem, n_max=n_max, seed=3)
    full = _reference_stream(cfg, 3000)
    prefix = len(_reference_prefix(cfg))
    for cursor, want in windows:
        got, end = _stream(cfg, cursor, want)
        assert got == full[cursor : cursor + want], (cursor, want)
        assert end == (math.inf if len(full) == 3000 else prefix)


def test_counted_prefix_sizes_match_enumeration():
    trees = _prefix_orders(HuntConfig(problem="1", n_max=11))
    assert [n for n, _size, _edges in trees] == list(range(3, 11))
    for n, size, _edges in trees:
        assert size == n * sum(1 for _ in enumerate_trees(n)) == n * TREE_COUNTS[n]
    graphs = _prefix_orders(HuntConfig(problem="2", n_max=8))
    assert [(n, size) for n, size, _e in graphs] == [
        (n, n * GRAPH_COUNTS[n]) for n in range(3, 8)
    ]


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
    hist, violations = _empty_histogram(), []
    for g1, x in instances[: cfg.budget]:
        pair = make_pair(g1, add_pendant(g1, x), x, "pendant", cfg.k_min, cfg.k_max)
        _hist_add(hist, pair.min_margin)
        if pair.min_margin < -VIOLATION_TOL:
            violations.append(pair.to_json())
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


def test_resume_across_a_chunk_boundary():
    base = dict(problem="1", n_max=12, k_min=2, seed=7)
    full = hunt_problem1(HuntConfig(**base, budget=600))
    first = hunt_problem1(HuntConfig(**base, budget=200))
    resumed = hunt_problem1(HuntConfig(**base, budget=600), resume=first)
    assert _strip_time(resumed) == _strip_time(full)


def test_workers_map_chunks():
    # 300 instances: one full chunk and a 44-instance tail
    base = dict(problem="1", n_max=12, k_min=2, budget=300, seed=2)
    solo = _strip_time(hunt_problem1(HuntConfig(**base, workers=1)))
    duo = _strip_time(hunt_problem1(HuntConfig(**base, workers=2)))
    solo["config"].pop("workers")
    duo["config"].pop("workers")
    assert solo == duo


def test_one_batched_solve_per_chunk(monkeypatch):
    from steklov import hunt
    from steklov.config import DEFAULT_TOLERANCES

    sizes = []
    batched = hunt._eigenvalues

    def counted(graphs, tol):
        sizes.append(len(graphs))
        return batched(graphs, tol)

    monkeypatch.setattr(hunt, "_eigenvalues", counted)
    hunt_problem1(HuntConfig(problem="1", n_max=12, k_min=2, budget=600))
    assert len(sizes) == 3  # chunks of 256, 256 and 88 instances

    sizes.clear()
    g = path_tree(9)
    out = hunt._eval_chunk(([(g, x) for x in range(10)], 2, None, DEFAULT_TOLERANCES))
    assert sizes == [11]  # the base tree once, and ten grown trees
    assert len(out) == 10
