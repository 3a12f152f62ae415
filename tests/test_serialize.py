"""Round trips and error paths for the three exchange formats."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    ParseError,
    ball,
    build,
    from_edge_list,
    from_graph6,
    loads,
    path_tree,
    random_tree,
    star,
    to_dot,
    to_edge_list,
    to_graph6,
    trees_isomorphic,
)
from steklov.serialize import _graph6_edges

from oracles import enumerate_graphs, enumerate_trees


def test_edge_list_round_trip():
    g = ball(2, 2)
    assert from_edge_list(to_edge_list(g)) == g


def test_edge_list_keeps_custom_boundary():
    g = build(4, [(0, 1), (1, 2), (2, 3)], boundary={0})
    assert from_edge_list(to_edge_list(g)) == g


def test_edge_list_relaxed():
    g = path_tree(1)
    text = to_edge_list(g)
    assert text.splitlines()[0] == "2 2"
    assert from_edge_list(text, strict=False) == g
    with pytest.raises(ParseError):
        from_edge_list(text, strict=True)


@given(st.integers(3, 14), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_edge_list_round_trip_random(n, seed):
    g = random_tree(n, seed)
    assert from_edge_list(to_edge_list(g)) == g


def test_edge_list_errors():
    with pytest.raises(ParseError):
        from_edge_list("")
    with pytest.raises(ParseError):
        from_edge_list("3 x\n0\n0 1\n1 2")
    with pytest.raises(ParseError):
        from_edge_list("3 5\n0 2\n0 1")  # boundary count beyond data
    with pytest.raises(ParseError):
        from_edge_list("3 1\n1\n0 1 2")  # dangling vertex id
    with pytest.raises(ParseError):
        from_edge_list("4 2\n0 3\n0 1\n2 3")  # disconnected


def test_graph6_round_trip():
    g = star(4)
    h = from_graph6(to_graph6(g))
    assert h.n == g.n
    assert trees_isomorphic(g, h)


def test_graph6_header_accepted():
    g = path_tree(3)
    assert from_graph6(">>graph6<<" + to_graph6(g)).edges == g.edges


def test_graph6_boundary_defaults_to_leaves():
    g = build(4, [(0, 1), (1, 2), (2, 3)], boundary={0})
    h = from_graph6(to_graph6(g))
    assert h.boundary == frozenset({0, 3})


def test_graph6_errors():
    with pytest.raises(ParseError):
        from_graph6("")
    with pytest.raises(ParseError):
        from_graph6("\x01\x02 nonsense \xff")


@given(st.integers(3, 14), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_graph6_round_trip_random(n, seed):
    g = random_tree(n, seed)
    assert from_graph6(to_graph6(g)).edges == g.edges


def test_graph6_matches_networkx():
    # both ways: the encoder's strings and the decoder's graphs agree with
    # networkx's.  Orders to 62 take one header character, larger ones four;
    # every padding length shows below 100 (networkx needs 10 s for all n to
    # 300).  Trees to order 10 and the leafy atlas graphs are the graphs the
    # hunts enumerate; complete graphs set every bit.
    nx = pytest.importorskip("networkx")
    sizes = [*range(3, 101), 200, 299, 300]
    graphs = [path_tree(1)] + [random_tree(n, n) for n in sizes]
    graphs += [g for n in range(3, 11) for g in enumerate_trees(n)]
    graphs += [g for n in range(3, 8) for g in enumerate_graphs(n)]
    for n in range(3, 12):
        graphs.append(build(n, itertools.combinations(range(n), 2), boundary={0}))
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        text = to_graph6(g)
        assert text == nx.to_graph6_bytes(h, header=False).decode().strip()
        n, edges = _graph6_edges(text)
        assert (n, sorted(edges)) == (g.n, list(g.edges))
        back = nx.from_graph6_bytes(text.encode("ascii"))
        assert back.number_of_nodes() == n
        assert sorted(tuple(sorted(e)) for e in back.edges()) == sorted(edges)


@pytest.mark.parametrize("n", [63, 1000, 2000])
def test_graph6_round_trip_long_orders(n):
    # orders from 63 up take the four-character header
    g = random_tree(n, 1)
    text = to_graph6(g)
    assert text[0] == "~" and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    order, edges = _graph6_edges(text)
    assert (order, sorted(edges)) == (n, list(g.edges))
    assert from_graph6(text).edges == g.edges


def test_graph6_padding_bits_are_ignored():
    # order 3 has 3 pairs and 3 padding bits; order 2000 has 2 padding bits
    assert to_graph6(path_tree(2)) == "Bg"  # 101 000
    assert _graph6_edges("Bn") == _graph6_edges("Bg") == (3, [(0, 1), (1, 2)])
    text = to_graph6(random_tree(2000, 1))
    padded = text[:-1] + chr((ord(text[-1]) - 63 | 3) + 63)
    assert padded != text
    assert _graph6_edges(padded) == _graph6_edges(text)


def test_graph6_reads_the_eight_character_order():
    # orders from 258048 up take eight header characters; such a body is
    # too large to build, so the order shows in the length error
    message = "order 258048 needs [0-9]+ characters of edges, got 0"
    with pytest.raises(ParseError, match=message):
        _graph6_edges("~~???~??")


@pytest.mark.parametrize(
    "text",
    ["~", "~~", "~?", "~??~", "C", "Cxx", "Dx", "C\x7f", "C{\x00"],
    ids=["long_order_cut", "longer_order_cut", "long_order_short", "no_edges_63",
         "no_edges", "too_many_edges", "too_few_edges", "char_above", "char_below"],
)
def test_graph6_malformed_input_is_parse_error(text):
    nx = pytest.importorskip("networkx")
    with pytest.raises(ParseError, match="invalid graph6 data"):
        from_graph6(text)
    if text[-1] != "\x00":  # networkx reads characters below '?' as negative bits
        with pytest.raises((nx.NetworkXError, ValueError, IndexError)):
            nx.from_graph6_bytes(text.encode("ascii"))


def test_to_dot_marks_boundary():
    g = star(3)
    dot = to_dot(g)
    assert dot.count("doublecircle") == 3
    assert dot.count("circle") == 4  # 3 double + 1 plain center
    assert "0 -- 1;" in dot
    assert dot.startswith("graph G {")


def test_loads_autodetect():
    g = ball(2, 1)
    assert loads(to_edge_list(g)) == g
    assert loads(to_graph6(g)).edges == g.edges
    with pytest.raises(ParseError):
        loads("")
    with pytest.raises(ParseError):
        loads("certainly not a graph \xff")
