"""Graph serialization: edge-list text, graph6, DOT.

The edge-list format is the only one carrying the boundary set explicitly:

    n b
    id_1 ... id_b
    u v          (one line per edge)

graph6 exchanges structure only; on import the boundary defaults to the
degree-1 vertices.
"""

from __future__ import annotations

from .errors import ParseError
from .graphs import BoundaryGraph, build


def to_edge_list(g: BoundaryGraph) -> str:
    lines = [f"{g.n} {len(g.boundary)}"]
    lines.append(" ".join(str(v) for v in g.boundary_sorted()))
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str, strict: bool = True) -> BoundaryGraph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ParseError("edge-list input too short")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"non-integer token in edge list: {exc}") from None
    n, b = values[0], values[1]
    if b < 0 or len(values) < 2 + b:
        raise ParseError("edge-list boundary count does not match data")
    boundary = values[2 : 2 + b]
    rest = values[2 + b :]
    if len(rest) % 2:
        raise ParseError("edge-list has a dangling vertex id")
    edges = [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
    try:
        return build(n, edges, boundary=boundary, strict=strict)
    except ValueError as exc:
        raise ParseError(f"edge-list describes an invalid graph: {exc}") from None


def to_graph6(g: BoundaryGraph) -> str:
    """The order, then the upper triangle column by column, six bits per
    character; every character is offset by 63."""
    n, edges = g.n, set(g.edges)
    if n < 63:
        head = [n]
    elif n < 258048:
        head = [63] + [(n >> s) & 63 for s in (12, 6, 0)]
    else:
        head = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = [(i, j) in edges for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [
        sum(b << (5 - k) for k, b in enumerate(bits[t : t + 6]))
        for t in range(0, len(bits), 6)
    ]
    return "".join(chr(c + 63) for c in head + body)


def from_graph6(text: str, strict: bool = True) -> BoundaryGraph:
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    if not line:
        raise ParseError("empty graph6 input")
    n, edges = _graph6_edges(line)
    try:
        return build(n, edges, boundary=None, strict=strict)
    except ValueError as exc:
        raise ParseError(f"graph6 describes an invalid graph: {exc}") from None


def _graph6_edges(line: str) -> tuple[int, list[tuple[int, int]]]:
    """The order and edges of one graph6 string without its header: the
    inverse of to_graph6.  Bits past the last pair, the padding, are ignored."""
    data = [ord(c) - 63 for c in line]
    if not all(0 <= d < 64 for d in data):
        raise ParseError("invalid graph6 data: characters must lie in '?'..'~'")
    head = 1 if data[0] < 63 else 8 if data[1:2] == [63] else 4
    if len(data) < head:
        raise ParseError("invalid graph6 data: the order is cut short")
    n = 0
    for d in data[head // 4 : head]:  # past the 63 markers of a long order
        n = n << 6 | d
    body = data[head:]
    need = (n * (n - 1) // 2 + 5) // 6  # checked first: a long order is huge
    if len(body) != need:
        raise ParseError(
            f"invalid graph6 data: order {n} needs {need} characters of edges, "
            f"got {len(body)}"
        )
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return n, [e for t, e in enumerate(pairs) if body[t // 6] >> (5 - t % 6) & 1]


def to_dot(g: BoundaryGraph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        shape = "doublecircle" if v in g.boundary else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads(text: str, strict: bool = True) -> BoundaryGraph:
    """Parse edge-list or graph6, deciding by shape of the first line."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty graph input")
    first = stripped.splitlines()[0].split()
    if len(first) == 2 and all(t.isdigit() for t in first):
        return from_edge_list(stripped, strict=strict)
    return from_graph6(stripped, strict=strict)
