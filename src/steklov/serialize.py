"""Graph serialization: edge-list text, graph6, DOT.

The edge-list format is the only one carrying the boundary set explicitly:

    n b
    id_1 ... id_b
    u v          (one line per edge)

graph6 exchanges structure only; on import the boundary defaults to the
degree-1 vertices.  Both graph6 directions run in time linear in the
string: the per-character work (the offset by 63, the range check, the
search for characters with a bit set) is done by C-level bytes methods
and one regular-expression scan, and Python touches only the edges.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .graphs import BoundaryGraph, build

# graph6 characters carry six bits each, offset by 63
_G6_CHARS = bytes(range(63, 127))
_TO_G6 = _G6_CHARS + bytes(192)
_FROM_G6 = bytes(63) + bytes(range(64)) + bytes(129)
_G6_RANGE = "invalid graph6 data: characters must lie in '?'..'~'"


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
    character; every character is offset by 63.  Linear in the output: the
    zeroed body is allocated once, each edge (i < j) sets bit j(j-1)/2 + i,
    and one C-level ``bytes.translate`` applies the offset."""
    n = g.n
    if n < 63:
        head = [n]
    elif n < 258048:
        head = [63] + [(n >> s) & 63 for s in (12, 6, 0)]
    else:
        head = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    out = bytearray(head) + bytes((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        t = j * (j - 1) // 2 + i
        out[len(head) + t // 6] |= 32 >> t % 6
    return out.translate(_TO_G6).decode("ascii")


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
    inverse of to_graph6, with the edges in bit order.  Bits past the last
    pair, the padding, are ignored.  The range check and the skipping of
    zero characters run at C speed; Python touches only the set bits, and
    ``math.isqrt`` maps each bit position back to its pair."""
    if not line.isascii():
        raise ParseError(_G6_RANGE)
    raw = line.encode("ascii")
    if raw.translate(None, _G6_CHARS):  # anything left is out of range
        raise ParseError(_G6_RANGE)
    data = raw.translate(_FROM_G6)
    head = 8 if raw.startswith(b"~~") else 4 if raw.startswith(b"~") else 1
    if len(data) < head:
        raise ParseError("invalid graph6 data: the order is cut short")
    n = 0
    for d in data[head // 4 : head]:  # past the 63 markers of a long order
        n = n << 6 | d
    body = data[head:]
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6  # checked first: a long order is huge
    if len(body) != need:
        raise ParseError(
            f"invalid graph6 data: order {n} needs {need} characters of edges, "
            f"got {len(body)}"
        )
    edges = []
    for m in re.finditer(rb"[^\x00]", body):  # the characters with a bit set
        p = m.start()
        d = body[p]
        while d:  # the highest bit first, so positions ascend
            t = 6 * p + 6 - d.bit_length()
            if t >= pairs:
                break
            d ^= 32 >> t % 6
            j = (1 + math.isqrt(8 * t + 1)) // 2
            edges.append((t - j * (j - 1) // 2, j))
    return n, edges


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
