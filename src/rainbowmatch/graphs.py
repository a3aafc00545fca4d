"""Properly edge-colored graphs and rainbow matchings.

Vertices are 1-based integers, colors are opaque non-negative integers.
A graph is immutable once built; every solver works on private state and
certifies its output against the unchanged instance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import BadShape, DuplicateEdge, ImproperColoring, RainbowError, SelfLoop

# an edge is (u, v, color) with u < v after normalization
Edge = tuple[int, int, int]


def _adjacency(n: int, edges) -> dict[int, dict[int, int]]:
    """Check each edge in list order (BadShape if not three ints, bools
    and integral floats included; self-loop, vertex range, negative color,
    repeated pair, color repeated at an end) and index them by vertex.
    Errors carry the edge's ``position``. Only vertices with an edge get
    an entry, so a huge vertex count costs nothing by itself."""
    adj: defaultdict = defaultdict(dict)
    # color -> neighbor at each vertex, for the properness check only;
    # dicts keep the build's peak memory below that of sets
    palette: defaultdict = defaultdict(dict)
    try:
        for i, (u, v, c) in enumerate(edges):
            if type(u) is not int or type(v) is not int or type(c) is not int:
                raise BadShape(f"edge {edges[i]!r} is not three integers")
            if u == v:
                raise SelfLoop(f"edge {u}-{v} is a self-loop")
            if not (1 <= u <= n and 1 <= v <= n):
                raise BadShape(f"edge {u}-{v} outside vertex range 1..{n}")
            if c < 0:
                raise BadShape(f"edge {u}-{v} has negative color {c}")
            at_u, at_v, colors_u, colors_v = adj[u], adj[v], palette[u], palette[v]
            if v in at_u:
                raise DuplicateEdge(f"edge {u}-{v} appears more than once")
            if c in colors_u:
                raise ImproperColoring(f"color {c} repeated at vertex {u}")
            if c in colors_v:
                raise ImproperColoring(f"color {c} repeated at vertex {v}")
            at_u[v] = c
            at_v[u] = c
            colors_u[c] = v
            colors_v[c] = u
    except (RainbowError, TypeError, ValueError) as exc:
        if not isinstance(exc, RainbowError):
            # an edge that is not three fields
            exc = BadShape(f"edge {edges[i]!r} is not three integers")
        exc.position = i
        raise exc from None
    return dict(adj)


_NO_NEIGHBORS: MappingProxyType = MappingProxyType({})


@dataclass(frozen=True)
class ColoredGraph:
    """A properly edge-colored graph on the vertices 1..vertex_count, its
    edges stored normalized (u < v) and sorted. The constructor is the one
    place where edges are checked (see _adjacency); an error's
    ``position`` is the first failing edge's index in the order given.

    neighbors(v) is v's read-only {neighbor: color} map, iterating in
    ascending neighbor order; solvers read colors from it directly. Only
    the vertices with an edge are indexed; the others answer as empty."""

    vertex_count: int
    edges: tuple[Edge, ...]
    _adj: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.vertex_count) is not int or self.vertex_count < 0:
            raise BadShape(f"vertex_count must be a non-negative int, got {self.vertex_count!r}")
        # a list or tuple is read in place, since a copy would raise the build's peak heap
        given = self.edges
        if not isinstance(given, (list, tuple)):
            try:
                given = tuple(given)
            except TypeError:
                raise BadShape(f"edges must be an iterable of (u, v, color), got {given!r}") from None
        try:
            edges = tuple(sorted([(u, v, c) if u <= v else (v, u, c) for u, v, c in given]))
            adj = _adjacency(self.vertex_count, edges)
        except (RainbowError, TypeError, ValueError):
            # indexing the sorted edges inserts each vertex's neighbors in
            # ascending order, which neighbors() promises; no check depends
            # on the order, so the given order fails too, at the edge to report
            _adjacency(self.vertex_count, given)
            raise
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", adj)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> MappingProxyType:
        try:
            return MappingProxyType(self._adj[v])
        except KeyError:
            if self._edgeless(v):
                return _NO_NEIGHBORS
            raise

    def color_of(self, u: int, v: int) -> int | None:
        try:
            return self._adj[u].get(v)
        except KeyError:
            if self._edgeless(u):
                return None
            raise

    def _edgeless(self, v) -> bool:
        """Is v, which the index lacks, equal to a vertex 1..vertex_count?
        Such a vertex has no edge."""
        try:
            return v == int(v) and 1 <= v <= self.vertex_count
        except (TypeError, ValueError, OverflowError):
            return False

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)


def _normalize(u: int, v: int, c: int) -> Edge:
    return (u, v, c) if u <= v else (v, u, c)


def build_graph(vertex_count: int, edge_list) -> ColoredGraph:
    """Validate and freeze an edge list into a ColoredGraph."""
    return ColoredGraph(vertex_count, edge_list)


def min_degree(g: ColoredGraph) -> int:
    """0 without a walk over the vertices when one has no edge."""
    if len(g._adj) < g.vertex_count:
        return 0
    return min(map(len, g._adj.values()), default=0)


def validate_rainbow_matching(g: ColoredGraph, m) -> tuple[bool, str | None]:
    """Check membership, vertex-disjointness and color-distinctness.

    Returns (True, None) or (False, first violation).
    """
    try:
        edges = iter(m)
    except TypeError:
        return False, f"matching {m!r} is not iterable"
    seen_vertices: set[int] = set()
    seen_colors: set[int] = set()
    for edge in edges:
        try:
            u, v, c = edge
            a, b = (u, v) if u <= v else (v, u)
            if not (1 <= a <= g.vertex_count and 1 <= b <= g.vertex_count) or g.color_of(a, b) != c:
                return False, f"edge {a}-{b} with color {c} is not in the graph"
        except (KeyError, TypeError, ValueError):
            return False, f"edge {edge!r} is not three integers"
        if a in seen_vertices or b in seen_vertices:
            shared = a if a in seen_vertices else b
            return False, f"vertex {shared} is covered twice"
        if c in seen_colors:
            return False, f"color {c} is repeated"
        seen_vertices.update((a, b))
        seen_colors.add(c)
    return True, None


def _content_lines(text: str):
    """Yield (line number, stripped line) for each line of text that is
    neither blank nor a '#' comment."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line


def parse_graph(text: str) -> ColoredGraph:
    """Parse the colored-graph text format.

    Line 1: ``graph V E``; then E lines ``u v c``. Lines starting with
    '#' and blank lines are ignored. The parser checks the header, the
    integer fields and the edge count; ColoredGraph checks the edges, and
    the first failing one is raised again as ``line N: <message>``, ahead
    of a wrong edge count.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    lines: list[int] = []  # the line number of each edge
    for ln, line in _content_lines(text):
        parts = line.split()
        if header is None:
            if len(parts) != 3 or parts[0] != "graph":
                raise BadShape(f"line {ln}: expected header 'graph V E'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise BadShape(f"line {ln}: header counts must be integers") from None
            if header[0] < 0 or header[1] < 0:
                raise BadShape(f"line {ln}: header counts must be non-negative")
            continue
        try:
            u, v, c = map(int, parts)
        except ValueError:
            raise BadShape(f"line {ln}: expected 'u v c' integers") from None
        edges.append((u, v, c))
        lines.append(ln)
    if header is None:
        raise BadShape("empty input: missing 'graph V E' header")
    try:
        g = ColoredGraph(header[0], edges)
    except RainbowError as exc:
        raise type(exc)(f"line {lines[exc.position]}: {exc}") from None
    if len(edges) != header[1]:
        raise BadShape(f"header announced {header[1]} edges, found {len(edges)}")
    return g


def format_graph(g: ColoredGraph) -> str:
    lines = [f"graph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"
