"""Properly edge-colored graphs and rainbow matchings.

Vertices are 1-based integers, colors are opaque non-negative integers.
A graph is immutable once built; every solver works on private state and
certifies its output against the unchanged instance. A graph stores
one {neighbor: color} map per vertex with an edge and nothing else;
its edge list is read off the maps on demand. The constructor checks
the maps a caller's edges build, in bulk, and reads a rejected list
again, edge by edge, to name its first fault.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import MappingProxyType

from .errors import (
    BadShape,
    DuplicateEdge,
    ImproperColoring,
    InternalInvariantBroken,
    RainbowError,
    SelfLoop,
    require_type,
)

# an edge is (u, v, color) with u < v after normalization
Edge = tuple[int, int, int]


def _raise_first_fault(n: int, edges) -> None:
    """Check each edge in list order (BadShape if not three ints, bools
    and integral floats included; self-loop, vertex range, negative color,
    repeated pair, color repeated at an end) and raise the first fault,
    with the edge's ``position``. ColoredGraph calls it only on a list its
    bulk check rejected, so valid input never pays for these sets."""
    pairs: set = set()
    ends: set = set()  # (vertex, color) for each end of the edges so far
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
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise DuplicateEdge(f"edge {u}-{v} appears more than once")
            if (u, c) in ends:
                raise ImproperColoring(f"color {c} repeated at vertex {u}")
            if (v, c) in ends:
                raise ImproperColoring(f"color {c} repeated at vertex {v}")
            pairs.add(pair)
            ends.update(((u, c), (v, c)))
    except (RainbowError, TypeError, ValueError) as exc:
        if not isinstance(exc, RainbowError):
            # an edge that is not three fields
            exc = BadShape(f"edge {edges[i]!r} is not three integers")
        exc.position = i
        raise exc from None


_NO_NEIGHBORS: MappingProxyType = MappingProxyType({})


def _proper_maps(vertex_count: int, adj: dict, edge_count: int) -> bool:
    """Do adj's neighbor maps index edge_count edges of three ints as a
    proper coloring of a graph on 1..vertex_count? Unless an edge is a
    self-loop or repeats a pair, which the count rejects, it puts each
    end as a key in the other end's map, so the keys show every end's
    type; and a vertex has as many colors as neighbors unless a color
    repeats there. TypeError when the vertices do not compare."""
    maps = adj.values()
    return (
        set(map(type, chain.from_iterable(maps))) <= {int}
        and set(map(type, chain.from_iterable(map(dict.values, maps)))) <= {int}
        and min(adj, default=1) >= 1
        and max(adj, default=0) <= vertex_count
        and min(chain.from_iterable(map(dict.values, maps)), default=0) >= 0
        and sum(map(len, map(set, map(dict.values, maps)))) == 2 * edge_count
    )


@dataclass(frozen=True, init=False)
class ColoredGraph:
    """A properly edge-colored graph on the vertices 1..vertex_count,
    held as one {neighbor: color} map per vertex with an edge, so each
    edge is stored once per end and nowhere else. The constructor is
    the one place where a caller's edges are checked: in bulk, on the
    maps they build, then, if that fails, edge by edge in the order
    given (see _raise_first_fault), so an error's ``position`` is the
    first failing edge's index in that order.

    neighbors(v) is v's read-only {neighbor: color} map, iterating in
    ascending neighbor order; solvers read colors from it directly. Only
    the vertices with an edge are indexed; the others answer as empty.
    Two graphs are equal when they have the same vertex count and the
    same maps, so the same edges."""

    vertex_count: int
    _adj: dict = field(repr=False)

    def __init__(self, vertex_count: int, edges) -> None:
        if type(vertex_count) is not int or vertex_count < 0:
            raise BadShape(f"vertex_count must be a non-negative int, got {vertex_count!r}")
        # a list or tuple is read in place, since a copy would raise the build's peak heap
        given = edges
        if not isinstance(given, (list, tuple)):
            try:
                given = tuple(given)
            except TypeError:
                raise BadShape(f"edges must be an iterable of (u, v, color), got {given!r}") from None
        try:
            # indexing the edges in sorted order inserts each vertex's
            # neighbors in ascending order, which neighbors() promises
            adj: defaultdict = defaultdict(dict)
            for u, v, c in sorted([e if type(e) is tuple and e[0] <= e[1] else _normalize(*e) for e in given]):
                adj[u][v] = c
                adj[v][u] = c
            valid = _proper_maps(vertex_count, adj, len(given))
        except (TypeError, ValueError, IndexError):
            valid = False  # an edge that is not three fields, or fields that do not compare or hash
        if not valid:
            _raise_first_fault(vertex_count, given)
            raise InternalInvariantBroken("the bulk edge check rejected edges that pass one by one")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "_adj", dict(adj))

    @classmethod
    def _proved(cls, vertex_count: int, adj: dict) -> ColoredGraph:
        """The graph whose neighbor maps, each in ascending order, are
        adj, taken as given: for maps the caller has already proved a
        proper coloring, so no check runs."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "_adj", adj)
        return g

    @classmethod
    def _checked(cls, vertex_count: int, adj: dict, edge_count: int) -> ColoredGraph:
        """The graph whose neighbor maps, each in ascending order, are
        adj, after the constructor's bulk check; the caller built them,
        so a failure is an internal fault."""
        if not _proper_maps(vertex_count, adj, edge_count):
            raise InternalInvariantBroken("neighbor maps that are not a proper coloring")
        return cls._proved(vertex_count, adj)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (u, v, color) with u < v, sorted: a new tuple built
        from the maps on each read, O(E), so bind it once to read it
        more than once. A vertex's larger neighbors end its map."""
        adj = self._adj
        out: list = []
        for u in sorted(adj):
            nb = adj[u]
            i = bisect(list(nb), u)
            out.extend(zip(repeat(u), islice(nb, i, None), islice(nb.values(), i, None)))
        return tuple(out)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

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
    require_type(g, ColoredGraph)
    if len(g._adj) < g.vertex_count:
        return 0
    return min(map(len, g._adj.values()), default=0)


def validate_rainbow_matching(g: ColoredGraph, m) -> tuple[bool, str | None]:
    """Check membership, vertex-disjointness and color-distinctness.

    Returns (True, None) or (False, first violation).
    """
    require_type(g, ColoredGraph)
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


class _MatchingIndex:
    """A rainbow matching of graph, indexed for changes that touch few of
    its edges: each covered vertex's color (color_at), each color's edge
    (edge_of) and the edge set (edges).

    apply makes a change unchecked; change checks it as it makes it. From
    the empty matching, changes that pass the check keep the index a
    rainbow matching of graph, so by induction the check does the work
    of validate_rainbow_matching on the changed matching."""

    __slots__ = ("graph", "color_at", "edge_of", "edges")

    def __init__(self, graph: ColoredGraph) -> None:
        self.graph = graph
        self.color_at: dict = {}
        self.edge_of: dict = {}
        self.edges: set = set()

    def apply(self, removed, added) -> None:
        """Take the edges of removed out and put those of added in."""
        color_at, edge_of = self.color_at, self.edge_of
        for u, v, c in removed:
            del color_at[u], color_at[v], edge_of[c]
        self.edges.difference_update(removed)
        for e in added:
            color_at[e[0]] = color_at[e[1]] = e[2]
            edge_of[e[2]] = e
        self.edges.update(added)

    def change(self, removed, added) -> str | None:
        """Why taking removed, a set of the matching's edges, out and
        putting the edges of added in would not leave a rainbow matching
        of graph one edge larger, or None once the index holds it. The
        removed edges leave, then each added one is checked as it is put
        in: an edge listed twice in added, or a kept edge added again,
        repeats its color. On a fault the index is put back as it was."""
        size = len(self.edges) - len(removed) + len(added)
        if size != len(self.edges) + 1:
            return f"{size} edges, expected {len(self.edges) + 1}"
        self.apply(removed, ())
        color_at, edge_of = self.color_at, self.edge_of
        adj = self.graph._adj
        put: list = []
        for e in added:
            u, v, c = e
            if c in edge_of:
                why = "a color is repeated"
            elif u == v or u in color_at or v in color_at:
                why = "a vertex is covered twice"
            elif adj.get(u, _NO_NEIGHBORS).get(v) != c:
                why = f"edge {u}-{v} with color {c} is not in the graph"
            else:
                color_at[u] = color_at[v] = c
                edge_of[c] = e
                put.append(e)
                continue
            self.apply(put, removed)
            return why
        self.edges.update(put)
        return None


def _content_lines(text: str):
    """Yield (line number, stripped line) for each line of text, a str,
    that is neither blank nor a '#' comment."""
    require_type(text, str)
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
    of a wrong edge count. Each vertex is kept as the first int parsed
    for it, so the graph holds one int per vertex, as a generated one does.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    lines: list[int] = []  # the line number of each edge
    seen: dict = {}  # each vertex parsed so far, mapped to itself
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
        edges.append((seen.setdefault(u, u), seen.setdefault(v, v), c))
        lines.append(ln)
    if header is None:
        raise BadShape("empty input: missing 'graph V E' header")
    try:
        g = ColoredGraph(header[0], edges)
    except InternalInvariantBroken:
        raise
    except RainbowError as exc:
        raise type(exc)(f"line {lines[exc.position]}: {exc}") from None
    if len(edges) != header[1]:
        raise BadShape(f"header announced {header[1]} edges, found {len(edges)}")
    return g


def format_graph(g: ColoredGraph) -> str:
    require_type(g, ColoredGraph)
    edges = g.edges
    lines = [f"graph {g.vertex_count} {len(edges)}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in edges)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)
