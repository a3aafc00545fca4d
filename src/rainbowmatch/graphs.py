"""Properly edge-colored graphs and rainbow matchings.

Vertices are 1-based integers, colors are opaque non-negative integers.
A graph is immutable once built; every solver works on private state and
certifies its output against the unchanged instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadShape, DuplicateEdge, ImproperColoring, SelfLoop

# an edge is (u, v, color) with u < v after normalization
Edge = tuple[int, int, int]


@dataclass(frozen=True)
class ColoredGraph:
    vertex_count: int
    edges: tuple[Edge, ...]
    _adj: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise BadShape("vertex_count must be non-negative")
        adj: dict[int, dict[int, int]] = {v: {} for v in range(1, self.vertex_count + 1)}
        # color -> neighbor at each vertex, for the properness check only;
        # dicts keep the build's peak memory below that of sets
        palette: dict[int, dict[int, int]] = {v: {} for v in range(1, self.vertex_count + 1)}
        for u, v, c in self.edges:
            if u == v:
                raise SelfLoop(f"edge {u}-{v} is a self-loop")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise BadShape(f"edge {u}-{v} outside vertex range 1..{self.vertex_count}")
            if c < 0:
                raise BadShape(f"edge {u}-{v} has negative color {c}")
            if v in adj[u]:
                raise DuplicateEdge(f"edge {u}-{v} appears more than once")
            if c in palette[u]:
                raise ImproperColoring(f"color {c} repeated at vertex {u}")
            if c in palette[v]:
                raise ImproperColoring(f"color {c} repeated at vertex {v}")
            adj[u][v] = c
            adj[v][u] = c
            palette[u][c] = v
            palette[v][c] = u
        object.__setattr__(self, "_adj", adj)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def color_of(self, u: int, v: int) -> int | None:
        return self._adj[u].get(v)

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)


@dataclass(frozen=True)
class RainbowMatching:
    """Container for a solver certificate; validity is checked externally."""

    edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


def _normalize(u: int, v: int, c: int) -> Edge:
    return (u, v, c) if u <= v else (v, u, c)


def build_graph(vertex_count: int, edge_list) -> ColoredGraph:
    """Validate and freeze an edge list into a ColoredGraph."""
    edges = tuple(sorted(_normalize(u, v, c) for u, v, c in edge_list))
    return ColoredGraph(vertex_count, edges)


def min_degree(g: ColoredGraph) -> int:
    if g.vertex_count == 0:
        return 0
    return min(g.degree(v) for v in g.vertices())


def _as_edges(m) -> list[Edge]:
    if isinstance(m, RainbowMatching):
        return list(m.edges)
    return [(u, v, c) for u, v, c in m]


def validate_rainbow_matching(g: ColoredGraph, m) -> tuple[bool, str | None]:
    """Check membership, vertex-disjointness and color-distinctness.

    Returns (True, None) or (False, first violation).
    """
    seen_vertices: set[int] = set()
    seen_colors: set[int] = set()
    for u, v, c in _as_edges(m):
        a, b = (u, v) if u <= v else (v, u)
        if not (1 <= a <= g.vertex_count and 1 <= b <= g.vertex_count) or g.color_of(a, b) != c:
            return False, f"edge {a}-{b} with color {c} is not in the graph"
        if a in seen_vertices or b in seen_vertices:
            shared = a if a in seen_vertices else b
            return False, f"vertex {shared} is covered twice"
        if c in seen_colors:
            return False, f"color {c} is repeated"
        seen_vertices.update((a, b))
        seen_colors.add(c)
    return True, None


def parse_graph(text: str) -> ColoredGraph:
    """Parse the colored-graph text format.

    Line 1: ``graph V E``; then E lines ``u v c``. Lines starting with
    '#' and blank lines are ignored. Errors carry 1-based line numbers.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    pairs: set[tuple[int, int]] = set()
    colors_at: dict[int, set[int]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise BadShape(f"line {ln}: expected 'u v c' integers") from None
        if u == v:
            raise SelfLoop(f"line {ln}: edge {u}-{v} is a self-loop")
        if not (1 <= u <= header[0] and 1 <= v <= header[0]):
            raise BadShape(f"line {ln}: vertex outside range 1..{header[0]}")
        if c < 0:
            raise BadShape(f"line {ln}: negative color {c}")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in pairs:
            raise DuplicateEdge(f"line {ln}: duplicate edge {a}-{b}")
        for end in (a, b):
            if c in colors_at.setdefault(end, set()):
                raise ImproperColoring(f"line {ln}: color {c} repeated at vertex {end}")
        pairs.add((a, b))
        colors_at[a].add(c)
        colors_at[b].add(c)
        edges.append((a, b, c))
    if header is None:
        raise BadShape("empty input: missing 'graph V E' header")
    if len(edges) != header[1]:
        raise BadShape(f"header announced {header[1]} edges, found {len(edges)}")
    return build_graph(header[0], edges)


def format_graph(g: ColoredGraph) -> str:
    lines = [f"graph {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"
