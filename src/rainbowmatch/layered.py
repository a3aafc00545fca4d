"""Rainbow matching within 2*delta^(2/3) of the minimum degree.

Requires at least 2*delta vertices. Starting from a greedy maximal
rainbow matching M, each round layers the matched edges by how many
still-unused-colored edges they receive from the free vertices:

  * level 1 starts from M with the colors missing from M active;
  * edges whose endpoints together carry at least 4*delta^(1/3) active
    edges to free vertices are classified out; their colors become
    active for the next level and each records a designated endpoint
    that carries the traffic plus a pool of its free-vertex edges.

The classification cannot run for 2*delta^(1/3) levels while M is more
than 2*delta^(2/3) short of delta - the survivor count would go
negative - so somewhere a structure must appear that the layering
forbids: an active edge between two free vertices, an active edge from
a free vertex into a designated edge's quiet endpoint, or active edges
of different colors leaving both endpoints of one classified edge.
Each such structure converts into an exchange: delete the classified
edges whose colors the exchange reuses, tracing every reused color
down the levels to its origin, and repair each deletion with a
pooled edge to a fresh free vertex. The exchange nets exactly one
extra edge, and rounds repeat until the bound is met and no further
structure is found.

M is the greedy walk over the edges in (color, u, v) order, read from
color -> neighbor maps without sorting the edges (see _greedy_start).
The start maps every vertex with a larger neighbor, and reads the
colors of the graph off those maps; any other vertex gets its map the
first time it is free. The start drops the map of each vertex it
matches, since the solve reads only free vertices' maps; a dropped map
is built again the first time its vertex is freed, and is then kept
for the solve.

A level costs about what it unblocks. Level 1 looks up, from every
free vertex, only the colors missing from M, and level j+1 only the
colors classified at level j, so each matched vertex's list of active
edges grows by exactly what the level unblocks. That lookup waits until
the level's free-free and two-sided candidates have all failed, since
only the quiet-side hits and the next level read it. No list of
free-free edges is kept: the scan reads a free vertex's later free
neighbors off the shorter of its later free vertices and its neighbor
map, and stops at the first exchange it realizes. Designation is lazy. Within a round a list
only grows at its end, so a classified edge records its carrying side
and that side's list length, and its pool, that prefix sorted, is made
the first time an exchange reads it. The two-sided pair is looked for
only when the scan reaches that family, before the level's lookup has
grown any list. A survivor needs only its lists' lengths. A level that
classifies nothing and realizes no exchange ends the round: nothing is
pending and nothing changed, so each later level would repeat it, and
the trace gets its rows without the work.

M is held in one index of each vertex's color and each color's edge
(graphs._MatchingIndex). An exchange is checked by its diff as it is
made in the index, which undoes it on a fault: each added edge needs a
free color, free endpoints and a place in the graph, and the size must
grow by one, which by induction is the full validation. The greedy
refill after it goes into the index too; it reads only the edges at
the vertices and in the colors the exchange freed: the matching was
maximal before, so no other edge can fit. One state serves the whole
solve: the next round patches its free vertices and active-edge lists
in place from the same diff, and reads its missing colors off the
palette and the index. check=True also validates every realized
exchange in full, compares the index and the free vertices (which,
with the graph, are all the free-free scan reads) with a fresh build
once per round and the active-edge lists with a fresh walk of the free
vertices' edges at every level, and the start and each refill with
the full greedy walk.

All threshold comparisons run in exact integer arithmetic on cubes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .arith import int_kth_root
from .errors import InternalInvariantBroken, PreconditionViolated, require_int, require_trace
from .graphs import (
    ColoredGraph,
    Edge,
    _MatchingIndex,
    _normalize,
    min_degree,
    validate_rainbow_matching,
)


def guaranteed_size(delta: int) -> int:
    """max(0, ceil(delta - 2*delta^(2/3))) without floating point, for an
    int delta ≥ 0 (PreconditionViolated otherwise)."""
    require_int("minimum degree", delta, 0)
    return max(0, delta - int_kth_root(8 * delta * delta, 3))


def _level_count(delta: int) -> int:
    """floor(2*delta^(1/3))."""
    return int_kth_root(8 * delta, 3)


def _in_regime(size: int, delta: int) -> bool:
    """Is the matching still more than 2*delta^(2/3) below delta?"""
    gap = delta - size
    return gap > 0 and gap**3 > 8 * delta * delta


@dataclass(eq=False, slots=True)
class ClassifiedEdge:
    """A matched edge whose color went active, with its designated side."""

    edge: Edge
    x: int  # endpoint carrying the active edges to free vertices
    y: int
    found: list = field(repr=False)  # x's active-edge list, which the round only appends to
    size: int  # its length at classification
    _pool: list | None = field(default=None, repr=False)

    @property
    def pool(self) -> list:
        """The (color, free vertex) options at x at classification, sorted."""
        if self._pool is None:
            self._pool = sorted(self.found[: self.size])
        return self._pool


# A violation is (kind, origin, added): kind is "FreeFree", "TwoSided" or
# "HitsY", origin the ClassifiedEdge the exchange deletes (None for
# FreeFree), and added the tuple of edges it adds.


@dataclass
class LayerState:
    """A solve's data, which _next_state moves from round to round in
    place; the defaults are what precedes the first round."""

    graph: ColoredGraph = field(repr=False)
    delta: int
    index: _MatchingIndex = field(repr=False)  # the round's matching
    palette: set = field(repr=False)  # the colors of graph
    free: list = field(default_factory=list)  # ascending
    by_color: dict = field(default_factory=dict, repr=False)  # ever-free v -> {color: neighbor}
    found: dict = field(default_factory=dict)  # matched v -> [(color, free r)] in looked colors
    looked: set = field(default_factory=set)  # the colors whose edges found holds
    pending: list = field(default_factory=list)  # active colors not looked up yet
    origins: dict = field(default_factory=dict)  # color -> ClassifiedEdge
    quiet_side: dict = field(default_factory=dict)  # y vertex -> ClassifiedEdge


_COLOR = itemgetter(2)


def _greedy_order(g: ColoredGraph) -> list:
    """g's edges in (color, u, v) order: a stable sort by color of edges
    that ColoredGraph already keeps sorted by (u, v)."""
    return sorted(g.edges, key=_COLOR)


def _fit(index: _MatchingIndex, order) -> list:
    """Add to index, in order, each edge of order that fits its matching
    directly, and return those edges."""
    color_at, edge_of = index.color_at, index.edge_of
    fitted = []
    for e in order:
        if e[0] not in color_at and e[1] not in color_at and e[2] not in edge_of:
            index.apply((), (e,))
            fitted.append(e)
    return fitted


def _colors_at(nb) -> dict:
    """The color -> neighbor map of a vertex with neighbor map nb."""
    return dict(zip(nb.values(), nb))


def _greedy_start(g: ColoredGraph, by_color: dict) -> tuple[list, set]:
    """(_fit(_MatchingIndex(g), _greedy_order(g)), the set of g's colors),
    read from color maps.

    The scan vertices, those with a larger neighbor (a neighbor map
    iterates in ascending order), include every edge's smaller end, so
    their color maps, which go into by_color, hold every color. A
    color's walk takes its smallest (u, v) with both ends free and skips
    the rest. A proper coloring gives u at most one edge in the color,
    and a hit (u, w) has w > u, or w would have hit first; so the walk
    visits, in ascending order, only the free scan vertices.

    The map of each vertex the walk matches is dropped from by_color:
    the solve reads the maps of free vertices only, and _next_state
    builds a vertex's map again the first time it is freed."""
    adj = g._adj
    scan = sorted(u for u, nb in adj.items() if next(reversed(nb)) > u)
    for u in scan:
        by_color[u] = _colors_at(adj[u])
    palette = set().union(*by_color.values())
    matched: set = set()
    matching = []
    for c in sorted(palette):
        for i, u in enumerate(scan):
            w = by_color[u].get(c)
            if w is not None and w not in matched:
                matching.append((u, w, c))
                matched.update((u, w))
                del scan[i], by_color[u]
                if by_color.pop(w, None) is not None:  # a scan vertex too
                    scan.remove(w)
                break
        if not scan:
            break
    return matching, palette


def _refill_candidates(g: ColoredGraph, by_color: dict, index: _MatchingIndex, gone: set) -> list:
    """The edges that may fit index's matching, in _greedy_order. Before
    the exchange that deleted the edges of gone, the matching was
    maximal, so only edges at a vertex or in a color of gone that the
    matching leaves free can fit now. A freed color's edges between two
    vertices that were free before the exchange are read from their
    color maps; every other edge that may fit is at a vertex the
    exchange freed."""
    used_v, used_c = index.color_at, index.edge_of
    fits = set()
    for u, v, c in gone:
        for x in (u, v):
            if x not in used_v:
                fits.update(
                    _normalize(x, w, c2)
                    for w, c2 in g.neighbors(x).items()
                    if w not in used_v and c2 not in used_c
                )
        if c not in used_c:
            fits.update(
                _normalize(x, w, c)
                for x, to in by_color.items()
                if x not in used_v and (w := to.get(c)) is not None and w not in used_v
            )
    return sorted(fits, key=itemgetter(2, 0, 1))


def _unblock(state: LayerState) -> None:
    """Look up the pending colors from every free vertex and file each
    edge that reaches a matched vertex under that vertex in found."""
    colors, state.pending = state.pending, []
    state.looked.update(colors)
    found = state.found
    for r in state.free:
        to = state.by_color[r]
        for c in colors:
            at = found.get(to.get(c))
            if at is not None:
                at.append((c, r))


def _classify_level(state: LayerState, current: list) -> tuple[list, list]:
    """Split one level, current in sorted order. Returns (survivors,
    classified records), each in current's order.

    state.found gives each endpoint of current its active edges:
    (color, free vertex) pairs in the colors outside current's, which
    _unblock has looked up. Both kinds read only the lists' lengths: the
    busier side carries a classified edge, ties to e[0]. (A classified
    edge has at least four active edges, since delta >= 1 where a level
    runs.)"""
    found = state.found
    cube = 64 * state.delta
    survivors: list = []
    classified: list = []
    for e in current:
        ex, ey = found[e[0]], found[e[1]]
        nx, ny = len(ex), len(ey)
        if (nx + ny) ** 3 < cube:
            survivors.append(e)
        elif nx >= ny:
            classified.append(ClassifiedEdge(e, e[0], e[1], ex, nx))
        else:
            classified.append(ClassifiedEdge(e, e[1], e[0], ey, ny))
    return survivors, classified


def _two_sided(state: LayerState, classified: list):
    """Yield, in classified's order, each record's two-sided violation:
    the first pair, in sorted order, of an active edge at e[0] and one at
    e[1] that differ in color and in free vertex. It runs before the
    level's _unblock, so the lists are as they were at classification."""
    found = state.found
    for record in classified:
        e = record.edge
        ex, ey = found[e[0]], found[e[1]]
        if not (ex and ey):
            continue
        ey = sorted(ey)
        pair = next(
            ((a, b) for a in sorted(ex) for b in ey if a[0] != b[0] and a[1] != b[1]),
            None,
        )
        if pair is not None:
            (c1, r1), (c2, r2) = pair
            yield ("TwoSided", record, (_normalize(e[0], r1, c1), _normalize(e[1], r2, c2)))


def _scan_candidates(state: LayerState, survivors: list, classified: list):
    """Yield the violations visible after this level, cheapest family
    first: FreeFree in (v, w) order, then TwoSided in classified's order,
    then HitsY in (free vertex, quiet vertex) order, all in colors
    outside survivors'. Each FreeFree is read when it is reached, from
    v's later free vertices or v's (ascending) neighbors, the fewer.

    A HitsY may use a color classified at this level, so the pending
    colors are looked up only once every earlier candidate has failed."""
    next_colors = {e[2] for e in survivors}
    free, neighbors, matched = state.free, state.graph.neighbors, state.index.color_at
    for i, v in enumerate(free):
        near = neighbors(v)
        if len(free) - i - 1 <= len(near):
            later = free[i + 1 :]
            pairs = zip(later, map(near.get, later))
        else:
            pairs = near.items()
        for w, c in pairs:
            if c is not None and c not in next_colors and w > v and w not in matched:
                yield ("FreeFree", None, ((v, w, c),))
    yield from _two_sided(state, classified)
    _unblock(state)
    quiet = state.quiet_side
    for r, y, c in sorted((r, y, c) for y in quiet for c, r in state.found[y]):
        yield ("HitsY", quiet[y], (_normalize(r, y, c),))


def _check_found(state: LayerState, level: int, current: list) -> None:
    """check=True: the active-edge lists against a fresh walk of the free
    vertices' edges."""
    blocked = {e[2] for e in current}
    want: dict = {x: [] for x in state.index.color_at}
    for r in state.free:
        for w, c in state.graph.neighbors(r).items():
            if w in want and c not in blocked:
                want[w].append((c, r))
    got = {w: sorted(found) for w, found in state.found.items()}
    if got != {w: sorted(found) for w, found in want.items()}:
        raise InternalInvariantBroken(
            f"level {level}: the active-edge lists differ from a fresh walk"
        )


def _exchange_of(state: LayerState, violation: tuple) -> tuple | None:
    """The exchange that realizes a violation: (the set of matched edges
    it deletes, the list of edges it adds), or None when a repair fails.

    The origin edge goes, the added edges come in, and a HitsY also
    repairs its origin from its pool. Every addition whose color sits
    on the current matching obliges us to delete that color's
    classified origin edge and repair it with a pooled edge; repair
    colors come from strictly earlier levels, so the obligation stack
    drains.
    """
    m_colors = state.index.edge_of
    deletions: set[Edge] = set()
    additions: list[Edge] = []
    used_v: set[int] = set()
    used_c: set[int] = set()
    pending: list[int] = []

    def push(edge: Edge) -> None:
        additions.append(edge)
        used_v.update((edge[0], edge[1]))
        used_c.add(edge[2])
        if edge[2] in m_colors:
            pending.append(edge[2])

    def repair(record: ClassifiedEdge) -> bool:
        for c2, r2 in record.pool:
            if c2 in used_c or r2 in used_v:
                continue
            push(_normalize(record.x, r2, c2))
            return True
        return False

    kind, origin, added = violation
    if origin is not None:
        deletions.add(origin.edge)
    for edge in added:
        push(edge)
    if kind == "HitsY" and not repair(origin):
        return None

    while pending:
        color = pending.pop()
        record = state.origins.get(color)
        if record is None:
            return None
        if record.edge in deletions:
            continue
        deletions.add(record.edge)
        if not repair(record):
            return None
    return deletions, additions


def _attempt_exchange(state: LayerState, violation: tuple, check: bool = False) -> tuple | None:
    """The violation's exchange (see _exchange_of), made in state.index if
    its change passes the index's check, else None. check=True also
    validates the matching it makes in full."""
    exchange = _exchange_of(state, violation)
    if exchange is None or state.index.change(*exchange) is not None:
        return None
    if check:
        ok, why = validate_rainbow_matching(state.graph, state.index.edges)
        if not ok:
            raise InternalInvariantBroken(f"an exchange passed its diff check but is invalid: {why}")
    return exchange


def _check_level(state: LayerState, level: int, classified: list, survivors: list) -> None:
    """In-regime claim checks, exact integer arithmetic throughout."""
    delta = state.delta
    if not _in_regime(len(state.index.edges), delta):
        return
    free_count = len(state.free)
    if free_count**3 <= 64 * delta * delta:
        raise InternalInvariantBroken(
            f"level {level}: only {free_count} free vertices, expected more than 4*delta^(2/3)"
        )
    if 8 * len(classified) ** 3 < delta * delta:
        raise InternalInvariantBroken(
            f"level {level}: classified only {len(classified)} edges,"
            f" expected at least delta^(2/3)/2"
        )
    if level + 1 > _level_count(delta):
        return
    g = state.graph
    next_colors = {e[2] for e in survivors}
    matched = {x for e in survivors for x in (e[0], e[1])}
    for v in state.free:
        d = sum(
            1
            for w, c in g.neighbors(v).items()
            if w in matched and c not in next_colors
        )
        if d**3 <= 8 * delta * delta:
            raise InternalInvariantBroken(
                f"level {level}: free vertex {v} sends only {d} active edges"
                f" into the survivors, expected more than 2*delta^(2/3)"
            )


def _run_layers(state: LayerState, *, check: bool) -> tuple[tuple | None, tuple | None, list]:
    """Drive the level loop on a prepared state.

    Realizes candidates as exchanges in state.index and returns (the
    exchange, as _attempt_exchange gives it, the violation it realized,
    rows) as soon as one passes its check, or (None, None, rows) when no
    level yields one. The rows are (level, |M_j|, |M_j'|) for tracing.

    The loop ends at the first level that classifies nothing and
    realizes no exchange. Its scan's lookup emptied pending, and found,
    free, quiet_side and current are as they were, since a failed
    attempt leaves the index unchanged; so every later level would look
    up nothing and fail on the same candidates. Their rows,
    (level, |current|, 0), are appended without running them. Under
    check=True they would check the same state again, and in regime
    _check_level raises at the level that stopped, for its 0 edges.
    """
    delta = state.delta
    rows: list = []
    current = sorted(state.index.edges)
    last = _level_count(delta)
    for level in range(1, last + 1):
        _unblock(state)
        if check:
            _check_found(state, level, current)
        survivors, classified = _classify_level(state, current)
        for record in classified:
            state.origins[record.edge[2]] = record
            state.quiet_side[record.y] = record
            state.pending.append(record.edge[2])
        rows.append((level, len(current), len(classified)))
        tried = False
        for candidate in _scan_candidates(state, survivors, classified):
            tried = True
            exchange = _attempt_exchange(state, candidate, check)
            if exchange is not None:
                return exchange, candidate, rows
        if tried and _in_regime(len(state.index.edges), delta):
            raise InternalInvariantBroken(
                f"level {level}: no detected exchange could be realized"
            )
        if check:
            _check_level(state, level, classified, survivors)
        if not classified:
            rows.extend((skipped, len(current), 0) for skipped in range(level + 1, last + 1))
            break
        current = survivors
    return None, None, rows


def _next_state(state: LayerState, freed, came) -> None:
    """Move state to the next round, whose matching state.index holds:
    the edges of came joined it and the vertices of freed became free.
    The free vertices and level-1 active-edge lists are patched only at
    the vertices and colors whose status changed; the missing colors are
    the palette's colors that the index lacks. The first round follows a
    state with no vertex free, none with a list, and no color looked up."""
    g, found, by_color = state.graph, state.found, state.by_color
    freed = set(freed)
    taken = {x for e in came for x in (e[0], e[1])}.difference(found)
    free_set = set(state.free).difference(taken)
    free_set.update(freed)
    missing = state.palette.difference(state.index.edge_of)
    kept = state.looked & missing
    # drop the lists of the freed vertices (in the first round none has
    # one), the edges from the newly covered ones, and the edges in
    # colors that are no longer missing
    for w in freed.intersection(found):
        del found[w]
    stale = state.looked - missing
    for r in state.free:
        to = by_color[r]
        for c in state.looked if r in taken else stale:
            at = found.get(to.get(c))
            if at is not None:
                at.remove((c, r))
    # add the edges in the kept colors at a newly covered or freed vertex;
    # _unblock adds the newly missing colors. A freed vertex gets its
    # color -> neighbor map unless an earlier round gave it one.
    for w in taken:
        to = by_color.get(w, {})
        found[w] = [(c, r) for c in kept if (r := to.get(c)) in free_set and r not in freed]
    for r in freed:
        if r not in by_color:
            by_color[r] = _colors_at(g.neighbors(r))
        to = by_color[r]
        for c in kept:
            at = found.get(to.get(c))
            if at is not None:
                at.append((c, r))
    state.free = sorted(free_set)
    state.looked = kept
    state.pending = list(missing - kept)
    state.origins.clear()
    state.quiet_side.clear()


def _first_state(g: ColoredGraph, delta: int, palette: set, by_color: dict, matching: list) -> LayerState:
    """The solve's one state, in its first round on matching, indexed
    afresh: every vertex it leaves uncovered is newly free."""
    index = _MatchingIndex(g)
    index.apply((), matching)
    state = LayerState(graph=g, delta=delta, index=index, palette=palette, by_color=by_color)
    # no level runs at delta 0, so a huge edgeless graph lists no vertex
    freed = [v for v in g.vertices() if v not in index.color_at] if delta else []
    _next_state(state, freed, matching)
    return state


def _check_round(state: LayerState, rounds: int) -> None:
    """check=True: the carried index and free vertices against a fresh
    build from the matching's edges."""
    edges = state.index.edges
    color_at = {x: e[2] for e in edges for x in (e[0], e[1])}
    free = [v for v in state.graph.vertices() if v not in color_at] if state.delta else []
    if (
        state.index.color_at != color_at
        or state.index.edge_of != {e[2]: e for e in edges}
        or state.free != free
    ):
        raise InternalInvariantBroken(
            f"round {rounds}: the carried index or free vertices differ from a fresh build"
        )


def find_rainbow_matching_layered(
    g: ColoredGraph, *, check: bool = False, trace=None
) -> tuple:
    """Rainbow matching of size at least guaranteed_size(min_degree(g)),
    as sorted (u, v, color) edges.

    Needs vertex_count >= 2*min_degree. check=True verifies the layer
    claims and the carried state on every round, every realized
    exchange in full, and each refill against the full greedy walk;
    trace (a callable taking one dict) receives per-round statistics;
    one that is neither None nor callable is PreconditionViolated.
    """
    delta = min_degree(g)
    require_trace(trace)
    if g.vertex_count < 2 * delta:
        raise PreconditionViolated(
            f"need at least {2 * delta} vertices for minimum degree {delta},"
            f" got {g.vertex_count}"
        )
    by_color: dict = {}
    matching, palette = _greedy_start(g, by_color)
    if check:
        order = _greedy_order(g)
        if matching != _fit(_MatchingIndex(g), order):
            raise InternalInvariantBroken("greedy start differs from the full greedy walk")
    start = len(matching)
    state = _first_state(g, delta, palette, by_color, matching)
    index = state.index
    rounds = 0
    while True:
        rounds += 1
        if check:
            _check_round(state, rounds)
        size = len(index.edges)
        exchange, violation, rows = _run_layers(state, check=check)
        if trace is not None:
            trace(
                {
                    "round": rounds,
                    "size": size,
                    "levels": [
                        {"level": lv, "edges": ne, "classified": nc}
                        for lv, ne, nc in rows
                    ],
                    "violation": violation[0] if violation else None,
                }
            )
        if exchange is None:
            break
        gone, added = exchange
        if check:
            fresh = _MatchingIndex(g)
            fresh.apply((), index.edges)
            want = _fit(fresh, order)
        refill = _fit(index, _refill_candidates(g, by_color, index, gone))
        if check and refill != want:
            raise InternalInvariantBroken(
                f"round {rounds}: refill differs from the full greedy walk"
            )
        freed = [x for e in gone for x in (e[0], e[1]) if x not in index.color_at]
        _next_state(state, freed, added + refill)
    matching = sorted(index.edges)
    bound = guaranteed_size(delta)
    if len(matching) < bound:
        raise InternalInvariantBroken(
            f"finished with {len(matching)} edges, guarantee is {bound}"
        )
    ok, why = validate_rainbow_matching(g, matching)
    if not ok:
        raise InternalInvariantBroken(f"final matching invalid: {why}")
    if trace is not None:
        trace({"rounds": rounds, "initial": start, "final": len(matching)})
    return tuple(matching)
