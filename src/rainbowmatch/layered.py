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
color -> neighbor maps without sorting the edges (see _greedy_start). A
vertex gets its map the first time the start scans it or it is free,
and keeps it for the solve.

A level costs about what it unblocks. Each round lists its free-free
edges once. Level 1 looks up, from every free vertex, only the colors
missing from M, and level j+1 only the colors classified at level j, so
each matched vertex's list of active edges grows by exactly what the
level unblocks. That lookup waits until the level's free-free and
two-sided candidates have all failed, since only the quiet-side hits
and the next level read it. A survivor needs only its lists' lengths;
only a classified edge's lists are sorted. After an exchange the matching is extended greedily
again, reading only the edges at the vertices and in the colors the
exchange freed: the matching was maximal before, so no other edge can
fit. check=True also compares the active-edge lists with a fresh walk
of the free vertices' edges at every level, and the start and each
refill with the full greedy walk.

All threshold comparisons run in exact integer arithmetic on cubes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .arith import int_kth_root
from .errors import InternalInvariantBroken, PreconditionViolated, require_int
from .graphs import (
    ColoredGraph,
    Edge,
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


@dataclass
class ClassifiedEdge:
    """A matched edge whose color went active, with its designated side."""

    edge: Edge
    x: int  # endpoint carrying the active edges to free vertices
    y: int
    pool: list  # (color, free vertex) options at x, sorted


# A violation is (kind, origin, added): kind is "FreeFree", "TwoSided" or
# "HitsY", origin the ClassifiedEdge the exchange deletes (None for
# FreeFree), and added the tuple of edges it adds.


@dataclass
class LayerState:
    """One round's data; the defaults give the prior of the first round."""

    graph: ColoredGraph = field(repr=False)
    delta: int
    palette: set = field(repr=False)  # every color of graph
    matching: list = field(default_factory=list)
    free: list = field(default_factory=list)
    by_color: dict = field(default_factory=dict, repr=False)  # scanned or ever-free v -> {color: neighbor}
    free_free: list = field(default_factory=list)  # (v, w, color), v < w both free, sorted
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


def _extend_maximal(order: list, matching: list) -> list:
    """Add every edge of order, a _greedy_order list, that fits directly."""
    m = list(matching)
    used_v = {x for e in m for x in (e[0], e[1])}
    used_c = {e[2] for e in m}
    for u, v, c in order:
        if u in used_v or v in used_v or c in used_c:
            continue
        m.append((u, v, c))
        used_v.update((u, v))
        used_c.add(c)
    return m


def _colors_at(nb) -> dict:
    """The color -> neighbor map of a vertex with neighbor map nb."""
    return dict(zip(nb.values(), nb))


def _greedy_start(g: ColoredGraph, palette: set, by_color: dict) -> list:
    """_extend_maximal(_greedy_order(g), []), read from color maps.

    A color's walk takes its smallest (u, v) with both ends free and
    skips the rest. A proper coloring gives u at most one edge in the
    color, and a hit (u, w) has w > u, or w would have hit first; so the
    scan visits, in ascending order, only the free vertices with a
    larger neighbor (a neighbor map iterates in ascending order). Fills
    by_color with the map of every vertex it scans."""
    adj = g._adj
    scan = sorted(u for u, nb in adj.items() if next(reversed(nb)) > u)
    matched: set = set()
    matching = []
    for c in sorted(palette):
        for i, u in enumerate(scan):
            to = by_color.get(u)
            if to is None:
                to = by_color[u] = _colors_at(adj[u])
            w = to.get(c)
            if w is not None and w not in matched:
                matching.append((u, w, c))
                matched.update((u, w))
                del scan[i]
                if next(reversed(adj[w])) > w:
                    scan.remove(w)
                break
        if not scan:
            break
    return matching


def _refill_candidates(g: ColoredGraph, by_color: dict, matching: list, gone: set) -> list:
    """The edges that may fit matching, in _greedy_order. Before the
    exchange that deleted the edges of gone, the matching was maximal,
    so only edges at a vertex or in a color of gone that matching leaves
    free can fit now. A freed color's edges between two vertices that
    were free before the exchange are read from their color maps; every
    other edge that may fit is at a vertex the exchange freed."""
    used_v = {x for e in matching for x in (e[0], e[1])}
    used_c = {e[2] for e in matching}
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


def _classify_level(state: LayerState, current: list) -> tuple[list, list, list]:
    """Split one level. Returns (survivors, classified records, two-sided
    violations found while designating).

    state.found gives each endpoint of current its active edges:
    (color, free vertex) pairs in the colors outside current's, which
    _unblock has looked up. A survivor reads only their counts; a
    classified edge sorts both lists, for its pool and its pair."""
    found = state.found
    survivors: list = []
    classified: list = []
    two_sided: list = []
    for e in sorted(current):
        ex, ey = found[e[0]], found[e[1]]
        degsum = len(ex) + len(ey)
        if degsum**3 < 64 * state.delta:
            survivors.append(e)
            continue
        ex, ey = sorted(ex), sorted(ey)
        if ex and ey:
            pair = next(
                (
                    (a, b)
                    for a in ex
                    for b in ey
                    if a[0] != b[0] and a[1] != b[1]
                ),
                None,
            )
            # designation fallback: the busier side carries, ties to e[0]
            x, pool = (e[0], ex) if len(ex) >= len(ey) else (e[1], ey)
        else:
            pair = None
            x, pool = (e[0], ex) if ex else (e[1], ey)
        y = e[1] if x == e[0] else e[0]
        record = ClassifiedEdge(edge=e, x=x, y=y, pool=pool)
        classified.append(record)
        if pair is not None:
            (c1, r1), (c2, r2) = pair  # from ex at e[0] and ey at e[1]
            added = (_normalize(e[0], r1, c1), _normalize(e[1], r2, c2))
            two_sided.append(("TwoSided", record, added))
    return survivors, classified, two_sided


def _scan_candidates(state: LayerState, survivors: list, two_sided: list):
    """Yield the violations visible after this level, cheapest family
    first: FreeFree in (v, w) order, then two_sided, then HitsY in
    (free vertex, quiet vertex) order, all in colors outside survivors'.

    A HitsY may use a color classified at this level, so the pending
    colors are looked up only once every earlier candidate has failed."""
    next_colors = {e[2] for e in survivors}
    for v, w, c in state.free_free:
        if c not in next_colors:
            yield ("FreeFree", None, ((v, w, c),))
    yield from two_sided
    _unblock(state)
    quiet = state.quiet_side
    for r, y, c in sorted((r, y, c) for y in quiet for c, r in state.found[y]):
        yield ("HitsY", quiet[y], (_normalize(r, y, c),))


def _check_found(state: LayerState, level: int, current: list) -> None:
    """check=True: the free-free edges and the active-edge lists against
    a fresh walk of the free vertices' edges."""
    blocked = {e[2] for e in current}
    want: dict = {x: [] for e in state.matching for x in (e[0], e[1])}
    free_free = []
    for r in state.free:
        for w, c in state.graph.neighbors(r).items():
            if w not in want:
                if w > r:
                    free_free.append((r, w, c))
            elif c not in blocked:
                want[w].append((c, r))
    got = {w: sorted(found) for w, found in state.found.items()}
    if free_free != state.free_free or got != {w: sorted(found) for w, found in want.items()}:
        raise InternalInvariantBroken(
            f"level {level}: the active-edge lists differ from a fresh walk"
        )


def _attempt_exchange(state: LayerState, violation: tuple) -> list | None:
    """Realize a violation as a +1 exchange, or report None.

    The origin edge goes, the added edges come in, and a HitsY also
    repairs its origin from its pool. Every addition whose color sits
    on the current matching obliges us to delete that color's
    classified origin edge and repair it with a pooled edge; repair
    colors come from strictly earlier levels, so the obligation stack
    drains.
    """
    g = state.graph
    m = state.matching
    m_colors = {e[2] for e in m}
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

    result = [e for e in m if e not in deletions] + additions
    ok, _ = validate_rainbow_matching(g, result)
    if not ok or len(result) != len(m) + 1:
        return None
    return sorted(result)


def _check_level(state: LayerState, level: int, classified: list, survivors: list) -> None:
    """In-regime claim checks, exact integer arithmetic throughout."""
    delta = state.delta
    if not _in_regime(len(state.matching), delta):
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


def _run_layers(state: LayerState, *, check: bool) -> tuple[list | None, tuple | None, list]:
    """Drive the level loop on a prepared state.

    Realizes candidates as exchanges and returns (augmented matching,
    the violation it realized, rows) as soon as one validates, or
    (None, None, rows) when no level yields one. The rows are
    (level, |M_j|, |M_j'|) for tracing.
    """
    delta = state.delta
    rows: list = []
    current = list(state.matching)
    for level in range(1, _level_count(delta) + 1):
        _unblock(state)
        if check:
            _check_found(state, level, current)
        survivors, classified, two_sided = _classify_level(state, current)
        for record in classified:
            state.origins[record.edge[2]] = record
            state.quiet_side[record.y] = record
            state.pending.append(record.edge[2])
        rows.append((level, len(current), len(classified)))
        tried = False
        for candidate in _scan_candidates(state, survivors, two_sided):
            tried = True
            result = _attempt_exchange(state, candidate)
            if result is not None:
                return result, candidate, rows
        if tried and _in_regime(len(state.matching), delta):
            raise InternalInvariantBroken(
                f"level {level}: no detected exchange could be realized"
            )
        if check:
            _check_level(state, level, classified, survivors)
        current = survivors
    return None, None, rows


def _next_state(prior: LayerState, matching: list) -> LayerState:
    """The state of the round after prior, on matching: prior's free-free
    edges and level-1 active-edge lists, patched only at the vertices and
    colors whose status changed. prior's lists are reused in place. The
    first round follows a default LayerState: no vertex free, none with a
    list or a color map, and no color looked up."""
    g = prior.graph
    covered = {x for e in matching for x in (e[0], e[1])}
    # no level runs at delta 0, so a huge edgeless graph lists no vertex
    free = [v for v in g.vertices() if v not in covered] if prior.delta else []
    free_set = set(free)
    freed = free_set.difference(prior.free)
    found = prior.found
    missing = prior.palette.difference(e[2] for e in matching)
    kept = prior.looked & missing
    # drop the lists of the freed vertices, the edges from the newly
    # covered ones, and the edges in colors that are no longer missing
    for w in found.keys() - covered:
        del found[w]
    taken = covered - found.keys()
    stale = prior.looked - missing
    by_color = prior.by_color
    for r in prior.free:
        to = by_color[r]
        for c in prior.looked if r in taken else stale:
            at = found.get(to.get(c))
            if at is not None:
                at.remove((c, r))
    # add the edges in the kept colors at a newly covered or freed vertex;
    # _unblock adds the newly missing colors. A freed vertex gets its
    # color -> neighbor map unless an earlier round gave it one.
    for w in taken:
        to = by_color.get(w, {})
        found[w] = [(c, r) for c in kept if (r := to.get(c)) in free_set and r not in freed]
    free_free = [e for e in prior.free_free if e[0] not in taken and e[1] not in taken]
    for r in freed:
        nb = g.neighbors(r)
        if r not in by_color:
            by_color[r] = _colors_at(nb)
        free_free.extend(
            _normalize(r, w, nb[w]) for w in nb.keys() & free_set if w > r or w not in freed
        )
        to = by_color[r]
        for c in kept:
            at = found.get(to.get(c))
            if at is not None:
                at.append((c, r))
    free_free.sort()
    return LayerState(
        graph=g,
        matching=list(matching),
        delta=prior.delta,
        free=free,
        palette=prior.palette,
        by_color=by_color,
        free_free=free_free,
        found=found,
        looked=kept,
        pending=list(missing - kept),
    )


def find_rainbow_matching_layered(
    g: ColoredGraph, *, check: bool = False, trace=None
) -> tuple:
    """Rainbow matching of size at least guaranteed_size(min_degree(g)),
    as sorted (u, v, color) edges.

    Needs vertex_count >= 2*min_degree. check=True verifies the layer
    claims on every round and each refill against the full greedy walk;
    trace (a callable taking one dict) receives per-round statistics.
    """
    delta = min_degree(g)
    if g.vertex_count < 2 * delta:
        raise PreconditionViolated(
            f"need at least {2 * delta} vertices for minimum degree {delta},"
            f" got {g.vertex_count}"
        )
    palette = set(map(_COLOR, g.edges))
    by_color: dict = {}
    matching = _greedy_start(g, palette, by_color)
    if check:
        order = _greedy_order(g)
        if matching != _extend_maximal(order, []):
            raise InternalInvariantBroken("greedy start differs from the full greedy walk")
    start = len(matching)
    rounds = 0
    state = LayerState(graph=g, delta=delta, palette=palette, by_color=by_color)
    while True:
        rounds += 1
        state = _next_state(state, matching)
        result, violation, rows = _run_layers(state, check=check)
        if trace is not None:
            trace(
                {
                    "round": rounds,
                    "size": len(matching),
                    "levels": [
                        {"level": lv, "edges": ne, "classified": nc}
                        for lv, ne, nc in rows
                    ],
                    "violation": violation[0] if violation else None,
                }
            )
        if result is None:
            break
        gone = set(matching).difference(result)
        refilled = _extend_maximal(_refill_candidates(g, state.by_color, result, gone), result)
        if check and refilled != _extend_maximal(order, result):
            raise InternalInvariantBroken(
                f"round {rounds}: refill differs from the full greedy walk"
            )
        matching = refilled
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
    return tuple(sorted(matching))
