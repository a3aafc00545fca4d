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

All threshold comparisons run in exact integer arithmetic on cubes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import int_kth_root
from .errors import InternalInvariantBroken, PreconditionViolated
from .graphs import (
    ColoredGraph,
    Edge,
    RainbowMatching,
    _normalize,
    min_degree,
    validate_rainbow_matching,
)


def guaranteed_size(delta: int) -> int:
    """max(0, ceil(delta - 2*delta^(2/3))) without floating point."""
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
    level: int
    pool: list  # (color, free vertex) options at x, sorted


@dataclass
class FreeFree:
    edge: Edge


@dataclass
class HitsY:
    edge: Edge
    origin: ClassifiedEdge


@dataclass
class TwoSided:
    origin: ClassifiedEdge
    into_x: Edge
    into_y: Edge


@dataclass
class LayerState:
    graph: ColoredGraph = field(repr=False)
    matching: list
    delta: int
    free: list
    origins: dict = field(default_factory=dict)  # color -> ClassifiedEdge
    quiet_side: dict = field(default_factory=dict)  # y vertex -> ClassifiedEdge
    violation: object = None


def _greedy_order(g: ColoredGraph) -> list:
    return sorted(g.edges, key=lambda e: (e[2], e[0], e[1]))


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


def _active_edges(g: ColoredGraph, vertex: int, free_set: set, blocked_colors: set) -> list:
    """(color, r) pairs for edges from vertex to free vertices in colors
    outside blocked_colors, sorted by color then vertex."""
    found = []
    for r in g.neighbors(vertex):
        if r not in free_set:
            continue
        c = g.color_of(vertex, r)
        if c not in blocked_colors:
            found.append((c, r))
    found.sort()
    return found


def _classify_level(state: LayerState, level: int, current: list) -> tuple[list, list, list]:
    """Split one level. Returns (survivors, classified records, two-sided
    candidates found while designating)."""
    g = state.graph
    free_set = set(state.free)
    blocked = {e[2] for e in current}
    survivors: list = []
    classified: list = []
    two_sided: list = []
    for e in sorted(current):
        ex = _active_edges(g, e[0], free_set, blocked)
        ey = _active_edges(g, e[1], free_set, blocked)
        degsum = len(ex) + len(ey)
        if degsum**3 < 64 * state.delta:
            survivors.append(e)
            continue
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
        record = ClassifiedEdge(edge=e, x=x, y=y, level=level, pool=pool)
        classified.append(record)
        if pair is not None:
            (c1, r1), (c2, r2) = pair
            two_sided.append(
                TwoSided(record, _normalize(x, r1, c1), _normalize(y, r2, c2))
            )
    return survivors, classified, two_sided


def _scan_candidates(state: LayerState, survivors: list, two_sided: list) -> list:
    """Violations visible after this level, cheapest family first."""
    g = state.graph
    free_set = set(state.free)
    next_colors = {e[2] for e in survivors}
    found: list = []
    for v in state.free:
        for w in g.neighbors(v):
            if w <= v or w not in free_set:
                continue
            c = g.color_of(v, w)
            if c not in next_colors:
                found.append(FreeFree((v, w, c)))
    found.extend(two_sided)
    for v in state.free:
        for w in g.neighbors(v):
            record = state.quiet_side.get(w)
            if record is None:
                continue
            c = g.color_of(v, w)
            if c not in next_colors:
                found.append(HitsY(_normalize(v, w, c), record))
    return found


def _attempt_exchange(state: LayerState, violation) -> list | None:
    """Realize a violation as a +1 exchange, or report None.

    Every addition whose color sits on the current matching obliges us
    to delete that color's classified origin edge and repair it with a
    pooled edge; repair colors come from strictly earlier levels, so
    the obligation stack drains.
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

    if isinstance(violation, FreeFree):
        push(violation.edge)
    elif isinstance(violation, TwoSided):
        deletions.add(violation.origin.edge)
        push(violation.into_x)
        push(violation.into_y)
    elif isinstance(violation, HitsY):
        deletions.add(violation.origin.edge)
        push(violation.edge)
        if not repair(violation.origin):
            return None
    else:
        raise InternalInvariantBroken(f"unknown violation {violation!r}")

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
            for w in g.neighbors(v)
            if w in matched and g.color_of(v, w) not in next_colors
        )
        if d**3 <= 8 * delta * delta:
            raise InternalInvariantBroken(
                f"level {level}: free vertex {v} sends only {d} active edges"
                f" into the survivors, expected more than 2*delta^(2/3)"
            )


def _run_layers(state: LayerState, *, attempt: bool, check: bool) -> tuple[list | None, list]:
    """Drive the level loop on a prepared state.

    attempt=True realizes candidates as exchanges and returns the
    augmented matching as soon as one validates; attempt=False stops at
    the first candidate, recording it as state.violation. The second
    return value holds (level, |M_j|, |M_j'|) rows for tracing.
    """
    delta = state.delta
    rows: list = []
    current = list(state.matching)
    saw_candidate = False
    for level in range(1, _level_count(delta) + 1):
        survivors, classified, two_sided = _classify_level(state, level, current)
        for record in classified:
            state.origins[record.edge[2]] = record
            state.quiet_side[record.y] = record
        rows.append((level, len(current), len(classified)))
        candidates = _scan_candidates(state, survivors, two_sided)
        if candidates:
            saw_candidate = True
            if not attempt:
                state.violation = candidates[0]
                return None, rows
            for candidate in candidates:
                result = _attempt_exchange(state, candidate)
                if result is not None:
                    state.violation = candidate
                    return result, rows
            if _in_regime(len(state.matching), delta):
                raise InternalInvariantBroken(
                    f"level {level}: no detected exchange could be realized"
                )
        if check:
            _check_level(state, level, classified, survivors)
        current = survivors
    if saw_candidate and attempt and _in_regime(len(state.matching), delta):
        raise InternalInvariantBroken("no detected exchange could be realized")
    return None, rows


def _fresh_state(g: ColoredGraph, matching: list, delta: int) -> LayerState:
    covered = {x for e in matching for x in (e[0], e[1])}
    free = [v for v in g.vertices() if v not in covered]
    return LayerState(graph=g, matching=list(matching), delta=delta, free=free)


def build_layers(g: ColoredGraph, matching) -> LayerState:
    """Layer a maximal rainbow matching, stopping at the first violation."""
    m = sorted(tuple(e) for e in matching)
    state = _fresh_state(g, m, min_degree(g))
    _run_layers(state, attempt=False, check=False)
    return state


def trace_back_augment(state: LayerState, violation) -> RainbowMatching:
    """Realize a detected violation as a one-edge augmentation."""
    result = _attempt_exchange(state, violation)
    if result is None:
        raise InternalInvariantBroken(
            "exchange could not be realized: free-vertex pools exhausted"
        )
    return RainbowMatching(tuple(result))


def find_rainbow_matching_layered(
    g: ColoredGraph, *, check: bool = False, trace=None
) -> RainbowMatching:
    """Rainbow matching of size at least guaranteed_size(min_degree(g)).

    Needs vertex_count >= 2*min_degree. check=True verifies the layer
    claims on every round; trace (a callable taking one dict) receives
    per-round statistics.
    """
    delta = min_degree(g)
    if g.vertex_count < 2 * delta:
        raise PreconditionViolated(
            f"need at least {2 * delta} vertices for minimum degree {delta},"
            f" got {g.vertex_count}"
        )
    order = _greedy_order(g)
    matching = _extend_maximal(order, [])
    start = len(matching)
    rounds = 0
    while True:
        rounds += 1
        state = _fresh_state(g, matching, delta)
        result, rows = _run_layers(state, attempt=True, check=check)
        if trace is not None:
            trace(
                {
                    "round": rounds,
                    "size": len(matching),
                    "levels": [
                        {"level": lv, "edges": ne, "classified": nc}
                        for lv, ne, nc in rows
                    ],
                    "violation": type(state.violation).__name__ if state.violation else None,
                }
            )
        if result is None:
            break
        matching = _extend_maximal(order, result)
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
    return RainbowMatching(tuple(sorted(matching)))
