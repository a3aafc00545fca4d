"""Rainbow matching of size equal to the minimum degree.

Requires at least 4*delta - 3 vertices. The solver grows the matching
one level at a time: to push a rainbow matching of size d-1 to size d
it maintains a working structure of

  * twin pairs: two vertex-disjoint rainbow matchings twins_a, twins_b
    of equal length k whose i-th edges share a color,
  * a core: a rainbow matching of size d-1-k on colors disjoint from
    the twins, and
  * a cover map from each covered core color to the chain edge that
    shares one endpoint, its anchor, with that core edge. A chain edge's
    color is absent everywhere or a core color covered earlier, whose
    chain edge the chain continues with.

Every probe edge from a vertex outside the structure either completes
a size-d rainbow matching directly, or lets the structure grow: the
pair count k rises (trading a color collision for a twin pair) or a
chain covers one more core edge. With k pairs at most d-1-k probes
extend a chain before one raises k or ends the level, so a level takes
at most d(d+1)/2 probes, inside the loop's budget of d*d.

A GoodConfiguration holds each fact once. The core is one map from
color to core edge, which core vertices and the cover map name by
color. Each vertex's role and the colors a probe may not use are
fields kept in step with the structure; an anchor is a vertex whose
role says so. A level starts from copies of the carried matching's two
maps: color to edge is the core, and vertex to color the roles. At a
level's end the solver diffs the new result against the old: removed
edges leave the carried maps, and each added edge must bring an unused
color and unused endpoints and be in the graph. With the size and a
check that no edge is listed twice, that is by induction the full
validation, which runs once on the final matching, and at every level
as well under check=True. A level's matching lives only in the carried
maps, sorted once at the end; a probe edge brings the color found with it.

A trace callable receives each probe as a dict (see
find_rainbow_matching_delta). The solver formats no text; the command
line renders its log lines from these events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import InternalInvariantBroken, PreconditionViolated, require_trace
from .graphs import (
    _NO_NEIGHBORS,
    ColoredGraph,
    Edge,
    _MatchingIndex,
    _normalize,
    min_degree,
    validate_rainbow_matching,
)


@dataclass
class GoodConfiguration:
    """Twin pairs, a core and its chains, with two lookups kept in step.

    A vertex's role is its core edge's color, an int, or a tuple:
    ("twin", i, side), _ANCHOR or _CHAIN_END. banned holds the colors a
    probe edge may not use: the twin colors and the uncovered core ones.
    Both are built from the structure unless the caller passes them, in
    step with it.
    """

    graph: ColoredGraph = field(repr=False)
    target: int
    twins_a: list
    twins_b: list
    core: dict  # core color -> core edge
    cover: dict  # covered core color -> its chain edge, in the order added
    roles: dict = field(default=None, repr=False, compare=False)  # an anchor shadows its core entry
    banned: set = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.roles is None:
            self.roles, self.banned = _build_index(self)


@dataclass
class Matched:
    matching: list  # the level's edges, as the case built them


@dataclass
class RepeatIncreased:
    config: GoodConfiguration


@dataclass
class ChainsExtended:
    """The probe grew a chain of the configuration in place."""


# the outcome has no fields, so every chain extension returns this one
_CHAINS_EXTENDED = ChainsExtended()

# the roles of a chain edge's anchor on a core edge and of its free end
_ANCHOR = ("anchor",)
_CHAIN_END = ("chain",)


def _build_index(config: GoodConfiguration) -> tuple[dict, set]:
    """The roles and banned colors of the configuration's structure."""
    roles: dict[int, int | tuple] = {}
    for i, (a, b) in enumerate(zip(config.twins_a, config.twins_b)):
        roles[a[0]] = roles[a[1]] = ("twin", i, 0)
        roles[b[0]] = roles[b[1]] = ("twin", i, 1)
    core = config.core
    roles.update(zip(map(itemgetter(0), core.values()), core))
    roles.update(zip(map(itemgetter(1), core.values()), core))
    for color, e in config.cover.items():
        # the chain edge and its core edge share one endpoint, the anchor
        anchor, free_end = (e[0], e[1]) if e[0] in core[color][:2] else (e[1], e[0])
        roles[anchor] = _ANCHOR
        roles[free_end] = _CHAIN_END
    banned = set(core)
    banned.difference_update(config.cover)
    banned.update(map(itemgetter(2), config.twins_a))
    return roles, banned


def extend_by_free_edge(config: GoodConfiguration, v: int) -> tuple[int, int, int]:
    """Choose the probe edge (v, w, color) at free vertex v.

    Bans the twin colors, the colors of uncovered core edges, and the
    anchor vertices: d-1 constraints against degree >= d, so an edge
    always remains. Smallest admissible neighbor wins.
    """
    banned, roles = config.banned, config.roles
    for w, c in config.graph._adj.get(v, _NO_NEIGHBORS).items():
        if c in banned or roles.get(w) is _ANCHOR:
            continue
        return v, w, c
    raise InternalInvariantBroken(f"no admissible probe edge at vertex {v}")


def chain_rotate(config: GoodConfiguration, color: int):
    """Swap sequence freeing the covered core edge of the given color.

    Removes that core edge and adds the chain edge covering it; while
    the added color is a core color, covered earlier, the swap cascades
    to that color, until a chain edge of fresh color comes in. Returns
    (removed core edges, added chain edges): applied to twins_a + core,
    the net effect trades the starting core color for one fresh color.
    """
    cover, core = config.cover, config.core
    removed: list[Edge] = []
    added: list[Edge] = []
    # a valid rotation follows each cover record at most once
    for _ in range(len(cover)):
        edge = cover.get(color)
        if edge is None:
            break
        removed.append(core[color])
        added.append(edge)
        color = edge[2]
        if color not in core:
            return removed, added
    if color in cover:
        raise InternalInvariantBroken("chain rotation loops through its cover records")
    raise InternalInvariantBroken(f"chain rotation reached color {color}, which no chain covers")


def _restructure(config: GoodConfiguration, candidate: list, colors: list) -> GoodConfiguration:
    """Turn a candidate, twins_a then core edges then the probe edge, with
    colors its edges' colors, into a new configuration with one more twin
    pair and no chains. The probe edge's color, which is not banned, must
    be the one repeat, and its other edge a core edge."""
    k = len(config.twins_a)
    i = colors.index(colors[-1])
    if len(set(colors)) != len(colors) - 1 or not k <= i < len(colors) - 1:
        raise InternalInvariantBroken("candidate does not have exactly one duplicated color")
    first, second = sorted((candidate[i], candidate[-1]))
    return GoodConfiguration(
        graph=config.graph,
        target=config.target,
        twins_a=config.twins_a + [first],
        twins_b=config.twins_b + [second],
        core={e[2]: e for e in candidate[k:i] + candidate[i + 1 : -1]},
        cover={},
    )


def _avoiding_pairs(config: GoodConfiguration, w: int) -> list:
    """One edge per twin pair, skipping whichever edge contains w."""
    return [
        b if w in (a[0], a[1]) else a
        for a, b in zip(config.twins_a, config.twins_b)
    ]


def _rotated_core(config: GoodConfiguration, color: int) -> list:
    """The core edges after rotating in the chain that covers the core color."""
    removed, added = chain_rotate(config, color)
    gone = set(removed)
    return [e for e in config.core.values() if e not in gone] + added


def resolve_case(config: GoodConfiguration, edge: tuple[int, int, int]):
    """Apply the probe edge (v, w, color); finish, add a twin pair, or grow chains."""
    v, w, c = edge
    vw = (v, w, c) if v <= w else (w, v, c)
    roles, banned, core = config.roles, config.banned, config.core
    # banned is the twin colors and some core colors
    fresh = c not in banned and c not in core
    role = roles.get(w)

    if type(role) is int and role not in config.cover:
        # uncovered core edge, named by its color: start a chain with a
        # fresh color or continue the one covering c (most probes)
        if not fresh and c not in config.cover:
            if c in core:
                raise InternalInvariantBroken("probe color belongs to an uncovered core edge")
            raise InternalInvariantBroken("probe color belongs to a twin pair")
        config.cover[role] = vw
        roles[w] = _ANCHOR
        roles[v] = _CHAIN_END
        banned.discard(role)
        return _CHAINS_EXTENDED

    if role is None:
        # w outside the structure
        if fresh:
            return Matched([*config.twins_a, *core.values(), vw])
        rotated = _rotated_core(config, c)
        return Matched(config.twins_a + rotated + [vw])

    if type(role) is int:
        # covered core edge
        candidate = config.twins_a + _rotated_core(config, role) + [vw]
        colors = list(map(itemgetter(2), candidate))
        if len(set(colors)) == len(colors):
            return Matched(candidate)
        return RepeatIncreased(_restructure(config, candidate, colors))

    kind = role[0]
    if kind == "twin":
        if fresh:
            keep = config.twins_b if role[2] == 0 else config.twins_a
            return Matched([*keep, *core.values(), vw])
        rotated = _rotated_core(config, c)
        return Matched(_avoiding_pairs(config, w) + rotated + [vw])

    if kind == "chain":
        candidate = [*config.twins_a, *core.values(), vw]
        if fresh:
            return Matched(candidate)
        return RepeatIncreased(_restructure(config, candidate, list(map(itemgetter(2), candidate))))

    raise InternalInvariantBroken(f"probe edge landed on banned vertex {w} ({role})")


def _finish_full_twins(config: GoodConfiguration, v: int) -> list:
    """All d-1 colors are duplicated; v, like any vertex outside the
    structure, has an edge avoiding the d-1 twin colors, and whichever
    endpoint it hits, one twin per pair survives."""
    twin_colors = config.banned  # the core is empty
    for w, c in config.graph.neighbors(v).items():
        if c not in twin_colors:
            vw = _normalize(v, w, c)
            return _avoiding_pairs(config, w) + [vw]
    raise InternalInvariantBroken(f"no fresh-colored edge at vertex {v}")


def _audit(config: GoodConfiguration, cursor: int = 1) -> None:
    """Check the whole configuration and its lookups; every vertex below
    cursor, the loop's free-vertex position, must be in the structure.
    The structure needs no vertex budget check: once the checks below
    pass, every anchor is a core vertex, so it has 2(d-1+k) matched
    vertices and at most d-1-k free chain ends, and 3(d-1)+k <= 4(d-1)."""
    g = config.graph
    d = config.target
    k = len(config.twins_a)

    def fail(msg: str):
        raise InternalInvariantBroken(f"configuration audit: {msg}")

    if len(config.twins_b) != k:
        fail("twin lists differ in length")
    core = config.core
    if len(core) != d - 1 - k:
        fail("core size is not target-1-k")
    for e in [*config.twins_a, *config.twins_b, *core.values(), *config.cover.values()]:
        if g.color_of(e[0], e[1]) != e[2]:
            fail(f"edge {e} not in the graph")
    for a, b in zip(config.twins_a, config.twins_b):
        if a[2] != b[2]:
            fail("twin pair colors differ")
    twin_colors = [e[2] for e in config.twins_a]
    if len(set(twin_colors)) != k:
        fail("twin colors repeat")
    if any(e[2] != color for color, e in core.items()):
        fail("core edge filed under another color")
    if core.keys() & set(twin_colors):
        fail("core reuses a twin color")
    seen: set[int] = set()
    for e in [*config.twins_a, *config.twins_b, *core.values()]:
        for x in (e[0], e[1]):
            if x in seen:
                fail(f"vertex {x} used twice in the matchings")
            seen.add(x)
    chain_vertices: set[int] = set()
    covered: set[int] = set()  # the core colors covered so far, in cover order
    for color, e in config.cover.items():
        core_edge = core.get(color)
        if core_edge is None:
            fail("chain covers a color outside the core")
        shared = {e[0], e[1]} & {core_edge[0], core_edge[1]}
        if len(shared) != 1:
            fail("anchor not shared by chain edge and core edge")
        (anchor,) = shared
        free_end = e[1] if e[0] == anchor else e[0]
        if free_end in seen:
            fail("chain endpoint collides with the matchings")
        if free_end in chain_vertices or anchor in chain_vertices:
            fail("chains overlap")
        chain_vertices.update((free_end, anchor))
        if e[2] in core and e[2] not in covered:
            fail("chain edge color not among earlier covered core colors")
        if e[2] in twin_colors:
            fail("chain first edge color is not fresh")
        covered.add(color)
    roles, banned = _build_index(config)
    for name, built in (("roles", roles), ("banned", banned)):
        if getattr(config, name) != built:
            fail(f"cached {name} out of sync with the structure")
    if any(u not in roles for u in range(1, cursor)):
        fail("free-vertex cursor skipped a vertex outside the structure")


def _checked_level(g: ColoredGraph, d: int, carried: _MatchingIndex, edges, check: bool) -> None:
    """Carry the level's result into carried once it passed the local
    check and, under check=True, the full validation."""
    new = set(edges)
    if len(edges) != d:
        why = f"{len(edges)} edges, expected {d}"
    elif len(new) != d:
        why = "a color is repeated"  # by an edge listed twice
    else:
        why = carried.change(carried.edges - new, new - carried.edges)
    if why is None and check:
        why = validate_rainbow_matching(g, edges)[1]
    if why is not None:
        raise InternalInvariantBroken(f"level {d} produced a bad matching: {why}")


def _advance_level(g: ColoredGraph, d: int, carried: _MatchingIndex, check: bool, trace) -> None:
    """Grow carried's rainbow matching of size d-1 to size d, and carry
    the result into carried.

    The level starts from copies of the carried maps. Most probes
    extend a chain, which keeps the configuration and its roles, so the
    free-vertex cursor v only moves forward. A RepeatIncreased builds a
    new configuration, and v starts again at 1.
    """
    config = GoodConfiguration(
        graph=g, target=d, twins_a=[], twins_b=[], core=dict(carried.edge_of), cover={},
        roles=dict(carried.color_at), banned=set(carried.edge_of),
    )
    if check:
        _audit(config)
    n = g.vertex_count
    roles = config.roles
    v = 1
    for _ in range(d * d):
        while v in roles:
            v += 1
        if v > n:
            raise InternalInvariantBroken("no vertex left outside the structure")
        if len(config.twins_a) == d - 1:
            result = _finish_full_twins(config, v)
            if trace is not None:
                trace({"level": d, "k": len(config.twins_a), "outcome": "FullTwins"})
            return _checked_level(g, d, carried, result, check)
        probe = extend_by_free_edge(config, v)
        outcome = resolve_case(config, probe)
        if trace is not None:
            trace(
                {
                    "level": d,
                    "k": len(config.twins_a),
                    "covered": len(config.cover),
                    "probe": [v, probe[1]],
                    "outcome": type(outcome).__name__,
                }
            )
        if type(outcome) is RepeatIncreased:
            config = outcome.config
            roles = config.roles
            v = 1
        elif type(outcome) is Matched:
            return _checked_level(g, d, carried, outcome.matching, check)
        if check:
            _audit(config, v)
    raise InternalInvariantBroken(f"level {d} exceeded its probe budget")


def find_rainbow_matching_delta(g: ColoredGraph, *, check: bool = False, trace=None) -> tuple:
    """Rainbow matching of size exactly min_degree(g), as sorted (u, v, color) edges.

    Needs vertex_count >= 4*min_degree - 3; raises PreconditionViolated
    otherwise. check=True re-audits every intermediate structure and
    validates each level's result in full. trace (a callable taking one
    dict) receives one event per probe, with the keys level, k,
    covered, probe ([v, w]) and outcome (Matched,
    RepeatIncreased or ChainsExtended), and one {level, k, outcome:
    FullTwins} event for a level completed from the full twin set. A
    trace that is neither None nor callable is PreconditionViolated.
    """
    delta = min_degree(g)
    require_trace(trace)
    if g.vertex_count < 4 * delta - 3:
        raise PreconditionViolated(
            f"need at least {4 * delta - 3} vertices for minimum degree {delta},"
            f" got {g.vertex_count}"
        )
    carried = _MatchingIndex(g)
    for d in range(1, delta + 1):
        _advance_level(g, d, carried, check, trace)
    matching = tuple(sorted(carried.edges))
    ok, why = validate_rainbow_matching(g, matching)
    if ok and len(matching) != delta:
        ok, why = False, f"{len(matching)} edges, expected {delta}"
    if not ok:
        raise InternalInvariantBroken(f"final matching invalid: {why}")
    return matching
