"""Rainbow matching of size equal to the minimum degree.

Requires at least 4*delta - 3 vertices. The solver grows the matching
one level at a time: to push a rainbow matching of size d-1 to size d
it maintains a working structure of

  * twin pairs: two vertex-disjoint rainbow matchings twins_a, twins_b
    of equal length k whose i-th edges share a color,
  * a core: a rainbow matching of size d-1-k on colors disjoint from
    the twins, and
  * chains: matchings anchored to core edges, whose first edge carries
    a color absent everywhere and whose later edges repeat colors of
    core edges covered earlier in the same chain.

Every probe edge from a vertex outside the structure either completes
a size-d rainbow matching directly, or lets the structure grow: the
pair count k rises (trading a color collision for a twin pair) or a
chain covers one more core edge. Both quantities are bounded, so each
level finishes in at most d*d probes.

A trace callable receives each probe as a dict (see
find_rainbow_matching_delta). The solver formats no text; the command
line renders its log lines from these events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInvariantBroken, PreconditionViolated
from .graphs import (
    ColoredGraph,
    Edge,
    _normalize,
    min_degree,
    validate_rainbow_matching,
)


@dataclass
class Chain:
    """Edges hang off core edges; edges[p] touches core[cores[p]] at anchors[p]."""

    edges: list
    anchors: list
    cores: list


@dataclass
class _Index:
    """Lookups derived from a configuration, kept in step with it.

    banned holds the colors a probe edge may not use: the twin colors
    and the colors of uncovered core edges. cursor is a lower bound on
    the first vertex outside the structure; the structure only grows
    within one configuration, so the cursor never moves back.
    """

    roles: dict  # vertex -> role; anchors shadow core entries
    core_by_color: dict
    twin_colors: set
    banned: set
    anchors: set
    cursor: int = 1


@dataclass
class GoodConfiguration:
    graph: ColoredGraph = field(repr=False)
    target: int
    twins_a: list
    twins_b: list
    core: list
    chains: list
    cover: dict  # core index -> (chain index, position)
    _index: _Index | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def pair_count(self) -> int:
        return len(self.twins_a)


@dataclass
class Matched:
    matching: tuple  # sorted edges


@dataclass
class RepeatIncreased:
    config: GoodConfiguration


@dataclass
class ChainsExtended:
    config: GoodConfiguration


def _build_index(config: GoodConfiguration) -> _Index:
    roles: dict[int, tuple] = {}
    for i, (a, b) in enumerate(zip(config.twins_a, config.twins_b)):
        roles[a[0]] = roles[a[1]] = ("twin", i, 0)
        roles[b[0]] = roles[b[1]] = ("twin", i, 1)
    for i, e in enumerate(config.core):
        roles[e[0]] = roles[e[1]] = ("core", i)
    for ci, chain in enumerate(config.chains):
        for p, e in enumerate(chain.edges):
            anchor = chain.anchors[p]
            free_end = e[1] if e[0] == anchor else e[0]
            roles[anchor] = ("anchor", ci, p)
            roles[free_end] = ("chain", ci, p)
    twin_colors = {e[2] for e in config.twins_a}
    return _Index(
        roles=roles,
        core_by_color={e[2]: i for i, e in enumerate(config.core)},
        twin_colors=twin_colors,
        banned=twin_colors
        | {e[2] for i, e in enumerate(config.core) if i not in config.cover},
        anchors={a for chain in config.chains for a in chain.anchors},
    )


def _index_of(config: GoodConfiguration) -> _Index:
    if config._index is None:
        config._index = _build_index(config)
    return config._index


def _first_free(config: GoodConfiguration) -> int:
    """Smallest vertex outside the structure."""
    index = _index_of(config)
    v = index.cursor
    while v in index.roles:
        v += 1
    index.cursor = v
    if v > config.graph.vertex_count:
        raise InternalInvariantBroken("no vertex left outside the structure")
    return v


def extend_by_free_edge(config: GoodConfiguration, v: int) -> tuple[int, int]:
    """Choose the probe edge at free vertex v.

    Bans the twin colors, the colors of uncovered core edges, and the
    anchor vertices: d-1 constraints against degree >= d, so an edge
    always remains. Smallest admissible neighbor wins.
    """
    g = config.graph
    index = _index_of(config)
    banned, anchors = index.banned, index.anchors
    for w, c in g.neighbors(v).items():
        if c in banned or w in anchors:
            continue
        return v, w
    raise InternalInvariantBroken(f"no admissible probe edge at vertex {v}")


def chain_rotate(config: GoodConfiguration, chain_index: int, position: int):
    """Swap sequence freeing the core edge covered at the given position.

    Removes that core edge and adds its covering chain edge; the added
    color duplicates an earlier covered core edge of the same chain, so
    the swap cascades until the chain's first edge (whose color is
    fresh) comes in. Returns (removed core edges, added chain edges):
    applied to twins_a + core, the net effect trades the starting core
    color for one fresh color.
    """
    chain = config.chains[chain_index]
    removed: list[Edge] = []
    added: list[Edge] = []
    p = position
    while True:
        removed.append(config.core[chain.cores[p]])
        edge = chain.edges[p]
        added.append(edge)
        if p == 0:
            return removed, added
        color = edge[2]
        for q in range(p):
            if config.core[chain.cores[q]][2] == color:
                p = q
                break
        else:
            raise InternalInvariantBroken(
                "chain edge color missing from earlier covered core edges"
            )


def _restructure(config: GoodConfiguration, candidate: list) -> GoodConfiguration:
    """Turn a candidate with exactly one duplicated color into a new
    configuration with one more twin pair and no chains."""
    by_color: dict[int, list] = {}
    for e in candidate:
        by_color.setdefault(e[2], []).append(e)
    dups = [edges for edges in by_color.values() if len(edges) > 1]
    if len(dups) != 1 or len(dups[0]) != 2:
        raise InternalInvariantBroken("candidate does not have exactly one duplicated color")
    first, second = sorted(dups[0])
    old = set(config.twins_a) | {first, second}
    return GoodConfiguration(
        graph=config.graph,
        target=config.target,
        twins_a=config.twins_a + [first],
        twins_b=config.twins_b + [second],
        core=[e for e in candidate if e not in old],
        chains=[],
        cover={},
    )


def _avoiding_pairs(config: GoodConfiguration, w: int) -> list:
    """One edge per twin pair, skipping whichever edge contains w."""
    return [
        b if w in (a[0], a[1]) else a
        for a, b in zip(config.twins_a, config.twins_b)
    ]


def _covering(config: GoodConfiguration, core_idx: int) -> tuple[int, int]:
    spot = config.cover.get(core_idx)
    if spot is None:
        raise InternalInvariantBroken("probe color belongs to an uncovered core edge")
    return spot


def _rotated_core(config: GoodConfiguration, core_idx: int) -> list:
    """The core after rotating in the chain that covers core_idx."""
    removed, added = chain_rotate(config, *_covering(config, core_idx))
    gone = set(removed)
    return [e for e in config.core if e not in gone] + added


def resolve_case(config: GoodConfiguration, edge: tuple[int, int]):
    """Apply one probe edge; finish, add a twin pair, or grow chains."""
    v, w = edge
    g = config.graph
    c = g.color_of(v, w)
    vw = _normalize(v, w, c)
    index = _index_of(config)
    core_by_color = index.core_by_color
    fresh = c not in index.twin_colors and c not in core_by_color

    role = index.roles.get(w)
    if role is None:
        # w outside the structure
        if fresh:
            return Matched(tuple(sorted(config.twins_a + config.core + [vw])))
        rotated = _rotated_core(config, core_by_color[c])
        return Matched(tuple(sorted(config.twins_a + rotated + [vw])))

    kind = role[0]
    if kind == "twin":
        if fresh:
            keep = config.twins_b if role[2] == 0 else config.twins_a
            return Matched(tuple(sorted(keep + config.core + [vw])))
        rotated = _rotated_core(config, core_by_color[c])
        return Matched(tuple(sorted(_avoiding_pairs(config, w) + rotated + [vw])))

    if kind == "chain":
        if fresh:
            return Matched(tuple(sorted(config.twins_a + config.core + [vw])))
        candidate = config.twins_a + config.core + [vw]
        return RepeatIncreased(_restructure(config, candidate))

    if kind == "core":
        core_idx = role[1]
        if core_idx in config.cover:
            candidate = config.twins_a + _rotated_core(config, core_idx) + [vw]
            colors = [e[2] for e in candidate]
            if len(set(colors)) == len(colors):
                return Matched(tuple(sorted(candidate)))
            return RepeatIncreased(_restructure(config, candidate))
        # uncovered core edge: start or continue a chain
        if fresh:
            ci = len(config.chains)
            config.chains.append(Chain(edges=[], anchors=[], cores=[]))
        else:
            ci, _ = _covering(config, core_by_color[c])
        chain = config.chains[ci]
        p = len(chain.edges)
        chain.edges.append(vw)
        chain.anchors.append(w)
        chain.cores.append(core_idx)
        config.cover[core_idx] = (ci, p)
        index.roles[w] = ("anchor", ci, p)
        index.roles[v] = ("chain", ci, p)
        index.anchors.add(w)
        index.banned.discard(config.core[core_idx][2])
        return ChainsExtended(config)

    raise InternalInvariantBroken(f"probe edge landed on banned vertex {w} ({role})")


def _finish_full_twins(config: GoodConfiguration) -> tuple:
    """All d-1 colors are duplicated; any vertex outside the structure
    has an edge avoiding the d-1 twin colors, and whichever endpoint it
    hits, one twin per pair survives."""
    g = config.graph
    v = _first_free(config)
    twin_colors = _index_of(config).twin_colors
    for w, c in g.neighbors(v).items():
        if c not in twin_colors:
            vw = _normalize(v, w, c)
            return tuple(sorted(_avoiding_pairs(config, w) + [vw]))
    raise InternalInvariantBroken(f"no fresh-colored edge at vertex {v}")


def _audit(config: GoodConfiguration) -> None:
    g = config.graph
    d = config.target
    k = config.pair_count

    def fail(msg: str):
        raise InternalInvariantBroken(f"configuration audit: {msg}")

    if len(config.twins_b) != k:
        fail("twin lists differ in length")
    if len(config.core) != d - 1 - k:
        fail("core size is not target-1-k")
    for e in config.twins_a + config.twins_b + config.core + [
        e for chain in config.chains for e in chain.edges
    ]:
        if g.color_of(e[0], e[1]) != e[2]:
            fail(f"edge {e} not in the graph")
    for a, b in zip(config.twins_a, config.twins_b):
        if a[2] != b[2]:
            fail("twin pair colors differ")
    twin_colors = [e[2] for e in config.twins_a]
    if len(set(twin_colors)) != k:
        fail("twin colors repeat")
    core_colors = [e[2] for e in config.core]
    if len(set(core_colors)) != len(core_colors):
        fail("core colors repeat")
    if set(core_colors) & set(twin_colors):
        fail("core reuses a twin color")
    seen: set[int] = set()
    for e in config.twins_a + config.twins_b + config.core:
        for x in (e[0], e[1]):
            if x in seen:
                fail(f"vertex {x} used twice in the matchings")
            seen.add(x)
    chain_vertices: set[int] = set()
    for ci, chain in enumerate(config.chains):
        if not chain.edges:
            fail("empty chain")
        if not (len(chain.edges) == len(chain.anchors) == len(chain.cores)):
            fail("chain field lengths differ")
        first = chain.edges[0][2]
        if first in twin_colors or first in core_colors:
            fail("chain first edge color is not fresh")
        for p, e in enumerate(chain.edges):
            anchor = chain.anchors[p]
            core_edge = config.core[chain.cores[p]]
            if anchor not in (e[0], e[1]) or anchor not in (core_edge[0], core_edge[1]):
                fail("anchor not shared by chain edge and core edge")
            if config.cover.get(chain.cores[p]) != (ci, p):
                fail("cover map out of sync")
            free_end = e[1] if e[0] == anchor else e[0]
            if free_end in seen:
                fail("chain endpoint collides with the matchings")
            if free_end in chain_vertices or anchor in chain_vertices:
                fail("chains overlap")
            chain_vertices.update((free_end, anchor))
            if p > 0:
                earlier = {config.core[chain.cores[q]][2] for q in range(p)}
                if e[2] not in earlier:
                    fail("chain edge color not among earlier covered core colors")
    if len(config.cover) != sum(len(chain.edges) for chain in config.chains):
        fail("cover map size mismatch")
    if len(seen | chain_vertices) > 4 * (d - 1):
        fail("structure grew past its vertex budget")
    cached = config._index
    if cached is not None:
        fresh = _build_index(config)
        for name in ("roles", "core_by_color", "twin_colors", "banned", "anchors"):
            if getattr(cached, name) != getattr(fresh, name):
                fail(f"cached {name} out of sync with the structure")
        if any(u not in fresh.roles for u in range(1, cached.cursor)):
            fail("free-vertex cursor skipped a vertex outside the structure")


def _advance_level(g: ColoredGraph, d: int, prev: tuple, check: bool, trace) -> tuple:
    """Grow a rainbow matching of size d-1 to size d."""
    config = GoodConfiguration(
        graph=g, target=d, twins_a=[], twins_b=[], core=list(prev), chains=[], cover={}
    )
    if check:
        _audit(config)
    for _ in range(16 * d * d * d):
        if config.pair_count == d - 1:
            result = _finish_full_twins(config)
            if trace is not None:
                trace({"level": d, "k": config.pair_count, "outcome": "FullTwins"})
            return result
        v, w = extend_by_free_edge(config, _first_free(config))
        outcome = resolve_case(config, (v, w))
        if trace is not None:
            trace(
                {
                    "level": d,
                    "k": config.pair_count,
                    "covered": len(config.cover),
                    "probe": [v, w],
                    "outcome": type(outcome).__name__,
                }
            )
        if isinstance(outcome, Matched):
            edges = outcome.matching
            ok, why = validate_rainbow_matching(g, edges)
            if not ok or len(edges) != d:
                raise InternalInvariantBroken(f"level {d} produced a bad matching: {why}")
            return edges
        config = outcome.config
        if check:
            _audit(config)
    raise InternalInvariantBroken(f"level {d} exceeded its probe budget")


def find_rainbow_matching_delta(g: ColoredGraph, *, check: bool = False, trace=None) -> tuple:
    """Rainbow matching of size exactly min_degree(g), as sorted (u, v, color) edges.

    Needs vertex_count >= 4*min_degree - 3; raises PreconditionViolated
    otherwise. check=True re-audits every intermediate structure. trace
    (a callable taking one dict) receives one event per probe, with the
    keys level, k, covered, probe ([v, w]) and outcome (Matched,
    RepeatIncreased or ChainsExtended), and one {level, k, outcome:
    FullTwins} event for a level completed from the full twin set.
    """
    delta = min_degree(g)
    if g.vertex_count < 4 * delta - 3:
        raise PreconditionViolated(
            f"need at least {4 * delta - 3} vertices for minimum degree {delta},"
            f" got {g.vertex_count}"
        )
    matching: tuple = ()
    for d in range(1, delta + 1):
        matching = _advance_level(g, d, matching, check, trace)
    ok, why = validate_rainbow_matching(g, matching)
    if not ok or len(matching) != delta:
        raise InternalInvariantBroken(f"final matching invalid: {why}")
    return matching
