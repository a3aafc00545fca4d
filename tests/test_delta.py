"""Rainbow matchings of size equal to the minimum degree."""

import ast
import hashlib
import json
import re
from collections import Counter
from operator import itemgetter, setitem
from pathlib import Path

import pytest

from rainbowmatch import (
    InternalInvariantBroken,
    PreconditionViolated,
    build_graph,
    build_square,
    find_rainbow_matching_delta,
    find_rainbow_matching_layered,
    min_degree,
    random_proper_graph,
    split_seed,
    to_bipartite_factorization,
    validate_rainbow_matching,
)
from rainbowmatch import delta, layered
from rainbowmatch.graphs import _NO_NEIGHBORS, _MatchingIndex
from rainbowmatch.delta import (
    ChainsExtended,
    GoodConfiguration,
    Matched,
    _advance_level,
    _audit,
    _checked_level,
    _finish_full_twins,
    _restructure,
    chain_rotate,
    extend_by_free_edge,
    resolve_case,
)

from test_layered import _CHECK_FAULTS


def _solve_and_check(g):
    m = find_rainbow_matching_delta(g, check=True)
    ok, why = validate_rainbow_matching(g, m)
    assert ok, why
    assert len(m) == min_degree(g)
    return m


def test_single_edge():
    g = build_graph(2, [(1, 2, 3)])
    assert len(_solve_and_check(g)) == 1


def test_empty_graph_yields_empty_matching():
    g = build_graph(5, [])
    assert list(find_rainbow_matching_delta(g)) == []


def test_two_colored_cycle_on_enough_vertices():
    # the 8-cycle alternates two colors; delta is 2 and 8 >= 5
    edges = [(1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 2),
             (5, 6, 1), (6, 7, 2), (7, 8, 1), (1, 8, 2)]
    _solve_and_check(build_graph(8, edges))


def test_rejects_too_few_vertices():
    # K4 properly 3-colored: delta 3 but only 4 < 9 vertices
    edges = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (1, 4, 3), (2, 3, 3)]
    g = build_graph(4, edges)
    with pytest.raises(PreconditionViolated):
        find_rainbow_matching_delta(g)


def test_random_instances_across_degrees():
    for delta in range(1, 6):
        for trial in range(8):
            seed = split_seed(99, delta * 100 + trial)
            n = max(delta + 1, 4 * delta - 3 + seed % 9)
            g = random_proper_graph(n, delta, seed=seed)
            _solve_and_check(g)


def test_output_is_deterministic():
    g = random_proper_graph(13, 4, seed=21)
    result = find_rainbow_matching_delta(g)
    assert result == find_rainbow_matching_delta(g)
    assert type(result) is tuple and list(result) == sorted(result)


def test_trace_reports_every_level():
    g = random_proper_graph(13, 4, seed=2)
    events = []
    traced = find_rainbow_matching_delta(g, trace=events.append)
    assert sorted({event["level"] for event in events}) == [1, 2, 3, 4]
    for event in events:
        if event["outcome"] == "FullTwins":
            assert set(event) == {"level", "k", "outcome"}
        else:
            assert set(event) == {"level", "k", "covered", "probe", "outcome"}
            assert event["outcome"] in ("Matched", "RepeatIncreased", "ChainsExtended")
    # every level ends in a matching, from a probe or from the full twin set
    last = {event["level"]: event["outcome"] for event in events}
    assert set(last.values()) <= {"Matched", "FullTwins"}
    assert traced == find_rainbow_matching_delta(g) == find_rainbow_matching_delta(g, check=True)


def test_chain_rotate_cascades_to_the_fresh_color():
    g = build_graph(10, [(1, 2, 5), (3, 4, 6), (2, 9, 7), (4, 10, 5)])
    config = GoodConfiguration(
        graph=g,
        target=4,
        twins_a=[],
        twins_b=[],
        core={5: (1, 2, 5), 6: (3, 4, 6)},
        # one chain covers the core edges of colors 5 and 6: the edge
        # covering 6 has color 5, whose edge has the fresh color 7
        cover={5: (2, 9, 7), 6: (4, 10, 5)},
    )
    removed, added = chain_rotate(config, 6)
    assert removed == [(3, 4, 6), (1, 2, 5)]
    assert added == [(4, 10, 5), (2, 9, 7)]


def test_restructure_promotes_the_duplicated_color():
    g = build_graph(8, [(1, 2, 1), (3, 4, 2), (5, 6, 1), (7, 8, 3)])
    config = GoodConfiguration(
        graph=g, target=3, twins_a=[], twins_b=[], core={}, cover={}
    )
    candidate = [(1, 2, 1), (7, 8, 3), (5, 6, 1)]  # core edges, then the probe edge
    out = _restructure(config, candidate, [1, 3, 1])
    assert out.twins_a == [(1, 2, 1)]
    assert out.twins_b == [(5, 6, 1)]
    assert out.core == {3: (7, 8, 3)}
    assert out.cover == {}


def test_restructure_rejects_candidates_without_one_duplicate():
    g = build_graph(4, [(1, 2, 1), (3, 4, 2)])
    config = GoodConfiguration(
        graph=g, target=2, twins_a=[], twins_b=[], core={}, cover={}
    )
    with pytest.raises(InternalInvariantBroken):
        _restructure(config, [(1, 2, 1), (3, 4, 2)], [1, 2])


@pytest.mark.parametrize(
    "twins, candidate",
    [
        ([], [(1, 2, 1), (3, 4, 1), (5, 6, 2)]),
        ([], [(1, 2, 1), (3, 4, 2), (5, 6, 1), (7, 8, 2)]),
        ([((1, 2, 1), (3, 4, 1))], [(1, 2, 1), (5, 6, 2), (7, 8, 1)]),
    ],
    ids=["repeat-missing-the-probe", "two-repeats", "repeat-of-a-twin-color"],
)
def test_restructure_rejects_a_repeat_other_than_probe_and_core(twins, candidate):
    # the candidate is twins_a, then core edges, then the probe edge
    config = GoodConfiguration(
        graph=build_graph(8, []), target=len(candidate), twins_a=[a for a, _ in twins],
        twins_b=[b for _, b in twins], core={}, cover={},
    )
    with pytest.raises(InternalInvariantBroken, match="^candidate does not have exactly one duplicated color$"):
        _restructure(config, candidate, [e[2] for e in candidate])


def test_cached_index_passes_every_audit():
    # check=True compares the configuration's roles and banned colors with ones
    # rebuilt from the structure after every probe
    for delta in range(1, 13):
        for trial in range(3):
            seed = split_seed(77, delta * 10 + trial)
            n = max(delta + 1, 4 * delta - 3 + seed % 14)
            _solve_and_check(random_proper_graph(n, delta, seed=seed))


def test_audit_rejects_a_stale_index():
    # probe 5-1 starts a chain on the uncovered core edge 1-2
    g = build_graph(6, [(1, 2, 1), (3, 4, 2), (1, 5, 3)])
    config = GoodConfiguration(
        graph=g, target=3, twins_a=[], twins_b=[],
        core={1: (1, 2, 1), 2: (3, 4, 2)}, cover={},
    )
    outcome = resolve_case(config, (5, 1, g.color_of(5, 1)))
    assert isinstance(outcome, ChainsExtended)
    _audit(config)
    assert config.banned == {2}
    config.banned.add(1)
    with pytest.raises(InternalInvariantBroken, match="banned"):
        _audit(config)


def test_audit_rejects_a_cursor_past_a_free_vertex():
    # vertices 1-4 carry the core, so the first vertex outside it is 5
    g = build_graph(6, [(1, 2, 1), (3, 4, 2), (1, 5, 3)])
    config = GoodConfiguration(
        graph=g, target=3, twins_a=[], twins_b=[],
        core={1: (1, 2, 1), 2: (3, 4, 2)}, cover={},
    )
    _audit(config, 5)
    with pytest.raises(InternalInvariantBroken, match="free-vertex cursor skipped"):
        _audit(config, 6)


def _chained_config():
    """One twin pair, a core of three edges, and one chain of two edges:
    a fresh color-7 edge covers the core edge of color 2, and a color-2
    edge, which continues that chain, the core edge of color 3. Vertices
    1-12 hold the structure; the graph's other edges are fault material."""
    g = build_graph(24, [
        (1, 2, 1), (3, 4, 1), (5, 6, 2), (7, 8, 3), (9, 10, 4), (6, 11, 7), (8, 12, 2),
        (13, 14, 5), (15, 16, 1), (17, 18, 1), (19, 20, 3), (5, 21, 6), (10, 22, 8),
        (21, 24, 8), (1, 10, 9), (10, 11, 10), (10, 23, 1), (9, 13, 1), (6, 13, 11),
    ])
    return GoodConfiguration(
        graph=g, target=5, twins_a=[(1, 2, 1)], twins_b=[(3, 4, 1)],
        core={2: (5, 6, 2), 3: (7, 8, 3), 4: (9, 10, 4)}, cover={2: (6, 11, 7), 3: (8, 12, 2)},
    )


def _repeat_the_twin_color(config):
    # a second color-1 pair, with one core edge fewer to keep the size
    del config.core[4]
    config.twins_a.append((15, 16, 1))
    config.twins_b.append((17, 18, 1))


def _swap_core_edge(color, edge):
    """Replace the core edge of the color with edge, under edge's color."""
    def swap(config):
        del config.core[color]
        config.core[edge[2]] = edge
    return swap


def _swap_the_cover_order(config):
    config.cover = {3: config.cover[3], 2: config.cover[2]}


# one row per _audit message: (message, fault injection, cursor)
_AUDIT_FAULTS = [
    ("twin lists differ in length", lambda c: c.twins_b.append((13, 14, 5)), 13),
    ("core size is not target-1-k", lambda c: setattr(c, "target", 6), 13),
    ("edge (8, 12, 9) not in the graph", lambda c: setitem(c.cover, 3, (8, 12, 9)), 13),
    ("twin pair colors differ", lambda c: setitem(c.twins_b, 0, (13, 14, 5)), 13),
    ("twin colors repeat", _repeat_the_twin_color, 13),
    ("core edge filed under another color", lambda c: setitem(c.core, 4, (19, 20, 3)), 13),
    ("core reuses a twin color", _swap_core_edge(4, (15, 16, 1)), 13),
    ("vertex 5 used twice in the matchings", _swap_core_edge(4, (5, 21, 6)), 13),
    ("chain covers a color outside the core", lambda c: setitem(c.cover, 9, (10, 22, 8)), 13),
    # the edge of color 8 misses the core edge 9-10 of color 4
    ("anchor not shared by chain edge and core edge", lambda c: setitem(c.cover, 4, (21, 24, 8)), 13),
    ("chain endpoint collides with the matchings", lambda c: setitem(c.cover, 4, (1, 10, 9)), 13),
    ("chains overlap", lambda c: setitem(c.cover, 4, (10, 11, 10)), 13),
    ("chain edge color not among earlier covered core colors", _swap_the_cover_order, 13),
    ("chain first edge color is not fresh", lambda c: setitem(c.cover, 4, (10, 23, 1)), 13),
    ("cached roles out of sync with the structure", lambda c: c.roles.pop(12), 13),
    ("cached banned out of sync with the structure", lambda c: c.banned.add(2), 13),
    ("free-vertex cursor skipped a vertex outside the structure", lambda c: None, 14),
]

@pytest.mark.parametrize(
    "message, inject, cursor", _AUDIT_FAULTS, ids=[row[0] for row in _AUDIT_FAULTS]
)
def test_audit_names_each_injected_fault(message, inject, cursor):
    config = _chained_config()
    _audit(config, 13)
    inject(config)
    with pytest.raises(InternalInvariantBroken, match=f"^configuration audit: {re.escape(message)}$"):
        _audit(config, cursor)


def _rotate_a_cover_loop(config):
    # color 2 is covered by an edge of color 3, and 3 by one of color 2
    config.cover[2] = (6, 11, 3)
    chain_rotate(config, 3)


def _rotate_into_an_uncovered_color(config):
    config.cover[3] = (8, 12, 4)
    chain_rotate(config, 3)


# one row per raise in the rotation and the probe: (message, faulty call)
_GUARD_FAULTS = [
    ("chain rotation reached color 4, which no chain covers", lambda c: chain_rotate(c, 4)),
    ("chain rotation reached color 4, which no chain covers", _rotate_into_an_uncovered_color),
    ("chain rotation loops through its cover records", _rotate_a_cover_loop),
    # the probe 13-9 has the twin color 1
    ("probe color belongs to a twin pair", lambda c: resolve_case(c, (13, 9, c.graph.color_of(13, 9)))),
    # the probe 9-10 is the core edge of the uncovered color 4 itself
    (
        "probe color belongs to an uncovered core edge",
        lambda c: resolve_case(c, (9, 10, c.graph.color_of(9, 10))),
    ),
    (
        "probe edge landed on banned vertex 6 (('anchor',))",
        lambda c: resolve_case(c, (13, 6, c.graph.color_of(13, 6))),
    ),
]


@pytest.mark.parametrize(
    "message, call", _GUARD_FAULTS,
    ids=["uncovered-start", "uncovered-hop", "cover-loop", "banned-color", "core-color", "anchor"],
)
def test_rotation_and_probe_guards_name_each_fault(message, call):
    config = _chained_config()
    assert chain_rotate(config, 3) == ([(7, 8, 3), (5, 6, 2)], [(8, 12, 2), (6, 11, 7)])
    with pytest.raises(InternalInvariantBroken, match=f"^{re.escape(message)}$"):
        call(config)


def _level_without_a_free_vertex(config):
    # the carried matching covers both vertices of the graph
    g = build_graph(2, [(1, 2, 1)])
    carried = _MatchingIndex(g)
    carried.apply((), [(1, 2, 1)])
    _advance_level(g, 2, carried, False, None)


def _stalled_level(config):
    # every probe claims a chain extension but grows nothing
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delta, "resolve_case", lambda config, edge: ChainsExtended())
        _advance_level(config.graph, 2, _MatchingIndex(config.graph), False, None)


def _final_matching_off_the_graph(config):
    # a level that carries an edge of a color the graph lacks, unchecked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delta, "_advance_level", lambda g, d, carried, *rest: carried.apply((), [(1, 2, 9)]))
        find_rainbow_matching_delta(build_graph(2, [(1, 2, 1)]))


# one row per raise in the probe search, the restructure, the full-twin
# finish and the level loop: (message, faulty call)
_SOLVER_FAULTS = [
    # the one edge at vertex 23 has the twin color 1
    ("no admissible probe edge at vertex 23", lambda c: extend_by_free_edge(c, 23)),
    ("no fresh-colored edge at vertex 23", lambda c: _finish_full_twins(c, 23)),
    # twins_a and the core, with no probe edge to repeat a color
    (
        "candidate does not have exactly one duplicated color",
        lambda c: _restructure(c, c.twins_a + list(c.core.values()), [1, 2, 3, 4]),
    ),
    (
        "level 5 produced a bad matching: 0 edges, expected 5",
        lambda c: _checked_level(c.graph, 5, _MatchingIndex(c.graph), [], False),
    ),
    ("no vertex left outside the structure", _level_without_a_free_vertex),
    ("level 2 exceeded its probe budget", _stalled_level),
    ("final matching invalid: edge 1-2 with color 9 is not in the graph", _final_matching_off_the_graph),
]


@pytest.mark.parametrize(
    "message, call", _SOLVER_FAULTS,
    ids=["no-probe-edge", "no-fresh-edge", "no-repeat", "bad-level", "no-free-vertex",
         "probe-budget", "final-check"],
)
def test_solver_guards_name_each_fault(message, call):
    with pytest.raises(InternalInvariantBroken, match=f"^{re.escape(message)}$"):
        call(_chained_config())


def _raised_messages(module, raised, default=None):
    """Each message that a function of module passes to its raiser, as a
    regex in which an f-string field matches any text. raised maps a
    function's name to its raiser's, "fail" or "InternalInvariantBroken",
    or to None for a function left out; default covers the others."""
    patterns = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        raiser = isinstance(node, ast.FunctionDef) and raised.get(node.name, default)
        if not raiser:
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == raiser:
                arg = call.args[0]
                parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
                patterns.add("".join(
                    re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                    for part in parts
                ))
    return patterns


def test_every_audit_and_guard_message_has_a_fault_row():
    # delta: each _audit message and every other raise; layered: every
    # raise but _check_level's in-regime claims, which no run reaches
    # (ROADMAP item 7)
    delta_patterns = _raised_messages(delta, {"_audit": "fail"}, "InternalInvariantBroken")
    layered_patterns = _raised_messages(layered, {"_check_level": None}, "InternalInvariantBroken")
    assert len(delta_patterns) == 28 and len(layered_patterns) == 8
    for patterns, faults in ((delta_patterns, _AUDIT_FAULTS + _GUARD_FAULTS + _SOLVER_FAULTS),
                             (layered_patterns, _CHECK_FAULTS)):
        rows = [row[0] for row in faults]
        missed = {p for p in patterns if not any(re.fullmatch(p, m) for m in rows)}
        assert missed == set()


def test_matching_outputs_are_pinned():
    # tie-breaking in either solver changes this digest
    digest = hashlib.sha256()
    for d in (1, 2, 3, 5, 8, 13, 21, 34):
        for j in range(3):
            seed = split_seed(404, 10 * d + j)
            g = random_proper_graph(max(d + 1, 4 * d - 3 + seed % 14), d, seed)
            digest.update(repr(tuple(find_rainbow_matching_delta(g, check=True))).encode())
    for n in (64, 80, 96):
        sq = build_square([[((r + 7 * c) % n) + 1 for c in range(n)] for r in range(n)])
        m = find_rainbow_matching_layered(to_bipartite_factorization(sq), check=True)
        digest.update(repr(tuple(m)).encode())
    assert digest.hexdigest() == (
        "cad72d77c52fc9d74221d83cf93de7a155045e19ce6f974de5f60e5dcf3bb924"
    )


def _reference_build_index(config):
    """The roles and banned colors built by one plain loop per structure
    part, kept to check the faster build against."""
    roles: dict[int, int | tuple] = {}
    for i, (a, b) in enumerate(zip(config.twins_a, config.twins_b)):
        roles[a[0]] = roles[a[1]] = ("twin", i, 0)
        roles[b[0]] = roles[b[1]] = ("twin", i, 1)
    for e in config.core.values():
        roles[e[0]] = roles[e[1]] = e[2]
    for color, e in config.cover.items():
        core_edge = config.core[color]
        anchor = e[0] if e[0] in (core_edge[0], core_edge[1]) else e[1]
        free_end = e[1] if e[0] == anchor else e[0]
        roles[anchor] = ("anchor",)
        roles[free_end] = ("chain",)
    twin_colors = {e[2] for e in config.twins_a}
    return roles, twin_colors | {e[2] for e in config.core.values() if e[2] not in config.cover}


def test_index_build_matches_the_kept_reference(monkeypatch):
    # check=True audits every configuration a solve reaches: each level's
    # start and the structure after each probe
    audit = delta._audit
    reached = Counter()

    def compare(config, *cursor):
        assert delta._build_index(config) == _reference_build_index(config)
        reached["twins"] += bool(config.twins_a)
        # a chain of two or more edges: a cover edge of a core color
        reached["chains"] += any(e[2] in config.cover for e in config.cover.values())
        reached["cover"] += bool(config.cover)
        audit(config, *cursor)

    monkeypatch.setattr(delta, "_audit", compare)
    for d in range(1, 41):
        for j in range(2):
            seed = split_seed(515, 10 * d + j)
            g = random_proper_graph(max(d + 1, 4 * d - 3 + seed % 14), d, seed)
            find_rainbow_matching_delta(g, check=True)
    assert set(reached) == {"twins", "chains", "cover"} and min(reached.values()) > 0


def test_trace_events_are_pinned_with_one_call_per_probe(monkeypatch):
    # the benchmark counts probes and outcomes by wrapping these two
    # module functions, so each probe must still pass through both; it
    # also times chain_rotate, which only a finishing probe may call
    calls = Counter()
    rotations = Counter()
    for name, counter in (
        ("extend_by_free_edge", calls), ("resolve_case", calls), ("chain_rotate", rotations)
    ):
        def counted(*args, _real=getattr(delta, name), _name=name, _counter=counter):
            _counter[_name] += 1
            return _real(*args)

        monkeypatch.setattr(delta, name, counted)
    digest = hashlib.sha256()
    probes = finishing = 0
    for d in (30, 45, 60, 75, 90):
        seed = split_seed(606, d)
        g = random_proper_graph(4 * d - 3 + seed % 14, d, seed)
        events = []
        find_rainbow_matching_delta(g, trace=events.append)
        probes += sum("probe" in event for event in events)
        finishing += sum(event["outcome"] in ("Matched", "RepeatIncreased") for event in events)
        digest.update(json.dumps(events).encode())
    assert probes > 0
    assert calls == {"extend_by_free_edge": probes, "resolve_case": probes}
    assert 0 < rotations["chain_rotate"] <= finishing
    assert digest.hexdigest() == (
        "d31778ab8b2761af529c0b771a315f4b779e68814c86cf7c6859045409a5be99"
    )


def test_probes_bring_their_color_and_only_the_final_matching_is_sorted(monkeypatch):
    # each probe is (v, w, color) as the graph has it; each level's result
    # reaches the level check as the list its case built, and the solve
    # returns the last one sorted
    probes = []
    levels = []
    real_extend, real_check = delta.extend_by_free_edge, delta._checked_level

    def extend(config, v):
        probe = real_extend(config, v)
        probes.append((config.graph, probe))
        return probe

    def check(g, d, carried, edges, check):
        levels.append(edges)
        real_check(g, d, carried, edges, check)

    monkeypatch.setattr(delta, "extend_by_free_edge", extend)
    monkeypatch.setattr(delta, "_checked_level", check)
    for d in range(1, 31):
        seed = split_seed(707, d)
        g = random_proper_graph(4 * d - 3 + seed % 14, d, seed)
        levels.clear()
        result = find_rainbow_matching_delta(g)
        assert type(result) is tuple and result == tuple(sorted(levels[-1]))
        assert [len(edges) for edges in levels] == list(range(1, d + 1))
        assert all(type(edges) is list for edges in levels)
    assert probes and all(g.color_of(v, w) == c for g, (v, w, c) in probes)
    # the cases build lists in structure order, not sorted ones
    assert any(edges != sorted(edges) for edges in levels)


def _level_fault(g, d, prev, edges):
    """Why a level's result is not a rainbow matching of size d, or None.

    The level check that built three d-sized sets per level, kept to
    check the carried one against: it looks up in the graph only the
    edges outside prev, the level before's result.
    """
    size = len(edges)
    if size != d:
        return f"{size} edges, expected {d}"
    if len(set(map(itemgetter(2), edges))) != size:
        return "a color is repeated"
    if len(set(map(itemgetter(0), edges)).union(map(itemgetter(1), edges))) != 2 * size:
        return "a vertex is covered twice"
    for u, v, c in set(edges).difference(prev):
        if g._adj.get(u, _NO_NEIGHBORS).get(v) != c:
            return f"edge {u}-{v} with color {c} is not in the graph"
    return None


_FAULTS = ["color", "vertex", "edge", "size", "duplicate"]


def _corrupted(fault, g, matching, prev):
    """matching with one fault that the level check alone must catch, or
    None if the matching and prev, the level before's result, allow no
    such fault."""
    *rest, last = matching
    if fault == "size":
        return tuple(rest)
    if fault == "edge":
        unused = 1 + max(c for _, _, c in g.edges)
        return tuple(sorted(rest + [(last[0], last[1], unused)]))
    if fault == "duplicate":
        # an edge kept from prev listed twice, in place of another edge
        kept = next((e for e in matching if e in prev), None)
        if kept is None or len(matching) < 2:
            return None
        others = list(matching)
        others.remove(next(e for e in matching if e != kept))
        return tuple(sorted(others + [kept]))
    # swap the last edge for a graph edge that repeats a color of the
    # rest or shares a vertex with it, but not both
    rest_vertices = {x for e in rest for x in e[:2]}
    rest_colors = {e[2] for e in rest}
    for e in g.edges:
        shares = e[0] in rest_vertices or e[1] in rest_vertices
        repeats = e[2] in rest_colors
        if (shares, repeats) == (fault == "vertex", fault == "color"):
            return tuple(sorted(rest + [e]))
    return None


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("fault", _FAULTS)
def test_level_check_rejects_a_corrupt_matching(monkeypatch, fault, check):
    # resolve_case returns a corrupt Matched at one level; plain solves
    # check the level locally, check=True validates it in full
    level = 6
    g = random_proper_graph(40, 8, seed=split_seed(31, 8))
    real = delta.resolve_case
    starts = {}
    injected = []

    def corrupting(config, edge):
        # a level's first probe sees its start configuration, whose core
        # is the level before's result
        starts.setdefault(config.target, tuple(config.core.values()))
        outcome = real(config, edge)
        if config.target == level and isinstance(outcome, Matched):
            corrupt = _corrupted(fault, g, outcome.matching, starts[level])
            assert corrupt is not None
            injected.append(fault)
            return Matched(corrupt)
        return outcome

    monkeypatch.setattr(delta, "resolve_case", corrupting)
    with pytest.raises(InternalInvariantBroken, match=f"^level {level} produced a bad matching: "):
        find_rainbow_matching_delta(g, check=check)
    assert injected == [fault]


@pytest.mark.parametrize("check", [False, True])
def test_full_validation_runs_at_the_end_and_at_every_level_under_check(monkeypatch, check):
    g = random_proper_graph(40, 8, seed=split_seed(31, 8))
    sizes = []
    real = delta.validate_rainbow_matching

    def counted(graph, m):
        sizes.append(len(m))
        return real(graph, m)

    monkeypatch.setattr(delta, "validate_rainbow_matching", counted)
    find_rainbow_matching_delta(g, check=check)
    assert sizes == (list(range(1, 9)) if check else []) + [8]


def test_carried_level_check_agrees_with_the_kept_reference(monkeypatch):
    # at every level: the true result, and each fault the result allows;
    # a fault leaves the index as it was
    real = delta._checked_level
    caught = Counter()

    def verdict(g, d, scratch, result):
        try:
            real(g, d, scratch, result, False)
        except InternalInvariantBroken as exc:
            return str(exc).removeprefix(f"level {d} produced a bad matching: ")
        return None

    def compare(g, d, carried, edges, check):
        prev = set(carried.edges)
        for fault in [None] + _FAULTS:
            result = edges if fault is None else _corrupted(fault, g, edges, prev)
            if result is None:
                continue
            scratch = _MatchingIndex(g)
            scratch.apply((), prev)
            why = verdict(g, d, scratch, result)
            assert why == _level_fault(g, d, prev, result), (d, fault)
            assert (why is None) == (fault is None), (d, fault)
            caught[fault] += 1
            kept = edges if fault is None else prev
            assert scratch.color_at == {x: e[2] for e in kept for x in e[:2]}
            assert scratch.edge_of == {e[2]: e for e in kept}
            assert scratch.edges == set(kept)
        return real(g, d, carried, edges, check)

    monkeypatch.setattr(delta, "_checked_level", compare)
    for d in range(1, 41):
        seed = split_seed(515, 10 * d)
        g = random_proper_graph(max(d + 1, 4 * d - 3 + seed % 14), d, seed)
        find_rainbow_matching_delta(g)
    assert caught[None] == sum(range(1, 41))
    assert set(caught) == {None, *_FAULTS}


def test_levels_stay_within_the_proved_probe_count():
    # with k twin pairs at most d-1-k probes extend a chain before one
    # raises k or finishes the level, and k = d-1 finishes at once, so
    # a level takes at most d(d+1)/2 loop iterations, one event each;
    # level 1 always takes its one, and a level 2 here takes all three
    tight = Counter()
    for d in range(1, 61):
        seed = split_seed(515, 10 * d)
        g = random_proper_graph(max(d + 1, 4 * d - 3 + seed % 14), d, seed)
        events = []
        find_rainbow_matching_delta(g, trace=events.append)
        for level, count in Counter(event["level"] for event in events).items():
            assert count <= level * (level + 1) // 2, (d, level, count)
            tight[level] += count == level * (level + 1) // 2
    assert tight[1] == 60 and tight[2] > 0


def test_a_stalled_level_exceeds_its_probe_budget(monkeypatch):
    # every probe at the level claims a chain extension but grows nothing
    level = 5
    g = random_proper_graph(40, 8, seed=split_seed(31, 8))
    real = delta.resolve_case
    calls = Counter()

    def stalled(config, edge):
        if config.target < level:
            return real(config, edge)
        calls[config.target] += 1
        return ChainsExtended()

    monkeypatch.setattr(delta, "resolve_case", stalled)
    with pytest.raises(InternalInvariantBroken, match=f"^level {level} exceeded its probe budget$"):
        find_rainbow_matching_delta(g)
    assert list(calls) == [level] and 0 < calls[level] <= level * level
