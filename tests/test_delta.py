"""Rainbow matchings of size equal to the minimum degree."""

import hashlib
import json
from collections import Counter
from dataclasses import fields
from operator import itemgetter

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
from rainbowmatch import delta
from rainbowmatch.graphs import _NO_NEIGHBORS, _MatchingIndex
from rainbowmatch.delta import (
    Chain,
    ChainsExtended,
    GoodConfiguration,
    Matched,
    _audit,
    _Index,
    _restructure,
    chain_rotate,
    resolve_case,
)


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
        core=[(1, 2, 5), (3, 4, 6)],
        # the chain covers the core edges of colors 5 and 6
        chains=[Chain(edges=[(2, 9, 7), (4, 10, 5)], anchors=[2, 4], cores=[5, 6])],
        cover={5: (0, 0), 6: (0, 1)},
    )
    removed, added = chain_rotate(config, 0, 1)
    assert removed == [(3, 4, 6), (1, 2, 5)]
    assert added == [(4, 10, 5), (2, 9, 7)]


def test_restructure_promotes_the_duplicated_color():
    g = build_graph(8, [(1, 2, 1), (3, 4, 2), (5, 6, 1), (7, 8, 3)])
    config = GoodConfiguration(
        graph=g, target=3, twins_a=[], twins_b=[], core=[], chains=[], cover={}
    )
    candidate = [(1, 2, 1), (7, 8, 3), (5, 6, 1)]  # core edges, then the probe edge
    out = _restructure(config, candidate, [1, 3, 1])
    assert out.twins_a == [(1, 2, 1)]
    assert out.twins_b == [(5, 6, 1)]
    assert out.core == [(7, 8, 3)]
    assert out.chains == [] and out.cover == {}


def test_restructure_rejects_candidates_without_one_duplicate():
    g = build_graph(4, [(1, 2, 1), (3, 4, 2)])
    config = GoodConfiguration(
        graph=g, target=2, twins_a=[], twins_b=[], core=[], chains=[], cover={}
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
        twins_b=[b for _, b in twins], core=[], chains=[], cover={},
    )
    with pytest.raises(InternalInvariantBroken, match="^candidate does not have exactly one duplicated color$"):
        _restructure(config, candidate, [e[2] for e in candidate])


def test_cached_index_passes_every_audit():
    # check=True compares the configuration's cached index with one
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
        core=[(1, 2, 1), (3, 4, 2)], chains=[], cover={},
    )
    outcome = resolve_case(config, (5, 1))
    assert isinstance(outcome, ChainsExtended)
    _audit(config)
    assert config._index.banned == {2}
    config._index.banned.add(1)
    with pytest.raises(InternalInvariantBroken, match="banned"):
        _audit(config)


def test_audit_rejects_a_cursor_past_a_free_vertex():
    # vertices 1-4 carry the core, so the first vertex outside it is 5
    g = build_graph(6, [(1, 2, 1), (3, 4, 2), (1, 5, 3)])
    config = GoodConfiguration(
        graph=g, target=3, twins_a=[], twins_b=[],
        core=[(1, 2, 1), (3, 4, 2)], chains=[], cover={},
    )
    _audit(config, 5)
    with pytest.raises(InternalInvariantBroken, match="free-vertex cursor skipped"):
        _audit(config, 6)


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
    """The index built by one plain loop per structure part, kept to
    check the faster build against."""
    roles: dict[int, int | tuple] = {}
    for i, (a, b) in enumerate(zip(config.twins_a, config.twins_b)):
        roles[a[0]] = roles[a[1]] = ("twin", i, 0)
        roles[b[0]] = roles[b[1]] = ("twin", i, 1)
    for e in config.core:
        roles[e[0]] = roles[e[1]] = e[2]
    for ci, chain in enumerate(config.chains):
        for p, e in enumerate(chain.edges):
            anchor = chain.anchors[p]
            free_end = e[1] if e[0] == anchor else e[0]
            roles[anchor] = ("anchor", ci, p)
            roles[free_end] = ("chain", ci, p)
    twin_colors = {e[2] for e in config.twins_a}
    return _Index(
        roles=roles,
        core_by_color={e[2]: e for e in config.core},
        banned=twin_colors | {e[2] for e in config.core if e[2] not in config.cover},
        anchors={a for chain in config.chains for a in chain.anchors},
    )


def test_index_build_matches_the_kept_reference(monkeypatch):
    # check=True audits every configuration a solve reaches: each level's
    # start and the structure after each probe
    audit = delta._audit
    reached = Counter()

    def compare(config, *cursor):
        built, kept = delta._build_index(config), _reference_build_index(config)
        for f in fields(_Index):
            assert getattr(built, f.name) == getattr(kept, f.name), f.name
        reached["twins"] += bool(config.twins_a)
        reached["chains"] += bool(config.chains)
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
    # module functions, so each probe must still pass through both
    calls = Counter()
    for name in ("extend_by_free_edge", "resolve_case"):
        def counted(*args, _real=getattr(delta, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(delta, name, counted)
    digest = hashlib.sha256()
    probes = 0
    for d in (30, 45, 60, 75, 90):
        seed = split_seed(606, d)
        g = random_proper_graph(4 * d - 3 + seed % 14, d, seed)
        events = []
        find_rainbow_matching_delta(g, trace=events.append)
        probes += sum("probe" in event for event in events)
        digest.update(json.dumps(events).encode())
    assert probes > 0
    assert calls == {"extend_by_free_edge": probes, "resolve_case": probes}
    assert digest.hexdigest() == (
        "d31778ab8b2761af529c0b771a315f4b779e68814c86cf7c6859045409a5be99"
    )


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
        starts.setdefault(config.target, tuple(config.core))
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
    real = _MatchingIndex.replace
    caught = Counter()

    def compare(carried, edges, d):
        g = carried.graph
        prev = set(carried.edges)
        for fault in [None] + _FAULTS:
            result = edges if fault is None else _corrupted(fault, g, edges, prev)
            if result is None:
                continue
            scratch = _MatchingIndex(g)
            scratch.apply((), prev)
            verdict = real(scratch, result, d)
            assert verdict == _level_fault(g, d, prev, result), (d, fault)
            assert (verdict is None) == (fault is None), (d, fault)
            caught[fault] += 1
            kept = edges if fault is None else prev
            assert scratch.color_at == {x: e[2] for e in kept for x in e[:2]}
            assert scratch.edge_of == {e[2]: e for e in kept}
            assert scratch.edges == set(kept)
        return real(carried, edges, d)

    monkeypatch.setattr(_MatchingIndex, "replace", compare)
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
