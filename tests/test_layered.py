"""Layered-exchange rainbow matchings on graphs with modest vertex counts."""

import copy
import hashlib
import json
import random
import re
import tracemalloc
from collections.abc import KeysView, Mapping
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    InternalInvariantBroken,
    PreconditionViolated,
    build_graph,
    build_square,
    find_rainbow_matching_layered,
    guaranteed_size,
    k4_factorization_pair,
    min_degree,
    parse_graph,
    random_proper_graph,
    random_square,
    split_seed,
    to_bipartite_factorization,
    validate_rainbow_matching,
)
from rainbowmatch import layered
from rainbowmatch.graphs import ColoredGraph, _MatchingIndex, _normalize
from rainbowmatch.layered import (
    _classify_level,
    _colors_at,
    _first_state,
    _fit,
    _greedy_order,
    _run_layers,
    _scan_candidates,
    _two_sided,
)


def _extend_maximal(order, matching):
    """matching, then every edge of order that fits it directly: the
    greedy walk as plain lists, kept to check _fit and the refill."""
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


def _exchanged(matching, exchange):
    """The sorted matching that an exchange, (deleted set, added list) as
    _attempt_exchange gives it, makes of matching; None for no exchange."""
    if exchange is None:
        return None
    gone, added = exchange
    return sorted([e for e in matching if e not in gone] + list(added))


def _record(record):
    """A classified record as (edge, x, y, pool), read from a copy so that
    the record's own pool stays unsorted until the solver reads it."""
    return (record.edge, record.x, record.y, copy.copy(record).pool)


def _candidate(violation):
    kind, origin, added = violation
    return (kind, None if origin is None else _record(origin), added)


def test_guaranteed_size_values():
    assert [guaranteed_size(d) for d in (0, 1, 8, 16, 27, 32)] == [0, 0, 0, 4, 9, 12]


def test_guaranteed_size_never_exceeds_delta():
    for d in range(0, 200):
        assert 0 <= guaranteed_size(d) <= d


def test_single_edge():
    g = build_graph(2, [(1, 2, 1)])
    m = find_rainbow_matching_layered(g)
    assert list(m) == [(1, 2, 1)]


def test_rejects_too_few_vertices():
    # properly 3-colored K4: delta 3 needs at least 6 vertices
    edges = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (1, 4, 3), (2, 3, 3)]
    with pytest.raises(PreconditionViolated):
        find_rainbow_matching_layered(build_graph(4, edges))


def test_disjoint_factorized_cliques():
    g = k4_factorization_pair()
    m = find_rainbow_matching_layered(g)
    ok, why = validate_rainbow_matching(g, m)
    assert ok, why
    assert len(m) == 2


def test_factorized_squares_meet_the_bound():
    for n in (4, 8, 16):
        for trial in range(3):
            g = to_bipartite_factorization(random_square(n, seed=split_seed(5, n + trial)))
            m = find_rainbow_matching_layered(g, check=True)
            ok, why = validate_rainbow_matching(g, m)
            assert ok, why
            assert len(m) >= guaranteed_size(n)


def _half_transversal_square(n):
    """Z_n (n = 2 mod 4) renumbered so that the greedy start is the
    maximal partial transversal {(2i, 2i, 4i mod n)} of size n/2: its
    rows and symbols come first, in its order, and the free odd rows and
    columns meet only its even symbols."""
    symbols = [4 * i % n for i in range(n // 2)] + list(range(1, n, 2))
    rank = {s: k + 1 for k, s in enumerate(symbols)}
    rows = list(range(0, n, 2)) + list(range(1, n, 2))
    return build_square([[rank[(r + c) % n] for c in range(n)] for r in rows])


@pytest.mark.parametrize("n", [66, 98])
def test_lifts_a_greedy_start_below_the_guarantee(n):
    g = to_bipartite_factorization(_half_transversal_square(n))
    events = []
    m = find_rainbow_matching_layered(g, check=True, trace=events.append)
    assert events[0]["size"] == n // 2 < guaranteed_size(n)
    assert len(m) >= guaranteed_size(n)
    assert m == find_rainbow_matching_layered(g)


def test_output_is_deterministic():
    g = to_bipartite_factorization(random_square(9, seed=17))
    result = find_rainbow_matching_layered(g)
    assert result == find_rainbow_matching_layered(g)
    assert type(result) is tuple and list(result) == sorted(result)


def test_trace_records_rounds_and_sizes():
    g = to_bipartite_factorization(random_square(8, seed=3))
    rows = []
    m = find_rainbow_matching_layered(g, trace=rows.append)
    assert rows, "expected trace output"
    final = rows[-1]
    assert final["final"] == len(m)
    assert final["initial"] <= final["final"]
    assert final["rounds"] >= 1
    for row in rows[:-1]:
        assert {"round", "size", "levels", "violation"} <= set(row)


def _layer_once(g, matching):
    """One round of layering on a given matching: the violation
    realized and the augmented matching."""
    state = _first_state(g, min_degree(g), {e[2] for e in g.edges}, {}, sorted(matching))
    exchange, violation, _ = _run_layers(state, check=False)
    return violation, _exchanged(matching, exchange)


def test_detects_directly_addable_edge_as_free_free():
    # a non-maximal matching leaves a fresh-colored edge between two
    # free vertices; the scan must surface it and the exchange adds it
    g = build_graph(4, [(1, 2, 1), (3, 4, 2)])
    violation, augmented = _layer_once(g, [])
    assert violation == ("FreeFree", None, ((1, 2, 1),))
    assert sorted(augmented) == [(1, 2, 1)]


def test_detects_two_sided_exchange():
    # the matched edge 1-2 sees four fresh colors at 1 and one at 2;
    # dropping it for one edge on each side gains a unit
    edges = [(1, 2, 1), (1, 3, 2), (1, 4, 3), (1, 5, 4), (1, 6, 5), (2, 3, 6)]
    g = build_graph(6, edges)
    violation, augmented = _layer_once(g, [(1, 2, 1)])
    kind, origin, _ = violation
    assert kind == "TwoSided"
    assert origin.edge == (1, 2, 1)
    augmented = sorted(augmented)
    assert augmented == [(1, 4, 3), (2, 3, 6)]
    ok, why = validate_rainbow_matching(g, augmented)
    assert ok, why


def test_detects_hit_on_quiet_side_and_repairs_collisions():
    # vertex 5 reaches the quiet side of the classified edge 1-2 with
    # color 2; that color sits on the other matched edge 3-4, so the
    # exchange must also replace 3-4 from its own pool
    edges = [(1, 2, 1), (3, 4, 2), (2, 5, 2),
             (3, 6, 3), (3, 7, 4), (3, 8, 5), (3, 9, 6),
             (1, 10, 8), (1, 11, 9), (1, 12, 10), (1, 13, 11)]
    g = build_graph(13, edges)
    violation, augmented = _layer_once(g, [(1, 2, 1), (3, 4, 2)])
    kind, origin, added = violation
    assert kind == "HitsY"
    assert added == ((2, 5, 2),)
    assert origin.edge == (1, 2, 1)
    augmented = sorted(augmented)
    assert augmented == [(1, 10, 8), (2, 5, 2), (3, 6, 3)]
    ok, why = validate_rainbow_matching(g, augmented)
    assert ok, why


def test_detect_returns_none_when_no_exchange_exists():
    # every off-matching edge leans on vertex 1: the matching is maximum
    edges = [(1, 2, 1), (1, 3, 2), (1, 4, 3), (1, 5, 4), (1, 6, 5)]
    g = build_graph(6, edges)
    violation, augmented = _layer_once(g, [(1, 2, 1)])
    assert violation is None
    assert augmented is None


def _attempts(monkeypatch, g, matching):
    """Layer once, recording every candidate tried and what it gave; the
    index must hold what each attempt gave, or be left as it was."""
    tried = []
    attempt = layered._attempt_exchange

    def record(state, violation, check=False):
        before = sorted(state.index.edges)
        result = attempt(state, violation, check)
        after = _exchanged(before, result)
        tried.append((violation, after))
        assert sorted(state.index.edges) == (before if after is None else after)
        return result

    monkeypatch.setattr(layered, "_attempt_exchange", record)
    _, augmented = _layer_once(g, matching)
    return tried, augmented


def test_hit_on_quiet_side_fails_when_the_origin_pool_is_spent(monkeypatch):
    # 1-2 is classified with x = 1; its pool reaches 3 in color 2 and 4
    # in color 3, and each hit on the quiet side 2 takes one of those
    # vertices in the other color, so no repair edge is left
    edges = [(1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 3, 3), (2, 4, 2), (5, 6, 4)]
    g = build_graph(6, edges)
    tried, augmented = _attempts(monkeypatch, g, [(1, 2, 1), (5, 6, 4)])
    assert augmented is None
    assert {violation[2] for violation, _ in tried} == {((2, 3, 3),), ((2, 4, 2),)}
    for (kind, origin, [edge]), result in tried:
        assert kind == "HitsY"
        assert origin.edge == (1, 2, 1)
        assert result is None
        for c, r in origin.pool:
            assert c == edge[2] or r in edge[:2]


def test_reused_color_whose_origin_cannot_be_repaired(monkeypatch):
    # the free edge 3-4 reuses the color of the matched edge 1-5, whose
    # pool only reaches 3 and 4; the two-sided exchange then succeeds
    edges = [(1, 3, 1), (1, 4, 2), (1, 5, 3), (2, 5, 1), (3, 4, 3), (3, 5, 2)]
    g = build_graph(5, edges)
    tried, augmented = _attempts(monkeypatch, g, [(1, 5, 3)])
    (first, failed), (second, realized) = tried
    assert first == ("FreeFree", None, ((3, 4, 3),))
    assert failed is None
    assert second[0] == "TwoSided" and second[1].edge == (1, 5, 3)
    assert realized == augmented == [(1, 4, 2), (2, 5, 1)]


def test_reused_color_of_an_origin_already_deleted(monkeypatch):
    # 1-2 is classified at level 1; 3-4 only at level 2, once color 1 is
    # active. The hit 2-5 takes 3-4's color, 3-4's repair takes color 1,
    # and color 1 traces back to 1-2, which the hit already deleted
    edges = [(1, 2, 1), (3, 4, 2), (2, 5, 2),
             (1, 6, 3), (1, 7, 4), (1, 8, 5), (1, 9, 6),
             (3, 10, 1), (3, 11, 3), (3, 12, 4), (3, 13, 5)]
    g = build_graph(13, edges)
    tried, augmented = _attempts(monkeypatch, g, [(1, 2, 1), (3, 4, 2)])
    [((kind, origin, added), realized)] = tried
    assert kind == "HitsY"
    assert added == ((2, 5, 2),)
    assert origin.edge == (1, 2, 1)
    assert realized == augmented == [(1, 6, 3), (2, 5, 2), (3, 10, 1)]
    ok, why = validate_rainbow_matching(g, augmented)
    assert ok, why


def test_two_sided_exchange_when_the_second_endpoint_is_designated(monkeypatch):
    # 3-5 sees one fresh color at 3 and three at 5, so 5 carries the
    # pool; the exchange still adds the edge found at 3 and one at 5
    edges = [(1, 5, 8), (2, 5, 7), (3, 4, 1), (3, 5, 6), (4, 5, 9)]
    g = build_graph(5, edges)
    tried, augmented = _attempts(monkeypatch, g, [(3, 5, 6)])
    (kind, origin, added), realized = tried[0]
    assert kind == "TwoSided" and origin.x == 5
    assert added == ((3, 4, 1), (2, 5, 7))
    assert realized == augmented == [(2, 5, 7), (3, 4, 1)]


def test_extend_maximal_is_greedy_by_color():
    g = build_graph(6, [(5, 6, 3), (1, 2, 1), (3, 4, 1), (2, 3, 2)])
    index = _MatchingIndex(g)
    base = _fit(index, _greedy_order(g))
    # color 1 first (smallest edge wins the color), color 2 is then
    # blocked at vertex 2, color 3 still fits
    assert base == [(1, 2, 1), (5, 6, 3)] == _extend_maximal(_greedy_order(g), [])
    assert index.edges == set(base) and index.edge_of == {1: (1, 2, 1), 3: (5, 6, 3)}


# Reference copies of the classification, the scan and the refill as
# they were before each level read its active edges from the free
# vertices' side, looked up only the colors it unblocked, and each round
# refilled only what its exchange freed: every matched endpoint walks its
# own neighbours, the scan walks every free vertex's neighbours and
# lists every candidate, and every refill walks all edges.

def _reference_active_edges(g, vertex, free_set, blocked_colors):
    found = [
        (c, r)
        for r, c in g.neighbors(vertex).items()
        if r in free_set and c not in blocked_colors
    ]
    found.sort()
    return found


def _reference_classify_level(state, current):
    """(survivors, classified as (edge, x, y, pool), two-sided violations
    with their origins in the same form)."""
    g = state.graph
    free_set = set(state.free)
    blocked = {e[2] for e in current}
    survivors, classified, two_sided = [], [], []
    for e in sorted(current):
        ex = _reference_active_edges(g, e[0], free_set, blocked)
        ey = _reference_active_edges(g, e[1], free_set, blocked)
        degsum = len(ex) + len(ey)
        if degsum**3 < 64 * state.delta:
            survivors.append(e)
            continue
        if ex and ey:
            pair = next(
                ((a, b) for a in ex for b in ey if a[0] != b[0] and a[1] != b[1]),
                None,
            )
            x, pool = (e[0], ex) if len(ex) >= len(ey) else (e[1], ey)
        else:
            pair = None
            x, pool = (e[0], ex) if ex else (e[1], ey)
        y = e[1] if x == e[0] else e[0]
        record = (e, x, y, pool)
        classified.append(record)
        if pair is not None:
            (c1, r1), (c2, r2) = pair
            added = (_normalize(e[0], r1, c1), _normalize(e[1], r2, c2))
            two_sided.append(("TwoSided", record, added))
    return survivors, classified, two_sided


def _reference_scan_candidates(state, survivors, two_sided):
    g = state.graph
    free_set = set(state.free)
    next_colors = {e[2] for e in survivors}
    free_free, hits_y = [], []
    for v in state.free:
        for w, c in g.neighbors(v).items():
            if c in next_colors:
                continue
            if w in free_set:
                if w > v:
                    free_free.append(("FreeFree", None, ((v, w, c),)))
            elif w in state.quiet_side:
                hits_y.append(("HitsY", _record(state.quiet_side[w]), (_normalize(v, w, c),)))
    return free_free + two_sided + hits_y


def _reference_greedy_order(g):
    return sorted(g.edges, key=lambda e: (e[2], e[0], e[1]))


def _both_classifications(state, current):
    survivors, classified = _classify_level(state, current)
    want_survivors, want_classified, want_two_sided = _reference_classify_level(state, current)
    assert survivors == want_survivors
    assert [_record(r) for r in classified] == want_classified
    # the scan yields these later, before the level's lookup grows a list
    assert [_candidate(v) for v in _two_sided(state, classified)] == want_two_sided
    return survivors, classified


def _both_scans(state, survivors, classified):
    current = sorted(survivors + [r.edge for r in classified])
    want = _reference_scan_candidates(state, survivors, _reference_classify_level(state, current)[2])
    got = list(_scan_candidates(state, survivors, classified))
    # read once the scan's lookup has grown the lists: each pool is still
    # the list as it was at classification
    assert [_candidate(v) for v in got] == want
    return got


def _reference_run_layers(state, *, check):
    """_run_layers as it was before a round ended at its first level that
    classifies nothing: every level runs its lookup, classification and
    scan in full."""
    delta = state.delta
    rows = []
    current = sorted(state.index.edges)
    for level in range(1, layered._level_count(delta) + 1):
        layered._unblock(state)
        if check:
            layered._check_found(state, level, current)
        survivors, classified = layered._classify_level(state, current)
        for record in classified:
            state.origins[record.edge[2]] = record
            state.quiet_side[record.y] = record
            state.pending.append(record.edge[2])
        rows.append((level, len(current), len(classified)))
        tried = False
        for candidate in layered._scan_candidates(state, survivors, classified):
            tried = True
            exchange = layered._attempt_exchange(state, candidate, check)
            if exchange is not None:
                return exchange, candidate, rows
        if tried and layered._in_regime(len(state.index.edges), delta):
            raise InternalInvariantBroken(
                f"level {level}: no detected exchange could be realized"
            )
        if check:
            layered._check_level(state, level, classified, survivors)
        current = survivors
    return None, None, rows


def _solve_watching_the_stop(g, check, trace=None):
    """(find_rainbow_matching_layered(g, ...), the steps of its rounds as
    "round", "classify", "classify nothing" and "scan"), failing if a
    round classifies or scans again once a level classified nothing."""
    steps = []
    run, classify, scan = layered._run_layers, layered._classify_level, layered._scan_candidates

    def watched_run(state, *, check):
        steps.append("round")
        return run(state, check=check)

    def watched_classify(state, current):
        survivors, classified = classify(state, current)
        steps.append("classify" if classified else "classify nothing")
        return survivors, classified

    def watched_scan(state, survivors, classified):
        steps.append("scan")
        return scan(state, survivors, classified)

    with mock.patch.multiple(
        layered, _run_layers=watched_run, _classify_level=watched_classify,
        _scan_candidates=watched_scan,
    ):
        m = find_rainbow_matching_layered(g, check=check, trace=trace)
    for i, step in enumerate(steps):
        if step == "classify nothing":
            # that level's own scan, then the next round or the end
            assert steps[i + 1] == "scan" and steps[i + 2 : i + 3] in ([], ["round"])
    return m, steps


def _assert_matches_reference(g):
    """Solve g checked and plain, and again with the reference level loop,
    checked, and with the reference loop, classification, scan, greedy
    start and full-walk refill, plain; the matchings and every trace
    dict must agree, and so must the two classifications and the two
    candidate lists of every level. The solves that end their rounds
    early must never classify or scan after a level that classified
    nothing."""
    rows, plain_rows, full_rows, reference_rows = [], [], [], []
    m = _solve_watching_the_stop(g, True, rows.append)[0]
    assert _solve_watching_the_stop(g, False, plain_rows.append)[0] == m
    with mock.patch.object(layered, "_run_layers", _reference_run_layers):
        assert find_rainbow_matching_layered(g, check=True, trace=full_rows.append) == m
    with mock.patch.multiple(
        layered,
        _run_layers=_reference_run_layers,
        _classify_level=_both_classifications,
        _scan_candidates=_both_scans,
        _greedy_start=lambda g, by_color: (
            _extend_maximal(_reference_greedy_order(g), []), {e[2] for e in g.edges}
        ),
        _refill_candidates=lambda g, by_color, index, gone: _reference_greedy_order(g),
    ):
        reference = find_rainbow_matching_layered(g, trace=reference_rows.append)
    assert m == reference
    assert rows == plain_rows == full_rows == reference_rows
    return rows


def _shuffled_cyclic(n, seed):
    """Bipartite graph of the addition table of Z_n with seeded shuffled columns."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return to_bipartite_factorization(
        build_square([[(r + perm[c]) % n + 1 for c in range(n)] for r in range(n)])
    )


# A hit from 5 on the quiet side of 1-2 deletes 1-2 and 3-4 and reuses
# color 2 but not color 1, so the refill must take 4-14 in color 1.
_FREED_COLOR_EDGES = [
    (1, 2, 1), (3, 4, 2), (2, 5, 2), (4, 14, 1),
    (3, 6, 3), (3, 7, 4), (3, 8, 5), (3, 9, 6),
    (1, 10, 8), (1, 11, 9), (1, 12, 10), (1, 13, 11),
]


@pytest.mark.parametrize("n, seed", [(96, 1), (131, 2), (160, 3), (192, 4)])
def test_matches_reference_on_shuffled_cyclic_squares(n, seed):
    rows = _assert_matches_reference(_shuffled_cyclic(n, seed))
    assert any(row.get("violation") for row in rows), "expected at least one exchange"


@pytest.mark.parametrize("n", [8, 13, 21, 30, 40])
def test_matches_reference_on_random_squares(n):
    _assert_matches_reference(to_bipartite_factorization(random_square(n, seed=split_seed(23, n))))


@pytest.mark.parametrize("d", [1, 4, 10, 25])
@pytest.mark.parametrize("spread", [0, 3])
def test_matches_reference_on_random_proper_graphs(d, spread):
    for seed in range(2):
        _assert_matches_reference(random_proper_graph(2 * d + spread, d, seed))


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_matches_reference_on_sparse_proper_graphs(d):
    # far more free vertices than neighbours, so the scan walks each free
    # vertex's neighbours rather than looking its later free vertices up
    for seed in range(2):
        _assert_matches_reference(random_proper_graph(12 * d, d, seed))


def test_a_round_ends_at_its_first_level_that_classifies_nothing():
    # the last round classifies 1 edge at level 1 and none at level 2,
    # then stops; its trace still lists all 11 levels
    rows = []
    _, steps = _solve_watching_the_stop(_shuffled_cyclic(192, 4), False, rows.append)
    assert [(r["edges"], r["classified"]) for r in rows[-2]["levels"]] == (
        [(165, 1)] + [(164, 0)] * 10
    )
    assert steps[-5:] == ["round", "classify", "scan", "classify nothing", "scan"]
    assert steps.count("classify") + steps.count("classify nothing") == 11
    assert sum(len(r["levels"]) for r in rows[:-1]) == 20


def test_the_scan_gives_free_free_edges_in_order_both_ways():
    # with no matched edge every vertex is free and every edge a
    # candidate: the early vertices walk their neighbours, the last few
    # look their later free vertices up, and both keep (v, w) order
    g = random_proper_graph(60, 3, 0)
    state = _first_state(g, min_degree(g), {e[2] for e in g.edges}, {}, [])
    got = _both_scans(state, [], [])
    assert [added for _, _, (added,) in got] == list(g.edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_matches_reference_on_small_proper_graphs(d, spread, seed):
    _assert_matches_reference(random_proper_graph(2 * d + spread, d, seed))


def test_matches_reference_on_a_freed_color():
    rows = _assert_matches_reference(build_graph(14, _FREED_COLOR_EDGES))
    assert rows[0]["violation"] == "HitsY"
    assert rows[1]["size"] == rows[0]["size"] + 2  # the exchange, then 4-14


def test_edges_given_unsorted_keep_the_greedy_order():
    # ColoredGraph sorts its edges by (u, v), so sorting them stably by
    # color alone gives the (color, u, v) order the refill relies on
    for sorted_graph in (build_graph(14, _FREED_COLOR_EDGES), _shuffled_cyclic(48, 5)):
        given_edges = [(v, u, c) for u, v, c in sorted_graph.edges]
        random.Random(5).shuffle(given_edges)
        g = build_graph(sorted_graph.vertex_count, given_edges)
        assert _greedy_order(g) == _reference_greedy_order(g)
        _assert_matches_reference(g)


def _inject_refill_fault(monkeypatch, drop):
    """Patch _refill_candidates to leave out the candidates drop(edge,
    matching, gone) names. Returns a list that gains, per refill, whether
    the fault changed it."""
    real = layered._refill_candidates
    changed = []

    def faulty(g, by_color, index, gone):
        found = real(g, by_color, index, gone)
        matching = sorted(index.edges)
        kept = [e for e in found if not drop(e, matching, gone)]
        changed.append(_extend_maximal(kept, matching) != _extend_maximal(found, matching))
        return kept

    monkeypatch.setattr(layered, "_refill_candidates", faulty)
    return changed


def _first_freed_color(edge, matching, gone):
    used = {e[2] for e in matching}
    return edge[2] == min(e[2] for e in gone if e[2] not in used)


def _first_freed_vertex(edge, matching, gone):
    used = {x for e in matching for x in e[:2]}
    return min(x for e in gone for x in e[:2] if x not in used) in edge[:2]


@pytest.mark.parametrize(
    "g, drop",
    [
        (build_graph(14, _FREED_COLOR_EDGES), _first_freed_color),
        (_shuffled_cyclic(62, 1), _first_freed_vertex),
    ],
    ids=["freed-color", "freed-vertex"],
)
def test_check_catches_a_refill_fault_in_its_round(monkeypatch, g, drop):
    changed = _inject_refill_fault(monkeypatch, drop)
    with pytest.raises(InternalInvariantBroken, match="refill differs") as caught:
        find_rainbow_matching_layered(g, check=True)
    assert changed[-1] and not any(changed[:-1])
    assert str(caught.value).startswith(f"round {len(changed)}:")
    changed.clear()
    find_rainbow_matching_layered(g)  # unchecked, the fault passes unseen
    assert any(changed)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_refill_equals_the_full_walk_after_any_exchange(d, spread, seed):
    # from a matching maximal against the greedy order, delete a random
    # subset and add random edges that fit: the refill over the freed
    # vertices and colors must take exactly what the full walk takes
    # the solver holds a color map for every vertex free before the
    # exchange, and for some others that the greedy start scanned
    g = random_proper_graph(2 * d + spread, d, seed)
    rng = random.Random(seed)
    order = _greedy_order(g)
    shuffled = list(g.edges)
    rng.shuffle(shuffled)
    before = _extend_maximal(order, _extend_maximal(shuffled, [])[: rng.randrange(d + 1)])
    covered = {x for e in before for x in e[:2]}
    by_color = {
        v: _colors_at(g.neighbors(v)) for v in g.vertices() if v not in covered or rng.random() < 0.5
    }
    gone = set(rng.sample(before, rng.randrange(len(before) + 1)))
    kept = [e for e in before if e not in gone]
    rng.shuffle(shuffled)
    result = _extend_maximal(shuffled, kept)[: len(kept) + rng.randrange(len(gone) + 1)]
    index = _MatchingIndex(g)
    index.apply((), result)
    refilled = result + _fit(index, layered._refill_candidates(g, by_color, index, gone))
    assert refilled == _extend_maximal(order, result)
    assert index.edges == set(refilled)


def _with_isolated_vertices(g, extra, rng):
    """g on extra more vertices, its own renumbered at random."""
    labels = rng.sample(range(1, g.vertex_count + extra + 1), g.vertex_count)
    edges = [(labels[u - 1], labels[v - 1], c) for u, v, c in g.edges]
    return build_graph(g.vertex_count + extra, edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 8), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_greedy_start_equals_the_full_walk(d, spread, extra, seed):
    g = random_proper_graph(2 * d + spread, d, seed)
    if extra:
        g = _with_isolated_vertices(g, extra, random.Random(seed))
    by_color = {}
    start, palette = layered._greedy_start(g, by_color)
    assert start == _extend_maximal(_greedy_order(g), [])
    assert palette == {e[2] for e in g.edges}
    assert all(to == _colors_at(g.neighbors(v)) for v, to in by_color.items())
    # the maps left are those of the scan vertices the start leaves free
    matched = {x for e in start for x in e[:2]}
    scan = {v for v in g.vertices() if g.degree(v) and max(g.neighbors(v)) > v}
    assert set(by_color) == scan - matched


def _drop_the_last_greedy_edge(monkeypatch):
    real = layered._greedy_start
    monkeypatch.setattr(
        layered, "_greedy_start", lambda *args: (real(*args)[0][:-1], real(*args)[1])
    )


def test_check_catches_a_greedy_start_missing_an_edge(monkeypatch):
    g = _shuffled_cyclic(62, 1)
    _drop_the_last_greedy_edge(monkeypatch)
    with pytest.raises(InternalInvariantBroken, match="^greedy start differs from the full greedy walk$"):
        find_rainbow_matching_layered(g, check=True)
    m = find_rainbow_matching_layered(g)  # unchecked, the fault passes unseen
    assert validate_rainbow_matching(g, m)[0] and len(m) >= guaranteed_size(min_degree(g))


# Level 1 classifies 1-2, whose active edges at 1 and 2 pair up in no
# two-sided exchange, and 6-7. The free edge 3-4 in color 1 and the hits
# 2-3 and 2-4 each leave 1-2 no repair in its pool {3, 4}; the hit 2-5
# then realizes, in color 5, which only level 1's classification of 6-7
# unblocked.
_LAZY_HIT_EDGES = [
    (1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 3, 3), (2, 4, 2), (3, 4, 1), (2, 5, 5),
    (6, 7, 5), (6, 8, 6), (6, 9, 7), (6, 10, 8), (6, 11, 9),
]


def test_hit_in_a_color_its_level_unblocked_after_failed_candidates(monkeypatch):
    g = build_graph(11, _LAZY_HIT_EDGES)
    greedy = _extend_maximal(_greedy_order(g), [])
    assert sorted(greedy) == [(1, 2, 1), (6, 7, 5)]
    tried, augmented = _attempts(monkeypatch, g, greedy)
    assert [(kind, added, result is not None) for (kind, _, added), result in tried] == [
        ("FreeFree", ((3, 4, 1),), False),
        ("HitsY", ((2, 3, 3),), False),
        ("HitsY", ((2, 4, 2),), False),
        ("HitsY", ((2, 5, 5),), True),
    ]
    assert augmented == [(1, 3, 2), (2, 5, 5), (6, 8, 6)]
    monkeypatch.undo()
    rows = _assert_matches_reference(g)
    assert rows[0]["violation"] == "HitsY"


def _drop_a_classified_color(monkeypatch):
    """Patch _unblock to leave out, once, the first classified color it is
    given that leads from a free vertex to a matched one, so that an
    active-edge list goes stale. Returns the list of dropped colors."""
    real = layered._unblock
    dropped = []

    def faulty(state):
        for c in state.pending if state.origins and not dropped else ():
            if any(state.by_color[r].get(c) in state.found for r in state.free):
                dropped.append(c)
                state.pending.remove(c)
                break
        real(state)

    monkeypatch.setattr(layered, "_unblock", faulty)
    return dropped


def test_check_catches_a_stale_active_edge_list_in_its_level(monkeypatch):
    g = build_graph(11, _LAZY_HIT_EDGES)
    correct = find_rainbow_matching_layered(g)
    dropped = _drop_a_classified_color(monkeypatch)
    # level 1 drops color 5, the hit 2-5 goes unseen, and level 2 reads the list
    with pytest.raises(InternalInvariantBroken, match="^level 2: the active-edge lists differ"):
        find_rainbow_matching_layered(g, check=True)
    assert dropped == [5]
    dropped.clear()
    unchecked = find_rainbow_matching_layered(g)  # unchecked, the fault passes unseen
    assert dropped == [5] and len(unchecked) < len(correct)


class _CountedNeighbors(Mapping):
    """A neighbour map that counts the entries read through it: one per
    lookup, and the whole map per walk."""

    def __init__(self, inner, reads):
        self._inner, self._reads = inner, reads

    def __getitem__(self, w):
        self._reads[0] += 1
        return self._inner[w]

    def __iter__(self):
        self._reads[0] += len(self._inner)
        return iter(self._inner)

    def __len__(self):
        return len(self._inner)

    def __reversed__(self):
        for w in reversed(self._inner):
            self._reads[0] += 1
            yield w

    def keys(self):
        return KeysView(self)  # an intersection looks up each element of the other side

    def items(self):
        self._reads[0] += len(self._inner)
        return self._inner.items()

    def values(self):
        self._reads[0] += len(self._inner)
        return self._inner.values()


def test_a_solve_reads_about_what_its_levels_unblock(monkeypatch):
    # one walk over every free vertex's neighbours per level would read
    # about 17,000 entries a level here, 485,568 in all
    g = _shuffled_cyclic(192, 4)
    want = find_rainbow_matching_layered(g)
    reads = [0]
    neighbors = ColoredGraph.neighbors
    monkeypatch.setattr(
        ColoredGraph, "neighbors", lambda self, v: _CountedNeighbors(neighbors(self, v), reads)
    )
    assert find_rainbow_matching_layered(g) == want
    # 22,209; it read 35,088 when the last round ran all 11 levels, the
    # 9 after its first level that classified nothing 1,431 entries each
    assert 0 < reads[0] <= 25_000
    # entries read from the graph's own maps, not through neighbors (which
    # here reads g's maps): mostly the greedy start's color maps, each
    # of whose 192 rows' 192 entries _colors_at reads twice (73,728 in
    # all); a solve that validated every attempted exchange in full
    # read 75,828, and one that checks each exchange's diff 74,295
    direct = [0]
    counted = copy.copy(g)
    object.__setattr__(
        counted, "_adj", {v: _CountedNeighbors(nb, direct) for v, nb in g._adj.items()}
    )
    monkeypatch.setattr(ColoredGraph, "neighbors", lambda self, v: neighbors(g, v))
    assert find_rainbow_matching_layered(counted) == want
    assert 73_728 < direct[0] <= 76_000


def test_a_sparse_solve_reads_about_its_edges(monkeypatch):
    # a one-color perfect matching: the greedy start takes one edge and
    # leaves 19,998 vertices free, so a scan that looked up every pair
    # of free vertices would read about 2 * 10^8 entries per level
    n = 20_000
    g = build_graph(n, [(v, v + 1, 0) for v in range(1, n, 2)])
    reads = [0]
    neighbors = ColoredGraph.neighbors
    monkeypatch.setattr(
        ColoredGraph, "neighbors", lambda self, v: _CountedNeighbors(neighbors(self, v), reads)
    )
    assert find_rainbow_matching_layered(g) == ((1, 2, 0),)
    # each of the 2 levels reads each free vertex's one neighbour, and
    # setting up the round reads them once more
    assert 0 < reads[0] <= 4 * n


def test_a_solve_drops_the_color_maps_of_the_vertices_it_matches():
    # the solve's own heap, the graph built before; keeping the color map
    # of every vertex the greedy start matched peaked at 2.48 MiB
    g = _shuffled_cyclic(192, 4)
    tracemalloc.start()
    try:
        m = find_rainbow_matching_layered(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m) >= guaranteed_size(192)
    assert peak <= 2.0 * 2**20, peak


def test_an_edgeless_graph_with_a_huge_vertex_count_lists_no_vertex():
    g = parse_graph("graph 200000 0\n")
    tracemalloc.start()
    try:
        assert find_rainbow_matching_layered(g) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# The kinds of fault the exchange check must catch on its own: one edge
# short, an added edge listed twice, a kept edge added again, and an
# added edge that repeats a color, covers a covered vertex, or is not in
# the graph.
_EXCHANGE_FAULTS = ["size", "twice", "kept", "color", "vertex", "edge"]


def _corrupt_exchange(fault, g, matching, gone, added):
    """added, the additions of an exchange that deletes gone from
    matching, with one fault of the given kind; None if none fits."""
    kept = [e for e in matching if e not in gone]
    *rest, last = added
    if fault == "size":
        return rest
    if fault == "twice":
        return rest + [rest[0]] if rest else None
    if fault == "kept":
        return rest + [kept[0]]
    if fault == "edge":
        return rest + [(last[0], last[1], 1 + max(e[2] for e in g.edges))]
    # swap the last addition for a graph edge that repeats a color of the
    # rest of the new matching or shares a vertex with it, but not both
    others = kept + rest
    vertices = {x for e in others for x in e[:2]}
    colors = {e[2] for e in others}
    for e in g.edges:
        shares = e[0] in vertices or e[1] in vertices
        if (shares, e[2] in colors) == (fault == "vertex", fault == "color"):
            return rest + [e]
    return None


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("fault", _EXCHANGE_FAULTS)
def test_exchange_check_rejects_a_corrupt_exchange(monkeypatch, fault, check):
    # the first exchange the solve would realize comes back with one
    # fault; its attempt fails and leaves the index as it was, and the
    # solve goes on to other candidates
    g = _shuffled_cyclic(96, 1)
    real_exchange, real_attempt = layered._exchange_of, layered._attempt_exchange
    injected, verdicts = [], []

    def corrupting(state, violation):
        exchange = real_exchange(state, violation)
        if exchange is None or injected:
            return exchange
        gone, added = exchange
        bad = _corrupt_exchange(fault, g, sorted(state.index.edges), gone, added)
        assert bad is not None
        injected.append(fault)
        return gone, bad

    def attempt(state, violation, check=False):
        before = len(injected)
        index = state.index
        held = (dict(index.color_at), dict(index.edge_of), set(index.edges))
        result = real_attempt(state, violation, check)
        if len(injected) > before:
            verdicts.append(result)
            assert (index.color_at, index.edge_of, index.edges) == held
        return result

    monkeypatch.setattr(layered, "_exchange_of", corrupting)
    monkeypatch.setattr(layered, "_attempt_exchange", attempt)
    m = find_rainbow_matching_layered(g, check=check)
    assert injected == [fault] and verdicts == [None]
    assert validate_rainbow_matching(g, m)[0] and len(m) >= guaranteed_size(96)


def _realize_a_vertex_collision(monkeypatch):
    """Make every exchange cover a vertex twice, and every change in the
    index unchecked."""
    real = layered._exchange_of

    def corrupting(state, violation):
        exchange = real(state, violation)
        if exchange is None:
            return exchange
        gone, added = exchange
        return gone, _corrupt_exchange("vertex", state.graph, sorted(state.index.edges), gone, added)

    monkeypatch.setattr(layered, "_exchange_of", corrupting)
    monkeypatch.setattr(_MatchingIndex, "change", _MatchingIndex.apply)


def test_check_validates_a_realized_exchange_in_full(monkeypatch):
    # with the change made unchecked, check=True still catches a realized
    # exchange that covers a vertex twice
    g = _shuffled_cyclic(96, 1)
    _realize_a_vertex_collision(monkeypatch)
    with pytest.raises(
        InternalInvariantBroken,
        match="^an exchange passed its diff check but is invalid: vertex [0-9]+ is covered twice$",
    ):
        find_rainbow_matching_layered(g, check=True)


def _stale_index(state):
    state.index.color_at.pop(max(state.index.color_at))


def _stale_free(state):
    state.free.pop()


def _stale_missing(state):
    state.missing.add(next(iter(state.index.edge_of)))


def _stale_second_round(monkeypatch, stale):
    """Let stale make the state the second round starts from go stale."""
    real = layered._next_state
    calls = []

    def faulty(*args):
        state = real(*args)
        calls.append(state)
        if len(calls) == 2:  # the first call builds the first round's state
            stale(state)
        return state

    monkeypatch.setattr(layered, "_next_state", faulty)


@pytest.mark.parametrize("stale", [_stale_index, _stale_free, _stale_missing])
def test_check_catches_stale_carried_state_in_its_round(monkeypatch, stale):
    # the state the second round starts from goes stale in one part
    g = _shuffled_cyclic(96, 1)
    _stale_second_round(monkeypatch, stale)
    with pytest.raises(
        InternalInvariantBroken,
        match="^round 2: the carried index, free vertices or missing colors differ from a fresh build$",
    ):
        find_rainbow_matching_layered(g, check=True)


def _refuse_every_change(monkeypatch):
    monkeypatch.setattr(_MatchingIndex, "change", lambda self, removed, added: "a color is repeated")


def _skip_every_round(monkeypatch):
    monkeypatch.setattr(layered, "_run_layers", lambda state, check: (None, None, []))


def _start_off_the_graph(monkeypatch):
    real = layered._greedy_start
    monkeypatch.setattr(
        layered, "_greedy_start", lambda g, by_color: ([(1, 2, 2)], real(g, by_color)[1])
    )


def _below_the_guarantee():
    """A graph whose greedy start, 33 edges against a guarantee of 34, is
    in regime."""
    return to_bipartite_factorization(_half_transversal_square(66))


# One row per check in layered.py that a run can reach: (message, graph,
# fault, check). _check_level's in-regime claims have none (ROADMAP
# item 7): every in-regime level so far realizes an exchange first.
_CHECK_FAULTS = [
    ("greedy start differs from the full greedy walk",
     lambda: _shuffled_cyclic(62, 1), _drop_the_last_greedy_edge, True),
    ("level 2: the active-edge lists differ from a fresh walk",
     lambda: build_graph(11, _LAZY_HIT_EDGES), _drop_a_classified_color, True),
    ("level 1: no detected exchange could be realized",
     _below_the_guarantee, _refuse_every_change, False),
    ("an exchange passed its diff check but is invalid: vertex 97 is covered twice",
     lambda: _shuffled_cyclic(96, 1), _realize_a_vertex_collision, True),
    ("round 2: the carried index, free vertices or missing colors differ from a fresh build",
     lambda: _shuffled_cyclic(96, 1), lambda mp: _stale_second_round(mp, _stale_index), True),
    ("round 1: refill differs from the full greedy walk",
     lambda: build_graph(14, _FREED_COLOR_EDGES),
     lambda mp: _inject_refill_fault(mp, _first_freed_color), True),
    ("finished with 33 edges, guarantee is 34", _below_the_guarantee, _skip_every_round, False),
    ("final matching invalid: edge 1-2 with color 2 is not in the graph",
     lambda: build_graph(2, [(1, 2, 1)]), _start_off_the_graph, False),
]


@pytest.mark.parametrize(
    "message, graph, fault, check", _CHECK_FAULTS,
    ids=["greedy-start", "active-edges", "unrealized", "exchange", "carried-state", "refill",
         "guarantee", "final"],
)
def test_each_layered_check_names_its_fault(monkeypatch, message, graph, fault, check):
    g = graph()
    fault(monkeypatch)
    with pytest.raises(InternalInvariantBroken, match=f"^{re.escape(message)}$"):
        find_rainbow_matching_layered(g, check=check)


def test_a_pool_is_its_list_at_classification():
    # the lookup after a level's candidates grows the carrying side's
    # list; the record's pool still holds only what classification saw
    g = _shuffled_cyclic(96, 1)
    state = _first_state(g, min_degree(g), {e[2] for e in g.edges}, {},
                         _extend_maximal(_greedy_order(g), []))
    current = sorted(state.index.edges)
    layered._unblock(state)
    _, classified = _classify_level(state, current)
    want = {r.edge: sorted(r.found) for r in classified}
    state.pending = [r.edge[2] for r in classified]
    layered._unblock(state)
    grown = [r for r in classified if len(r.found) > r.size]
    assert grown
    for r in classified:
        assert r.pool == want[r.edge]


def _pinned_layered_instances():
    for n, seed in ((96, 1), (131, 2), (160, 3), (192, 4)):
        yield _shuffled_cyclic(n, seed)
    for d in (1, 4, 10, 25, 60):
        for spread in (0, 3, 7):
            yield random_proper_graph(2 * d + spread, d, split_seed(24, 10 * d + spread))
    yield build_graph(14, _FREED_COLOR_EDGES)
    given_edges = [(v, u, c) for u, v, c in _shuffled_cyclic(48, 5).edges]
    random.Random(5).shuffle(given_edges)
    yield build_graph(96, given_edges)
    yield ColoredGraph(10**12, [])


def test_layered_outputs_and_traces_are_pinned():
    # covers the greedy start, every refill and the trace events on the
    # instance families the reference comparison uses, plain and checked
    digest = hashlib.sha256()
    for g in _pinned_layered_instances():
        for check in (False, True):
            events = []
            m = find_rainbow_matching_layered(g, check=check, trace=events.append)
            digest.update(json.dumps([m, events]).encode())
    assert digest.hexdigest() == (
        "f2b33dab6fa0d68486dac93e4cea32f6c52c3bc69ca97ee2f2390568771c36e7"
    )
