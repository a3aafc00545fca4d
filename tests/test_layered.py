"""Layered-exchange rainbow matchings on graphs with modest vertex counts."""

import random
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
from rainbowmatch.graphs import ColoredGraph, _normalize
from rainbowmatch.layered import (
    ClassifiedEdge,
    LayerState,
    _classify_level,
    _extend_maximal,
    _greedy_order,
    _next_state,
    _run_layers,
    _scan_candidates,
)


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
    first = LayerState(graph=g, delta=min_degree(g), palette={e[2] for e in g.edges})
    state = _next_state(first, sorted(matching))
    augmented, violation, _ = _run_layers(state, check=False)
    return violation, augmented


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
    """Layer once, recording every candidate tried and what it gave."""
    tried = []
    attempt = layered._attempt_exchange

    def record(state, violation):
        result = attempt(state, violation)
        tried.append((violation, result))
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
    base = _extend_maximal(_greedy_order(g), [])
    # color 1 first (smallest edge wins the color), color 2 is then
    # blocked at vertex 2, color 3 still fits
    assert base == [(1, 2, 1), (5, 6, 3)]


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
        record = ClassifiedEdge(edge=e, x=x, y=y, pool=pool)
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
                hits_y.append(("HitsY", state.quiet_side[w], (_normalize(v, w, c),)))
    return free_free + two_sided + hits_y


def _reference_greedy_order(g):
    return sorted(g.edges, key=lambda e: (e[2], e[0], e[1]))


def _both_classifications(state, current):
    got = _classify_level(state, current)
    want = _reference_classify_level(state, current)
    assert got == want
    return want


def _both_scans(state, survivors, two_sided):
    want = _reference_scan_candidates(state, survivors, two_sided)
    assert list(_scan_candidates(state, survivors, two_sided)) == want
    return want


def _assert_matches_reference(g):
    """Solve g with check=True and again with the reference classification,
    scan and full-walk refill; the matchings and every trace dict must
    agree, and so must the two classifications and the two candidate
    lists of every level."""
    rows, reference_rows = [], []
    m = find_rainbow_matching_layered(g, check=True, trace=rows.append)
    with mock.patch.multiple(
        layered,
        _classify_level=_both_classifications,
        _scan_candidates=_both_scans,
        _greedy_order=_reference_greedy_order,
        _refill_candidates=lambda g, order, matching, gone: order,
    ):
        reference = find_rainbow_matching_layered(g, trace=reference_rows.append)
    assert m == reference
    assert rows == reference_rows
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

    def faulty(g, order, matching, gone):
        found = real(g, order, matching, gone)
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
    g = random_proper_graph(2 * d + spread, d, seed)
    rng = random.Random(seed)
    order = _greedy_order(g)
    shuffled = list(g.edges)
    rng.shuffle(shuffled)
    before = _extend_maximal(order, _extend_maximal(shuffled, [])[: rng.randrange(d + 1)])
    gone = set(rng.sample(before, rng.randrange(len(before) + 1)))
    kept = [e for e in before if e not in gone]
    rng.shuffle(shuffled)
    result = _extend_maximal(shuffled, kept)[: len(kept) + rng.randrange(len(gone) + 1)]
    refilled = _extend_maximal(layered._refill_candidates(g, order, result, gone), result)
    assert refilled == _extend_maximal(order, result)


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
    assert 0 < reads[0] <= 60_000


def test_an_edgeless_graph_with_a_huge_vertex_count_lists_no_vertex():
    g = parse_graph("graph 200000 0\n")
    tracemalloc.start()
    try:
        assert find_rainbow_matching_layered(g) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
