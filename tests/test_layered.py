"""Layered-exchange rainbow matchings on graphs with modest vertex counts."""

import pytest

from rainbowmatch import (
    PreconditionViolated,
    build_graph,
    find_rainbow_matching_layered,
    guaranteed_size,
    k4_factorization_pair,
    min_degree,
    random_square,
    split_seed,
    to_bipartite_factorization,
    validate_rainbow_matching,
)
from rainbowmatch import layered
from rainbowmatch.layered import (
    _extend_maximal,
    _fresh_state,
    _greedy_order,
    _run_layers,
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
    state = _fresh_state(g, sorted(matching), min_degree(g))
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
