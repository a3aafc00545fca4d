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
from rainbowmatch.layered import (
    FreeFree,
    HitsY,
    TwoSided,
    _extend_maximal,
    _greedy_order,
    build_layers,
    trace_back_augment,
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
    assert find_rainbow_matching_layered(g) == find_rainbow_matching_layered(g)


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


def test_detects_directly_addable_edge_as_free_free():
    # a non-maximal matching leaves a fresh-colored edge between two
    # free vertices; the scan must surface it and the exchange adds it
    g = build_graph(4, [(1, 2, 1), (3, 4, 2)])
    state = build_layers(g, [])
    violation = state.violation
    assert isinstance(violation, FreeFree)
    assert violation.edge == (1, 2, 1)
    assert sorted(trace_back_augment(state, violation)) == [(1, 2, 1)]


def test_detects_two_sided_exchange():
    # the matched edge 1-2 sees four fresh colors at 1 and one at 2;
    # dropping it for one edge on each side gains a unit
    edges = [(1, 2, 1), (1, 3, 2), (1, 4, 3), (1, 5, 4), (1, 6, 5), (2, 3, 6)]
    g = build_graph(6, edges)
    state = build_layers(g, [(1, 2, 1)])
    violation = state.violation
    assert isinstance(violation, TwoSided)
    assert violation.origin.edge == (1, 2, 1)
    augmented = sorted(trace_back_augment(state, violation))
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
    state = build_layers(g, [(1, 2, 1), (3, 4, 2)])
    violation = state.violation
    assert isinstance(violation, HitsY)
    assert violation.edge == (2, 5, 2)
    assert violation.origin.edge == (1, 2, 1)
    augmented = sorted(trace_back_augment(state, violation))
    assert augmented == [(1, 10, 8), (2, 5, 2), (3, 6, 3)]
    ok, why = validate_rainbow_matching(g, augmented)
    assert ok, why


def test_detect_returns_none_when_no_exchange_exists():
    # every off-matching edge leans on vertex 1: the matching is maximum
    edges = [(1, 2, 1), (1, 3, 2), (1, 4, 3), (1, 5, 4), (1, 6, 5)]
    g = build_graph(6, edges)
    state = build_layers(g, [(1, 2, 1)])
    assert state.violation is None


def test_extend_maximal_is_greedy_by_color():
    g = build_graph(6, [(5, 6, 3), (1, 2, 1), (3, 4, 1), (2, 3, 2)])
    base = _extend_maximal(_greedy_order(g), [])
    # color 1 first (smallest edge wins the color), color 2 is then
    # blocked at vertex 2, color 3 still fits
    assert base == [(1, 2, 1), (5, 6, 3)]
