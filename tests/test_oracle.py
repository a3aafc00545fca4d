"""Exhaustive-search reference solvers and their budgets."""

import math

import pytest

from rainbowmatch import (
    BudgetExceeded,
    OracleBudget,
    PreconditionViolated,
    build_graph,
    cyclic_square,
    k4_factorization_pair,
    max_cyclefree_transversal_exact,
    max_rainbow_matching_exact,
    max_transversal_exact,
    random_square,
    to_bipartite_factorization,
    validate_rainbow_matching,
    validate_transversal,
    witness_square_4,
)

C4 = build_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 2)])


def test_two_colored_cycle_has_no_two_disjoint_colors():
    m = max_rainbow_matching_exact(C4)
    assert len(m) == 1
    ok, _ = validate_rainbow_matching(C4, m)
    assert ok


def test_disjoint_factorized_cliques_reach_two():
    g = k4_factorization_pair()
    m = max_rainbow_matching_exact(g)
    assert len(m) == 2
    ok, _ = validate_rainbow_matching(g, m)
    assert ok


def test_empty_and_single_edge_graphs():
    assert len(max_rainbow_matching_exact(build_graph(3, []))) == 0
    assert len(max_rainbow_matching_exact(build_graph(2, [(1, 2, 9)]))) == 1


def test_shared_vertex_limits_matching():
    g = build_graph(3, [(1, 2, 1), (2, 3, 2)])
    assert len(max_rainbow_matching_exact(g)) == 1


def test_matching_budget_on_edges():
    g = to_bipartite_factorization(cyclic_square(6))  # 36 edges
    with pytest.raises(BudgetExceeded):
        max_rainbow_matching_exact(g)
    m = max_rainbow_matching_exact(g, budget=OracleBudget(max_edges=40))
    assert len(m) == 5  # even cyclic squares top out one below the order


def test_matching_node_limit():
    g = to_bipartite_factorization(cyclic_square(4))
    with pytest.raises(BudgetExceeded):
        max_rainbow_matching_exact(g, budget=OracleBudget(node_limit=3))


@pytest.mark.parametrize(
    "field, value, why",
    [
        ("max_edges", None, "must be an int, got NoneType"),
        ("max_order", "7", "must be an int, got str"),
        ("node_limit", -1, "must be at least 0, got -1"),
    ],
)
def test_budget_fields_are_non_negative_ints(field, value, why):
    # a budget built with None compared it with a size inside the search
    # and raised TypeError there
    with pytest.raises(PreconditionViolated, match=f"^{field} {why}$"):
        OracleBudget(**{field: value})


def test_order_two_square_has_singleton_transversal():
    assert len(max_transversal_exact(cyclic_square(2))) == 1


def test_odd_cyclic_square_has_full_transversal():
    for n in (1, 3, 5, 7):
        t = max_transversal_exact(cyclic_square(n))
        assert len(t) == n


def test_witness_square_cyclefree_maximum_is_order_minus_two():
    w = witness_square_4()
    t = max_cyclefree_transversal_exact(w, k=math.inf)
    assert len(t) == 2
    ok, _ = validate_transversal(w, t, forbid_cycles_up_to=math.inf)
    assert ok


def test_cycle_threshold_relaxes_the_maximum():
    w = witness_square_4()
    assert len(max_cyclefree_transversal_exact(w, k=0)) == 4
    assert len(max_cyclefree_transversal_exact(w, k=2)) >= 2


def test_transversal_budget_on_order():
    big = cyclic_square(8)
    with pytest.raises(BudgetExceeded):
        max_transversal_exact(big)
    with pytest.raises(BudgetExceeded):
        max_cyclefree_transversal_exact(big, k=2)


def test_oracle_views_agree_on_small_squares():
    # same maximum whether the square is searched as cells or as a
    # factorized matching problem; order 5 has 25 edges, needs a budget
    for seed in range(3):
        sq = random_square(5, seed=seed)
        t = max_transversal_exact(sq)
        g = to_bipartite_factorization(sq)
        m = max_rainbow_matching_exact(g, budget=OracleBudget(max_edges=25))
        assert len(t) == len(m)
        assert len(t) >= 4
        for result in (t, m):
            assert type(result) is tuple and list(result) == sorted(result)
