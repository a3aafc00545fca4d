"""Rainbow matchings of size equal to the minimum degree."""

import hashlib

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
from rainbowmatch.delta import (
    Chain,
    ChainsExtended,
    GoodConfiguration,
    _audit,
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
        chains=[Chain(edges=[(2, 9, 7), (4, 10, 5)], anchors=[2, 4], cores=[0, 1])],
        cover={0: (0, 0), 1: (0, 1)},
    )
    removed, added = chain_rotate(config, 0, 1)
    assert removed == [(3, 4, 6), (1, 2, 5)]
    assert added == [(4, 10, 5), (2, 9, 7)]


def test_restructure_promotes_the_duplicated_color():
    g = build_graph(8, [(1, 2, 1), (3, 4, 2), (5, 6, 1), (7, 8, 3)])
    config = GoodConfiguration(
        graph=g, target=3, twins_a=[], twins_b=[], core=[], chains=[], cover={}
    )
    candidate = [(1, 2, 1), (5, 6, 1), (7, 8, 3)]
    out = _restructure(config, candidate)
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
        _restructure(config, [(1, 2, 1), (3, 4, 2)])


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
