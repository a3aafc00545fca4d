"""Colored graph container, validation, and the text format."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    BadShape,
    DuplicateEdge,
    ImproperColoring,
    SelfLoop,
    build_graph,
    cyclic_square,
    format_graph,
    min_degree,
    parse_graph,
    random_proper_graph,
    validate_rainbow_matching,
    validate_transversal,
)

C4_EDGES = [(1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 2)]


def test_build_graph_normalizes_endpoint_order():
    g = build_graph(3, [(2, 1, 5)])
    assert g.edges == ((1, 2, 5),)
    assert g.color_of(1, 2) == 5
    assert g.color_of(2, 1) == 5


def test_neighbors_are_sorted():
    g = build_graph(5, [(3, 1, 1), (3, 5, 2), (3, 2, 4)])
    assert list(g.neighbors(3)) == [1, 2, 5]
    assert g.degree(3) == 3
    assert g.degree(4) == 0
    # the solvers read colors off this read-only map, in this order
    base = random_proper_graph(30, 6, seed=5)
    shuffled = list(base.edges)
    random.Random(5).shuffle(shuffled)
    flipped = [(v, u, c) for u, v, c in reversed(base.edges)]
    for edges in (shuffled, flipped):
        g = build_graph(base.vertex_count, edges)
        for v in g.vertices():
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(nbrs)
            assert dict(nbrs.items()) == {w: g.color_of(v, w) for w in nbrs}
            with pytest.raises(TypeError):
                nbrs[v] = 0


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(3, [(2, 2, 1)])


def test_duplicate_edge_rejected_in_both_orientations():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(1, 2, 1), (1, 2, 2)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(1, 2, 1), (2, 1, 2)])


def test_improper_coloring_rejected():
    # two color-3 edges share vertex 2
    with pytest.raises(ImproperColoring):
        build_graph(4, [(1, 2, 3), (2, 4, 3)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(BadShape):
        build_graph(3, [(1, 4, 1)])
    with pytest.raises(BadShape):
        build_graph(3, [(0, 2, 1)])


def test_malformed_api_input_gets_a_rainbow_error_or_a_verdict():
    # a graph holds ints only, so format_graph never writes a file parse_graph rejects
    for bad in [(1.5, 2, 1), ("1", 2, 1), (1, 2, "a"), (1, 2), (1.0, 2, 1), (1, 2.0, 1),
                (1, 2, 1.5), (1, 2, True), (True, 2, 1)]:
        with pytest.raises(BadShape) as info:
            build_graph(3, [(2, 3, 1), bad])
        assert repr(bad) in str(info.value)
        assert info.value.position == 1
    with pytest.raises(BadShape) as info:
        build_graph(3, [(1, 2, 1.5), (2, 3, True)])
    assert info.value.position == 0
    for count in (None, "3", 2.5, True, -1):
        with pytest.raises(BadShape, match="vertex_count must be a non-negative int"):
            build_graph(count, [])
    with pytest.raises(BadShape):
        build_graph(3, None)
    g = build_graph(3, [(1, 2, 1)])
    ok, why = validate_rainbow_matching(g, [(1.5, 2, 1)])
    assert not ok and "(1.5, 2, 1)" in why
    ok, why = validate_transversal(cyclic_square(4), [(1.0, 2, 2)])
    assert not ok and "(1.0, 2, 2)" in why
    for ok, why in (validate_rainbow_matching(g, None), validate_transversal(cyclic_square(3), None)):
        assert not ok and "None" in why
    # the validators' verdicts on values equal to the right integers stand
    assert validate_rainbow_matching(g, [(1.0, 2, 1)]) == (True, None)
    assert validate_transversal(cyclic_square(4), [(1, 2, 2.0)]) == (True, None)


def test_min_degree():
    assert min_degree(build_graph(4, C4_EDGES)) == 2
    assert min_degree(build_graph(3, [(1, 2, 1)])) == 0
    assert min_degree(build_graph(1, [])) == 0


def test_a_huge_vertex_count_allocates_only_per_vertex_with_an_edge():
    tracemalloc.start()
    try:
        g = parse_graph("graph 200000 1\n7 199999 3\n")
        assert min_degree(g) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (g.degree(7), g.degree(8), g.degree(200000)) == (1, 0, 0)
    assert dict(g.neighbors(199999)) == {7: 3} and dict(g.neighbors(1)) == {}
    assert (g.color_of(199999, 7), g.color_of(1, 7), g.color_of(1.0, 2)) == (3, None, None)
    for outside in (0, 200001, 1.5, "1"):
        with pytest.raises(KeyError):
            g.neighbors(outside)
        with pytest.raises(KeyError):
            g.color_of(outside, 7)


def test_validate_accepts_rainbow_matching():
    g = build_graph(4, C4_EDGES)
    ok, why = validate_rainbow_matching(g, [(1, 2, 1)])
    assert ok and why is None


def test_validate_rejects_shared_vertex():
    g = build_graph(4, C4_EDGES)
    ok, why = validate_rainbow_matching(g, [(1, 2, 1), (2, 3, 2)])
    assert not ok
    assert "vertex" in why


def test_validate_rejects_repeated_color():
    g = build_graph(4, C4_EDGES)
    ok, why = validate_rainbow_matching(g, [(1, 2, 1), (3, 4, 1)])
    assert not ok
    assert "color" in why


def test_validate_rejects_missing_edge():
    g = build_graph(4, C4_EDGES)
    ok, why = validate_rainbow_matching(g, [(1, 3, 1)])
    assert not ok


def test_validate_rejects_wrong_color_label():
    g = build_graph(4, C4_EDGES)
    ok, why = validate_rainbow_matching(g, [(1, 2, 2)])
    assert not ok


def test_format_parse_round_trip():
    g = build_graph(4, C4_EDGES)
    text = format_graph(g)
    h = parse_graph(text)
    assert h.vertex_count == g.vertex_count
    assert h.edges == g.edges


@st.composite
def proper_graphs(draw):
    """Up to 8 vertices (isolated ones and 0 edges included); drawn
    edges that would break properness are dropped, the rest kept in
    drawn order and orientation."""
    n = draw(st.integers(0, 8))
    edges, pairs, colors = [], set(), set()
    ends = st.integers(1, max(n, 1))
    for u, v, c in draw(st.lists(st.tuples(ends, ends, st.integers(0, 5)), max_size=14)):
        if u == v or (min(u, v), max(u, v)) in pairs or {(u, c), (v, c)} & colors:
            continue
        edges.append((u, v, c))
        pairs.add((min(u, v), max(u, v)))
        colors.update({(u, c), (v, c)})
    return build_graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(proper_graphs())
def test_format_parse_round_trip_property(g):
    assert parse_graph(format_graph(g)) == g


def test_parse_skips_comments_and_blank_lines():
    text = "# instance\ngraph 2 1\n\n1 2 7\n"
    g = parse_graph(text)
    assert g.vertex_count == 2
    assert g.edges == ((1, 2, 7),)


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(BadShape):
        parse_graph("graph 2 2\n1 2 1\n")


def test_parse_rejects_garbage_line():
    with pytest.raises(BadShape):
        parse_graph("graph 2 1\nx y z\n")


def test_parse_rejects_non_integer_fields():
    with pytest.raises(BadShape):
        parse_graph("graph 2 1\n1 two 1\n")


# (text, exception class, 1-based line of the first offending edge); the
# wording after the "line N: " prefix is free to change
MALFORMED_GRAPHS = [
    ("graph 3 1\n2 2 1\n", SelfLoop, 2),
    ("graph 3 1\n0 2 1\n", BadShape, 2),
    ("graph 3 1\n1 4 1\n", BadShape, 2),
    ("graph 3 1\n1 2 -1\n", BadShape, 2),
    ("graph 3 2\n1 2 1\n1 2 2\n", DuplicateEdge, 3),
    ("graph 3 2\n1 2 1\n2 1 2\n", DuplicateEdge, 3),
    ("graph 4 2\n1 2 1\n1 3 1\n", ImproperColoring, 3),
    ("graph 4 2\n1 3 1\n2 3 1\n", ImproperColoring, 3),
    # the self-loop sorts after the duplicate pair but comes first in the file
    ("graph 3 3\n2 2 1\n1 2 1\n1 2 1\n", SelfLoop, 2),
    ("# c\ngraph 4 3\n\n1 2 1\n# x\n3 4 5\n2 1 3\n", DuplicateEdge, 7),
    ("graph 3 5\n1 2 1\n2 2 1\n", SelfLoop, 3),
    ("graph 3 1\n1 2 1\n1 3 1\n", ImproperColoring, 3),
]


@pytest.mark.parametrize("text, error, line", MALFORMED_GRAPHS)
def test_parse_reports_first_offending_line(text, error, line):
    with pytest.raises(error) as info:
        parse_graph(text)
    assert type(info.value) is error
    assert str(info.value).startswith(f"line {line}: ")
