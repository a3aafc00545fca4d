"""Colored graph container, validation, and the text format."""

import pytest

from rainbowmatch import (
    BadShape,
    DuplicateEdge,
    ImproperColoring,
    SelfLoop,
    build_graph,
    format_graph,
    min_degree,
    parse_graph,
    validate_rainbow_matching,
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


def test_min_degree():
    assert min_degree(build_graph(4, C4_EDGES)) == 2
    assert min_degree(build_graph(3, [(1, 2, 1)])) == 0
    assert min_degree(build_graph(1, [])) == 0


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
