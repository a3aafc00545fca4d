"""Colored graph container, validation, and the text format."""

import gc
import inspect
import random
import time
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowmatch
from rainbowmatch import (
    BadShape,
    DuplicateEdge,
    ImproperColoring,
    InternalInvariantBroken,
    PreconditionViolated,
    RainbowError,
    SelfLoop,
    build_graph,
    build_short_cycle_free_transversal,
    cycle_free_transversal,
    cycles_of,
    cyclic_square,
    find_rainbow_matching_delta,
    find_rainbow_matching_layered,
    format_graph,
    max_cyclefree_transversal_exact,
    max_rainbow_matching_exact,
    max_transversal_exact,
    min_degree,
    parse_graph,
    parse_latin,
    random_proper_graph,
    serialize_latin,
    to_bipartite_factorization,
    validate_rainbow_matching,
    validate_transversal,
)
from rainbowmatch import graphs
from rainbowmatch.graphs import _MatchingIndex

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


def _kept(build):
    """(what build() returns, the bytes it keeps): a full collection
    first empties the free lists, which hold up to 2,000 dropped tuples
    of each size that no graph keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        made = build()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return made, kept


def test_a_parsed_graph_shares_one_int_per_vertex():
    # a fresh int per parsed edge end held 176,119 int objects for these
    # 2,000 vertices, and kept 1.29x what the generated graph keeps. The
    # generated graph's size is that of its maps built again from its
    # edges, which tracemalloc measures 30x faster than the generator
    g = random_proper_graph(2000, 100, 3)
    edges = g.edges
    generated = _kept(lambda: build_graph(2000, edges))[1]
    text = format_graph(g)
    h, parsed = _kept(lambda: parse_graph(text))
    assert h == g
    ends = {id(x) for e in h.edges for x in e[:2]}
    ends.update(id(w) for v, nb in h._adj.items() for w in (v, *nb))
    assert len(ends) == 2000
    assert parsed <= 1.05 * generated, (parsed, generated)


def test_writing_and_parsing_a_graph_peak_near_what_they_keep():
    # format_graph held the edge tuple and every line string before its
    # join and peaked at 14.7 MiB, 12.9x its 1.14 MiB text (2.1x when
    # each vertex's lines are joined on their own); parse_graph kept a
    # line number per edge until the graph was built and peaked at 2.23x
    # what it keeps, and at 1.84x with the list of every line, an edge
    # tuple per edge and the constructor's sorted copy of them (1.05x
    # when it fills the maps straight from the lines)
    g = random_proper_graph(2000, 100, 3)
    tracemalloc.start()
    try:
        text = format_graph(g)
        written = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gc.collect()
    tracemalloc.start()
    try:
        h = parse_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h == g
    assert written < 3 * len(text), (written, len(text))
    assert peak <= 1.2 * kept, (peak, kept)


def _adjacency(n, edges):
    """The constructor's check and index before its bulk check, kept to
    check the build against: each edge is checked in list order, and
    the first fault is raised with its ``position``."""
    adj = defaultdict(dict)
    palette = defaultdict(dict)
    try:
        for i, (u, v, c) in enumerate(edges):
            if type(u) is not int or type(v) is not int or type(c) is not int:
                raise BadShape(f"edge {edges[i]!r} is not three integers")
            if u == v:
                raise SelfLoop(f"edge {u}-{v} is a self-loop")
            if not (1 <= u <= n and 1 <= v <= n):
                raise BadShape(f"edge {u}-{v} outside vertex range 1..{n}")
            if c < 0:
                raise BadShape(f"edge {u}-{v} has negative color {c}")
            at_u, at_v, colors_u, colors_v = adj[u], adj[v], palette[u], palette[v]
            if v in at_u:
                raise DuplicateEdge(f"edge {u}-{v} appears more than once")
            if c in colors_u:
                raise ImproperColoring(f"color {c} repeated at vertex {u}")
            if c in colors_v:
                raise ImproperColoring(f"color {c} repeated at vertex {v}")
            at_u[v] = c
            at_v[u] = c
            colors_u[c] = v
            colors_v[c] = u
    except (RainbowError, TypeError, ValueError) as exc:
        if not isinstance(exc, RainbowError):
            exc = BadShape(f"edge {edges[i]!r} is not three integers")
        exc.position = i
        raise exc from None
    return dict(adj)


def _other_end(rnd, edges, n):
    """(x, w, c): an edge end x, its edge's color c and a vertex w not
    joined to x, so that x-w would repeat c at x; None when every vertex
    is joined to all others."""
    for u, v, c in rnd.sample(edges, len(edges)):
        for x in (u, v):
            joined = {y for e in edges if x in e[:2] for y in e[:2]}
            if len(joined) < n:
                return x, min(set(range(1, n + 1)) - joined), c
    return None


def _as_given(rnd, edges):
    """edges, each turned either way round and given as a tuple or a list."""
    edges = [e[1::-1] + e[2:] if rnd.random() < 0.5 else e for e in edges]
    return [list(e) if rnd.random() < 0.5 else e for e in edges]


def _inject(kind, edges, n, rnd):
    """edges with one fault of kind, made from the edge at a random
    position; the faulty edge goes in as a tuple or list, either way round."""
    edges = list(edges)
    i = rnd.randrange(len(edges))
    u, v, c = edges[i]
    if kind == "self-loop":
        bad = [(u, u, c)]
    elif kind in ("vertex 0", "vertex n+1", "huge vertex"):
        bad = [(u, {"vertex 0": 0, "vertex n+1": n + 1, "huge vertex": 2**80 + n}[kind], c)]
    elif kind == "negative color":
        bad = [(u, v, -1 - c)]
    elif kind in ("bool", "float", "str"):
        fields = [u, v, c]
        field = rnd.randrange(3)
        fields[field] = {"bool": bool, "float": float, "str": str}[kind](fields[field])
        bad = [tuple(fields)]
    elif kind == "two fields":
        bad = [(u, v)]
    elif kind == "four fields":
        bad = [(u, v, c, c)]
    elif kind == "repeat, same color":
        bad = [(u, v, c), (u, v, c)]
    elif kind == "repeat, other color":
        bad = [(u, v, c), (u, v, c + 1 + max(e[2] for e in edges))]
    elif kind == "color at a vertex":
        found = _other_end(rnd, edges, n)
        if found is None:
            return edges
        x, w, color = found
        bad = [(u, v, c), (x, w, color)]
    else:  # a huge color is still a valid one
        bad = [(u, v, 2**80 + c)]
    edges[i:i + 1] = rnd.sample(_as_given(rnd, bad), len(bad))
    return edges


_FAULT_KINDS = ["self-loop", "vertex 0", "vertex n+1", "huge vertex", "negative color",
                "bool", "float", "str", "two fields", "four fields", "repeat, same color",
                "repeat, other color", "color at a vertex", "huge color"]


def _assert_build_matches_the_reference(n, edges):
    try:
        _adjacency(n, edges)
    except RainbowError as exc:
        with pytest.raises(RainbowError) as info:
            build_graph(n, edges)
        assert type(info.value) is type(exc)
        assert (str(info.value), info.value.position) == (str(exc), exc.position)
        return
    g = build_graph(n, edges)
    normalized = sorted(tuple(e) if e[0] <= e[1] else (e[1], e[0], e[2]) for e in edges)
    adj = _adjacency(n, normalized)
    assert g.edges == tuple(normalized)
    assert [(v, list(nbrs.items())) for v, nbrs in g._adj.items()] == \
        [(v, list(nbrs.items())) for v, nbrs in adj.items()]


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 16), st.integers(1, 5), st.integers(0, 2**32))
def test_the_bulk_check_agrees_with_the_edge_by_edge_reference(n, target, seed):
    # a valid list in random order, then the same list with one fault of each kind
    rnd = random.Random(seed)
    edges = list(random_proper_graph(n, min(target, n - 1), seed).edges)
    rnd.shuffle(edges)
    edges = _as_given(rnd, edges)
    _assert_build_matches_the_reference(n, edges)
    for kind in _FAULT_KINDS:
        _assert_build_matches_the_reference(n, _inject(kind, edges, n, rnd))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 16), st.integers(1, 5), st.integers(0, 2**32))
def test_parse_graph_names_the_fault_the_constructor_names(n, target, seed):
    # the same lists as text, with comment and blank lines between edges;
    # the fields a text cannot hold apart from an int are left out
    rnd = random.Random(seed)
    edges = list(random_proper_graph(n, min(target, n - 1), seed).edges)
    rnd.shuffle(edges)
    for kind in [None, *_FAULT_KINDS]:
        if kind in ("bool", "float", "str", "two fields", "four fields"):
            continue
        given = edges if kind is None else _inject(kind, edges, n, rnd)
        lines, line_of = [f"graph {n} {len(given)}"], []
        for u, v, c in given:
            if rnd.random() < 0.3:
                lines.append(rnd.choice(["", "# c"]))
            lines.append(f"{u} {v} {c}")
            line_of.append(len(lines))
        text = "\n".join(lines)
        try:
            g = build_graph(n, given)
        except RainbowError as exc:
            with pytest.raises(RainbowError) as info:
                parse_graph(text)
            assert type(info.value) is type(exc)
            assert str(info.value) == f"line {line_of[exc.position]}: {exc}"
        else:
            assert parse_graph(text) == g


def test_a_bulk_rejection_the_edge_checks_miss_is_an_internal_fault(monkeypatch):
    monkeypatch.setattr(graphs, "_raise_first_fault", lambda n, edges: None)
    message = "^the bulk edge check rejected edges that pass one by one$"
    with pytest.raises(InternalInvariantBroken, match=message):
        build_graph(3, [(1, 2, 1), (2, 1, 2)])
    with pytest.raises(InternalInvariantBroken, match=message):
        parse_graph("graph 3 2\n1 2 1\n2 3 1\n")


def test_the_build_keeps_only_its_maps_and_stays_near_its_retained_size():
    sq = cyclic_square(96)
    edges = list(to_bipartite_factorization(sq).edges)
    tracemalloc.start()
    try:
        g = build_graph(192, edges)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count == 192 and len(g.edges) == 96 * 96
    assert peak <= 1.3 * retained, (peak, retained)

    # the edge tuples made and dropped around the build go with their
    # list; the graph kept them, 1.38 MiB in all, when it stored its edges
    def build():
        edges = list(to_bipartite_factorization(sq).edges)
        return build_graph(192, edges)

    g, kept = _kept(build)
    assert len(g.edges) == 96 * 96
    assert kept <= 1.0 * 2**20, kept


def test_a_factorization_keeps_only_its_maps():
    # 5.96 MiB when the graph kept a tuple of its edges beside the maps
    sq = cyclic_square(192)
    g, kept = _kept(lambda: to_bipartite_factorization(sq))
    assert g.vertex_count == 384 and len(g.edges) == 192 * 192
    assert kept <= 4.0 * 2**20, kept



def test_equality_hashing_repr_and_immutability_follow_the_edges():
    g = build_graph(4, C4_EDGES)
    same = build_graph(4, [(4, 1, 2), (3, 4, 1), (2, 1, 1), (3, 2, 2)])
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != build_graph(5, C4_EDGES)
    assert g != build_graph(4, C4_EDGES[:3])
    assert g != build_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 3)])
    assert g != C4_EDGES and build_graph(0, []) == rainbowmatch.ColoredGraph(edges=(), vertex_count=0)
    assert repr(g) == ("ColoredGraph(vertex_count=4, edges=((1, 2, 1), (1, 4, 2), "
                       "(2, 3, 2), (3, 4, 1)))")
    assert repr(build_graph(2, [])) == "ColoredGraph(vertex_count=2, edges=())"
    for name, value in (("vertex_count", 5), ("edges", ()), ("_adj", {})):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(g, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(g, name)
    assert g == same and g.vertex_count == 4


def test_edges_are_a_fresh_sorted_normalized_tuple_on_each_read():
    given = [(5, 2, 3), (1, 4, 3), (2, 1, 1), (4, 5, 1), (3, 2, 2), (1, 5, 2)]
    g = build_graph(6, given)
    want = tuple(sorted((min(u, v), max(u, v), c) for u, v, c in given))
    assert g.edges == want and type(g.edges) is tuple
    assert g.edges is not g.edges


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 12), st.integers(0, 2**32))
def test_a_graph_survives_its_edges_and_its_text(n, target, seed):
    g = random_proper_graph(n, min(target, n - 1), seed)
    edges = g.edges
    assert list(edges) == sorted(edges) and all(u < v for u, v, _ in edges)
    assert build_graph(n, edges) == g
    assert build_graph(n, [(v, u, c) for u, v, c in reversed(edges)]) == g
    assert parse_graph(format_graph(g)) == g
    assert hash(parse_graph(format_graph(g))) == hash(g)


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


def test_parse_graph_sorts_the_maps_of_lines_out_of_order():
    g = random_proper_graph(60, 5, 2)
    rng = random.Random(2)
    lines = [f"{v} {u} {c}" if rng.random() < 0.5 else f"{u} {v} {c}" for u, v, c in g.edges]
    rng.shuffle(lines)
    h = parse_graph("\n".join([f"graph 60 {len(lines)}", *lines]))
    assert h == g and h.edges == g.edges
    for v in h.vertices():
        assert list(h.neighbors(v)) == sorted(h.neighbors(v))


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


@pytest.mark.parametrize("text, message", [
    ("graph 2 x\n", "line 1: header counts must be integers"),
    ("graph -1 0\n", "line 1: header counts must be non-negative"),
    ("graph 2 -1\n", "line 1: header counts must be non-negative"),
    ("", "empty input: missing 'graph V E' header"),
    ("# only a comment\n\n", "empty input: missing 'graph V E' header"),
], ids=["non-integer-count", "negative-vertices", "negative-edges", "empty", "comment-only"])
def test_parse_header_messages(text, message):
    with pytest.raises(BadShape) as info:
        parse_graph(text)
    assert type(info.value) is BadShape and str(info.value) == message


# line ends that str.splitlines knows beside "\n"; a text's lines end in
# one of them throughout, or in each in turn ("mixed")
LINE_ENDS = ["\r\n", "\r", "\f", "\x1c", "\u2028"]
LINE_END_CASES = [[end] for end in LINE_ENDS] + [LINE_ENDS]
LINE_END_IDS = ["crlf", "cr", "ff", "fs", "ls", "mixed"]


def _ended(lines, ends) -> str:
    return "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))


_GRAPH_LINES = ["# a graph", "graph 4 {}", "", "1 2 1", "# between", " \t", "2 3 2", "3 4 1"]


@pytest.mark.parametrize("ends", LINE_END_CASES, ids=LINE_END_IDS)
def test_parse_graph_numbers_lines_at_every_line_end(ends):
    def text(edge_count, *more):
        return _ended([*_GRAPH_LINES, *more], ends).replace("{}", str(edge_count))

    assert parse_graph(text(3)) == build_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1)])
    for more, error, message in [
        (("", "# next", "2 4 2"), ImproperColoring, "line 11: color 2 repeated at vertex 2"),
        (("", "# next", "2 x 2"), BadShape, "line 11: expected 'u v c' integers"),
        (("", "# next", "4 4 3"), SelfLoop, "line 11: edge 4-4 is a self-loop"),
        (("", "# next", "1 4 3", "4 1 5"), DuplicateEdge, "line 12: edge 4-1 appears more than once"),
    ]:
        with pytest.raises(error) as info:
            parse_graph(text(3 + len(more) - 2, *more))
        assert type(info.value) is error and str(info.value) == message


def _splitlines_reference(text):
    stripped = ((ln, raw.strip()) for ln, raw in enumerate(text.splitlines(), start=1))
    return [(ln, line) for ln, line in stripped if line and not line.startswith("#")]


def test_content_lines_follow_splitlines_across_a_long_text():
    # line ends of every kind, blank, comment and padded lines, at every
    # offset of a text long enough to be read in several pieces
    rng = random.Random(5)
    ends = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    pieces = []
    for i in range(40000):
        pieces.append(rng.choice(["", " ", "# c", f"{i} {i + 1} 7", f" {i}\t", "x" * rng.randrange(40)]))
        pieces.append(rng.choice(ends))
    text = "".join(pieces)
    expected = _splitlines_reference(text)
    assert len(text) > 300000
    assert list(graphs._content_lines(text)) == expected
    assert list(graphs._content_lines(text + "tail")) == [*expected, (len(text.splitlines()) + 1, "tail")]


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_content_lines_agree_with_splitlines_at_any_slice_size(monkeypatch, size):
    # slices that end between "\r" and "\n", or inside a line longer than a slice
    monkeypatch.setattr(graphs, "_SLICE", size)
    rng = random.Random(size)
    parts = ["a", "bb ", "#", " ", "\r", "\n", "\r\n", "\f", "\u2028", "12 3", "x" * 20]
    for _ in range(300):
        text = "".join(rng.choice(parts) for _ in range(rng.randrange(30)))
        assert list(graphs._content_lines(text)) == _splitlines_reference(text), repr(text)


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


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: find_rainbow_matching_delta(None), "ColoredGraph"),
        (lambda: find_rainbow_matching_layered([]), "ColoredGraph"),
        (lambda: max_rainbow_matching_exact(None), "ColoredGraph"),
        (lambda: min_degree(None), "ColoredGraph"),
        (lambda: format_graph("graph 2 0"), "ColoredGraph"),
        (lambda: validate_rainbow_matching(None, []), "ColoredGraph"),
        (lambda: build_short_cycle_free_transversal(None, 2), "LatinSquare"),
        (lambda: cycle_free_transversal("x"), "LatinSquare"),
        (lambda: max_transversal_exact(None), "LatinSquare"),
        (lambda: max_cyclefree_transversal_exact([[1]], 3), "LatinSquare"),
        (lambda: serialize_latin(None), "LatinSquare"),
        (lambda: to_bipartite_factorization(None), "LatinSquare"),
        (lambda: validate_transversal(build_graph(2, []), []), "LatinSquare"),
        (lambda: cycles_of(None, []), "LatinSquare"),
        (lambda: parse_graph(None), "str"),
        (lambda: parse_latin(b"1\n1\n"), "str"),
        (lambda: max_rainbow_matching_exact(build_graph(2, []), budget=5), "OracleBudget"),
        (lambda: max_transversal_exact(cyclic_square(2), budget=5), "OracleBudget"),
    ],
)
def test_wrong_instance_type_raises_bad_shape(call, expected):
    # these raised AttributeError or TypeError from deep inside the call,
    # or, for cycles_of, returned a decomposition
    with pytest.raises(BadShape, match=f"^expected a {expected}, got "):
        call()


def _good_calls():
    """One call that works for each public callable but the error
    classes, as its positional arguments."""
    sq3, sq5 = cyclic_square(3), cyclic_square(5)
    g = random_proper_graph(9, 3, 1)
    budget = rainbowmatch.OracleBudget()
    return {
        "ColoredGraph": (3, ((1, 2, 1),)),
        "CycleDecomposition": ((), ()),
        "LatinSquare": (((1,),),),
        "OracleBudget": (24, 7, 10_000_000),
        "build_graph": (3, [(1, 2, 1)]),
        "build_short_cycle_free_transversal": (sq5, 2),
        "build_square": ([[1, 2], [2, 1]],),
        "corollary_bound": (5,),
        "cycle_free_transversal": (sq5,),
        "cycles_of": (sq3, [(1, 1, 1)]),
        "cyclic_square": (3,),
        "default_cycle_bound": (5,),
        "find_rainbow_matching_delta": (g,),
        "find_rainbow_matching_layered": (g,),
        "format_graph": (g,),
        "guaranteed_size": (4,),
        "int_kth_root": (27, 3),
        "k4_factorization_pair": (),
        "max_cyclefree_transversal_exact": (sq3, 2, budget),
        "max_rainbow_matching_exact": (build_graph(4, [(1, 2, 1), (3, 4, 2), (1, 3, 3)]), budget),
        "max_transversal_exact": (sq3, budget),
        "min_degree": (g,),
        "parse_graph": ("graph 2 1\n1 2 1\n",),
        "parse_latin": (serialize_latin(sq3),),
        "random_proper_graph": (9, 3, 1),
        "random_square": (4, 1),
        "serialize_latin": (sq3,),
        "split_seed": (1, 2),
        "theorem_bound": (100, 3),
        "to_bipartite_factorization": (sq3,),
        "validate_rainbow_matching": (g, [(1, 2, 1)]),
        "validate_transversal": (sq3, [(1, 1, 1)], 2),
        "witness_square_4": (),
    }


# every public name but the error classes, which take any arguments
_PUBLIC_CALLABLES = sorted(
    name for name in rainbowmatch.__all__
    if not (inspect.isclass(obj := getattr(rainbowmatch, name)) and issubclass(obj, RainbowError))
)
_BAD_VALUES = [None, "x", 1.5, True, -1, [None], [(1,)], 2**80, object()]


def test_every_public_callable_has_a_good_call():
    assert sorted(_good_calls()) == _PUBLIC_CALLABLES


def _assert_each_call_returns_or_raises_a_package_error(func, calls):
    """Call func with each (args, kwargs) of calls: the first, the good
    call, must return, and each other must return or raise a
    RainbowError, each within 1 s and 1 MB."""
    for i, (args, kwargs) in enumerate(calls):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            func(*args, **kwargs)
        except RainbowError:
            assert i > 0
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert elapsed < 1 and peak < 2**20, (args, kwargs, elapsed, peak)


def _parameters(func, *kinds):
    return [p.name for p in inspect.signature(func).parameters.values() if p.kind in kinds]


@pytest.mark.parametrize("name", _PUBLIC_CALLABLES)
def test_each_bad_positional_argument_returns_or_raises_a_package_error(name):
    # the good call, which must return, then each positional parameter in
    # turn replaced by each bad value
    func = getattr(rainbowmatch, name)
    good = _good_calls()[name]
    positional = _parameters(func, inspect.Parameter.POSITIONAL_ONLY,
                             inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert len(good) == len(positional)
    calls = [(good, {})] + [(good[:i] + (bad,) + good[i + 1:], {})
                            for i in range(len(good)) for bad in _BAD_VALUES]
    _assert_each_call_returns_or_raises_a_package_error(func, calls)


_KEYWORD_ONLY_CALLABLES = [
    name for name in _PUBLIC_CALLABLES
    if _parameters(getattr(rainbowmatch, name), inspect.Parameter.KEYWORD_ONLY)
]


def test_the_keyword_only_parameters_are_the_solver_hooks():
    assert {name: _parameters(getattr(rainbowmatch, name), inspect.Parameter.KEYWORD_ONLY)
            for name in _KEYWORD_ONLY_CALLABLES} == {
        "build_short_cycle_free_transversal": ["check", "stats"],
        "cycle_free_transversal": ["check", "stats"],
        "find_rainbow_matching_delta": ["check", "trace"],
        "find_rainbow_matching_layered": ["check", "trace"],
    }


@pytest.mark.parametrize("name", _KEYWORD_ONLY_CALLABLES)
def test_each_bad_keyword_only_argument_returns_or_raises_a_package_error(name):
    # the good call with each keyword-only parameter in turn set to each
    # bad value; check takes any value as a truth value, and a trace that
    # is not callable or stats that are not a dict are refused
    func = getattr(rainbowmatch, name)
    good = _good_calls()[name]
    calls = [(good, {})] + [(good, {keyword: bad})
                            for keyword in _parameters(func, inspect.Parameter.KEYWORD_ONLY)
                            for bad in _BAD_VALUES]
    _assert_each_call_returns_or_raises_a_package_error(func, calls)


@pytest.mark.parametrize(
    "name, keyword, step, message",
    [
        ("find_rainbow_matching_delta", "trace", "delta._advance_level",
         "trace must be None or callable, got str"),
        ("find_rainbow_matching_layered", "trace", "layered._greedy_start",
         "trace must be None or callable, got str"),
        ("build_short_cycle_free_transversal", "stats", "transversal._greedy_init",
         "stats must be None or a dict, got str"),
        ("cycle_free_transversal", "stats", "transversal._greedy_init",
         "stats must be None or a dict, got str"),
    ],
)
def test_a_bad_hook_is_refused_before_the_solve_starts(monkeypatch, name, keyword, step, message):
    def started(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(f"rainbowmatch.{step}", started)
    with pytest.raises(PreconditionViolated, match=f"^{message}$"):
        getattr(rainbowmatch, name)(*_good_calls()[name], **{keyword: "x"})


# the index holds 1-2 and 3-4; each change must leave three edges, and
# most faults come after 3-4 went out and 5-6 or 5-7 went in
_HELD = [(1, 2, 1), (3, 4, 2)]
_OUT = {(3, 4, 2)}


@pytest.mark.parametrize(
    "removed, added, why",
    [
        (set(), [], "2 edges, expected 3"),
        (_OUT, [(5, 6, 3), (5, 6, 3)], "a color is repeated"),
        (_OUT, [(5, 6, 3), (1, 2, 1)], "a color is repeated"),
        (_OUT, [(5, 6, 3), (7, 8, 3)], "a color is repeated"),
        (_OUT, [(5, 7, 1), (9, 10, 4)], "a color is repeated"),
        (_OUT, [(5, 6, 3), (6, 8, 5)], "a vertex is covered twice"),
        (_OUT, [(2, 5, 6), (9, 10, 4)], "a vertex is covered twice"),
        (set(), [(5, 5, 7)], "a vertex is covered twice"),
        (_OUT, [(5, 6, 3), (7, 8, 9)], "edge 7-8 with color 9 is not in the graph"),
    ],
    ids=["size", "listed-twice", "kept-again", "added-color", "kept-color", "added-vertex",
         "kept-vertex", "loop", "not-in-graph"],
)
def test_matching_index_change_leaves_the_index_unchanged_on_a_fault(removed, added, why):
    g = build_graph(10, [(1, 2, 1), (3, 4, 2), (5, 6, 3), (7, 8, 3), (5, 7, 1),
                         (6, 8, 5), (2, 5, 6), (9, 10, 4)])
    index = _MatchingIndex(g)
    index.apply((), _HELD)
    before = (dict(index.color_at), dict(index.edge_of), set(index.edges))
    assert index.change(removed, added) == why
    assert (index.color_at, index.edge_of, index.edges) == before
    assert index.change(_OUT, [(5, 6, 3), (9, 10, 4)]) is None
    assert index.edges == {(1, 2, 1), (5, 6, 3), (9, 10, 4)}
    assert index.color_at == {1: 1, 2: 1, 5: 3, 6: 3, 9: 4, 10: 4}
    assert index.edge_of == {1: (1, 2, 1), 3: (5, 6, 3), 4: (9, 10, 4)}
