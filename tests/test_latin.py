"""Latin squares, transversal validation, cycle structure, the bipartite view."""

import math

import pytest

from rainbowmatch import (
    BadShape,
    NotLatin,
    build_square,
    cycles_of,
    cyclic_square,
    parse_latin,
    serialize_latin,
    to_bipartite_factorization,
    validate_transversal,
)

# rows of a 4x4 square whose full transversals all contain a cycle
WITNESS_ROWS = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def test_build_square_accessors():
    sq = build_square(WITNESS_ROWS)
    assert sq.order == 4
    assert sq.entry(2, 3) == 4
    assert sq.col_of(2, 4) == 3
    assert sq.row_of(3, 4) == 2


def test_build_square_rejects_row_duplicate():
    with pytest.raises(NotLatin):
        build_square(((1, 1), (2, 2)))


def test_build_square_rejects_column_duplicate():
    with pytest.raises(NotLatin):
        build_square(((1, 2), (1, 2)))


def test_build_square_rejects_ragged_input():
    with pytest.raises(BadShape):
        build_square(((1, 2), (2,)))


def test_build_square_rejects_out_of_range_symbol():
    with pytest.raises(NotLatin):
        build_square(((1, 3), (3, 1)))


def test_serialize_parse_round_trip():
    sq = cyclic_square(5)
    text = serialize_latin(sq)
    assert parse_latin(text).rows == sq.rows


def test_parse_accepts_comments():
    text = "# a square\n2\n1 2\n2 1\n"
    assert parse_latin(text).rows == ((1, 2), (2, 1))


def test_parse_rejects_row_of_wrong_width():
    with pytest.raises(BadShape):
        parse_latin("3\n1 2\n2 1\n")


def test_validate_transversal_accepts_partial():
    sq = build_square(WITNESS_ROWS)
    ok, why = validate_transversal(sq, [(1, 2, 2), (2, 3, 4)])
    assert ok and why is None


def test_validate_transversal_rejects_row_reuse():
    sq = build_square(WITNESS_ROWS)
    ok, why = validate_transversal(sq, [(1, 2, 2), (1, 3, 3)])
    assert not ok and "row" in why


def test_validate_transversal_rejects_column_reuse():
    sq = build_square(WITNESS_ROWS)
    ok, why = validate_transversal(sq, [(1, 2, 2), (3, 2, 4)])
    assert not ok and "column" in why


def test_validate_transversal_rejects_symbol_reuse():
    sq = build_square(WITNESS_ROWS)
    ok, why = validate_transversal(sq, [(1, 1, 1), (2, 2, 1)])
    assert not ok and "symbol" in why


def test_validate_transversal_rejects_wrong_entry():
    sq = build_square(WITNESS_ROWS)
    ok, why = validate_transversal(sq, [(1, 2, 3)])
    assert not ok


def test_validate_transversal_cycle_thresholds():
    sq = build_square(WITNESS_ROWS)
    path = [(1, 2, 2), (2, 3, 4)]  # 1 -> 2 -> 3, no cycle
    ok, _ = validate_transversal(sq, path, forbid_cycles_up_to=2)
    assert ok
    loop = [(1, 1, 1)]
    ok, why = validate_transversal(sq, loop, forbid_cycles_up_to=2)
    assert not ok and "cycle" in why
    ok, _ = validate_transversal(sq, loop, forbid_cycles_up_to=0)
    assert ok  # cycles allowed when the threshold is 0


def test_cycles_of_decomposition():
    sq = build_square(WITNESS_ROWS)
    # 1 -> 2 -> 1 is a cycle, 3 -> 4 is a path
    dec = cycles_of(sq, [(1, 2, 2), (2, 1, 2), (3, 4, 2)])
    assert dec.cycles == (((1, 2, 2), (2, 1, 2)),)
    assert dec.paths == (((3, 4, 2),),)


def test_cycles_of_leads_each_cycle_with_smallest_row():
    sq = cyclic_square(3)
    # full transversal of the cyclic square: one 3-cycle
    cells = [(r, c, sq.entry(r, c)) for r, c in ((1, 2), (2, 3), (3, 1))]
    dec = cycles_of(sq, cells)
    assert dec.paths == ()
    assert len(dec.cycles) == 1
    assert dec.cycles[0][0][0] == 1


def test_cycles_of_counts_loops():
    sq = build_square(WITNESS_ROWS)
    dec = cycles_of(sq, [(1, 1, 1), (2, 3, 4)])
    assert dec.cycles == (((1, 1, 1),),)
    assert dec.paths == (((2, 3, 4),),)


def test_bipartite_factorization_shape():
    sq = cyclic_square(4)
    g = to_bipartite_factorization(sq)
    assert g.vertex_count == 8
    assert len(g.edges) == 16
    # proper n-coloring: each vertex sees each symbol exactly once
    for v in range(1, 5):
        assert sorted(g.color_of(v, w) for w in g.neighbors(v)) == [1, 2, 3, 4]


def test_validate_transversal_strictest_setting_accepts_paths():
    sq = build_square(WITNESS_ROWS)
    ok, _ = validate_transversal(sq, [(1, 2, 2), (2, 3, 4)], forbid_cycles_up_to=math.inf)
    assert ok
