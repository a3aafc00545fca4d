"""Latin squares, transversal validation, cycle structure, the bipartite view."""

import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    BadShape,
    NotLatin,
    build_square,
    cycles_of,
    cyclic_square,
    parse_latin,
    random_square,
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32))
def test_serialize_parse_round_trip_property(n, seed):
    sq = random_square(n, seed=seed)
    assert parse_latin(serialize_latin(sq)) == sq


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


def test_cycles_of_ends_when_a_path_runs_into_a_cycle():
    # column 2 is used twice, so the path from row 1 runs into the cycle
    # 2 -> 3 -> 2; a walk that does not stop at a walked row never ends
    def timed_out(signum, frame):
        raise TimeoutError("cycles_of did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        dec = cycles_of(cyclic_square(3), [(1, 2, 2), (2, 3, 1), (3, 2, 1)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert dec.paths == (((1, 2, 2), (2, 3, 1), (3, 2, 1)),)
    assert dec.cycles == ()


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


def _reference_validate(square, transversal, forbid_cycles_up_to=0):
    """The cell-by-cell loop validate_transversal must agree with."""
    n = square.order
    rows_seen, cols_seen, syms_seen = set(), set(), set()
    cells = list(transversal)
    for r, c, s in cells:
        if not (1 <= r <= n and 1 <= c <= n):
            return False, f"cell ({r},{c}) outside the square"
        if square.entry(r, c) != s:
            return False, f"cell ({r},{c}) holds {square.entry(r, c)}, not {s}"
        if r in rows_seen:
            return False, f"row {r} used twice"
        if c in cols_seen:
            return False, f"column {c} used twice"
        if s in syms_seen:
            return False, f"symbol {s} used twice"
        rows_seen.add(r)
        cols_seen.add(c)
        syms_seen.add(s)
    if forbid_cycles_up_to:
        for cyc in cycles_of(square, cells).cycles:
            if len(cyc) <= forbid_cycles_up_to:
                return False, f"cycle of length {len(cyc)} through row {cyc[0][0]}"
    return True, None


def _reference_cycles(cells):
    """(cycles, paths) of cells with distinct rows and columns, each
    row's successors followed for at most len(cells) steps."""
    by_row = {cell[0]: cell for cell in cells}
    pointed_at = {c for _, c, _ in cells}
    cycles, paths = [], []
    for r in sorted(by_row):
        walk = [by_row[r]]
        for _ in range(len(cells)):
            nxt = walk[-1][1]
            if nxt == r or nxt not in by_row:
                break
            walk.append(by_row[nxt])
        if walk[-1][1] == r:
            if r == min(row for row, _, _ in walk):
                cycles.append(tuple(walk))
        elif r not in pointed_at:
            paths.append(tuple(walk))
    return tuple(cycles), tuple(paths)


CYCLE_CUTOFFS = (0, 1, 2, 3, math.inf)


def _cell(sq, r, c):
    return (r, c, sq.entry(r, c))


def _repeat_row(draw, sq, cells):
    r, _, _ = draw(st.sampled_from(cells))
    return [_cell(sq, r, draw(st.integers(1, sq.order)))]


def _repeat_column(draw, sq, cells):
    _, c, _ = draw(st.sampled_from(cells))
    return [_cell(sq, draw(st.integers(1, sq.order)), c)]


def _repeat_symbol(draw, sq, cells):
    _, _, s = draw(st.sampled_from(cells))
    r = draw(st.integers(1, sq.order))
    return [(r, sq.col_of(r, s), s)]


def _wrong_entry(draw, sq, cells):
    r, c = draw(st.integers(1, sq.order)), draw(st.integers(1, sq.order))
    return [(r, c, sq.entry(r, c) % sq.order + 1)]


def _off_the_square(draw, sq, cells):
    n = sq.order
    edge = draw(st.sampled_from((0, n + 1)))
    inside = draw(st.integers(1, n))
    r, c = draw(st.sampled_from(((edge, inside), (inside, edge), (edge, edge))))
    return [(r, c, draw(st.integers(1, n)))]


def _loop(draw, sq, cells):
    r = draw(st.integers(1, sq.order))
    return [_cell(sq, r, r)]


def _short_cycle(draw, sq, cells):
    length = min(sq.order, draw(st.integers(2, 3)))
    ring = draw(st.permutations(range(1, sq.order + 1)))[:length]
    return [_cell(sq, a, b) for a, b in zip(ring, ring[1:] + ring[:1])]


MUTATIONS = (_repeat_row, _repeat_column, _repeat_symbol, _wrong_entry,
             _off_the_square, _loop, _short_cycle)


@st.composite
def mutated_cell_lists(draw):
    """A square and a cell list: distinct rows and columns from a random
    permutation (so paths, loops and cycles of any length), then up to
    three mutations, each spliced in at a random position."""
    n = draw(st.integers(1, 7))
    sq = random_square(n, seed=draw(st.integers(0, 2**16)))
    perm = draw(st.permutations(range(1, n + 1)))
    rows = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    cells = [_cell(sq, r, perm[r - 1]) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        mutate = draw(st.sampled_from(MUTATIONS))
        inside = [cell for cell in cells if 1 <= min(cell[:2]) <= max(cell[:2]) <= n]
        if not inside and mutate in (_repeat_row, _repeat_column, _repeat_symbol):
            continue
        at = draw(st.integers(0, len(cells)))
        cells[at:at] = mutate(draw, sq, inside)
    return sq, cells


@settings(max_examples=300, deadline=None)
@given(mutated_cell_lists())
def test_validate_transversal_matches_the_reference_loop(case):
    sq, cells = case
    for cutoff in CYCLE_CUTOFFS:
        assert (validate_transversal(sq, cells, forbid_cycles_up_to=cutoff)
                == _reference_validate(sq, cells, cutoff))
        assert (validate_transversal(sq, iter(cells), forbid_cycles_up_to=cutoff)
                == _reference_validate(sq, cells, cutoff))


@settings(max_examples=300, deadline=None)
@given(mutated_cell_lists())
def test_cycles_of_holds_each_row_once(case):
    sq, cells = case
    dec = cycles_of(sq, cells)
    listed = [cell for group in dec.paths + dec.cycles for cell in group]
    assert sorted(listed) == sorted({cell[0]: cell for cell in cells}.values())
    if len({r for r, _, _ in cells}) == len({c for _, c, _ in cells}) == len(cells):
        assert (dec.cycles, dec.paths) == _reference_cycles(cells)


def test_validate_transversal_reports_the_first_violation():
    sq = build_square(WITNESS_ROWS)
    # cell by cell: range, then entry, then row, column and symbol reuse
    assert validate_transversal(sq, [(1, 2, 2), (0, 1, 1), (1, 3, 3)]) == (
        False, "cell (0,1) outside the square")
    assert validate_transversal(sq, [(1, 2, 2), (1, 3, 3), (0, 1, 1)]) == (
        False, "row 1 used twice")
    assert validate_transversal(sq, [(2, 2, 3), (1, 2, 2), (5, 5, 1)]) == (
        False, "cell (2,2) holds 1, not 3")
    assert validate_transversal(sq, [(1, 2, 2), (3, 2, 4), (2, 1, 2)]) == (
        False, "column 2 used twice")
    assert validate_transversal(sq, [(1, 2, 2), (2, 1, 2)]) == (False, "symbol 2 used twice")
    # a repeat ends the check before any cycle is looked at
    assert validate_transversal(sq, [(1, 1, 1), (2, 2, 1)], forbid_cycles_up_to=2) == (
        False, "symbol 1 used twice")
    # cycles come after every cell check, led by their smallest row; the
    # first one short enough wins, wherever its cells are listed
    sq = build_square([[(2 * r + c) % 5 + 1 for c in range(5)] for r in range(5)])
    cycles = [(3, 5, 4), (5, 3, 1), (4, 4, 5)]
    assert validate_transversal(sq, cycles) == (True, None)
    assert validate_transversal(sq, cycles, forbid_cycles_up_to=1) == (
        False, "cycle of length 1 through row 4")
    assert validate_transversal(sq, cycles, forbid_cycles_up_to=2) == (
        False, "cycle of length 2 through row 3")
    assert validate_transversal(sq, cycles + [(1, 2, 2), (2, 1, 3)], forbid_cycles_up_to=2) == (
        False, "cycle of length 2 through row 1")
