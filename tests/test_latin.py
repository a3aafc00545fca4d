"""Latin squares, transversal validation, cycle structure, the bipartite view."""

import itertools
import math
import random
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    BadShape,
    LatinSquare,
    NotLatin,
    PreconditionViolated,
    build_graph,
    build_square,
    cycles_of,
    cyclic_square,
    max_cyclefree_transversal_exact,
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


@pytest.mark.parametrize("make, rows, why", [
    (build_square, [[1.5, 2], [2, 1]], "holds 1.5"),  # int() made this ((1, 2), (2, 1))
    (build_square, [["1", "2"], ["2", "1"]], "holds '1'"),
    (build_square, [["a"]], "holds 'a'"),  # int() raised ValueError
    (LatinSquare, ((1.0,),), "holds 1.0"),  # raised TypeError
    (LatinSquare, None, "got NoneType"),
    (LatinSquare, 5, "got int"),
    (LatinSquare, ((True,),), "holds True"),  # was accepted
], ids=["float", "str-digit", "str", "integral-float", "none", "int", "bool"])
def test_square_entries_must_be_ints(make, rows, why):
    with pytest.raises(BadShape, match=why):
        make(rows)


def test_square_rows_become_tuples():
    assert build_square([[1, 2], [2, 1]]).rows == ((1, 2), (2, 1))
    assert LatinSquare([[1]]) == LatinSquare(((1,),))


def test_serialize_parse_round_trip():
    sq = cyclic_square(5)
    text = serialize_latin(sq)
    assert parse_latin(text).rows == sq.rows


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32))
def test_serialize_parse_round_trip_property(n, seed):
    sq = random_square(n, seed=seed)
    assert parse_latin(serialize_latin(sq)) == sq


def test_serialize_latin_peaks_near_its_text():
    # the row strings and the one joined text; adding the final newline to
    # the join made a third copy and peaked at 3.02x
    sq = cyclic_square(800)
    tracemalloc.start()
    try:
        text = serialize_latin(sq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith(" 799\n") and text.count("\n") == 801
    assert peak < 2.2 * len(text), (peak, len(text))


def test_parse_accepts_comments():
    text = "# a square\n2\n1 2\n2 1\n"
    assert parse_latin(text).rows == ((1, 2), (2, 1))


def test_parse_rejects_row_of_wrong_width():
    with pytest.raises(BadShape):
        parse_latin("3\n1 2\n2 1\n")


@pytest.mark.parametrize("text, message", [
    ("-1\n", "line 1: order must be non-negative"),
    ("2\n1 2\n2 1\n1 2\n", "line 4: more than 2 rows"),
    ("3\n1 2 3\n2 3 1\n", "expected 3 rows, found 2"),
    ("", "empty input: missing order line"),
], ids=["negative-order", "extra-row", "missing-rows", "empty"])
def test_parse_latin_shape_messages(text, message):
    with pytest.raises(BadShape) as info:
        parse_latin(text)
    assert type(info.value) is BadShape and str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("2\n5 5\n7 7\n", "line 2: symbol 5 repeated in row 1"),
    ("2\n10 20\n10 20\n", "line 3: symbol 10 repeated in column 1"),
    # the line counts the comment and blank lines before the faulting row
    ("3\n30 10 20\n# a comment\n\n10 20 20\n20 30 10\n", "line 5: symbol 20 repeated in row 2"),
    ("# order\n3\n7 -4 0\n0 7 -4\n# last row\n7 0 -4\n", "line 6: symbol 7 repeated in column 1"),
], ids=["row", "column", "row-after-comment", "column-after-comment"])
def test_parse_latin_names_the_files_symbol_and_line(text, message):
    with pytest.raises(NotLatin) as info:
        parse_latin(text)
    assert type(info.value) is NotLatin and str(info.value) == message


def test_build_square_names_the_faulting_cell():
    with pytest.raises(NotLatin, match=r"^symbol 2 repeated in column 2$") as info:
        build_square(((1, 2, 3), (3, 2, 1), (2, 3, 1)))
    assert info.value.cell == (2, 2)


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


@pytest.mark.parametrize(
    "k, why",
    [
        ("x", "must be an int or math.inf, got str"),
        (None, "must be an int or math.inf, got NoneType"),
        (True, "must be an int or math.inf, got bool"),
        (1.5, "must be an int or math.inf, got float"),
        (-math.inf, "must be an int or math.inf, got float"),
        (-1, "must be at least 0, got -1"),
    ],
)
def test_a_cycle_bound_is_an_int_of_at_least_0_or_inf(k, why):
    # "x" raised TypeError in both; None and -1 skipped the cycle check of
    # validate_transversal, and True acted as 1
    sq = cyclic_square(3)
    for call in (lambda: validate_transversal(sq, [(1, 1, 1)], k),
                 lambda: max_cyclefree_transversal_exact(sq, k)):
        with pytest.raises(PreconditionViolated, match=f"^cycle bound {why}$"):
            call()
    assert validate_transversal(sq, [(1, 1, 1)], 2**80)[1] == "cycle of length 1 through row 1"
    assert len(max_cyclefree_transversal_exact(sq, 2**80)) == 2


def test_cycles_of_decomposition():
    sq = build_square(WITNESS_ROWS)
    # 1 -> 2 -> 1 is a cycle, 3 -> 4 is a path
    dec = cycles_of(sq, [(1, 2, 2), (2, 1, 2), (3, 4, 2)])
    assert dec.cycles == (((1, 2, 2), (2, 1, 2)),)
    assert dec.paths == (((3, 4, 2),),)


@pytest.mark.parametrize(
    "transversal",
    [None, 5, [(1,)], [(1, 2)], [(1, 2, 2, 9)], [3], [()], [(1,), (1, 2, 3)], [(1, 2, 3), ("a", 2, 3)]],
)
def test_cycles_of_refuses_what_is_not_a_list_of_cells(transversal):
    # None and 5 raised a bare TypeError, (1,) an IndexError, the two-
    # and four-field cells gave a decomposition, as did a bad cell whose
    # row a later cell repeats, and rows that do not compare raised a
    # bare TypeError
    with pytest.raises(BadShape, match="^transversal is not an iterable of"):
        cycles_of(build_square(WITNESS_ROWS), transversal)


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


def _all_squares(n):
    """Every Latin square of order n, as row tuples."""
    perms = list(itertools.permutations(range(1, n + 1)))
    for rows in itertools.product(perms, repeat=n):
        if all(len(set(column)) == n for column in zip(*rows)):
            yield rows


def _shuffled_cyclic_square(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return build_square([[(r + perm[c]) % n + 1 for c in range(n)] for r in range(n)])


def _checked_factorization(square):
    """The bipartite view through the checked ColoredGraph build."""
    n = square.order
    return build_graph(
        2 * n,
        [(r, n + c, s) for r, row in enumerate(square.rows, start=1) for c, s in enumerate(row, start=1)],
    )


def _factorization_squares():
    for n in range(4):
        for rows in _all_squares(n):
            yield build_square(rows)
    for n in range(1, 13):
        for seed in range(2):
            yield random_square(n, seed=seed)
    yield _shuffled_cyclic_square(96, 1)
    yield _shuffled_cyclic_square(131, 2)


def test_all_squares_of_order_at_most_3_are_listed():
    assert [len(list(_all_squares(n))) for n in range(4)] == [1, 1, 2, 12]


def test_the_factorization_equals_the_checked_build():
    # the unchecked build from the rows against the checked build over
    # the same row-major edges
    for sq in _factorization_squares():
        g, want = to_bipartite_factorization(sq), _checked_factorization(sq)
        assert g.vertex_count == want.vertex_count
        assert g.edges == want.edges and type(g.edges) is tuple
        assert g._adj == want._adj
        for v in want.vertices():
            assert list(g.neighbors(v).items()) == list(want.neighbors(v).items())
            assert g.neighbors(v) == want.neighbors(v)


def test_the_factorization_shares_its_vertex_ints():
    # the maps share one int per vertex and no edge tuple is made, so the
    # build peaks below the checked build over freshly made edges (3.45
    # against 7.0 MiB at order 192; 5.98 MiB when the graph kept its edge
    # tuples too, and one new int per edge and map entry peaked at 7.7 MB)
    sq = cyclic_square(192)
    peaks = []
    for build in (to_bipartite_factorization, _checked_factorization):
        tracemalloc.start()
        try:
            g = build(sq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del g
    assert peaks[0] < peaks[1], peaks


def _reference_tables(rows):
    """The per-cell build the LatinSquare tables are checked against:
    list-of-lists tables filled cell by cell in row-major order, each
    cell checked for its range, then a repeat in its row, then in its
    column. Returns (col_of, row_of) as tuples of tuples, or raises
    NotLatin carrying the faulting cell."""
    n = len(rows)
    col_of = [[0] * (n + 1) for _ in range(n + 1)]
    row_of = [[0] * (n + 1) for _ in range(n + 1)]
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            s = rows[r - 1][c - 1]
            try:
                if not (1 <= s <= n):
                    raise NotLatin(f"cell ({r},{c}) holds {s}, outside 1..{n}")
                if col_of[r][s]:
                    raise NotLatin(f"symbol {s} repeated in row {r}")
                if row_of[c][s]:
                    raise NotLatin(f"symbol {s} repeated in column {c}")
            except NotLatin as exc:
                exc.cell = (r, c)
                raise
            col_of[r][s] = c
            row_of[c][s] = r
    return tuple(map(tuple, col_of)), tuple(map(tuple, row_of))


def _tables_or_fault(build, rows):
    try:
        return build(rows)
    except NotLatin as exc:
        return type(exc), str(exc), exc.cell


def _built_tables(rows):
    sq = LatinSquare(rows)
    return sq._col_of, sq._row_of


def _table_squares():
    for n in range(4):
        yield from _all_squares(n)
    for n in range(1, 13):
        yield random_square(n, seed=n).rows
    # both sides of the cached small ints (-5..256)
    for n, seed in ((96, 1), (257, 2), (300, 3)):
        yield _shuffled_cyclic_square(n, seed).rows


def _faulty_copies(rows):
    """Copies of rows with one fault each, at several cells: a symbol out
    of range, a repeat in a row (a column's two cells swapped), a repeat
    in a column (a row's two cells swapped), and both in one row."""
    n = len(rows)
    for r, c in {(0, 0), (0, n - 1), (n // 2, n // 3), (n - 1, 0), (n - 1, n - 1)}:
        r2, c2 = (r + 1) % n, (c + 1) % n
        for bad in (0, n + 1, -7, 10**30):
            grid = [list(row) for row in rows]
            grid[r][c] = bad
            yield grid
        grid = [list(row) for row in rows]
        grid[r][c], grid[r2][c] = grid[r2][c], grid[r][c]
        yield grid
        grid = [list(row) for row in rows]
        grid[r][c], grid[r][c2] = grid[r][c2], grid[r][c]
        yield grid
        grid = [list(row) for row in rows]
        grid[r][c], grid[r][c2] = grid[r][c2], grid[r][c]
        grid[r][(c2 + 1) % n] = grid[r][c]
        yield grid


def test_the_tables_equal_the_per_cell_build():
    for rows in _table_squares():
        assert _built_tables(rows) == _reference_tables(rows)


def test_a_faulty_square_raises_what_the_per_cell_build_raises():
    seen = set()
    for rows in (random_square(7, seed=3).rows, _shuffled_cyclic_square(257, 1).rows):
        for grid in _faulty_copies(rows):
            got = _tables_or_fault(_built_tables, grid)
            assert got == _tables_or_fault(_reference_tables, grid)
            seen.add(got[1].split()[-2] if got[1].startswith("symbol") else "range")
    assert seen == {"range", "row", "column"}


def test_the_tables_share_one_int_per_number():
    # the per-cell build held 13,457 distinct ints in col_of at order 300
    n = 300
    sq = _shuffled_cyclic_square(n, 3)
    for table in (sq._col_of, sq._row_of):
        assert len(set(map(id, itertools.chain.from_iterable(table)))) == n + 1


def test_the_packages_squares_share_one_int_per_symbol():
    # a fresh int per cell above 256 gave 13,456 distinct ints at order 300
    n = 300
    for sq in (cyclic_square(n), parse_latin(serialize_latin(_shuffled_cyclic_square(n, 4)))):
        assert len(set(map(id, itertools.chain.from_iterable(sq.rows)))) == n


def test_the_square_build_peaks_near_what_it_keeps():
    # the rows are made outside the measured region; the per-cell build
    # kept full list-of-lists tables beside the tuples and peaked at 1.59x
    rows = _shuffled_cyclic_square(400, 5).rows
    tracemalloc.start()
    try:
        sq = LatinSquare(rows)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sq.rows == rows
    assert peak <= 1.1 * kept, (peak, kept)


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
