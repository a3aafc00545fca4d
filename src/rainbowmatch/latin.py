"""Latin squares, partial transversals and the bipartite graph view.

A Latin square of order n is stored as a tuple of n rows, each a tuple of
n symbols drawn from 1..n with no repeat in any row or column. A partial
transversal is a set of cells, one per row / column / symbol at most.

Cycle structure: a cell (r, c, s) is the arc r -> c, so the walk goes
from a cell to the cell whose row equals the current column. A cell
with r == c is a 1-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadShape, NotLatin, require_cycle_bound, require_type
from .graphs import ColoredGraph, _content_lines, _line_number


@dataclass(frozen=True)
class LatinSquare:
    """A Latin square of order n: rows, n tuples of the symbols 1..n.

    _col_of[r][s] is the column of symbol s in row r, and _row_of[c][s]
    the row of symbol s in column c; each is n + 1 tuples of n + 1 ints,
    0 at every index 0. Both tables hold the ints of one tuple of 1..n,
    so they share one int object per row and column number.

    The build checks the cells row by row, each for its range, then a
    repeat in its row, then in its column, and raises NotLatin for the
    first fault, with the cell's (row, column) as ``cell``.
    """

    rows: tuple[tuple[int, ...], ...]
    _col_of: tuple = field(init=False, repr=False, compare=False)
    _row_of: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:  # tuple() of a tuple is that tuple, so tuple rows are not copied
            rows = tuple(map(tuple, self.rows))
        except TypeError:
            raise BadShape(f"rows must be an iterable of iterable rows, got {type(self.rows).__name__}") from None
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for r, row in enumerate(rows, start=1):
            if len(row) != n:
                raise BadShape(f"row {r} has {len(row)} entries, expected {n}")
            if not set(map(type, row)) <= {int}:  # a bool, float or str fails
                bad = next(s for s in row if type(s) is not int)
                raise BadShape(f"row {r} holds {bad!r}, expected an int")
        # each row's col_of list becomes a tuple once the row is checked,
        # and each row_of list one in place at the end, so no list copy of
        # a table lives beside its tuples
        numbers = tuple(range(1, n + 1))
        col_of = [(0,) * (n + 1)]
        row_of = [[0] * (n + 1) for _ in range(n + 1)]
        try:
            for r, row in zip(numbers, rows):
                cols = [0] * (n + 1)
                for c, s in zip(numbers, row):
                    if not (1 <= s <= n):
                        raise NotLatin(f"cell ({r},{c}) holds {s}, outside 1..{n}")
                    if cols[s]:
                        raise NotLatin(f"symbol {s} repeated in row {r}")
                    column = row_of[c]
                    if column[s]:
                        raise NotLatin(f"symbol {s} repeated in column {c}")
                    cols[s] = c
                    column[s] = r
                col_of.append(tuple(cols))
        except NotLatin as exc:
            exc.cell = (r, c)
            raise
        for c, column in enumerate(row_of):
            row_of[c] = tuple(column)
        object.__setattr__(self, "_col_of", tuple(col_of))
        object.__setattr__(self, "_row_of", tuple(row_of))

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        return self.rows[r - 1][c - 1]

    def col_of(self, r: int, s: int) -> int:
        """Column where symbol s sits in row r."""
        return self._col_of[r][s]

    def row_of(self, c: int, s: int) -> int:
        """Row where symbol s sits in column c."""
        return self._row_of[c][s]


# a transversal cell is (row, col, symbol)
Cell = tuple[int, int, int]


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles and paths of a partial transversal's successor walk."""

    cycles: tuple[tuple[Cell, ...], ...]
    paths: tuple[tuple[Cell, ...], ...]


def build_square(rows) -> LatinSquare:
    return LatinSquare(rows)


def parse_latin(text: str) -> LatinSquare:
    """Parse the Latin-square text format.

    Line 1: order n; then n rows of n symbols. '#' comments and blank
    lines are ignored. Any alphabet of n distinct integers is accepted
    and normalized to 1..n by rank. Each symbol is kept as the first int
    parsed for it, through one dict, and each row as a tuple once read,
    so only the row being read is a list of fresh ints; unless the
    alphabet is already 1..n, each row is then replaced in place by its
    ranks. A repeat is raised again as ``line N: symbol S repeated in
    ...``, naming the file's own symbol and the line of the faulting
    cell's row.
    """
    n: int | None = None
    rows: list = []
    seen: dict = {}  # each symbol parsed so far, mapped to itself
    for ln, line in _content_lines(text):
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise BadShape(f"line {ln}: expected the order alone on the first line")
            try:
                n = int(parts[0])
            except ValueError:
                raise BadShape(f"line {ln}: order must be an integer") from None
            if n < 0:
                raise BadShape(f"line {ln}: order must be non-negative")
            continue
        if len(rows) == n:
            raise BadShape(f"line {ln}: more than {n} rows")
        try:
            row = list(map(int, parts))
        except ValueError:
            raise BadShape(f"line {ln}: row entries must be integers") from None
        if len(row) != n:
            raise BadShape(f"line {ln}: row has {len(row)} entries, expected {n}")
        rows.append(tuple(map(seen.setdefault, row, row)))
    if n is None:
        raise BadShape("empty input: missing order line")
    if len(rows) != n:
        raise BadShape(f"expected {n} rows, found {len(rows)}")
    alphabet = sorted(seen)
    if len(alphabet) != n:
        raise NotLatin(f"found {len(alphabet)} distinct symbols, expected {n}")
    if n and (alphabet[0] != 1 or alphabet[-1] != n):
        rank = {s: i + 1 for i, s in enumerate(alphabet)}
        for i, row in enumerate(rows):
            rows[i] = tuple(map(rank.__getitem__, row))
    try:
        return build_square(rows)
    except NotLatin as exc:
        # ranks are 1..n, so the fault is a repeat: "symbol s repeated in ..."
        r, c = exc.cell
        s = rows[r - 1][c - 1]
        where = str(exc).removeprefix(f"symbol {s} ")
        raise NotLatin(f"line {_line_number(text, r)}: symbol {alphabet[s - 1]} {where}") from None


def serialize_latin(square: LatinSquare) -> str:
    require_type(square, LatinSquare)
    lines = [str(square.order)]
    lines.extend(" ".join(str(s) for s in row) for row in square.rows)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def to_bipartite_factorization(square: LatinSquare) -> ColoredGraph:
    """Complete bipartite view: rows 1..n, columns n+1..2n, edge (r, n+c)
    colored by the symbol in cell (r, c). Symbols are a proper coloring
    because each appears once per row and once per column, which
    LatinSquare has checked, so the graph is built from the rows with no
    second check: row r's map is its columns zipped with its symbols and
    column c's its rows zipped with the column's symbols, each in
    ascending order. The vertex ints are made once and shared by the
    maps."""
    require_type(square, LatinSquare)
    n = square.order
    rows = tuple(range(1, n + 1))
    cols = tuple(range(n + 1, 2 * n + 1))
    adj = {r: dict(zip(cols, row)) for r, row in zip(rows, square.rows)}
    adj.update(zip(cols, (dict(zip(rows, column)) for column in zip(*square.rows))))
    return ColoredGraph._proved(2 * n, adj)


def cycles_of(square: LatinSquare, transversal) -> CycleDecomposition:
    """Split a partial transversal into successor cycles and open paths.

    A cell (r, c, s) points at the cell whose row is c; a cell with
    r == c is a 1-cycle. Paths are walked from the rows no cell points
    at, in ascending order, then cycles from their smallest row. Each
    walk stops at a row already walked, so it ends on any cell list, and
    the paths and cycles together hold each row's last listed cell
    exactly once. The split means something only when rows and columns
    are distinct: then the structure is a disjoint union of simple paths
    and simple cycles. A transversal that is not iterable, a cell that
    is not three fields, or rows that do not compare is BadShape.
    """
    require_type(square, LatinSquare)
    by_row: dict[int, Cell] = {}
    try:
        for cell in transversal:
            r, _, _ = cell
            by_row[r] = cell
        ordered = sorted(by_row)
    except (TypeError, ValueError):
        raise BadShape("transversal is not an iterable of (row, col, symbol) cells") from None
    pointed_at = {c for _, c, _ in by_row.values()}
    starts = [r for r in ordered if r not in pointed_at]
    visited: set[int] = set()
    cycles: list[tuple[Cell, ...]] = []
    paths: list[tuple[Cell, ...]] = []
    for r in starts + ordered:
        walk: list[Cell] = []
        cur = r
        while cur in by_row and cur not in visited:
            cell = by_row[cur]
            walk.append(cell)
            visited.add(cur)
            cur = cell[1]
        if walk:
            # every row left after the path starts is pointed at
            (cycles if r in pointed_at else paths).append(tuple(walk))
    return CycleDecomposition(tuple(cycles), tuple(paths))


def _closes_short_cycle(col_by_row: dict, r: int, c: int, k: float) -> bool:
    """Would cell (r, c) close a successor cycle of length <= k, given the
    row -> column map of the cells already chosen? The walk stops after
    k steps, so k = 0 forbids nothing and math.inf forbids every cycle."""
    cur, length = c, 1
    while cur != r and cur in col_by_row and length <= k:
        cur = col_by_row[cur]
        length += 1
    return cur == r and length <= k


def validate_transversal(
    square: LatinSquare, transversal, forbid_cycles_up_to: float = 0
) -> tuple[bool, str | None]:
    """Check cells exist, rows/columns/symbols are distinct, and - when
    forbid_cycles_up_to is k > 0 (math.inf allowed) - that no successor
    cycle has length <= k. A bound that is not math.inf or an int >= 0
    raises PreconditionViolated.

    The first violation is reported: cells in list order (range, entry,
    then row, column and symbol reuse), then the cycles in ascending
    order of their smallest row."""
    require_type(square, LatinSquare)
    require_cycle_bound(forbid_cycles_up_to)
    try:
        cells = list(transversal)
    except TypeError:
        return False, f"transversal {transversal!r} is not iterable"
    n = square.order
    rows_seen: set[int] = set()
    cols_seen: set[int] = set()
    syms_seen: set[int] = set()
    for cell in cells:
        try:
            r, c, s = cell
            if not (1 <= r <= n and 1 <= c <= n):
                return False, f"cell ({r},{c}) outside the square"
            if square.entry(r, c) != s:
                return False, f"cell ({r},{c}) holds {square.entry(r, c)}, not {s}"
        except (TypeError, ValueError):
            return False, f"cell {cell!r} is not three integers"
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
        for cycle in cycles_of(square, cells).cycles:
            if len(cycle) <= forbid_cycles_up_to:
                return False, f"cycle of length {len(cycle)} through row {cycle[0][0]}"
    return True, None
