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
from operator import itemgetter

from .errors import BadShape, NotLatin
from .graphs import ColoredGraph, build_graph


@dataclass(frozen=True)
class LatinSquare:
    rows: tuple[tuple[int, ...], ...]
    _col_of: tuple = field(init=False, repr=False, compare=False)
    _row_of: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.rows)
        for r, row in enumerate(self.rows, start=1):
            if len(row) != n:
                raise BadShape(f"row {r} has {len(row)} entries, expected {n}")
        # col_of[r][s] = column of symbol s in row r; row_of[c][s] likewise
        col_of = [[0] * (n + 1) for _ in range(n + 1)]
        row_of = [[0] * (n + 1) for _ in range(n + 1)]
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                s = self.rows[r - 1][c - 1]
                if not (1 <= s <= n):
                    raise NotLatin(f"cell ({r},{c}) holds {s}, outside 1..{n}")
                if col_of[r][s]:
                    raise NotLatin(f"symbol {s} repeated in row {r}")
                if row_of[c][s]:
                    raise NotLatin(f"symbol {s} repeated in column {c}")
                col_of[r][s] = c
                row_of[c][s] = r
        object.__setattr__(self, "_col_of", tuple(tuple(x) for x in col_of))
        object.__setattr__(self, "_row_of", tuple(tuple(x) for x in row_of))

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
    return LatinSquare(tuple(tuple(int(s) for s in row) for row in rows))


def parse_latin(text: str) -> LatinSquare:
    """Parse the Latin-square text format.

    Line 1: order n; then n rows of n symbols. '#' comments and blank
    lines are ignored. Any alphabet of n distinct integers is accepted
    and normalized to 1..n by rank.
    """
    n: int | None = None
    rows: list[list[int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            row = [int(p) for p in parts]
        except ValueError:
            raise BadShape(f"line {ln}: row entries must be integers") from None
        if len(row) != n:
            raise BadShape(f"line {ln}: row has {len(row)} entries, expected {n}")
        rows.append(row)
    if n is None:
        raise BadShape("empty input: missing order line")
    if len(rows) != n:
        raise BadShape(f"expected {n} rows, found {len(rows)}")
    alphabet = sorted({s for row in rows for s in row})
    if len(alphabet) != n and n > 0:
        raise NotLatin(f"found {len(alphabet)} distinct symbols, expected {n}")
    rank = {s: i + 1 for i, s in enumerate(alphabet)}
    return build_square([[rank[s] for s in row] for row in rows])


def serialize_latin(square: LatinSquare) -> str:
    lines = [str(square.order)]
    lines.extend(" ".join(str(s) for s in row) for row in square.rows)
    return "\n".join(lines) + "\n"


def to_bipartite_factorization(square: LatinSquare) -> ColoredGraph:
    """Complete bipartite view: rows 1..n, columns n+1..2n, edge (r, n+c)
    colored by the symbol in cell (r, c). Symbols are a proper coloring
    because each appears once per row and once per column."""
    n = square.order
    edges = [(r, n + c, s) for r, row in enumerate(square.rows, start=1)
             for c, s in enumerate(row, start=1)]
    return build_graph(2 * n, edges)


def cycles_of(square: LatinSquare, transversal) -> CycleDecomposition:
    """Split a partial transversal into successor cycles and open paths.

    A cell (r, c, s) points at the cell whose row is c. Rows and columns
    are distinct within a transversal, so every cell has in- and
    out-degree at most one and the structure is a disjoint union of
    simple paths and simple cycles; a cell with r == c is a 1-cycle.
    Cycles are listed from their smallest row, paths from their start
    row, each group in ascending order of that row.
    """
    by_row: dict[int, Cell] = {cell[0]: cell for cell in transversal}
    pointed_at = {cell[1] for cell in by_row.values() if cell[1] in by_row}
    visited: set[int] = set()
    paths: list[tuple[Cell, ...]] = []
    for r in sorted(by_row):
        if r in pointed_at:
            continue
        walk: list[Cell] = []
        cur = r
        while cur in by_row:
            cell = by_row[cur]
            walk.append(cell)
            visited.add(cur)
            cur = cell[1]
        paths.append(tuple(walk))
    cycles: list[tuple[Cell, ...]] = []
    for r in sorted(by_row):
        if r in visited:
            continue
        # first unvisited row of its cycle is the smallest, so it leads
        walk = []
        cur = r
        while cur not in visited:
            cell = by_row[cur]
            walk.append(cell)
            visited.add(cur)
            cur = cell[1]
        cycles.append(tuple(walk))
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


def _successors(square: LatinSquare, cells: list) -> dict | None:
    """The cells' row -> column map, when every cell lies in the square
    and holds its entry and rows, columns and symbols are all distinct;
    else None. Whole-list passes only. An empty list, or a cell that is
    not three integers, also gives None: it goes to the cell-by-cell
    loop, which words the first violation."""
    grid = square.rows
    try:
        rows = list(map(itemgetter(0), cells))
        cols = list(map(itemgetter(1), cells))
        succ = dict(zip(rows, cols))
        # a row or column above the order makes the entry lookup raise
        # IndexError; one below 1 would wrap around, so it is ruled out
        fit = (
            len(succ) == len(set(cols)) == len(set(map(itemgetter(2), cells))) == len(cells)
            and min(rows) >= 1 and min(cols) >= 1
            and all(grid[r - 1][c - 1] == s for r, c, s in cells)
        )
    except (LookupError, TypeError, ValueError):
        return None
    return succ if fit else None


def validate_transversal(
    square: LatinSquare, transversal, forbid_cycles_up_to: float = 0
) -> tuple[bool, str | None]:
    """Check cells exist, rows/columns/symbols are distinct, and - when
    forbid_cycles_up_to is k > 0 (math.inf allowed) - that no successor
    cycle has length <= k.

    The first violation is reported: cells in list order (range, entry,
    then row, column and symbol reuse), then the cycles in ascending
    order of their smallest row."""
    try:
        cells = list(transversal)
    except TypeError:
        return False, f"transversal {transversal!r} is not iterable"
    succ = _successors(square, cells)
    if succ is None:
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
        succ = {r: c for r, c, _ in cells}
    if forbid_cycles_up_to:
        # columns are distinct, so no walk enters a cycle from outside it:
        # the walk from a cycle's smallest row is the first to touch it
        seen: set[int] = set()
        for start in sorted(succ):
            if start in seen:
                continue
            seen.add(start)
            cur, length = succ[start], 1
            while cur in succ and cur not in seen:
                seen.add(cur)
                cur = succ[cur]
                length += 1
            if cur == start and length <= forbid_cycles_up_to:
                return False, f"cycle of length {length} through row {start}"
    return True, None
