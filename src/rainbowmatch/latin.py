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

from .errors import BadShape, NotLatin
from .graphs import ColoredGraph, _content_lines, build_graph


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

    A cell (r, c, s) points at the cell whose row is c; a cell with
    r == c is a 1-cycle. Paths are walked from the rows no cell points
    at, in ascending order, then cycles from their smallest row. Each
    walk stops at a row already walked, so it ends on any cell list, and
    the paths and cycles together hold each row's last listed cell
    exactly once. The split means something only when rows and columns
    are distinct: then the structure is a disjoint union of simple paths
    and simple cycles.
    """
    by_row: dict[int, Cell] = {cell[0]: cell for cell in transversal}
    pointed_at = {cell[1] for cell in by_row.values()}
    ordered = sorted(by_row)
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
    cycle has length <= k.

    The first violation is reported: cells in list order (range, entry,
    then row, column and symbol reuse), then the cycles in ascending
    order of their smallest row."""
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
