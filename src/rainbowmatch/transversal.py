"""Partial transversals of Latin squares avoiding short cycles.

A partial transversal is read as a set of arcs on the vertices 1..n:
cell (r, c, s) is the arc r -> c carrying color s. Distinct rows,
columns and symbols mean out-degrees, in-degrees and colors are all
≤ 1, so the arcs split into simple paths and cycles. The builder
produces a transversal whose cycles all have length > k.

Construction: a greedy pass takes one cell per symbol, skipping any
that closes a cycle of length ≤ k. Then an expansion search tries to
grow the result. A1 holds the path-beginning vertices (unused
columns), B1 the path ends (unused rows). Each layer spends one fresh
symbol: its arcs into the current A-front either land on a B1 vertex
(an augmentation: rerouting along recorded parents yields a bigger
transversal) or mint new B vertices whose successors extend the
A-front. Arcs that would let some selection close a short cycle are
forbidden; the spent symbol is chosen to minimize that loss. When the
symbols run out without an augmentation, counting shows the result
already holds at least n - 6*n^((k-1)/k) cells.

One search state is carried from round to round. An augmentation
rewrites only the rows on its chain and resets what the round added
(the minted B vertices and their arcs, the parent records, the layer
colors it did not keep), so the next round starts where a fresh start
from the bigger transversal would, without an O(order) rebuild.
check=True compares the carried state with a fresh one every round.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields

from .arith import int_kth_root
from .errors import InternalInvariantBroken, PreconditionViolated
from .latin import (
    LatinSquare,
    _closes_short_cycle,
    cycles_of,
    validate_transversal,
)


def theorem_bound(n: int, k: int) -> int:
    """max(0, ceil(n - 6*n^((k-1)/k))) in exact integer arithmetic.

    Once 2^k > n, 6^k > n puts 6*n^((k-1)/k) above n, so a huge k
    gives 0 without the huge powers."""
    if k >= n.bit_length():
        return 0
    return max(0, n - int_kth_root(6**k * n ** (k - 1), k))


def corollary_bound(n: int) -> int:
    """max(0, ceil((1 - 4*lnln(n)/ln(n)) * n)); 0 below n = 3."""
    if n <= 2:
        return 0
    ratio = 1.0 - 4.0 * math.log(math.log(n)) / math.log(n)
    return max(0, math.ceil(ratio * n))


def default_cycle_bound(n: int) -> int:
    """The cycle-length cutoff used by cycle_free_transversal."""
    if n <= 2:
        return 2
    return max(2, int(math.log(n) / (3.0 * math.log(math.log(n)))))


def _greedy_init(square: LatinSquare, k: int) -> list:
    """One cell per symbol, smallest usable row, no cycle of length ≤ k."""
    n = square.order
    col_by_row: dict = {}
    used_cols: set = set()
    cells = []
    for s in range(1, n + 1):
        for r in range(1, n + 1):
            if r in col_by_row:
                continue
            c = square.col_of(r, s)
            if c in used_cols or c == r:
                continue
            if _closes_short_cycle(col_by_row, r, c, k):
                continue
            col_by_row[r] = c
            used_cols.add(c)
            cells.append((r, c, s))
            break
    return sorted(cells)


@dataclass
class TransversalSearchState:
    square: LatinSquare = field(repr=False)
    k: int
    cells: list
    out_map: dict  # row -> (col, symbol) of the current transversal
    a_first: frozenset  # unused columns: path beginnings
    b_first: frozenset  # unused rows: path ends
    a_set: set
    b_set: set
    a_parent: dict = field(default_factory=dict)  # shifted head -> the B vertex behind it
    b_parent: dict = field(default_factory=dict)  # B vertex -> (head it shot at, color)
    arcs_out: dict = field(default_factory=dict)  # v -> [(head, color, from_initial)]
    remaining: list = field(default_factory=list)  # unspent symbols, ascending
    spent: list = field(default_factory=list)  # this round's layer colors, in order


def _start_state(square: LatinSquare, k: int, cells: list) -> TransversalSearchState:
    n = square.order
    out_map = {r: (c, s) for r, c, s in cells}
    used_cols = {c for _, c, _ in cells}
    used_syms = {s for _, _, s in cells}
    arcs_out: dict = {}
    for r, c, s in cells:
        arcs_out.setdefault(r, []).append((c, s, True))
    a_first = frozenset(c for c in range(1, n + 1) if c not in used_cols)
    b_first = frozenset(r for r in range(1, n + 1) if r not in out_map)
    return TransversalSearchState(
        square=square,
        k=k,
        cells=list(cells),
        out_map=out_map,
        a_first=a_first,
        b_first=b_first,
        a_set=set(a_first),
        b_set=set(b_first),
        arcs_out=arcs_out,
        remaining=[s for s in range(1, n + 1) if s not in used_syms],
    )


def _collect_reach(arcs_out: dict, u: int, limit: int, narrow: bool) -> set:
    """Heads of rainbow vertex-simple paths out of u with ≤ limit arcs.

    narrow=True keeps only heads at distance ≥ 2 whose final arc
    belongs to the initial transversal."""
    found: set = set()
    if limit <= 0:
        return found
    on_path = {u}
    used_colors: set = set()

    def walk(vertex: int, depth: int) -> None:
        for head, color, initial in arcs_out.get(vertex, ()):
            if head in on_path or color in used_colors:
                continue
            if not narrow:
                found.add(head)
            elif depth + 1 >= 2 and initial:
                found.add(head)
            if depth + 1 < limit:
                on_path.add(head)
                used_colors.add(color)
                walk(head, depth + 1)
                on_path.discard(head)
                used_colors.discard(color)

    walk(u, 0)
    return found


def _least_forbidden(state: TransversalSearchState, reach: dict, loops: bool) -> tuple:
    """(color, count) for the unspent symbol with the fewest forbidden
    arcs into the A-front, ties to the smallest. Arc v -> u is forbidden
    when v is in reach[u], or v == u with loops; its color is
    entry(v, u), so one pass over the reach sets counts every color."""
    rows = state.square.rows
    count = [0] * (state.square.order + 1)
    for u, heads in reach.items():
        col = u - 1
        if loops:
            count[rows[col][col]] += 1
        for v in heads:
            count[rows[v - 1][col]] += 1
    color = min(state.remaining, key=count.__getitem__)
    return color, count[color]


def choose_color(state: TransversalSearchState) -> tuple:
    """(color, reach): the unspent symbol with the fewest forbidden arcs,
    ties to smallest, and the A-front's reach sets it counted them from,
    u -> heads of rainbow paths out of u with ≤ k-1 arcs."""
    reach = {u: _collect_reach(state.arcs_out, u, state.k - 1, narrow=False) for u in state.a_set}
    return _least_forbidden(state, reach, loops=True)[0], reach


def expand_layer(state: TransversalSearchState, color: int, reach: dict):
    """Shoot the layer's color into the A-front.

    A non-forbidden arc whose tail is an original path end augments and
    is returned as (tail, head); otherwise fresh tails become B vertices,
    their successors join the A-front, and None is returned."""
    minted = []
    for u in sorted(state.a_set):
        v = state.square.row_of(u, color)
        if v == u or v in reach[u]:
            continue
        if v in state.b_first:
            return v, u
        if v in state.b_set:
            continue
        minted.append((v, u))
    for v, u in minted:
        state.b_set.add(v)
        state.b_parent[v] = (u, color)
        state.arcs_out.setdefault(v, []).append((u, color, False))
        successor = state.out_map[v][0]
        state.a_parent[successor] = v
        state.a_set.add(successor)
    return None


def apply_augmentation(state: TransversalSearchState, edge: tuple, color: int) -> None:
    """Reroute along parent records, add the augmenting arc, and carry
    the state into the next round.

    Walking back from the hit vertex, every shifted A-front head hands
    its incoming transversal arc over to the layer arc that minted the
    B vertex behind it; the chain bottoms out at an unused column,
    where the augmenting arc finally lands. Only the chain's rows are
    rewritten, in place in the sorted cell list, and the whole result
    is revalidated. The state then describes the bigger transversal as
    a fresh start would: the chain's end column leaves the path
    beginnings and the augmenting tail the path ends, every minted B
    vertex is back to its one transversal arc, the round's layer colors
    not used on the chain are unspent again and the chain's old symbols
    join them. Apart from the revalidation, this costs O(hops + front),
    not O(order)."""
    v, target = edge  # (tail v in B1, head in the A-front)
    out_map = state.out_map
    moved: dict = {}  # chain row -> its new (col, symbol)
    u = target
    hops = 0
    while u not in state.a_first:
        b = state.a_parent.get(u)
        if b is None or moved.get(b, out_map.get(b, (None,)))[0] != u:
            raise InternalInvariantBroken(f"broken parent chain at vertex {u}")
        moved[b] = state.b_parent[b]
        u = moved[b][0]
        hops += 1
        if hops > state.square.order:
            raise InternalInvariantBroken("parent chain longer than the square's order")
    if v in out_map:
        raise InternalInvariantBroken(f"augmenting tail {v} already has an arc")
    cells = state.cells
    freed = []
    for b, (c, s) in moved.items():
        freed.append(out_map[b][1])
        out_map[b] = (c, s)
        cells[bisect_left(cells, (b,))] = (b, c, s)
    out_map[v] = (target, color)
    insort(cells, (v, target, color))
    ok, why = validate_transversal(state.square, cells, forbid_cycles_up_to=state.k)
    if not ok:
        raise InternalInvariantBroken(f"augmented transversal invalid: {why}")

    used = {s for _, s in moved.values()}
    used.add(color)
    state.remaining = sorted(state.remaining + freed + [s for s in state.spent if s not in used])
    state.a_first = state.a_first - {u}
    state.b_first = state.b_first - {v}
    for b in state.b_parent:
        c, s = out_map[b]
        state.arcs_out[b] = [(c, s, True)]
    state.arcs_out[v] = [(target, color, True)]
    state.a_set = set(state.a_first)
    state.b_set = set(state.b_first)
    state.a_parent = {}
    state.b_parent = {}
    state.spent = []


def _audit_carried_state(state: TransversalSearchState) -> None:
    """The state carried into a round must equal a fresh start from its
    cells, field by field."""
    fresh = _start_state(state.square, state.k, sorted(state.cells))
    for f in fields(TransversalSearchState):
        if getattr(state, f.name) != getattr(fresh, f.name):
            raise InternalInvariantBroken(
                f"carried search state is stale: {f.name} differs from a fresh start"
            )


def _check_color_law(state: TransversalSearchState, layer: int, n: int, t: int) -> None:
    """Pigeonhole law: some unspent symbol has few narrowly-forbidden
    arcs (counting only paths of 2..k-1 arcs ending in an initial arc)."""
    narrow = {u: _collect_reach(state.arcs_out, u, state.k - 1, narrow=True) for u in state.a_set}
    best = _least_forbidden(state, narrow, loops=False)[1]
    total = best * len(state.remaining)
    # layer >= 2 and n > t, so once k-1 reaches total's bit length the law holds
    if state.k - 1 < total.bit_length() and total > state.k * layer ** (state.k - 1) * (n - t):
        raise InternalInvariantBroken(
            f"layer {layer}: every unspent symbol has too many forbidden arcs"
            f" (best {best} of {len(state.remaining)} symbols)"
        )


def _check_growth_law(state: TransversalSearchState, layer: int, n: int, t: int, grew: int) -> None:
    """Early layers must mint at least (n-t)/2 new B vertices."""
    # layer >= 2, so once k-1 reaches the bit length of n-t no layer is early
    if state.k - 1 < (n - t).bit_length() and 4 * state.k * layer ** (state.k - 1) <= n - t:
        if 2 * grew < n - t:
            raise InternalInvariantBroken(
                f"layer {layer}: minted only {grew} vertices, expected at least (n-t)/2"
            )


def _expansion_round(state: TransversalSearchState, check: bool) -> bool:
    """One augmentation attempt. Returns True once the state holds a
    transversal one cell bigger, False when the symbols run out first."""
    if check:
        _audit_carried_state(state)
    n = state.square.order
    t = len(state.cells)
    if t >= n:
        return False
    for layer in range(2, n * n + n + 2):
        if not state.remaining:
            return False
        color, reach = choose_color(state)
        if check:
            _check_color_law(state, layer, n, t)
        state.remaining.remove(color)
        state.spent.append(color)
        before = len(state.b_set)
        edge = expand_layer(state, color, reach)
        if edge is not None:
            apply_augmentation(state, edge, color)
            return True
        if check:
            _check_growth_law(state, layer, n, t, len(state.b_set) - before)
    raise InternalInvariantBroken(f"expansion exceeded {n * n + n} layers")


def build_short_cycle_free_transversal(
    square: LatinSquare, k: int, *, check: bool = False, stats: dict | None = None
) -> tuple:
    """Partial transversal with no cycle of length ≤ k and at least
    theorem_bound(order, k) cells, as sorted (row, col, symbol) cells.

    check=True additionally verifies the layer counting laws on every
    expansion round and compares the carried search state with a fresh
    one. stats (a dict) receives initial, the greedy start's size, and
    augmentations, the expansion rounds that grew it.
    """
    if k < 2:
        raise PreconditionViolated(f"cycle bound must be at least 2, got {k}")
    n = square.order
    state = _start_state(square, k, _greedy_init(square, k))
    initial = len(state.cells)
    augmentations = 0
    while _expansion_round(state, check):
        augmentations += 1
    cells = state.cells
    bound = theorem_bound(n, k)
    if len(cells) < bound:
        raise InternalInvariantBroken(
            f"finished with {len(cells)} cells, guarantee is {bound}"
        )
    ok, why = validate_transversal(square, cells, forbid_cycles_up_to=k)
    if not ok:
        raise InternalInvariantBroken(f"final transversal invalid: {why}")
    if stats is not None:
        stats.update(initial=initial, augmentations=augmentations)
    return tuple(sorted(cells))


def _path_starts(square: LatinSquare, cells: list) -> dict:
    """Map every vertex 1..order to (start of its path, position on it).

    The cells must hold no cycle. A path starts at a vertex no arc
    enters (an unused column) and follows the arcs r -> c; an untouched
    vertex is a path of its own."""
    where = {v: (v, 0) for v in range(1, square.order + 1)}
    for path in cycles_of(square, cells).paths:
        for pos, (_, c, _) in enumerate(path, start=1):
            where[c] = (path[0][0], pos)
    return where


def _free_cells(square: LatinSquare, rows, cols, syms) -> list:
    """Cells of the square in the given rows and columns holding one of the given symbols."""
    found = []
    for r in rows:
        for s in syms:
            c = square.col_of(r, s)
            if c in cols:
                found.append((r, c, s))
    return found


def _find_exchange(square: LatinSquare, cells: list):
    """First move that grows an acyclic transversal by one cell.

    Returns (dropped cell or None, cells to add) or None. 0-for-1 moves
    come first, in ascending order of the added cell; then 1-for-2
    moves, by ascending dropped cell and then ascending pair. An arc
    a -> b joins the path ending at a to the path starting at b, so it
    closes a cycle exactly when a's path starts at b; two new arcs also
    close one when each lands on the start of the other's path."""
    n = square.order
    used_rows = {r for r, _, _ in cells}
    used_cols = {c for _, c, _ in cells}
    used_syms = {s for _, _, s in cells}
    free_rows = [r for r in range(1, n + 1) if r not in used_rows]
    free_cols = {c for c in range(1, n + 1) if c not in used_cols}
    free_syms = [s for s in range(1, n + 1) if s not in used_syms]
    if not free_rows:
        return None
    where = _path_starts(square, cells)
    free = sorted(_free_cells(square, free_rows, free_cols, free_syms))
    for cell in free:
        if where[cell[0]][0] != cell[1]:
            return None, [cell]
    # every free cell closes a cycle now, unless a drop splits its path
    for dropped in sorted(cells):
        r0, c0, s0 = dropped
        split_path, split_pos = where[r0]

        def start_of(v: int) -> int:
            path, pos = where[v]
            return c0 if path == split_path and pos > split_pos else path

        syms = free_syms + [s0]
        freed = (_free_cells(square, [r0], free_cols | {c0}, syms)
                 + _free_cells(square, free_rows, {c0}, syms)
                 + _free_cells(square, free_rows, free_cols, [s0]))
        pool = sorted(
            cell for cell in free + freed
            if cell != dropped and start_of(cell[0]) != cell[1]
        )
        for i, (a1, b1, s1) in enumerate(pool):
            for a2, b2, s2 in pool[i + 1:]:
                if a1 == a2 or b1 == b2 or s1 == s2:
                    continue
                if start_of(a1) == b2 and start_of(a2) == b1:
                    continue
                return dropped, [(a1, b1, s1), (a2, b2, s2)]
    return None


def _exchange_pass(square: LatinSquare, cells: list) -> list:
    """Apply 0-for-1 and 1-for-2 moves until none applies.

    Each move adds one cell, so there are at most order many; each
    result is revalidated with every cycle forbidden before it is kept."""
    while True:
        move = _find_exchange(square, cells)
        if move is None:
            return cells
        dropped, added = move
        grown = sorted([c for c in cells if c != dropped] + added)
        ok, why = validate_transversal(square, grown, forbid_cycles_up_to=math.inf)
        if not ok:
            raise InternalInvariantBroken(f"exchange move {move} invalid: {why}")
        cells = grown


def cycle_free_transversal(
    square: LatinSquare, *, check: bool = False, stats: dict | None = None
) -> tuple:
    """Partial transversal with no cycles at all, which no 0-for-1 or
    1-for-2 exchange can enlarge, as sorted (row, col, symbol) cells.

    Builds a short-cycle-free transversal at the standard cutoff, drops
    the smallest-row cell of each surviving (long) cycle, then adds a
    free cell, or trades one cell for two, while such a move keeps the
    result cycle-free. stats (a dict) receives the builder's counts plus
    cycles_removed."""
    k = default_cycle_bound(square.order)
    cells = build_short_cycle_free_transversal(square, k, check=check, stats=stats)
    cycles = cycles_of(square, cells).cycles  # each leads with its smallest row
    result = _exchange_pass(square, sorted(set(cells) - {cycle[0] for cycle in cycles}))
    ok, why = validate_transversal(square, result, forbid_cycles_up_to=math.inf)
    if not ok:
        raise InternalInvariantBroken(f"cycle-free transversal invalid: {why}")
    if stats is not None:
        stats["cycles_removed"] = len(cycles)
    return tuple(sorted(result))
