"""Partial transversals of Latin squares avoiding short cycles.

A partial transversal is read as a set of arcs on the vertices 1..n:
cell (r, c, s) is the arc r -> c carrying color s. Distinct rows,
columns and symbols mean out-degrees, in-degrees and colors are all
≤ 1, so the arcs split into simple paths and cycles. The builder
produces a transversal whose cycles all have length > k.

Construction: a greedy pass takes one cell per symbol, skipping any
that closes a cycle of length ≤ k. Then an expansion search tries to
grow the result. A1 holds the path-beginning vertices (unused
columns), B1 the path ends (rows without a cell). Each layer spends
one fresh symbol: its arcs into the current A-front either land on a
B1 vertex (an augmentation: rerouting along recorded parents yields a
bigger transversal) or mint new B vertices whose successors extend
the A-front. Arcs that would let some selection close a short cycle
are forbidden; the spent symbol is chosen to minimize that loss. When
the symbols run out without an augmentation, counting shows the
result already holds at least n - 6*n^((k-1)/k) cells.

One search state is carried from round to round. It holds each fact
once: B1 is the rows missing from the row -> (column, symbol) map,
the minted B vertices are the keys of their parent records, which
hold their layer arcs, and the A-front is the keys of the reach sets
below. An augmentation rewrites only the rows on its chain and resets
what the round added (the parent records, the layer colors it did
not keep), so the next round starts where a fresh start from the
bigger transversal would, without an O(order) rebuild. Each
augmentation checks only the rows it rewrote against the carried used
columns and symbols, and for cycles of length ≤ k through them; the
whole result is validated once, at the end.

The state also carries each front vertex's reach set (the tails of
its forbidden arcs) and the forbidden-arc count of every symbol over
the front. A walk of k-1 arcs reads only the arcs out of the vertices
it reaches within k-2, all of them in its reach set, so a layer walks
only its new successors and the front vertices whose set holds a row
the last layer minted an arc at. At k = 2 a walk is one arc long, and
the layer adds each minted head to its tail's set and count itself.
The stale front is walked in one batch, which reads walks of one or
two arcs (k = 2 and 3) in place. The counts at the round's start are
kept as a copy, and so is each path beginning's set when a layer
first changes it; an augmentation puts those back, drops the
successors and the chain's end column, and walks again only the path
beginnings whose set holds a rewritten row.

check=True also validates the whole transversal and compares the
carried state with a fresh one after every augmentation, and the
carried reach sets and counts with a fresh walk of the front at every
layer. That walk is the depth-first search of _collect_reach at every
k, so it checks the in-place readings against an independent walk.

The cycle-free variant drops one cell of each long cycle the builder
leaves and then adds cells by 0-for-1 and 1-for-2 exchanges. Each
search indexes the free cells once, so a dropped cell reads the cells
it frees in O(1). The moves are revalidated one by one only under
check=True; the whole result always is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .arith import int_kth_root
from .errors import InternalInvariantBroken, require_int, require_stats, require_type
from .latin import (
    LatinSquare,
    _closes_short_cycle,
    cycles_of,
    validate_transversal,
)


def theorem_bound(n: int, k: int) -> int:
    """max(0, ceil(n - 6*n^((k-1)/k))) in exact integer arithmetic, for
    an int n ≥ 0 and an int k ≥ 2 (PreconditionViolated otherwise).

    Once 2^k > n, 6^k > n puts 6*n^((k-1)/k) above n, so a huge k
    gives 0 without the huge powers."""
    require_int("order", n, 0)
    require_int("cycle bound", k, 2)
    if k >= n.bit_length():
        return 0
    return max(0, n - int_kth_root(6**k * n ** (k - 1), k))


def corollary_bound(n: int) -> int:
    """max(0, ceil((1 - 4*lnln(n)/ln(n)) * n)); 0 below n = 3. An order
    that is not an int ≥ 0 is a PreconditionViolated."""
    require_int("order", n, 0)
    if n <= 2:
        return 0
    ratio = 1.0 - 4.0 * math.log(math.log(n)) / math.log(n)
    return max(0, math.ceil(ratio * n))


def default_cycle_bound(n: int) -> int:
    """The cycle-length cutoff used by cycle_free_transversal, for an
    int order n ≥ 0 (PreconditionViolated otherwise)."""
    require_int("order", n, 0)
    if n <= 2:
        return 2
    return max(2, int(math.log(n) / (3.0 * math.log(math.log(n)))))


def _greedy_init(square: LatinSquare, k: int) -> list:
    """One cell per symbol, smallest usable row, no cycle of length ≤ k."""
    col_of = square._col_of
    free = list(range(1, square.order + 1))  # rows without a cell, ascending
    col_by_row: dict = {}
    used_cols: set = set()
    cells = []
    for s in range(1, square.order + 1):
        for i, r in enumerate(free):
            c = col_of[r][s]
            if c in used_cols or c == r or _closes_short_cycle(col_by_row, r, c, k):
                continue
            col_by_row[r] = c
            used_cols.add(c)
            cells.append((r, c, s))
            del free[i]
            break
    return sorted(cells)


@dataclass
class TransversalSearchState:
    square: LatinSquare = field(repr=False)
    k: int
    out_map: dict  # row -> (col, symbol) of the current transversal; rows absent are path ends
    used_cols: set  # columns of the current transversal
    used_syms: set  # symbols of the current transversal
    a_first: frozenset  # unused columns: path beginnings
    a_parent: dict = field(default_factory=dict)  # shifted head -> the B vertex behind it
    b_parent: dict = field(default_factory=dict)  # minted B vertex -> (head it shot at, color)
    remaining: list = field(default_factory=list)  # unspent symbols, ascending
    spent: list = field(default_factory=list)  # this round's layer colors, in order
    reach: dict = field(default_factory=dict)  # front vertex u -> tails of its forbidden arcs
    count: list = field(default_factory=list)  # symbol -> forbidden arcs into the front
    round_count: list = field(default_factory=list)  # count as the round started
    round_reach: dict = field(default_factory=dict)  # path beginning -> reach as the round started
    stale: set = field(default_factory=set)  # front vertices whose reach needs a walk


def _start_state(square: LatinSquare, k: int, cells: list) -> TransversalSearchState:
    n = square.order
    out_map = {r: (c, s) for r, c, s in cells}
    used_cols = {c for _, c, _ in cells}
    used_syms = {s for _, _, s in cells}
    a_first = frozenset(c for c in range(1, n + 1) if c not in used_cols)
    state = TransversalSearchState(
        square=square,
        k=k,
        out_map=out_map,
        used_cols=used_cols,
        used_syms=used_syms,
        a_first=a_first,
        remaining=[s for s in range(1, n + 1) if s not in used_syms],
        count=[0] * (n + 1),
    )
    _rewalk(state, a_first)
    state.round_count = list(state.count)
    return state


def _cells(state: TransversalSearchState) -> list:
    """The current transversal as sorted (row, col, symbol) cells."""
    return sorted((r, c, s) for r, (c, s) in state.out_map.items())


def _collect_reach(out_map: dict, b_parent: dict, u: int, limit: int, narrow: bool) -> set:
    """Heads of rainbow vertex-simple paths out of u with ≤ limit arcs.

    A vertex v's arcs are (head, color) pairs: its cell out_map[v], then
    the layer arc b_parent[v] that minted it. narrow=True keeps only
    heads at distance ≥ 2 whose final arc is a cell. The walk goes
    depth-first on an explicit stack, so no path length meets the
    recursion limit. The builder reads its own walks of one or two arcs
    in place (_rewalk); this walk serves longer ones, the narrow walks
    of the color law and the check=True comparison of the front."""
    found: set = set()
    if limit <= 0:
        return found
    arc_maps = (out_map, b_parent)
    on_path = {u}
    used_colors: set = set()
    stack = [(u, 0, iter(arc_maps))]  # (vertex, color of the arc into it, maps left to read)
    while stack:
        tail, _, maps = stack[-1]
        for arcs in maps:
            arc = arcs.get(tail)
            if arc is None:
                continue
            head, color = arc
            if head in on_path or color in used_colors:
                continue
            depth = len(stack)  # arcs from u to head
            if not narrow or (arcs is out_map and depth >= 2):
                found.add(head)
            if depth < limit:
                on_path.add(head)
                used_colors.add(color)
                stack.append((head, color, iter(arc_maps)))
                break
        else:
            _, color, _ = stack.pop()  # popping u ends the walk
            on_path.discard(tail)
            used_colors.discard(color)
    return found


def _forbidden_tails(out_map: dict, b_parent: dict, u: int, k: int) -> set:
    """u and the heads of rainbow paths out of u with ≤ k-1 arcs: the
    tails v whose arc v -> u could close a cycle of length ≤ k."""
    tails = _collect_reach(out_map, b_parent, u, k - 1, narrow=False)
    tails.add(u)
    return tails


def _tally(square: LatinSquare, reach: dict) -> list:
    """count[s] = the arcs v -> u in symbol s with v in reach[u]; the
    color of that arc is entry(v, u), so one pass counts every symbol."""
    rows = square.rows
    count = [0] * (square.order + 1)
    for u, tails in reach.items():
        col = u - 1
        for v in tails:
            count[rows[v - 1][col]] += 1
    return count


def _least_forbidden(state: TransversalSearchState, reach: dict) -> tuple:
    """(color, count) for the unspent symbol with the fewest arcs v -> u
    into the A-front with v in reach[u], ties to the smallest."""
    count = _tally(state.square, reach)
    color = min(state.remaining, key=count.__getitem__)
    return color, count[color]


def _readers(state: TransversalSearchState, rows) -> list:
    """The front vertices whose walk may read the arcs out of one of
    rows. A walk of k-1 arcs reads the arcs of the vertices it reaches
    within k-2, all in its reach set; at k = 2 only its own (only
    apply_augmentation asks at k = 2)."""
    if state.k == 2:
        return [w for w in rows if w in state.reach]
    return [w for w, tails in state.reach.items() if not tails.isdisjoint(rows)]


def _rewalk(state: TransversalSearchState, vertices) -> None:
    """Walk the forbidden tails of each of vertices again and move its
    counts from its old set, if any, to the new one. Walks of one or two
    arcs (k = 2 and 3) are read in place: u, the heads of u's arcs and,
    at k = 3, the heads of their arcs in another color; a loop, or an
    arc back to u, leads only to a vertex already in the set. Longer
    walks go through _forbidden_tails."""
    out_map, b_parent, reach, count = state.out_map, state.b_parent, state.reach, state.count
    rows, k = state.square.rows, state.k
    for u in vertices:
        if k > 3:
            tails = _forbidden_tails(out_map, b_parent, u, k)
        else:
            tails = {u}
            for arc in (out_map.get(u), b_parent.get(u)):
                if arc is None:
                    continue
                head, color = arc
                tails.add(head)
                if k == 3:
                    for far in (out_map.get(head), b_parent.get(head)):
                        if far is not None and far[1] != color:
                            tails.add(far[0])
        col = u - 1
        old = reach.get(u)
        gained = tails
        if old is not None:
            for v in old - tails:
                count[rows[v - 1][col]] -= 1
            gained = tails - old
        for v in gained:
            count[rows[v - 1][col]] += 1
        reach[u] = tails


def choose_color(state: TransversalSearchState) -> int:
    """The unspent symbol with the fewest forbidden arcs into the
    A-front, ties to smallest. Afterwards the keys of state.reach are
    the front.

    Only the stale front vertices are walked again, in one batch: the
    successors the last layer added and the vertices whose walk read a
    row it minted an arc at. A path beginning's first new walk in a
    round keeps its old set in round_reach, for apply_augmentation to
    put back."""
    reach, round_reach = state.reach, state.round_reach
    for u in state.a_first.intersection(state.stale):
        round_reach.setdefault(u, reach[u])
    _rewalk(state, state.stale)
    state.stale = set()
    return min(state.remaining, key=state.count.__getitem__)


def expand_layer(state: TransversalSearchState, color: int):
    """Shoot the layer's color into the A-front, the keys of state.reach.

    A non-forbidden arc whose tail is a path end (a row missing from
    out_map) augments and is returned as (tail, head); otherwise fresh
    tails become B vertices, their successors join the A-front, and
    None is returned. The new successors have no walk, and so no key
    in state.reach, until choose_color walks them. At k = 2 a walk is one arc long, so a
    minted arc v -> u only adds u to v's set, when v is on the front,
    and one to the count of entry(u, v); a path beginning's set is
    copied into round_reach first. At k ≥ 3 the minted arcs make stale
    the front vertices whose walk read their tails."""
    row_of, out_map, reach = state.square._row_of, state.out_map, state.reach
    b_parent = state.b_parent
    minted = []
    for u in sorted(reach):
        v = row_of[u][color]
        if v in reach[u]:
            continue
        if v not in out_map:
            return v, u
        if v in b_parent:
            continue
        minted.append((v, u))
    if state.k == 2:
        # v had only its transversal arc, into a column off the front,
        # so u is not in its set yet
        rows, count = state.square.rows, state.count
        for v, u in minted:
            tails = reach.get(v)
            if tails is None:
                continue
            if v in state.a_first and v not in state.round_reach:
                state.round_reach[v] = set(tails)
            tails.add(u)
            count[rows[u - 1][v - 1]] += 1
    elif minted:
        state.stale.update(_readers(state, {v for v, _ in minted}))
    for v, u in minted:
        b_parent[v] = (u, color)
        successor = out_map[v][0]
        state.a_parent[successor] = v
        state.stale.add(successor)
    return None


def _rewrite_fault(state: TransversalSearchState, rewritten: dict, old: dict) -> str | None:
    """The first violation that rewriting some rows brought into the
    transversal, or None.

    rewritten maps each rewritten row to its new (col, symbol), already
    in out_map; old maps each row that had a cell to its previous one.
    The cells were a valid transversal before, so a new clash or short
    cycle involves a rewritten row: each must hold its square entry,
    take a column and a symbol that no other cell uses, and close no
    cycle within k arcs. Costs O(k) per rewritten row."""
    grid = state.square.rows
    freed_cols = {c for c, _ in old.values()}
    freed_syms = {s for _, s in old.values()}
    taken_cols: set = set()
    taken_syms: set = set()
    for r, (c, s) in rewritten.items():
        if c in taken_cols or (c in state.used_cols and c not in freed_cols):
            return f"column {c} used twice"
        if grid[r - 1][c - 1] != s:
            return f"cell ({r},{c}) holds {grid[r - 1][c - 1]}, not {s}"
        if s in taken_syms or (s in state.used_syms and s not in freed_syms):
            return f"symbol {s} used twice"
        taken_cols.add(c)
        taken_syms.add(s)
    out_map = state.out_map
    for r, (c, _) in rewritten.items():
        cur, length = c, 1
        while cur != r and cur in out_map and length <= state.k:
            cur = out_map[cur][0]
            length += 1
        if cur == r and length <= state.k:
            return f"cycle of length {length} through row {r}"
    return None


def apply_augmentation(state: TransversalSearchState, edge: tuple, color: int) -> None:
    """Reroute along parent records, add the augmenting arc, and carry
    the state into the next round.

    Walking back from the hit vertex, every shifted A-front head hands
    its incoming transversal arc over to the layer arc that minted the
    B vertex behind it; the chain bottoms out at an unused column,
    where the augmenting arc finally lands. Only the chain's rows are
    rewritten in out_map, and only they and the augmenting arc are
    checked (_rewrite_fault). The state then describes the bigger
    transversal as a fresh start would: the chain's end column leaves
    the path beginnings and the augmenting tail gets a row in out_map,
    the parent records, and with them the layer arcs, are dropped, the
    round's layer colors not used on the chain are unspent again and
    the chain's old symbols join them. The reach sets and counts go
    back to the round's start, lose the chain's end column and the
    successors, and are walked again only for the path beginnings whose
    set holds a rewritten row. All this costs O(k * hops + path
    beginnings + successors + unspent symbols + order) plus those
    walks, with the O(order) part one list copy of the counts."""
    v, target = edge  # (tail v in B1, head in the A-front)
    out_map = state.out_map
    moved: dict = {}  # chain row, then the augmenting tail -> its new (col, symbol)
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
    old = {b: out_map[b] for b in moved}
    out_map.update(moved)
    out_map[v] = moved[v] = (target, color)
    why = _rewrite_fault(state, moved, old)
    if why is not None:
        raise InternalInvariantBroken(f"augmented transversal invalid: {why}")

    freed = [s for _, s in old.values()]
    used = {s for _, s in moved.values()}
    state.used_cols.add(u)
    state.used_syms.difference_update(freed)
    state.used_syms.update(used)
    state.remaining = sorted(state.remaining + freed + [s for s in state.spent if s not in used])
    state.a_first = state.a_first - {u}
    # the round's start sets and counts, without the successors and u,
    # then, with no layer arc left, new walks where a rewritten row was read
    reach = state.reach
    for w in state.a_parent:
        del reach[w]
    reach.update(state.round_reach)
    state.count = count = state.round_count
    state.a_parent = {}
    state.b_parent = {}
    rows = state.square.rows
    for x in reach.pop(u):
        count[rows[x - 1][u - 1]] -= 1
    _rewalk(state, _readers(state, moved))
    state.round_count = list(count)
    state.round_reach = {}
    state.spent = []


def _audit_carried_state(state: TransversalSearchState) -> None:
    """The state carried into a round must equal a fresh start from its
    cells, field by field."""
    fresh = _start_state(state.square, state.k, _cells(state))
    for f in fields(TransversalSearchState):
        if getattr(state, f.name) != getattr(fresh, f.name):
            raise InternalInvariantBroken(
                f"carried search state is stale: {f.name} differs from a fresh start"
            )


def _audit_front(state: TransversalSearchState, layer: int) -> None:
    """The reach sets and counts choose_color carried must equal a fresh
    walk of the whole A-front."""
    front = state.a_first | state.a_parent.keys()  # independent of reach's keys
    fresh = {u: _forbidden_tails(state.out_map, state.b_parent, u, state.k) for u in front}
    for u in sorted(fresh.keys() | state.reach.keys()):
        if state.reach.get(u) != fresh.get(u):
            raise InternalInvariantBroken(
                f"layer {layer}: carried reach of vertex {u} differs from a fresh walk of the front"
            )
    for s, (carried, walked) in enumerate(zip(state.count, _tally(state.square, fresh))):
        if carried != walked:
            raise InternalInvariantBroken(
                f"layer {layer}: carried count of symbol {s} is {carried}, a fresh walk gives {walked}"
            )


def _check_color_law(state: TransversalSearchState, layer: int, n: int, t: int) -> None:
    """Pigeonhole law: some unspent symbol has few narrowly-forbidden
    arcs (counting only paths of 2..k-1 arcs ending in a cell)."""
    narrow = {u: _collect_reach(state.out_map, state.b_parent, u, state.k - 1, narrow=True)
              for u in state.reach}
    best = _least_forbidden(state, narrow)[1]
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
    n = state.square.order
    t = len(state.out_map)
    if t >= n:
        return False
    for layer in range(2, n * n + n + 2):
        if not state.remaining:
            return False
        color = choose_color(state)
        if check:
            _audit_front(state, layer)
            _check_color_law(state, layer, n, t)
        state.remaining.remove(color)
        state.spent.append(color)
        before = len(state.b_parent)
        edge = expand_layer(state, color)
        if edge is not None:
            apply_augmentation(state, edge, color)
            if check:
                ok, why = validate_transversal(state.square, _cells(state), forbid_cycles_up_to=state.k)
                if not ok:
                    raise InternalInvariantBroken(f"augmented transversal invalid: {why}")
                _audit_carried_state(state)
            return True
        if check:
            _check_growth_law(state, layer, n, t, len(state.b_parent) - before)
    raise InternalInvariantBroken(f"expansion exceeded {n * n + n} layers")


def build_short_cycle_free_transversal(
    square: LatinSquare, k: int, *, check: bool = False, stats: dict | None = None
) -> tuple:
    """Partial transversal with no cycle of length ≤ k and at least
    theorem_bound(order, k) cells, as sorted (row, col, symbol) cells.

    check=True additionally verifies the layer counting laws on every
    expansion round, compares the carried reach sets and counts with a
    fresh walk of the front at every layer, and compares the carried
    search state with a fresh one after every augmentation. stats (a
    dict) receives initial, the greedy start's size, and augmentations,
    the expansion rounds that grew it; stats that are neither None nor
    a dict are PreconditionViolated, before any work.
    """
    require_type(square, LatinSquare)
    require_stats(stats)
    n = square.order
    bound = theorem_bound(n, k)  # the one check of k
    state = _start_state(square, k, _greedy_init(square, k))
    initial = len(state.out_map)
    augmentations = 0
    while _expansion_round(state, check):
        augmentations += 1
    cells = _cells(state)
    if len(cells) < bound:
        raise InternalInvariantBroken(
            f"finished with {len(cells)} cells, guarantee is {bound}"
        )
    ok, why = validate_transversal(square, cells, forbid_cycles_up_to=k)
    if not ok:
        raise InternalInvariantBroken(f"final transversal invalid: {why}")
    if stats is not None:
        stats.update(initial=initial, augmentations=augmentations)
    return tuple(cells)


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


def _find_exchange(square: LatinSquare, cells: list):
    """First move that grows an acyclic transversal by one cell.

    Returns (dropped cell or None, cells to add) or None. 0-for-1 moves
    come first, in ascending order of the added cell; then 1-for-2
    moves, by ascending dropped cell and then ascending pair. An arc
    a -> b joins the path ending at a to the path starting at b, so it
    closes a cycle exactly when a's path starts at b; two new arcs also
    close one when each lands on the start of the other's path.

    One index, built in O(f^2) for f free rows, serves every dropped
    cell. Once no 0-for-1 move is left, each base free cell (free row,
    column and symbol) lands on the start of its row's path, so a drop
    frees only the one of its own path. The other cells a drop frees
    take its row, column or symbol and are free in the other two; they
    are listed by the used row, column or symbol they take. A drop with
    fewer than two candidates tries no pair."""
    n = square.order
    used_rows = {r for r, _, _ in cells}
    used_cols = {c for _, c, _ in cells}
    used_syms = {s for _, _, s in cells}
    free_rows = [r for r in range(1, n + 1) if r not in used_rows]
    if not free_rows:
        return None
    free_cols = [c for c in range(1, n + 1) if c not in used_cols]
    free_syms = [s for s in range(1, n + 1) if s not in used_syms]
    where = _path_starts(square, cells)
    base: list = []
    by_row: dict = {}  # used row -> its cells in a free column and symbol
    for c in free_cols:
        row_of_c = square._row_of[c]
        for s in free_syms:
            r = row_of_c[s]
            if r in used_rows:
                by_row.setdefault(r, []).append((r, c, s))
            else:
                base.append((r, c, s))
    base.sort()
    for cell in base:
        if where[cell[0]][0] != cell[1]:
            return None, [cell]
    base_of_path = {cell[1]: cell for cell in base}  # path start -> the cell back to it
    by_col: dict = {}  # used column -> its cells in a free row and symbol
    by_sym: dict = {}  # used symbol -> its cells in a free row and column
    for r in free_rows:
        col_of_r, row = square._col_of[r], square.rows[r - 1]
        for s in free_syms:
            c = col_of_r[s]
            if c in used_cols:
                by_col.setdefault(c, []).append((r, c, s))
        for c in free_cols:
            s = row[c - 1]
            if s in used_syms:
                by_sym.setdefault(s, []).append((r, c, s))
    for dropped in sorted(cells):
        r0, c0, s0 = dropped
        split_path, split_pos = where[r0]
        pool = by_row.get(r0, []) + by_col.get(c0, []) + by_sym.get(s0, [])
        if split_path in base_of_path:
            pool.append(base_of_path[split_path])
        if len(pool) < 2:
            continue

        def start_of(v: int) -> int:
            path, pos = where[v]
            return c0 if path == split_path and pos > split_pos else path

        pool = sorted(cell for cell in pool if start_of(cell[0]) != cell[1])
        for i, (a1, b1, s1) in enumerate(pool):
            for a2, b2, s2 in pool[i + 1:]:
                if a1 == a2 or b1 == b2 or s1 == s2:
                    continue
                if start_of(a1) == b2 and start_of(a2) == b1:
                    continue
                return dropped, [(a1, b1, s1), (a2, b2, s2)]
    return None


def _exchange_pass(square: LatinSquare, cells: list, check: bool) -> list:
    """Apply 0-for-1 and 1-for-2 moves until none applies.

    Each move adds one cell, so there are at most order many. check=True
    revalidates each result with every cycle forbidden before it is
    kept; otherwise only the caller's final validation sees them."""
    while True:
        move = _find_exchange(square, cells)
        if move is None:
            return cells
        dropped, added = move
        cells = sorted([c for c in cells if c != dropped] + added)
        if check:
            ok, why = validate_transversal(square, cells, forbid_cycles_up_to=math.inf)
            if not ok:
                raise InternalInvariantBroken(f"exchange move {move} invalid: {why}")


def cycle_free_transversal(
    square: LatinSquare, *, check: bool = False, stats: dict | None = None
) -> tuple:
    """Partial transversal with no cycles at all, which no 0-for-1 or
    1-for-2 exchange can enlarge, as sorted (row, col, symbol) cells.

    Builds a short-cycle-free transversal at the standard cutoff (2 at
    every order but 3 below about 2.5*10^13), drops the smallest-row
    cell of each surviving (long) cycle, then adds a free cell, or
    trades one cell for two, while such a move keeps the result
    cycle-free. The result is validated with every cycle forbidden;
    check=True also revalidates each exchange move. stats (a dict)
    receives the builder's counts plus cycles_removed."""
    require_type(square, LatinSquare)
    k = default_cycle_bound(square.order)
    cells = build_short_cycle_free_transversal(square, k, check=check, stats=stats)
    cycles = cycles_of(square, cells).cycles  # each leads with its smallest row
    result = _exchange_pass(square, sorted(set(cells) - {cycle[0] for cycle in cycles}), check)
    ok, why = validate_transversal(square, result, forbid_cycles_up_to=math.inf)
    if not ok:
        raise InternalInvariantBroken(f"cycle-free transversal invalid: {why}")
    if stats is not None:
        stats["cycles_removed"] = len(cycles)
    return tuple(sorted(result))
