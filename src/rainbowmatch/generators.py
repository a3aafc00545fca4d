"""Seeded instance generators.

Every generator is deterministic in its seed. Each draw from range(m)
follows _below, the rule CPython's Random.randrange(m) uses, applied to
getrandbits directly, so the outputs depend only on the Mersenne
Twister's getrandbits stream. The hot loops (the square walk and the
Fisher-Yates of _shuffled) write the rule out inline rather than call
_below, which halves their cost; tests pin _below to randrange and
_shuffled to a loop on _below. random_proper_graph colors with one
bitmask of used colors per vertex.
"""

from __future__ import annotations

import random

from .errors import InfeasibleParameters
from .graphs import ColoredGraph, build_graph
from .latin import LatinSquare, build_square

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def split_seed(master: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed."""
    x = (master ^ (index * _GOLDEN)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _below(getrandbits, m: int) -> int:
    """Draw from range(m), m >= 1, exactly as Random.randrange(m) does."""
    k = m.bit_length()  # so m = 1 still takes one bit, and m = 2 two
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def _shuffled(getrandbits, items) -> list:
    """Fisher-Yates, each draw _below(getrandbits, i + 1) inlined;
    random.shuffle is not pinned across versions."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        out[i], out[j] = out[j], out[i]
    return out


def cyclic_square(n: int) -> LatinSquare:
    """Addition table of Z_n, symbols 1..n."""
    if n < 0:
        raise InfeasibleParameters("order must be non-negative")
    return build_square(
        [[(r + c) % n + 1 for c in range(n)] for r in range(n)]
    )


def witness_square_4() -> LatinSquare:
    """Order-4 square with no full transversal (Klein-group table)."""
    return build_square([(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)])


def k4_factorization_pair() -> ColoredGraph:
    """Two disjoint K4's, each split into three perfect matchings.

    Minimum degree 3 on 8 vertices, yet any two disjoint edges inside
    one K4 share a color, so no rainbow matching exceeds size 2.
    """
    edges = [
        (1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (1, 4, 3), (2, 3, 3),
        (5, 6, 4), (7, 8, 4), (5, 7, 5), (6, 8, 5), (5, 8, 6), (6, 7, 6),
    ]
    return build_graph(8, edges)


def random_square(n: int, seed: int) -> LatinSquare:
    """Uniformly-flavored random Latin square of order n.

    Runs n**3 Jacobson-Matthews moves from the cyclic square, then keeps
    moving until the state is proper again.
    """
    if n < 0:
        raise InfeasibleParameters("order must be non-negative")
    if n <= 1:
        return cyclic_square(n)
    getrandbits = random.Random(seed).getrandbits
    # symbols 0..n-1 here; col_of[r][s] and row_of[c][s] locate symbol s
    grid = [[(r + c) % n for c in range(n)] for r in range(n)]
    col_of = [[(s - r) % n for s in range(n)] for r in range(n)]
    row_of = [[(s - c) % n for s in range(n)] for c in range(n)]
    cells, cell_bits = n * n, (n * n).bit_length()
    others, other_bits = n - 1, (n - 1).bit_length()
    # None while proper, else (r0, c0, neg, extra, c_a, c_b, r_a, r_b): cell
    # (r0, c0) holds grid[r0][c0], extra and -neg; neg sits at c_a, c_b in
    # row r0 and at r_a, r_b in column c0
    flaw = None
    steps = n * n * n
    while steps > 0 or flaw is not None:
        steps -= 1
        # every draw below is _below(getrandbits, m), inlined for speed
        if flaw is None:
            cell = getrandbits(cell_bits)
            while cell >= cells:
                cell = getrandbits(cell_bits)
            r = cell // n
            c = cell % n
            s = getrandbits(other_bits)
            while s >= others:
                s = getrandbits(other_bits)
            row = grid[r]
            old = row[c]
            if s >= old:
                s += 1
            cols = col_of[r]
            rows = row_of[c]
            c2 = cols[s]
            r2 = rows[s]
            row2 = grid[r2]
            row[c] = s
            row[c2] = old
            row2[c] = old
            cols[s] = c
            cols[old] = c2
            rows[s] = r
            rows[old] = r2
            row_of[c2][s] = r2
            cols2 = col_of[r2]
            if row2[c2] == old:
                row2[c2] = s
                cols2[s] = c2
                cols2[old] = c
                row_of[c2][old] = r
            else:
                # cell (r2, c2) gains s and loses old
                flaw = (r2, c2, old, s, c, cols2[old], r, row_of[c2][old])
                cols2[s] = c2
        else:
            r0, c0, neg, extra, c_a, c_b, r_a, r_b = flaw
            # randrange(2) draws two bits, so these do too
            pick = getrandbits(2)
            while pick >= 2:
                pick = getrandbits(2)
            c1 = c_b if pick else c_a
            pick = getrandbits(2)
            while pick >= 2:
                pick = getrandbits(2)
            r1 = r_b if pick else r_a
            pick = getrandbits(2)
            while pick >= 2:
                pick = getrandbits(2)
            row0 = grid[r0]
            if pick:
                s1, other = extra, row0[c0]
            else:
                s1, other = row0[c0], extra
            row1 = grid[r1]
            row0[c0] = other
            row0[c1] = s1
            row1[c0] = s1
            col_of[r0][s1] = c1
            row_of[c0][s1] = r1
            col_of[r0][neg] = c_a if c_b == c1 else c_b
            row_of[c0][neg] = r_a if r_b == r1 else r_b
            col_of[r1][neg] = c1
            row_of[c1][neg] = r1
            if row1[c1] == s1:
                row1[c1] = neg
                col_of[r1][s1] = c0
                row_of[c1][s1] = r0
                flaw = None
            else:
                flaw = (r1, c1, s1, neg, c0, col_of[r1][s1], r0, row_of[c1][s1])
    return build_square([[s + 1 for s in row] for row in grid])


def random_proper_graph(n: int, target: int, seed: int) -> ColoredGraph:
    """Random properly edge-colored graph with minimum degree exactly target.

    Overlays random pairings one edge at a time and stops the moment no
    vertex is short of target, so the minimum cannot overshoot. Edges
    then receive, in a shuffled order of the sorted edge list, the
    smallest color free at both endpoints: bit c - 1 of busy[v] is set
    once v has color c, so that color is the lowest clear bit of
    busy[u] | busy[v]. Every shuffle is _shuffled, whose draws are
    _below written out inline. The colored edges go to ColoredGraph
    already sorted, and it checks each one as usual.
    """
    if n < 2:
        raise InfeasibleParameters(f"need at least 2 vertices, got {n}")
    if target < 0 or target >= n:
        raise InfeasibleParameters(f"degree {target} impossible on {n} vertices")
    getrandbits = random.Random(seed).getrandbits
    adj = [set() for _ in range(n + 1)]
    # need[v] = target - degree; a vertex is short while need[v] > 0
    need = [target] * (n + 1)
    short = n if target > 0 else 0
    edges: list[tuple[int, int]] = []
    rounds = 8 * (target + 1) + 32
    while short:
        if rounds:
            rounds -= 1
            order = iter(_shuffled(getrandbits, range(1, n + 1)))
            batch = zip(order, order)
        else:
            # join the smallest short vertex to its smallest short
            # non-neighbor, else to its smallest non-neighbor
            v = next(w for w in range(1, n + 1) if need[w] > 0)
            candidates = [w for w in range(1, n + 1) if w != v and w not in adj[v]]
            batch = ((v, next((w for w in candidates if need[w] > 0), candidates[0])),)
        for u, v in batch:
            if v in adj[u] or (need[u] <= 0 and need[v] <= 0):
                continue
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v) if u < v else (v, u))
            need[u] -= 1
            need[v] -= 1
            short -= (need[u] == 0) + (need[v] == 0)
            if not short:
                break

    pairs = sorted(edges)
    colors = [0] * len(pairs)
    busy = [0] * (n + 1)
    for i in _shuffled(getrandbits, range(len(pairs))):
        u, v = pairs[i]
        b = busy[u] | busy[v]
        free = ~b & (b + 1)
        busy[u] |= free
        busy[v] |= free
        colors[i] = free.bit_length()
    return build_graph(n, [(u, v, c) for (u, v), c in zip(pairs, colors)])
