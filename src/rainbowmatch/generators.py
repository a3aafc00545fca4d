"""Seeded instance generators.

Every generator is deterministic in its seed, which must be an int
(InfeasibleParameters otherwise: random.Random would seed None from
the clock and hash a str). Each draw from range(m) follows _below, the
rule CPython's Random.randrange(m) uses, applied to getrandbits
directly, so the outputs depend only on the Mersenne Twister's
getrandbits stream. The hot loops (the square walk and the
Fisher-Yates of _shuffled) write the rule out inline rather than call
_below, which halves their cost; tests pin _below to randrange and
_shuffled to a loop on _below. random_proper_graph shuffles one tuple
of vertex ints, so its neighbor maps share one int per vertex; it
keeps each vertex's larger neighbors in place of edge tuples, sorts
them into two columns of edge ends, colors with one bitmask of used
colors per vertex, and fills the graph's maps from the columns.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import chain

from .errors import InfeasibleParameters
from .graphs import ColoredGraph, build_graph
from .latin import LatinSquare, build_square

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The most vertices plus edges random_proper_graph may build. Each edge
# lowers the shortfall of a vertex still below the target degree, so a
# graph on n vertices has at most n*target edges. At this ceiling a
# build takes 12-13 s and peaks at 0.28 GB resident for 20,000 vertices
# of degree 249, 0.9 GB for 2,500,000 of degree 1, nearly all of it the
# graph's 2,500,000 one-entry maps (Python 3.11, x86-64, 2 vCPUs).
GRAPH_WORK_LIMIT = 5_000_000
# The most cells cyclic_square may build, n*n at order n; at this
# ceiling (order 2000) a build takes about 0.6 s and peaks at 97 MB of
# heap, 108 MB of process memory (Python 3.11, x86-64).
SQUARE_CELL_LIMIT = 4_000_000
# The most Jacobson-Matthews steps random_square may walk, n**3 at order
# n; at this ceiling (order 271) a walk takes about 15 s at 0.7 us a step
# (Python 3.11, x86-64, as above).
SQUARE_STEP_LIMIT = 20_000_000


def split_seed(master: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed."""
    _require_int("seed", master)
    _require_int("stream index", index)
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


def _require_int(name: str, value) -> None:
    """InfeasibleParameters unless value is an int (a bool is not)."""
    if type(value) is not int:
        raise InfeasibleParameters(f"{name} must be an int, got {type(value).__name__}")


def _require_order(n) -> None:
    """InfeasibleParameters unless n is a non-negative int."""
    _require_int("order", n)
    if n < 0:
        raise InfeasibleParameters("order must be non-negative")


def cyclic_square(n: int) -> LatinSquare:
    """Addition table of Z_n, symbols 1..n. Raises InfeasibleParameters
    before allocating anything when n*n exceeds SQUARE_CELL_LIMIT."""
    _require_order(n)
    if n * n > SQUARE_CELL_LIMIT:
        raise InfeasibleParameters(
            f"order {n} has {n * n} cells, over the limit of {SQUARE_CELL_LIMIT}"
        )
    # row r is symbols r+1..n then 1..r, sliced from one doubled tuple, so
    # the rows share one int per symbol
    symbols = tuple(range(1, n + 1)) * 2
    return build_square([symbols[r:r + n] for r in range(n)])


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
    moving until the state is proper again. Raises InfeasibleParameters
    before allocating anything when n**3 exceeds SQUARE_STEP_LIMIT.
    """
    _require_order(n)
    _require_int("seed", seed)
    if n**3 > SQUARE_STEP_LIMIT:
        raise InfeasibleParameters(
            f"order {n} needs {n**3} walk steps, over the limit of {SQUARE_STEP_LIMIT}"
        )
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
    symbols = tuple(range(1, n + 1))  # one int per symbol, shared by the rows
    return build_square([tuple(map(symbols.__getitem__, row)) for row in grid])


def random_proper_graph(n: int, target: int, seed: int) -> ColoredGraph:
    """Random properly edge-colored graph with minimum degree exactly target.

    Overlays random pairings one edge at a time and stops the moment no
    vertex is short of target, so the minimum cannot overshoot. Every
    round shuffles the same tuple of vertex ints, and an accepted edge
    files its larger end under its smaller one, so the graph holds one
    int per vertex. One set of pair keys, u * (n + 1) + v for u < v,
    rejects repeated pairs and goes when pairing ends. The sorted edge
    list is two columns: us repeats each u once per larger neighbor, and
    vs lists those neighbors, each vertex's sorted in place. Edges then
    receive, in a shuffled order of that list, the smallest color free
    at both endpoints: bit c - 1 of busy[v] is set once v has color c,
    so that color is the lowest clear bit of busy[u] | busy[v]. Every
    shuffle is _shuffled, whose draws are _below written out inline.
    The columns fill the neighbor maps in sorted edge order, so each map
    lists its neighbors ascending, and the maps pass ColoredGraph's bulk
    check; no edge tuple is built.

    Raises InfeasibleParameters before allocating anything when
    n*(target+1), the most vertices plus edges the graph can have,
    exceeds GRAPH_WORK_LIMIT.
    """
    if type(n) is not int or type(target) is not int:
        raise InfeasibleParameters(f"vertex count and degree must be ints, got "
                                   f"{type(n).__name__} and {type(target).__name__}")
    if n < 2:
        raise InfeasibleParameters(f"need at least 2 vertices, got {n}")
    if target < 0 or target >= n:
        raise InfeasibleParameters(f"degree {target} impossible on {n} vertices")
    if n * (target + 1) > GRAPH_WORK_LIMIT:
        raise InfeasibleParameters(
            f"{n} vertices of degree {target} may need {n * (target + 1)} vertices plus"
            f" edges, over the limit of {GRAPH_WORK_LIMIT}"
        )
    _require_int("seed", seed)
    getrandbits = random.Random(seed).getrandbits
    # one int per vertex, shared by every round and neighbor map; vertex
    # 0 only aligns the per-vertex lists and is never drawn
    vertices = tuple(range(n + 1))
    tail = vertices[1:]
    # u * (n + 1) + v for each pair u < v joined so far
    pairs: set = set()
    # higher[u]: the larger ends of u's edges, in the order accepted
    higher: list[list[int]] = [[] for _ in vertices]
    # need[v] = target - degree; a vertex is short while need[v] > 0
    need = [target] * (n + 1)
    short = n if target > 0 else 0
    rounds = 8 * (target + 1) + 32
    while short:
        if rounds:
            rounds -= 1
            order = iter(_shuffled(getrandbits, tail))
            batch = zip(order, order)
        else:
            # join the smallest short vertex to its smallest short
            # non-neighbor, else to its smallest non-neighbor
            v = next(w for w in tail if need[w] > 0)
            candidates = [w for w in tail if w != v and min(v, w) * (n + 1) + max(v, w) not in pairs]
            batch = ((v, next((w for w in candidates if need[w] > 0), candidates[0])),)
        for u, v in batch:
            if u > v:
                u, v = v, u
            key = u * (n + 1) + v
            if key in pairs or (need[u] <= 0 and need[v] <= 0):
                continue
            pairs.add(key)
            higher[u].append(v)
            need[u] -= 1
            need[v] -= 1
            short -= (need[u] == 0) + (need[v] == 0)
            if not short:
                break
    del pairs, tail, need

    # the sorted edge list as two columns: edge i is (us[i], vs[i])
    us = [u for u, ends in zip(vertices, higher) for _ in ends]
    for ends in higher:
        ends.sort()
    vs = list(chain.from_iterable(higher))
    del higher
    colors = [0] * len(us)
    busy = [0] * (n + 1)
    for i in _shuffled(getrandbits, range(len(us))):
        u = us[i]
        v = vs[i]
        b = busy[u] | busy[v]
        free = ~b & (b + 1)
        busy[u] |= free
        busy[v] |= free
        colors[i] = free.bit_length()
    # filled in sorted edge order, each map lists its neighbors ascending
    adj: defaultdict = defaultdict(dict)
    for u, v, c in zip(us, vs, colors):
        adj[u][v] = c
        adj[v][u] = c
    return ColoredGraph._checked(n, dict(adj), len(us))
