"""Certificate checks that share no code with the package under test.

The package revalidates its own certificates through ``validate_*``.
The benchmark does not trust that path: every output is checked again
here, against instance data the benchmark generated or read itself,
and every size is compared with a bound computed from a local integer
root.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """An output broke a property the benchmark checks."""


def iroot(x: int, k: int) -> int:
    """Largest r with r**k <= x, by integer Newton iteration from above."""
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0 and k >= 1")
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def shortcycle_bound(n: int, k: int) -> int:
    """ceil(n - 6*n^((k-1)/k)), clamped at 0: the short-cycle-free guarantee."""
    return max(0, n - iroot(6**k * n ** (k - 1), k))


def layered_bound(delta: int) -> int:
    """ceil(delta - 2*delta^(2/3)), clamped at 0: the layered guarantee."""
    return max(0, delta - iroot(8 * delta * delta, 3))


def cyclefree_bound(n: int) -> int:
    """ceil((1 - 4*lnln(n)/ln(n)) * n), clamped at 0; 0 below n = 3."""
    if n <= 2:
        return 0
    return max(0, math.ceil((1.0 - 4.0 * math.log(math.log(n)) / math.log(n)) * n))


def check_transversal(grid, cells, k: float, bound: int) -> int:
    """Check a partial transversal of the square whose rows are grid.

    Cells must lie in the square, rows, columns and symbols must not
    repeat, and every cycle of the walk r -> c must be longer than k
    (k = math.inf forbids all cycles). Returns size minus bound.
    """
    n = len(grid)
    rows: set = set()
    cols: set = set()
    syms: set = set()
    succ: dict = {}
    for r, c, s in cells:
        if not (1 <= r <= n and 1 <= c <= n) or grid[r - 1][c - 1] != s:
            raise CheckFailed(f"cell ({r},{c},{s}) is not in the square")
        if r in rows:
            raise CheckFailed(f"row {r} repeats")
        if c in cols:
            raise CheckFailed(f"column {c} repeats")
        if s in syms:
            raise CheckFailed(f"symbol {s} repeats")
        rows.add(r)
        cols.add(c)
        syms.add(s)
        succ[r] = c
    done: set = set()
    for start in succ:
        position: dict = {}
        v = start
        while v in succ and v not in done and v not in position:
            position[v] = len(position)
            v = succ[v]
        if v in position and len(position) - position[v] <= k:
            raise CheckFailed(f"cycle of length {len(position) - position[v]} through row {v}")
        done.update(position)
    if len(succ) < bound:
        raise CheckFailed(f"{len(succ)} cells, below the bound {bound}")
    return len(succ) - bound


def edge_colors(edges) -> dict:
    """{(a, b): color} with a < b, from (u, v, color) triples."""
    return {(min(u, v), max(u, v)): c for u, v, c in edges}


def min_degree(vertex_count: int, colors: dict) -> int:
    degree = dict.fromkeys(range(1, vertex_count + 1), 0)
    for a, b in colors:
        degree[a] += 1
        degree[b] += 1
    return min(degree.values(), default=0)


def check_matching(colors: dict, edges, bound: int) -> int:
    """Check a rainbow matching of the graph given as edge_colors().

    Every edge must be in the graph with its colour, edges must be
    vertex-disjoint, and colours must be distinct. Returns size minus
    bound.
    """
    covered: set = set()
    used: set = set()
    size = 0
    for u, v, c in edges:
        a, b = min(u, v), max(u, v)
        if colors.get((a, b)) != c:
            raise CheckFailed(f"edge {a}-{b} with colour {c} is not in the graph")
        if a in covered or b in covered:
            raise CheckFailed(f"edge {a}-{b} shares a vertex")
        if c in used:
            raise CheckFailed(f"colour {c} repeats")
        covered.update((a, b))
        used.add(c)
        size += 1
    if size < bound:
        raise CheckFailed(f"{size} edges, below the bound {bound}")
    return size - bound
