"""Exact brute-force solvers for small instances.

These are the ground truth the fast solvers are tested against. They
refuse oversized inputs instead of running without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, require_cycle_bound, require_int, require_type
from .graphs import ColoredGraph
from .latin import LatinSquare, _closes_short_cycle


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 24
    max_order: int = 7
    node_limit: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("max_edges", "max_order", "node_limit"):
            require_int(name, getattr(self, name), 0)


def max_rainbow_matching_exact(g: ColoredGraph, budget: OracleBudget | None = None) -> tuple:
    """Maximum-cardinality rainbow matching by take/skip search, as
    sorted (u, v, color) edges.

    Edges are visited in lexicographic order; the bound prunes on the
    number of distinct colors remaining in the suffix.
    """
    require_type(g, ColoredGraph)
    budget = OracleBudget() if budget is None else budget
    require_type(budget, OracleBudget)
    edges = g.edges
    if len(edges) > budget.max_edges:
        raise BudgetExceeded(f"{len(edges)} edges exceeds oracle budget {budget.max_edges}")
    suffix = [0] * (len(edges) + 1)
    seen: set[int] = set()
    for i in range(len(edges) - 1, -1, -1):
        seen.add(edges[i][2])
        suffix[i] = len(seen)
    best: list = []
    chosen: list = []
    used_v: set[int] = set()
    used_c: set[int] = set()
    nodes = 0

    def walk(i: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget.node_limit:
            raise BudgetExceeded(f"oracle search exceeded {budget.node_limit} nodes")
        if len(chosen) > len(best):
            best = list(chosen)
        if i == len(edges) or len(chosen) + suffix[i] <= len(best):
            return
        u, v, c = edges[i]
        if u not in used_v and v not in used_v and c not in used_c:
            used_v.update((u, v))
            used_c.add(c)
            chosen.append(edges[i])
            walk(i + 1)
            chosen.pop()
            used_c.discard(c)
            used_v.difference_update((u, v))
        walk(i + 1)

    walk(0)
    return tuple(sorted(best))


def max_cyclefree_transversal_exact(
    square: LatinSquare, k: float = 0, budget: OracleBudget | None = None
) -> tuple:
    """Maximum partial transversal whose cycles all exceed length k, as
    sorted (row, col, symbol) cells.

    k = 0 puts no constraint on cycles; k = math.inf forbids them all;
    any k but math.inf or an int >= 0 raises PreconditionViolated.
    Row-by-row take/skip search with column and symbol occupancy sets.
    """
    require_type(square, LatinSquare)
    require_cycle_bound(k)
    budget = OracleBudget() if budget is None else budget
    require_type(budget, OracleBudget)
    n = square.order
    if n > budget.max_order:
        raise BudgetExceeded(f"order {n} exceeds oracle budget {budget.max_order}")
    best: list = []
    chosen: list = []
    used_cols: set[int] = set()
    used_syms: set[int] = set()
    col_by_row: dict[int, int] = {}
    nodes = 0

    def walk(r: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget.node_limit:
            raise BudgetExceeded(f"oracle search exceeded {budget.node_limit} nodes")
        if len(chosen) > len(best):
            best = list(chosen)
        if r > n or len(chosen) + (n - r + 1) <= len(best):
            return
        for c in range(1, n + 1):
            if c in used_cols:
                continue
            s = square.entry(r, c)
            if s in used_syms:
                continue
            if _closes_short_cycle(col_by_row, r, c, k):
                continue
            used_cols.add(c)
            used_syms.add(s)
            col_by_row[r] = c
            chosen.append((r, c, s))
            walk(r + 1)
            chosen.pop()
            del col_by_row[r]
            used_syms.discard(s)
            used_cols.discard(c)
        walk(r + 1)

    walk(1)
    return tuple(sorted(best))


def max_transversal_exact(square: LatinSquare, budget: OracleBudget | None = None) -> tuple:
    """Maximum partial transversal with no cycle constraint."""
    return max_cyclefree_transversal_exact(square, 0, budget)
