"""Short-cycle-free and fully cycle-free partial transversals."""

import hashlib
import itertools
import math
import random
import re
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    InternalInvariantBroken,
    PreconditionViolated,
    build_short_cycle_free_transversal,
    build_square,
    corollary_bound,
    cycle_free_transversal,
    cycles_of,
    cyclic_square,
    default_cycle_bound,
    guaranteed_size,
    random_square,
    split_seed,
    theorem_bound,
    validate_transversal,
    witness_square_4,
)
from rainbowmatch import transversal as tv
from rainbowmatch.arith import int_kth_root
from rainbowmatch.latin import _closes_short_cycle


def _front(state):
    """The A-front: the path beginnings and the successors minted so far."""
    return state.a_first | state.a_parent.keys()


def forbidden_edges(state, color):
    """The forbidden color-colored arcs into the current A-front: arc
    v -> u could close a cycle of length ≤ k when it is a loop or some
    rainbow path u ~> v of ≤ k-1 arcs already exists."""
    out = set()
    for u in _front(state):
        v = state.square.row_of(u, color)
        if v == u or v in tv._collect_reach(state.out_map, state.b_parent, u, state.k - 1,
                                           narrow=False):
            out.add((v, u))
    return out


def test_theorem_bound_values():
    assert theorem_bound(49, 2) == 7
    assert theorem_bound(64, 2) == 16
    assert theorem_bound(100, 2) == 40
    assert theorem_bound(36, 2) == 0
    assert theorem_bound(216, 3) == 0
    assert theorem_bound(1, 2) == 0


def test_theorem_bound_matches_the_integer_formula():
    # the shortcut for a huge k must not change any value
    for n in range(301):
        for k in range(2, 13):
            assert theorem_bound(n, k) == max(0, n - int_kth_root(6**k * n ** (k - 1), k))


def test_theorem_bound_is_monotone_in_order():
    for k in (2, 3):
        values = [theorem_bound(n, k) for n in range(1, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0 <= v < 400 for v in values)


def test_corollary_bound_values():
    assert corollary_bound(1) == 0
    assert corollary_bound(2) == 0
    assert corollary_bound(10) >= 0
    # the multiplier 1 - 4 ln ln n / ln n sits near 0.24 at n = 10^6
    assert 0.2 * 10**6 < corollary_bound(10**6) < 0.3 * 10**6


def test_default_cycle_bound_values():
    assert default_cycle_bound(1) == 2
    assert default_cycle_bound(2) == 2
    assert default_cycle_bound(3) == 3
    assert default_cycle_bound(4) == 2
    assert default_cycle_bound(100) == 2


def test_greedy_init_is_short_cycle_free():
    for n in (3, 5, 8):
        sq = random_square(n, seed=n)
        cells = tv._greedy_init(sq, 2)
        ok, why = validate_transversal(sq, cells, forbid_cycles_up_to=2)
        assert ok, why
        # one cell per symbol at most
        symbols = [s for _, _, s in cells]
        assert len(symbols) == len(set(symbols))


def _row_scan_greedy(square, k):
    """_greedy_init as the scan of every row for every symbol it once
    was, kept as a reference for the scan of the free rows."""
    n = square.order
    col_by_row = {}
    used_cols = set()
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


def _isotope(square, rng):
    """square with its rows, columns and symbols each permuted by rng."""
    n = square.order
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    return build_square([[syms[square.rows[r][c] - 1] + 1 for c in cols] for r in rows])


def test_greedy_init_matches_the_row_scan():
    squares = [random_square(n, seed=split_seed(19, n)) for n in range(1, 25)]
    squares += [_isotope(cyclic_square(n), random.Random(n)) for n in range(1, 61)]
    squares += [_reversed_cyclic(n) for n in (40, 60)]
    for sq in squares:
        for k in (2, 3, 5):
            assert tv._greedy_init(sq, k) == _row_scan_greedy(sq, k), (sq.order, k)


def test_rejects_cycle_bound_below_two():
    with pytest.raises(PreconditionViolated):
        build_short_cycle_free_transversal(cyclic_square(4), 1)


@pytest.mark.parametrize("k, why", [
    (2.5, "an int, got float"),
    (math.nan, "an int, got float"),
    (2.0, "an int, got float"),
    (math.inf, "an int, got float"),
    ("3", "an int, got str"),
    (None, "an int, got NoneType"),
    (True, "an int, got bool"),
])
def test_a_bad_cycle_bound_is_a_precondition_violation(k, why):
    with pytest.raises(PreconditionViolated, match=f"^cycle bound must be {why}$"):
        build_short_cycle_free_transversal(cyclic_square(7), k)


@pytest.mark.parametrize("n, k, why", [
    (10, 0, "cycle bound must be at least 2, got 0"),
    (10, 2.0, "cycle bound must be an int, got float"),
    (-5, 2, "order must be at least 0, got -5"),
    (10.0, 2, "order must be an int, got float"),
])
def test_theorem_bound_rejects_bad_arguments(n, k, why):
    with pytest.raises(PreconditionViolated, match=f"^{why}$"):
        theorem_bound(n, k)


@pytest.mark.parametrize("bound, n, why", [
    (guaranteed_size, 2.5, "minimum degree must be an int, got float"),
    (guaranteed_size, -1, "minimum degree must be at least 0, got -1"),
    (guaranteed_size, True, "minimum degree must be an int, got bool"),
    (corollary_bound, 2.5, "order must be an int, got float"),
    (corollary_bound, -3, "order must be at least 0, got -3"),
    (corollary_bound, "9", "order must be an int, got str"),
    (default_cycle_bound, -3, "order must be at least 0, got -3"),
    (default_cycle_bound, None, "order must be an int, got NoneType"),
    (default_cycle_bound, 9.0, "order must be an int, got float"),
])
def test_bound_helpers_reject_bad_orders(bound, n, why):
    with pytest.raises(PreconditionViolated, match=f"^{why}$"):
        bound(n)


def test_small_orders_and_edge_cases():
    t = build_short_cycle_free_transversal(cyclic_square(1), 2)
    assert len(t) == 0  # the only cell of order 1 is a loop
    t = build_short_cycle_free_transversal(cyclic_square(2), 2)
    assert len(t) <= 1


def test_meets_bound_and_validates_across_orders():
    for n in (9, 16, 25):
        for trial in range(3):
            sq = random_square(n, seed=split_seed(31, n + trial))
            t = build_short_cycle_free_transversal(sq, 2, check=True)
            ok, why = validate_transversal(sq, t, forbid_cycles_up_to=2)
            assert ok, why
            assert len(t) >= theorem_bound(n, 2)


def test_respects_larger_cycle_bound():
    sq = random_square(12, seed=8)
    t = build_short_cycle_free_transversal(sq, 3, check=True)
    ok, why = validate_transversal(sq, t, forbid_cycles_up_to=3)
    assert ok, why


def test_output_is_deterministic():
    sq = random_square(10, seed=2)
    a = build_short_cycle_free_transversal(sq, 2)
    b = build_short_cycle_free_transversal(sq, 2)
    assert a == b
    assert type(a) is tuple and list(a) == sorted(a)


def test_stats_from_an_augmenting_run():
    sq = random_square(6, seed=4)
    stats = {}
    t = build_short_cycle_free_transversal(sq, 2, check=True, stats=stats)
    assert stats == {"initial": 4, "augmentations": 2}
    assert len(t) == 6 >= theorem_bound(6, 2)


def test_expansion_layer_protocol():
    # greedy stalls at two cells; the first layer spends the cheaper
    # symbol and doubles the reachable front, the second finds nothing,
    # and no symbol is left
    sq = random_square(4, seed=4)
    cells = tv._greedy_init(sq, 2)
    assert sorted(cells) == [(1, 4, 1), (3, 2, 2)]
    state = tv._start_state(sq, 2, cells)
    assert sorted(state.a_first) == [1, 3]
    assert [r for r in range(1, 5) if r not in state.out_map] == [2, 4]
    assert sorted(state.remaining) == [3, 4]
    assert tv.choose_color(state) == 3
    assert forbidden_edges(state, 4) == {(2, 3), (4, 1)}

    grew = []
    for color in (3, 4):
        before = len(state.b_parent)
        tv.choose_color(state)
        state.remaining.remove(color)
        assert tv.expand_layer(state, color) is None
        grew.append(len(state.b_parent) - before)
    assert grew == [2, 0]
    assert sorted(_front(state)) == [1, 2, 3, 4]
    assert state.remaining == []


def _stalled_state():
    """The order-4 search state of test_expansion_layer_protocol: cells
    1 -> 4 and 3 -> 2, path beginnings {1, 3}, path ends {2, 4}."""
    sq = random_square(4, seed=4)
    return tv._start_state(sq, 2, tv._greedy_init(sq, 2))


def test_apply_augmentation_rejects_a_broken_parent_chain():
    # column 4 is used but no layer shifted it, so no parent leads back
    state = _stalled_state()
    with pytest.raises(InternalInvariantBroken, match="broken parent chain at vertex 4"):
        tv.apply_augmentation(state, (2, 4), 3)


def test_apply_augmentation_rejects_a_tail_that_has_an_arc():
    # row 1 already carries 1 -> 4, so it cannot take the augmenting arc
    state = _stalled_state()
    with pytest.raises(InternalInvariantBroken, match="augmenting tail 1 already has an arc"):
        tv.apply_augmentation(state, (1, 3), 3)


def test_apply_augmentation_rejects_a_chain_longer_than_the_order():
    # row 1 shifts head 4 and was minted by an arc into 4 itself, so the
    # parent chain never reaches a path beginning
    state = _stalled_state()
    state.a_parent[4] = 1
    state.b_parent[1] = (4, 3)
    with pytest.raises(InternalInvariantBroken, match="longer than the square's order"):
        tv.apply_augmentation(state, (2, 4), 3)


def _search_states(sq, k):
    """Every state an expansion round reaches just before it picks a
    color, over all rounds of a build. Like the builder, this carries
    one state from round to round and advances it once the caller is
    done with it."""
    state = tv._start_state(sq, k, tv._greedy_init(sq, k))
    while len(state.out_map) < sq.order:
        for layer in itertools.count(2):
            if not state.remaining:
                return
            yield state, layer
            color = tv.choose_color(state)
            state.remaining.remove(color)
            state.spent.append(color)
            edge = tv.expand_layer(state, color)
            if edge is not None:
                tv.apply_augmentation(state, edge, color)
                break


def _reversed_cyclic(n):
    """The cyclic square with its columns reversed: greedy starts far
    short of n here, so every builder runs many augmentations."""
    return build_square([[((r + (n - 1 - c)) % n) + 1 for c in range(n)] for r in range(n)])


def test_color_counts_match_the_per_arc_definition(monkeypatch):
    least = tv._least_forbidden
    results = []

    def recorded(*args, **kwargs):
        results.append(least(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tv, "_least_forbidden", recorded)
    squares = [random_square(n, seed=split_seed(55, 10 * n + trial))
               for n in range(4, 13) for trial in range(4)]
    squares += [_reversed_cyclic(n) for n in (16, 24, 32, 40)]
    seen = 0
    for sq in squares:
        for k in (2, 3):
            for state, layer in _search_states(sq, k):
                # smallest unspent color with the fewest forbidden arcs
                wide = min(state.remaining,
                           key=lambda c: (len(forbidden_edges(state, c)), c))
                assert tv.choose_color(state) == wide
                front = _front(state)
                assert state.reach.keys() == front
                heads = {u: tv._collect_reach(state.out_map, state.b_parent, u, k - 1, narrow=True)
                         for u in front}
                narrow = {c: sum(sq.row_of(u, c) in heads[u] for u in front)
                          for c in state.remaining}
                best = min(state.remaining, key=lambda c: (narrow[c], c))
                results.clear()
                tv._check_color_law(state, layer, sq.order, len(state.out_map))
                assert results == [(best, narrow[best])]
                seen += 1
    assert seen > 150


def _stale_after_first_augmentation(monkeypatch, corrupt):
    """Make the build's first augmentation that minted B vertices leave
    one stale field behind: corrupt(state, before) gets the state just
    after the augmentation and a copy of what it held just before."""
    real = tv.apply_augmentation
    done = []

    def augment(state, edge, color):
        before = {"a_first": state.a_first, "b_parent": dict(state.b_parent),
                  "a_parent": dict(state.a_parent), "reach": dict(state.reach)}
        real(state, edge, color)
        if before["b_parent"] and not done:
            corrupt(state, before)
            done.append(edge)

    monkeypatch.setattr(tv, "apply_augmentation", augment)


def _put_back_a_spent_symbol(state, before):
    insort(state.remaining, tv._cells(state)[0][2])


def _keep_a_minted_arc(state, before):
    b, arc = next(iter(before["b_parent"].items()))
    state.b_parent[b] = arc


def _keep_a_used_column(state, before):
    assert before["a_first"] > state.a_first  # the chain's end column left
    state.a_first = before["a_first"]


def _drop_a_used_column(state, before):
    state.used_cols.discard(tv._cells(state)[0][1])


def _drop_a_used_symbol(state, before):
    state.used_syms.discard(tv._cells(state)[0][2])


def _keep_a_successor_walk(state, before):
    # the successors leave the front, whose members are the reach keys
    successor = min(before["a_parent"])
    assert successor not in state.reach
    state.reach[successor] = before["reach"][successor]


@pytest.mark.parametrize("corrupt, field_name", [
    (_put_back_a_spent_symbol, "remaining"),
    (_keep_a_minted_arc, "b_parent"),
    (_keep_a_used_column, "a_first"),
    (_drop_a_used_column, "used_cols"),
    (_drop_a_used_symbol, "used_syms"),
    (_keep_a_successor_walk, "reach"),
])
def test_check_catches_a_stale_carried_state(monkeypatch, corrupt, field_name):
    sq = _reversed_cyclic(16)
    assert build_short_cycle_free_transversal(sq, 2, check=True)  # clean state passes
    _stale_after_first_augmentation(monkeypatch, corrupt)
    with pytest.raises(InternalInvariantBroken, match=f"stale: {field_name} differs"):
        build_short_cycle_free_transversal(sq, 2, check=True)


def _log_calls(monkeypatch, name, log, fault=None):
    """Log each call of tv.<name> in log. fault(state, call) runs the
    real function through call() and returns True once it has left a
    stale state behind; that call logs "fault" too, and later calls
    run the real function alone."""
    real = getattr(tv, name)

    def wrapped(state, *args):
        log.append(name)
        if fault is None or "fault" in log:
            return real(state, *args)
        result = []
        if fault(state, lambda: result.append(real(state, *args))):
            log.append("fault")
        return result[0]

    monkeypatch.setattr(tv, name, wrapped)


def _bump_a_count(state, call):
    # a stale count entry: the chosen symbol's count one too high
    call()
    state.count[min(state.remaining, key=state.count.__getitem__)] += 1
    return True


def _keep_stale_walks(state, call):
    # minted arcs that invalidate no walk: only the new successors get one
    walked = set(state.reach)
    call()
    dropped = state.stale & walked
    state.stale -= walked
    return any(state.reach[u] != tv._forbidden_tails(state.out_map, state.b_parent, u, state.k)
               for u in dropped)


def _skip_the_rewritten_walks(state, call):
    # an augmentation that walks no front vertex whose walk read a rewritten row
    real_readers = tv._readers
    tv._readers = lambda state, rows: []
    try:
        call()
    finally:
        tv._readers = real_readers
    return any(tails != tv._forbidden_tails(state.out_map, state.b_parent, u, state.k)
               for u, tails in state.reach.items())


@pytest.mark.parametrize("name, fault, after, why", [
    ("choose_color", _bump_a_count, [], r"layer \d+: carried count of symbol \d+ is"),
    ("expand_layer", _keep_stale_walks, ["choose_color"],
     r"layer \d+: carried reach of vertex \d+ differs from a fresh walk"),
    ("apply_augmentation", _skip_the_rewritten_walks, [],
     "carried search state is stale: reach differs from a fresh start"),
])
def test_check_catches_a_stale_carried_walk(monkeypatch, name, fault, after, why):
    sq = _reversed_cyclic(40)
    assert build_short_cycle_free_transversal(sq, 3, check=True)  # clean state passes
    log = []
    for other in {"choose_color", "apply_augmentation"} - {name}:
        _log_calls(monkeypatch, other, log)
    _log_calls(monkeypatch, name, log, fault)
    with pytest.raises(InternalInvariantBroken, match=why):
        build_short_cycle_free_transversal(sq, 3, check=True)
    # caught in the round of the fault, by the first check after it
    assert log[log.index("fault") + 1:] == after


def _skip_the_direct_add(state, call):
    # a minted head left out of its tail's carried set; the count moves
    before = {u: set(tails) for u, tails in state.reach.items()}
    call()
    grown = [u for u in before if state.reach[u] != before[u]]
    for u in grown:
        state.reach[u].intersection_update(before[u])
    return bool(grown)


def _skip_the_count_bump(state, call):
    # a minted head joins its tail's carried set; the count stays
    before = list(state.count)
    call()
    bumped = state.count != before
    state.count[:] = before
    return bumped


def _skip_the_round_reach_copy(state, call):
    # a path beginning's set grows in place with no copy to put back
    kept = set(state.round_reach)
    call()
    copied = state.round_reach.keys() - kept
    for u in copied:
        del state.round_reach[u]
    return bool(copied)


@pytest.mark.parametrize("fault, caught, why", [
    (_skip_the_direct_add, "choose_color",
     r"layer \d+: carried reach of vertex \d+ differs from a fresh walk"),
    (_skip_the_count_bump, "choose_color", r"layer \d+: carried count of symbol \d+ is"),
    (_skip_the_round_reach_copy, "(choose_color expand_layer )*apply_augmentation",
     "carried search state is stale: reach differs from a fresh start"),
], ids=["add", "count", "round_reach"])
def test_check_catches_a_stale_direct_update_at_k2(monkeypatch, fault, caught, why):
    # at k = 2 expand_layer updates the carried sets and counts itself
    sq = _reversed_cyclic(40)
    assert build_short_cycle_free_transversal(sq, 2, check=True)  # clean state passes
    log = []
    _log_calls(monkeypatch, "choose_color", log)
    _log_calls(monkeypatch, "apply_augmentation", log)
    _log_calls(monkeypatch, "expand_layer", log, fault)
    with pytest.raises(InternalInvariantBroken, match=why):
        build_short_cycle_free_transversal(sq, 2, check=True)
    # caught by the first check after the fault: the next layer's front
    # audit, or the audit after that round's augmentation
    assert re.fullmatch(caught, " ".join(log[log.index("fault") + 1:]))


def _keep_a_same_color_far_head(state, u):
    # k = 3: a second arc in the first arc's color read as if rainbow
    for head, color, _ in _arcs_of(state.out_map, state.b_parent, u):
        for far, far_color, _ in _arcs_of(state.out_map, state.b_parent, head):
            if far_color == color and far not in state.reach[u]:
                return state.reach[u] | {far}
    return None


def _drop_the_layer_arc_head(state, u):
    # k = 2: u's layer arc left unread
    arc = state.b_parent.get(u)
    if arc is None or arc[0] in (u, state.out_map.get(u, (None,))[0]):
        return None
    return state.reach[u] - {arc[0]}


@pytest.mark.parametrize("inject, k", [
    (_keep_a_same_color_far_head, 3),
    (_drop_the_layer_arc_head, 2),
], ids=["same-color", "layer-arc"])
def test_front_audit_catches_a_wrong_short_walk(monkeypatch, inject, k):
    # the first wrong in-place reading, its counts moved with it, is
    # caught by the front audit that follows its walk
    real_rewalk, real_audit = tv._rewalk, tv._audit_front
    faulty, audits = [], []

    def rewalk(state, vertices):
        vertices = list(vertices)
        real_rewalk(state, vertices)
        if faulty:
            return
        for u in vertices:
            wrong = inject(state, u)
            if wrong is not None:
                rows, col = state.square.rows, u - 1
                for v in state.reach[u] - wrong:
                    state.count[rows[v - 1][col]] -= 1
                for v in wrong - state.reach[u]:
                    state.count[rows[v - 1][col]] += 1
                state.reach[u] = wrong
                faulty.append((state, u))
                return

    def audit(state, layer):
        if faulty:
            audits.append(layer)
        real_audit(state, layer)

    monkeypatch.setattr(tv, "_rewalk", rewalk)
    monkeypatch.setattr(tv, "_audit_front", audit)
    with pytest.raises(InternalInvariantBroken) as caught:
        build_short_cycle_free_transversal(_reversed_cyclic(32), k, check=True)
    state, u = faulty[0]
    assert str(caught.value) == (
        f"layer {audits[0]}: carried reach of vertex {u} differs from a fresh walk of the front")
    assert len(audits) == 1
    assert state.reach[u] != tv._forbidden_tails(state.out_map, state.b_parent, u, k)


def test_carried_walks_halve_the_walks_of_a_build(monkeypatch):
    # counts, not times: an unchecked order-200 build walked 2,971 front
    # vertices at k = 2 and 3,130 at k = 3 when every layer walked the
    # whole front
    real = tv._rewalk
    walked = []

    def counted(state, vertices):
        vertices = list(vertices)
        walked.extend(vertices)
        real(state, vertices)

    monkeypatch.setattr(tv, "_rewalk", counted)
    for k, before in ((2, 2971), (3, 3130)):
        walked.clear()
        build_short_cycle_free_transversal(_reversed_cyclic(200), k)
        assert 0 < len(walked) <= before // 2, (k, len(walked))


def _arcs_of(out_map, b_parent, v):
    """v's arcs as (head, color, is its cell): its cell, then its layer arc."""
    return [(*arcs[v], arcs is out_map) for arcs in (out_map, b_parent) if v in arcs]


def _recursive_reach(out_map, b_parent, u, limit, narrow):
    """_collect_reach as the recursive walk it once was, kept as a
    reference for the iterative one."""
    found = set()
    if limit <= 0:
        return found
    on_path = {u}
    used_colors = set()

    def walk(vertex, depth):
        for head, color, cell in _arcs_of(out_map, b_parent, vertex):
            if head in on_path or color in used_colors:
                continue
            if not narrow:
                found.add(head)
            elif depth + 1 >= 2 and cell:
                found.add(head)
            if depth + 1 < limit:
                on_path.add(head)
                used_colors.add(color)
                walk(head, depth + 1)
                on_path.discard(head)
                used_colors.discard(color)

    walk(u, 0)
    return found


def _seeded_arc_maps():
    """Sixty small (order, out_map, b_parent) triples: at most a cell and
    a layer arc per vertex, as in a build, in few colors, so rainbow
    paths get cut; loops and repeats allowed."""
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        out_map, b_parent = ({v: (rng.randint(1, n), rng.randint(1, 4))
                              for v in range(1, n + 1) if rng.random() < share}
                             for share in (0.9, 0.5))
        yield n, out_map, b_parent


def test_collect_reach_matches_the_recursive_walk():
    checked = 0
    for n, out_map, b_parent in _seeded_arc_maps():
        for u in range(1, n + 1):
            for limit in range(7):
                for narrow in (False, True):
                    got = tv._collect_reach(out_map, b_parent, u, limit, narrow)
                    assert got == _recursive_reach(out_map, b_parent, u, limit, narrow)
                    checked += bool(got)
    assert checked > 1000


def test_the_recursive_walk_comparison_reads_short_walks_directly():
    # _rewalk reads walks of one and two arcs (k = 2 and 3) in place: on
    # the arc maps above each set is u and the heads the recursive walk
    # finds, and each exclusion of that walk decides some head: a loop
    # at u, an arc back to u and a second arc in the first arc's color
    # (a loop at the middle vertex leads to a head found already)
    decided = {"loop": 0, "back": 0, "color": 0}
    for n, out_map, b_parent in _seeded_arc_maps():
        for limit in (1, 2):
            state = tv.TransversalSearchState(
                square=cyclic_square(n), k=limit + 1, out_map=out_map, used_cols=set(),
                used_syms=set(), a_first=frozenset(), b_parent=b_parent, count=[0] * (n + 1))
            tv._rewalk(state, range(1, n + 1))
            assert state.count == tv._tally(state.square, state.reach)
            for u in range(1, n + 1):
                found = _recursive_reach(out_map, b_parent, u, limit, False)
                assert state.reach[u] == found | {u}, (u, limit)
                arcs = _arcs_of(out_map, b_parent, u)
                decided["loop"] += any(head == u for head, _, _ in arcs)
                for head, color, _ in arcs:
                    if limit == 1 or head == u:
                        continue
                    for far, far_color, _ in _arcs_of(out_map, b_parent, head):
                        if far not in found:
                            rule = ("back" if far == u else "color" if far_color == color
                                    else None)
                            assert rule is not None, (u, limit, far)
                            decided[rule] += 1
    assert min(decided.values()) > 20, decided


def test_collect_reach_walks_paths_past_the_recursion_limit():
    # one 3,000-cell path 0 -> 1 -> ... -> 3000 in distinct colors
    out_map = {v: (v + 1, v) for v in range(3000)}
    assert tv._collect_reach(out_map, {}, 0, 2999, narrow=False) == set(range(1, 3000))
    assert tv._collect_reach(out_map, {}, 0, 2999, narrow=True) == set(range(2, 3000))


def test_local_check_agrees_with_full_validation(monkeypatch):
    # every augmentation of seeded builds, and every other column or
    # symbol for each row it rewrites: the local check accepts exactly
    # when the whole transversal validates
    local = tv._rewrite_fault
    kinds = {True: 0}

    def agree(state, rewritten, old):
        sq = state.square
        why = local(state, rewritten, old)
        assert why is None
        assert validate_transversal(sq, tv._cells(state), forbid_cycles_up_to=state.k)[0]
        kinds[True] += 1
        for r, cell in rewritten.items():
            changes = [(c, sq.entry(r, c)) for c in range(1, sq.order + 1)]
            changes += [(cell[0], s) for s in range(1, sq.order + 1)]
            for change in changes:
                state.out_map[r] = change
                ok, _ = validate_transversal(sq, tv._cells(state), forbid_cycles_up_to=state.k)
                fault = local(state, {**rewritten, r: change}, old)
                assert (fault is None) == ok, (r, change, fault)
                kind = True if ok else fault.split()[0]
                kinds[kind] = kinds.get(kind, 0) + 1
            state.out_map[r] = cell
        return why

    monkeypatch.setattr(tv, "_rewrite_fault", agree)
    squares = [random_square(n, seed=split_seed(56, 10 * n + trial))
               for n in range(4, 13) for trial in range(3)]
    squares += [_reversed_cyclic(n) for n in (16, 24, 32, 40)]
    for sq in squares:
        for k in (2, 3):
            assert build_short_cycle_free_transversal(sq, k) == (
                build_short_cycle_free_transversal(sq, k, check=True))
    assert set(kinds) == {True, "column", "cell", "symbol", "cycle"}
    assert min(kinds.values()) > 20


def _chain_rows(state, head):
    """The chain rows an augmentation into head rewrites, deepest last."""
    chain = []
    while head not in state.a_first:
        chain.append(state.a_parent[head])
        head = state.b_parent[chain[-1]][0]
    return chain


def _onto_a_used_column(state, edge, color):
    # the deepest chain row lands on a column a kept row holds, which a
    # stale a_first passes off as a path beginning
    chain = _chain_rows(state, edge[1])
    if not chain:
        return None
    b = chain[-1]
    x = min(c for r, (c, _) in state.out_map.items() if r not in chain)
    state.b_parent[b] = (x, state.square.entry(b, x))
    state.a_first = state.a_first | {x}
    return edge, color


def _reusing_a_symbol(state, edge, color):
    # an augmenting arc between a path end and a path beginning whose
    # symbol some cell already holds
    for v in [r for r in range(1, state.square.order + 1) if r not in state.out_map]:
        for u in sorted(state.a_first):
            s = state.square.entry(v, u)
            if s in state.used_syms:
                return (v, u), s
    return None


def _closing_a_cycle_of(length):
    def inject(state, edge, color):
        # an augmenting arc back from the end of a path of length - 1
        # arcs to its beginning, in an unused symbol
        for u in sorted(state.a_first):
            path = [u]
            while path[-1] in state.out_map:
                path.append(state.out_map[path[-1]][0])
            s = state.square.entry(path[-1], u)
            if len(path) == length and s not in state.used_syms:
                return (path[-1], u), s
        return None
    return inject


@pytest.mark.parametrize("inject, sq, k, start, why", [
    (_onto_a_used_column, _reversed_cyclic(16), 2, None, "column"),
    (_reusing_a_symbol, _reversed_cyclic(16), 2, None, "symbol"),
    # greedy leaves the path 4 -> 9 here, and entry(9, 4) is unused
    (_closing_a_cycle_of(2), random_square(9, seed=9), 2, None, "cycle of length 2"),
    # the path 1 -> 2 -> 3 in symbols 2 and 4, closed by 3 -> 1 in 3
    (_closing_a_cycle_of(3), cyclic_square(9), 3, [(1, 2, 2), (2, 3, 4)], "cycle of length 3"),
])
def test_local_check_catches_injected_faults(monkeypatch, inject, sq, k, start, why):
    if start is not None:
        monkeypatch.setattr(tv, "_greedy_init", lambda square, k: start)
    real = tv.apply_augmentation
    faulty = []

    def augment(state, edge, color):
        if not faulty:
            injected = inject(state, edge, color)
            if injected is not None:
                faulty.append(state)
                edge, color = injected
        real(state, edge, color)

    monkeypatch.setattr(tv, "apply_augmentation", augment)
    with pytest.raises(InternalInvariantBroken, match=f"augmented transversal invalid: {why}"):
        build_short_cycle_free_transversal(sq, k, check=False)
    assert not validate_transversal(sq, tv._cells(faulty[0]), forbid_cycles_up_to=k)[0]


def test_unchecked_build_validates_only_its_result(monkeypatch):
    calls = []
    full = tv.validate_transversal

    def counted(*args, **kwargs):
        calls.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(tv, "validate_transversal", counted)
    stats = {}
    build_short_cycle_free_transversal(_reversed_cyclic(40), 3, stats=stats)
    assert stats["augmentations"] > 5
    assert len(calls) == 1


def test_builders_output_is_pinned():
    # tie-breaking drift in any builder changes this digest
    squares = [_reversed_cyclic(n) for n in (60, 101, 150)]
    squares += [random_square(n, seed=n) for n in range(2, 13)]
    digest = hashlib.sha256()
    for sq in squares:
        for result in (build_short_cycle_free_transversal(sq, 2, check=True),
                       build_short_cycle_free_transversal(sq, 3, check=True),
                       cycle_free_transversal(sq, check=True)):
            digest.update(repr(tuple(result)).encode())
    assert digest.hexdigest() == (
        "a943d1701e5d6007af4ceac3cd91d1050b02caf0d1baae5f82f6d4e94e7599b4")


def test_depth_first_walk_builds_are_pinned():
    # the wide walks of k ≥ 4 go depth-first, and the digest above takes
    # none of them; the shuffled squares run 13–32 augmentations a build
    squares = [_shuffled_cyclic(n, n) for n in (60, 101, 150)]
    squares += [random_square(n, seed=n) for n in range(2, 13)]
    digest = hashlib.sha256()
    for sq in squares:
        for k in (4, 5, 6):
            for check in (False, True):
                result = build_short_cycle_free_transversal(sq, k, check=check)
                digest.update(repr(result).encode())
    assert digest.hexdigest() == (
        "6f49f8ed9ad57232b030446e6aa2f2980804abc0485ae6521b41e443e2904878")


def test_cycle_free_output_has_no_cycles_at_all():
    for n in (1, 2, 5, 8, 13, 20):
        sq = random_square(n, seed=split_seed(77, n))
        t = cycle_free_transversal(sq)
        ok, why = validate_transversal(sq, t, forbid_cycles_up_to=math.inf)
        assert ok, why
        dec = cycles_of(sq, list(t))
        assert dec.cycles == ()


def test_cycle_free_stats_shape():
    sq = cyclic_square(9)
    stats = {}
    t = cycle_free_transversal(sq, check=True, stats=stats)
    assert set(stats) == {"initial", "augmentations", "cycles_removed"}
    short = build_short_cycle_free_transversal(sq, default_cycle_bound(9))
    assert stats["initial"] + stats["augmentations"] == len(short)
    assert stats["cycles_removed"] == len(cycles_of(sq, list(short)).cycles)
    assert len(short) - stats["cycles_removed"] <= len(t)


def _growing_exchange(sq, cells):
    """Brute force: a free cell, or two cells traded for one, that
    enlarges cells without a repeat or a cycle; None when there is none."""
    n = sq.order
    for dropped in [None] + cells:
        rest = [cell for cell in cells if cell != dropped]
        rows = {r for r, _, _ in rest}
        cols = {c for _, c, _ in rest}
        syms = {s for _, _, s in rest}
        free = [(r, c, sq.entry(r, c)) for r in range(1, n + 1) for c in range(1, n + 1)
                if r not in rows and c not in cols and sq.entry(r, c) not in syms]
        width = 1 if dropped is None else 2
        for added in itertools.combinations(free, width):
            if validate_transversal(sq, rest + list(added), forbid_cycles_up_to=math.inf)[0]:
                return dropped, added
    return None


def _reference_free_cells(square, rows, cols, syms):
    """Cells of the square in the given rows and columns holding one of
    the given symbols."""
    found = []
    for r in rows:
        for s in syms:
            c = square.col_of(r, s)
            if c in cols:
                found.append((r, c, s))
    return found


def _reference_find_exchange(square, cells):
    """_find_exchange as the scan it once was, kept as a reference for
    the indexed search: every dropped cell looks up its candidate cells
    again, one col_of call per row and symbol it tries."""
    n = square.order
    used_rows = {r for r, _, _ in cells}
    used_cols = {c for _, c, _ in cells}
    used_syms = {s for _, _, s in cells}
    free_rows = [r for r in range(1, n + 1) if r not in used_rows]
    free_cols = {c for c in range(1, n + 1) if c not in used_cols}
    free_syms = [s for s in range(1, n + 1) if s not in used_syms]
    if not free_rows:
        return None
    where = {v: (v, 0) for v in range(1, n + 1)}  # vertex -> (its path's start, position)
    for path in cycles_of(square, cells).paths:
        for pos, (_, c, _) in enumerate(path, start=1):
            where[c] = (path[0][0], pos)
    free = sorted(_reference_free_cells(square, free_rows, free_cols, free_syms))
    for cell in free:
        if where[cell[0]][0] != cell[1]:
            return None, [cell]
    for dropped in sorted(cells):
        r0, c0, s0 = dropped
        split_path, split_pos = where[r0]

        def start_of(v):
            path, pos = where[v]
            return c0 if path == split_path and pos > split_pos else path

        syms = free_syms + [s0]
        freed = (_reference_free_cells(square, [r0], free_cols | {c0}, syms)
                 + _reference_free_cells(square, free_rows, {c0}, syms)
                 + _reference_free_cells(square, free_rows, free_cols, [s0]))
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


def _shuffled_cyclic(n, seed):
    """The cyclic square of order n with its columns permuted by seed."""
    cols = random.Random(seed).sample(range(n), n)
    return build_square([[(r + c) % n + 1 for c in cols] for r in range(n)])


def test_find_exchange_matches_the_reference_at_every_step(monkeypatch):
    real = tv._find_exchange
    kinds = {"add": 0, "trade": 0, "none": 0}

    def compared(square, cells):
        move = real(square, cells)
        assert move == _reference_find_exchange(square, cells), (square.order, len(cells))
        kinds["none" if move is None else "add" if move[0] is None else "trade"] += 1
        return move

    monkeypatch.setattr(tv, "_find_exchange", compared)
    squares = [cyclic_square(n) for n in range(1, 61)]
    squares += [random_square(n, seed=split_seed(23, n)) for n in range(1, 25)]
    squares += [_reversed_cyclic(n) for n in (40, 60)]
    squares += [_shuffled_cyclic(n, seed) for seed, n in enumerate((200, 250, 300, 350, 400))]
    for sq in squares:
        cycle_free_transversal(sq)
    # every pass ends on a move-less search; both kinds of move occur
    assert kinds["none"] == len(squares)
    assert kinds["add"] > 5 and kinds["trade"] > 20, kinds


@st.composite
def acyclic_cell_sets(draw):
    """A small random square and a cycle-free partial transversal of it,
    taken greedily from a drawn list of cells."""
    n = draw(st.integers(1, 8))
    sq = random_square(n, seed=draw(st.integers(0, 2**32)))
    picks = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    col_by_row, cols, syms = {}, set(), set()
    for r, c in picks:
        s = sq.entry(r, c)
        if r in col_by_row or c in cols or s in syms:
            continue
        if _closes_short_cycle(col_by_row, r, c, math.inf):
            continue
        col_by_row[r] = c
        cols.add(c)
        syms.add(s)
    return sq, [(r, c, sq.entry(r, c)) for r, c in col_by_row.items()]


@settings(max_examples=300, deadline=None)
@given(acyclic_cell_sets())
def test_find_exchange_matches_the_reference_on_acyclic_cell_sets(case):
    sq, cells = case
    assert tv._find_exchange(sq, cells) == _reference_find_exchange(sq, cells)


def test_unchecked_cycle_free_validates_the_build_and_the_result_only(monkeypatch):
    calls = []
    full = tv.validate_transversal

    def counted(*args, **kwargs):
        calls.append(kwargs["forbid_cycles_up_to"])
        return full(*args, **kwargs)

    moves = []
    find = tv._find_exchange

    def recorded(square, cells):
        moves.append(find(square, cells))
        return moves[-1]

    monkeypatch.setattr(tv, "validate_transversal", counted)
    monkeypatch.setattr(tv, "_find_exchange", recorded)
    sq = _shuffled_cyclic(200, 0)
    k = default_cycle_bound(sq.order)
    cycle_free_transversal(sq)
    assert len(moves) > 5 and moves[-1] is None
    assert calls == [k, math.inf]  # the builder's result, then the final one
    calls.clear()
    moves.clear()
    stats = {}
    cycle_free_transversal(sq, check=True, stats=stats)
    # under check=True: every augmentation, the builder's result, every move, the final one
    assert calls == [k] * (stats["augmentations"] + 1) + [math.inf] * len(moves)


def _closing_free_cell(square, cells):
    """A 0-for-1 move whose cell is free in cells but closes a cycle."""
    n = square.order
    col_by_row = {r: c for r, c, _ in cells}
    cols = set(col_by_row.values())
    syms = {s for _, _, s in cells}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            s = square.entry(r, c)
            if r in col_by_row or c in cols or s in syms:
                continue
            if _closes_short_cycle(col_by_row, r, c, math.inf):
                return None, [(r, c, s)]
    return None


@pytest.mark.parametrize("check, why", [
    (False, "cycle-free transversal invalid: cycle of length"),
    (True, r"exchange move \(None, \[\(\d+, \d+, \d+\)\]\) invalid: cycle of length"),
], ids=["unchecked", "checked"])
def test_an_exchange_move_that_closes_a_cycle_is_caught(monkeypatch, check, why):
    moves = []

    def closing(square, cells):
        # the first search returns a move closing a cycle, later ones none
        moves.append(None if moves else _closing_free_cell(square, cells))
        assert moves[0] is not None
        return moves[-1]

    monkeypatch.setattr(tv, "_find_exchange", closing)
    with pytest.raises(InternalInvariantBroken, match=why):
        cycle_free_transversal(_shuffled_cyclic(200, 0), check=check)
    assert len(moves) == 1 + (not check)


def test_cycle_free_output_admits_no_growing_exchange():
    squares = [(f"cyclic-{n}", cyclic_square(n)) for n in range(1, 21)]
    squares += [(f"random-{n}-{trial}", random_square(n, seed=split_seed(91, 10 * n + trial)))
                for n in range(1, 11) for trial in range(3)]
    for label, sq in squares:
        t = cycle_free_transversal(sq)
        ok, why = validate_transversal(sq, t, forbid_cycles_up_to=math.inf)
        assert ok, f"{label}: {why}"
        assert _growing_exchange(sq, list(t)) is None, label


def test_cycle_free_on_the_witness_square():
    t = cycle_free_transversal(witness_square_4())
    assert len(t) == 2  # no cycle-free set of 3 or 4 cells exists here
