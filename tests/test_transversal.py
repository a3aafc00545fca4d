"""Short-cycle-free and fully cycle-free partial transversals."""

import hashlib
import itertools
import math
from bisect import insort

import pytest

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
    random_square,
    split_seed,
    theorem_bound,
    validate_transversal,
    witness_square_4,
)
from rainbowmatch import transversal as tv
from rainbowmatch.arith import int_kth_root


def forbidden_edges(state, color):
    """The forbidden color-colored arcs into the current A-front: arc
    v -> u could close a cycle of length ≤ k when it is a loop or some
    rainbow path u ~> v of ≤ k-1 arcs already exists."""
    out = set()
    for u in state.a_set:
        v = state.square.row_of(u, color)
        if v == u or v in tv._collect_reach(state.arcs_out, u, state.k - 1, narrow=False):
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


def test_rejects_cycle_bound_below_two():
    with pytest.raises(PreconditionViolated):
        build_short_cycle_free_transversal(cyclic_square(4), 1)


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
    assert sorted(state.b_first) == [2, 4]
    assert sorted(state.remaining) == [3, 4]
    assert tv.choose_color(state)[0] == 3
    assert forbidden_edges(state, 4) == {(2, 3), (4, 1)}

    grew = []
    for color in (3, 4):
        before = len(state.b_set)
        _, reach = tv.choose_color(state)
        state.remaining.remove(color)
        assert tv.expand_layer(state, color, reach) is None
        grew.append(len(state.b_set) - before)
    assert grew == [2, 0]
    assert sorted(state.a_set) == [1, 2, 3, 4]
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
    while len(state.cells) < sq.order:
        for layer in itertools.count(2):
            if not state.remaining:
                return
            yield state, layer
            color, reach = tv.choose_color(state)
            state.remaining.remove(color)
            state.spent.append(color)
            edge = tv.expand_layer(state, color, reach)
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
                assert tv.choose_color(state)[0] == wide
                heads = {u: tv._collect_reach(state.arcs_out, u, k - 1, narrow=True)
                         for u in state.a_set}
                narrow = {c: sum(sq.row_of(u, c) in heads[u] for u in state.a_set)
                          for c in state.remaining}
                best = min(state.remaining, key=lambda c: (narrow[c], c))
                results.clear()
                tv._check_color_law(state, layer, sq.order, len(state.cells))
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
        before = {"a_first": state.a_first, "b_parent": dict(state.b_parent)}
        real(state, edge, color)
        if before["b_parent"] and not done:
            corrupt(state, before)
            done.append(edge)

    monkeypatch.setattr(tv, "apply_augmentation", augment)


def _put_back_a_spent_symbol(state, before):
    insort(state.remaining, state.cells[0][2])


def _keep_a_minted_arc(state, before):
    b, (head, color) = next(iter(before["b_parent"].items()))
    state.arcs_out[b].append((head, color, False))


def _keep_a_used_column(state, before):
    assert before["a_first"] > state.a_first  # the chain's end column left
    state.a_first = before["a_first"]


@pytest.mark.parametrize("corrupt, field_name", [
    (_put_back_a_spent_symbol, "remaining"),
    (_keep_a_minted_arc, "arcs_out"),
    (_keep_a_used_column, "a_first"),
])
def test_check_catches_a_stale_carried_state(monkeypatch, corrupt, field_name):
    sq = _reversed_cyclic(16)
    assert build_short_cycle_free_transversal(sq, 2, check=True)  # clean state passes
    _stale_after_first_augmentation(monkeypatch, corrupt)
    with pytest.raises(InternalInvariantBroken, match=f"stale: {field_name} differs"):
        build_short_cycle_free_transversal(sq, 2, check=True)


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
