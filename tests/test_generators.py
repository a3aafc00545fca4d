"""Seeded instance generators."""

import hashlib
import random

import pytest

from rainbowmatch import (
    InfeasibleParameters,
    build_graph,
    build_square,
    cyclic_square,
    k4_factorization_pair,
    min_degree,
    random_proper_graph,
    random_square,
    split_seed,
    witness_square_4,
)
from rainbowmatch.generators import _below, _shuffled


def test_split_seed_is_deterministic_and_spread():
    a = [split_seed(7, i) for i in range(50)]
    b = [split_seed(7, i) for i in range(50)]
    assert a == b
    assert len(set(a)) == 50
    assert split_seed(7, 0) != split_seed(8, 0)


def test_cyclic_square_is_latin():
    for n in (1, 2, 3, 7, 12):
        sq = cyclic_square(n)
        assert sq.order == n
        build_square(sq.rows)  # revalidates shape and the Latin property


def test_witness_square_4_layout():
    sq = witness_square_4()
    assert sq.rows == ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))
    build_square(sq.rows)


def test_random_square_is_latin_and_seeded():
    for n in (1, 2, 4, 6, 9):
        sq = random_square(n, seed=11)
        assert sq.order == n
        build_square(sq.rows)
        assert random_square(n, seed=11).rows == sq.rows
    assert random_square(6, seed=1).rows != random_square(6, seed=2).rows


def test_random_square_departs_from_cyclic():
    hits = sum(
        random_square(7, seed=s).rows == cyclic_square(7).rows for s in range(10)
    )
    assert hits == 0


def test_random_proper_graph_hits_exact_min_degree():
    for n, target, seed in ((7, 2, 0), (12, 4, 3), (9, 3, 8), (20, 6, 5)):
        g = random_proper_graph(n, target, seed=seed)
        assert g.vertex_count == n
        assert min_degree(g) == target


def test_random_proper_graph_is_seeded():
    a = random_proper_graph(10, 3, seed=4)
    b = random_proper_graph(10, 3, seed=4)
    assert a.edges == b.edges
    c = random_proper_graph(10, 3, seed=5)
    assert a.edges != c.edges


def test_random_proper_graph_rejects_impossible_parameters():
    with pytest.raises(InfeasibleParameters):
        random_proper_graph(5, 5, seed=0)
    with pytest.raises(InfeasibleParameters):
        random_proper_graph(1, 0, seed=0)
    with pytest.raises(InfeasibleParameters):
        random_proper_graph(6, -1, seed=0)


def test_k4_factorization_pair_shape():
    g = k4_factorization_pair()
    assert g.vertex_count == 8
    assert len(g.edges) == 12
    assert min_degree(g) == 3
    assert len({c for _, _, c in g.edges}) == 6
    # two components of four vertices, each a properly 3-colored K4
    for v in range(1, 5):
        assert set(g.neighbors(v)) == {1, 2, 3, 4} - {v}
    for v in range(5, 9):
        assert set(g.neighbors(v)) == {5, 6, 7, 8} - {v}


def test_generator_outputs_are_pinned():
    # any change to the random stream or to the walk changes this digest
    with pytest.raises(InfeasibleParameters):
        random_square(-1, 0)
    digest = hashlib.sha256()
    for n in range(13):
        for seed in (0, 1, 11):
            digest.update(repr(random_square(n, seed).rows).encode())
    for n in (30, 49, 64, 100):
        # criterion 5's trial-0 seed for this order
        sq = random_square(n, split_seed(20260814 + 5, n * 100))
        digest.update(repr(sq.rows).encode())
    for n, target, seed in ((2, 1, 0), (2, 1, 5), (7, 1, 3), (12, 4, 3),
                            (41, 10, 7), (121, 30, 101)):
        digest.update(repr(random_proper_graph(n, target, seed).edges).encode())
    assert digest.hexdigest() == (
        "d288289ee1956ee9a2db5bd1ffd161cee51ad9ca1fb1ee8e50ba8c09b4f6a4fb")


def test_below_matches_randrange_draw_for_draw():
    # the generators copy randrange's rejection rule; a CPython change to
    # it would show here before it silently changed every seeded instance
    for m in (1, 2, 3, 5, 35, 48, 2401, 4096, 10000):
        for seed in (0, 1, 11):
            ours, theirs = random.Random(seed), random.Random(seed)
            drawn = [_below(ours.getrandbits, m) for _ in range(200)]
            assert drawn == [theirs.randrange(m) for _ in range(200)], (m, seed)
            assert ours.getstate() == theirs.getstate(), (m, seed)


def _reference_proper_graph(n, target, seed, fallbacks):
    """The set-based generator that random_proper_graph must match edge for
    edge: a Fisher-Yates on _below, a used-color set per vertex and a scan
    for the smallest color free at both ends. Appends to fallbacks each
    vertex that the pairing rounds left short of target."""
    getrandbits = random.Random(seed).getrandbits

    def shuffled(items):
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = _below(getrandbits, i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    adj = {v: set() for v in range(1, n + 1)}
    deficient = {v for v in adj if target > 0}
    edges = []

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v) if u < v else (v, u))
        for x in (u, v):
            if len(adj[x]) >= target:
                deficient.discard(x)

    for _ in range(8 * (target + 1) + 32):
        if not deficient:
            break
        order = shuffled(list(range(1, n + 1)))
        for i in range(0, n - 1, 2):
            u, v = order[i], order[i + 1]
            if v in adj[u]:
                continue
            if u not in deficient and v not in deficient:
                continue
            add(u, v)
            if not deficient:
                break
    while deficient:
        v = min(deficient)
        fallbacks.append(v)
        candidates = [w for w in range(1, n + 1) if w != v and w not in adj[v]]
        pick = min((w for w in candidates if w in deficient), default=None)
        if pick is None:
            pick = candidates[0]
        add(v, pick)

    colored = []
    used = {v: set() for v in range(1, n + 1)}
    for u, v in shuffled(sorted(edges)):
        c = 1
        while c in used[u] or c in used[v]:
            c += 1
        used[u].add(c)
        used[v].add(c)
        colored.append((u, v, c))
    return build_graph(n, colored)


def test_random_proper_graph_matches_set_based_reference():
    # the matching workload's shapes (4d - 3 + spread vertices, degree d),
    # degree 0, complete graphs (n - 1; these seeds leave vertices short
    # after the pairing rounds), two vertices and odd orders
    shapes = [(4 * d - 3 + spread, d) for d in (30, 60, 90) for spread in (0, 13)]
    shapes += [(10, 0), (9, 0), (40, 39), (71, 70), (2, 0), (2, 1), (7, 3), (41, 10)]
    seeds = {(40, 39): (9, 20, 1), (71, 70): (0, 2, 7)}
    fallbacks = []
    for n, target in shapes:
        for seed in seeds.get((n, target), (0, 7, 101)):
            expected = _reference_proper_graph(n, target, seed, fallbacks)
            assert random_proper_graph(n, target, seed) == expected, (n, target, seed)
    assert len(fallbacks) >= 5


def test_shuffled_matches_fisher_yates_on_below():
    for size in (0, 1, 2, 3, 17, 100, 357):
        for seed in (0, 1, 11):
            ours, theirs = random.Random(seed), random.Random(seed)
            items = list(range(size))
            expected = list(items)
            for i in range(size - 1, 0, -1):
                j = _below(theirs.getrandbits, i + 1)
                expected[i], expected[j] = expected[j], expected[i]
            assert _shuffled(ours.getrandbits, items) == expected, (size, seed)
            assert items == list(range(size))
            assert ours.getstate() == theirs.getstate(), (size, seed)
