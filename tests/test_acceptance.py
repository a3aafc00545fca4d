"""Acceptance gate: the package's contract, one test per criterion.

Each test records a single pass/fail line in acceptance_report.py,
which the terminal-summary hook in conftest.py prints, independent of
pytest's own verdict lines.
"""

import contextlib
import math
import time

from acceptance_report import record_criterion

from rainbowmatch import (
    OracleBudget,
    PreconditionViolated,
    build_graph,
    build_short_cycle_free_transversal,
    cycle_free_transversal,
    cycles_of,
    cyclic_square,
    find_rainbow_matching_delta,
    find_rainbow_matching_layered,
    guaranteed_size,
    k4_factorization_pair,
    max_cyclefree_transversal_exact,
    max_rainbow_matching_exact,
    max_transversal_exact,
    min_degree,
    random_proper_graph,
    random_square,
    split_seed,
    theorem_bound,
    to_bipartite_factorization,
    validate_rainbow_matching,
    validate_transversal,
    witness_square_4,
)
from rainbowmatch.cli import main as cli_main

MASTER = 20260814


@contextlib.contextmanager
def report(number):
    """Record PASS on clean exit, FAIL (with the reason) otherwise."""
    holder = type("Holder", (), {"detail": ""})()
    try:
        yield holder
    except BaseException as exc:
        reason = str(exc).splitlines()[0][:160] if str(exc) else type(exc).__name__
        record_criterion(number, False, reason)
        raise
    record_criterion(number, True, holder.detail)


def test_criterion_1_exact_delta_matchings_at_speed():
    # 200 seeded instances, degrees 2..6, vertex counts 4d-3 .. 4d+10:
    # the solver must return a validated rainbow matching of size
    # exactly the minimum degree, within 60 seconds overall
    with report(1) as r:
        started = time.perf_counter()
        runs = 0
        for delta in (2, 3, 4, 5, 6):
            for trial in range(40):
                seed = split_seed(MASTER, delta * 1000 + trial)
                n = 4 * delta - 3 + seed % 14
                g = random_proper_graph(n, delta, seed=seed)
                assert min_degree(g) == delta
                m = find_rainbow_matching_delta(g, check=True)
                ok, why = validate_rainbow_matching(g, m)
                assert ok, f"delta={delta} trial={trial}: {why}"
                assert len(m) == delta, f"delta={delta} trial={trial}: got {len(m)}"
                runs += 1
        elapsed = time.perf_counter() - started
        assert runs == 200
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
        r.detail = f"200/200 exact, {elapsed:.1f}s"


def test_criterion_2_tightness_fixtures():
    # small graphs where one fewer vertex kills the guarantee: the
    # two-colored C4 caps at 1 and the disjoint K4 pair at 2
    with report(2) as r:
        c4 = build_graph(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 2)])
        assert len(max_rainbow_matching_exact(c4)) == 1
        pair = k4_factorization_pair()
        assert len(max_rainbow_matching_exact(pair)) == 2
        r.detail = "C4 max 1, K4 pair max 2"


def test_criterion_3_layered_bound_on_factorizations():
    # bipartite factorization views, orders 8/16/27/32, 20 seeds each:
    # layered matchings reach the guaranteed size with invariant checks on
    with report(3) as r:
        expected = {8: 0, 16: 4, 27: 9, 32: 12}
        assert {n: guaranteed_size(n) for n in expected} == expected
        started = time.perf_counter()
        worst = math.inf
        for n in (8, 16, 27, 32):
            for trial in range(20):
                seed = split_seed(MASTER + 3, n * 100 + trial)
                g = to_bipartite_factorization(random_square(n, seed=seed))
                m = find_rainbow_matching_layered(g, check=True)
                ok, why = validate_rainbow_matching(g, m)
                assert ok, f"n={n} trial={trial}: {why}"
                assert len(m) >= expected[n], f"n={n} trial={trial}: {len(m)}"
                worst = min(worst, len(m) - expected[n])
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
        r.detail = f"80/80 over bound (margin >= {worst}), {elapsed:.1f}s"


def test_criterion_4_oracle_equivalence_small_graphs():
    # 50 graphs of at most 12 edges: both matchers stay within the
    # exact optimum; the delta matcher is exactly optimal whenever its
    # vertex-count precondition holds (the optimum is delta there)
    with report(4) as r:
        shapes = [(1, 4), (2, 5), (2, 7), (3, 7), (1, 2), (2, 8),
                  (3, 8), (2, 6), (1, 5), (3, 9), (2, 9), (1, 6)]
        collected = 0
        idx = 0
        exact_hits = 0
        while collected < 50:
            target, n = shapes[idx % len(shapes)]
            seed = split_seed(MASTER + 4, idx)
            idx += 1
            g = random_proper_graph(n, target, seed=seed)
            if len(g.edges) > 12:
                continue
            collected += 1
            best = len(max_rainbow_matching_exact(g))
            delta = min_degree(g)
            m = find_rainbow_matching_layered(g, check=True)
            ok, why = validate_rainbow_matching(g, m)
            assert ok, why
            assert len(m) <= best
            if g.vertex_count >= 4 * delta - 3:
                d = find_rainbow_matching_delta(g, check=True)
                ok, why = validate_rainbow_matching(g, d)
                assert ok, why
                assert len(d) <= best
                assert len(d) == delta
                exact_hits += 1
        assert exact_hits >= 25  # the mix must actually exercise the matcher
        r.detail = f"50 graphs, {exact_hits} delta-exact"


def test_criterion_5_short_cycle_free_bound():
    # orders 49/64/100 at k=2, ten seeds each: no cycle of length <= 2
    # and at least 7/16/40 cells; order 216 at k=3 once, validity only
    with report(5) as r:
        expected = {49: 7, 64: 16, 100: 40}
        assert {n: theorem_bound(n, 2) for n in expected} == expected
        started = time.perf_counter()
        for n in (49, 64, 100):
            for trial in range(10):
                seed = split_seed(MASTER + 5, n * 100 + trial)
                sq = random_square(n, seed=seed)
                t = build_short_cycle_free_transversal(sq, 2, check=True)
                ok, why = validate_transversal(sq, t, forbid_cycles_up_to=2)
                assert ok, f"n={n} trial={trial}: {why}"
                assert len(t) >= expected[n], f"n={n} trial={trial}: {len(t)}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
        sq = random_square(216, seed=split_seed(MASTER + 5, 216))
        assert theorem_bound(216, 3) == 0
        t = build_short_cycle_free_transversal(sq, 3, check=True)
        ok, why = validate_transversal(sq, t, forbid_cycles_up_to=3)
        assert ok, why
        r.detail = f"30/30 over bound in {elapsed:.1f}s; 216@k=3 size {len(t)}"


def test_criterion_6_cycle_free_outputs():
    # three clauses: every tested square in 1..100 comes back with zero
    # cycles; on orders <= 7 the output must stay within the removal
    # count of the exact cycle-free optimum; the 4x4 witness yields
    # exactly 2 = optimum = order - 2
    with report(6) as r:
        problems = []

        def run_square(label, sq, compare_oracle):
            stats = {}
            t = cycle_free_transversal(sq, stats=stats)
            ok, why = validate_transversal(sq, t, forbid_cycles_up_to=math.inf)
            if not ok:
                problems.append(f"{label}: invalid ({why})")
                return t
            dec = cycles_of(sq, list(t))
            if dec.cycles != ():
                problems.append(f"{label}: cycles remain")
            if compare_oracle:
                best = len(max_cyclefree_transversal_exact(sq, k=math.inf))
                floor = best - stats["cycles_removed"]
                if len(t) < floor:
                    problems.append(
                        f"{label}: size {len(t)} < oracle {best} - removed"
                        f" {stats['cycles_removed']}"
                    )
            return t

        for n in range(1, 101):
            run_square(f"cyclic-{n}", cyclic_square(n), compare_oracle=n <= 7)
        for n in range(1, 8):
            for trial in range(3):
                seed = split_seed(MASTER + 6, n * 10 + trial)
                run_square(f"random-{n}-{trial}", random_square(n, seed=seed),
                           compare_oracle=True)
        for n in (10, 16, 25, 36, 50, 64, 81, 100):
            run_square(f"random-{n}", random_square(n, seed=split_seed(MASTER + 6, n)),
                       compare_oracle=False)

        w = witness_square_4()
        t = run_square("witness-4", w, compare_oracle=True)
        if len(t) != 2:
            problems.append(f"witness-4: size {len(t)} != 2")
        if len(max_cyclefree_transversal_exact(w, k=math.inf)) != 2:
            problems.append("witness-4: oracle != 2")

        r.detail = "zero cycles on all squares; oracle floor holds <= 7"
        assert not problems, "; ".join(problems[:6])


def test_criterion_7_no_transversal_witness():
    # the order-2 cyclic square has no transversal of size 2
    with report(7) as r:
        t = max_transversal_exact(cyclic_square(2))
        assert len(t) == 1
        r.detail = "order-2 cyclic max 1"


def test_criterion_8_invariant_checked_sweeps(tmp_path):
    # every solver family across a sweep with invariant checking on:
    # any violated invariant raises and fails the run
    with report(8) as r:
        jobs = [
            ["sweep", "--suite", "delta", "--sizes", "2..5", "--trials", "3"],
            ["sweep", "--suite", "layered", "--sizes", "8,12", "--trials", "3"],
            ["sweep", "--suite", "shortcycle", "--sizes", "9,16", "--trials", "3"],
            ["sweep", "--suite", "cyclefree", "--sizes", "6,10", "--trials", "3"],
        ]
        for i, job in enumerate(jobs):
            out = tmp_path / f"sweep{i}.csv"
            code = cli_main(job + ["--seed", "8", "--check", "--out", str(out)])
            assert code == 0, f"{job[2]} sweep exited {code}"
            rows = out.read_text().splitlines()[1:]
            assert rows and all(",true," in row for row in rows)
        r.detail = "4 suites, 30 checked runs, zero violations"


def test_criterion_9_sweeps_are_byte_identical(tmp_path):
    # identical master seeds reproduce the CSV byte for byte
    with report(9) as r:
        jobs = [
            ("delta", ["--suite", "delta", "--sizes", "2..4", "--trials", "3"]),
            ("shortcycle", ["--suite", "shortcycle", "--sizes", "8,9", "--trials", "2"]),
            ("cyclefree", ["--suite", "cyclefree", "--sizes", "5,7", "--trials", "2"]),
        ]
        for name, job in jobs:
            a = tmp_path / f"{name}-a.csv"
            b = tmp_path / f"{name}-b.csv"
            for out in (a, b):
                code = cli_main(["sweep"] + job + ["--seed", "41", "--out", str(out)])
                assert code == 0
            assert a.read_bytes() == b.read_bytes(), f"{name} sweep not reproducible"
        r.detail = "3 suites byte-identical"
