"""Exact integer root used by every guarantee threshold."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import RainbowError, int_kth_root, theorem_bound
from rainbowmatch.errors import (
    BadShape,
    BudgetExceeded,
    DuplicateEdge,
    ImproperColoring,
    InfeasibleParameters,
    InternalInvariantBroken,
    NotLatin,
    PreconditionViolated,
    SelfLoop,
)


def test_small_values():
    assert int_kth_root(0, 3) == 0
    assert int_kth_root(1, 3) == 1
    assert int_kth_root(7, 3) == 1
    assert int_kth_root(8, 3) == 2
    assert int_kth_root(26, 3) == 2
    assert int_kth_root(27, 3) == 3
    assert int_kth_root(36, 2) == 6
    assert int_kth_root(35, 2) == 5


def test_first_power_is_identity():
    for x in (0, 1, 2, 17, 10**9):
        assert int_kth_root(x, 1) == x


def test_rejects_bad_arguments():
    for x, k, why in [
        (-1, 2, "x must be at least 0, got -1"),
        (4, 0, "k must be at least 1, got 0"),
        (4, -1, "k must be at least 1, got -1"),
        (4.0, 2, "x must be an int, got float"),
        (True, 2, "x must be an int, got bool"),
        (4, "2", "k must be an int, got str"),
        (4, None, "k must be an int, got NoneType"),
    ]:
        with pytest.raises(PreconditionViolated, match=f"^{why}$"):
            int_kth_root(x, k)


def test_a_huge_k_gives_one_without_the_huge_powers():
    # r ** (k - 1) at this k would exhaust memory
    assert [int_kth_root(x, x.bit_length()) for x in (1, 2, 3, 7, 10**40)] == [1] * 5
    tracemalloc.start()
    try:
        assert int_kth_root(10, 2**80) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_values_stay_exact():
    # beyond float precision: (10**6)**3 and its neighbors
    x = 10**18
    assert int_kth_root(x, 3) == 10**6
    assert int_kth_root(x - 1, 3) == 10**6 - 1
    assert int_kth_root(x + 1, 3) == 10**6


def test_huge_bases_and_exponents_finish_exactly():
    # far outside float range: both bounds must come back at once and exact
    x = 6**3 * (10**40) ** 2
    r = int_kth_root(x, 3)
    assert r**3 <= x < (r + 1) ** 3
    assert theorem_bound(10**40, 3) == 10**40 - r
    assert theorem_bound(30, 400) == 0
    assert int_kth_root(2**4000, 400) == 2**10
    assert int_kth_root(2**4000 - 1, 400) == 2**10 - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**400), st.integers(min_value=1, max_value=400))
def test_floor_root_identity(x, k):
    r = int_kth_root(x, k)
    assert r >= 0
    assert r**k <= x
    assert (r + 1) ** k > x


def test_every_package_error_shares_the_base_class():
    errors = [
        BadShape, BudgetExceeded, DuplicateEdge,
        ImproperColoring, InfeasibleParameters, InternalInvariantBroken,
        NotLatin, PreconditionViolated, SelfLoop,
    ]
    for err in errors:
        assert issubclass(err, RainbowError)
