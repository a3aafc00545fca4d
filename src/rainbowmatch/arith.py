"""Exact integer helpers for threshold arithmetic.

Guarantee bounds in this package are stated over real-valued powers
(cube roots, k-th roots). Comparing them through floats invites
boundary flakiness, so every such comparison is routed through exact
integer k-th roots instead.
"""

import math

from .errors import require_int


def int_kth_root(x: int, k: int) -> int:
    """Largest integer r with r**k <= x. Requires ints x >= 0, k >= 1,
    and raises PreconditionViolated otherwise. A k of at least
    x.bit_length() gives 1 without the huge powers."""
    require_int("x", x, 0)
    require_int("k", k, 1)
    if k == 1 or x == 0:
        return x
    if k >= x.bit_length():  # 2**k > x, so the root is 1
        return 1
    if k == 2:
        return math.isqrt(x)
    # integer Newton from 2**ceil(bits/k), which lies above the root;
    # the iterates fall strictly until they reach the floor root
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y
