"""Prime moduli and prime powers: the checks every modulus passes, and p^e bounds."""

from __future__ import annotations

import operator
from functools import lru_cache

MAX_PRIME = 2**31  # products of two residues must stay inside a 64-bit word


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for word-sized moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _as_int(value) -> int:
    """An integer argument as a Python int, read by operator.index so numpy
    integers pass; a bool, a str, a float or any other value raises
    ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"expected an integer, got {value!r}")
    return operator.index(value)


def check_prime(p: int) -> int:
    """Return p if it is a prime below 2^31, else raise ValueError."""
    p = _as_int(p)
    if p >= MAX_PRIME:
        raise ValueError(f"modulus {p} too large (must be < 2^31)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def largest_power_leq(p: int, x: int) -> tuple[int, int]:
    """Largest q = p^e with q <= x, returned as (q, e). Requires p >= 2,
    without which the powers never pass x, and x >= 1."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    q, e = 1, 0
    while q * p <= x:
        q *= p
        e += 1
    return q, e
