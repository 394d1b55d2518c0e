"""Prime moduli, integer arguments and prime powers: their checks, and
`_powers`, the one walk over 1, p, p^2, ... that every p^e bound takes."""

from __future__ import annotations

import operator
from functools import lru_cache
from math import isqrt

MAX_PRIME = 2**31  # products of two residues must stay inside a 64-bit word


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for word-sized moduli."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _as_int(value) -> int:
    """An integer argument as a Python int, read by operator.index so numpy
    integers pass; a bool, a str, a float or any other value raises
    ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _at_least(value, low: int, message: str) -> int:
    """`_as_int(value)`, which raises ValueError(message) below low."""
    value = _as_int(value)
    if value < low:
        raise ValueError(message)
    return value


def check_prime(p: int) -> int:
    """Return p if it is a prime below 2^31, else raise ValueError."""
    p = _as_int(p)
    if p >= MAX_PRIME:
        raise ValueError(f"modulus {p} too large (must be < 2^31)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _powers(p: int, x: int):
    """1, p, p^2, ... up to x, for a p >= 2 that the caller has checked."""
    q = 1
    while q <= x:
        yield q
        q *= p

