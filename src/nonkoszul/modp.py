"""Exact arithmetic mod a prime: digit-wise binomials, multinomials, prime powers."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

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


def check_prime(p: int) -> int:
    """Return p if it is a prime below 2^31, else raise ValueError."""
    p = int(p)
    if p >= MAX_PRIME:
        raise ValueError(f"modulus {p} too large (must be < 2^31)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _small_binomial_mod(n: int, k: int, p: int) -> int:
    # n, k < p; multiplicative form keeps every intermediate below p^2
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for i in range(1, k + 1):
        num = num * ((n - k + i) % p) % p
        den = den * i % p
    return num * pow(den, -1, p) % p if k else 1


def _binomial_mod(nn: int, kk: int, p: int) -> int:
    # Lucas: a product of digit binomials; p prime and nn, kk >= 0 unchecked
    if kk > nn:
        return 0
    result = 1
    while nn or kk:
        nn, nd = divmod(nn, p)
        kk, kd = divmod(kk, p)
        if kd > nd:
            return 0
        result = result * _small_binomial_mod(nd, kd, p) % p
    return result


def _multinomial_mod(total: int, parts: Sequence[int], p: int) -> int:
    # p prime, parts nonnegative and summing to total, all unchecked
    result = 1
    for part in parts:
        result = result * _binomial_mod(total, part, p) % p
        if result == 0:
            return 0
        total -= part
    return result


def largest_power_leq(p: int, x: int) -> tuple[int, int]:
    """Largest q = p^e with q <= x, returned as (q, e). Requires x >= 1."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    q, e = 1, 0
    while q * p <= x:
        q *= p
        e += 1
    return q, e
