import math

import pytest
from hypothesis import given, strategies as st

from nonkoszul.modp import (
    _binomial_mod,
    _multinomial_mod,
    check_prime,
    is_prime,
    largest_power_leq,
)


@pytest.mark.parametrize("n,expected", [
    (1, False), (2, True), (3, True), (4, False), (5, True),
    (25, False), (97, True), (8388593, True), (8388607, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_check_prime_rejects_composites():
    with pytest.raises(ValueError):
        check_prime(6)
    with pytest.raises(ValueError):
        check_prime(1)


@given(st.integers(0, 300), st.integers(0, 300), st.sampled_from([2, 3, 5, 7, 31]))
def test_binomial_matches_direct_reduction(n, k, p):
    assert _binomial_mod(n, k, p) == math.comb(n, k) % p


def test_binomial_out_of_range_is_zero():
    assert _binomial_mod(3, 5, 7) == 0


def test_multinomial_small_cases():
    assert _multinomial_mod(2, [1, 1], 2) == 0    # 2 choose 1 is even
    assert _multinomial_mod(3, [1, 1, 1], 5) == 1  # 6 mod 5
    assert _multinomial_mod(4, [2, 2], 3) == 0     # 6 mod 3


@given(st.lists(st.integers(0, 40), min_size=1, max_size=4),
       st.sampled_from([2, 3, 5, 7]))
def test_multinomial_matches_factorial_formula(parts, p):
    direct = math.factorial(sum(parts))
    for part in parts:
        direct //= math.factorial(part)
    assert _multinomial_mod(sum(parts), parts, p) == direct % p


@pytest.mark.parametrize("p,bound,q,e", [
    (3, 1, 1, 0),
    (3, 8, 3, 1),
    (3, 9, 9, 2),
    (2, 25, 16, 4),
    (7, 6, 1, 0),
])
def test_largest_power_leq(p, bound, q, e):
    assert largest_power_leq(p, bound) == (q, e)
