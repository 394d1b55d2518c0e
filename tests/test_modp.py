import pytest

from nonkoszul.modp import _powers, check_prime, is_prime, largest_power_leq


@pytest.mark.parametrize("n,expected", [
    (1, False), (2, True), (3, True), (4, False), (5, True),
    (25, False), (97, True), (8388593, True), (8388607, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def _is_prime_reference(n):
    # trial division by 2 and the odd numbers, stepped by hand
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


def test_is_prime_matches_odd_step_reference():
    # the uncached function, so the sweep leaves the process cache as it was
    for n in [*range(-50, 200_000), 2**31 - 1]:
        assert is_prime.__wrapped__(n) is _is_prime_reference(n), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 8191])
def test_powers_are_the_powers_up_to_x(p):
    for x in (0, 1, p - 1, p, p * p, 10**6):
        assert list(_powers(p, x)) == \
            [p**e for e in range(64) if p**e <= x], (p, x)


@pytest.mark.parametrize("p", [True, "7", 7.0, 3.9, None])
def test_check_prime_takes_integers_only(p):
    with pytest.raises(ValueError, match="expected an integer"):
        check_prime(p)


def test_check_prime_rejects_composites():
    with pytest.raises(ValueError):
        check_prime(6)
    with pytest.raises(ValueError):
        check_prime(1)


@pytest.mark.parametrize("p,bound,q,e", [
    (3, 1, 1, 0),
    (3, 8, 3, 1),
    (3, 9, 9, 2),
    (2, 25, 16, 4),
    (7, 6, 1, 0),
])
def test_largest_power_leq(p, bound, q, e):
    assert largest_power_leq(p, bound) == (q, e)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_largest_power_leq_refuses_bases_below_two(p):
    # the powers of such a base never exceed x, so the search would not end
    with pytest.raises(ValueError, match="need p >= 2"):
        largest_power_leq(p, 5)
