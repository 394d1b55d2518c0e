import pytest

from nonkoszul.formulas import (fthreshold_formula, tsd_formula,
                                wlp_feasibility_filter)
from nonkoszul.modp import _powers, check_prime, is_prime
from nonkoszul.oracle import mult_map, socle_degree_oracle
from nonkoszul.verify import GridSpec

TSD = {"kind": "tsd", "p_list": [2], "n_list": [2], "K_max": 3, "a_max": 2}


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


# each argument that must reach a lower bound, one below it, with the message
# its entry point raises
@pytest.mark.parametrize("call,message", [
    (lambda: tsd_formula(3, (2, 2), 0), "exponent a must be positive"),
    (lambda: socle_degree_oracle(3, (2, 2), 0), "exponent a must be positive"),
    (lambda: fthreshold_formula(3, 0, 1), "exponent a must be positive"),
    (lambda: fthreshold_formula(3, 2, 0), "need n >= 1"),
    (lambda: wlp_feasibility_filter(0, 3, 1), "need n >= 1"),
    (lambda: wlp_feasibility_filter(1, 3, 0), "need q >= 1"),
    (lambda: mult_map((2, 2), 0, -1, 3), "power must be nonnegative"),
    *[(lambda key=key: GridSpec(**{**TSD, key: 0}),
       f"grid field {key!r} must be at least 1, got 0")
      for key in ("sum_max", "d_max", "K_max", "a_max", "matrix_cap")],
    (lambda: GridSpec(kind="fthreshold_convergence", p=3, a=2, n=2, e_max=-1),
     "need e_max >= 0, got -1"),
], ids=["tsd_formula", "socle_degree_oracle", "fthreshold_formula-a",
        "fthreshold_formula-n", "wlp_feasibility_filter-n",
        "wlp_feasibility_filter-q", "mult_map", "sum_max", "d_max", "K_max",
        "a_max", "matrix_cap", "e_max"])
def test_bounded_arguments_refuse_one_below_the_bound(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
