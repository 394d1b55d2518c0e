import hashlib
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from nonkoszul import formulas
from nonkoszul.formulas import (
    NotApplicableError,
    _char0_value,
    _ep_base,
    _condition_char0,
    _refused_minimum,
    _split_minimum,
    _splits,
    applicability,
    ep_dispatch,
    ep_han,
    ep_main,
    frac_str,
    fthreshold_formula,
    tsd_formula,
    wlp_classify_n3,
    wlp_classify_n4,
    wlp_criterion,
    wlp_feasibility_filter,
)
from nonkoszul.oracle import e_degree_oracle, socle_degree_oracle
from nonkoszul.verify import canonical_json


def test_condition_char0():
    assert _condition_char0((6, 7, 11, 12))
    assert _condition_char0((2, 2, 2))
    assert not _condition_char0((2, 2, 9))
    assert not _condition_char0((1, 1, 3))


def test_e0_values():
    # the characteristic-zero value ceil((sum d - n + 1)/2)
    assert _char0_value((6, 7, 11, 12)) == 17
    assert _char0_value((2, 2, 2)) == 3


def test_ep_base_values():
    # all residues 1: the ceiling term caps at p
    assert _ep_base(3, (2, 2, 2, 2, 2)) == 3
    assert _ep_base(5, (1, 1, 2, 2)) == 2
    # a single dominant entry wins the max
    assert _ep_base(5, (1, 1, 1, 3)) == 3


def test_min_function_worked_cases():
    assert _split_minimum(5, (1, 1, 2, 2), (1, 2, 1, 2),
                          partial(_ep_base, 5)) == 16
    assert _split_minimum(5, (1, 1, 1, 3), (2, 2, 2, 3),
                          partial(_ep_base, 5)) == 20
    # all remainders zero: epsilon = 0 dominates and the value is q * base
    leaf = partial(_ep_base, 3)
    assert _split_minimum(3, (1,) * 4, (0,) * 4, leaf) == 3 * leaf((1,) * 4)


def test_split_minima_form_only_the_terms_that_can_win(monkeypatch):
    # a step up at a zero remainder never wins, so forty zero remainders cost
    # one base value each in ep_main and in tsd_formula's one split, not 2^40
    calls = []

    def counting(p, kappa, _fn=formulas._ep_base):
        calls.append(kappa)
        return _fn(p, kappa)

    monkeypatch.setattr(formulas, "_ep_base", counting)
    assert ep_dispatch(3, (2,) * 40).value == 3
    assert tsd_formula(3, (2,) * 40, 1) == 38
    assert calls == [(2,) * 40] * 2
    # two nonzero remainders: the four terms that step them up
    calls.clear()
    assert _split_minimum(5, (1, 1, 2, 2), (0, 2, 0, 3),
                          partial(formulas._ep_base, 5)) == 15
    assert sorted(calls) == [(1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 2, 2),
                             (1, 2, 2, 3)]


def test_split_minima_match_every_epsilon():
    # the reference forms the term of every epsilon
    rng = random.Random(24)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7, 11])
        q = p ** rng.randint(0, 3)
        k = tuple(rng.randint(1, p - 1) if p > 2 else 1
                  for _ in range(rng.randint(1, 7)))
        r = tuple(rng.choice([0, rng.randrange(q)]) for _ in k)
        assert _split_minimum(q, k, r, partial(_ep_base, p)) == min(
            q * _ep_base(p, kk) + rest for _, kk, rest in _splits(k, r))
        a = rng.randint(1, 6)
        K = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
        k, e = zip(*(divmod(Ki, a) for Ki in K))
        assert tsd_formula(p, K, a) == sum(K) - len(K) + a - min(
            a * ep_dispatch(p, c, want_witness=False).value + rest
            for eps, c, rest in _splits(k, e)
            if 0 not in c and all(ei <= ri for ei, ri in zip(eps, e)))
        # Han's formula: q*ceil((sum(k + eps) - 1)/2) plus the remainders,
        # over every q = p^e <= sum(d) and every eps with no zero entry
        d = tuple(rng.randint(1, 30) for _ in range(3))
        if 2 * max(d) <= sum(d):
            assert ep_han(p, *d) == min(
                q * (sum(kk) // 2) + rest
                for q in (p ** e for e in range(sum(d).bit_length()))
                if q <= sum(d)
                for _, kk, rest in _splits([x // q for x in d],
                                           [x % q for x in d])
                if 0 not in kk), (p, d)


def test_main_form_checks_its_input_once(monkeypatch):
    # applicability checks p and d; the split minimum and the char0 test
    # that follow take the checked values as they are
    calls = {"check_prime": 0, "check_box": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(formulas, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(formulas, name, counting)
    assert ep_main(5, (6, 7, 11, 12)).value == 16
    assert ep_main(7, (2, 3, 3, 4)).method == "char0"
    assert calls == {"check_prime": 2, "check_box": 2}


def test_splits_enumerate_in_product_order():
    # every epsilon in {0,1}^2, first coordinate major, with k + epsilon and
    # the remainders where epsilon is 0
    assert list(_splits((1, 2), (3, 4))) == [
        ((0, 0), (1, 2), 7), ((0, 1), (1, 3), 3),
        ((1, 0), (2, 2), 4), ((1, 1), (2, 3), 0)]
    # unless every epsilon is asked for, a zero remainder is never stepped up
    assert list(_splits((1, 2), (0, 4), every=False)) == [
        ((0, 0), (1, 2), 4), ((0, 1), (1, 3), 0)]


def test_splits_match_reference_generator():
    # the generator by explicit loops over k + epsilon and the remainders
    def reference(k, r):
        for eps in product((0, 1), repeat=len(k)):
            yield (eps, tuple(ki + ei for ki, ei in zip(k, eps)),
                   sum(ri for ri, ei in zip(r, eps) if ei == 0))

    rng = random.Random(20)
    for _ in range(600):
        m = rng.randint(1, 6)
        k = [rng.randint(0, 9) for _ in range(m)]
        r = [rng.randint(0, 30) for _ in range(m)]
        assert list(_splits(k, r)) == list(reference(k, r)), (k, r)
        assert list(_splits(tuple(k), tuple(r))) == list(reference(k, r))


def test_applicability_matches_per_entry_powers():
    # the definition that finds the largest power of p at most every entry and
    # asks that they all equal q
    def largest_power(p, x):
        return max((p ** e, e) for e in range(64) if p ** e <= x)

    def reference(p, d):
        q, e = largest_power(p, min(d))
        k, r = zip(*(divmod(di, q) for di in d))
        bound = (sum(k) - len(d) + 2) // 2
        flags = (
            ("same_q_for_all",
             all(largest_power(p, di)[0] == q for di in d)),
            ("main_thm_k_range", all(1 <= ki <= p - 1 for ki in k)),
            ("main_thm_condition5", all(ki <= bound for ki in k)),
        )
        return q, e, k, r, tuple(name for name, ok in flags if not ok)

    # every ordered pair and every multiset of three entries up to 30, and
    # random tuples of four and five entries up to 30
    rng = random.Random(21)
    for p in (2, 3, 5, 7, 11, 13):
        tuples = [*product(range(1, 31), repeat=2),
                  *combinations_with_replacement(range(1, 31), 3),
                  *(tuple(rng.randint(1, 30) for _ in range(rng.randint(4, 5)))
                    for _ in range(1500))]
        for d in tuples:
            rep = applicability(p, d)
            assert (rep.q, rep.e, rep.k, rep.r, rep.failing) == \
                reference(p, d), (p, d)


@pytest.mark.parametrize("p,bound,q,e", [
    (3, 1, 1, 0),
    (3, 8, 3, 1),
    (3, 9, 9, 2),
    (2, 25, 16, 4),
    (7, 6, 1, 0),
])
def test_applicability_q_is_largest_power_at_most_min_d(p, bound, q, e):
    rep = applicability(p, (bound,) * 4)
    assert (rep.q, rep.e) == (q, e)


def test_applicability_flags():
    rep = applicability(5, (6, 7, 11, 12))
    assert rep.q == 5 and rep.e == 1
    assert rep.k == (1, 1, 2, 2)
    assert rep.r == (1, 2, 1, 2)
    assert rep.failing == ()

    rep = applicability(5, (7, 7, 7, 18))
    assert rep.k == (1, 1, 1, 3)
    assert rep.failing == ("main_thm_condition5",)

    # q differs across entries when one degree drops below the shared power;
    # the flags come in the fixed order same_q_for_all, main_thm_k_range,
    # main_thm_condition5
    rep = applicability(3, (9, 9, 9, 2))
    assert rep.q == 1
    assert rep.failing == ("same_q_for_all", "main_thm_k_range")
    rep = applicability(2, (2, 2, 2, 9))
    assert rep.failing == ("same_q_for_all", "main_thm_k_range",
                           "main_thm_condition5")


def test_ep_main_worked_example():
    res = ep_main(5, (6, 7, 11, 12))
    assert res.value == 16
    assert res.method == "main"


def test_ep_main_not_applicable_carries_min_value():
    with pytest.raises(NotApplicableError) as info:
        ep_main(5, (7, 7, 7, 18))
    assert info.value.failing == ("main_thm_condition5",)
    assert _refused_minimum(5, (7, 7, 7, 18)) == 20
    # no split minimum without four degrees and every k_i in [1, p - 1]
    assert _refused_minimum(5, (7, 7, 18)) is None
    assert _refused_minimum(3, (9, 9, 9, 2)) is None


def test_ep_main_char0_tag():
    # q = 1 with the characteristic-zero condition and a large enough p
    res = ep_main(7, (3, 3, 3, 3))
    assert res.method == "char0"
    assert _condition_char0((3, 3, 3, 3))
    assert res.value == _char0_value((3, 3, 3, 3))


def test_ep_main_base_tag():
    # q = 1 but p below the characteristic-zero value: base formula applies
    res = ep_main(5, (4, 4, 4, 4))
    assert res.method == "base"
    assert res.value == 5


def test_ep_main_q3_worked_case():
    res = ep_main(3, (4, 4, 4, 4))
    assert res.method == "main"
    assert res.value == 7


def test_ep_main_requires_n_at_least_3():
    with pytest.raises(ValueError):
        ep_main(3, (2, 2, 2))


HAN_CASES = [
    (3, (4, 5, 6), 7),
    (2, (2, 2, 2), 2),
    (3, (2, 2, 2), 3),
    (5, (1, 1, 1), 1),
    (2, (3, 3, 4), 4),
    (3, (13, 13, 13), 19),
    (3, (14, 14, 14), 21),
    (5, (62, 62, 62), 93),
    (5, (63, 63, 63), 94),
]


@pytest.mark.parametrize("p,d,value", HAN_CASES)
def test_han_frozen_values(p, d, value):
    assert ep_han(p, *d) == value


def test_han_rejects_non_triangle():
    with pytest.raises(NotApplicableError) as info:
        ep_han(3, 1, 1, 3)
    assert info.value.failing == ("triangle_inequality",)


def test_han_agrees_with_oracle_beyond_min_degree_powers():
    # over F_2 the minimum for (3,3,4) is achieved at q = 4, past min(d)
    assert ep_han(2, 3, 3, 4) == e_degree_oracle(2, (3, 3, 4)).value


def test_dispatch_routing():
    assert ep_dispatch(7, (2, 2, 2)).method == "han"
    assert ep_dispatch(5, (6, 7, 11, 12)).method == "main"
    res = ep_dispatch(5, (7, 7, 7, 18))
    assert res.method == "oracle"
    assert res.value == 19
    # non-triangle pair of small entries: han refuses, oracle takes over
    res = ep_dispatch(3, (1, 1, 3))
    assert res.method == "oracle"
    assert res.value == 3
    res = ep_dispatch(3, (4,))
    assert res.value == 4
    # the formula route refuses where auto falls back
    with pytest.raises(NotApplicableError) as info:
        ep_dispatch(3, (4,), "formula")
    assert info.value.failing == ("formula_route",)


def test_dispatch_reaches_routes_through_module_attributes(monkeypatch):
    # perfbench counts each route by replacing these module attributes, so
    # ep_dispatch must look every route up there at call time
    seen = []
    for name in ("ep_han", "ep_main", "e_degree_oracle"):
        def recording(*args, _name=name, _fn=getattr(formulas, name), **kw):
            seen.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(formulas, name, recording)
    cases = [
        ("formula", (2, 2, 2), ["ep_han"]),
        ("formula", (6, 7, 11, 12), ["ep_main"]),
        ("oracle", (2, 2, 2), ["e_degree_oracle"]),
        ("oracle", (6, 7, 11, 12), ["e_degree_oracle"]),
        ("auto", (2, 2, 2), ["ep_han"]),
        ("auto", (6, 7, 11, 12), ["ep_main"]),
        # a refused closed form falls back to the oracle
        ("auto", (1, 1, 3), ["ep_han", "e_degree_oracle"]),
        ("auto", (7, 7, 7, 18), ["ep_main", "e_degree_oracle"]),
        ("auto", (3, 4), ["e_degree_oracle"]),
    ]
    for method, d, routes in cases:
        seen.clear()
        ep_dispatch(5, d, method)
        assert seen == routes, (method, d)
    seen.clear()
    with pytest.raises(ValueError, match="unknown method"):
        ep_dispatch(5, (2, 2, 2), "han")
    assert seen == []


def test_tsd_formula_values():
    assert tsd_formula(3, (3, 3, 3), 2) == 3
    assert tsd_formula(3, (9, 9), 2) == 8
    assert tsd_formula(3, (1, 1, 1), 1) == 0
    # a = 1 collapses to the relation-degree identity
    for p, K in [(3, (3, 3, 3)), (5, (4, 4, 5))]:
        expected = sum(K) - len(K) - e_degree_oracle(p, K).value + 1
        assert tsd_formula(p, K, 1) == expected


def test_tsd_matches_socle_oracle():
    cases = [(3, (3, 3, 3), 2), (2, (4, 4), 3), (5, (5, 5, 5), 2),
             (2, (2, 3, 2), 3)]
    # one, two and four caps, with a prime to p and a divisible by p
    for p in (2, 3, 5):
        for a in (1, p + 1, p, 2 * p, 3 * p):
            caps = [(K,) for K in range(1, 3 * a + 2)]
            caps += combinations_with_replacement(range(1, a + 4), 2)
            caps += combinations_with_replacement(range(1, 5), 4)
            cases += [(p, K, a) for K in caps]
    for p, K, a in cases:
        assert tsd_formula(p, K, a) == socle_degree_oracle(p, K, a), (p, K, a)


def test_tsd_oracle_method(monkeypatch):
    calls = []

    def recording(p, d, want_witness=True):
        calls.append(tuple(d))
        return e_degree_oracle(p, d, want_witness=want_witness)

    monkeypatch.setattr(formulas, "e_degree_oracle", recording)
    assert tsd_formula(3, (3, 3, 3), 2, method="oracle") == 3
    # 3 = 2*1 + 1 allows both roundings of every cap, in product order
    assert calls == list(product((1, 2), repeat=3))
    calls.clear()
    # 4 = 2*2 + 0 cannot round up and 1 = 2*0 + 1 cannot round down
    assert tsd_formula(3, (4, 1), 2, method="oracle") == 1
    assert calls == [(2, 1)]


@pytest.mark.parametrize("call", [
    lambda: ep_dispatch(5, "6789"),
    lambda: e_degree_oracle("7", "345"),
    lambda: e_degree_oracle(3.9, (2.9, 3.5, 4.2)),
    lambda: tsd_formula(3, (4, 4, 4), 2.7),
    lambda: ep_dispatch(3, (True, 2, 2)),
    lambda: fthreshold_formula(3, 2, 2.0),
    lambda: wlp_feasibility_filter(3.0, 2, 1),
    lambda: socle_degree_oracle(3, (4, 4, 4), "2"),
], ids=["str-degrees", "str-p", "float-p", "float-a", "bool-degree",
        "float-n", "float-n-filter", "str-a"])
def test_public_entries_take_integers_only(call):
    # each would have answered for a rounded or re-read value
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_public_entries_take_numpy_integers():
    d = np.array([6, 7, 11, 12])
    assert ep_dispatch(np.int64(5), d).value == 16
    assert tsd_formula(np.int32(3), tuple(d[:3]), np.int64(2)) == \
        tsd_formula(3, (6, 7, 11), 2)


def test_tsd_rejects_bad_a():
    with pytest.raises(ValueError):
        tsd_formula(3, (3, 3), 0)


def test_fthreshold_a1_gives_n():
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            res = fthreshold_formula(p, 1, n)
            assert res.c == Fraction(n)


def test_fthreshold_worked_cases():
    res = fthreshold_formula(3, 2, 2)
    assert res.M == Fraction(5, 6)
    assert res.c == Fraction(4, 3)
    assert res.q == 3 and res.e == 1
    doc = res.to_dict()
    assert doc["M"] == "5/6"
    assert doc["c"] == "4/3"

    res = fthreshold_formula(5, 2, 2)
    assert res.M == Fraction(4, 5)
    assert res.c == Fraction(7, 5)


def test_fthreshold_rejects_divisible_a():
    with pytest.raises(ValueError):
        fthreshold_formula(3, 3, 2)


def test_frac_str():
    assert frac_str(Fraction(4, 3)) == "4/3"
    assert frac_str(Fraction(8, 2)) == "4"
    assert frac_str(Fraction(0)) == "0"


def test_wlp_criterion():
    # relation degree 16 over F_5 falls short of the ceiling 17
    assert wlp_criterion(5, (6, 7, 11, 12)) is False
    assert wlp_criterion(3, (2, 2, 2)) is True
    assert wlp_criterion(2, (2, 2, 2)) is False


def test_classify_n3_matches_verdicts():
    from nonkoszul.oracle import wlp_rank_profile
    # q = p scope, small enough to compare against the rank profile directly
    for p, d in [(2, (2, 2, 2, 2)), (2, (2, 2, 3, 3)), (3, (3, 4, 5, 3)),
                 (3, (4, 4, 4, 4)), (5, (5, 5, 6, 6))]:
        got = wlp_classify_n3(p, d)
        assert got == wlp_rank_profile(p, d).verdict, (p, d)


def test_classify_n3_out_of_scope():
    # degrees below p force q = 1, outside the prime-power scope
    with pytest.raises(NotApplicableError) as info:
        wlp_classify_n3(3, (2, 2, 2, 2))
    assert info.value.failing == ("prime_power_q",)
    # mixed magnitudes break the shared-power requirement
    with pytest.raises(NotApplicableError) as info:
        wlp_classify_n3(2, (2, 2, 2, 9))
    assert "same_q_for_all" in info.value.failing
    # a tuple of another length is an error, not a box out of scope
    with pytest.raises(ValueError) as exc:
        wlp_classify_n3(2, (2, 2, 2, 2, 2))
    assert str(exc.value) == "expected 4 degrees, got 5"


def test_classify_n4():
    assert wlp_classify_n4(3, (4, 4, 4, 4, 5)) is True
    assert wlp_classify_n4(3, (5, 4, 4, 4, 4)) is True
    assert wlp_classify_n4(3, (4, 4, 4, 4, 4)) is False
    assert wlp_classify_n4(5, (6, 6, 6, 6, 6)) is False


FILTER_CASES = [
    # (n, p, q, allowed)
    (9, 5, 4, False),
    (5, 3, 1, True),
    (5, 3, 3, False),
    (3, 2, 8, True),
    (4, 2, 2, True),
    (4, 2, 4, False),
    (7, 3, 3, False),
    (7, 5, 5, False),
    (2, 2, 16, True),
    (4, 3, 9, True),
    (4, 5, 25, True),
    (6, 7, 7, False),
]


@pytest.mark.parametrize("n,p,q,allowed", FILTER_CASES)
def test_feasibility_filter(n, p, q, allowed):
    assert wlp_feasibility_filter(n, p, q) is allowed


def _outcome(fn, p, d, *method):
    """A closed form's answer, or the flags and the split minimum it declined
    with (reported only beside a refused `ep_dispatch`)."""
    try:
        out = fn(p, d, *method)
    except NotApplicableError as exc:
        min_value = _refused_minimum(p, d) if fn is ep_dispatch else None
        return {"failing": list(exc.failing), "min_value": min_value}
    return out.to_dict() if hasattr(out, "to_dict") else out


def test_closed_form_outputs_are_pinned():
    # every closed form over a fixed grid, byte for byte
    doc = {"ep": [], "tsd": [], "fthreshold": [], "classify": [],
           "filter": [], "criterion": []}
    for p in (2, 3, 5, 7):
        for m in (3, 4, 5):
            for d in combinations_with_replacement(range(1, 18 - m), m):
                for t in sorted({d, d[::-1]}) if sum(d) <= 16 else ():
                    doc["ep"].append([p, t,
                                      _outcome(ep_dispatch, p, t, "formula")])
    for p in (2, 3, 5):
        for a in range(1, 5):
            for K in combinations_with_replacement(range(1, 7), 3):
                doc["tsd"].append([p, K, a, tsd_formula(p, K, a)])
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 13):
            if a % p:
                for n in range(1, 5):
                    doc["fthreshold"].append(
                        fthreshold_formula(p, a, n).to_dict())
    for p in (2, 3, 5, 7):
        for n, classify in ((3, wlp_classify_n3), (4, wlp_classify_n4)):
            for d in combinations_with_replacement(
                    range(p, min(8, p * p - 1) + 1), n + 1):
                doc["classify"].append([p, d, _outcome(classify, p, d)])
    for p in (2, 3, 5, 7):
        for n in range(1, 12):
            for q in sorted(set(range(1, 40)) | {p ** e for e in range(8)}):
                doc["filter"].append([n, p, q,
                                      wlp_feasibility_filter(n, p, q)])
    for p in (2, 3, 5):
        for m in (3, 4):
            for d in combinations_with_replacement(range(1, 7), m):
                if sum(d) <= 12:
                    doc["criterion"].append([p, d, wlp_criterion(p, d)])
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == \
        "8b068a20b9c15cf054e80dfeaa1ea7a6bbfd666a48ef890bb25e8795d9409957"


def test_two_degrees_need_no_hilbert_function():
    # one box variable: E(c, t) = max(c, t) by arithmetic, so caps of 5^15
    # cost no memory; with K = 7k + 6 the least split term is at
    # c = (k + 1, k + 1), and the socle degree is 2K - 2 + 7 - 7(k + 1)
    K = 5 ** 15
    tracemalloc.start()
    try:
        value = tsd_formula(5, (K, K), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K % 7 == 6
    assert value == 2 * K - 2 + 7 - 7 * (K // 7 + 1)
    assert peak < 2 ** 20
    res = e_degree_oracle(5, (K, 3))
    assert (res.value, res.witness.degree) == (K, K - 3)
