import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from nonkoszul import linalg, modp, monomials, oracle
from nonkoszul.linalg import MatrixFp, rank
from nonkoszul.monomials import _hilbert_cached, slice_array
from nonkoszul.oracle import (
    e_degree_oracle,
    mult_map,
    socle_degree_oracle,
    wlp_rank_profile,
)
from nonkoszul.verify import canonical_json, fthreshold_convergence


def hilbert_function(caps):
    return _hilbert_cached(tuple(caps))


def top_degree(caps):
    return sum(c - 1 for c in caps)


def brute_mult_map(caps, src_degree, power, p):
    """Multiply every source monomial by (x_1+...+x_m)^power, expanding the
    power with nested loops.  Independent of the production routine."""
    import math
    m = len(caps)
    src = [tuple(r) for r in slice_array(caps, src_degree)]
    tgt = [tuple(r) for r in slice_array(caps, src_degree + power)]
    tgt_index = {mono: i for i, mono in enumerate(tgt)}
    mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for comp in itertools.product(range(power + 1), repeat=m):
        if sum(comp) != power:
            continue
        coeff = math.factorial(power)
        for c in comp:
            coeff //= math.factorial(c)
        coeff %= p
        if coeff == 0:
            continue
        for j, mono in enumerate(src):
            shifted = tuple(a + b for a, b in zip(mono, comp))
            if all(e < c for e, c in zip(shifted, caps)):
                mat[tgt_index[shifted], j] = (mat[tgt_index[shifted], j] + coeff) % p
    return mat


@pytest.mark.parametrize("caps,deg,power,p", [
    ((3, 3), 1, 2, 2),
    ((3, 4, 2), 2, 3, 3),
    ((5, 5), 0, 4, 5),
    ((2, 2, 2, 2), 1, 2, 3),
    ((1, 4, 3, 2), 2, 3, 2),
    ((6,), 1, 3, 7),
    ((3, 2, 4), 3, 0, 5),
])
def test_mult_map_matches_brute_force(caps, deg, power, p):
    got = mult_map(caps, deg, power, p)
    expected = brute_mult_map(caps, deg, power, p)
    assert got.p == p
    assert np.array_equal(got.data, expected)


def reference_power_terms(caps, t, p):
    """(exponent vector, t!/prod(a_i!) mod p) for every term of
    (x_1+...+x_m)^t inside the box, descending lex, zero residues dropped."""
    import math
    terms = []
    for comp in sorted(itertools.product(*(range(c) for c in caps)),
                       reverse=True):
        if sum(comp) == t:
            coeff = math.factorial(t)
            for a in comp:
                coeff //= math.factorial(a)
            if coeff % p:
                terms.append((comp, coeff % p))
    return terms


def test_power_terms_match_factorial_reference():
    rng = random.Random(19)
    primes = (2, 3, 5, 7, 8191, 8388617, 2**31 - 1)
    cases = [((3, 3), 2, 2), ((4, 4), 3, 3), ((9, 9, 9), 9, 3)]
    for _ in range(300):
        caps = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        cases.append((caps, rng.randint(0, sum(caps) - len(caps) + 1),
                      rng.choice(primes)))
    for caps, t, p in cases:
        comps, coeffs = oracle._power_terms(caps, t, p)
        got = list(zip(map(tuple, comps.tolist()), coeffs))
        assert got == reference_power_terms(caps, t, p), (caps, t, p)
    # 2xy vanishes mod 2, 3x^2y and 3xy^2 mod 3
    assert oracle._power_terms((3, 3), 2, 2)[1] == (1, 1)
    assert oracle._power_terms((4, 4), 3, 3)[0].tolist() == [[3, 0], [0, 3]]


FROZEN_E = [
    # (p, d, value)
    (5, (6, 7, 11, 12), 16),
    (5, (7, 7, 7, 18), 19),
    (2, (2, 2, 2), 2),
    (3, (2, 2, 2), 3),
    (3, (4, 5, 6), 7),
    (3, (4, 4, 4, 4, 5), 9),
    (3, (3, 3, 3, 3), 3),
    (3, (4, 4, 1), 4),
    (3, (5, 4, 1), 5),
    (3, (2, 1, 1), 2),
    (3, (5, 5, 5), 7),
    (3, (4, 4, 4), 6),
    (2, (3, 3, 4), 4),
    (7, (1, 1, 1), 1),
]


@pytest.mark.parametrize("p,d,value", FROZEN_E)
def test_relation_degree_frozen_values(p, d, value):
    res = e_degree_oracle(p, d)
    assert res.value == value
    assert res.method == "oracle"


def test_single_entry_tuple():
    res = e_degree_oracle(5, (4,))
    assert res.value == 4
    assert res.degenerate
    assert res.witness is None


def test_degenerate_flag():
    # power exceeds the top degree of the box, so f^power vanishes outright
    res = e_degree_oracle(3, (2, 2, 9))
    assert res.degenerate
    assert res.value == 9
    res = e_degree_oracle(3, (3, 3, 3))
    assert not res.degenerate


def test_degenerate_query_allocates_nothing_for_the_last_degree():
    # the dimension bound needs no Hilbert function past the box's top
    # degree, so a huge last degree costs no memory
    tracemalloc.start()
    try:
        res = e_degree_oracle(3, (2, 2, 10 ** 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 10 ** 7
    assert res.degenerate
    assert res.witness.degree == 0
    assert peak < 2 ** 20


def test_matrix_build_allocates_nothing_by_the_box():
    # the box (2,) * 24 has 2^24 monomials and the witness matrix is 1 x 24;
    # a table of a row per monomial code of the box took 128 MiB here
    tracemalloc.start()
    try:
        res = e_degree_oracle(8191, (2,) * 24 + (23,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.value, res.witness.degree) == (24, 1)
    assert peak < 2 ** 20
    # f^3 = x_1^3 + ... + x_62^3 is 0 on the box (2,) * 62 over F_3, so
    # E = 60 with the witness 1 in degree 0; its 62 x 62 map from degree 1
    # is zero, built with no table of 2^62 entries
    res = e_degree_oracle(3, (2,) * 62 + (60,))
    assert (res.value, res.witness.degree) == (60, 0)
    # from 2^63 monomials on, a code no longer fits in int64
    with pytest.raises(ValueError, match="too many monomials"):
        e_degree_oracle(3, (3,) * 40 + (78,))


def test_symmetry_under_permutations():
    for p, d in [(2, (2, 3, 4)), (3, (1, 4, 2)), (5, (2, 3, 4, 5)),
                 (2, (3, 3, 4))]:
        values = {e_degree_oracle(p, perm, want_witness=False).value
                  for perm in itertools.permutations(d)}
        assert len(values) == 1


def witness_maps_to_zero(p, d):
    res = e_degree_oracle(p, d)
    assert res.witness is not None
    box = d[:-1]
    coeffs = np.asarray(res.witness.coefficients, dtype=np.int64)
    src_degree = res.witness.degree
    assert res.value == src_degree + d[-1]
    mat = mult_map(box, src_degree, d[-1], p)
    assert np.any(coeffs != 0)
    assert np.all((mat.data @ coeffs) % p == 0)
    # at every earlier degree the map is injective, making the value minimal
    for j in range(d[-1], res.value):
        earlier = mult_map(box, j - d[-1], d[-1], p)
        assert rank(earlier) == earlier.cols


@pytest.mark.parametrize("p,d", [
    (3, (4, 4, 1)),
    (5, (6, 7, 11, 12)),
    (2, (2, 2, 2)),
    (3, (4, 5, 6)),
])
def test_witness_validity(p, d):
    witness_maps_to_zero(p, d)


def kernel_degrees(p, d):
    """Every degree j in [d_last, top + d_last] at which multiplication by
    f^{d_last} from degree j - d_last has a kernel, each found by its own
    rank computation."""
    caps, power = d[:-1], d[-1]
    h = hilbert_function(caps)
    out = []
    for j in range(power, top_degree(caps) + power + 1):
        if rank(mult_map(caps, j - power, power, p)) < h[j - power]:
            out.append(j)
    return out


def brute_e_degree(p, d):
    """Least kernel degree, ranking every degree from d_last upward."""
    return min(kernel_degrees(p, d))


def test_kernel_degrees_form_an_up_set():
    for p in (2, 3, 5):
        for m in (2, 3, 4):
            for caps in itertools.combinations_with_replacement(
                    range(1, 6), m):
                for power in range(1, 7):
                    d = caps + (power,)
                    kernel = kernel_degrees(p, d)
                    last = top_degree(caps) + power
                    assert kernel == list(range(kernel[0], last + 1)), d
                    assert kernel[0] == e_degree_oracle(
                        p, d, want_witness=False).value, (p, d)
    # E = 4 while the source first outgrows the target at 7
    assert brute_e_degree(2, (4, 4, 4, 4)) == 4
    assert e_degree_oracle(2, (4, 4, 4, 4)).value == 4


def count_eliminations(monkeypatch):
    """Every elimination in `linalg`, by rank or by kernel witness."""
    calls = []
    echelon = linalg._echelon

    def counting_echelon(a, p):
        calls.append(a.shape)
        return echelon(a, p)

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    return calls


@pytest.mark.parametrize("p,d,eliminations", [
    # U = 8 is the centre: the map from 8 decides 7, its dual, and gives
    # the witness
    (8191, (5, 5, 5, 5, 5, 5), 1),
    # the map from 3 stands in for its dual from 2; a kernel at 1, and the
    # one column of the map from 0 is read off f^4 = x1^4 + x2^4 + x3^4,
    # which vanishes in the box, with no matrix: a kernel, and its witness
    (2, (4, 4, 4, 4), 2),
])
def test_scan_rank_count(monkeypatch, p, d, eliminations):
    calls = count_eliminations(monkeypatch)
    e_degree_oracle(p, d)
    assert len(calls) == eliminations


def test_scan_never_eliminates_a_dual_twice(monkeypatch):
    # every map the oracle eliminates is distinct, and none is the reversed
    # transpose of another it eliminated, with or without a witness; a call
    # may eliminate nothing at all
    calls = []
    real = oracle._shift_matrix

    def recording_shift_matrix(caps, src_degree, *rest):
        calls.append(src_degree)
        return real(caps, src_degree, *rest)

    monkeypatch.setattr(oracle, "_shift_matrix", recording_shift_matrix)
    for p in (2, 3, 5):
        for caps in itertools.combinations_with_replacement(range(1, 6), 3):
            mirror = top_degree(caps) - 2
            for want in (False, True):
                calls.clear()
                res = e_degree_oracle(p, caps + (2,), want_witness=want)
                assert len(set(calls)) == len(calls), (p, caps, want, calls)
                keys = [min(j, mirror - j) for j in calls]
                distinct = len(set(keys))
                if want and keys and keys[-1] in keys[:-1]:
                    # only a witness at a degree whose rank came from its
                    # dual, eliminated higher up in the scan
                    assert calls[-1] == res.witness.degree < mirror - calls[-1]
                    distinct += 1
                assert distinct == len(calls), (p, caps, want, calls)


def test_wlp_profile_stops_at_the_first_injective_map(monkeypatch):
    # (4, 4, 4, 4) has top 12: degrees 6..11 mirror 5..0, and the scan runs
    # down from 5.  Mod 3 the map from 5 is injective, so 4..0 are too, and
    # one elimination decides the box; mod 2 the first injective map is the
    # one from 2, the fourth ranked
    calls = count_eliminations(monkeypatch)
    report = wlp_rank_profile(3, (4, 4, 4, 4))
    assert len(calls) == 1
    assert len(report.records) == 12 and report.verdict
    calls.clear()
    report = wlp_rank_profile(2, (4, 4, 4, 4))
    assert [cols for _, cols in calls] == [40, 31, 20, 10]
    assert len(report.records) == 12 and not report.verdict


def test_wlp_profile_reads_degree_zero_off_its_column(monkeypatch):
    # (2, 2) has top 2: the scan starts at the map from 0, whose one column
    # is f = x1 + x2, so it is injective and nothing is eliminated
    calls = count_eliminations(monkeypatch)
    report = wlp_rank_profile(2, (2, 2))
    assert calls == []
    assert [r.rank for r in report.records] == [1, 1] and report.verdict


def reference_wlp_records(p, caps):
    """One record per degree, each ranked on its own matrix."""
    h = hilbert_function(caps)
    return tuple(oracle.WlpRecord(degree=i, dim_source=h[i],
                                  dim_target=h[i + 1],
                                  rank=rank(mult_map(caps, i, 1, p)))
                 for i in range(top_degree(caps)))


def test_wlp_profile_matches_ranking_every_degree():
    for p in (2, 3, 5, 7, 8191):
        for m in (2, 3, 4):
            for caps in itertools.combinations_with_replacement(
                    range(1, 6), m):
                report = wlp_rank_profile(p, caps)
                want = reference_wlp_records(p, caps)
                assert report.records == want, (p, caps)
                assert report.verdict == all(r.maximal for r in want)


def reference_e_result(p, d, want_witness):
    """`EResult.to_dict()` of d by ranking every degree on the full box,
    unit caps included, and reading the witness off the decisive map."""
    caps, power = d[:-1], d[-1]
    value = brute_e_degree(p, d)
    witness = None
    if want_witness:
        _, coeffs = linalg.kernel_witness(
            mult_map(caps, value - power, power, p))
        witness = {"degree": value - power, "terms": oracle.KernelWitness(
            box=caps, degree=value - power, coefficients=coeffs).terms()}
    return {"value": value, "method": "oracle",
            "degenerate": power > top_degree(caps), "witness": witness}


def test_unit_caps_match_the_full_box():
    # a cap of 1 kills its variable; the oracle drops it, and must give the
    # values and witnesses of ranking on the full box
    for p in (2, 3, 5, 7):
        for m in (2, 3, 4):
            for caps in itertools.product(range(1, 5), repeat=m):
                if 1 not in caps:
                    continue
                for power in range(1, 7):
                    d = caps + (power,)
                    for want in (False, True):
                        assert e_degree_oracle(p, d, want).to_dict() == \
                            reference_e_result(p, d, want), (p, d, want)


def test_degree_zero_map_is_read_off_its_column(monkeypatch):
    # the map from degree 0 sends 1 to f^power: over F_2, f^2 = x1^2 + x2^2
    # + x3^2 vanishes on the box (2, 2, 2), so 1 is the kernel witness;
    # over F_3 the cross terms 2*x_i*x_j survive and the map is injective
    calls = count_eliminations(monkeypatch)
    res = e_degree_oracle(2, (2, 2, 2, 2))
    assert res.value == 2
    assert res.witness.degree == 0 and res.witness.terms() == ["1"]
    calls.clear()
    assert e_degree_oracle(3, (2, 2, 2, 2), want_witness=False).value == 3
    assert calls == []


@pytest.mark.parametrize("p", [2, 3, 7])
def test_multiplication_maps_are_dual(p):
    # x f^t from degree top - j - t is x f^t from degree j transposed, rows
    # and columns reversed; the same holds for the diagonal form
    # x_1^t + ... + x_m^t that socle_degree_oracle builds
    for caps in [(2, 3), (3, 3, 2), (4, 1, 3), (2, 2, 2, 2), (5, 3, 4),
                 (3, 2, 3, 2, 2)]:
        top = top_degree(caps)
        ones = (1,) * len(caps)
        for t in range(top + 2):
            comps = t * np.eye(len(caps), dtype=np.int64)
            for j in range(-1, top + 2):
                dual = mult_map(caps, top - j - t, t, p).data
                assert np.array_equal(
                    dual, mult_map(caps, j, t, p).data.T[::-1, ::-1])
                dual = oracle._shift_matrix(caps, top - j - t, t, comps,
                                            ones, p).data
                assert np.array_equal(dual, oracle._shift_matrix(
                    caps, j, t, comps, ones, p).data.T[::-1, ::-1])


def test_oracle_outputs_are_pinned():
    # values and witnesses on every ordered tuple of 2, 3 and 4 entries in
    # cubes of side 9, 6 and 4 (3,871 points), byte for byte
    digest = hashlib.sha256()
    for p in (2, 3, 5, 7, 11, 13, 8191):
        for m, bound in ((2, 9), (3, 6), (4, 4)):
            for d in itertools.product(range(1, bound + 1), repeat=m):
                res = e_degree_oracle(p, d).to_dict()
                digest.update(canonical_json([p, list(d), res]).encode())
    assert digest.hexdigest() == \
        "ed40617b94a3a3f11e201a90e351d13d02e3dceb9f684c581903c147ac7b57ff"


def test_witness_rendering():
    res = e_degree_oracle(3, (4, 4, 1))
    assert res.witness.terms() == [
        "2*x1^3", "1*x1^2*x2", "2*x1*x2^2", "1*x2^3"]
    res = e_degree_oracle(5, (7, 7, 7, 18))
    assert res.witness.terms() == ["1*x3"]
    assert not res.degenerate


def test_result_dict_shape():
    doc = e_degree_oracle(3, (4, 4, 1)).to_dict()
    assert doc["value"] == 4
    assert doc["method"] == "oracle"
    assert doc["degenerate"] is False
    assert doc["witness"]["degree"] == 3
    assert doc["witness"]["terms"][0] == "2*x1^3"


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        e_degree_oracle(4, (2, 2, 2))
    with pytest.raises(ValueError):
        e_degree_oracle(3, (2, 0, 2))
    with pytest.raises(ValueError):
        e_degree_oracle(3, ())
    # the middle slices of (30, 30, 30, 30) exceed the dense-matrix cap
    with pytest.raises(ValueError, match="dense-matrix cap"):
        mult_map((30, 30, 30, 30), 57, 1, 3)


def test_power_terms_are_held_to_the_cap(monkeypatch):
    # the terms of f^power are the degree `power` piece, refused above the
    # cap before it is listed, even when both sides of the matrix fit
    def small_slice(caps, degree, slice_=oracle._slice_cached):
        H = _hilbert_cached(caps)
        assert not 0 <= degree < len(H) or H[degree] <= oracle.MATRIX_CAP
        return slice_(caps, degree)

    monkeypatch.setattr(oracle, "_slice_cached", small_slice)
    # sides of 3 and 4,950 monomials, terms of 5,050
    H = _hilbert_cached((100, 100, 100))
    assert (H[1], H[198], H[199]) == (3, 5050, 4950)
    with pytest.raises(ValueError, match="dense-matrix cap"):
        mult_map((100, 100, 100), 1, 198, 3)
    # a degree 87 piece of about 13.7 million monomials
    with pytest.raises(ValueError, match="dense-matrix cap"):
        e_degree_oracle(5, (30,) * 6 + (87,))


def test_wlp_rank_profile_verdicts():
    report = wlp_rank_profile(2, (2, 2, 2))
    assert report.verdict is False
    report = wlp_rank_profile(3, (2, 2, 2))
    assert report.verdict is True
    # each record is marked maximal exactly when rank hits min(dims)
    for rec in report.records:
        assert rec.maximal == (rec.rank == min(rec.dim_source, rec.dim_target))


def test_wlp_profile_covers_every_degree():
    box = (2, 2, 2)
    report = wlp_rank_profile(3, box)
    assert [rec.degree for rec in report.records] == list(range(top_degree(box)))
    h = hilbert_function(box)
    for rec in report.records:
        assert rec.dim_source == h[rec.degree]


def test_wlp_report_dict_round_trip_fields():
    doc = wlp_rank_profile(3, (2, 2, 2)).to_dict()
    assert doc["p"] == 3
    assert doc["verdict"] is True
    assert doc["profile"][0]["degree"] == 0


SOCLE_CASES = [
    # (p, K, a, value)
    (3, (3, 3, 3), 2, 3),
    (3, (9, 9), 2, 8),
    (3, (1, 1, 1), 1, 0),
    (2, (4, 4), 3, 4),
    (5, (5, 5, 5), 2, 6),
]


@pytest.mark.parametrize("p,K,a,value", SOCLE_CASES)
def test_socle_degree_frozen(p, K, a, value):
    assert socle_degree_oracle(p, K, a) == value


def brute_socle_degree(p, K, a):
    """Largest degree where the quotient by the diagonal a-th powers is
    nonzero, found by scanning every degree with a dense rank computation."""
    m = len(K)
    top = top_degree(K)
    h = hilbert_function(K)
    best = -1
    for j in range(top + 1):
        if j < a:
            if h[j] > 0:
                best = j
            continue
        src = [tuple(r) for r in slice_array(K, j - a)]
        tgt = {tuple(r): i for i, r in enumerate(slice_array(K, j))}
        mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
        for col, mono in enumerate(src):
            for i in range(m):
                shifted = list(mono)
                shifted[i] += a
                key = tuple(shifted)
                if key in tgt:
                    mat[tgt[key], col] = (mat[tgt[key], col] + 1) % p
        if len(tgt) and rank(MatrixFp(mat, p)) < len(tgt):
            best = j
    return best


@pytest.mark.parametrize("p,K,a", [
    (3, (3, 3, 3), 2), (2, (4, 4), 3), (5, (4, 3), 2), (2, (2, 3, 2), 3),
])
def test_socle_degree_matches_full_scan(p, K, a):
    assert socle_degree_oracle(p, K, a) == brute_socle_degree(p, K, a)


def test_socle_outputs_are_pinned():
    # every multiset of 1, 2 and 3 caps in cubes of side 14, 10 and 7, with
    # a <= 6 (3,672 inputs), byte for byte
    digest = hashlib.sha256()
    for p in (2, 3, 5, 7):
        for a in range(1, 7):
            for m, side in ((1, 14), (2, 10), (3, 7)):
                for K in itertools.combinations_with_replacement(
                        range(1, side + 1), m):
                    doc = [p, list(K), a, socle_degree_oracle(p, K, a)]
                    digest.update(canonical_json(doc).encode())
    assert digest.hexdigest() == \
        "af14c3f2466410fa8b67e45ed539b321cc87ed12f58644926d6a873a45703292"


def test_socle_search_starts_at_dimension_bound(monkeypatch):
    # (4,4) has top 6 and U = 2 for a = 3, so the search runs on [4, 6]
    # and one rank at degree 5 settles it
    calls = []

    def counting_rank(mat):
        calls.append(mat.cols)
        return rank(mat)

    monkeypatch.setattr(oracle, "rank", counting_rank)
    assert socle_degree_oracle(2, (4, 4), 3) == 4
    assert len(calls) == 1


def test_socle_oracle_checks_its_caps_once(monkeypatch):
    # the Hilbert function and the slices come from the unchecked cached
    # helpers, so only the entry point checks the caps
    calls = []
    check_box = monomials.check_box

    def counting_check_box(caps):
        calls.append(tuple(caps))
        return check_box(caps)

    monkeypatch.setattr(oracle, "check_box", counting_check_box)
    monkeypatch.setattr(monomials, "check_box", counting_check_box)
    socle_degree_oracle(3, (5, 6, 7), 2)
    assert calls == [(5, 6, 7)]


def test_mult_map_checks_its_prime_once(monkeypatch):
    # the multinomial coefficients of f^power are exact integers reduced
    # mod p with no check, and the built matrix is not checked again, so in
    # oracle, modp and linalg only mult_map's own check runs
    calls = []
    check_prime = modp.check_prime

    def counting_check_prime(p):
        calls.append(p)
        return check_prime(p)

    monkeypatch.setattr(oracle, "check_prime", counting_check_prime)
    monkeypatch.setattr(modp, "check_prime", counting_check_prime)
    monkeypatch.setattr(linalg, "check_prime", counting_check_prime)
    oracle._power_terms.cache_clear()
    mult_map((3, 4, 5), 2, 5, 11)
    assert calls == [11]


def test_relation_degree_checks_its_tuple_once(monkeypatch):
    # the matrices come from `_shift_matrix` on the checked live box, not
    # from the public `mult_map`, so only the entry point checks the tuple
    calls = []
    check_box = monomials.check_box

    def counting_check_box(caps):
        calls.append(tuple(caps))
        return check_box(caps)

    monkeypatch.setattr(oracle, "check_box", counting_check_box)
    monkeypatch.setattr(monomials, "check_box", counting_check_box)
    e_degree_oracle(3, (3, 1, 4, 5, 6))
    assert calls == [(3, 1, 4, 5, 6)]
    calls.clear()
    wlp_rank_profile(2, (4, 4, 4, 4))
    assert calls == [(4, 4, 4, 4)]


def test_hilbert_function_is_bounded_before_it_is_built(monkeypatch):
    # every oracle refuses a box of top degree above _TOP_CAP before H is
    # built; the top degree _TOP_CAP itself passes the check.  So is
    # (2,) * 30000, of top degree 30,000 but with entries up to 2^30000:
    # about 8 KB a degree, above the budget
    def small_hilbert(caps):
        assert sum(caps) - len(caps) <= oracle._TOP_CAP, caps
        assert sum(c.bit_length() for c in caps) <= 90, caps
        return (1,)

    monkeypatch.setattr(oracle, "_hilbert_cached", small_hilbert)
    for deep in ((oracle._TOP_CAP + 1, 2), (2,) * 30000):
        for call in (lambda: e_degree_oracle(2, deep + (3,)),
                     lambda: wlp_rank_profile(2, deep),
                     lambda: socle_degree_oracle(2, deep, 1),
                     lambda: mult_map(deep, 0, 1, 2)):
            with pytest.raises(ValueError, match="the Hilbert-function cap"):
                call()
    oracle._check_pieces((oracle._TOP_CAP + 1,))


def test_exact_hilbert_function_sizes_every_piece():
    # the middle pieces of (100,) * 12 pass 2^63 monomials: the exact H
    # refuses them, and the kernel bound reads the true dimensions
    caps = (100,) * 12
    with pytest.raises(ValueError, match="the dense-matrix cap"):
        oracle._check_pieces(caps, 594)
    H = _hilbert_cached(caps)
    assert [oracle._dimension_bound(H, t) for t in (300, 500, 590, 700)] == \
        [445, 345, 300, 245]


def test_nu_values():
    # closed form for a=1: every variable to the q, so the socle sits at
    # (n+1)(q-1) - q + 1
    for p, e, n in [(2, 0, 1), (2, 2, 2), (3, 1, 3), (5, 1, 2)]:
        q = p ** e
        assert socle_degree_oracle(p, (q,) * (n + 1), 1) == \
            (n + 1) * (q - 1) - q + 1
    assert socle_degree_oracle(3, (1, 1, 1), 2) == 0
    assert socle_degree_oracle(3, (3, 3, 3), 2) == 3
    assert socle_degree_oracle(3, (9, 9, 9), 2) == 12
    assert socle_degree_oracle(5, (5, 5, 5), 2) == 6


def test_nu_rejects_divisible_a():
    # nu(q) is read through fthreshold_convergence, which checks a first
    with pytest.raises(ValueError):
        fthreshold_convergence(3, 6, 2, 2)
