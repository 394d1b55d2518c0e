import ast
import dataclasses
import hashlib
import inspect
import itertools
import json

import numpy as np
import pytest

from nonkoszul import linalg, oracle, verify
from nonkoszul.formulas import _condition_char0
from nonkoszul.monomials import _hilbert_cached
from nonkoszul.oracle import MATRIX_CAP, wlp_rank_profile
from nonkoszul.verify import (
    GridSpec,
    canonical_json,
    discrepancies_csv,
    fthreshold_convergence,
    run_grid,
)


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'
    # nested keys sort too
    assert canonical_json({"z": {"y": 1, "x": 2}}).index('"x"') < \
        canonical_json({"z": {"y": 1, "x": 2}}).index('"y"')


def test_grid_spec_round_trip():
    doc = {"kind": "e", "p_list": [3, 2], "n_list": [2], "d_max": 4}
    spec = GridSpec.from_dict(doc)
    assert spec.kind == "e"
    echo = spec.to_dict()
    # the echo is canonical: lists come back sorted
    assert echo["p_list"] == [2, 3]
    assert echo["d_max"] == 4


def test_grid_spec_rejects_unknown_fields():
    with pytest.raises(ValueError):
        GridSpec.from_dict({"kind": "e", "p_list": [2], "n_list": [2],
                            "d_max": 4, "oops": 1})
    with pytest.raises(ValueError):
        GridSpec.from_dict({"kind": "nope", "p_list": [2]})
    with pytest.raises(ValueError):
        GridSpec.from_dict({"kind": "e", "p_list": [2], "n_list": [2],
                            "d_max": 4, "paths": "sideways"})


def test_e_grid_small_clean():
    report = run_grid({"kind": "e", "p_list": [2, 3], "n_list": [2],
                       "d_max": 5})
    assert report["totals"]["discrepancies"] == 0
    assert report["totals"]["enumerated"] == 2 * 5 ** 3
    # every point lands in exactly one bucket
    assert sum(report["buckets"].values()) == report["totals"]["enumerated"]
    assert report["checks"]["formula_vs_oracle"] > 0
    assert report["checks"]["power_split_bound"] > 0
    assert report["checks"]["monotonicity"] > 0
    assert report["checks"]["symmetry_classes"] > 0


def test_e_grid_sum_cap():
    report = run_grid({"kind": "e", "p_list": [3], "n_list": [3],
                       "sum_max": 10})
    assert report["totals"]["discrepancies"] == 0
    assert sum(report["buckets"].values()) == report["totals"]["enumerated"]
    assert report["buckets"]["main"] + report["buckets"]["char0"] + \
        report["buckets"]["base"] + report["buckets"]["oracle_only"] + \
        report["buckets"]["skipped"] == report["totals"]["enumerated"]


def test_e_grid_paths_filter():
    full = run_grid({"kind": "e", "p_list": [3], "n_list": [3],
                     "sum_max": 10})
    main_only = run_grid({"kind": "e", "p_list": [3], "n_list": [3],
                          "sum_max": 10, "paths": "main"})
    assert main_only["totals"]["enumerated"] < full["totals"]["enumerated"]
    assert main_only["buckets"]["oracle_only"] == 0
    assert main_only["buckets"]["main"] + main_only["buckets"]["char0"] + \
        main_only["buckets"]["base"] == main_only["totals"]["enumerated"]

    han_only = run_grid({"kind": "e", "p_list": [2], "n_list": [2],
                         "d_max": 6, "paths": "han"})
    assert han_only["buckets"]["oracle_only"] == 0
    assert han_only["buckets"]["han"] == han_only["totals"]["enumerated"]
    assert han_only["totals"]["discrepancies"] == 0


def test_e_grid_applies_both_bounds():
    # given sum_max and d_max, the points, the unit steps and the symmetry
    # classes all lie within both: the 27 triples with entries <= 3, not the
    # 84 with sum <= 9
    report = run_grid({"kind": "e", "p_list": [3], "n_list": [2],
                       "sum_max": 9, "d_max": 3})
    assert report["totals"]["enumerated"] == report["totals"]["checked"] == 27
    assert report["totals"]["discrepancies"] == 0
    assert report["checks"]["monotonicity"] == 54
    assert report["checks"]["symmetry_classes"] == 10


def test_e_grid_symmetry_section_honours_matrix_cap():
    # a symmetry class is ranked only when its largest box fits the cap;
    # the main loop skips 20 of the 56 points of this grid
    report = run_grid({"kind": "e", "p_list": [3], "n_list": [2],
                       "sum_max": 8, "matrix_cap": 1})
    assert report["totals"]["skipped"] == 20
    assert report["checks"]["symmetry_classes"] == 6


def test_e_grid_builds_nothing_above_its_matrix_cap(monkeypatch):
    # split keys and bumped tuples can have a box one step larger than the
    # point's own; the cache skips them instead of building that box
    real = oracle._shift_matrix
    sides = []

    def capped_shift_matrix(*args):
        mat = real(*args)
        sides.extend(mat.data.shape)
        assert max(mat.data.shape) <= 3, (args[:3], mat.data.shape)
        return mat

    monkeypatch.setattr(oracle, "_shift_matrix", capped_shift_matrix)
    report = run_grid({"kind": "e", "p_list": [3], "n_list": [3],
                       "sum_max": 10, "matrix_cap": 3})
    assert report["totals"]["discrepancies"] == 0
    assert max(sides) == 3
    assert report["checks"]["monotonicity"] > 0


@pytest.mark.parametrize("doc", [
    {"kind": "e", "p_list": [2], "sum_max": 5},
    {"kind": "tsd", "p_list": [2], "K_max": 3, "a_max": 2},
    {"kind": "wlp", "n_list": [3], "sum_max": 8},
    {"kind": "wlp", "p_list": [3], "d_max_n4": 0, "d_max_n5": 0},
    {"kind": "e", "p_list": [3], "n_list": [3], "sum_max": 9,
     "paths": "han"},
])
def test_grid_that_enumerates_no_point_is_refused(doc):
    # all-zero totals would read as a clean run that checked nothing
    with pytest.raises(ValueError, match="grid enumerates no point"):
        run_grid(doc)


def test_grid_eliminations_are_pinned(monkeypatch):
    # exact elimination counts of two small grids; the parent of the
    # degree-0, unit-cap and first-injective-map rules took 298 and 97, and
    # the WLP profile read degree 0 off its column from 47 on: the boxes
    # (1, 2, 2, 2) and (2, 2, 2, 2) mod 2 each save one elimination
    calls = []
    echelon = linalg._echelon

    def counting_echelon(a, p):
        calls.append(a.shape)
        return echelon(a, p)

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    counts = []
    for doc in ({"kind": "e", "p_list": [3], "n_list": [2, 3], "sum_max": 10},
                {"kind": "wlp", "p_list": [2], "n_list": [3], "sum_max": 12,
                 "d_max": 4}):
        calls.clear()
        assert run_grid(doc)["totals"]["discrepancies"] == 0
        counts.append(len(calls))
    assert counts == [140, 45]


def test_grid_matrix_cap_out_of_range_is_refused():
    # a cap below 1 would skip every point and check nothing; one above the
    # builder's cap would admit points the builder refuses
    for doc in ({"kind": "e", "p_list": [2], "n_list": [2], "sum_max": 6,
                 "matrix_cap": 0},
                {"kind": "wlp", "p_list": [2], "n_list": [3], "sum_max": 8,
                 "d_max": 4, "matrix_cap": -5}):
        with pytest.raises(ValueError, match="'matrix_cap' must be at least 1"):
            run_grid(doc)
    with pytest.raises(ValueError, match="'matrix_cap' must be at most "
                                         "5000, got 5001"):
        run_grid({"kind": "e", "p_list": [2], "n_list": [2], "sum_max": 6,
                  "matrix_cap": 5001})
    # the same bound holds for a spec built directly and for the public
    # convergence table, where (83, 83, 83), a piece of 5,167, would pass
    with pytest.raises(ValueError, match="'matrix_cap' must be at most "
                                         "5000, got 5001"):
        GridSpec(kind="tsd", matrix_cap=5001)
    with pytest.raises(ValueError, match="'matrix_cap' must be at most "
                                         "5000, got 6000"):
        fthreshold_convergence(83, 2, 2, 1, matrix_cap=6000)


WLP = {"kind": "wlp", "p_list": [2], "n_list": [3], "sum_max": 8, "d_max": 4}
TSD = {"kind": "tsd", "p_list": [2], "n_list": [2], "K_max": 3, "a_max": 2}
E = {"kind": "e", "p_list": [2], "n_list": [2], "sum_max": 6}
FTC = {"kind": "fthreshold_convergence", "p": 3, "a": 2, "n": 2, "e_max": 2}


@pytest.mark.parametrize("doc,message", [
    ({"kind": "nope", "p_list": [2]}, "unknown grid kind: 'nope'"),
    ({**E, "matrix_cap": 0},
     "grid field 'matrix_cap' must be at least 1, got 0"),
    ({**WLP, "matrix_cap": -5},
     "grid field 'matrix_cap' must be at least 1, got -5"),
    ({**TSD, "matrix_cap": 5001},
     "grid field 'matrix_cap' must be at most 5000, got 5001"),
    ({**WLP, "sum_max": "12"},
     "grid field 'sum_max' must be an integer or null, got '12'"),
    ({**WLP, "d_max_n4": None},
     "grid field 'd_max_n4' must be an integer, got None"),
    ({**WLP, "d_max": 4.0},
     "grid field 'd_max' must be an integer or null, got 4.0"),
    ({**WLP, "matrix_cap": True},
     "grid field 'matrix_cap' must be an integer, got True"),
    ({**WLP, "p_list": 2},
     "grid field 'p_list' must be a list of integers, got 2"),
    ({**WLP, "n_list": [3, "3"]},
     "grid field 'n_list' must be a list of integers, got [3, '3']"),
    ({**WLP, "p_list": [0]}, "grid field 'p_list': modulus 0 is not prime"),
    ({**TSD, "p_list": [1]}, "grid field 'p_list': modulus 1 is not prime"),
    ({**TSD, "a_max": -1}, "grid field 'a_max' must be at least 1, got -1"),
    ({**E, "sum_max": -3}, "grid field 'sum_max' must be at least 1, got -3"),
    ({**FTC, "e_max": -5}, "need e_max >= 0, got -5"),
    ({**E, "sum_max": None}, "e-grid needs sum_max or d_max"),
    ({**TSD, "a_max": None}, "tsd grid needs K_max and a_max"),
    ({**FTC, "e_max": None},
     "fthreshold_convergence grid needs p, a, n, e_max"),
    # specs that a direct build let through before every check moved into
    # GridSpec: a recursion error, a grid that checks nothing, a paths filter
    # read as "all", a run that stops partway, and an empty table
    ({**E, "n_list": [-1], "sum_max": 5},
     "grid field 'n_list' must hold no negative entries, got [-1]"),
    ({**TSD, "K_max": 0}, "grid field 'K_max' must be at least 1, got 0"),
    ({**E, "paths": "sideways"}, "unknown paths filter: 'sideways'"),
    ({**E, "p_list": [2, 4]}, "grid field 'p_list': modulus 4 is not prime"),
    ({**FTC, "n": 1, "e_max": 4, "matrix_cap": 0},
     "grid field 'matrix_cap' must be at least 1, got 0"),
    # a repeated prime or n would enumerate and count its points again
    ({"kind": "tsd", "p_list": [2, 2], "n_list": [1, 1], "K_max": 3,
      "a_max": 2}, "grid field 'p_list' must hold no repeated entries, "
                   "got [2, 2]"),
    ({**E, "p_list": [2, 3, 2]},
     "grid field 'p_list' must hold no repeated entries, got [2, 3, 2]"),
    ({**E, "n_list": [2, 2]},
     "grid field 'n_list' must hold no repeated entries, got [2, 2]"),
    # a kind that cannot be hashed is as unknown as any other
    ({**E, "kind": ["e"]}, "unknown grid kind: ['e']"),
    ({**E, "kind": {"a": 1}}, "unknown grid kind: {'a': 1}"),
    # a field the kind does not read would change nothing, so it is refused
    ({"kind": "e", "p_list": [2], "n_list": [2], "sum_max": 5, "K_max": 9,
      "a_max": 4, "e_max": 3},
     "grid kind 'e' does not read fields ['K_max', 'a_max', 'e_max']"),
    ({**FTC, "p_list": [5], "sum_max": 3, "K_max": 9},
     "grid kind 'fthreshold_convergence' does not read fields "
     "['K_max', 'p_list', 'sum_max']"),
    ({**WLP, "paths": "main"},
     "grid kind 'wlp' does not read fields ['paths']"),
    ({**TSD, "d_max": 4}, "grid kind 'tsd' does not read fields ['d_max']"),
])
def test_grid_spec_refuses_alike_however_built(doc, message):
    builds = [lambda: GridSpec.from_dict(doc), lambda: GridSpec(**doc),
              lambda: run_grid(doc)]
    args = {k: v for k, v in doc.items() if k != "kind"}
    if (doc["kind"] == "fthreshold_convergence" and doc["e_max"] is not None
            and set(args) <= set(inspect.signature(
                fthreshold_convergence).parameters)):
        builds.append(lambda: fthreshold_convergence(**args))
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("kind", sorted(verify._GRIDS))
def test_grids_table_lists_the_fields_each_runner_reads(kind):
    # every spec.<field> in the runner's source, nested helpers included;
    # kind selects the runner, so it is no field of its own
    runner, read = verify._GRIDS[kind]
    tree = ast.parse(inspect.getsource(getattr(verify, runner)))
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "spec"}
    assert reads - {"kind"} == set(read)
    assert set(read) < {f.name for f in dataclasses.fields(GridSpec)}


def test_grid_spec_reads_numpy_integers():
    # numpy integers pass as they do at every other public entry, stored as
    # Python ints, so the report renders byte for byte as the int-built one
    spec = GridSpec(kind="e", p_list=[np.int64(3)], n_list=[np.int8(2)],
                    sum_max=np.int64(6), matrix_cap=np.int32(100))
    assert type(spec.p_list[0]) is int and type(spec.sum_max) is int
    doc = {"kind": "e", "p_list": [3], "n_list": [2], "sum_max": 6,
           "matrix_cap": 100}
    assert canonical_json(verify.verify_e_grid(spec)) == \
        canonical_json(run_grid(doc))
    # the convergence table reads its arguments through the same spec
    assert canonical_json(fthreshold_convergence(
        np.int64(3), np.int32(2), np.int8(2), np.int64(2))) == \
        canonical_json(fthreshold_convergence(3, 2, 2, 2))


def test_e_grid_two_degrees_is_oracle_only():
    # no closed form covers n = 1, so every point is an oracle-only check
    report = run_grid({"kind": "e", "p_list": [2], "n_list": [1], "d_max": 3})
    assert report["totals"]["checked"] == 9
    assert report["totals"]["discrepancies"] == 0
    assert report["buckets"]["oracle_only"] == 9


def test_e_grid_single_degree_runs():
    # n = 0 leaves the empty box, which has one monomial and needs no
    # feasibility check
    report = run_grid({"kind": "e", "p_list": [2], "n_list": [0],
                       "sum_max": 5})
    assert report["totals"]["checked"] == 5
    assert report["totals"]["discrepancies"] == 0
    report = run_grid({"kind": "e", "p_list": [2, 3], "n_list": [0, 1],
                       "d_max": 4})
    assert report["totals"]["checked"] == 40
    assert report["totals"]["discrepancies"] == 0


def test_wlp_grid_small_clean():
    report = run_grid({"kind": "wlp", "p_list": [2, 3], "n_list": [3],
                       "sum_max": 10, "d_max": 6, "d_max_n4": 5,
                       "d_max_n5": 4})
    assert report["totals"]["discrepancies"] == 0
    assert report["buckets"]["obs_equivalence"] > 0
    assert report["buckets"]["n3_classified"] > 0
    assert report["buckets"]["filter_checked"] > 0


def test_wlp_verdict_matches_rank_profile():
    # the one-comparison verdict against the full rank profile on every
    # multiset of 2, 3 and 4 caps in cubes of side 9, 6 and 4 (408 boxes),
    # most of them outside the characteristic-zero condition
    cache = verify._OracleCache(MATRIX_CAP)
    outside = 0
    for p in (2, 3, 5):
        for m, side in ((2, 9), (3, 6), (4, 4)):
            for d in itertools.combinations_with_replacement(
                    range(1, side + 1), m):
                outside += not _condition_char0(d)
                assert verify._wlp_verdict(p, d, cache) == \
                    wlp_rank_profile(p, d).verdict, (p, d)
    assert outside == 279


def test_wlp_grid_skips_oversized_boxes(monkeypatch):
    # the four-, five- and six-cap sections honour matrix_cap before any rank
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle called on a skipped point")

    monkeypatch.setattr(verify, "e_degree_oracle", no_oracle)
    monkeypatch.setattr(verify, "wlp_rank_profile", no_oracle)
    report = run_grid({"kind": "wlp", "p_list": [3], "n_list": [],
                       "d_max": 5, "d_max_n4": 5, "d_max_n5": 4,
                       "matrix_cap": 10})
    totals = report["totals"]
    assert totals["skipped"] > 0
    assert totals["skipped"] == totals["enumerated"]
    assert totals["checked"] == 0


def _sha256(report) -> str:
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def test_large_prime_wlp_grid_skips_without_hilbert_functions(monkeypatch):
    # at p = 4999 every box's mean piece is above the cap, so the grid skips
    # all 35 boxes without building (or caching) a Hilbert function
    def no_hilbert(caps):
        raise AssertionError(f"Hilbert function built for {caps}")

    monkeypatch.setattr(verify, "_hilbert_cached", no_hilbert)
    report = run_grid({"kind": "wlp", "p_list": [4999], "n_list": [3],
                       "d_max": 5002})
    assert report["totals"]["skipped"] == report["totals"]["enumerated"] == 35
    assert _sha256(report) == \
        "44451ecf27874af0322369945bfafd6bc9f14e51ed26961a63f73d4a2ba2b7b1"


def test_box_feasible_decides_as_the_largest_piece():
    # the mean-piece test in front of H changes no decision
    for m in range(1, 5):
        for d in itertools.combinations_with_replacement(range(1, 13), m):
            for cap in (1, 7, 50, 500, 5000):
                assert verify._box_feasible(d, cap) == \
                    (max(_hilbert_cached(d)) <= cap), (d, cap)


def test_agreements_count_failing_points_once(monkeypatch):
    # a forced WLP verdict fails 7 equivalence points (their profile lacks
    # WLP), 48 four- and five-cap classifications and 14 six-cap boxes (the
    # feasibility filter excludes them).  Only (2,2,2,2) and (2,2,2,3) mod 2
    # fail twice: they sit in both the equivalence and four-cap sections, the
    # double count a later digest change removes.  Each still costs one
    # agreement.
    monkeypatch.setattr(verify, "_wlp_verdict", lambda p, d, cache: True)
    report = run_grid({"kind": "wlp", "p_list": [2, 3], "n_list": [3],
                       "sum_max": 10, "d_max": 6, "d_max_n4": 5,
                       "d_max_n5": 4})
    totals = report["totals"]
    failing = {(rec["p"], tuple(rec["d"])) for rec in report["discrepancies"]}
    assert totals["discrepancies"] > len(failing)
    assert totals["agreements"] == totals["checked"] - len(failing) >= 0
    assert len(failing) == 67 and totals["agreements"] == 26
    # the bytes pin the order of the 69 discrepancy records
    assert totals["discrepancies"] == 69
    assert _sha256(report) == \
        "9b9e5f8fb1de110fca3d61f077a9747fa87954bf753745edfa4f567748fa6a38"
    # and so do the bytes of their CSV
    csv_bytes = discrepancies_csv(report).encode()
    assert len(csv_bytes) == 3343
    assert hashlib.sha256(csv_bytes).hexdigest() == \
        "d4597d83e3ee9eb03f3fcd120cc78c406504658416adaeb00d84deae83263527"


def test_six_cap_passes_fail_the_feasibility_filter(monkeypatch):
    # the six-cap section hands each box with WLP to the feasibility filter,
    # which excludes every q > 1, so a forced verdict fails all 14 boxes
    # there, once each
    monkeypatch.setattr(verify, "_wlp_verdict", lambda p, d, cache: True)
    report = run_grid({"kind": "wlp", "p_list": [2, 3], "n_list": [],
                       "d_max_n4": 0, "d_max_n5": 4})
    buckets = report["buckets"]
    assert buckets["n5_checked"] == buckets["filter_checked"] == 14
    assert [(rec["check"], rec["n"]) for rec in report["discrepancies"]] == \
        [("feasibility_filter", 5)] * 14
    assert report["totals"]["agreements"] == 0


def test_report_bytes_are_pinned():
    # small e, wlp and tsd grids, and e grids under each paths filter, byte
    # for byte; run_grid reads each one through GridSpec.from_dict
    pinned = [
        "566a51fd501b583b212f3c00d6cc82b6e7428a4259b19479e38fa1074eaa5235",
        "a9391a26321f6ff5eefbb309206ee6d200366b9774928f266f5313d764be476a",
        "973871dd190a788676171fa1f641695a357b7f825f3b7697bff3a79968bf46e6",
        "ef3e4c29dd4bf4992f638d65a45390e33e01e75b765354a506c2e32b51d57700",
        "f40b00c1ba53239f38892bbe2b72578a0f1f6bd0deb795dd2e63e65f4ccaab35",
        "1dc6baea2349f5ac3d1139bcafef2cc7a3236105a364902947dd2b1630b65cf7",
        "aa7d045184959b25d276c1bda1740a14f332751239b324b4e749534eeea9974b",
    ]
    docs = [
        {"kind": "e", "p_list": [2, 3], "n_list": [3], "sum_max": 12},
        {"kind": "e", "p_list": [2, 5], "n_list": [2], "d_max": 8},
        {"kind": "wlp", "p_list": [2, 3], "n_list": [3], "sum_max": 12,
         "d_max": 8, "d_max_n4": 5, "d_max_n5": 4},
        {"kind": "tsd", "p_list": [2, 3], "n_list": [2], "K_max": 5,
         "a_max": 3},
        {"kind": "e", "p_list": [2, 3], "n_list": [3, 4], "sum_max": 12,
         "paths": "main"},
        {"kind": "e", "p_list": [2, 5], "n_list": [2], "d_max": 8,
         "paths": "han"},
        {"kind": "wlp", "p_list": [2, 3], "n_list": [3, 4], "sum_max": 12,
         "d_max": 6, "d_max_n4": 5, "d_max_n5": 4},
    ]
    assert [_sha256(run_grid(doc)) for doc in docs] == pinned


def test_e_grid_records_every_arrangement_of_a_failing_multiset(monkeypatch):
    # Raising the oracle value of every multiset whose sum is a multiple of 4
    # (symmetric, so the cache stays exact) breaks split bounds and unit
    # steps on some multisets and leaves others clean.  Every arrangement of
    # a failing multiset writes its own records, in grid order, and a clean
    # one adds the same check counts however it is ordered: the bytes of
    # both reports are those of running both checks on every arrangement.
    real = verify.e_degree_oracle

    def inflated(p, d, want_witness=True):
        res = real(p, d, want_witness=want_witness)
        return dataclasses.replace(res, value=res.value + 2 * (sum(d) % 4 == 0))

    monkeypatch.setattr(verify, "e_degree_oracle", inflated)
    docs = [
        {"kind": "e", "p_list": [2, 3], "n_list": [2, 3, 4], "sum_max": 10},
        {"kind": "e", "p_list": [2, 5], "n_list": [2, 3, 4], "d_max": 4},
    ]
    reports = [run_grid(doc) for doc in docs]
    for report in reports:
        kinds = {rec["check"] for rec in report["discrepancies"]}
        assert {"power_split_bound", "monotonicity"} <= kinds
        assert 0 < report["totals"]["agreements"] < report["totals"]["checked"]
    assert [r["totals"]["discrepancies"] for r in reports] == [4306, 20357]
    assert [_sha256(r) for r in reports] == [
        "6102cdc7338165421c05d85bb6f0942bb757e5309217209576ce9b352f2712f7",
        "c1836dfb6a106fc2103367bc6a38ab7dfb776b537962cc030306cbe962900153",
    ]


def test_e_grid_records_an_asymmetric_oracle(monkeypatch):
    # the main loop reads the oracle on sorted keys, so an oracle off by one
    # on every unsorted tuple shows only in the symmetry section
    real = verify.e_degree_oracle

    def asymmetric(p, d, want_witness=True):
        res = real(p, d, want_witness=want_witness)
        if list(d) == sorted(d):
            return res
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(verify, "e_degree_oracle", asymmetric)
    report = run_grid(E)
    records = report["discrepancies"]
    assert {rec["check"] for rec in records} == {"symmetry"}
    assert len(records) == 5
    assert (report["totals"]["checked"], report["totals"]["agreements"]) == \
        (20, 15)
    assert records[0] == {"check": "symmetry", "p": 2, "d": [1, 1, 2],
                          "values": {"1,1,2": 2, "1,2,1": 3, "2,1,1": 3}}


def test_tsd_grid_records_formula_against_oracle(monkeypatch):
    real = verify.tsd_formula
    monkeypatch.setattr(verify, "tsd_formula",
                        lambda p, K, a, method="auto":
                        real(p, K, a, method=method) + 1)
    report = run_grid({"kind": "tsd", "p_list": [2], "n_list": [1],
                       "K_max": 3, "a_max": 2})
    records = report["discrepancies"]
    assert len(records) == 6
    assert {rec["check"] for rec in records} == {"tsd_formula_vs_oracle"}
    assert report["totals"]["agreements"] == 0
    assert records[0] == {"check": "tsd_formula_vs_oracle", "p": 2,
                          "K": [1, 1], "a": 1, "formula": 1, "oracle": 0}


def test_tsd_grid_small_clean():
    report = run_grid({"kind": "tsd", "p_list": [2, 3], "n_list": [2],
                       "K_max": 4, "a_max": 3})
    assert report["totals"]["discrepancies"] == 0
    assert report["totals"]["checked"] == report["buckets"]["checked"]


def test_fthreshold_convergence_report():
    report = fthreshold_convergence(3, 2, 2, 3)
    assert report["c"] == "4/3"
    rows = report["rows"]
    assert [row["q"] for row in rows] == [1, 3, 9, 27]
    assert [row["nu"] for row in rows] == [0, 3, 12, 39]
    assert all(row["within_bound"] for row in rows)
    assert report["totals"]["discrepancies"] == 0
    # deviations shrink in absolute value once past the first entries
    assert rows[-1]["deviation"] == "-1/9"


def test_fthreshold_convergence_records_a_rising_deviation():
    # the threshold c = 4/5 that n = 1 gets is wrong (from q = 5 on the rows
    # read nu = q + 1, so c = 1), and the deviation c - nu/q rises at e = 2
    # and e = 3.
    # ROADMAP item 1 replaces this check and re-pins this case.
    report = fthreshold_convergence(5, 4, 1, 3)
    assert [row["nu"] for row in report["rows"]] == [0, 6, 26, 126]
    assert report["discrepancies"] == [
        {"check": "deviation_monotone", "e": 2, "deviation": "-6/25",
         "previous": "-2/5"},
        {"check": "deviation_monotone", "e": 3, "deviation": "-26/125",
         "previous": "-6/25"}]


def test_fthreshold_convergence_checks_nu_against_formula(monkeypatch):
    # each reported nu(q) is compared with the closed form's; a formula off
    # by one writes one record per row
    real = verify.tsd_formula
    monkeypatch.setattr(verify, "tsd_formula",
                        lambda p, K, a: real(p, K, a) + 1)
    report = fthreshold_convergence(3, 2, 2, 3)
    assert [(rec["check"], rec["q"], rec["formula"] - rec["nu"])
            for rec in report["discrepancies"]] == \
        [("nu_formula", row["q"], 1) for row in report["rows"]]
    assert [rec["nu"] for rec in report["discrepancies"]] == [0, 3, 12, 39]


def test_fthreshold_convergence_skips_oversized_boxes():
    report = fthreshold_convergence(5, 2, 2, 3, matrix_cap=5000)
    reported_q = [row["q"] for row in report["rows"]]
    assert reported_q == [1, 5, 25]
    assert report["totals"]["skipped"] == 1
    assert report["skipped"][0]["q"] == 125
    assert "reason" in report["skipped"][0]


def test_fthreshold_convergence_skips_deep_rows_without_hilbert():
    # n = 1: the largest piece of the box (q, q) is q, so the rows from
    # q = 13^3 on exceed the cap and are skipped at once
    report = fthreshold_convergence(13, 2, 1, 9, matrix_cap=200)
    assert [row["q"] for row in report["rows"]] == [1, 13, 169]
    assert [(s["e"], s["peak_dimension"]) for s in report["skipped"]] == \
        [(e, 13 ** e) for e in range(3, 10)]


def test_cube_peak_matches_hilbert_function():
    for q in range(1, 30):
        for m in range(1, 6):
            assert verify._cube_peak(q, m) == \
                max(_hilbert_cached((q,) * m)), (q, m)


def test_fthreshold_trivial_single_row():
    report = fthreshold_convergence(3, 2, 2, 0)
    assert [row["q"] for row in report["rows"]] == [1]


def test_run_grid_dispatch_and_determinism():
    doc = {"kind": "e", "p_list": [2], "n_list": [2], "d_max": 4}
    a = canonical_json(run_grid(doc))
    b = canonical_json(run_grid(doc))
    assert a == b


def test_run_grid_checks_a_fthreshold_grid_once(monkeypatch):
    # the checked spec goes to the grid's runner, which builds no second one
    built = []
    post_init = GridSpec.__post_init__

    def counted(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(GridSpec, "__post_init__", counted)
    report = run_grid(FTC)
    assert built == ["fthreshold_convergence"]
    assert canonical_json(report) == \
        canonical_json(fthreshold_convergence(3, 2, 2, 2))


def test_run_grid_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_grid({"kind": "bogus"})


def test_discrepancies_csv():
    report = {"discrepancies": [
        {"check": "formula_vs_oracle", "p": 2, "d": [3, 3, 4],
         "formula": 5, "oracle": 4},
        {"check": "monotonicity", "p": 3, "d": [1, 1, 1], "coordinate": 0},
    ]}
    text = discrepancies_csv(report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("index,check")
    assert len(lines) == 3
    assert "formula_vs_oracle" in lines[1]
    # cells holding a comma or a quote are quoted with doubled quotes, and
    # None is written as the text None, not as an empty field
    report = {"discrepancies": [
        {"check": "symmetry", "p": 3, "d": [1, 2, 3],
         "values": {"1,2,3": 4}, "bound": None}]}
    assert discrepancies_csv(report) == (
        "index,check,p,d,bound,values\n"
        '0,symmetry,3,"[1,2,3]",None,"{""1,2,3"":4}"\n')


def test_suite_json_stable_across_runs():
    small = [{"kind": "e", "p_list": [2], "n_list": [2], "d_max": 4},
             {"kind": "tsd", "p_list": [2], "n_list": [2], "K_max": 3,
              "a_max": 3}]
    first = [canonical_json(run_grid(doc)) for doc in small]
    second = [canonical_json(run_grid(doc)) for doc in small]
    assert first == second
    parsed = json.loads(first[0])
    assert parsed["totals"]["discrepancies"] == 0
