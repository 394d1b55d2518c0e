import hashlib
import json

import pytest

from nonkoszul import verify
from nonkoszul.verify import (
    GridSpec,
    canonical_json,
    default_suite,
    discrepancies_csv,
    fthreshold_convergence,
    run_grid,
    run_suite,
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


def test_e_grid_two_degrees_is_oracle_only():
    # no closed form covers n = 1, so every point is an oracle-only check
    report = run_grid({"kind": "e", "p_list": [2], "n_list": [1], "d_max": 3})
    assert report["totals"]["checked"] == 9
    assert report["totals"]["discrepancies"] == 0
    assert report["buckets"]["oracle_only"] == 9


def test_wlp_grid_small_clean():
    report = run_grid({"kind": "wlp", "p_list": [2, 3], "n_list": [3],
                       "sum_max": 10, "d_max": 6, "d_max_n4": 5,
                       "d_max_n5": 4})
    assert report["totals"]["discrepancies"] == 0
    assert report["buckets"]["obs_equivalence"] > 0
    assert report["buckets"]["n3_classified"] > 0
    assert report["buckets"]["filter_checked"] > 0


def _sha256(report) -> str:
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def test_agreements_count_failing_points_once(monkeypatch):
    # a forced WLP verdict makes some five-cap points fail twice (wrong
    # classification and unexpected pass); each still costs one agreement
    monkeypatch.setattr(verify, "_profile_verdict", lambda p, d, cache: True)
    report = run_grid({"kind": "wlp", "p_list": [2, 3], "n_list": [3],
                       "sum_max": 10, "d_max": 6, "d_max_n4": 5,
                       "d_max_n5": 4})
    totals = report["totals"]
    failing = {(rec["p"], tuple(rec["d"])) for rec in report["discrepancies"]}
    assert totals["discrepancies"] > len(failing)
    assert totals["agreements"] == totals["checked"] - len(failing) >= 0
    # the bytes pin the order of the 88 discrepancy records
    assert totals["discrepancies"] == 88
    assert _sha256(report) == \
        "169e24e9f4d25a1512e6fda73a7d375d2d75a1386f1d0a798c7d4886e7826927"


def test_report_bytes_are_pinned():
    # the e, wlp and tsd grids of the default suite, byte for byte
    pinned = [
        "566a51fd501b583b212f3c00d6cc82b6e7428a4259b19479e38fa1074eaa5235",
        "a9391a26321f6ff5eefbb309206ee6d200366b9774928f266f5313d764be476a",
        "973871dd190a788676171fa1f641695a357b7f825f3b7697bff3a79968bf46e6",
        "ef3e4c29dd4bf4992f638d65a45390e33e01e75b765354a506c2e32b51d57700",
    ]
    docs = [doc for doc in default_suite()
            if doc["kind"] in ("e", "wlp", "tsd")]
    assert [_sha256(run_grid(doc)) for doc in docs] == pinned


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


def test_fthreshold_convergence_skips_oversized_boxes():
    report = fthreshold_convergence(5, 2, 2, 3, matrix_cap=5000)
    reported_q = [row["q"] for row in report["rows"]]
    assert reported_q == [1, 5, 25]
    assert report["totals"]["skipped"] == 1
    assert report["skipped"][0]["q"] == 125
    assert "reason" in report["skipped"][0]


def test_fthreshold_trivial_single_row():
    report = fthreshold_convergence(3, 2, 2, 0)
    assert [row["q"] for row in report["rows"]] == [1]


def test_run_grid_dispatch_and_determinism():
    doc = {"kind": "e", "p_list": [2], "n_list": [2], "d_max": 4}
    a = canonical_json(run_grid(doc))
    b = canonical_json(run_grid(doc))
    assert a == b


def test_run_grid_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_grid({"kind": "bogus"})


def test_default_suite_shape():
    specs = default_suite()
    kinds = [s["kind"] for s in specs]
    assert "e" in kinds and "wlp" in kinds and "tsd" in kinds
    assert "fthreshold_convergence" in kinds
    # every spec round-trips through its validator
    for doc in specs:
        if doc["kind"] != "fthreshold_convergence":
            GridSpec.from_dict(doc)


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


def test_suite_json_stable_across_runs():
    small = [{"kind": "e", "p_list": [2], "n_list": [2], "d_max": 4},
             {"kind": "tsd", "p_list": [2], "n_list": [2], "K_max": 3,
              "a_max": 3}]
    first = [canonical_json(r) for r in run_suite(small)]
    second = [canonical_json(r) for r in run_suite(small)]
    assert first == second
    parsed = json.loads(first[0])
    assert parsed["totals"]["discrepancies"] == 0
