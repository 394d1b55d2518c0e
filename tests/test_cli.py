import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nonkoszul
from nonkoszul import cli, oracle
from nonkoszul.monomials import _hilbert_cached, slice_array
from nonkoszul.oracle import mult_map
from nonkoszul.verify import MATRIX_CAP, GridSpec, canonical_json

CMD = [sys.executable, "-m", "nonkoszul.cli"]
# the child interpreter imports the same package the tests import
SRC = os.path.dirname(os.path.dirname(nonkoszul.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args, expect=0):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=ENV)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_e_json_output():
    proc = run_cli("e", "--p", "5", "--d", "6,7,11,12")
    doc = json.loads(proc.stdout)
    assert doc["value"] == 16
    assert doc["method"] == "main"
    assert doc["p"] == 5
    # output is canonical: reserializing the parsed document is a no-op
    assert canonical_json(doc) == proc.stdout


def test_e_plain_output():
    proc = run_cli("e", "--p", "3", "--d", "4,4,1", "--format", "plain")
    assert "E(4,4,1) mod 3 = 4" in proc.stdout


def test_e_oracle_witness():
    proc = run_cli("e", "--p", "3", "--d", "4,4,1", "--method", "oracle")
    doc = json.loads(proc.stdout)
    assert doc["value"] == 4
    assert doc["witness"]["terms"] == [
        "2*x1^3", "1*x1^2*x2", "2*x1*x2^2", "1*x2^3"]


def test_e_oracle_witness_at_large_prime():
    # products of residues near 2^31 overflow int64 when summed unreduced;
    # the printed witness must still map to zero, checked in Python ints
    p = 2**31 - 1
    proc = run_cli("e", "--p", str(p), "--d", "3,3,3,3,3", "--method", "oracle")
    doc = json.loads(proc.stdout)
    box, degree = (3, 3, 3, 3), doc["witness"]["degree"]
    assert doc["value"] == degree + 3
    index = {tuple(int(x) for x in row): i
             for i, row in enumerate(slice_array(box, degree))}
    vec = np.zeros(len(index), dtype=object)
    for term in doc["witness"]["terms"]:
        coeff, *factors = term.split("*")
        expo = [0] * len(box)
        for factor in factors:
            var, _, power = factor.partition("^")
            expo[int(var[1:]) - 1] = int(power or 1)
        vec[index[tuple(expo)]] = int(coeff)
    assert any(vec)
    image = mult_map(box, degree, 3, p).data.astype(object) @ vec
    assert not np.any(image % p)


def test_e_formula_refusal_exits_2():
    proc = run_cli("e", "--p", "5", "--d", "7,7,7,18", "--method", "formula",
                   expect=2)
    doc = json.loads(proc.stdout)
    assert doc["status"] == "not_applicable"
    assert doc["failing"] == ["main_thm_condition5"]
    assert doc["min_function_value"] == 20


def test_e_formula_route_refused_for_odd_sizes():
    # no closed form covers a 2-entry tuple; asking for one is a refusal
    proc = run_cli("e", "--p", "5", "--d", "3,4", "--method", "formula",
                   expect=2)
    doc = json.loads(proc.stdout)
    assert doc["status"] == "not_applicable"
    assert doc["failing"] == ["formula_route"]


def test_e_bad_inputs_exit_1():
    run_cli("e", "--p", "4", "--d", "2,2", expect=1)
    run_cli("e", "--p", "5", "--d", "0,2", expect=1)
    run_cli("e", "--p", "5", "--d", "x,y", expect=1)
    # the formula route checks one- and two-entry tuples before refusing them
    for p, d in (("4", "3,4"), ("5", "0,5"), ("5", "-2")):
        proc = run_cli("e", "--p", p, "--d", d, "--method", "formula",
                       expect=1)
        assert proc.stderr.startswith("error: ")
    run_cli("e", "--p", "5", expect=1)
    run_cli("nosuchcommand", expect=1)


def test_e_output_file(tmp_path):
    out = tmp_path / "result.json"
    run_cli("e", "--p", "5", "--d", "6,7,11,12", "-o", str(out))
    raw = out.read_bytes()
    doc = json.loads(raw)
    assert doc["value"] == 16
    assert canonical_json(doc).encode() == raw


def test_output_write_failure_exits_1(tmp_path):
    out = tmp_path / "missing" / "result.json"
    proc = run_cli("e", "--p", "3", "--d", "2,2,2", "-o", str(out), expect=1)
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_wlp_command():
    proc = run_cli("wlp", "--p", "3", "--d", "2,2,2")
    doc = json.loads(proc.stdout)
    assert doc["verdict"] is True
    assert doc["profile"][0]["degree"] == 0
    proc = run_cli("wlp", "--p", "2", "--d", "2,2,2")
    assert json.loads(proc.stdout)["verdict"] is False


def test_tsd_command_with_check():
    proc = run_cli("tsd", "--p", "3", "--K", "3,3,3", "--a", "2", "--check")
    doc = json.loads(proc.stdout)
    assert doc["value"] == 3
    assert doc["oracle_value"] == 3
    assert doc["agree"] is True


def test_fthreshold_command():
    proc = run_cli("fthreshold", "--p", "3", "--a", "2", "--n", "2")
    doc = json.loads(proc.stdout)
    assert doc["c"] == "4/3"
    assert doc["M"] == "5/6"
    assert len(doc["terms"]) == 5


def test_fthreshold_convergence_flag():
    proc = run_cli("fthreshold", "--p", "3", "--a", "2", "--n", "2",
                   "--converge", "2")
    doc = json.loads(proc.stdout)
    assert [row["q"] for row in doc["convergence"]["rows"]] == [1, 3, 9]
    assert doc["convergence"]["totals"]["discrepancies"] == 0


def test_fthreshold_negative_converge_exits_1(tmp_path):
    proc = run_cli("fthreshold", "--p", "3", "--a", "2", "--n", "2",
                   "--converge", "-5", expect=1)
    assert proc.stderr.startswith("error: ") and "e_max" in proc.stderr
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "fthreshold_convergence", "p": 3,
                                "a": 2, "n": 2, "e_max": -5}))
    proc = run_cli("verify", "--grid", str(grid), expect=1)
    assert proc.stderr.startswith("error: ") and "e_max" in proc.stderr


def test_matrix_cap_out_of_range_exits_1(tmp_path, capsys):
    # a cap below 1 would skip every row or point and exit 0 having checked
    # nothing; a cap above the builder's would stop the run halfway
    for cap, bound in (("0", "at least 1"), ("5001", "at most 5000")):
        for converge in ([], ["--converge", "2"]):
            args = ["fthreshold", "--p", "3", "--a", "2", "--n", "2",
                    "--matrix-cap", cap, *converge]
            assert cli.main(args) == 1
            assert capsys.readouterr().err == \
                f"error: --matrix-cap must be {bound}, got {cap}\n"
    grid = tmp_path / "grid.json"
    for doc, bound in (({"kind": "e", "p_list": [2], "n_list": [2],
                         "sum_max": 6, "matrix_cap": 0}, "at least 1"),
                       ({"kind": "wlp", "p_list": [2], "n_list": [3],
                         "sum_max": 8, "d_max": 4, "matrix_cap": -5},
                        "at least 1"),
                       ({"kind": "tsd", "p_list": [2], "n_list": [2],
                         "K_max": 3, "a_max": 2, "matrix_cap": 5001},
                        "at most 5000")):
        grid.write_text(json.dumps(doc))
        assert cli.main(["verify", "--grid", str(grid)]) == 1
        assert capsys.readouterr().err == (
            f"error: grid field 'matrix_cap' must be {bound}, "
            f"got {doc['matrix_cap']}\n")
    # both defaults are the builder's cap itself
    args = cli._build_parser().parse_args(
        ["fthreshold", "--p", "3", "--a", "2", "--n", "2"])
    assert args.matrix_cap == oracle.MATRIX_CAP
    assert GridSpec(kind="e", d_max=1).matrix_cap == oracle.MATRIX_CAP


def test_verify_command(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "e", "p_list": [2], "n_list": [2],
                                "d_max": 4}))
    proc = run_cli("verify", "--grid", str(grid))
    doc = json.loads(proc.stdout)
    assert doc["totals"]["discrepancies"] == 0
    assert canonical_json(doc) == proc.stdout


def test_verify_csv_sidecar(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "e", "p_list": [2], "n_list": [2],
                                "d_max": 3}))
    csv_path = tmp_path / "disc.csv"
    run_cli("verify", "--grid", str(grid), "--csv", str(csv_path))
    assert csv_path.read_text().startswith("index,check")


def test_verify_bad_grid_exits_1(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text("not json at all")
    run_cli("verify", "--grid", str(grid), expect=1)
    grid.write_text(json.dumps({"kind": "e", "p_list": [2], "n_list": [2],
                                "d_max": 3, "mystery": 1}))
    proc = run_cli("verify", "--grid", str(grid), expect=1)
    assert "mystery" in proc.stderr
    # a grid with no n_list enumerates no point, so it checks nothing
    grid.write_text(json.dumps({"kind": "e", "p_list": [2], "sum_max": 5}))
    proc = run_cli("verify", "--grid", str(grid), expect=1)
    assert proc.stderr == "error: grid enumerates no point\n"
    # wrongly typed fields are refused with a message, not a traceback
    for field, value in (("sum_max", "12"), ("d_max_n4", None),
                         ("d_max", 4.0), ("matrix_cap", True), ("p_list", 2),
                         ("n_list", [3, "3"]), ("n_list", [-1])):
        doc = {"kind": "wlp", "p_list": [2], "n_list": [3], "sum_max": 8,
               "d_max": 4}
        doc[field] = value
        grid.write_text(json.dumps(doc))
        proc = run_cli("verify", "--grid", str(grid), expect=1)
        assert proc.stderr.startswith("error: ") and field in proc.stderr
        assert "Traceback" not in proc.stderr
    # every p_list entry must be a prime
    for kind, extra in (("wlp", {"n_list": [3], "sum_max": 8, "d_max": 4}),
                        ("tsd", {"n_list": [2], "K_max": 3, "a_max": 2})):
        for p in (0, 1, 4):
            grid.write_text(json.dumps({"kind": kind, "p_list": [p], **extra}))
            proc = run_cli("verify", "--grid", str(grid), expect=1)
            assert proc.stderr.startswith("error: ")
            assert "p_list" in proc.stderr and "Traceback" not in proc.stderr
    # bounds that enumerate no point are refused, not silently checked
    for field, doc in (
            ("K_max", {"kind": "tsd", "p_list": [2], "n_list": [2],
                       "K_max": 0, "a_max": 2}),
            ("a_max", {"kind": "tsd", "p_list": [2], "n_list": [2],
                       "K_max": 3, "a_max": -1}),
            ("sum_max", {"kind": "e", "p_list": [2], "n_list": [2],
                         "sum_max": -3})):
        grid.write_text(json.dumps(doc))
        proc = run_cli("verify", "--grid", str(grid), expect=1)
        assert proc.stderr.startswith("error: ") and field in proc.stderr
        assert "Traceback" not in proc.stderr
    # a grid file must hold a JSON object
    for text in ('["kind"]', "5", "null"):
        grid.write_text(text)
        proc = run_cli("verify", "--grid", str(grid), expect=1)
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["e", "--p", "5", "--d", "6,,7,11,12"],
    ["e", "--p", "5", "--d", "6,7,11,12,"],
    ["e", "--p", "5", "--d", ",6,7,11,12"],
    ["tsd", "--p", "3", "--K", "4,,5", "--a", "2"],
    ["wlp", "--p", "3", "--d", "3,3,,3"],
], ids=" ".join)
def test_list_with_an_empty_field_is_refused(args, capsys):
    # an empty field is not dropped, which would answer a shorter tuple
    text = next(arg for arg in args if "," in arg)
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"not a comma-separated integer list: {text!r}" in err


COMPOSITE = "error: modulus 4 is not prime"
ZERO_ENTRY = "error: exponents must be positive, got ({})"
A_ZERO = "error: exponent a must be positive"
A_DIVISIBLE = "error: a must be prime to p, got a=6, p=3"
N_ZERO = "error: need n >= 1"
SINGLE_FAULTS = [
    *[(["e", "--p", "4", "--d", d, "--method", method], COMPOSITE)
      for method in ("auto", "formula", "oracle")
      for d in ("2,2", "2,2,2", "2,2,2,2")],
    *[(["e", "--p", "5", "--d", d, "--method", method],
       ZERO_ENTRY.format(d.replace(",", ", ")))
      for method in ("auto", "formula", "oracle")
      for d in ("0,2", "2,0,2", "2,2,0,2")],
    (["tsd", "--p", "4", "--K", "3,3", "--a", "2"], COMPOSITE),
    (["tsd", "--p", "4", "--K", "3,3", "--a", "2", "--check"], COMPOSITE),
    (["tsd", "--p", "5", "--K", "3,0", "--a", "2"], ZERO_ENTRY.format("3, 0")),
    (["tsd", "--p", "5", "--K", "3,0", "--a", "2", "--check"],
     ZERO_ENTRY.format("3, 0")),
    (["tsd", "--p", "5", "--K", "3,3", "--a", "0"], A_ZERO),
    (["tsd", "--p", "5", "--K", "3,3", "--a", "0", "--check"], A_ZERO),
    (["wlp", "--p", "4", "--d", "2,2,2"], COMPOSITE),
    (["wlp", "--p", "5", "--d", "2,0,2"], ZERO_ENTRY.format("2, 0, 2")),
    *[(["fthreshold", *args, *converge], line)
      for converge in ([], ["--converge", "2"])
      for args, line in ((["--p", "4", "--a", "3", "--n", "2"], COMPOSITE),
                         (["--p", "5", "--a", "0", "--n", "2"], A_ZERO),
                         (["--p", "3", "--a", "6", "--n", "2"], A_DIVISIBLE),
                         (["--p", "3", "--a", "2", "--n", "0"], N_ZERO))],
    (["table", "--p", "4", "--n", "2", "--sum-max", "5"], COMPOSITE),
    (["table", "--p", "3", "--n", "0", "--sum-max", "5"], N_ZERO),
]


@pytest.mark.parametrize("args, line", SINGLE_FAULTS,
                         ids=[" ".join(args) for args, _ in SINGLE_FAULTS])
def test_single_fault_error_line(args, line, capsys):
    # one bad input, one check, one message, wherever the input enters
    assert cli.main(args) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("args, box", [
    (["wlp", "--p", "3", "--d", "30,30,30,30"], "30, 30, 30, 30"),
    (["wlp", "--p", "3", "--d", "30,1,30,30,30"], "30, 1, 30, 30, 30"),
    (["e", "--p", "3", "--d", "30,30,30,30,5", "--method", "oracle"],
     "30, 30, 30, 30"),
    (["tsd", "--p", "3", "--K", "30,30,30,30", "--a", "2", "--check"],
     "30, 30, 30, 30"),
    # the formulas decline these, and the fallback oracle meets the cap
    (["e", "--p", "5", "--d", "40,40,40,40,1"], "40, 40, 40, 40"),
    (["tsd", "--p", "5", "--K", "40,40,40,40,1", "--a", "1"],
     "40, 40, 40, 40"),
    # the terms of f^72 are the degree 72 piece, 485,250 monomials
    (["e", "--p", "5", "--d", "30,30,30,30,30,72", "--method", "oracle"],
     "30, 30, 30, 30, 30"),
    # the middle pieces pass 2^63 monomials, which an int64 H would wrap
    (["wlp", "--p", "2", "--d", ",".join(["100"] * 12)],
     ", ".join(["100"] * 12)),
])
def test_dense_routes_refuse_oversized_boxes(args, box, capsys, monkeypatch):
    # (30, 30, 30, 30) has a graded piece of 18,010 monomials, above the
    # cap, and a cap of 1 adds no monomial: refused with exit 1 before any
    # matrix is built or any piece above the cap is listed
    def no_matrix(*_):
        raise AssertionError("a matrix was built")

    def small_slice(caps, degree, slice_=oracle._slice_cached):
        H = _hilbert_cached(caps)
        assert not 0 <= degree < len(H) or H[degree] <= MATRIX_CAP
        return slice_(caps, degree)

    monkeypatch.setattr(oracle.MatrixFp, "_trusted", no_matrix)
    monkeypatch.setattr(oracle, "_slice_cached", small_slice)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: box ({box}) has a graded piece larger than {MATRIX_CAP}, "
        "the dense-matrix cap\n")


def test_dense_route_cap_is_inclusive(capsys, monkeypatch):
    # (3, 3, 3) peaks at 7 monomials: a cap of 7 admits it, 6 refuses it
    args = ["wlp", "--p", "3", "--d", "3,3,3"]
    monkeypatch.setattr(oracle, "MATRIX_CAP", 7)
    assert cli.main(args) == 0
    assert len(json.loads(capsys.readouterr().out)["profile"]) == 6
    monkeypatch.setattr(oracle, "MATRIX_CAP", 6)
    assert cli.main(args) == 1
    assert "larger than 6" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["e", "--p", "2", "--d", "1000000000,2,2,2,3"],
    ["wlp", "--p", "2", "--d", "1000000000,2"],
    ["tsd", "--p", "2", "--K", "1000000000,2,3", "--a", "2", "--check"],
])
def test_hilbert_function_of_a_deep_box_is_refused(args, capsys,
                                                   monkeypatch):
    # H has one entry per degree of the box: refused with exit 1 before
    # it is built, however small the graded pieces are
    def small_hilbert(caps, hilbert=oracle._hilbert_cached):
        assert sum(caps) - len(caps) <= oracle._TOP_CAP, caps
        return hilbert(caps)

    monkeypatch.setattr(oracle, "_hilbert_cached", small_hilbert)
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box (1000000000, 2") and \
        err.endswith(f"above {oracle._TOP_CAP}, the Hilbert-function cap\n")


def test_deep_box_within_the_hilbert_cap_answers(capsys):
    assert cli.main(["e", "--p", "2", "--d", "100000,2,2,2,3"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 100000


@pytest.mark.parametrize("method", ["auto", "oracle"])
def test_degenerate_tuple_on_an_oversized_box_answers(method, capsys):
    # f^1000 vanishes on (40, 40, 40, 40), whose top degree is 156: the
    # answer needs no matrix, so the cap on matrices does not refuse it
    args = ["e", "--p", "5", "--d", "40,40,40,40,1000", "--method", method]
    assert cli.main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["method"], doc["degenerate"]) == \
        (1000, "oracle", True)
    assert doc["witness"] == {"degree": 0, "terms": ["1"]}


def test_table_csv():
    proc = run_cli("table", "--p", "3", "--n", "2", "--sum-max", "6",
                   "--format", "csv")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "d1,d2,d3,value,method"
    body = [line.split(",") for line in lines[1:]]
    # multisets with entries summing to at most 6, nondecreasing
    assert ["1", "1", "1", "1", "han"] in body
    for row in body:
        d = list(map(int, row[:3]))
        assert d == sorted(d)
        assert sum(d) <= 6


def test_table_json_deterministic():
    a = run_cli("table", "--p", "2", "--n", "2", "--sum-max", "5",
                "--format", "json").stdout
    b = run_cli("table", "--p", "2", "--n", "2", "--sum-max", "5",
                "--format", "json").stdout
    assert a == b
    doc = json.loads(a)
    assert all("value" in row and "method" in row for row in doc["rows"])
