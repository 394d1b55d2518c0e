import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nonkoszul
from nonkoszul.monomials import slice_array
from nonkoszul.oracle import mult_map
from nonkoszul.verify import canonical_json

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
    run_cli("e", "--p", "5", expect=1)
    run_cli("nosuchcommand", expect=1)


def test_e_output_file(tmp_path):
    out = tmp_path / "result.json"
    run_cli("e", "--p", "5", "--d", "6,7,11,12", "-o", str(out))
    raw = out.read_bytes()
    doc = json.loads(raw)
    assert doc["value"] == 16
    assert canonical_json(doc).encode() == raw


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
    # wrongly typed fields are refused with a message, not a traceback
    for field, value in (("sum_max", "12"), ("d_max_n4", None),
                         ("d_max", 4.0), ("matrix_cap", True), ("p_list", 2),
                         ("n_list", [3, "3"])):
        doc = {"kind": "wlp", "p_list": [2], "n_list": [3], "sum_max": 8,
               "d_max": 4}
        doc[field] = value
        grid.write_text(json.dumps(doc))
        proc = run_cli("verify", "--grid", str(grid), expect=1)
        assert proc.stderr.startswith("error: ") and field in proc.stderr
        assert "Traceback" not in proc.stderr


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
