"""The benchmark in perfbench/ reaches the program only through module
attributes.  Every attribute it names must exist and every call it makes must
fit the signature, so trimming a name the benchmark uses fails here and not
in a benchmark run.  The seed-0 outputs of every workload must also hash to
the digests stored in perfbench/digests.json."""

import ast
import importlib
import inspect
import json
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from nonkoszul import cli, formulas, linalg, monomials, oracle, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "formulas": formulas, "monomials": monomials,
           "oracle": oracle, "verify": verify}


def has_attribute(cls, name: str) -> bool:
    """Class attribute, property, or dataclass field."""
    return hasattr(cls, name) or (
        is_dataclass(cls) and name in {f.name for f in fields(cls)})


def module_uses(path: Path):
    """(module, attribute, call, result attribute) for each `module.attr` in
    the file: the Call node when the attribute is called, and the name read
    from the call's result, as in `oracle.mult_map(...).data`."""
    tree = ast.parse(path.read_text())
    calls, reads = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            calls[id(node.func)] = node
        elif isinstance(node, ast.Attribute) and isinstance(node.value,
                                                            ast.Call):
            reads[id(node.value)] = node.attr
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            call = calls.get(id(node))
            yield (node.value.id, node.attr, call,
                   reads.get(id(call)) if call else None)


def test_workloads_reach_existing_names_with_fitting_calls():
    uses = list(module_uses(PERFBENCH / "workloads.py"))
    # the parse sees every module the benchmark imports
    assert {module for module, *_ in uses} == set(MODULES)
    for module, attr, call, read in uses:
        where = f"{module}.{attr}"
        assert hasattr(MODULES[module], attr), where
        if call is None:
            continue
        fn = getattr(MODULES[module], attr)
        inspect.signature(fn).bind(
            *[None] * len(call.args),
            **{kw.arg: None for kw in call.keywords})
        if read is not None:
            result = typing.get_type_hints(fn)["return"]
            assert has_attribute(result, read), f"{where}(...).{read}"


def test_tracer_reads_existing_names():
    # perfbench/tracing.py counts the routes that ep_dispatch returns and the
    # shape of every matrix that reaches rank
    assert callable(formulas.ep_dispatch)
    assert has_attribute(oracle.EResult, "method")
    for name in ("rows", "cols", "data", "p"):
        assert has_attribute(linalg.MatrixFp, name), name
    assert callable(linalg.rank)


@pytest.mark.parametrize("workload", ["grid_sweep", "socle_sparse",
                                      "query_mix"])
def test_seed0_outputs_match_stored_digests(workload, monkeypatch):
    # the benchmark's seed-0 answers, run in-process: an output change
    # fails here before any benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    stored = json.loads((PERFBENCH / "digests.json").read_text())
    inputs = workloads.generate(workload, 0)
    outputs, _, _ = workloads.run(workload, inputs)
    assert workloads.check(workload, inputs, outputs) == []
    assert workloads.digest(outputs) == stored[workload]
