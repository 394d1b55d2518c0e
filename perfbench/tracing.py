"""Span tracing from outside the program.

`Tracer.install` replaces every public function of nonkoszul, in every module
namespace that holds it, with a timing wrapper; `Tracer.remove` puts the
originals back.  Each call becomes one span (name, start, end, parent) kept in
memory.  Self time is a span's duration minus the full cost of its child
spans, the children's wrapper bookkeeping included, so the tracer's own work
is not charged to the caller.  The program source is not touched.

Besides time, a few wrappers count work where it happens: matrix cells and
nonzeros entering `linalg.rank`, repeated argument sets for `oracle.mult_map`
and `oracle.e_degree_oracle`, zero results of `modp.multinomial_mod`, and which
route `formulas.ep_dispatch` took.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import nonkoszul
from layers import FUNCTIONS
from nonkoszul import cli, formulas, linalg, modp, monomials, oracle, verify

MODULES = (linalg, modp, monomials, oracle, formulas, verify, cli)
FLOAT_PRIME_LIMIT = 1 << 23


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _public_functions(module):
    """(attribute, object, span name) for each public nonkoszul function the
    module namespace holds, whether defined there or imported."""
    for attr, obj in vars(module).items():
        home = getattr(obj, "__module__", "") or ""
        if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                or not home.startswith(nonkoszul.__name__ + ".")):
            continue
        yield attr, obj, f"{_short(home)}.{obj.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self._stack: list[list[float]] = []    # child cost per open span
        self._open: list[int] = []             # span index per open span
        self._saved: list[tuple] = []
        self.counts = {"rank_cells": 0, "rank_nonzeros": 0, "rank_ops": 0,
                       "rank_float": 0, "mult_map_repeat": 0,
                       "e_oracle_repeat": 0, "multinomial_zero": 0,
                       "dispatch_closed": 0}
        self._seen_mult_map: set = set()
        self._seen_e_oracle: set = set()

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in MODULES:
            for attr, fn, name in list(_public_functions(module)):
                wrapper = wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = wrappers[id(fn)] = self._wrap(fn, name)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        perf = time.perf_counter
        stack, open_spans = self._stack, self._open
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        calls, self_time = self.calls, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w0 = perf()
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [0.0]
            stack.append(frame)
            open_spans.append(idx)
            try:
                t1 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t2 = perf()
                    stack.pop()
                    open_spans.pop()
                    span_start[idx] = t1
                    span_end[idx] = t2
                    calls[nid] += 1
                    self_time[nid] += (t2 - t1) - frame[0]
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                if stack:
                    stack[-1][0] += perf() - w0

        return wrapper

    # -- counters, called after a successful return ------------------------

    def _hook_linalg_rank(self, args, kwargs, result):
        mat = args[0] if args else kwargs["mat"]
        cells = mat.rows * mat.cols
        self.counts["rank_cells"] += cells
        self.counts["rank_nonzeros"] += int(np.count_nonzero(mat.data))
        self.counts["rank_ops"] += cells * result
        self.counts["rank_float"] += mat.p < FLOAT_PRIME_LIMIT

    def _hook_oracle_mult_map(self, args, kwargs, result):
        key = _bind(args, kwargs, ("caps", "src_degree", "power", "p"))
        key = (tuple(key[0]),) + key[1:]
        self.counts["mult_map_repeat"] += key in self._seen_mult_map
        self._seen_mult_map.add(key)

    def _hook_oracle_e_degree_oracle(self, args, kwargs, result):
        p, d = _bind(args, kwargs, ("p", "d"))
        key = (int(p), tuple(int(x) for x in d))
        self.counts["e_oracle_repeat"] += key in self._seen_e_oracle
        self._seen_e_oracle.add(key)

    def _hook_modp_multinomial_mod(self, args, kwargs, result):
        self.counts["multinomial_zero"] += result == 0

    def _hook_formulas_ep_dispatch(self, args, kwargs, result):
        self.counts["dispatch_closed"] += result.method != "oracle"

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.span_name, dtype=np.int32),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32)}

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: value}."""
        calls = {n: self.calls[i] for i, n in enumerate(self.names)}
        selfs = {n: self.self_time[i] for i, n in enumerate(self.names)}
        out = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = calls.get(fn, 0)
            out[f"{fn}.self_s"] = selfs.get(fn, 0.0)
        c = self.counts
        out["linalg.rank.cells"] = c["rank_cells"]
        out["linalg.rank.density"] = _ratio(c["rank_nonzeros"], c["rank_cells"])
        out["linalg.rank.ops_computed"] = c["rank_ops"]
        out["linalg.rank.float_path_share"] = _ratio(c["rank_float"],
                                                     calls.get("linalg.rank", 0))
        out["oracle.mult_map.repeat_ratio"] = _ratio(
            c["mult_map_repeat"], calls.get("oracle.mult_map", 0))
        out["oracle.e_degree_oracle.ranks_per_call"] = _ratio(
            self._child_calls("oracle.e_degree_oracle", "linalg.rank"),
            calls.get("oracle.e_degree_oracle", 0))
        out["oracle.e_degree_oracle.repeat_ratio"] = _ratio(
            c["e_oracle_repeat"], calls.get("oracle.e_degree_oracle", 0))
        out["oracle.socle_degree_oracle.probes_per_call"] = _ratio(
            self._child_calls("oracle.socle_degree_oracle", "linalg.rank"),
            calls.get("oracle.socle_degree_oracle", 0))
        out["modp.multinomial_mod.zero_ratio"] = _ratio(
            c["multinomial_zero"], calls.get("modp.multinomial_mod", 0))
        out["formulas.ep_dispatch.closed_form_ratio"] = _ratio(
            c["dispatch_closed"], calls.get("formulas.ep_dispatch", 0))
        return out

    def _child_calls(self, parent: str, child: str) -> int:
        """Spans named `child` whose direct parent span is named `parent`."""
        if parent not in self._ids or child not in self._ids:
            return 0
        name = np.frombuffer(self.span_name, dtype=np.int32)
        par = np.frombuffer(self.span_parent, dtype=np.int32)
        hits = par[(name == self._ids[child]) & (par >= 0)]
        return int(np.count_nonzero(name[hits] == self._ids[parent]))


def _bind(args, kwargs, names):
    values = list(args[:len(names)])
    values += [kwargs[n] for n in names[len(values):]]
    return tuple(values)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
