"""Grid cross-validation: every closed formula against the rank oracle.

Reports are plain dicts rendered through `canonical_json`, so two runs of the
same grid produce byte-identical output.  Violations are collected, never
raised; a verification run is data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .formulas import (NotApplicableError, applicability, condition_char0,
                       ep_han, ep_main, fthreshold_formula, frac_str,
                       tsd_formula, wlp_classify_n3, wlp_classify_n4,
                       wlp_feasibility_filter)
from .monomials import hilbert_function
from .oracle import (e_degree_oracle, nu_value, socle_degree_oracle,
                     wlp_rank_profile)


def canonical_json(doc) -> str:
    """Stable rendering: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of one verification grid."""

    kind: str                       # e | wlp | tsd | fthreshold_convergence
    p_list: tuple[int, ...] = ()
    n_list: tuple[int, ...] = ()
    sum_max: int | None = None      # simplex bound on sum(d)
    d_max: int | None = None        # cube bound on each d_i
    d_max_n4: int = 8               # wlp: cube bound for the five-cap section
    d_max_n5: int = 6               # wlp: cube bound for the six-cap section
    K_max: int | None = None        # tsd: cube bound on caps
    a_max: int | None = None        # tsd: diagonal exponents 1..a_max
    p: int | None = None            # fthreshold_convergence
    a: int | None = None
    n: int | None = None
    e_max: int | None = None
    paths: str = "all"              # all | main | han
    matrix_cap: int = 5000
    symmetry_sum_max: int = 16

    _FIELDS = ("kind", "p_list", "n_list", "sum_max", "d_max", "d_max_n4",
               "d_max_n5", "K_max", "a_max", "p", "a", "n", "e_max", "paths",
               "matrix_cap", "symmetry_sum_max")

    @classmethod
    def from_dict(cls, doc: dict) -> "GridSpec":
        unknown = set(doc) - set(cls._FIELDS)
        if unknown:
            raise ValueError(f"unknown grid fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ValueError("grid file needs a 'kind' field")
        kw = dict(doc)
        for key in ("p_list", "n_list"):
            if key in kw:
                kw[key] = tuple(int(x) for x in kw[key])
        spec = cls(**kw)
        if spec.kind not in ("e", "wlp", "tsd", "fthreshold_convergence"):
            raise ValueError(f"unknown grid kind: {spec.kind!r}")
        if spec.paths not in ("all", "main", "han"):
            raise ValueError(f"unknown paths filter: {spec.paths!r}")
        return spec

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p_list": sorted(self.p_list),
                "n_list": sorted(self.n_list), "sum_max": self.sum_max,
                "d_max": self.d_max, "d_max_n4": self.d_max_n4,
                "d_max_n5": self.d_max_n5, "K_max": self.K_max,
                "a_max": self.a_max, "p": self.p, "a": self.a, "n": self.n,
                "e_max": self.e_max, "paths": self.paths,
                "matrix_cap": self.matrix_cap,
                "symmetry_sum_max": self.symmetry_sum_max}


def _tuples_simplex(m: int, sum_max: int):
    """All ordered positive tuples of length m with sum <= sum_max, lex order."""
    def rec(prefix, left):
        if len(prefix) == m - 1:
            for x in range(1, left + 1):
                yield tuple(prefix) + (x,)
            return
        for x in range(1, left - (m - len(prefix) - 1) + 1):
            yield from rec(prefix + [x], left - x)
    if sum_max >= m:
        yield from rec([], sum_max)


def _multisets_simplex(m: int, sum_max: int):
    def rec(prefix, left, lo):
        if len(prefix) == m - 1:
            for x in range(lo, left + 1):
                yield tuple(prefix) + (x,)
            return
        for x in range(lo, left - (m - len(prefix) - 1) + 1):
            yield from rec(prefix + [x], left - x, x)
    if sum_max >= m:
        yield from rec([], sum_max, 1)


class _OracleCache:
    """Relation-degree values keyed by the sorted tuple (the oracle is
    permutation symmetric; symmetry itself is checked separately on raw calls)."""

    def __init__(self):
        self._values: dict = {}

    def value(self, p: int, d) -> int:
        key = (p, tuple(sorted(d)))
        v = self._values.get(key)
        if v is None:
            v = e_degree_oracle(p, key[1], want_witness=False).value
            self._values[key] = v
        return v


def _box_feasible(d, cap: int) -> bool:
    return max(hilbert_function(d)) <= cap


def _point_key(rec: dict) -> tuple:
    """The grid point a discrepancy record belongs to."""
    return (rec["p"], tuple(rec["d"] if "d" in rec else rec["K"]), rec.get("a"))


def _totals(enumerated: int, skipped: int, discrepancies: list[dict]) -> dict:
    """Totals block of a grid report.  A point agrees when it was checked and
    has no discrepancy record, however many records a failing point has."""
    checked = enumerated - skipped
    failing = len({_point_key(rec) for rec in discrepancies})
    return {"enumerated": enumerated, "checked": checked,
            "agreements": checked - failing, "skipped": skipped,
            "discrepancies": len(discrepancies)}


def verify_e_grid(spec: GridSpec) -> dict:
    """Formula-vs-oracle equality plus the inequality battery on one grid."""
    buckets = {"char0": 0, "base": 0, "main": 0, "han": 0,
               "oracle_only": 0, "skipped": 0}
    checks = {"formula_vs_oracle": 0, "char0_ceiling": 0, "power_split_bound": 0,
              "monotonicity": 0, "symmetry_classes": 0}
    discrepancies: list[dict] = []
    cache = _OracleCache()
    enumerated = 0

    if spec.sum_max is None and spec.d_max is None:
        raise ValueError("e-grid needs sum_max or d_max")

    def enum_tuples(m):
        if spec.sum_max is not None:
            return _tuples_simplex(m, spec.sum_max)
        return product(range(1, spec.d_max + 1), repeat=m)

    def in_grid(d):
        if spec.sum_max is not None:
            return sum(d) <= spec.sum_max
        return max(d) <= spec.d_max

    def check_point(args):
        p, n, d = args
        out = {"bucket": None, "checks": dict.fromkeys(checks, 0), "disc": []}
        if not _box_feasible(d[:-1], spec.matrix_cap):
            out["bucket"] = "skipped"
            return out
        oracle_value = cache.value(p, d)
        # formula-vs-oracle on whichever closed form claims the point
        if n == 2:
            try:
                han = ep_han(p, *d)
                out["bucket"] = "han"
                out["checks"]["formula_vs_oracle"] += 1
                if han != oracle_value:
                    out["disc"].append({"check": "formula_vs_oracle", "p": p,
                                        "d": list(d), "formula": han,
                                        "method": "han", "oracle": oracle_value})
            except NotApplicableError:
                out["bucket"] = "oracle_only"
        else:
            try:
                res = ep_main(p, d)
                out["bucket"] = res.method
                out["checks"]["formula_vs_oracle"] += 1
                if res.value != oracle_value:
                    out["disc"].append({"check": "formula_vs_oracle", "p": p,
                                        "d": list(d), "formula": res.value,
                                        "method": res.method,
                                        "oracle": oracle_value})
            except NotApplicableError:
                out["bucket"] = "oracle_only"
        # ceiling by the characteristic-zero value
        if condition_char0(d):
            out["checks"]["char0_ceiling"] += 1
            e0 = (sum(d) - n + 2) // 2
            if oracle_value > e0:
                out["disc"].append({"check": "char0_ceiling", "p": p,
                                    "d": list(d), "oracle": oracle_value,
                                    "bound": e0})
        # upper bounds from every base-q split of the tuple
        q = 1
        while q <= min(d):
            k = [di // q for di in d]
            r = [di % q for di in d]
            out["checks"]["power_split_bound"] += 1
            for eps in product((0, 1), repeat=n + 1):
                kk = tuple(ki + ei for ki, ei in zip(k, eps))
                bound = q * cache.value(p, kk) + sum(
                    ri for ri, ei in zip(r, eps) if ei == 0)
                if oracle_value > bound:
                    out["disc"].append({"check": "power_split_bound", "p": p,
                                        "d": list(d), "q": q,
                                        "eps": list(eps),
                                        "oracle": oracle_value,
                                        "bound": bound})
            q *= p
        # coordinatewise monotonicity with unit steps
        for i in range(n + 1):
            bumped = tuple(di + 1 if j == i else di for j, di in enumerate(d))
            if in_grid(bumped):
                out["checks"]["monotonicity"] += 1
                v2 = cache.value(p, bumped)
                if not oracle_value <= v2 <= oracle_value + 1:
                    out["disc"].append({"check": "monotonicity", "p": p,
                                        "d": list(d), "coordinate": i,
                                        "value": oracle_value,
                                        "bumped": v2})
        return out

    for p in sorted(spec.p_list):
        for n in sorted(spec.n_list):
            points = []
            for d in enum_tuples(n + 1):
                if spec.paths == "main":
                    if n < 3 or not applicability(p, d).main_applicable:
                        continue
                if spec.paths == "han":
                    if n != 2 or 2 * max(d) > sum(d):
                        continue
                points.append((p, n, d))
            enumerated += len(points)
            for out in map(check_point, points):
                buckets[out["bucket"]] += 1
                for key, cnt in out["checks"].items():
                    checks[key] += cnt
                discrepancies.extend(out["disc"])
            # permutation symmetry: raw oracle on every distinct rearrangement
            if n in (2, 3):
                limit = spec.symmetry_sum_max
                if spec.sum_max is not None:
                    limit = min(limit, spec.sum_max)
                for d in _multisets_simplex(n + 1, limit):
                    if spec.d_max is not None and max(d) > spec.d_max:
                        continue
                    checks["symmetry_classes"] += 1
                    values = {perm: e_degree_oracle(p, perm,
                                                    want_witness=False).value
                              for perm in sorted(set(permutations(d)))}
                    if len(set(values.values())) != 1:
                        discrepancies.append({
                            "check": "symmetry", "p": p, "d": list(d),
                            "values": {",".join(map(str, k)): v
                                       for k, v in sorted(values.items())}})

    return {
        "spec": spec.to_dict(),
        "totals": _totals(enumerated, buckets["skipped"], discrepancies),
        "buckets": buckets,
        "checks": checks,
        "discrepancies": discrepancies,
    }


def _profile_verdict(p: int, d, cache: _OracleCache) -> bool:
    """Rank-profile WLP verdict; under the characteristic-zero condition the
    relation-degree criterion is equivalent and much cheaper."""
    if condition_char0(d):
        n = len(d) - 1
        return cache.value(p, d) == (sum(d) - n + 2) // 2
    return wlp_rank_profile(p, d).verdict


def verify_wlp_grid(spec: GridSpec) -> dict:
    """Weak Lefschetz checks: criterion-vs-profile equivalence, the closed
    classifications for four and five caps, the six-cap exclusion, and
    feasibility-filter consistency."""
    buckets = {"obs_equivalence": 0, "n3_classified": 0, "n3_out_of_scope": 0,
               "n4_classified": 0, "n4_out_of_scope": 0, "n5_checked": 0,
               "n5_out_of_scope": 0, "filter_checked": 0, "skipped": 0}
    discrepancies: list[dict] = []
    cache = _OracleCache()
    verdict_true: list[tuple[int, int, int, tuple[int, ...]]] = []
    enumerated = 0

    # criterion-vs-profile equivalence under the characteristic-zero condition
    for p in sorted(spec.p_list):
        for n in sorted(spec.n_list):
            if spec.sum_max is None:
                continue
            points = [d for d in _multisets_simplex(n + 1, spec.sum_max)
                      if condition_char0(d)]
            enumerated += len(points)

            def check_obs(d, p=p, n=n):
                if not _box_feasible(d, spec.matrix_cap):
                    return {"skip": True, "d": d, "disc": []}
                profile = wlp_rank_profile(p, d).verdict
                by_degree = cache.value(p, d) == (sum(d) - n + 2) // 2
                disc = []
                if profile != by_degree:
                    disc.append({"check": "wlp_equivalence", "p": p,
                                 "d": list(d), "profile": profile,
                                 "by_relation_degree": by_degree})
                return {"skip": False, "d": d, "profile": profile,
                        "disc": disc}

            for out in map(check_obs, points):
                if out["skip"]:
                    buckets["skipped"] += 1
                    continue
                buckets["obs_equivalence"] += 1
                discrepancies.extend(out["disc"])
                if out["profile"]:
                    q = applicability(p, out["d"]).q
                    verdict_true.append((len(out["d"]) - 1, p, q,
                                         tuple(out["d"])))

    # closed classification for four caps, uniform q = p
    if spec.d_max is not None:
        for p in sorted(spec.p_list):
            hi = min(spec.d_max, p * p - 1)
            points = list(combinations_with_replacement(range(p, hi + 1), 4))
            enumerated += len(points)

            def check_n3(d, p=p):
                out = {"bucket": None, "disc": [], "true_point": None}
                try:
                    claimed = wlp_classify_n3(p, d)
                except NotApplicableError:
                    out["bucket"] = "n3_out_of_scope"
                    return out
                out["bucket"] = "n3_classified"
                actual = _profile_verdict(p, d, cache)
                if claimed != actual:
                    out["disc"].append({"check": "wlp_classify_n3", "p": p,
                                        "d": list(d), "classified": claimed,
                                        "profile": actual})
                if actual:
                    out["true_point"] = (3, p, applicability(p, d).q, tuple(d))
                return out

            for out in map(check_n3, points):
                buckets[out["bucket"]] += 1
                discrepancies.extend(out["disc"])
                if out["true_point"]:
                    verdict_true.append(out["true_point"])

    # five caps: the lone sporadic multiset
    for p in sorted(spec.p_list):
        hi = min(spec.d_max_n4, p * p - 1)
        points = list(combinations_with_replacement(range(p, hi + 1), 5))
        enumerated += len(points)
        passing = []

        def check_n4(d, p=p):
            out = {"bucket": None, "disc": [], "true_point": None}
            try:
                claimed = wlp_classify_n4(p, d)
            except NotApplicableError:
                out["bucket"] = "n4_out_of_scope"
                return out
            out["bucket"] = "n4_classified"
            actual = _profile_verdict(p, d, cache)
            if claimed != actual:
                out["disc"].append({"check": "wlp_classify_n4", "p": p,
                                    "d": list(d), "classified": claimed,
                                    "profile": actual})
            if actual:
                out["true_point"] = (4, p, applicability(p, d).q, tuple(d))
            return out

        for out in map(check_n4, points):
            buckets[out["bucket"]] += 1
            discrepancies.extend(out["disc"])
            if out["true_point"]:
                verdict_true.append(out["true_point"])
                passing.append(out["true_point"][3])
        for d in passing:
            if not (p == 3 and sorted(d) == [4, 4, 4, 4, 5]):
                discrepancies.append({"check": "wlp_n4_unexpected_pass",
                                      "p": p, "d": list(d)})

    # six caps with q > 1 must all fail
    for p in sorted(spec.p_list):
        hi = min(spec.d_max_n5, p * p - 1)
        points = list(combinations_with_replacement(range(p, hi + 1), 6))
        enumerated += len(points)

        def check_n5(d, p=p):
            out = {"bucket": None, "disc": []}
            rep = applicability(p, d)
            if not rep.main_applicable or rep.q == 1:
                out["bucket"] = "n5_out_of_scope"
                return out
            out["bucket"] = "n5_checked"
            if _profile_verdict(p, d, cache):
                out["disc"].append({"check": "wlp_n5_exclusion", "p": p,
                                    "d": list(d), "profile": True})
            return out

        for out in map(check_n5, points):
            buckets[out["bucket"]] += 1
            discrepancies.extend(out["disc"])

    # no tuple with WLP may be excluded by the feasibility filter
    for n, p, q, d in verdict_true:
        buckets["filter_checked"] += 1
        if not wlp_feasibility_filter(n, p, q):
            discrepancies.append({"check": "feasibility_filter", "p": p,
                                  "q": q, "n": n, "d": list(d)})

    return {
        "spec": spec.to_dict(),
        "totals": _totals(enumerated, buckets["skipped"], discrepancies),
        "buckets": buckets,
        "discrepancies": discrepancies,
    }


def verify_tsd_grid(spec: GridSpec) -> dict:
    """Socle-degree formula against the diagonal-form rank oracle."""
    if spec.K_max is None or spec.a_max is None:
        raise ValueError("tsd grid needs K_max and a_max")
    buckets = {"checked": 0, "skipped": 0}
    discrepancies: list[dict] = []
    enumerated = 0
    for p in sorted(spec.p_list):
        oracle_provider = lambda t, p=p: e_degree_oracle(p, t, want_witness=False)
        for n in sorted(spec.n_list):
            for a in range(1, spec.a_max + 1):
                if a % p == 0:
                    continue
                points = list(combinations_with_replacement(
                    range(1, spec.K_max + 1), n + 1))
                enumerated += len(points)

                def check(K, p=p, a=a):
                    if not _box_feasible(K, spec.matrix_cap):
                        return {"skip": True, "disc": []}
                    f = tsd_formula(p, K, a, e_provider=oracle_provider)
                    o = socle_degree_oracle(p, K, a)
                    disc = []
                    if f != o:
                        disc.append({"check": "tsd_formula_vs_oracle", "p": p,
                                     "K": list(K), "a": a, "formula": f,
                                     "oracle": o})
                    return {"skip": False, "disc": disc}

                for out in map(check, points):
                    if out["skip"]:
                        buckets["skipped"] += 1
                    else:
                        buckets["checked"] += 1
                    discrepancies.extend(out["disc"])
    return {
        "spec": spec.to_dict(),
        "totals": _totals(enumerated, buckets["skipped"], discrepancies),
        "buckets": buckets,
        "discrepancies": discrepancies,
    }


def fthreshold_convergence(p: int, a: int, n: int, e_max: int,
                           matrix_cap: int = 5000) -> dict:
    """Socle-degree sequence against the closed-form threshold.

    Reports one row per feasible q = p^e with q = 1 mod a (the subsequence on
    which the limit argument runs) and asserts the signed deviation
    c - nu(q)/q never increases along the reported rows.
    """
    result = fthreshold_formula(p, a, n)
    rows = []
    devs: list[Fraction] = []
    skipped = []
    outside = 0
    for e in range(e_max + 1):
        q = p ** e
        if q % a != 1 % a:
            outside += 1
            continue
        peak = max(hilbert_function((q,) * (n + 1)))
        if peak > matrix_cap:
            skipped.append({"e": e, "q": q, "reason": "matrix_cap",
                            "peak_dimension": peak})
            continue
        nu = nu_value(p, e, a, n)
        ratio = Fraction(nu, q)
        dev = result.c - ratio
        bound = Fraction(5 * (n + 2), q)
        rows.append({"e": e, "q": q, "nu": nu, "ratio": frac_str(ratio),
                     "deviation": frac_str(dev), "bound": frac_str(bound),
                     "within_bound": abs(dev) <= bound})
        devs.append(dev)
    discrepancies = []
    for i in range(1, len(devs)):
        if devs[i] > devs[i - 1]:
            discrepancies.append({"check": "deviation_monotone",
                                  "e": rows[i]["e"],
                                  "deviation": rows[i]["deviation"],
                                  "previous": rows[i - 1]["deviation"]})
    return {
        "spec": {"kind": "fthreshold_convergence", "p": p, "a": a, "n": n,
                 "e_max": e_max, "matrix_cap": matrix_cap},
        "c": frac_str(result.c),
        "M": frac_str(result.M),
        "terms": [frac_str(t) for t in result.terms],
        "rows": rows,
        "totals": {"enumerated": e_max + 1, "reported": len(rows),
                   "skipped": len(skipped), "outside_subsequence": outside,
                   "discrepancies": len(discrepancies)},
        "buckets": {"reported": len(rows), "skipped": len(skipped)},
        "skipped": skipped,
        "discrepancies": discrepancies,
    }


def run_grid(doc: dict) -> dict:
    """Run the grid described by a plain dict (the CLI's --grid payload)."""
    spec = GridSpec.from_dict(doc)
    if spec.kind == "e":
        return verify_e_grid(spec)
    if spec.kind == "wlp":
        return verify_wlp_grid(spec)
    if spec.kind == "tsd":
        return verify_tsd_grid(spec)
    if None in (spec.p, spec.a, spec.n, spec.e_max):
        raise ValueError("fthreshold_convergence grid needs p, a, n, e_max")
    return fthreshold_convergence(spec.p, spec.a, spec.n, spec.e_max,
                                  matrix_cap=spec.matrix_cap)


def default_suite() -> list[dict]:
    """Small grids covering every kind; the determinism check runs these twice."""
    return [
        {"kind": "e", "p_list": [2, 3], "n_list": [3], "sum_max": 12},
        {"kind": "e", "p_list": [2, 5], "n_list": [2], "d_max": 8},
        {"kind": "wlp", "p_list": [2, 3], "n_list": [3], "sum_max": 12,
         "d_max": 8, "d_max_n4": 5, "d_max_n5": 4},
        {"kind": "tsd", "p_list": [2, 3], "n_list": [2], "K_max": 5,
         "a_max": 3},
        {"kind": "fthreshold_convergence", "p": 3, "a": 2, "n": 2,
         "e_max": 3},
    ]


def run_suite(specs=None) -> list[dict]:
    return [run_grid(doc) for doc in (default_suite() if specs is None else specs)]


def discrepancies_csv(report: dict) -> str:
    """Flatten a report's discrepancy records to CSV text (header always)."""
    records = report.get("discrepancies", [])
    base = ["check", "p", "d"]
    extra = sorted({k for rec in records for k in rec} - set(base))
    keys = base + extra
    lines = [",".join(["index"] + keys)]
    for i, rec in enumerate(records):
        row = [str(i)]
        for k in keys:
            v = rec.get(k, "")
            if isinstance(v, (list, dict)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            v = str(v)
            if "," in v or '"' in v:
                v = '"' + v.replace('"', '""') + '"'
            row.append(v)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
