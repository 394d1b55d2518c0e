"""Grid cross-validation: every closed formula against the rank oracle.

Reports are plain dicts rendered through `canonical_json`, so two runs of the
same grid produce byte-identical output.  Violations are collected, never
raised; a verification run is data.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .formulas import (NotApplicableError, applicability, condition_char0,
                       ep_formula, fthreshold_formula, frac_str, tsd_formula,
                       wlp_classify_n3, wlp_classify_n4,
                       wlp_feasibility_filter)
from .monomials import hilbert_function
from .oracle import (e_degree_oracle, nu_value, socle_degree_oracle,
                     wlp_rank_profile)


def canonical_json(doc) -> str:
    """Stable rendering: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


MATRIX_CAP = 5000    # default bound on the largest graded piece of a box


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    matrix_cap: int = MATRIX_CAP
    symmetry_sum_max: int = 16

    @classmethod
    def from_dict(cls, doc: dict) -> "GridSpec":
        specs = {f.name: f for f in fields(cls)}
        unknown = set(doc) - set(specs)
        if unknown:
            raise ValueError(f"unknown grid fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ValueError("grid file needs a 'kind' field")
        for key, value in doc.items():
            default = specs[key].default
            if key in ("p_list", "n_list"):
                want = "a list of integers"
                ok = (isinstance(value, (list, tuple))
                      and all(map(_is_int, value)))
            elif default is None or type(default) is int:
                want = "an integer or null" if default is None else "an integer"
                ok = _is_int(value) or (value is None and default is None)
            else:
                continue
            if not ok:
                raise ValueError(f"grid field {key!r} must be {want}, "
                                 f"got {value!r}")
        kw = dict(doc)
        for key in ("p_list", "n_list"):
            if key in kw:
                kw[key] = tuple(kw[key])
        spec = cls(**kw)
        if spec.kind not in ("e", "wlp", "tsd", "fthreshold_convergence"):
            raise ValueError(f"unknown grid kind: {spec.kind!r}")
        if spec.paths not in ("all", "main", "han"):
            raise ValueError(f"unknown paths filter: {spec.paths!r}")
        return spec

    def to_dict(self) -> dict:
        return {**asdict(self), "p_list": sorted(self.p_list),
                "n_list": sorted(self.n_list)}


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


def _report(spec: GridSpec, enumerated: int, buckets: dict,
            discrepancies: list[dict], **extra) -> dict:
    """A grid report.  A point agrees when it was checked and has no
    discrepancy record, however many records a failing point has."""
    checked = enumerated - buckets["skipped"]
    failing = len({_point_key(rec) for rec in discrepancies})
    return {"spec": spec.to_dict(),
            "totals": {"enumerated": enumerated, "checked": checked,
                       "agreements": checked - failing,
                       "skipped": buckets["skipped"],
                       "discrepancies": len(discrepancies)},
            "buckets": buckets, "discrepancies": discrepancies, **extra}


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

    for p in sorted(spec.p_list):
        for n in sorted(spec.n_list):
            for d in enum_tuples(n + 1):
                if spec.paths == "main" and (
                        n < 3 or not applicability(p, d).main_applicable):
                    continue
                if spec.paths == "han" and (n != 2 or 2 * max(d) > sum(d)):
                    continue
                enumerated += 1
                if not _box_feasible(d[:-1], spec.matrix_cap):
                    buckets["skipped"] += 1
                    continue
                oracle_value = cache.value(p, d)
                # formula-vs-oracle on whichever closed form claims the point
                try:
                    res = ep_formula(p, d)
                except NotApplicableError:
                    buckets["oracle_only"] += 1
                else:
                    buckets[res.method] += 1
                    checks["formula_vs_oracle"] += 1
                    if res.value != oracle_value:
                        discrepancies.append({
                            "check": "formula_vs_oracle", "p": p, "d": list(d),
                            "formula": res.value, "method": res.method,
                            "oracle": oracle_value})
                # ceiling by the characteristic-zero value
                if condition_char0(d):
                    checks["char0_ceiling"] += 1
                    e0 = (sum(d) - n + 2) // 2
                    if oracle_value > e0:
                        discrepancies.append({"check": "char0_ceiling", "p": p,
                                              "d": list(d),
                                              "oracle": oracle_value,
                                              "bound": e0})
                # upper bounds from every base-q split of the tuple
                q = 1
                while q <= min(d):
                    k = [di // q for di in d]
                    r = [di % q for di in d]
                    checks["power_split_bound"] += 1
                    for eps in product((0, 1), repeat=n + 1):
                        kk = tuple(ki + ei for ki, ei in zip(k, eps))
                        bound = q * cache.value(p, kk) + sum(
                            ri for ri, ei in zip(r, eps) if ei == 0)
                        if oracle_value > bound:
                            discrepancies.append({
                                "check": "power_split_bound", "p": p,
                                "d": list(d), "q": q, "eps": list(eps),
                                "oracle": oracle_value, "bound": bound})
                    q *= p
                # coordinatewise monotonicity with unit steps
                for i in range(n + 1):
                    bumped = tuple(di + 1 if j == i else di
                                   for j, di in enumerate(d))
                    if in_grid(bumped):
                        checks["monotonicity"] += 1
                        v2 = cache.value(p, bumped)
                        if not oracle_value <= v2 <= oracle_value + 1:
                            discrepancies.append({
                                "check": "monotonicity", "p": p, "d": list(d),
                                "coordinate": i, "value": oracle_value,
                                "bumped": v2})
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

    return _report(spec, enumerated, buckets, discrepancies, checks=checks)


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
            for d in _multisets_simplex(n + 1, spec.sum_max):
                if not condition_char0(d):
                    continue
                enumerated += 1
                if not _box_feasible(d, spec.matrix_cap):
                    buckets["skipped"] += 1
                    continue
                buckets["obs_equivalence"] += 1
                profile = wlp_rank_profile(p, d).verdict
                by_degree = cache.value(p, d) == (sum(d) - n + 2) // 2
                if profile != by_degree:
                    discrepancies.append({"check": "wlp_equivalence", "p": p,
                                          "d": list(d), "profile": profile,
                                          "by_relation_degree": by_degree})
                if profile:
                    verdict_true.append((n, p, applicability(p, d).q, d))

    # closed classifications for four caps (cube bound d_max) and five caps
    # (d_max_n4, where one sporadic multiset passes), uniform q = p
    for n, classify, cube in ((3, wlp_classify_n3, spec.d_max),
                              (4, wlp_classify_n4, spec.d_max_n4)):
        if cube is None:
            continue
        for p in sorted(spec.p_list):
            unexpected = []     # five-cap passes besides the sporadic one
            for d in combinations_with_replacement(
                    range(p, min(cube, p * p - 1) + 1), n + 1):
                enumerated += 1
                try:
                    claimed = classify(p, d)
                except NotApplicableError:
                    buckets[f"n{n}_out_of_scope"] += 1
                    continue
                buckets[f"n{n}_classified"] += 1
                actual = _profile_verdict(p, d, cache)
                if claimed != actual:
                    discrepancies.append({"check": f"wlp_classify_n{n}",
                                          "p": p, "d": list(d),
                                          "classified": claimed,
                                          "profile": actual})
                if actual:
                    verdict_true.append((n, p, applicability(p, d).q, d))
                    if n == 4 and not (p == 3 and d == (4, 4, 4, 4, 5)):
                        unexpected.append(d)
            discrepancies.extend({"check": "wlp_n4_unexpected_pass", "p": p,
                                  "d": list(d)} for d in unexpected)

    # six caps with q > 1 must all fail
    for p in sorted(spec.p_list):
        for d in combinations_with_replacement(
                range(p, min(spec.d_max_n5, p * p - 1) + 1), 6):
            enumerated += 1
            rep = applicability(p, d)
            if not rep.main_applicable or rep.q == 1:
                buckets["n5_out_of_scope"] += 1
                continue
            buckets["n5_checked"] += 1
            if _profile_verdict(p, d, cache):
                discrepancies.append({"check": "wlp_n5_exclusion", "p": p,
                                      "d": list(d), "profile": True})

    # no tuple with WLP may be excluded by the feasibility filter
    for n, p, q, d in verdict_true:
        buckets["filter_checked"] += 1
        if not wlp_feasibility_filter(n, p, q):
            discrepancies.append({"check": "feasibility_filter", "p": p,
                                  "q": q, "n": n, "d": list(d)})

    return _report(spec, enumerated, buckets, discrepancies)


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
                for K in combinations_with_replacement(
                        range(1, spec.K_max + 1), n + 1):
                    enumerated += 1
                    if not _box_feasible(K, spec.matrix_cap):
                        buckets["skipped"] += 1
                        continue
                    buckets["checked"] += 1
                    f = tsd_formula(p, K, a, e_provider=oracle_provider)
                    o = socle_degree_oracle(p, K, a)
                    if f != o:
                        discrepancies.append({
                            "check": "tsd_formula_vs_oracle", "p": p,
                            "K": list(K), "a": a, "formula": f, "oracle": o})
    return _report(spec, enumerated, buckets, discrepancies)


def fthreshold_convergence(p: int, a: int, n: int, e_max: int,
                           matrix_cap: int = MATRIX_CAP) -> dict:
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
