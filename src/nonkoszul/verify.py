"""Grid cross-validation: every closed formula against the rank oracle.

Reports are plain dicts rendered through `canonical_json`, so two runs of the
same grid produce byte-identical output.  Violations are collected, never
raised; a verification run is data.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb, prod

from .formulas import (NotApplicableError, _char0_value, _condition_char0,
                       _scope_report, _splits, applicability, ep_dispatch,
                       fthreshold_formula, frac_str, tsd_formula,
                       wlp_classify_n3, wlp_classify_n4,
                       wlp_feasibility_filter)
from .modp import _as_int, _at_least, _powers, check_prime
from .monomials import _hilbert_cached
from .oracle import (MATRIX_CAP, e_degree_oracle, socle_degree_oracle,
                     wlp_rank_profile)


def canonical_json(doc) -> str:
    """Stable rendering: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of one verification grid.  Every field is
    checked here, however the spec is built; p_list and n_list become sorted
    tuples once checked, so messages show them as given.
    A bound or matrix cap below 1 would check nothing, and a cap above
    MATRIX_CAP would admit points the builder refuses, stopping the run.
    A field that the kind's runner does not read (see _GRIDS) must keep its
    default: a value there would change nothing, so it is refused."""

    kind: str                       # a key of _GRIDS
    p_list: tuple[int, ...] = ()
    n_list: tuple[int, ...] = ()
    sum_max: int | None = None      # simplex bound on sum(d)
    d_max: int | None = None        # cube bound on each d_i
    d_max_n4: int = 8               # wlp: cube bound for the five-cap row
    d_max_n5: int = 6               # wlp: cube bound for the six-cap row
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
        if not isinstance(doc, dict):
            raise ValueError(f"a grid must be a JSON object, got {doc!r}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown grid fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ValueError("grid file needs a 'kind' field")
        return cls(**doc)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                if f.name in ("p_list", "n_list"):
                    want = "a list of integers"
                    if not isinstance(value, (list, tuple)):
                        raise ValueError
                    value = tuple(map(_as_int, value))
                elif f.default is None:
                    want = "an integer or null"
                    value = None if value is None else _as_int(value)
                elif type(f.default) is int:
                    want = "an integer"
                    value = _as_int(value)
                else:
                    continue
            except ValueError:
                raise ValueError(f"grid field {f.name!r} must be {want}, "
                                 f"got {value!r}") from None
            object.__setattr__(self, f.name, value)
            if f.name in ("p_list", "n_list") and len(set(value)) < len(value):
                raise ValueError(f"grid field {f.name!r} must hold no "
                                 f"repeated entries, got {list(value)}")
        # a list or object kind is unknown too, though it cannot be hashed
        if not isinstance(self.kind, str) or self.kind not in _GRIDS:
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        if self.paths not in ("all", "main", "han"):
            raise ValueError(f"unknown paths filter: {self.paths!r}")
        if any(n < 0 for n in self.n_list):
            raise ValueError(f"grid field 'n_list' must hold no negative "
                             f"entries, got {list(self.n_list)}")
        for p in self.p_list:
            try:
                check_prime(p)
            except ValueError as exc:
                raise ValueError(f"grid field 'p_list': {exc}") from None
        for key in ("sum_max", "d_max", "K_max", "a_max", "matrix_cap"):
            if (value := getattr(self, key)) is not None:
                _at_least(value, 1, f"grid field {key!r} must be at least 1, "
                                    f"got {value}")
        if self.matrix_cap > MATRIX_CAP:
            raise ValueError(f"grid field 'matrix_cap' must be at most "
                             f"{MATRIX_CAP}, got {self.matrix_cap}")
        if self.kind == "e" and self.sum_max is None and self.d_max is None:
            raise ValueError("e-grid needs sum_max or d_max")
        if self.kind == "tsd" and None in (self.K_max, self.a_max):
            raise ValueError("tsd grid needs K_max and a_max")
        if self.kind == "fthreshold_convergence":
            if None in (self.p, self.a, self.n, self.e_max):
                raise ValueError(
                    "fthreshold_convergence grid needs p, a, n, e_max")
            _at_least(self.e_max, 0, f"need e_max >= 0, got {self.e_max}")
        # last, so a spec with one bad value gets that value's message
        read = _GRIDS[self.kind][1]
        unread = sorted(f.name for f in fields(self) if f.name != "kind"
                        and f.name not in read
                        and getattr(self, f.name) != f.default)
        if unread:
            raise ValueError(f"grid kind {self.kind!r} does not read "
                             f"fields {unread}")
        for key in ("p_list", "n_list"):
            object.__setattr__(self, key, tuple(sorted(getattr(self, key))))

    def to_dict(self) -> dict:
        return {**asdict(self), "p_list": list(self.p_list),
                "n_list": list(self.n_list)}


def _simplex(m: int, sum_max: int, nondecreasing: bool = False):
    """All positive tuples of length m >= 1 with sum <= sum_max, lex order;
    with `nondecreasing`, only the sorted one of each multiset.  A tuple's
    partial sums are m cut points in [1, sum_max], in the same lex order."""
    if nondecreasing:
        return (d for d in combinations_with_replacement(
            range(1, sum_max - m + 2), m) if sum(d) <= sum_max)
    return (tuple(b - a for a, b in zip((0,) + cuts, cuts))
            for cuts in combinations(range(1, sum_max + 1), m))


def _box_feasible(d: tuple[int, ...], cap: int) -> bool:
    # prod(d) monomials in sum(d) - len(d) + 1 degrees: a mean piece above cap
    # puts the largest one above it too, so H is built only when it can fit
    return (prod(d) <= cap * (sum(d) - len(d) + 1)
            and max(_hilbert_cached(d)) <= cap)


def _fitting(points, cap: int, buckets: dict, box=lambda d: d):
    """The points whose box, box(point), has no graded piece above cap; each
    other point is counted in buckets["skipped"]."""
    for d in points:
        if _box_feasible(box(d), cap):
            yield d
        else:
            buckets["skipped"] += 1


class _OracleCache(dict):
    """Relation-degree values keyed by p and the sorted tuple (the oracle is
    permutation symmetric; symmetry itself is checked separately on raw calls,
    of which the call on the sorted tuple is this cache's own).
    `verify_e_grid` relies on these sorted keys to run its split-bound and
    unit-step checks once per multiset, not once per arrangement.  A key
    whose oracle box, the sorted tuple less its largest entry, has a graded
    piece above `cap` gets None and builds nothing."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def value(self, p: int, d) -> int | None:
        key = (p, tuple(sorted(d)))
        if key not in self:
            self[key] = (e_degree_oracle(p, key[1], want_witness=False).value
                         if _box_feasible(key[1][:-1], self.cap) else None)
        return self[key]


def _cube_peak(q: int, m: int) -> int:
    # Largest piece of the box (q,) * m.  Its Hilbert series, the product of
    # m symmetric unimodal 1 + x + ... + x^{q-1}, is symmetric and unimodal,
    # so it peaks at j = m(q-1)//2.  Inclusion-exclusion over the k coordinates
    # with a_i >= q counts the a in [0, q-1]^m of sum j.
    j = m * (q - 1) // 2
    return sum((-1) ** k * comb(m, k) * comb(j - k * q + m - 1, m - 1)
               for k in range(j // q + 1))


def _point_key(rec: dict) -> tuple:
    """The grid point a discrepancy record belongs to."""
    return (rec["p"], tuple(rec["d"] if "d" in rec else rec["K"]), rec.get("a"))


def _report(spec: GridSpec, buckets: dict, discrepancies: list[dict],
            **extra) -> dict:
    """A grid report.  Each enumerated point lands in exactly one bucket but
    `filter_checked`, which counts re-checks of points.  A point agrees when
    it was checked and has no discrepancy record, however many records a
    failing point has.  A grid that enumerates no point checks nothing, so
    it raises ValueError."""
    enumerated = sum(buckets.values()) - buckets.get("filter_checked", 0)
    if not enumerated:
        raise ValueError("grid enumerates no point")
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
    cache = _OracleCache(spec.matrix_cap)
    # The split-bound and unit-step checks read only `cache` values, and
    # nothing they read changes when d is rearranged: the q range (q <= min d),
    # the multiset of sorted keys k + eps with their rest (permute eps with
    # d), the sorted keys of the bumped tuples (bumping an entry of value v
    # gives one key however d is ordered), and `in_grid`, a sum and a max.  So
    # when one arrangement of a multiset passes both with no discrepancy, so
    # does every other, with the same two counts, which `clean` keeps by p and
    # the sorted tuple.  An arrangement with a discrepancy stores nothing, so
    # every arrangement of its multiset writes its own records.  The first
    # checked arrangement runs both loops, so every cache miss comes at the
    # same moment as it would without `clean`.  Whether `cache` answers None,
    # a neighbour above the cap, depends on the sorted key alone.
    clean: dict[tuple, tuple[int, int]] = {}

    def in_grid(d):
        return ((spec.sum_max is None or sum(d) <= spec.sum_max)
                and (spec.d_max is None or max(d) <= spec.d_max))

    def claimed(p, d):
        try:
            return ep_dispatch(p, d, "formula")
        except NotApplicableError:
            return None

    for p in spec.p_list:
        for n in spec.n_list:
            tuples = (_simplex(n + 1, spec.sum_max) if spec.sum_max is not None
                      else product(range(1, spec.d_max + 1), repeat=n + 1))
            points = ((d, claimed(p, d)) for d in filter(in_grid, tuples))
            if spec.paths != "all":     # the points its closed form answers
                points = ((d, res) for d, res in points if res is not None
                          and (res.method == "han") == (spec.paths == "han"))
            for d, res in _fitting(points, spec.matrix_cap, buckets,
                                   lambda point: point[0][:-1]):
                oracle_value = cache.value(p, d)
                if res is None:
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
                if _condition_char0(d):
                    checks["char0_ceiling"] += 1
                    e0 = _char0_value(d)
                    if oracle_value > e0:
                        discrepancies.append({"check": "char0_ceiling", "p": p,
                                              "d": list(d),
                                              "oracle": oracle_value,
                                              "bound": e0})
                key = (p, tuple(sorted(d)))
                if key in clean:
                    splits, steps = clean[key]
                    checks["power_split_bound"] += splits
                    checks["monotonicity"] += steps
                    continue
                found = len(discrepancies)
                splits = steps = 0
                # upper bounds from every base-q split of the tuple
                for q in _powers(p, min(d)):
                    splits += 1
                    for eps, kk, rest in _splits([x // q for x in d],
                                                 [x % q for x in d]):
                        if (value := cache.value(p, kk)) is None:
                            continue
                        bound = q * value + rest
                        if oracle_value > bound:
                            discrepancies.append({
                                "check": "power_split_bound", "p": p,
                                "d": list(d), "q": q, "eps": list(eps),
                                "oracle": oracle_value, "bound": bound})
                # coordinatewise monotonicity with unit steps
                for i in range(n + 1):
                    bumped = tuple(di + 1 if j == i else di
                                   for j, di in enumerate(d))
                    if not in_grid(bumped) or (
                            v2 := cache.value(p, bumped)) is None:
                        continue
                    steps += 1
                    if not oracle_value <= v2 <= oracle_value + 1:
                        discrepancies.append({
                            "check": "monotonicity", "p": p, "d": list(d),
                            "coordinate": i, "value": oracle_value,
                            "bumped": v2})
                checks["power_split_bound"] += splits
                checks["monotonicity"] += steps
                if len(discrepancies) == found:
                    clean[key] = (splits, steps)
            # permutation symmetry: the raw oracle on every distinct
            # rearrangement.  The sorted one is d itself, whose raw call is the
            # very call `cache` makes on its sorted key, so it comes from there.
            if n in (2, 3):
                for d in _simplex(n + 1, spec.symmetry_sum_max,
                                  nondecreasing=True):
                    # d is sorted, so d[1:] is the largest box it rearranges to
                    if not in_grid(d) or not _box_feasible(d[1:],
                                                           spec.matrix_cap):
                        continue
                    checks["symmetry_classes"] += 1
                    values = {perm: cache.value(p, d) if perm == d else
                              e_degree_oracle(p, perm, want_witness=False).value
                              for perm in sorted(set(permutations(d)))}
                    if len(set(values.values())) != 1:
                        discrepancies.append({
                            "check": "symmetry", "p": p, "d": list(d),
                            "values": {",".join(map(str, k)): v
                                       for k, v in sorted(values.items())}})

    return _report(spec, buckets, discrepancies, checks=checks)


def _wlp_verdict(p: int, d, cache: _OracleCache) -> bool:
    """WLP of the box quotient on d, by the relation-degree criterion of
    `formulas.wlp_criterion` (proved there for every box) on the oracle's
    relation degree."""
    return cache.value(p, d) >= _char0_value(d)


def verify_wlp_grid(spec: GridSpec) -> dict:
    """Weak Lefschetz checks: criterion-vs-profile equivalence, then three
    classification rows (four caps and five caps against their closed
    classifiers, six caps in scope alone), then the feasibility filter on
    every box with WLP.  The rows walk entries in [p, p^2 - 1], so each of
    their boxes has q = p."""
    buckets = {"obs_equivalence": 0, "n3_classified": 0, "n3_out_of_scope": 0,
               "n4_classified": 0, "n4_out_of_scope": 0, "n5_checked": 0,
               "n5_out_of_scope": 0, "filter_checked": 0, "skipped": 0}
    discrepancies: list[dict] = []
    cache = _OracleCache(spec.matrix_cap)
    verdict_true: list[tuple[int, int, int, tuple[int, ...]]] = []

    # criterion-vs-profile equivalence under the characteristic-zero condition
    for p in spec.p_list:
        for n in spec.n_list:
            if spec.sum_max is None:
                continue
            points = filter(_condition_char0, _simplex(
                n + 1, spec.sum_max, nondecreasing=True))
            for d in _fitting(points, spec.matrix_cap, buckets):
                buckets["obs_equivalence"] += 1
                profile = wlp_rank_profile(p, d).verdict
                by_degree = _wlp_verdict(p, d, cache)
                if profile != by_degree:
                    discrepancies.append({"check": "wlp_equivalence", "p": p,
                                          "d": list(d), "profile": profile,
                                          "by_relation_degree": by_degree})
                if profile:
                    verdict_true.append((n, p, applicability(p, d).q, d))

    # the classification rows: four caps (cube bound d_max) and five caps
    # (d_max_n4, where one sporadic multiset passes) against their closed
    # classifiers, and six caps (d_max_n5), which have none: the feasibility
    # filter excludes them.  Every entry lies in [p, p^2 - 1], so the largest
    # power of p at most min(d) is q = p for every box walked.
    for n, classify, cube in ((3, wlp_classify_n3, spec.d_max),
                              (4, wlp_classify_n4, spec.d_max_n4),
                              (5, None, spec.d_max_n5)):
        if cube is None:
            continue
        for p in spec.p_list:
            points = combinations_with_replacement(
                range(p, min(cube, p * p - 1) + 1), n + 1)
            for d in _fitting(points, spec.matrix_cap, buckets):
                try:
                    claimed = (classify(p, d) if classify
                               else _scope_report(p, d, n + 1))
                except NotApplicableError:
                    buckets[f"n{n}_out_of_scope"] += 1
                    continue
                buckets[f"n{n}_classified" if classify else "n5_checked"] += 1
                actual = _wlp_verdict(p, d, cache)
                if classify and claimed != actual:
                    discrepancies.append({"check": f"wlp_classify_n{n}",
                                          "p": p, "d": list(d),
                                          "classified": claimed,
                                          "profile": actual})
                if actual:
                    verdict_true.append((n, p, p, d))

    # no tuple with WLP may be excluded by the feasibility filter
    for n, p, q, d in verdict_true:
        buckets["filter_checked"] += 1
        if not wlp_feasibility_filter(n, p, q):
            discrepancies.append({"check": "feasibility_filter", "p": p,
                                  "q": q, "n": n, "d": list(d)})

    return _report(spec, buckets, discrepancies)


def verify_tsd_grid(spec: GridSpec) -> dict:
    """Socle-degree formula against the diagonal-form rank oracle."""
    buckets = {"checked": 0, "skipped": 0}
    discrepancies: list[dict] = []
    for p in spec.p_list:
        for n in spec.n_list:
            for a in range(1, spec.a_max + 1):
                if a % p == 0:
                    continue
                points = combinations_with_replacement(
                    range(1, spec.K_max + 1), n + 1)
                for K in _fitting(points, spec.matrix_cap, buckets):
                    buckets["checked"] += 1
                    f = tsd_formula(p, K, a, method="oracle")
                    o = socle_degree_oracle(p, K, a)
                    if f != o:
                        discrepancies.append({
                            "check": "tsd_formula_vs_oracle", "p": p,
                            "K": list(K), "a": a, "formula": f, "oracle": o})
    return _report(spec, buckets, discrepancies)


def fthreshold_convergence(p: int, a: int, n: int, e_max: int,
                           matrix_cap: int = MATRIX_CAP) -> dict:
    """Socle-degree sequence against the closed-form threshold.

    Reports one row per feasible q = p^e with q = 1 mod a (the subsequence on
    which the limit argument runs).  It records, rather than raises, a
    `nu_formula` discrepancy where the oracle's nu(q) differs from
    `tsd_formula`'s, and a `deviation_monotone` one where the signed
    deviation c - nu(q)/q increases from one reported row to the next.  The
    arguments are checked and read as the fields of a `GridSpec` of this kind.
    """
    return _fthreshold_grid(GridSpec(kind="fthreshold_convergence", p=p, a=a,
                                     n=n, e_max=e_max, matrix_cap=matrix_cap))


def _fthreshold_grid(spec: GridSpec) -> dict:
    """`fthreshold_convergence` on the fields of a checked spec."""
    p, a, n = spec.p, spec.a, spec.n
    result = fthreshold_formula(p, a, n)
    rows = []
    discrepancies = []
    skipped = []
    outside = 0
    for e in range(spec.e_max + 1):
        q = p ** e
        if q % a != 1 % a:
            outside += 1
            continue
        peak = _cube_peak(q, n + 1)
        if peak > spec.matrix_cap:
            skipped.append({"e": e, "q": q, "reason": "matrix_cap",
                            "peak_dimension": peak})
            continue
        nu = socle_degree_oracle(p, (q,) * (n + 1), a)
        if nu != (formula := tsd_formula(p, (q,) * (n + 1), a)):
            discrepancies.append({"check": "nu_formula", "e": e, "q": q,
                                  "nu": nu, "formula": formula})
        ratio = Fraction(nu, q)
        dev = result.c - ratio
        bound = Fraction(5 * (n + 2), q)
        if rows and dev > last:
            discrepancies.append({"check": "deviation_monotone", "e": e,
                                  "deviation": frac_str(dev),
                                  "previous": rows[-1]["deviation"]})
        rows.append({"e": e, "q": q, "nu": nu, "ratio": frac_str(ratio),
                     "deviation": frac_str(dev), "bound": frac_str(bound),
                     "within_bound": abs(dev) <= bound})
        last = dev
    return {
        "spec": {"kind": spec.kind, **{key: getattr(spec, key)
                                       for key in _GRIDS[spec.kind][1]}},
        "c": frac_str(result.c),
        "M": frac_str(result.M),
        "terms": [frac_str(t) for t in result.terms],
        "rows": rows,
        "totals": {"enumerated": spec.e_max + 1, "reported": len(rows),
                   "skipped": len(skipped), "outside_subsequence": outside,
                   "discrepancies": len(discrepancies)},
        "buckets": {"reported": len(rows), "skipped": len(skipped)},
        "skipped": skipped,
        "discrepancies": discrepancies,
    }


# kind -> (runner of a checked spec, by name so that each call reads the
# module global; the GridSpec fields that runner reads besides kind)
_GRIDS = {
    "e": ("verify_e_grid", ("p_list", "n_list", "sum_max", "d_max", "paths",
                            "matrix_cap", "symmetry_sum_max")),
    "wlp": ("verify_wlp_grid", ("p_list", "n_list", "sum_max", "d_max",
                                "d_max_n4", "d_max_n5", "matrix_cap")),
    "tsd": ("verify_tsd_grid", ("p_list", "n_list", "K_max", "a_max",
                                "matrix_cap")),
    "fthreshold_convergence": ("_fthreshold_grid",
                               ("p", "a", "n", "e_max", "matrix_cap")),
}


def run_grid(doc: dict) -> dict:
    """Run the grid described by a plain dict (the CLI's --grid payload)."""
    spec = GridSpec.from_dict(doc)
    return globals()[_GRIDS[spec.kind][0]](spec)


def discrepancies_csv(report: dict) -> str:
    """Flatten a report's discrepancy records to CSV text (header always)."""
    records = report.get("discrepancies", [])
    base = ["check", "p", "d"]
    keys = base + sorted({k for rec in records for k in rec} - set(base))

    def cell(v) -> str:
        if isinstance(v, (list, dict)):
            return json.dumps(v, sort_keys=True, separators=(",", ":"))
        return str(v)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index"] + keys)
    writer.writerows([i] + [cell(rec.get(k, "")) for k in keys]
                     for i, rec in enumerate(records))
    return out.getvalue()
