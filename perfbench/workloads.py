"""Seeded inputs, execution and answer checks for the benchmark workloads.

Every workload is a function of its seed alone: `generate` builds the inputs,
`run` feeds them one call at a time to the public functions of nonkoszul and
returns the outputs with one latency per call, and `check` judges the outputs
after the timed region has ended.

The pools below were chosen so that every seed asks for about the same amount
of work: a seed changes which inputs run, not how heavy the run is, so that
run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

import numpy as np

from nonkoszul import cli, formulas, monomials, oracle, verify

WORKLOADS = ("grid_sweep", "socle_sparse", "query_mix")

# grid_sweep: a fixed list of verification grids over small boxes, each run
# once per prime, one run_grid call each; the seed leaves one prime of
# GRID_PRIMES out of each grid.  Running four of the five primes keeps the
# load of every seed within a few percent of the others, where a smaller
# share lets the draw swing it by a quarter.
GRID_PRIMES = (2, 3, 5, 7, 11)
GRID_SPECS = (
    {"kind": "e", "n_list": [2], "sum_max": 14},
    {"kind": "e", "n_list": [3], "sum_max": 12},
    {"kind": "e", "n_list": [4], "sum_max": 11},
    {"kind": "wlp", "n_list": [3], "sum_max": 13, "d_max": 4,
     "d_max_n4": 4, "d_max_n5": 3},
    {"kind": "tsd", "n_list": [2], "K_max": 5, "a_max": 3},
)
GRID_PRIMES_PER_SPEC = 4

# socle_sparse: top socle degrees under x_1^a + ... + x_m^a on three-cap boxes
# whose peak graded dimension is 480-600.  Every (p, K, a) here makes the
# binary search do about the same elimination work: the sum over its probes of
# rows * cols * min(rows, cols) lies between 0.50e9 and 0.53e9.
SOCLE_POOL = (
    (2, (22, 24, 33), 5), (2, (18, 29, 34), 4), (2, (17, 33, 35), 2),
    (3, (22, 23, 35), 5), (3, (25, 25, 27), 4), (3, (25, 29, 29), 3),
    (5, (22, 26, 29), 2), (5, (24, 25, 35), 5), (5, (18, 30, 35), 3),
    (7, (27, 28, 30), 4), (7, (20, 31, 35), 5), (7, (17, 32, 34), 3),
    (11, (24, 24, 29), 4), (11, (19, 30, 30), 2), (11, (22, 24, 35), 3),
)
SOCLE_PER_PASS = 2
# diagonal F-threshold convergence up to q = 25 (peak dimension 469), about
# the same work as one SOCLE_POOL problem; one per pass
FTHRESHOLD_POOL = ((5, 2, 2, 2), (5, 3, 2, 2), (5, 4, 2, 2))   # (p, a, n, e_max)

# query_mix: one client, closed loop, a fixed count of each request class.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MID_PRIME = 8191
BIG_PRIME = 8388617          # above 2^23, so rank takes the int64 route
QUERY_COUNTS = (
    ("e_auto", 340), ("e_formula", 150), ("e_oracle", 110),
    ("e_oracle_dense", 30), ("wlp", 120), ("tsd_check", 120),
    ("fthreshold", 90), ("table", 40),
)
# (box caps, power, prime): multiplication by f^power gives 10-60% dense
# matrices; each takes 0.05-0.5 s with its kernel witness
DENSE_POOL = (
    ((5, 5, 5, 5, 5), 5, MID_PRIME), ((5, 5, 5, 5, 5), 8, MID_PRIME),
    ((5, 5, 5, 5, 4), 6, MID_PRIME), ((6, 5, 5, 4, 4), 5, MID_PRIME),
    ((6, 6, 5, 5, 4), 7, MID_PRIME),
    ((4, 4, 4, 4, 4, 4), 6, BIG_PRIME), ((4, 4, 4, 4, 4, 4), 4, BIG_PRIME),
    ((3, 4, 4, 5, 5, 3), 5, BIG_PRIME), ((6, 6, 5, 5, 4), 7, BIG_PRIME),
    ((5, 5, 5, 5, 5), 5, BIG_PRIME),
)


def generate(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid_sweep":
        return [dict(spec, p_list=[p])
                for spec in GRID_SPECS
                for p in sorted(rng.sample(GRID_PRIMES, GRID_PRIMES_PER_SPEC))]
    if workload == "socle_sparse":
        problems = []
        for p, K, a in rng.sample(SOCLE_POOL, SOCLE_PER_PASS):
            caps = list(K)
            rng.shuffle(caps)
            problems.append(("socle", p, tuple(caps), a))
        problems.append(("fthreshold",) + rng.choice(FTHRESHOLD_POOL))
        rng.shuffle(problems)
        return problems
    if workload == "query_mix":
        return _query_stream(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _prime(rng) -> int:
    u = rng.random()
    if u < 0.7:
        return rng.choice(SMALL_PRIMES)
    return MID_PRIME if u < 0.85 else BIG_PRIME


def _degrees(rng, lengths) -> list[int]:
    m = rng.choice(lengths)
    top = {2: 12, 3: 12, 4: 7, 5: 5}[m]
    return [rng.randint(1, top) for _ in range(m)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _query(kind: str, rng, dense_slot: int) -> list[str]:
    if kind == "e_auto":
        return ["e", "--p", str(_prime(rng)), "--d", _csv(_degrees(rng, (3, 4, 5)))]
    if kind == "e_formula":
        return ["e", "--p", str(_prime(rng)),
                "--d", _csv(_degrees(rng, (2, 3, 4, 5))), "--method", "formula"]
    if kind == "e_oracle":
        m = rng.choice((3, 4))
        d = [rng.randint(1, 6 if m == 3 else 4) for _ in range(m)]
        return ["e", "--p", str(_prime(rng)), "--d", _csv(d), "--method", "oracle"]
    if kind == "e_oracle_dense":
        caps, power, p = DENSE_POOL[dense_slot % len(DENSE_POOL)]
        caps = list(caps)
        rng.shuffle(caps)
        return ["e", "--p", str(p), "--d", _csv(caps + [power]),
                "--method", "oracle"]
    if kind == "wlp":
        d = [rng.randint(2, 5) for _ in range(rng.choice((3, 4)))]
        return ["wlp", "--p", str(_prime(rng)), "--d", _csv(d),
                "--format", rng.choice(("json", "plain"))]
    if kind == "tsd_check":
        K = [rng.randint(2, 9) for _ in range(3)]
        return ["tsd", "--p", str(rng.choice(SMALL_PRIMES)), "--K", _csv(K),
                "--a", str(rng.randint(1, 4)), "--check"]
    if kind == "fthreshold":
        p = rng.choice(SMALL_PRIMES)
        a = rng.choice([x for x in range(1, 13) if x % p])
        argv = ["fthreshold", "--p", str(p), "--a", str(a),
                "--n", str(rng.randint(1, 4)),
                "--format", rng.choice(("json", "plain"))]
        if rng.random() < 0.3:
            argv += ["--converge", "3", "--matrix-cap", "200"]
        return argv
    if kind == "table":
        n = rng.choice((2, 3))
        return ["table", "--p", str(rng.choice(SMALL_PRIMES)), "--n", str(n),
                "--sum-max", str(rng.randint(n + 2, n + 6)),
                "--format", rng.choice(("csv", "json"))]
    raise ValueError(kind)


def _query_stream(rng) -> list[list[str]]:
    kinds = [kind for kind, count in QUERY_COUNTS for _ in range(count)]
    rng.shuffle(kinds)
    stream = []
    dense_slot = 0
    for kind in kinds:
        stream.append(_query(kind, rng, dense_slot))
        dense_slot += kind == "e_oracle_dense"
    return stream


def describe(workload: str, inputs) -> dict:
    """Sizes of the generated inputs, for the environment record."""
    if workload == "grid_sweep":
        return {"grids": len(inputs),
                "primes": [spec["p_list"][0] for spec in inputs]}
    if workload == "socle_sparse":
        return {"problems": len(inputs),
                "inputs": [list(prob[1:]) for prob in inputs]}
    counts: dict = {}
    for argv in inputs:
        key = argv[0]
        if argv[0] == "e":
            key += "_" + (argv[argv.index("--method") + 1]
                          if "--method" in argv else "auto")
        counts[key] = counts.get(key, 0) + 1
    return {"queries": len(inputs), "by_command": counts}


# --------------------------------------------------------------------------
# timed execution: the program is reached only through module attributes, so
# the tracer's wrappers see every call the benchmark makes

def run(workload: str, inputs):
    """Returns (outputs, per-call latencies in seconds, items done)."""
    perf = time.perf_counter
    outputs = []
    latencies = []
    if workload == "grid_sweep":
        items = 0
        for spec in inputs:
            t0 = perf()
            report = verify.run_grid(spec)
            latencies.append(perf() - t0)
            outputs.append(report)
            items += report["totals"]["checked"]
        return outputs, latencies, items
    if workload == "socle_sparse":
        for prob in inputs:
            t0 = perf()
            if prob[0] == "socle":
                _, p, K, a = prob
                out = oracle.socle_degree_oracle(p, K, a)
            else:
                _, p, a, n, e_max = prob
                out = verify.fthreshold_convergence(p, a, n, e_max)
            latencies.append(perf() - t0)
            outputs.append(out)
        return outputs, latencies, len(inputs)
    for argv in inputs:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        latencies.append(perf() - t0)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs, latencies, len(inputs)


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# answer checks, run after the timed region

def check(workload: str, inputs, outputs) -> list[str]:
    """One message per wrong answer; an empty list means every answer held."""
    if len(outputs) != len(inputs):
        return [f"{len(outputs)} outputs for {len(inputs)} inputs"]
    checker = {"grid_sweep": _check_grid, "socle_sparse": _check_socle,
               "query_mix": _check_query}[workload]
    errors = []
    for inp, out in zip(inputs, outputs):
        try:
            msg = checker(inp, out)
        except Exception as exc:     # a malformed output is a wrong answer
            msg = f"check raised {exc!r}"
        if msg:
            errors.append(f"{inp}: {msg}")
    return errors


def findings(workload: str, inputs, outputs) -> list[str]:
    """Deviation-check records that F-threshold convergence tables report
    about themselves.  They are not wrong answers, so they are listed, not
    gated."""
    out = []
    for inp, res in zip(inputs, outputs):
        if workload == "socle_sparse" and inp[0] == "fthreshold":
            report = res
        elif (workload == "query_mix" and inp[0] == "fthreshold"
              and "--converge" in inp and "plain" not in inp and res[0] == 0):
            report = json.loads(res[1])["convergence"]
        else:
            continue
        flags = [d["check"] for d in report["discrepancies"]]
        flags += [f"outside_bound(q={r['q']})" for r in report["rows"]
                  if not r["within_bound"]]
        if flags:
            out.append(f"{report['spec']}: {', '.join(flags)}")
    return out


def _check_grid(spec, report):
    totals = report["totals"]
    if totals["discrepancies"] != 0:
        return f"{totals['discrepancies']} discrepancies"
    if totals["checked"] < 1:
        return "grid checked no point"
    return None


def _check_socle(prob, out):
    if prob[0] == "socle":
        _, p, K, a = prob
        want = formulas.tsd_formula(p, K, a)
        return None if out == want else f"oracle {out} != formula {want}"
    _, p, a, n, e_max = prob
    if not out["rows"]:
        return "no convergence row computed"
    return _check_convergence(p, a, n, out)


def _check_convergence(p, a, n, report):
    """Every socle degree nu(q) of the table must match the closed form, and
    c must be the closed-form threshold.  The table's own deviation checks
    are claims about the limit, not answers; `findings` reports them."""
    if report["c"] != formulas.frac_str(formulas.fthreshold_formula(p, a, n).c):
        return "threshold differs from the closed form"
    for row in report["rows"]:
        want = formulas.tsd_formula(p, (row["q"],) * (n + 1), a)
        if row["nu"] != want:
            return f"nu({row['q']}) = {row['nu']} != formula {want}"
    return None


def _check_query(argv, out):
    code, stdout, _ = out
    command = argv[0]
    method = argv[argv.index("--method") + 1] if "--method" in argv else "auto"
    if code == 2 and command == "e" and method == "formula":
        doc = json.loads(stdout)
        return None if doc.get("status") == "not_applicable" else \
            "exit 2 without a not_applicable document"
    if code != 0:
        return f"exit code {code}"
    if command == "e":
        return _check_e(argv, json.loads(stdout), method)
    if command == "tsd":
        return None if json.loads(stdout)["agree"] is True else \
            "formula and oracle disagree"
    if command == "wlp" and "plain" not in argv:
        doc = json.loads(stdout)
        if doc["verdict"] != all(r["maximal"] for r in doc["profile"]):
            return "verdict does not match the rank profile"
    if command == "fthreshold" and "--converge" in argv and "plain" not in argv:
        p, a, n = (int(argv[argv.index(flag) + 1])
                   for flag in ("--p", "--a", "--n"))
        return _check_convergence(p, a, n, json.loads(stdout)["convergence"])
    return None


def _check_e(argv, doc, method):
    p = int(argv[argv.index("--p") + 1])
    d = tuple(int(x) for x in argv[argv.index("--d") + 1].split(","))
    if doc["method"] == "oracle" and len(d) > 1 and doc["witness"] is None:
        return "oracle answer without a witness"
    if doc["witness"] is not None:
        msg = _check_witness(p, d, doc)
        if msg:
            return msg
    if method != "oracle":
        want = oracle.e_degree_oracle(p, d, want_witness=False).value
        if doc["value"] != want:
            return f"value {doc['value']} != oracle {want}"
    return None


def _check_witness(p, d, doc):
    """The witness must be a nonzero kernel vector of the decisive map."""
    caps, power = d[:-1], d[-1]
    degree = doc["witness"]["degree"]
    if degree + power != doc["value"]:
        return "witness degree does not match the value"
    basis = {tuple(int(x) for x in row): i
             for i, row in enumerate(monomials.slice_array(caps, degree))}
    vec = np.zeros(len(basis), dtype=np.int64)
    for term in doc["witness"]["terms"]:
        coeff, *factors = term.split("*")
        expo = [0] * len(caps)
        for factor in factors:
            var, _, e = factor.partition("^")
            expo[int(var[1:]) - 1] = int(e) if e else 1
        vec[basis[tuple(expo)]] = int(coeff)
    if not vec.any():
        return "zero witness"
    image = oracle.mult_map(caps, degree, power, p).data @ vec % p
    return "witness is not in the kernel" if image.any() else None
