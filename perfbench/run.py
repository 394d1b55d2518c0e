"""Benchmark command for nonkoszul.

    python3 perfbench/run.py --workload grid_sweep|socle_sparse|query_mix|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each timed pass starts a fresh interpreter
(perfbench/worker.py), so the program's caches start cold as they do for a
command-line user.  Passes repeat until about --seconds have gone by; every
end-to-end metric is a median over passes, except items_per_s (total items
over total pass time) and the query percentiles (over every call of every
pass).  With --trace 1 two more passes run with every public function wrapped
by perfbench/tracing.py, each followed by an untraced pass for the overhead,
and their per-layer metrics are printed.

Load: one process, one client, THREADS=1 and one BLAS thread.  The last line
of stdout is the JSON result; the lines above it are the readable report.
The exit code is 1 if any answer was wrong, 2 on a set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers as layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("grid_sweep", "socle_sparse", "query_mix")
DEFAULT_SEED = 0
MIN_PASSES = 2
MIN_SETUPS = 9
TRACED_PASSES = 2
DEADLINE_S = 170          # one workload, every pass and check included

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("items_per_s", "1/s"),
              ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))
# what one item and one query are, and the per-workload names of the
# end-to-end metrics the report also prints
ITEM = {"grid_sweep": ("grid point", "run_grid call"),
        "socle_sparse": ("problem", "problem"),
        "query_mix": ("query", "cli.main call")}
ALIASES = {"grid_sweep": {"grid_points_per_s": "items_per_s"},
           "socle_sparse": {},
           "query_mix": {"queries_per_s": "items_per_s"}}


class BenchError(RuntimeError):
    pass


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(env, deadline, workload, seed, *extra) -> tuple[float, dict]:
    """Run one worker; returns (spawn time on CLOCK_MONOTONIC, its result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *extra]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {extra} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {extra} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values, q: int) -> float:
    """q-th percentile, interpolated between samples and never beyond them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 root: str) -> dict:
    env = _worker_env(root)
    deadline = time.monotonic() + DEADLINE_S
    # untimed first start: compiles bytecode and warms the file cache
    _, warm = _spawn(env, deadline, workload, seed, "--setup-only")

    passes, setups = [], []
    begin = time.monotonic()
    while True:
        t_spawn, doc = _spawn(env, deadline, workload, seed)
        setups.append(doc["ready"] - t_spawn)
        passes.append(doc)
        elapsed = time.monotonic() - begin
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    while len(setups) < MIN_SETUPS:
        t_spawn, doc = _spawn(env, deadline, workload, seed, "--setup-only")
        setups.append(doc["ready"] - t_spawn)

    # each traced pass is followed by an untraced one, so that the overhead
    # compares passes run close together on a host whose speed drifts
    traced, paired = [], []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        for k in range(TRACED_PASSES):
            spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{k}.npz")
            traced.append(_spawn(env, deadline, workload, seed, "--trace", "1",
                                 "--spans", spans)[1])
            paired.append(_spawn(env, deadline, workload, seed)[1])

    done = passes + traced + paired
    errors = [e for doc in done for e in doc["errors"]]
    failed = sum(doc["failed"] for doc in done)
    attempted = sum(doc["items"] for doc in done)
    digests = {doc["digest"] for doc in done}
    if len(digests) != 1:
        failed += 1
        errors.append("outputs differ between passes with the same seed")
    stored = _stored_digest(workload, seed)
    if stored is not None and digests != {stored}:
        failed += 1
        errors.append(f"digest {sorted(digests)} != stored {stored}")

    walls = [doc["wall"] for doc in passes]
    # every pass runs the same inputs in the same order: one latency per
    # input, its median over passes, so that a stall in one pass does not
    # pass for a slow input
    latencies = [statistics.median(lat)
                 for lat in zip(*(doc["latencies"] for doc in passes))]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(walls),
        "items_per_s": sum(doc["items"] for doc in passes) / sum(walls),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p99_ms": _quantile(latencies, 99) * 1000,
        "peak_rss_mb": statistics.median(doc["rss_mb"] for doc in passes),
    }
    calls = f"{len(latencies)} inputs x {len(walls)} passes"
    samples = {"setup_s": len(setups), "solve_s": len(walls),
               "items_per_s": len(walls), "query_p50_ms": calls,
               "query_p99_ms": calls, "peak_rss_mb": len(walls)}

    layers = {}
    if traced:
        layers, mismatch = layer_names.combine(
            [doc["layers"] for doc in traced])
        if mismatch:
            failed += 1
            errors.append("counts differ between traced runs with the same "
                          "seed: " + ", ".join(mismatch))
        traced_wall = statistics.median(doc["wall"] for doc in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(
            doc["wall"] for doc in paired)

    env_record = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
                  "THREADS": env["THREADS"],
                  "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
                  **warm["env"], "seed": seed, "seconds": seconds,
                  "sizes": warm["sizes"]}
    return {"workload": workload, "env": env_record, "metrics": metrics,
            "samples": samples, "layers": layers, "attempted": attempted,
            "failed": failed, "errors": errors[:20],
            "digest": sorted(digests)[0], "traced_passes": len(traced),
            "findings": passes[0]["findings"]}


def _declared_mismatch(root: str):
    """Names or units that differ between BENCHMARK.json and this file."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    for key, ours in (("end_to_end", dict(END_TO_END)),
                      ("per_layer", layer_names.UNITS)):
        theirs = {m["name"]: m["unit"] for m in doc[key]}
        if theirs != ours:
            diff = sorted(set(theirs.items()) ^ set(ours.items()))
            return f"{key}: {diff[:6]}"
    if sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        return "workloads"
    return None


def _stored_digest(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload)


def _report(res: dict) -> None:
    w = res["workload"]
    item, call = ITEM[w]
    print(f"== {w}  (item: {item}; query: one {call})")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, unit in END_TO_END:
        print(f"  {name:<18} {res['metrics'][name]:>14.6g} {unit:<5} "
              f"n={res['samples'][name]}")
    for alias, name in ALIASES[w].items():
        print(f"  {alias:<18} {res['metrics'][name]:>14.6g} 1/s   "
              f"(= items_per_s)")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'fail_ratio':<18} {ratio:>14.6g}       "
          f"{res['failed']} of {res['attempted']}")
    if res["layers"]:
        print(f"per-layer metrics, {res['traced_passes']} traced passes, "
              f"tracing overhead {res['layers']['trace.overhead_s']:.4f} s:")
        for name, value in res["layers"].items():
            if value:
                print(f"  {name:<48} {value:.6g}")
    for err in res["errors"]:
        print("  WRONG: " + err)
    for finding in res["findings"]:
        print("  program finding (not gated): " + finding)
    print(f"digest {res['digest']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nonkoszul", "__init__.py")):
        sys.stderr.write("run.py: no src/nonkoszul here; run it from the "
                         "repository root\n")
        return 2
    problem = _declared_mismatch(root)
    if problem:
        sys.stderr.write(f"run.py: BENCHMARK.json disagrees with the "
                         f"benchmark: {problem}\n")
        return 2

    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in todo:
            res = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace), root)
            _report(res)
            results.append(res)
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)

    units = layer_names.UNITS if args.trace else dict(END_TO_END)

    def pick(res):
        values = res["layers"] if args.trace else res["metrics"]
        return {n: {"value": values[n], "unit": u} for n, u in units.items()}

    if len(results) == 1:
        metrics = pick(results[0])
    else:
        metrics = {f"{res['workload']}.{n}": v
                   for res in results for n, v in pick(res).items()}
    failed = sum(res["failed"] for res in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
