"""One benchmark pass in a fresh interpreter, so every lru_cache of the
program starts cold, as it does for a command-line user.

Prints one JSON object on stdout.  `ready` is CLOCK_MONOTONIC after imports
and input generation; the parent subtracts its spawn time to get set-up time.
Run by perfbench/run.py, which sets PYTHONPATH, THREADS and the BLAS thread
count; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads


def _blas() -> dict:
    """BLAS library and the thread count it reports, where it can say."""
    import ctypes
    import glob
    import os

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    info["blas_threads"] = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["blas_threads"] = int(fn())
                return info
    return info


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here (.npz)")
    args = ap.parse_args()

    inputs = workloads.generate(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        doc = {"ready": ready, "env": _blas(),
               "sizes": workloads.describe(args.workload, inputs)}
        print(json.dumps(doc))
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        outputs, latencies, items = workloads.run(args.workload, inputs)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = workloads.check(args.workload, inputs, outputs)
    doc = {"ready": ready, "wall": wall, "latencies": latencies,
           "items": items, "rss_mb": rss_mb, "failed": len(errors),
           "errors": errors[:10], "digest": workloads.digest(outputs),
           "findings": workloads.findings(args.workload, inputs, outputs)}
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        if args.spans:
            import numpy as np
            np.savez_compressed(args.spans, **tracer.spans())
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
