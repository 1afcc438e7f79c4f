"""One workload process: set up, warm up, then a closed loop of queries.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
Prints one JSON object, its result, as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import tracing
from workloads import WORKLOADS

# The per-query sum of self times must match the traced wall time to within
# this much (absolute seconds plus a share of the wall time).
SELF_SUM_SLACK_S = 1e-3
SELF_SUM_SLACK_FRAC = 1e-3


def blas_build() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--window", type=float, required=True, help="seconds of queries")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="monotonic time of the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    import qmarkov
    if not os.path.abspath(qmarkov.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.stderr.write(f"qmarkov imported from {qmarkov.__file__}, not {args.src}\n")
        return 2

    rng = np.random.default_rng([args.seed, args.worker])
    wl = WORKLOADS[args.workload](qmarkov, rng, args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    samples = []      # [seconds, ok, traced] of each timed query
    failures = []
    per_query = []    # per-layer metrics of each traced query
    worst_self_sum = 0.0

    def query(i: int, traced: bool) -> tuple[float, bool]:
        nonlocal worst_self_sum
        if traced:
            start = tracer.begin_query(i)
        t = time.perf_counter()
        try:
            answer, error = wl.run(i), None
        except Exception as err:   # a failed query is counted and the run goes on
            answer, error = None, f"{type(err).__name__}: {err}"
        dt = time.perf_counter() - t
        if traced:
            tracer.end_query()
            metrics = tracing.query_metrics(tracing.query_spans(tracer.spans, start))
            per_query.append(metrics)
            worst_self_sum = max(worst_self_sum, abs(metrics["self_sum_s"] - dt)
                                 - SELF_SUM_SLACK_S - SELF_SUM_SLACK_FRAC * dt)
        if error is None:
            try:
                error = wl.check(i, answer)
            except Exception as err:
                error = f"check raised {type(err).__name__}: {err}"
        if error is not None:
            failures.append({"query": i, "reason": error[:300]})
        return dt, error is None

    try:
        warmup_ok = query(0, traced=False)[1]
        setup_s = time.monotonic() - args.t0
        t_begin = time.perf_counter()
        i = units = 0
        # A traced run alternates traced and untraced units, at least one of each.
        while (time.perf_counter() - t_begin < args.window
               or (tracer is not None and units < 2)):
            traced = tracer is not None and units % 2 == 0
            if traced:
                tracer.install()
            for _ in range(wl.unit):
                i += 1
                samples.append([*query(i, traced), traced])
            if traced:
                tracer.uninstall()
            units += 1
        measured_s = time.perf_counter() - t_begin
    finally:
        wl.close()

    result = {
        "worker": args.worker,
        "setup_s": setup_s,
        "measured_s": measured_s,
        "samples": samples,
        "warmup_ok": warmup_ok,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        spans_path = os.path.join(args.workdir,
                                  f"spans_{args.workload}_{args.seed}_w{args.worker}.jsonl")
        tracer.dump(spans_path)
        result.update(per_query=per_query, spans_file=spans_path,
                      self_sum_ok=worst_self_sum <= 0.0)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
