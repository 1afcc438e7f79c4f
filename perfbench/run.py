"""Benchmark of qmarkov: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload cost_random --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

Each run starts the workload's process ``WORKERS`` times in a row, with
BLAS pinned to one thread.  Every process sets up (imports, inputs, state
files, one untimed warm-up query) and then runs a closed loop of queries,
one client, for its share of ``--seconds``.  ``setup_s`` is the median of
the set-ups.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics; with ``--trace 1`` queries alternate between
traced and untraced, and it carries the per-layer metrics instead.  Every
query's answer is checked against a reference; see ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, here and in every workload process.
os.environ.update({v: "1" for v in THREAD_VARS})

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "out"
WORKERS = 3
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("query_p50_s", "s"), ("queries_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
BASELINE_NOTE = ("ROADMAP's quoted baselines (e.g. ~5 s for bounds_check on a random "
                 "(6,36,6) state) used default BLAS threads; with one thread, as here, "
                 "(6,36,6) takes 7.8 to 9.2 s on the same 2-core machine")


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(workload: str, seed: int, worker: int, window: float, trace: int,
               deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--worker", str(worker), "--window", repr(window),
           "--trace", str(trace), "--t0", repr(t0), "--workdir", str(WORKDIR),
           "--src", str(SRC)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} process {worker} ran past the deadline") from err
    if proc.returncode != 0:
        raise BenchError(f"{workload} process {worker} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """Run one workload and return its report (metrics, counts, details)."""
    WORKDIR.mkdir(exist_ok=True)
    results = [run_worker(workload, seed, k, seconds / WORKERS, trace, deadline)
               for k in range(WORKERS)]
    samples = [s for r in results for s in r["samples"]]
    times = [t for t, _, traced in samples if not traced]
    attempted = len(samples) + sum(1 for r in results if not r["warmup_ok"])
    failed = sum(len(r["failures"]) for r in results)
    report = {
        "workload": workload, "seed": seed, "trace": trace, "processes": WORKERS,
        "attempted": attempted, "failed": failed,
        "failures": [f for r in results for f in r["failures"]][:20],
        "env": dict(results[0]["env"], git_commit=git_commit(), seed=seed,
                    baseline_note=BASELINE_NOTE),
        "setup_s_each": [r["setup_s"] for r in results],
        "samples_s": [[t for t, _, _ in r["samples"]] for r in results],
    }
    m = {
        "setup_s": stats.median(r["setup_s"] for r in results),
        "query_p50_s": stats.median(times),
        "query_tail_s": stats.tail(times),
        "timed_queries": len(times),
        "queries_per_s": None if trace else
        sum(ok for _, ok, _ in samples) / sum(r["measured_s"] for r in results),
        "ops_failed_frac": failed / attempted,
        "peak_rss_mb": stats.median(r["peak_rss_mb"] for r in results),
    }
    report["end_to_end"] = m
    report["correct"] = failed == 0
    if trace:
        per_query = [q for r in results for q in r["per_query"]]
        layers = tracing.summarize(per_query)
        traced_p50 = stats.median(t for t, _, traced in samples if traced)
        layers["bench.trace_overhead_frac"] = (traced_p50 - m["query_p50_s"]) / m["query_p50_s"]
        report["per_layer"] = layers
        report["layer_shares"] = tracing.layer_shares(per_query)
        report["traced_queries"] = len(per_query)
        report["spans_files"] = [r["spans_file"] for r in results]
        report["self_sum_ok"] = all(r["self_sum_ok"] for r in results)
        report["correct"] = report["correct"] and report["self_sum_ok"]
    return report


def describe(report: dict) -> list[str]:
    """Human-readable lines: every metric by name, with its unit."""
    m = report["end_to_end"]
    lines = [f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
             f"{report['processes']} processes, {report['attempted']} queries, "
             f"{report['failed']} failed"]
    tail = m["query_tail_s"]
    tail_text = (f"{tail[0]:.4f} s  (p{tail[1]:.1f} of {tail[2]} samples, 10 beyond)"
                 if tail else f"n/a  (needs at least 11 samples; {m['timed_queries']} "
                 "untraced queries in this run)")
    lines += [
        f"  setup_s         = {m['setup_s']:.4f} s  (median of {report['processes']} set-ups)",
        f"  query_p50_s     = {m['query_p50_s']:.4f} s",
        f"  query_tail_s    = {tail_text}",
        "  queries_per_s   = " + ("n/a in a traced run" if m["queries_per_s"] is None
                                   else f"{m['queries_per_s']:.4f} 1/s"),
        f"  ops_failed_frac = {m['ops_failed_frac']:.4f}  "
        f"({report['failed']} of {report['attempted']})",
        f"  peak_rss_mb     = {m['peak_rss_mb']:.1f} MB",
    ]
    for f in report["failures"]:
        lines.append(f"  FAILED query {f['query']}: {f['reason']}")
    if "per_layer" in report:
        lines.append(f"  per-layer medians over {report['traced_queries']} traced queries; "
                     f"self-time sum check {'ok' if report['self_sum_ok'] else 'FAILED'}")
        lines.append("  self-time shares of traced query time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in report["layer_shares"].items()))
        for name, value in report["per_layer"].items():
            lines.append(f"  {name:<42} = {value:.6g} {tracing.metric_unit(name)}")
    lines.append("env " + json.dumps(report["env"], sort_keys=True))
    return lines


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {k: {"value": v, "unit": tracing.metric_unit(k)}
                   for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u} for k, u in END_TO_END}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qmarkov" / "__init__.py").is_file():
        sys.stderr.write(f"no qmarkov sources under {SRC}; run from a checkout of the repo\n")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            reports.append(report)
            print("\n".join(describe(report)), flush=True)
            out = WORKDIR / f"result_{name}_{args.seed}_trace{args.trace}.json"
            out.write_text(json.dumps(report, indent=1) + "\n")
    except BenchError as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 1
    if len(reports) == 1:
        line = result_line(reports[0])
    else:
        line = {"correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": {f"{r['workload']}.{k}": v for r in reports
                            for k, v in result_line(r)["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
