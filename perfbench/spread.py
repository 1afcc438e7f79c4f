"""Run-to-run spread of the end-to-end metrics, to check the bounds hold.

    python3 perfbench/spread.py --workloads cost_random,protocol_sim --seeds 1-10

Runs ``run.py`` once per seed and workload, as separate processes, and
prints for each metric its median and the distance between its first and
third quartile as a share of the median.  The benchmark is steady enough
when every spread except that of ``setup_s`` stays below a third of the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return 1
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                steady = False
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.monotonic() - t0:.1f} s):",
                  json.dumps({k: round(v[-1], 4) for k, v in values.items()}), flush=True)
        for name, vals in values.items():
            spread = stats.quartile_spread(vals)
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print(f"{workload:<16} {name:<14} median {stats.median(vals):10.4f}  "
                  f"spread {spread:.4f}  bound {bounds[name]}  {'ok' if ok else 'WIDE'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
