"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--traced 2]
                            [--baseline]

Runs bench/run.py once per seed and workload (the run length from
BENCHMARK.json) and prints, per end-to-end metric, the median and the
quartile spread (Q3 - Q1) / median of the per-run values, against a third
of the metric's bound.  With --traced N it also makes N traced runs per
workload with the first seed and checks that their exact counts agree.
--baseline writes the figures of these workloads, with the thread context
and the layer -> metric -> workload predictions, into bench/baseline.json,
keeping the entries of other workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT
from spans import EXACT_COUNTS
from workloads import BENCH_WORKLOADS, PREDICTIONS


def bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = next(json.loads(line) for line in lines if line.startswith('{"context"'))
    if not result["correct"]:
        print("\n".join(line for line in lines if line.startswith("FAILED")))
    return result, info, took


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(BENCH_WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args()
    cfg = bench_config()
    seconds = cfg["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    path = os.path.join(HERE, "baseline.json")
    baseline = {"end_to_end": {}, "per_layer": {}}
    if args.baseline and os.path.isfile(path):
        with open(path) as fh:
            baseline = json.load(fh)  # keep the other workloads' entries
    baseline.update({"run_seconds": seconds, "predictions": PREDICTIONS, "context": None})
    steady = True
    for workload in args.workloads.split(","):
        runs, took = [], []
        for seed in seeds:
            result, info, secs = one_run(workload, seed, seconds, 0)
            runs.append(result)
            took.append(secs)
            baseline["context"] = info["context"]
            print(f"{workload} seed {seed}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {secs:.1f} s", flush=True)
        table = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3.0
            ok = spread <= limit or name == "setup_s"
            steady = steady and ok and all(r["correct"] for r in runs)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"  {name:16s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"(third of bound {limit:.4f}) {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        table["run_wall_s"] = {"median": statistics.median(took), "max": max(took)}
        table["seeds"] = seeds
        baseline["end_to_end"][workload] = table

        traced = [one_run(workload, seeds[0], seconds, 1)[0] for _ in range(args.traced)]
        if traced:
            per_layer = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            same = all(t["metrics"][k]["value"] == per_layer[k]
                       for t in traced[1:] for k in EXACT_COUNTS if k in per_layer)
            steady = steady and same and all(t["correct"] for t in traced)
            print(f"  traced runs: exact counts {'repeat' if same else 'DIFFER'}", flush=True)
            baseline["per_layer"][workload] = {
                k: {"value": v, "unit": traced[0]["metrics"][k]["unit"]}
                for k, v in per_layer.items()}

    if args.baseline:
        with open(path, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
