"""Self-test of the benchmark on the tiny config (a few seconds).

    python3 bench/selftest.py

Checks that every metric is printed by name with its unit, that traced
spans nest (children inside their parent, no negative self time), that two
traced operations give identical counts, that the reference gate rejects a
1% deviation, and that the benchmark refuses to run without the rbns
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import END_TO_END_UNITS, HERE, ROOT, TRACE_EXTRA_UNITS, load_references, \
    reference_failures, run_op
from spans import EXACT_COUNTS, LAYER_UNITS, check_nesting, layer_metrics

RESULTS: list[bool] = []


def report(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def bench(cwd: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", "tiny",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed(trace: int, units: dict) -> None:
    proc = bench(ROOT, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report(False, f"--trace {trace}: last line is the JSON result ({proc.stderr[-300:]})")
        return
    report(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
           f"--trace {trace}: exit 0 and result keys")
    report(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"--trace {trace}: {result['attempted']} operations, all correct")
    metrics = result["metrics"]
    missing = [n for n in units if metrics.get(n, {}).get("unit") != units[n]]
    report(not missing and set(metrics) == set(units),
           f"--trace {trace}: every metric in the result with its unit {missing or ''}")
    shown = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    unshown = [n for n in units if shown.get(n) != units[n]]
    report(not unshown, f"--trace {trace}: every metric printed by name with its unit "
                        f"{unshown or ''}")


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = [run_op(workdir, i, "tiny", 1, "traced", timeout=120.0) for i in range(2)]
        report(all(not op["failures"] for op in ops), "two traced tiny operations pass the checks")
        for i, op in enumerate(ops):
            problems = check_nesting(op["spans"])
            report(not problems, f"traced op {i}: {len(op['spans'])} spans nest, self times >= 0 "
                                 f"{problems[:2] or ''}")
        counts = [layer_metrics([op["spans"]]) for op in ops]
        differ = [k for k in EXACT_COUNTS if counts[0][k] != counts[1][k]]
        report(not differ, f"two traced runs give identical counts {differ or ''}")
        report(set(counts[0]) == set(LAYER_UNITS), "every per-layer metric computed")

        refs = load_references()
        values = ops[0]["values"]
        report(not reference_failures(refs, "tiny", 1, values), "outputs match the references")
        off = [{k: v * 1.01 for k, v in call.items()} for call in values]
        report(bool(reference_failures(refs, "tiny", 1, off)), "a 1% deviation fails the gate")

        check_printed(0, END_TO_END_UNITS)
        check_printed(1, {**LAYER_UNITS, **TRACE_EXTRA_UNITS})

        bare = os.path.join(workdir, "bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, 0)
        report(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without src/rbns: exit code {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
