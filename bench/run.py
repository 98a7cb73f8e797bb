"""rbns benchmark: time to solution of configured `rbns simulate` runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: operations run one at a time, each in a fresh
process (bench/op.py) with BLAS threads capped at nproc, until S seconds
have passed.  Operation i uses initial-condition case (N + i) % 8.  Every
operation is checked (bench/op.py checks, plus the recorded references in
references.json); a failed check counts as a failed operation.

--trace 0 reports the end-to-end metrics, medians over the operations.
--trace 1 cycles an untraced, a traced and a single-threaded
(OPENBLAS_NUM_THREADS=1) operation of case N % 8 and reports the
per-layer metrics of the traced ones, the tracing overhead and the
single-threaded reference.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from spans import EXACT_COUNTS, LAYER_UNITS, check_nesting, layer_metrics  # noqa: E402
from workloads import WORKLOADS, initial_seed  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HARD_STOP_S = 150.0   # start no operation after this; the run must end by 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}

TRACE_EXTRA_UNITS = {
    "trace.overhead_frac": "ratio",
    "single_thread.wall_s": "s",
    "single_thread.cpu_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int | None = None) -> dict:
    """Environment of an operation: BLAS threads capped at nproc, or `threads`."""
    env = dict(os.environ)
    cap = nproc()
    for key in BLAS_ENV:
        if threads is not None:
            env[key] = str(threads)
        else:
            try:
                wanted = int(env[key])
            except (KeyError, ValueError):
                wanted = cap
            env[key] = str(min(max(wanted, 1), cap))
    return env


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def reference_failures(refs: dict, workload: str, init_seed: int, values: list) -> list[str]:
    """Relative deviations from the recorded outputs above the tolerance."""
    tol = refs["rel_tol"]
    case = refs["cases"].get(workload, {}).get(str(init_seed))
    if case is None:
        return [f"no reference for {workload} case {init_seed}"]
    fails = []
    for i, (got, want) in enumerate(zip(values, case)):
        for key, ref in want.items():
            val = got.get(key)
            if val is None:
                fails.append(f"call {i}: {key} missing")
            elif not abs(val - ref) <= tol * abs(ref):
                fails.append(f"call {i}: {key} = {val!r}, reference {ref!r} "
                             f"(rel {abs(val - ref) / abs(ref):.2e} > {tol:g})")
    return fails


def run_op(workdir: str, index: int, workload: str, init_seed: int, kind: str,
           timeout: float, ra_scale: float = 1.0, pert_scale: float = 1.0) -> dict:
    """One operation in a fresh process; returns its result with `failures` filled.

    `ra_scale` and `pert_scale` perturb the config for record.py's tolerance
    calibration only.
    """
    opdir = os.path.join(workdir, f"op{index:03d}")
    os.makedirs(opdir)
    result = os.path.join(opdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "op.py"), "--workload", workload,
           "--init-seed", str(init_seed), "--workdir", opdir, "--result", result,
           "--trace", "1" if kind == "traced" else "0",
           "--ra-scale", repr(ra_scale), "--pert-scale", repr(pert_scale)]
    env = child_env(1 if kind == "single" else None)
    log_path = os.path.join(opdir, "op.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = None
    doc = {"kind": kind, "init_seed": init_seed, "failures": []}
    if rc == 0 and os.path.isfile(result):
        with open(result) as fh:
            doc.update(json.load(fh))
    else:
        with open(log_path) as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        doc["failures"] = ["timed out" if rc is None else f"op.py exited with {rc}: {tail[0]}"]
    shutil.rmtree(opdir, ignore_errors=True)
    doc["kind"] = kind
    return doc


def context(ops: list[dict]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": sorted({op["blas_threads"] for op in ops if "blas_threads" in op}),
        "blas_thread_cap": nproc(),
        "nproc": nproc(),
    }


def fast(values) -> float:
    """10th percentile (nearest rank, rounded down): the time of the run's
    least disturbed operations.  On a shared host, neighbours slow every core
    by up to 1.6x in phases of seconds to minutes; a median over a run follows
    those phases, the fast tail much less."""
    ordered = sorted(values)
    return ordered[len(ordered) // 10]


def end_to_end(ops: list[dict], failed: int) -> dict:
    """Metrics over the operations that passed (over all, if none did)."""
    good = [op for op in ops if not op["failures"]] or [op for op in ops if "wall_s" in op]
    if not good:
        return {}
    return {
        "setup_s": statistics.median(op["setup_s"] for op in good),
        "wall_s": fast(op["wall_s"] for op in good),
        "cpu_s": fast(op["cpu_s"] for op in good),
        "steps_per_s": -fast(-op["steps"] / op["wall_s"] for op in good),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
        "completed_frac": (len(ops) - failed) / len(ops),
    }


def traced_metrics(ops: list[dict]) -> dict:
    traced = [op for op in ops if op["kind"] == "traced" and "spans" in op]
    if not traced:
        return {}
    metrics = layer_metrics([op["spans"] for op in traced])
    first = {k: metrics[k] for k in EXACT_COUNTS}
    for op in traced:
        op["failures"] += [f"span nesting: {p}" for p in check_nesting(op["spans"])[:3]]
        again = layer_metrics([op["spans"]])
        diff = [k for k in EXACT_COUNTS if again[k] != first[k]]
        if diff:
            op["failures"].append(f"traced counts differ from the first traced op: {diff}")
    plain = [op["wall_s"] for op in ops if op["kind"] == "plain" and "wall_s" in op]
    wall = [op["wall_s"] for op in traced]
    single = [op for op in ops if op["kind"] == "single" and "wall_s" in op]
    if plain:
        metrics["trace.overhead_frac"] = fast(wall) / fast(plain) - 1.0
    if single:
        metrics["single_thread.wall_s"] = fast(op["wall_s"] for op in single)
        metrics["single_thread.cpu_s"] = fast(op["cpu_s"] for op in single)
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rbns", "__init__.py")):
        print(f"bench: no rbns sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    refs = load_references()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)

    kinds = ("plain", "traced", "single") if args.trace else ("plain",)
    ops: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(ops) >= len(kinds) and (elapsed >= args.seconds or elapsed >= HARD_STOP_S):
                break
            kind = kinds[len(ops) % len(kinds)]
            init = initial_seed(args.seed, 0 if args.trace else len(ops))
            op = run_op(workdir, len(ops), args.workload, init, kind,
                        timeout=max(170.0 - elapsed, 5.0))
            if "values" in op:
                op["failures"] += reference_failures(refs, args.workload, init, op["values"])
            ops.append(op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # traced_metrics adds the span and count checks to the ops' failures
    metrics = traced_metrics(ops) if args.trace else {}
    failed = sum(1 for op in ops if op["failures"])
    if not args.trace:
        metrics = end_to_end(ops, failed)
    units = {**LAYER_UNITS, **TRACE_EXTRA_UNITS} if args.trace else END_TO_END_UNITS

    for i, op in enumerate(ops):
        for msg in op["failures"]:
            print(f"FAILED op {i} ({op['kind']}, case {op['init_seed']}): {msg}")
        for name in op.get("missing_wraps", []):
            print(f"note: op {i}: {name} not found, not traced")
    timed = [op for op in ops if op["kind"] == "plain" and "wall_s" in op]
    print(json.dumps({"context": context(ops), "workload": args.workload,
                      "seed": args.seed, "operations": len(ops),
                      "failed_frac": failed / len(ops), "failed_frac_base": len(ops),
                      "median_wall_s": statistics.median(op["wall_s"] for op in timed)
                      if timed else None}))
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items() if name in metrics}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
