"""Record the reference outputs the benchmark's correctness gate compares with.

    python3 bench/record.py [--workloads a,b,...]

For every workload and initial-condition case 0..7 it runs one untraced
operation and stores the checked values of each simulate call in
references.json.  It then calibrates the relative tolerance on case 0 of
each workload: the tolerance must pass a run whose `temp_perturbation` is
scaled by (1 + 1e-12) and fail a run whose Ra is 1% off.  The observed
deviations are stored next to the references; the script exits non-zero
if the tolerance does not separate them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, ROOT, run_op
from workloads import N_CASES, WORKLOADS

REL_TOL = 1e-5
PATH = os.path.join(HERE, "references.json")


def max_rel_dev(values: list[dict], refs: list[dict]) -> float:
    return max(abs(got[k] - want[k]) / abs(want[k])
               for got, want in zip(values, refs) for k in want)


def checked(op: dict, what: str) -> list[dict]:
    if op["failures"]:
        raise SystemExit(f"{what}: {op['failures']}")
    return op["values"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    names = args.workloads.split(",")

    doc = {"rel_tol": REL_TOL, "cases": {}, "calibration": {}}
    if os.path.isfile(PATH):
        with open(PATH) as fh:
            doc.update(json.load(fh))
        doc["rel_tol"] = REL_TOL
    workdir = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(workdir)
    ok = True
    try:
        index = 0
        for name in names:
            cases = {}
            for case in range(N_CASES):
                op = run_op(workdir, index, name, case, "plain", timeout=600.0)
                index += 1
                cases[str(case)] = checked(op, f"{name} case {case}")
                print(f"{name} case {case}: steps {op['steps']}, wall {op['wall_s']:.3f} s",
                      flush=True)
            doc["cases"][name] = cases
            devs = {}
            for label, env in (("temp_perturbation x (1 + 1e-12)", {"pert_scale": 1 + 1e-12}),
                               ("ra x 1.01", {"ra_scale": 1.01})):
                op = run_op(workdir, index, name, 0, "plain", timeout=600.0, **env)
                index += 1
                devs[label] = max_rel_dev(checked(op, f"{name} {label}"), cases["0"])
            passes = devs["temp_perturbation x (1 + 1e-12)"] <= REL_TOL
            fails = devs["ra x 1.01"] > REL_TOL
            ok = ok and passes and fails
            doc["calibration"][name] = {"max_rel_dev": devs, "separates": passes and fails}
            print(f"{name}: max relative deviation {devs}; tolerance {REL_TOL:g} "
                  f"{'separates them' if passes and fails else 'DOES NOT separate them'}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
