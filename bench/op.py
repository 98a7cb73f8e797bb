"""One benchmark operation in a fresh process.

    python3 bench/op.py --workload NAME --init-seed K --workdir DIR
                        --result FILE [--trace 0|1] [--ra-scale X] [--pert-scale X]

Measures the cold set-up (`runner.build_stepper` plus
`stepper.state_from_fields`), then runs the operation's `rbns simulate`
calls through `rbns.cli.main` and times them.  It checks what a user can
check from the output (exit status, finite fields, the diagnostics CSV, the
maximum principle, the energy-balance residual) and returns the values that
`run.py` compares with the recorded references.  Writes one JSON result,
plus the spans when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Acceptance-suite tolerances the outputs are held to.
MAX_PRINCIPLE_TOL = 1e-3      # tests/test_solver.py maximum-principle test
ENERGY_RESIDUAL_MAX = 1e-3    # acceptance criterion 5


def import_rbns():
    """Import rbns from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rbns", "__init__.py")):
        raise SystemExit(f"bench: no rbns sources under {SRC}")
    sys.path.insert(0, SRC)
    import rbns

    if not os.path.abspath(rbns.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported rbns from {rbns.__file__}, not {SRC}")
    return rbns


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy loaded, or 0 if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return 0
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return 0


def _rms(a) -> float:
    import numpy as np

    return float(np.sqrt(np.mean(np.square(a))))


def check_call(rc: int, result, out_dir: str, bound_energy: bool,
               resumed: bool) -> tuple[list[str], dict]:
    """Checks on one simulate call; returns (failures, values for the references).

    A resumed call's averages cover only the resumed segment, so its
    averaged nu_flux is not a reference value; its final state is.
    """
    import numpy as np
    from rbns.diagnostics import CSV_HEADER
    from rbns.runner import read_summary

    if rc != 0:
        return [f"simulate exited with code {rc}"], {}
    if result is None:
        return ["simulate returned without a run result"], {}
    fails = []
    if result.aborted:
        fails.append(f"aborted: {result.abort_reason}")
    st = result.final_state
    for name in ("omega", "psi", "temp", "u1", "u2"):
        if not np.isfinite(getattr(st, name)).all():
            fails.append(f"final {name} not finite")
    lo, hi = -MAX_PRINCIPLE_TOL, 1.0 + MAX_PRINCIPLE_TOL
    if not (lo <= float(np.min(st.temp)) and float(np.max(st.temp)) <= hi):
        fails.append("final temperature outside the maximum-principle band")

    with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        fails.append("diagnostics.csv header differs from CSV_HEADER")
    else:
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(result.recorder.records):
            fails.append(f"diagnostics.csv has {len(rows)} rows for "
                         f"{len(result.recorder.records)} samples")
        cols = CSV_HEADER.split(",")
        i_min, i_max = cols.index("temp_min"), cols.index("temp_max")
        if any(float(r[i_min]) < lo or float(r[i_max]) > hi for r in rows):
            fails.append("sampled temperature outside the maximum-principle band")

    values = {"omega_rms": _rms(st.omega), "psi_rms": _rms(st.psi), "temp_rms": _rms(st.temp)}
    if not resumed:
        values["nu_flux"] = float(result.averages.get("nu_flux", math.nan))
    e_res = read_summary(os.path.join(out_dir, "run_summary.txt")).get("energy_residual_mean")
    if not isinstance(e_res, float):
        fails.append(f"energy_residual_mean missing from run_summary.txt ({e_res!r})")
    elif not bound_energy:
        values["energy_residual_mean"] = e_res
    elif not e_res <= ENERGY_RESIDUAL_MAX:
        fails.append(f"energy_residual_mean {e_res} above {ENERGY_RESIDUAL_MAX}")
    return fails, values


def last_periodic_checkpoint(out_dir: str) -> str:
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    names = sorted(n for n in os.listdir(ckpt_dir) if n.startswith("checkpoint_"))
    if not names:
        raise SystemExit(f"bench: no periodic checkpoint in {ckpt_dir}")
    return os.path.join(ckpt_dir, names[-1])


def run_op(args) -> dict:
    import_rbns()
    import rbns.cli
    import rbns.runner
    from rbns.config import parse_config
    from workloads import calls, config_text, energy_bound

    captured = []
    simulate = rbns.cli.run_simulation

    def capture(*a, **kw):
        captured.append(simulate(*a, **kw))
        return captured[-1]

    rbns.cli.run_simulation = capture

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.init_seed)
        tracer.install()

    plan = calls(args.workload)
    texts = [config_text(args.workload, args.init_seed, c["t_end"],
                         ra_scale=args.ra_scale, pert_scale=args.pert_scale) for c in plan]
    cfg_paths = []
    for i, text in enumerate(texts):
        path = os.path.join(args.workdir, f"call{i}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        cfg_paths.append(path)

    # cold set-up, as the first run of a fresh process pays it
    config = parse_config(texts[0])
    t0 = time.perf_counter()
    stepper = rbns.runner.build_stepper(config)
    state = stepper.state_from_fields(rbns.runner.initial_temperature(config, stepper.grid),
                                      rbns.runner.initial_stream_function(config, stepper.grid))
    setup_s = time.perf_counter() - t0
    del stepper, state

    rcs, results, out_dirs = [], [], []
    log_path = os.path.join(args.workdir, "simulate.log")
    with open(log_path, "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        c0 = time.process_time()
        t0 = time.perf_counter()
        for i, c in enumerate(plan):
            out = os.path.join(args.workdir, f"out{i}")
            argv = ["simulate", "--config", cfg_paths[i], "--output", out]
            if c["resume"]:
                argv += ["--resume", last_periodic_checkpoint(out_dirs[-1])]
            captured.clear()
            rcs.append(rbns.cli.main(argv))
            results.append(captured[-1] if captured else None)
            out_dirs.append(out)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0

    if tracer is not None:
        tracer.uninstall()
    rbns.cli.run_simulation = simulate
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, values = [], []
    for i, (rc, res, out) in enumerate(zip(rcs, results, out_dirs)):
        fails, vals = check_call(rc, res, out, energy_bound(args.workload), plan[i]["resume"])
        failures += [f"call {i}: {f}" for f in fails]
        values.append(vals)
    steps = sum(r.steps_taken for r in results if r is not None)

    doc = {
        "workload": args.workload, "init_seed": args.init_seed, "trace": args.trace,
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "steps": steps,
        "rss_mb": rss_mb, "blas_threads": blas_threads(),
        "failures": failures, "values": values,
    }
    if tracer is not None:
        doc["missing_wraps"] = tracer.missing
        doc["spans"] = tracer.spans
    return doc


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--init-seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ra-scale", type=float, default=1.0)
    p.add_argument("--pert-scale", type=float, default=1.0)
    args = p.parse_args()
    doc = run_op(args)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
