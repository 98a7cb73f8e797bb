"""Benchmark workloads: one generated `rbns simulate` config per operation.

An operation is one configured simulation run to `t_end` (two `simulate`
calls for `sampled_restart`).  The benchmark's `--seed` picks the initial
perturbation of each operation: operation i of a run uses
`initial.seed = (seed + i) % N_CASES`, one of the cases whose reference
outputs `record.py` stored in `references.json`.  The program itself only
ever sees the generated config file.
"""

from __future__ import annotations

N_CASES = 8

# Section -> key -> value, in the program's own INI config format.  Values
# not listed keep the program's defaults (Navier-slip alpha = 1 on both
# walls, gamma = 1, 17-digit CSV output).
#
# "energy_bound": the workload samples like the acceptance flat fixture
# (flat walls, one sample per 1e-4 or finer), so energy_residual_mean is held
# to the acceptance bound.  Elsewhere the sampled d/dt does not resolve the
# transient and the residual is compared with its recorded value instead.
WORKLOADS: dict[str, dict] = {
    "flat_convect": {
        "why": "flat direct solves dominate; auto dt changes every step so the "
               "Helmholtz factor cache misses; no PCG work",
        "config": {
            "physical": {"ra": 1e5, "pr": 10.0},
            "grid": {"n1": 128, "n2": 129},
            # The initial stream function puts the run in the CFL-limited
            # regime from the first step, so the step count depends little
            # on the seeded temperature perturbation (so in flat_large).
            "time": {"t_end": 0.005, "sample_interval": 1e-4},
            "initial": {"temp_perturbation": 0.01, "u0_amplitude": 10.0},
            "bounds": {"background_delta": 0.125},
            "output": {"pressure_every": 10},
        },
        "energy_bound": True,
    },
    "rough_pcg": {
        "why": "rough wall h = 0.1 sin(2 pi y1): PCG iterations of the psi, "
               "temperature, vorticity and Neumann solves dominate the step",
        "config": {
            "geometry": {"modes": "1:0.0:0.1"},
            "physical": {"ra": 1e4, "pr": 10.0},
            "grid": {"n1": 128, "n2": 129},
            "time": {"t_end": 0.0025, "sample_interval": 2.5e-4},
            "initial": {"temp_perturbation": 0.01},
            "output": {"pressure_every": 10},
        },
    },
    "sampled_restart": {
        "why": "one sample with pressure per step plus periodic checkpoints; a "
               "second simulate resumes from the midpoint checkpoint: diagnostics "
               "and I/O dominate",
        "config": {
            "physical": {"ra": 1e4, "pr": 10.0},
            "grid": {"n1": 64, "n2": 65},
            "time": {"dt": 1e-4, "t_end": 0.04, "burn_in": 0.01,
                     "sample_interval": 1e-4, "checkpoint_interval": 0.005},
            "initial": {"temp_perturbation": 0.01},
            "bounds": {"background_delta": 0.125},
            "output": {"pressure_every": 1},
        },
        "energy_bound": True,
        # The first call stops at the midpoint; the second resumes from the
        # periodic checkpoint written there and runs to t_end.
        "restart_at": 0.02,
    },
    "flat_large": {
        "why": "512 x 513 flat grid: the large side of the x2 solver choice; "
               "2 MB fields, set-up time and memory show",
        "config": {
            "physical": {"ra": 1e5, "pr": 10.0},
            "grid": {"n1": 512, "n2": 513},
            "time": {"t_end": 3e-4, "sample_interval": 7.5e-5},
            "initial": {"temp_perturbation": 0.01, "u0_amplitude": 10.0},
            "output": {"pressure_every": 2},
        },
    },
    # Not a benchmark workload: the self-test's tiny config.
    "tiny": {
        "why": "self-test only",
        "config": {
            "geometry": {"modes": "1:0.0:0.05"},
            "physical": {"ra": 1e4, "pr": 10.0},
            "grid": {"n1": 16, "n2": 17},
            "time": {"dt": 2e-4, "t_end": 0.004, "burn_in": 0.001,
                     "sample_interval": 4e-4, "checkpoint_interval": 0.001},
            "initial": {"temp_perturbation": 0.01},
            "bounds": {"background_delta": 0.125},
            "output": {"pressure_every": 2},
        },
        "restart_at": 0.002,
    },
}

# The workloads BENCHMARK.json lists.  Between them they run every layer:
# PCG and the factor cache misses of auto dt (rough_pcg), direct flat solves,
# diagnostics and checkpoint reads and writes (sampled_restart).
# flat_convect and flat_large stay runnable by hand: on a noisy 2-core host
# only two workloads leave each run long enough (BENCHMARK.json run_seconds)
# to be steady within the benchmark's total time budget.
BENCH_WORKLOADS = ["rough_pcg", "sampled_restart"]


def initial_seed(seed: int, op_index: int) -> int:
    return (seed + op_index) % N_CASES


def config_text(name: str, init_seed: int, t_end: float | None = None,
                ra_scale: float = 1.0, pert_scale: float = 1.0) -> str:
    """INI text of one simulate call of workload `name`.

    `ra_scale` and `pert_scale` exist only for the correctness-tolerance
    calibration in record.py.
    """
    sections = {sec: dict(keys) for sec, keys in WORKLOADS[name]["config"].items()}
    sections.setdefault("initial", {})["seed"] = init_seed
    sections["initial"]["temp_perturbation"] = (
        sections["initial"].get("temp_perturbation", 0.01) * pert_scale)
    sections["physical"]["ra"] = sections["physical"]["ra"] * ra_scale
    if t_end is not None:
        sections["time"]["t_end"] = t_end
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def energy_bound(name: str) -> bool:
    return WORKLOADS[name].get("energy_bound", False)


def calls(name: str) -> list[dict]:
    """The simulate calls of one operation: t_end override and resume flag."""
    restart = WORKLOADS[name].get("restart_at")
    if restart is None:
        return [{"t_end": None, "resume": False}]
    return [{"t_end": restart, "resume": False}, {"t_end": None, "resume": True}]


# Which end-to-end metric each layer's metrics should move, on which
# workload, and where the prediction is no change.
PREDICTIONS = {
    "runner": [
        {"metrics": ["runner.build_stepper_ms"], "moves": ["setup_s"],
         "workloads": [*BENCH_WORKLOADS, "flat_convect", "flat_large"],
         "most": "flat_large"},
    ],
    "solver": [
        {"metrics": ["solver.step_self_ms", "solver.step_ms_p50"], "moves": ["steps_per_s", "wall_s"],
         "workloads": ["flat_convect", "flat_large"]},
        {"metrics": ["solver.pressure_self_ms"], "moves": ["wall_s"],
         "workloads": ["sampled_restart"]},
    ],
    "elliptic": [
        {"metrics": ["elliptic.temp_ms", "elliptic.omega_ms", "elliptic.psi_ms",
                     "elliptic.factor_count", "elliptic.factor_ms", "elliptic.factor_reuse"],
         "moves": ["steps_per_s", "wall_s"], "workloads": ["flat_convect", "flat_large"],
         "unchanged": {"sampled_restart": "fixed dt: the factor cache always hits"}},
        {"metrics": ["elliptic.temp_iters", "elliptic.omega_iters", "elliptic.psi_iters"],
         "moves": ["wall_s", "cpu_s"], "workloads": ["rough_pcg"],
         "unchanged": {"flat_convect": "flat solves are direct",
                       "flat_large": "flat solves are direct"}},
        {"metrics": ["elliptic.neumann_ms", "elliptic.neumann_iters"], "moves": ["wall_s"],
         "workloads": ["sampled_restart", "rough_pcg"]},
    ],
    "grid": [
        {"metrics": ["grid.fft_deriv_calls_per_step"], "moves": ["steps_per_s"],
         "workloads": ["flat_convect", "flat_large"]},
        {"metrics": ["grid.fft_deriv_calls_per_sample"], "moves": ["wall_s"],
         "workloads": ["sampled_restart"]},
    ],
    "diagnostics": [
        {"metrics": ["diagnostics.measure_ms", "diagnostics.finalize_ms",
                     "diagnostics.write_csv_ms", "diagnostics.csv_bytes"],
         "moves": ["wall_s"], "workloads": ["sampled_restart"],
         "unchanged": {"flat_convect": "diagnostics are under 6% of it",
                       "rough_pcg": "solves dominate"}},
    ],
    "checkpoint": [
        {"metrics": ["checkpoint.write_ms", "checkpoint.read_ms", "checkpoint.bytes"],
         "moves": ["wall_s"], "workloads": ["sampled_restart"],
         "unchanged": {"flat_convect": "one final checkpoint per run",
                       "rough_pcg": "one final checkpoint per run"}},
    ],
    "reporting": [
        {"metrics": ["reporting.report_ms"], "moves": ["wall_s"],
         "workloads": ["sampled_restart"], "note": "two reports per operation; small"},
    ],
}
