"""Run orchestration: initial data, time loop, sampling, checkpoints, outputs.

A run is deterministic given its config: the initial perturbation is drawn
from a seeded generator, automatic time steps are pure functions of the
state, and a checkpoint is a restart point: at every checkpoint instant the
run goes on from the state that a resume builds from the written fields
(its velocity from psi, no multistep history), so a run resumed from a
checkpoint reproduces the original trajectory bit for bit.

Every output directory receives the verbatim config, the effective
(defaults-filled) config, a provenance block (version, grid and metric
summary), the diagnostics CSV, the run summary and checkpoints, each
written through ``rbns.files.atomic_open``.

The seeded generator is rbns.rng: PCG64, SeedSequence and ziggurat in pure
Python, bit-identical to numpy's ``default_rng(seed).standard_normal``, so no
run imports numpy's random package (6 MB of memory, 10-20 ms of set-up).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

import rbns
from rbns.background import BackgroundField
from rbns.checkpoint import CheckpointData, read_checkpoint, write_checkpoint
from rbns.config import RunConfig, serialize_config, validate_config
from rbns.diagnostics import Recorder, measure, velocity_gradient_integrals
from rbns.elliptic import EllipticError
from rbns.files import atomic_open
from rbns.geometry import (
    CONDITION_SAMPLES,
    BoundaryNorms,
    ConditionReport,
    boundary_frames,
    boundary_norms,
    check_conditions,
)
from rbns.grid import MappedGrid, wall_tangential_velocity
from rbns.rng import standard_normals
from rbns.solver import (
    BoussinesqStepper,
    CflViolation,
    FlowState,
    PhysicalParams,
    StateDerivatives,
    field_derivatives,
    velocity_gradients,
)


# the exact T stays in [0, 1]; a sample outside by more aborts the run as unstable
TEMP_EXCURSION_TOL = 1e-3


@dataclass
class RunResult:
    recorder: Recorder
    norms: BoundaryNorms                    # conditions_for_config(config), evaluated once
    conditions: dict[str, ConditionReport]
    final_state: FlowState | None = None    # set when the run ends
    aborted: bool = False
    abort_reason: str = ""
    checkpoints: list[str] = field(default_factory=list)
    averages: dict = field(default_factory=dict)
    steps_taken: int = 0


def initial_temperature(config: RunConfig, grid: MappedGrid) -> np.ndarray:
    """Conduction profile plus a seeded band-limited perturbation.

    The perturbation is amplitude * sin(pi x2) * f(x1) with f a random-phase
    combination of the four lowest modes normalized to unit sup; the result
    is clipped to [0,1] so the maximum principle applies from the start.
    The sine envelope vanishes on the walls only to rounding (sin(pi) is
    1.2e-16), so the wall rows are then set to the exact data 1 and 0.
    The 8 coefficients are numpy's ``default_rng(seed).standard_normal(8)``, drawn by rbns.rng.
    """
    temp = np.broadcast_to(1.0 - grid.x2, grid.shape).copy()
    amp = config.initial.temp_perturbation
    if amp > 0.0:
        coeffs = standard_normals(config.initial.seed, 8)
        f = np.zeros(grid.n1)
        for k in range(1, 5):
            a, b = coeffs[2 * k - 2:2 * k]
            f += a * np.cos(2.0 * np.pi * k * grid.x1 / grid.gamma)
            f += b * np.sin(2.0 * np.pi * k * grid.x1 / grid.gamma)
        sup = np.max(np.abs(f))
        if sup > 0.0:
            f /= sup
        temp += amp * f[:, None] * np.sin(np.pi * grid.x2)[None, :]
        np.clip(temp, 0.0, 1.0, out=temp)
        temp[:, 0], temp[:, -1] = 1.0, 0.0
    return temp


def initial_stream_function(config: RunConfig, grid: MappedGrid) -> np.ndarray | None:
    ini = config.initial
    if ini.u0_amplitude == 0.0:
        return None
    phase = 2.0 * np.pi * ini.u0_mode * (grid.x1 / grid.gamma) + ini.u0_phase
    return (ini.u0_amplitude * np.sin(phase)[:, None]
            * np.sin(np.pi * grid.x2)[None, :] ** 2)


def build_stepper(config: RunConfig) -> BoussinesqStepper:
    profile = config.geometry.profile()
    grid = MappedGrid(profile, config.grid.n1, config.grid.n2)
    walls = boundary_frames(profile, grid.n1, *config.boundary.series(profile.gamma))
    params = PhysicalParams(ra=config.physical.ra, pr=config.physical.pr)
    t = config.time
    return BoussinesqStepper(
        grid, params, walls,
        coupling_sweeps=t.coupling_sweeps, coupling_tol=t.coupling_tol,
        cfl_safety=t.cfl_safety, buoyancy_safety=t.buoyancy_safety,
    )


def conditions_for_config(config: RunConfig, n_samples: int = CONDITION_SAMPLES
                          ) -> tuple[BoundaryNorms, dict[str, ConditionReport]]:
    """Wall norms and all three condition checks, from frames at n_samples points per wall.

    The one source of both for a run's summary, its bound report (a run
    hands them over in its RunResult) and ``rbns geometry-report``.
    """
    profile = config.geometry.profile()
    walls = boundary_frames(profile, n_samples, *config.boundary.series(profile.gamma))
    return boundary_norms(profile, walls), check_conditions(walls)


def _state_from_checkpoint(stepper: BoussinesqStepper, data: CheckpointData) -> FlowState:
    u1, u2, _ = stepper._velocity(data.psi)
    return FlowState(time=data.time, omega=data.omega, psi=data.psi, temp=data.temp,
                     u1=u1, u2=u2, psi_top=data.psi_top,
                     u_tau=wall_tangential_velocity(u1, u2, stepper.grid))


def _checkpoint_payload(config: RunConfig, state: FlowState) -> CheckpointData:
    profile = config.geometry.profile()
    a_bot, a_top = config.boundary.series(profile.gamma)
    return CheckpointData(
        n1=config.grid.n1, n2=config.grid.n2, gamma=profile.gamma,
        ra=config.physical.ra, pr=config.physical.pr, time=state.time,
        profile=profile, alpha_bottom=a_bot, alpha_top=a_top,
        omega=state.omega, psi=state.psi, temp=state.temp,
    )


def _check_resume_compatible(config: RunConfig, data: CheckpointData) -> None:
    profile = config.geometry.profile()
    a_bot, a_top = config.boundary.series(profile.gamma)
    mismatches = []
    if (data.n1, data.n2) != (config.grid.n1, config.grid.n2):
        mismatches.append(f"grid {data.n1}x{data.n2} != {config.grid.n1}x{config.grid.n2}")
    if data.gamma != profile.gamma:
        mismatches.append("gamma differs")
    if (data.ra, data.pr) != (config.physical.ra, config.physical.pr):
        mismatches.append("ra/pr differ")
    if data.profile != profile or data.alpha_bottom != a_bot or data.alpha_top != a_top:
        mismatches.append("boundary series differ")
    if mismatches:
        raise ValueError("checkpoint incompatible with config: " + "; ".join(mismatches))


def provenance_text(config: RunConfig, grid: MappedGrid) -> str:
    hp = grid.hp
    lines = [
        f"tool_version = rbns {rbns.__version__}",
        f"grid = {grid.n1} x {grid.n2}",
        f"gamma = {grid.gamma!r}",
        f"dx1 = {grid.dx1!r}",
        f"dx2 = {grid.dx2!r}",
        f"hprime_max = {float(np.max(np.abs(hp)))!r}",
        f"metric_a22_min = {float(np.min(grid.a22))!r}",
        f"metric_a22_max = {float(np.max(grid.a22))!r}",
        f"flat = {int(grid.is_flat)}",
        f"metric_fourier_terms = {grid.metric_fourier_terms}",
    ]
    return "\n".join(lines) + "\n"


def run_simulation(config: RunConfig, output_dir: str | None = None,
                   resume: str | None = None,
                   config_text: str | None = None) -> RunResult:
    """Time-step from t=0 (or a checkpoint) to t_end, sampling diagnostics.

    NaN detection, a sampled T outside [0, 1], a rejected step or a failed
    elliptic solve aborts the run; the last written checkpoint is retained
    and everything sampled so far is still flushed to the CSV.  The config
    is validated first (ConfigError, stiffness warning), also when built in code.
    """
    validate_config(config)
    stepper = build_stepper(config)
    grid = stepper.grid
    norms, conditions = conditions_for_config(config)

    tcfg = config.time
    sample_dt = tcfg.effective_sample_interval()
    burn_in = tcfg.effective_burn_in()
    background = None
    if config.bounds.background_delta is not None:
        background = BackgroundField(config.bounds.background_delta, grid)
    recorder = Recorder(burn_in=burn_in, pr=config.physical.pr, area=grid.area,
                        height_range=norms.height_range, ra=config.physical.ra,
                        is_flat=grid.is_flat,
                        grad_eta_sq=background.grad_eta_sq_avg if background else None)

    if resume is not None:
        data = read_checkpoint(resume)
        _check_resume_compatible(config, data)
        state = _state_from_checkpoint(stepper, data)
        del data                            # its fields are the state's, released with it
    else:
        state = stepper.state_from_fields(
            initial_temperature(config, grid),
            initial_stream_function(config, grid),
        )

    out = None
    ckpt_dir = None
    if output_dir is not None:
        out = output_dir
        os.makedirs(out, exist_ok=True)
        ckpt_dir = os.path.join(out, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        texts = {"config.txt": config_text, "effective_config.txt": serialize_config(config),
                 "provenance.txt": provenance_text(config, grid)}
        for name, text in texts.items():
            if text is not None:
                with atomic_open(os.path.join(out, name)) as fh:
                    fh.write(text)

    # holds no state until the end, so each state is freed once the run moves on
    result = RunResult(recorder=recorder, norms=norms, conditions=conditions)

    def take_sample(st: FlowState, index: int) -> tuple[StateDerivatives | None, str]:
        """Record one sample; returns the state's derivative set and why the run must stop, or "".

        grad T (the pressure right-hand side reads dT/dy2) and grad u come before
        the pressure solve, grad omega after it; the solve gives the pressure's
        wall traces, all that measure reads of it.  A failed pressure solve
        still records the sample, without pressure.
        """
        if not (np.isfinite(st.omega).all() and np.isfinite(st.temp).all()):
            return None, f"non-finite fields at t = {st.time:.6g}"
        derivs = StateDerivatives(None, None)
        derivs.grad_temp, derivs.temp_spectrum = field_derivatives(st.temp, grid)
        derivs.grad_u = velocity_gradients(st, grid)
        grad_u_sq = velocity_gradient_integrals(derivs.grad_u, grid)
        pressure, defect, abort = None, float("nan"), ""
        if config.output.pressure_every > 0 and index % config.output.pressure_every == 0:
            try:
                pressure, info = stepper.recover_pressure(st, derivs)
                defect = info.compat_defect
            except EllipticError as exc:
                abort = f"pressure solve failed at t = {st.time:.6g}: {exc}"
        derivs.grad_u = None
        derivs.grad_omega, derivs.omega_spectrum = field_derivatives(st.omega, grid)
        row = measure(st, grid, stepper.walls,
                      config.physical.pr, config.physical.ra, derivs, grad_u_sq,
                      pressure=pressure, pressure_defect=defect, background=background)
        recorder.add(row)
        st.u2_spectrum = None               # read by velocity_gradients only
        if not (np.isfinite(row["energy"]) and np.isfinite(row["nu_gradsq"])):
            return derivs, f"non-finite fields at t = {st.time:.6g}"
        excursion = max(-row["temp_min"], row["temp_max"] - 1.0)
        if excursion > TEMP_EXCURSION_TOL:
            return derivs, (f"temperature outside [0, 1] by {excursion:.3g} at t = {st.time:.6g}: "
                            f"the step is unstable (cfl_safety = {tcfg.cfl_safety:g}, "
                            f"buoyancy_safety = {tcfg.buoyancy_safety:g})")
        return derivs, abort

    def write_ckpt(data: CheckpointData, label: str) -> None:
        if ckpt_dir is None:
            return
        path = os.path.join(ckpt_dir, f"{label}.ckpt")
        write_checkpoint(path, data)
        result.checkpoints.append(path)

    t_end = tcfg.t_end
    sample_count = int(np.floor(state.time / sample_dt + 1e-12)) + 1
    ckpt_count = 1
    if tcfg.checkpoint_interval is not None:
        ckpt_count = int(np.floor(state.time / tcfg.checkpoint_interval + 1e-12)) + 1
    # one derivative set per state: its sample and the step from it share it
    derivs, abort = (take_sample(state, 0) if state.time == 0.0
                     else (stepper.state_derivatives(state), ""))
    while not abort and state.time < t_end - 1e-14:
        limit = stepper.cfl_limit(state)  # sizes dt and checks it, evaluated once
        dt = tcfg.dt if tcfg.dt is not None else stepper.suggest_dt(
            limit, tcfg.dt_max if tcfg.dt_max is not None else np.inf)
        if not np.isfinite(dt):
            dt = sample_dt  # quiescent start at Ra = 0; any finite step works
        dt = min(dt, t_end - state.time)
        try:
            state = stepper.step(state, dt, derivs, cfl_limit=limit)
        except CflViolation as exc:
            if np.isfinite(state.u1).all():
                abort = f"step rejected at t = {state.time:.6g}: {exc}"
            else:
                abort = f"non-finite fields at t = {state.time:.6g}"
            break
        except EllipticError as exc:
            abort = f"step solve failed at t = {state.time:.6g}: {exc}"
            break
        result.steps_taken += 1
        if state.time >= sample_count * sample_dt - 1e-12:
            derivs, abort = take_sample(state, sample_count)
            sample_count += 1
            if abort:
                break
        else:
            derivs = stepper.state_derivatives(state)
        if (tcfg.checkpoint_interval is not None
                and state.time >= ckpt_count * tcfg.checkpoint_interval - 1e-12):
            data = _checkpoint_payload(config, state)
            write_ckpt(data, f"checkpoint_{ckpt_count:06d}")
            # a restart point, also without an output directory: the run goes
            # on from the state a resume builds, so both take the same steps
            state = _state_from_checkpoint(stepper, data)
            del data
            ckpt_count += 1

    result.aborted, result.abort_reason = bool(abort), abort
    result.final_state = state
    if not result.aborted:
        write_ckpt(_checkpoint_payload(config, state), "final")
    recorder.finalize()
    result.averages = recorder.averages()
    if out is not None:
        recorder.write_csv(os.path.join(out, "diagnostics.csv"), precision=config.output.precision)
        _write_summary(os.path.join(out, "run_summary.txt"), config, result)
    return result


def _write_summary(path: str, config: RunConfig, result: RunResult) -> None:
    rec = result.recorder
    lines = {
        "ra": config.physical.ra,
        "pr": config.physical.pr,
        "gamma": config.geometry.gamma,
        "t_end": config.time.t_end,
        "burn_in": rec.burn_in,
        "steps": result.steps_taken,
        "aborted": int(result.aborted),
        "user_c": config.bounds.user_c,
        "user_cbar": config.bounds.user_cbar,
        "u0_norm": config.bounds.u0_norm,
        "background_delta": config.bounds.background_delta,
        "energy_residual_mean": rec.mean_abs_energy_residual(),
        "enstrophy_residual_final": rec.final_enstrophy_residual(),
        "pressure_defect_max": rec.pressure_defect_max(),
        "convective_transport_corrected": rec.convective_transport_corrected(),
        "nusselt_inequality_defect": rec.nusselt_inequality_defect(),
        "energy_inequality_slack_rel": rec.energy_inequality_slack()[0],
        "nu_eta_corrected": rec.nu_eta_corrected(),
    }
    for key, value in result.averages.items():
        lines[f"avg:{key}"] = value
    for key, value in asdict(result.norms).items():
        lines[f"norm:{key}"] = value
    with atomic_open(path) as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in lines.items())


def read_summary(path: str) -> dict:
    """Parse a run_summary.txt back into {key: float-or-string}."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if "=" not in line:
                continue
            key, _, raw = line.partition("=")
            raw = raw.strip()
            try:
                out[key.strip()] = float(raw)
            except ValueError:
                out[key.strip()] = None if raw == "None" else raw
    return out
