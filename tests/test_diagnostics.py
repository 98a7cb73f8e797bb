from dataclasses import replace

import numpy as np
import pytest

from rbns.config import parse_config
from rbns.diagnostics import (
    AVERAGED,
    CSV_COLUMNS,
    CSV_HEADER,
    ENSTROPHY_COLUMNS,
    STRIP_COLUMNS,
    Recorder,
    measure,
    velocity_gradient_integrals,
)
from rbns.geometry import Side, boundary_frames
from rbns.grid import MappedGrid, d_x1_line, grad_physical
from rbns.runner import run_simulation
from rbns.solver import FlowState, StateDerivatives, velocity_gradients

from reference_diagnostics import (
    enstrophy_balance_terms,
    measure_fields,
    nusselt_flux,
    nusselt_gradsq,
    nusselt_strip,
    tangential_velocity,
)


def conduction_setup(profile, alpha, n1=32, n2=33):
    grid = MappedGrid(profile, n1, n2)
    walls = boundary_frames(profile, n1, alpha)
    temp = np.broadcast_to(1.0 - grid.x2, grid.shape).copy()
    zeros = np.zeros(grid.shape)
    return grid, walls, temp, zeros


def test_nusselt_conduction_flat(flat_profile, alpha_one):
    grid, walls, temp, zeros = conduction_setup(flat_profile, alpha_one)
    assert nusselt_flux(temp, grid) == pytest.approx(1.0, abs=1e-13)
    assert nusselt_gradsq(temp, grid) == pytest.approx(1.0, abs=1e-13)
    for level in (0.25, 0.5, 0.75):
        assert nusselt_strip(temp, zeros, zeros, grid, level) == pytest.approx(1.0, abs=1e-13)
    row = measure_fields(grid, walls, temp)
    for name in ("nu_flux", "nu_gradsq", *STRIP_COLUMNS):
        assert row[name] == pytest.approx(1.0, abs=1e-13)


def test_nusselt_constant_temperature(flat_profile, alpha_one):
    grid, _, _, zeros = conduction_setup(flat_profile, alpha_one)
    temp = np.full(grid.shape, 0.4)
    assert nusselt_flux(temp, grid) == pytest.approx(0.0, abs=1e-13)
    assert nusselt_gradsq(temp, grid) == pytest.approx(0.0, abs=1e-13)


def test_nusselt_conduction_rough(sine_profile, alpha_one):
    # T = 1 - (y2 - h): wall-flux Nusselt is the mean of 1 + h'^2 exactly
    grid, walls, temp, zeros = conduction_setup(sine_profile, alpha_one, n1=64)
    expected = float(np.mean(1.0 + grid.hp**2))
    assert nusselt_flux(temp, grid) == pytest.approx(expected, rel=1e-12)
    assert measure_fields(grid, walls, temp)["nu_flux"] == pytest.approx(expected, rel=1e-12)
    # the level-line representation agrees at the wall level
    assert nusselt_strip(temp, zeros, zeros, grid, 0.0) == pytest.approx(expected, rel=1e-12)


def test_nusselt_gradsq_manufactured(flat_profile):
    # T = sin(2 pi y1) sin(pi y2): int |grad T|^2 = (4 pi^2 + pi^2)/4
    errs = []
    for n2 in (33, 65, 129, 257):
        grid = MappedGrid(flat_profile, 32, n2)
        t = np.sin(2 * np.pi * grid.x1)[:, None] * np.sin(np.pi * grid.x2)[None, :]
        exact = 5 * np.pi**2 / 4
        errs.append(abs(nusselt_gradsq(t, grid) - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[-1] >= 1.9  # asymptotically second order


def test_strip_level_equals_flux_at_wall(sine_profile, alpha_one, rng):
    grid, _, _, _ = conduction_setup(sine_profile, alpha_one, n1=48, n2=49)
    temp = 1.0 - grid.x2[None, :] + 0.05 * rng.standard_normal(grid.shape)
    temp[:, 0], temp[:, -1] = 1.0, 0.0
    zeros = np.zeros(grid.shape)
    # u = 0 so the level-line integrand at the wall is exactly the wall flux
    a = nusselt_strip(temp, zeros, zeros, grid, 0.0)
    b = nusselt_flux(temp, grid)
    assert a == pytest.approx(b, rel=1e-12)


def test_wall_pressure_integration_by_parts(flat_profile, alpha_one, rng):
    # int (a+k) u.grad p dS = -int p d/dlambda((a+k) u_tau) dS on periodic walls
    grid = MappedGrid(flat_profile, 64, 17)
    walls = boundary_frames(flat_profile, 64, alpha_one)
    p = rng.standard_normal(grid.shape)
    u1 = rng.standard_normal(grid.shape)
    u2 = np.zeros(grid.shape)
    total_a = 0.0
    total_b = 0.0
    for side, sgn, j, ak in zip(Side, (1.0, -1.0), (0, -1), walls.alpha + walls.kappa):
        ut = tangential_velocity(u1, u2, grid, side)
        dp = sgn * d_x1_line(p[:, j], grid) / grid.ds_weight
        total_a += walls.line_integral(ak * ut * dp)
        dg = sgn * d_x1_line(ak * ut, grid) / grid.ds_weight
        total_b -= walls.line_integral(p[:, j] * dg)
    assert total_a == pytest.approx(total_b, abs=1e-8 * max(1.0, abs(total_a)))


def test_enstrophy_terms_zero_velocity(flat_profile, alpha_one):
    grid, walls, temp, zeros = conduction_setup(flat_profile, alpha_one)
    terms = enstrophy_balance_terms(zeros, grad_physical(zeros, grid), grad_physical(temp, grid),
                                    np.zeros((2, grid.n1)), zeros, grid, walls, pr=1.0, ra=100.0)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in terms.values())


def _sample(time, **values):
    """A hand-built sample row: every CSV and averaged column 0 unless given."""
    return {**dict.fromkeys((*CSV_COLUMNS, *AVERAGED), 0.0), "time": time, **values}


def test_recorder_constant_and_oscillating_signal():
    rec = Recorder(burn_in=0.0, pr=1.0, area=1.0)
    for t in np.linspace(0, 10, 101):
        rec.add(_sample(t, nu_flux=3.5))
    stat = rec.average("nu_flux")
    assert stat.mean == pytest.approx(3.5)
    assert stat.tail_max == pytest.approx(3.5)

    rec2 = Recorder(burn_in=0.0, pr=1.0, area=1.0)
    ts = np.linspace(0, 50 * 2 * np.pi, 20001)
    for t in ts:
        rec2.add(_sample(t, nu_flux=np.sin(t)))
    stat = rec2.average("nu_flux")
    assert abs(stat.mean) <= 1e-3
    assert stat.tail_max == pytest.approx(1.0, abs=1e-4)


def test_energy_residual_zero_for_rest_state():
    rec = Recorder(burn_in=0.0, pr=2.0, area=1.0)
    for t in np.linspace(0, 1, 11):
        rec.add(_sample(t))
    rec.finalize()
    assert rec.mean_abs_energy_residual() == pytest.approx(0.0, abs=1e-14)


def test_csv_header_and_shape(tmp_path, flat_profile, alpha_one):
    grid, walls, temp, zeros = conduction_setup(flat_profile, alpha_one)
    rec = Recorder(burn_in=0.0, pr=1.0, area=grid.area)
    grad_zero = grad_physical(zeros, grid)
    derivs = StateDerivatives(grad_omega=grad_zero, grad_temp=grad_physical(temp, grid))
    for t in (0.0, 0.1, 0.2):
        state = FlowState(time=t, omega=zeros, psi=zeros, temp=temp, u1=zeros, u2=zeros,
                          psi_top=0.0, u_tau=np.zeros((2, grid.n1)))
        rec.add(measure(state, grid, walls, pr=1.0, ra=10.0, derivs=derivs,
                        grad_u_sq=0.0, pressure=zeros))
    rec.finalize()
    path = tmp_path / "diag.csv"
    rec.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))


def _loop_enstrophy_residuals(rec):
    """Row-by-row reference: re-average the selected samples up to each row."""
    t = np.array([r["time"] for r in rec.records])
    vals = np.array([[r[k] for k in ENSTROPHY_COLUMNS] for r in rec.records])
    z = np.array([r["enstrophy"] / (2.0 * rec.pr) + r["ak_friction"] / rec.pr
                  for r in rec.records])
    finite = np.all(np.isfinite(vals), axis=1)
    res = np.full(len(t), np.nan)
    for i in range(len(t)):
        sel = (t[: i + 1] >= rec.burn_in) & finite[: i + 1]
        if not np.any(sel):
            sel = finite[: i + 1]
        if not np.any(sel):
            continue
        idx = np.flatnonzero(sel)
        means = vals[idx].mean(axis=0)
        total = float(np.sum(means))
        span = t[idx[-1]] - t[idx[0]]
        if span > 0.0:
            total += (z[idx[-1]] - z[idx[0]]) / (span * rec.area)
        res[i] = total / max(float(np.max(np.abs(means))), 1e-300)
    return res


def _loop_energy_residuals(rec):
    t = np.array([r["time"] for r in rec.records])
    dedt = np.gradient(np.array([r["energy"] for r in rec.records]), t)
    return np.array([(dedt[i] / (2.0 * rec.pr) + r["grad_u_sq"] + r["boundary_friction"]
                      - r["buoyancy_flux"])
                     / max(abs(r["buoyancy_flux"]), abs(r["grad_u_sq"]), 1.0)
                     for i, r in enumerate(rec.records)])


def test_vectorized_residuals_match_row_by_row(tmp_path):
    text = """
[physical]
ra = 2000
pr = 10.0

[grid]
n1 = 16
n2 = 17

[time]
t_end = 0.05
sample_interval = 0.001
burn_in = 0.01

[initial]
temp_perturbation = 0.01
"""
    rec = run_simulation(parse_config(text), str(tmp_path / "run")).recorder
    assert len(rec.records) > 10
    # samples without the pressure-dependent terms, before and after burn-in
    for i in (0, 3, len(rec.records) - 2):
        rec.records[i]["ens:wall_pressure"] = float("nan")
    for burn_in in (0.0, rec.burn_in, 1e9):
        rec.burn_in = burn_in
        for got, ref in ((rec._enstrophy_residuals(), _loop_enstrophy_residuals(rec)),
                         (rec._energy_residuals(), _loop_energy_residuals(rec))):
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            ok = ~np.isnan(ref)
            assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-12 * np.abs(ref[ok]))


def _fresh_derivatives(state, grid):
    """A state with its wall u_tau and derivative set, velocity gradients included, evaluated afresh."""
    u1, u2 = state.u1, state.u2
    state = replace(state, u_tau=np.array([tangential_velocity(u1, u2, grid, side)
                                           for side in (Side.BOTTOM, Side.TOP)]))
    derivs = StateDerivatives(grad_omega=grad_physical(state.omega, grid),
                              grad_temp=grad_physical(state.temp, grid),
                              grad_u=velocity_gradients(state, grid))
    return state, derivs


def test_shared_derivatives_reproduce_fresh_ones(tmp_path, monkeypatch):
    # the runner hands each sample the derivative set it also steps from; a
    # reference that differentiates every sampled state again, ignoring what
    # it is handed, must write the same diagnostics.csv byte for byte
    text = """
[physical]
ra = 1e4
pr = 10.0

[grid]
n1 = 16
n2 = 17

[time]
dt = 1e-4
t_end = 2e-3
burn_in = 5e-4
sample_interval = 1e-4

[initial]
temp_perturbation = 0.01
u0_amplitude = 1.0

[bounds]
background_delta = 0.25

[output]
pressure_every = 1
"""
    shared = run_simulation(parse_config(text), str(tmp_path / "shared"))

    import rbns.runner
    from rbns.solver import BoussinesqStepper

    recover = BoussinesqStepper.recover_pressure

    def reference_pressure(self, state, derivs):
        return recover(self, *_fresh_derivatives(state, self.grid))

    def reference_measure(state, grid, walls, pr, ra, derivs, grad_u_sq, **kwargs):
        state, derivs = _fresh_derivatives(state, grid)
        grad_u_sq = velocity_gradient_integrals(derivs.grad_u, grid)
        return measure(state, grid, walls, pr, ra, derivs, grad_u_sq, **kwargs)

    monkeypatch.setattr(BoussinesqStepper, "recover_pressure", reference_pressure)
    monkeypatch.setattr(rbns.runner, "measure", reference_measure)
    fresh = run_simulation(parse_config(text), str(tmp_path / "fresh"))

    assert len(shared.recorder.records) == 21
    assert all(np.isfinite(shared.recorder.records[-1][name]) for name in ENSTROPHY_COLUMNS)
    assert ((tmp_path / "shared" / "diagnostics.csv").read_bytes()
            == (tmp_path / "fresh" / "diagnostics.csv").read_bytes())


@pytest.mark.parametrize("pressure_every", [0, 2])
def test_pressure_every_and_defect_summary(tmp_path, monkeypatch, pressure_every):
    # pressure_every = 0 recovers no pressure: the bound report names the
    # missing enstrophy ingredients instead of failing, and the summary's
    # largest compatibility defect is NaN; otherwise it is the largest of
    # the sampled defects
    from rbns.elliptic import PoissonNeumann
    from rbns.reporting import report_from_run_dir
    from rbns.runner import read_summary

    text = f"""
[physical]
ra = 1e4
pr = 10.0

[grid]
n1 = 16
n2 = 17

[time]
dt = 1e-4
t_end = 1e-3
sample_interval = 1e-4

[initial]
temp_perturbation = 0.01
u0_amplitude = 1.0

[bounds]
background_delta = 0.25

[output]
pressure_every = {pressure_every}
"""
    solve = PoissonNeumann.solve
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(PoissonNeumann, "solve", counted)
    result = run_simulation(parse_config(text), str(tmp_path))
    assert not result.aborted
    defects = result.recorder.column("pressure_defect")
    reported = read_summary(str(tmp_path / "run_summary.txt"))["pressure_defect_max"]
    report = report_from_run_dir(str(tmp_path))
    if pressure_every == 0:
        assert calls == [] and np.isnan(defects).all() and np.isnan(reported)
        assert report.qform is None
        assert any("missing ingredient" in note and "ens:wall_pressure" in note for note in report.notes)
    else:
        assert len(calls) == 6 == np.isfinite(defects).sum()
        assert reported == np.nanmax(defects)
        assert report.qform is not None


# quantities compared on a common scale: a term that vanishes on one grid
# (ens:wall_inertia is ~1e-20 on flat walls) is held to its group's size
_SCALE_GROUPS = (
    ("nu_flux", "nu_gradsq", *STRIP_COLUMNS, "convective_transport",
     "grad_theta_sq", "theta_u_grad_eta"),
    ("energy", "enstrophy", "grad_u_sq", "boundary_friction", "kappa_friction",
     "ak_friction", "buoyancy_flux"),
    ENSTROPHY_COLUMNS,
)


def _stepped_state(modes, steps):
    from rbns.runner import build_stepper, initial_stream_function, initial_temperature

    cfg = parse_config("[physical]\nra = 1e4\npr = 10.0\n[grid]\nn1 = 32\nn2 = 33\n"
                       "[initial]\ntemp_perturbation = 0.01\nu0_amplitude = 1.0\n")
    cfg.geometry.modes = modes
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    for _ in range(steps):
        state = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    return stepper, state


@pytest.mark.parametrize("background", [False, True], ids=["no_bg", "bg"])
@pytest.mark.parametrize("pressure", [False, True], ids=["no_p", "p"])
@pytest.mark.parametrize("modes,steps", [((), 5), (((1, 0.0, 0.1),), 5), ((), 0)],
                         ids=["flat", "rough", "flat_at_rest"])
def test_one_pass_measure_matches_per_quantity_reference(modes, steps, pressure, background):
    # the one-pass row against every quantity evaluated on its own; steps = 0
    # is the initial state, whose vorticity and velocity vanish
    from reference_diagnostics import reference_row

    from rbns.background import build_background

    stepper, state = _stepped_state(modes, steps)
    if steps == 0:
        state = replace(state, omega=np.zeros_like(state.omega), u1=np.zeros_like(state.u1),
                        u2=np.zeros_like(state.u2),
                        u_tau=np.zeros_like(state.u_tau))
    grid = stepper.grid
    bg = build_background(0.25, grid) if background else None
    derivs = stepper.state_derivatives(state)
    derivs.grad_u = velocity_gradients(state, grid)
    grad_u_sq = velocity_gradient_integrals(derivs.grad_u, grid)
    p = stepper.recover_pressure(state, derivs)[0] if pressure else None
    row = measure(state, grid, stepper.walls, 10.0, 1e4, derivs, grad_u_sq,
                  pressure=p, background=bg)
    ref = reference_row(state, grid, stepper.walls, 10.0, 1e4, pressure=p, background=bg)
    assert set(ref) <= set(row)
    scale = {name: max(abs(ref[n]) for n in group) for group in _SCALE_GROUPS for name in group}
    for name, want in ref.items():
        got = row[name]
        if np.isnan(want):
            assert np.isnan(got), name
        else:
            assert abs(got - want) <= 1e-13 * max(abs(want), scale.get(name, 0.0)), name
    if pressure and modes:
        # every enstrophy ingredient is nonzero on the rough state, so a wrong sign shows
        assert all(ref[name] != 0.0 for name in ENSTROPHY_COLUMNS)
