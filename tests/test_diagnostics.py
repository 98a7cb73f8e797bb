from dataclasses import replace

import numpy as np
import pytest

from rbns.config import parse_config
from rbns.diagnostics import (
    CSV_HEADER,
    ENSTROPHY_COLUMNS,
    ROW,
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
    wall_lines = np.zeros((2, grid.n1))
    terms = enstrophy_balance_terms(zeros, grad_physical(zeros, grid), grad_physical(temp, grid),
                                    wall_lines, wall_lines, grid, walls, pr=1.0, ra=100.0)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in terms.values())


_ZEROS = dict.fromkeys(ROW.names, 0.0)


def _sample(time, **values):
    """A hand-built sample row: every ROW column 0 unless given."""
    return dict(_ZEROS, time=time, **values)


def test_recorder_constant_and_oscillating_signal():
    rec = Recorder(burn_in=0.0, pr=1.0, area=1.0)
    for t in np.linspace(0, 10, 101):
        rec.add(_sample(t, nu_flux=3.5))
    assert rec.average("nu_flux") == pytest.approx(3.5)

    rec2 = Recorder(burn_in=0.0, pr=1.0, area=1.0)
    ts = np.linspace(0, 50 * 2 * np.pi, 20001)
    for t in ts:
        rec2.add(_sample(t, nu_flux=np.sin(t)))
    assert abs(rec2.average("nu_flux")) <= 1e-3


@pytest.mark.parametrize("burn_in, mean, window", [
    (1.0, 3.0, (1.0, 3.0)),           # t >= burn_in: the sample at t = burn_in is in
    (1.5, 4.0, (2.0, 3.0)),           # the window starts at a NaN sample
    (10.0, 7.0 / 3.0, (0.0, 3.0)),    # nothing past burn-in: every sample
])
def test_recorder_window(burn_in, mean, window):
    # averages skip NaN samples; the endpoint span is over the same window
    rec = Recorder(burn_in=burn_in, pr=1.0, area=1.0)
    for t, nu in enumerate((1.0, 2.0, np.nan, 4.0)):
        rec.add(_sample(float(t), nu_flux=nu, energy=np.nan))
    assert rec.average("nu_flux") == pytest.approx(mean, rel=1e-15)
    assert np.isnan(rec.average("energy"))
    first, last, span = rec._window_span()
    assert (first["time"], last["time"], span) == (*window, window[1] - window[0])


def test_recorder_window_without_samples():
    rec = Recorder(burn_in=0.5, pr=1.0, area=1.0)
    assert np.isnan(rec.average("nu_flux"))
    assert rec._window_span() == (None, None, 0.0)


def test_recorder_add_leaves_unmeasured_names_nan_and_rejects_unknown_ones():
    rec = Recorder(burn_in=0.0, pr=1.0, area=1.0)
    rec.add({"time": 0.0, "nu_flux": 2.0})
    assert rec.records[0]["nu_flux"] == 2.0 and np.isnan(rec.records[0]["energy"])
    with pytest.raises(KeyError):
        rec.add({"time": 1.0, "nu_fluxx": 2.0})
    assert len(rec.records) == 1


def test_recorder_table_memory_and_column_views():
    # 100,000 samples hold at most two float64 per ROW name each (the
    # capacity doubles), and a column is a view of the table, not a copy
    import tracemalloc

    n = 100_000
    rec = Recorder(burn_in=0.0, pr=1.0, area=1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            rec.add(_sample(i * 1e-3, nu_flux=i * 0.5))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rec.records) == n
    assert held <= 2 * 8 * len(ROW.names) * n
    nu = rec.column("nu_flux")
    assert np.shares_memory(nu, rec.records) and np.array_equal(nu, np.arange(n) * 0.5)


def test_nu_eta_endpoint_term():
    # theta_sq linear in t with slope s, <|grad theta|^2> = a and
    # <theta u.grad eta> = b constant: the window estimator of the background
    # identity is G - a - 2b - s/|Omega|, the last term d|theta|^2/dt / |Omega|
    g, a, b, s, area = 3.0, 0.7, 0.4, 0.6, 2.0
    rec = Recorder(burn_in=0.5, pr=1.0, area=area, grad_eta_sq=g)
    for t in np.linspace(0.0, 2.0, 21):
        rec.add(_sample(t, theta_sq=1.0 + s * t, grad_theta_sq=a, theta_u_grad_eta=b))
    assert abs(rec.nu_eta_corrected() - (g - a - 2.0 * b - s / area)) <= 1e-12


def test_enstrophy_endpoint_term():
    # Z = enstrophy/(2 Pr) + ak_friction/Pr grows at dZ/dt = e + k; five
    # constant terms summing to -(dZ/dt)/|Omega| balance it, so the residual
    # of every sample past the first (which has no span) is zero
    pr, area, e, k = 2.0, 1.5, 0.8, 0.5
    terms = (1.0, -0.5, 2.0, 0.25)
    terms += (-(e + k) / area - sum(terms),)
    rec = Recorder(burn_in=0.0, pr=pr, area=area)
    for t in np.linspace(0.0, 1.0, 11):
        rec.add(_sample(t, enstrophy=2.0 * pr * e * t, ak_friction=pr * k * t,
                        **dict(zip(ENSTROPHY_COLUMNS, terms))))
    rec.finalize()
    assert np.all(np.abs(rec.column("enstrophy_residual")[1:]) <= 1e-12)
    assert rec.final_enstrophy_residual() <= 1e-12


def test_heat_content_of_conduction(flat_profile, alpha_one):
    # H = int (1 - x2) T of T = 1 - x2 is |Omega|/3; the trapezoid rule at
    # 17 rows is 2e-3 high
    grid, walls, temp, _ = conduction_setup(flat_profile, alpha_one, n1=16, n2=17)
    heat = measure_fields(grid, walls, temp)["heat_content"]
    assert heat == pytest.approx(grid.area / 3.0, rel=1e-2)


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
                        grad_u_sq=0.0, pressure=np.zeros((2, grid.n1))))
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
    wall_traces = PoissonNeumann.wall_traces
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return wall_traces(self, *args, **kwargs)

    monkeypatch.setattr(PoissonNeumann, "wall_traces", counted)
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

    from rbns.background import BackgroundField

    stepper, state = _stepped_state(modes, steps)
    if steps == 0:
        state = replace(state, omega=np.zeros_like(state.omega), u1=np.zeros_like(state.u1),
                        u2=np.zeros_like(state.u2),
                        u_tau=np.zeros_like(state.u_tau))
    grid = stepper.grid
    bg = BackgroundField(0.25, grid) if background else None
    derivs = stepper.state_derivatives(state)
    derivs.grad_u = velocity_gradients(state, grid)
    grad_u_sq = velocity_gradient_integrals(derivs.grad_u, grid)
    p = stepper.recover_pressure(state, derivs)[0] if pressure else None
    rec = Recorder(burn_in=0.0, pr=10.0, area=grid.area)
    rec.add(measure(state, grid, stepper.walls, 10.0, 1e4, derivs, grad_u_sq,
                    pressure=p, background=bg))
    row = rec.records[0]   # as the table holds it: a name measure leaves out reads NaN
    ref = reference_row(state, grid, stepper.walls, 10.0, 1e4, pressure=p, background=bg)
    assert set(ref) <= set(ROW.names)
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


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "rough"])
def test_friction_terms_close_through_kappa(modes):
    # boundary_friction, kappa_friction and ak_friction integrate (2 alpha +
    # kappa), kappa and alpha + kappa times u_tau^2 ds, so the first two sum
    # to twice the third; on the rough walls kappa_friction differs from the
    # alpha part, so each weight shows.  Flat walls have no curvature.
    stepper, state = _stepped_state(modes, 5)
    grid = stepper.grid
    grad_u_sq = velocity_gradient_integrals(velocity_gradients(state, grid), grid)
    row = measure(state, grid, stepper.walls, 10.0, 1e4, stepper.state_derivatives(state),
                  grad_u_sq)
    friction, kappa, ak = row["boundary_friction"], row["kappa_friction"], row["ak_friction"]
    assert ak > 0.0
    assert abs(friction + kappa - 2.0 * ak) <= 1e-12 * ak
    if modes:
        assert abs(kappa - (friction - ak)) >= 0.1 * ak
    else:
        assert kappa == 0.0
