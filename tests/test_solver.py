import numpy as np
import pytest

from rbns.config import RunConfig
from rbns.geometry import FourierSeries, Side, boundary_frames
from rbns.grid import (
    MappedGrid,
    apply_L_tilde,
    d_x1,
    d_x2,
    grad_physical,
    volume_integral,
    x1_inverse,
    x1_transform,
)
from rbns.runner import TEMP_EXCURSION_TOL, build_stepper, initial_temperature, run_simulation
from rbns.solver import (
    BoussinesqStepper,
    CflViolation,
    PhysicalParams,
    boundary_vorticity,
    velocity_gradients,
)

from reference_diagnostics import tangential_velocity


def small_cfg(**kw):
    cfg = RunConfig()
    cfg.physical.ra = kw.get("ra", 1e3)
    cfg.physical.pr = kw.get("pr", 10.0)
    cfg.grid.n1 = kw.get("n1", 32)
    cfg.grid.n2 = kw.get("n2", 33)
    cfg.initial.temp_perturbation = kw.get("pert", 0.0)
    return cfg


def _sample_derivatives(stepper, state):
    """state_derivatives(state) with the sample's velocity gradients set."""
    derivs = stepper.state_derivatives(state)
    derivs.grad_u = velocity_gradients(state, stepper.grid)
    return derivs


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(ra=1.0, pr=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(ra=-1.0, pr=1.0)


def test_boundary_vorticity_values(flat_profile, alpha_one):
    walls = boundary_frames(flat_profile, 16, alpha_one)
    assert np.all(boundary_vorticity(np.zeros((2, 16)), walls) == 0.0)
    got = boundary_vorticity(np.full((2, 16), 0.5), walls)
    assert got.shape == (2, 16)
    assert np.allclose(got, -1.0)
    free_slip = FourierSeries(gamma=1.0, offset=0.0)
    walls0 = boundary_frames(flat_profile, 16, free_slip)
    assert np.all(boundary_vorticity(np.full((2, 16), 0.7), walls0) == 0.0)
    with pytest.raises(ValueError):
        boundary_vorticity(np.zeros((2, 8)), walls)
    with pytest.raises(ValueError):
        boundary_vorticity(np.zeros(16), walls)


def test_conduction_is_steady(flat_profile):
    cfg = small_cfg(ra=100.0)
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid))
    for _ in range(200):
        state = stepper.step(state, 1e-3, stepper.state_derivatives(state))
    assert np.sqrt(volume_integral(state.u1**2 + state.u2**2, stepper.grid)) <= 1e-12
    assert np.abs(state.temp - (1.0 - stepper.grid.x2)[None, :]).max() <= 1e-12


def test_energy_decays_every_step_without_forcing():
    cfg = small_cfg(ra=0.0, pr=1.0)
    cfg.initial.u0_amplitude = 1.0
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    energies = [volume_integral(state.u1**2 + state.u2**2, stepper.grid)]
    for _ in range(50):
        state = stepper.step(state, 1e-3, stepper.state_derivatives(state))
        energies.append(volume_integral(state.u1**2 + state.u2**2, stepper.grid))
    diffs = np.diff(energies)
    assert np.all(diffs < 0.0)


def test_cfl_violation_suggests_dt():
    cfg = small_cfg(ra=0.0)
    cfg.initial.u0_amplitude = 5.0
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    limit = stepper.cfl_limit(state)
    with pytest.raises(CflViolation) as err:
        stepper.step(state, 10.0 * limit, stepper.state_derivatives(state))
    assert err.value.suggested_dt == pytest.approx(limit)
    stepper.step(state, 0.9 * limit, stepper.state_derivatives(state))  # inside the bound: fine


def test_discrete_incompressibility(sine_profile):
    # u = curl(psi) is exactly divergence free in the mapped operators
    grid = MappedGrid(sine_profile, 32, 33)
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(grid.shape)
    psi_z = d_x2(psi, grid)
    u1 = -psi_z
    u2 = d_x1(psi, grid) - grid.hp[:, None] * psi_z
    div = (d_x1(u1, grid) - grid.hp[:, None] * d_x2(u1, grid)) + d_x2(u2, grid)
    assert np.abs(div).max() <= 1e-13 * max(np.abs(u1).max(), np.abs(u2).max())


def test_vorticity_gradient_identity(sine_profile, alpha_one):
    # int |grad u|^2 = int w^2 + int kappa u_tau^2 for smooth wall-respecting u
    grid = MappedGrid(sine_profile, 64, 129)
    walls = boundary_frames(sine_profile, 64, alpha_one)
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    psi = np.sin(2 * np.pi * x1) * (np.sin(np.pi * x2)) ** 2
    psi_z = d_x2(psi, grid)
    u1, u2 = -psi_z, d_x1(psi, grid) - grid.hp[:, None] * psi_z
    omega = np.empty(grid.shape)
    omega[:, 1:-1] = apply_L_tilde(psi, grid)
    # psi and dpsi/dx2 vanish on both walls, so there Lap psi = (1+h'^2) psi_x2x2
    omega[:, [0, -1]] = (grid.a22 * 2 * np.pi**2 * np.sin(2 * np.pi * grid.x1))[:, None]
    from reference_diagnostics import boundary_friction_integral

    from rbns.diagnostics import velocity_gradient_integrals

    u_tau = np.array([tangential_velocity(u1, u2, grid, side) for side in Side])
    lhs = velocity_gradient_integrals((d_x2(u1, grid), *grad_physical(u2, grid)), grid)
    rhs = volume_integral(omega**2, grid) + boundary_friction_integral(
        u_tau, walls, weight="kappa")
    assert abs(lhs - rhs) <= 2e-3 * abs(lhs)


def test_stream_trace_fixed_point(sine_profile):
    # -(1/|O|) int u1 telescopes to the imposed top trace for smooth psi
    grid = MappedGrid(sine_profile, 32, 65)
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    psi = 0.37 * x2**2 + np.sin(2 * np.pi * x1) * np.sin(np.pi * x2) ** 2
    u1 = -d_x2(psi, grid)
    got = -volume_integral(u1, grid) / grid.area
    assert got == pytest.approx(0.37, abs=1e-4)  # quadrature-level agreement


def _pressure_traces_and_field(monkeypatch, stepper, state):
    """recover_pressure's wall traces and info, and solve's field on the same Neumann data."""
    from rbns.elliptic import PoissonNeumann

    captured = []
    wall_traces = PoissonNeumann.wall_traces

    def recorded(self, rhs, flux_bottom, flux_top):
        captured.append((rhs.copy(), flux_bottom.copy(), flux_top.copy()))
        return wall_traces(self, rhs, flux_bottom, flux_top)

    monkeypatch.setattr(PoissonNeumann, "wall_traces", recorded)
    traces, info = stepper.recover_pressure(state, _sample_derivatives(stepper, state))
    return traces, info, stepper.neumann.solve(*captured[0])[0]


def test_pressure_zero_state(flat_profile, monkeypatch):
    cfg = small_cfg(ra=0.0)
    stepper = build_stepper(cfg)
    temp = np.zeros(stepper.grid.shape)
    state = stepper.state_from_fields(temp)
    traces, info, p = _pressure_traces_and_field(monkeypatch, stepper, state)
    assert traces.shape == (2, stepper.grid.n1)
    assert np.abs(traces).max() <= 1e-12
    assert np.abs(p).max() <= 1e-12


def test_pressure_hydrostatic(flat_profile, monkeypatch):
    cfg = small_cfg(ra=50.0, n2=65)
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid))
    traces, info, p = _pressure_traces_and_field(monkeypatch, stepper, state)

    def hydrostatic(x2):
        return 50.0 * (x2 - 0.5 * x2**2 - 1.0 / 3.0)

    # second order in dx2: the field, and its traces at x2 = 0 and x2 = 1
    expected = hydrostatic(stepper.grid.x2[None, :]) * np.ones((stepper.grid.n1, 1))
    assert np.abs(p - expected).max() <= 5e-5 * 50.0
    for trace, x2 in zip(traces, (0.0, 1.0)):
        assert np.abs(trace - hydrostatic(x2)).max() <= 5e-5 * 50.0
    assert info.compat_defect <= 1e-8


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "rough"])
@pytest.mark.parametrize("n1, n2", [(16, 17), (32, 33)])
def test_pressure_wall_traces_are_the_solved_fields_wall_rows(modes, n1, n2):
    # wall_traces reads the two wall rows from the cosine coordinates; the
    # kernel modes (k = 0, and the even-n1 Nyquist mode with its plain x2
    # mean removed) take the field's normalization
    from rbns.elliptic import PoissonNeumann

    g = MappedGrid(FourierSeries(gamma=1.0, modes=modes), n1, n2)
    rng = np.random.default_rng(n1)
    x1, x2 = g.x1[:, None], g.x2[None, :]
    rhs = np.cos(2 * np.pi * x1) * np.cos(np.pi * x2) + 0.1 * rng.standard_normal(g.shape)
    flux_bottom, flux_top = rng.standard_normal(n1), rng.standard_normal(n1)
    solver = PoissonNeumann(g)
    field, info = solver.solve(rhs.copy(), flux_bottom, flux_top)     # the solve overwrites rhs
    traces, trace_info = solver.wall_traces(rhs.copy(), flux_bottom, flux_top)
    want = field.T[[0, -1]]
    assert traces.shape == (2, n1)
    assert np.abs(traces - want).max() <= 1e-12 * np.abs(want).max()
    assert trace_info.iterations == info.iterations
    assert trace_info.compat_defect == info.compat_defect


def test_friction_slows_walls(flat_profile):
    # larger alpha pushes the tangential wall velocity toward no slip;
    # dt small enough that the lagged wall coupling stays stable at alpha=1e3
    sups = []
    for alpha in (10.0, 100.0, 1000.0):
        cfg = small_cfg(ra=0.0, pr=1.0)
        cfg.boundary.alpha_bottom_mean = alpha
        cfg.boundary.alpha_top_mean = alpha
        cfg.initial.u0_amplitude = 1.0
        stepper = build_stepper(cfg)
        from rbns.runner import initial_stream_function

        state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                          initial_stream_function(cfg, stepper.grid))
        for _ in range(100):
            state = stepper.step(state, 2e-5, stepper.state_derivatives(state))
        ut = tangential_velocity(state.u1, state.u2, stepper.grid, Side.BOTTOM)
        sups.append(np.abs(ut).max())
    assert sups[0] > sups[1] > sups[2]


def test_maximum_principle_short_convection():
    cfg = small_cfg(ra=5e4, pr=10.0, pert=0.01, n2=49, n1=48)
    cfg.time.t_end = 0.05
    cfg.time.sample_interval = 5e-3
    res = run_simulation(cfg)
    t_min = res.recorder.column("temp_min").min()
    t_max = res.recorder.column("temp_max").max()
    assert t_min >= -TEMP_EXCURSION_TOL
    assert t_max <= 1.0 + TEMP_EXCURSION_TOL


def test_omega_trace_matches_lagged_coupling():
    # after a lagged step the vorticity wall rows hold -2(alpha+kappa) u_tau
    # of the pre-step velocity, exactly
    cfg = small_cfg(ra=1e3, pr=1.0)
    cfg.initial.u0_amplitude = 0.5
    cfg.initial.temp_perturbation = 0.01
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    nxt = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    u_tau = np.array([tangential_velocity(state.u1, state.u2, stepper.grid, side) for side in Side])
    assert np.array_equal(nxt.omega[:, [0, -1]].T, boundary_vorticity(u_tau, stepper.walls))


def test_fixed_point_coupling_converges():
    cfg = small_cfg(ra=1e3, pr=1.0)
    cfg.boundary.alpha_bottom_mean = 50.0
    cfg.boundary.alpha_top_mean = 50.0
    cfg.initial.u0_amplitude = 0.5
    cfg.time.coupling_sweeps = 5
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    nxt = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    assert np.isfinite(nxt.omega).all()


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1), (3, 0.02, -0.01))], ids=["flat", "rough"])
def test_stacked_walls_match_per_wall_formulas(modes):
    # the (2, n1) u_tau and the new wall vorticity -2 (alpha + kappa) u_tau,
    # bit for bit against the one-wall formulas, with alpha varying along x1
    from rbns.runner import initial_stream_function

    cfg = small_cfg(ra=1e3, pr=1.0, pert=0.01)
    cfg.geometry.modes = modes
    cfg.boundary.alpha_bottom_modes = ((1, 0.3, 0.1),)
    cfg.initial.u0_amplitude = 0.5
    stepper = build_stepper(cfg)
    grid = stepper.grid
    state = stepper.state_from_fields(initial_temperature(cfg, grid),
                                      initial_stream_function(cfg, grid))
    nxt = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    sides = (Side.BOTTOM, Side.TOP)
    for st in (state, nxt):
        assert st.u_tau.shape == (2, grid.n1)
        for row, side in zip(st.u_tau, sides):
            assert np.array_equal(row, tangential_velocity(st.u1, st.u2, grid, side))
    walls = stepper.walls
    for i, (j, ut) in enumerate(zip((0, -1), state.u_tau)):
        assert np.array_equal(nxt.omega[:, j], -2.0 * (walls.alpha[i] + walls.kappa[i]) * ut)


def test_state_derivatives_match_fresh_evaluations():
    cfg = small_cfg(ra=1e3, pert=0.01)
    cfg.geometry.modes = ((1, 0.0, 0.1),)
    cfg.initial.u0_amplitude = 0.5
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    grid = stepper.grid
    state = stepper.state_from_fields(initial_temperature(cfg, grid),
                                      initial_stream_function(cfg, grid))
    state = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    derivs = stepper.state_derivatives(state)
    for got, field in ((derivs.grad_omega, state.omega), (derivs.grad_temp, state.temp)):
        want = grad_physical(field, grid)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for got, side in zip(state.u_tau, (Side.BOTTOM, Side.TOP)):
        assert np.array_equal(got, tangential_velocity(state.u1, state.u2, grid, side))


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "one_mode"])
def test_state_derivative_spectra_are_x1_transforms(modes):
    # one layout: a field's x1 spectrum is x1_transform's, x2-major and
    # C-ordered (n2, n1//2+1); the gradients are grid values, C-ordered (n1, n2)
    stepper, state = _started_state(modes, 16, 17)
    grid = stepper.grid
    for st in (state, stepper.step(state, 1e-4, stepper.state_derivatives(state))):
        derivs = stepper.state_derivatives(st)
        for spectrum, field in ((derivs.temp_spectrum, st.temp), (derivs.omega_spectrum, st.omega)):
            assert spectrum.shape == (grid.n2, grid.n1 // 2 + 1)
            assert spectrum.flags.c_contiguous
            assert np.array_equal(spectrum, x1_transform(field, grid))
        for g in (*derivs.grad_temp, *derivs.grad_omega):
            assert g.shape == grid.shape and g.flags.c_contiguous


def test_step_consumes_the_derivative_gradients():
    # the gradients are released inside the step, before the elliptic solves
    cfg = small_cfg(ra=1e3, pert=0.01)
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid))
    derivs = stepper.state_derivatives(state)
    stepper.step(state, 1e-4, derivs)
    assert derivs.grad_omega is None and derivs.grad_temp is None


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1), (3, 0.02, -0.05))])
def test_contravariant_flux_divergence_matches_chain_rule(modes):
    # d_x1(u1 f) + d_x2((u2 - h' u1) f) against d/dy1(u1 f) + d/dy2(u2 f)
    cfg = small_cfg(ra=1e3, pert=0.01)
    cfg.geometry.modes = modes
    cfg.initial.u0_amplitude = 0.5
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    grid = stepper.grid
    state = stepper.state_from_fields(initial_temperature(cfg, grid),
                                      initial_stream_function(cfg, grid))
    u1, u2, f = state.u1, state.u2, state.temp
    u2c = u2 - grid.hp[:, None] * u1
    grad_f = grad_physical(f, grid)
    # the interior rows, as x1 spectra; d_x1 of the flux is taken on them,
    # so even the flat form (h' = 0, the same terms) agrees only to rounding
    got = x1_inverse(stepper._advection(f, grad_f, u1, u2, u2c), grid)
    chain = grad_physical(u1 * f, grid)[0] + d_x2(u2 * f, grid)
    want = (-0.5 * (u1 * grad_f[0] + u2 * grad_f[1] + chain))[:, 1:-1]
    tol = 4e-15 if grid.is_flat else 1e-13
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def _started_state(modes, n1=32, n2=33):
    cfg = small_cfg(ra=1e4, pert=0.01, n1=n1, n2=n2)
    cfg.geometry.modes = modes
    cfg.initial.u0_amplitude = 1.0
    stepper = build_stepper(cfg)
    from rbns.runner import initial_stream_function

    grid = stepper.grid
    return stepper, stepper.state_from_fields(initial_temperature(cfg, grid),
                                              initial_stream_function(cfg, grid))


TWO_WALL_MODES = ((1, 0.0, 0.1), (3, 0.02, -0.05))


@pytest.mark.parametrize("modes", [(), TWO_WALL_MODES], ids=["flat", "two_modes"])
def test_step_matches_grid_value_reference(modes):
    # 20 steps with alternating dt (variable-step Adams-Bashforth) against
    # the grid-value formulation of the scheme in tests/reference_step.py
    from reference_step import reference_step

    stepper, state = _started_state(modes)
    assert stepper.coupling_sweeps == 0
    ref = state
    for i in range(20):
        dt = 2e-4 if i % 2 == 0 else 1.5e-4
        state = stepper.step(state, dt, stepper.state_derivatives(state))
        ref = reference_step(stepper, ref, dt)
    for name in ("omega", "psi", "temp", "u1", "u2"):
        got, want = getattr(state, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("modes", [(), TWO_WALL_MODES], ids=["flat", "two_modes"])
def test_sample_velocity_gradients_match_four_gradient_form(monkeypatch, modes):
    # int |grad u|^2 and the pressure right-hand side from the sample's three
    # gradients (d u1/dy1 = -d u2/dy2) against all four grad_physical ones
    from rbns.diagnostics import velocity_gradient_integrals
    from rbns.elliptic import PoissonNeumann

    stepper, state = _started_state(modes)
    for _ in range(5):
        state = stepper.step(state, 2e-4, stepper.state_derivatives(state))
    grid = stepper.grid
    pr, ra = stepper.params.pr, stepper.params.ra
    (u1y1, u1y2), (u2y1, u2y2) = grad_physical(state.u1, grid), grad_physical(state.u2, grid)
    want = volume_integral(u1y1**2 + u1y2**2 + u2y1**2 + u2y2**2, grid)
    got = velocity_gradient_integrals(velocity_gradients(state, grid), grid)
    assert abs(got - want) <= 1e-13 * want

    velocity_part = -(u1y1**2 + 2.0 * u2y1 * u1y2 + u2y2**2) / pr
    want_rhs = velocity_part + ra * grad_physical(state.temp, grid)[1]
    captured = []
    wall_traces = PoissonNeumann.wall_traces

    def recorded(self, rhs, *args, **kwargs):
        captured.append(rhs.copy())
        return wall_traces(self, rhs, *args, **kwargs)

    monkeypatch.setattr(PoissonNeumann, "wall_traces", recorded)
    stepper.recover_pressure(state, _sample_derivatives(stepper, state))
    assert np.abs(captured[0] - want_rhs).max() <= 1e-13 * np.abs(velocity_part).max()


def test_auto_dt_evaluates_cfl_limit_once_per_step(monkeypatch):
    # the CFL limit sizes an automatic step and checks it, evaluated once
    cfg = small_cfg(ra=1e4, n1=16, n2=17)
    cfg.initial.u0_amplitude = 10.0
    cfg.time.t_end, cfg.time.sample_interval = 2e-3, 1e-3
    calls = []
    cfl_limit = BoussinesqStepper.cfl_limit

    def counted(self, state):
        calls.append(state.time)
        return cfl_limit(self, state)

    monkeypatch.setattr(BoussinesqStepper, "cfl_limit", counted)
    res = run_simulation(cfg)
    assert cfg.time.dt is None and res.steps_taken >= 3 and not res.aborted
    assert len(calls) == res.steps_taken
