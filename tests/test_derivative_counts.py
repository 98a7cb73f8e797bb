"""Each field is differentiated once per state it is sampled or stepped from.

The counters wrap a grid function at every rbns module that looks it up by
name, as the traced benchmark does, so a second evaluation of a gradient
anywhere on these paths shows up as an extra call.
"""

import os
import sys

import numpy as np
import pytest

import rbns
import rbns.grid
from rbns.background import BackgroundField
from rbns.config import RunConfig
from rbns.diagnostics import ENSTROPHY_COLUMNS, measure, velocity_gradient_integrals
from rbns.runner import (
    build_stepper,
    initial_stream_function,
    initial_temperature,
    run_simulation,
)
from rbns.solver import velocity_gradients


def _count_calls(monkeypatch, name: str) -> list:
    original = getattr(rbns.grid, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("rbns") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _flat_config():
    cfg = RunConfig()
    cfg.physical.ra, cfg.physical.pr = 1e4, 10.0
    cfg.grid.n1, cfg.grid.n2 = 16, 17
    cfg.initial.u0_amplitude = 1.0
    return cfg


@pytest.fixture
def flat_state():
    cfg = _flat_config()
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    return stepper, state


def test_flat_step_takes_three_x1_derivatives(monkeypatch, flat_state):
    # temperature and vorticity gradients of the state and the new velocity;
    # buoyancy reuses the temperature gradient, and the x1 fluxes of the
    # skew advection are differentiated on their spectra
    stepper, state = flat_state
    assert stepper.coupling_sweeps == 0
    calls = _count_calls(monkeypatch, "d_x1")
    stepper.step(state, 1e-4, stepper.state_derivatives(state))
    assert len(calls) <= 3


def test_measure_differentiates_each_field_once(monkeypatch, flat_state):
    stepper, state = flat_state
    state = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    grid = stepper.grid
    derivs = stepper.state_derivatives(state)
    derivs.grad_u = velocity_gradients(state, grid)
    pressure, _ = stepper.recover_pressure(state, derivs)
    background = BackgroundField(0.25, grid)
    d_x1_calls = _count_calls(monkeypatch, "d_x1")
    u_tau_calls = _count_calls(monkeypatch, "wall_tangential_velocity")
    derivs = stepper.state_derivatives(state)
    grad_u_sq = velocity_gradient_integrals(velocity_gradients(state, grid), grid)
    row = measure(state, grid, stepper.walls, 10.0, 1e4, derivs, grad_u_sq,
                  pressure=pressure, background=background)
    assert np.isfinite(row["grad_theta_sq"])
    assert all(np.isfinite(row[name]) for name in ENSTROPHY_COLUMNS)
    # grad T, grad u2 and grad omega (d u1/dy1 = -d u2/dy2); the state's own u_tau
    assert len(d_x1_calls) <= 3
    assert len(u_tau_calls) == 0


def _run_counts(monkeypatch, steps: int) -> dict:
    cfg = _flat_config()
    dt = 1e-4
    cfg.time.dt, cfg.time.t_end = dt, steps * dt
    cfg.time.sample_interval = dt
    cfg.bounds.background_delta = 0.25
    cfg.output.pressure_every = 1
    with monkeypatch.context() as mp:
        calls = {name: _count_calls(mp, name)
                 for name in ("d_x1", "d_x2", "wall_tangential_velocity")}
        res = run_simulation(cfg)
    assert res.steps_taken == steps and len(res.recorder.records) == steps + 1
    assert all(np.isfinite(res.recorder.records[-1][name]) for name in ENSTROPHY_COLUMNS)
    return {name: len(c) for name, c in calls.items()}


def test_step_plus_sample_differentiates_each_state_once(monkeypatch):
    # one more step of a run sampled every step, with pressure and the
    # background terms: the step (the new velocity), the new state's
    # derivative set (grad omega, grad T) and the sample (d u1/dy2, grad u2).
    # The advective fluxes are differentiated on their spectra, on the
    # interior rows.  Differentiating a state twice (pressure and measure,
    # or the sample and the next step) costs 11 d_x1 and 14 d_x2 calls.  The
    # wall u_tau is evaluated once, both walls stacked, in the step's
    # coupling sweep that builds the new state.
    one = _run_counts(monkeypatch, 1)
    two = _run_counts(monkeypatch, 2)
    extra = {name: two[name] - one[name] for name in one}
    assert extra["d_x1"] <= 4
    assert extra["d_x2"] <= 5
    assert extra["wall_tangential_velocity"] <= 1


def _rbns_calls(fn) -> int:
    """Python-level calls of fn(): calls into rbns functions and the builtin calls they make."""
    root = os.path.dirname(rbns.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        # a "call" frame is the callee's, a "c_call" frame the caller's
        if event in ("call", "c_call") and frame.f_code.co_filename.startswith(root):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_step_plus_sample_call_floor(flat_state):
    # one flat 16 x 17 step and the sample of the new state (derivative set,
    # velocity gradients, pressure, measure with the background terms).  On
    # this grid the per-call cost of Python and numpy outweighs the
    # arithmetic, so the bound is the measured count: a change that adds a
    # call to this path raises it knowingly.  numpy ufuncs and operators
    # raise no profile event, so the count is of function calls only.
    stepper, state = flat_state
    grid = stepper.grid
    background = BackgroundField(0.25, grid)

    def step_and_sample():
        nxt = stepper.step(state, 1e-4, stepper.state_derivatives(state))
        derivs = stepper.state_derivatives(nxt)
        derivs.grad_u = velocity_gradients(nxt, grid)
        grad_u_sq = velocity_gradient_integrals(derivs.grad_u, grid)
        pressure, info = stepper.recover_pressure(nxt, derivs)
        row = measure(nxt, grid, stepper.walls, 10.0, 1e4, derivs, grad_u_sq,
                      pressure=pressure, pressure_defect=info.compat_defect, background=background)
        assert all(np.isfinite(row[name]) for name in ENSTROPHY_COLUMNS)

    step_and_sample()       # first use builds the shared bases
    assert _rbns_calls(step_and_sample) <= 170


def _sampled_config(modes, sample_interval):
    cfg = _flat_config()
    cfg.geometry.modes = modes
    dt = 1e-4
    cfg.time.dt, cfg.time.t_end, cfg.time.sample_interval = dt, 2 * dt, sample_interval
    cfg.bounds.background_delta = 0.25
    cfg.output.pressure_every = 1
    return cfg


def _count_transforms(mp) -> list:
    """(name, "line" or "full") per np.fft.rfft / irfft call; at most 4 lines is a line batch."""
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            line = np.ndim(a) == 1 or min(np.shape(a)) <= 4
            calls.append((_name, "line" if line else "full"))
            return _original(a, *args, **kwargs)

        mp.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "rough"])
def test_sample_transform_count(monkeypatch, modes):
    # one sample with pressure: the velocity gradients (grad u2: one inverse
    # transform from u2's spectra, which a flat step hands over, or a
    # full-size pair on rough walls), the Neumann solve (one forward, its
    # two wall traces back as lines), and two batched wall-line pairs, the
    # pressure fluxes and measure's u_tau and pressure traces.
    # Two runs of the same two steps, sampled every step and only at t = 0,
    # differ by two samples.
    counts = {}
    for label, interval in (("every", 1e-4), ("first", 1.0)):
        with monkeypatch.context() as mp:
            calls = _count_transforms(mp)
            res = run_simulation(_sampled_config(modes, interval))
        assert res.steps_taken == 2
        counts[label] = (len(res.recorder.records), calls)
    (n_every, every), (n_first, first) = counts["every"], counts["first"]
    assert n_every - n_first == 2
    per_sample = {key: (every.count(key) - first.count(key)) / 2
                  for key in {*every, *first}}
    assert per_sample == {("rfft", "full"): 1 if not modes else 2, ("irfft", "full"): 1,
                          ("rfft", "line"): 2, ("irfft", "line"): 3}


def test_flat_step_plus_sample_transform_count(monkeypatch):
    # one flat step and the sample of the new state, with pressure: the
    # step's 8 (4 forward for the explicit terms, the three solutions back,
    # psi's spectra differentiated back into u2) and the sample's 6 (grad T
    # and grad omega one pair each, grad u2 one back, the Neumann solve one
    # forward); 17 while the velocity and grad u2 transformed psi and u2
    # again and the pressure field was synthesized.  Two runs sampled every
    # step differ by one step and sample.
    totals = []
    for steps in (1, 2):
        cfg = _sampled_config((), 1e-4)
        cfg.time.t_end = steps * cfg.time.dt
        with monkeypatch.context() as mp:
            calls = _count_transforms(mp)
            res = run_simulation(cfg)
        assert res.steps_taken == steps
        totals.append(sum(kind == "full" for _, kind in calls))
    assert totals[1] - totals[0] <= 14


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "rough"])
def test_recover_pressure_synthesizes_no_field(monkeypatch, modes):
    # the wall traces are read from the Neumann solve's coordinates, so no
    # field-sized inverse transform is made
    cfg = _sampled_config(modes, 1e-4)
    stepper = build_stepper(cfg)
    grid = stepper.grid
    state = stepper.state_from_fields(initial_temperature(cfg, grid),
                                      initial_stream_function(cfg, grid))
    state = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    # a flat step hands u2's spectra to the sample; a rough state carries none
    assert (state.u2_spectrum is None) == bool(modes)
    derivs = stepper.state_derivatives(state)
    assert state.u2_spectrum is None
    derivs.grad_u = velocity_gradients(state, grid)
    calls = _count_transforms(monkeypatch)
    traces, info = stepper.recover_pressure(state, derivs)
    assert traces.shape == (2, grid.n1) and np.isfinite(traces).all()
    assert ("irfft", "full") not in calls
    assert calls.count(("rfft", "full")) == 1


def test_velocity_gradients_freed_before_pressure_solve(monkeypatch):
    # the sample's three velocity-gradient arrays give int |grad u|^2 and the
    # pressure right-hand side, and none is alive inside the Neumann solve
    import weakref

    import rbns.runner
    from rbns.elliptic import PoissonNeumann

    gradients = []
    original = rbns.runner.velocity_gradients

    def recorded(state, grid):
        out = original(state, grid)
        gradients.extend(weakref.ref(a) for a in out)
        return out

    wall_traces = PoissonNeumann.wall_traces
    alive = []

    def checked_traces(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in gradients))
        return wall_traces(self, *args, **kwargs)

    monkeypatch.setattr(rbns.runner, "velocity_gradients", recorded)
    monkeypatch.setattr(PoissonNeumann, "wall_traces", checked_traces)
    res = run_simulation(_sampled_config((), 1e-4))
    assert len(res.recorder.records) == 3 and len(gradients) == 9
    assert alive == [0, 0, 0]
