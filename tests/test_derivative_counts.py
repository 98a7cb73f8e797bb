"""Each field is differentiated once per state it is sampled or stepped from.

The counters wrap a grid function at every rbns module that looks it up by
name, as the traced benchmark does, so a second evaluation of a gradient
anywhere on these paths shows up as an extra call.
"""

import sys

import numpy as np
import pytest

import rbns.grid
from rbns.background import build_background
from rbns.config import RunConfig
from rbns.diagnostics import ENSTROPHY_COLUMNS, measure
from rbns.grid import grad_physical
from rbns.runner import (
    build_stepper,
    initial_stream_function,
    initial_temperature,
    run_simulation,
)


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


def test_flat_step_takes_five_x1_derivatives(monkeypatch, flat_state):
    # temperature and vorticity gradients of the state, the two x1 fluxes of
    # the skew advection, and the new velocity; buoyancy reuses the
    # temperature gradient
    stepper, state = flat_state
    assert stepper.coupling_sweeps == 0
    calls = _count_calls(monkeypatch, "d_x1")
    stepper.step(state, 1e-4, stepper.state_derivatives(state))
    assert len(calls) <= 5


def test_measure_differentiates_each_field_once(monkeypatch, flat_state):
    stepper, state = flat_state
    state = stepper.step(state, 1e-4, stepper.state_derivatives(state))
    grid = stepper.grid
    grad_u = (grad_physical(state.u1, grid), grad_physical(state.u2, grid))
    pressure, _ = stepper.recover_pressure(state, stepper.state_derivatives(state), grad_u)
    background = build_background(0.25, grid)
    d_x1_calls = _count_calls(monkeypatch, "d_x1")
    u_tau_calls = _count_calls(monkeypatch, "tangential_velocity")
    derivs = stepper.state_derivatives(state)
    grad_u = (grad_physical(state.u1, grid), grad_physical(state.u2, grid))
    row = measure(state, grid, stepper.bottom, stepper.top, 10.0, 1e4, derivs, grad_u,
                  pressure=pressure, background=background)
    assert np.isfinite(row["grad_theta_sq"])
    assert all(np.isfinite(row[name]) for name in ENSTROPHY_COLUMNS)
    # grad T, grad u1, grad u2 and grad omega; one u_tau per wall
    assert len(d_x1_calls) <= 4
    assert len(u_tau_calls) <= 2


def _run_counts(monkeypatch, steps: int) -> dict:
    cfg = _flat_config()
    dt = 1e-4
    cfg.time.dt, cfg.time.t_end = dt, steps * dt
    cfg.time.sample_interval = dt
    cfg.bounds.background_delta = 0.25
    cfg.output.pressure_every = 1
    with monkeypatch.context() as mp:
        calls = {name: _count_calls(mp, name)
                 for name in ("d_x1", "d_x2", "tangential_velocity")}
        res = run_simulation(cfg)
    assert res.steps_taken == steps and len(res.recorder.records) == steps + 1
    assert all(np.isfinite(res.recorder.records[-1][name]) for name in ENSTROPHY_COLUMNS)
    return {name: len(c) for name, c in calls.items()}


def test_step_plus_sample_differentiates_each_state_once(monkeypatch):
    # one more step of a run sampled every step, with pressure and the
    # background terms: the step, the new state's derivative set and the
    # sample (grad u1, grad u2).  Differentiating a state twice (pressure and
    # measure, or the sample and the next step) costs 11 d_x1, 14 d_x2 and 8
    # tangential_velocity calls.  The wall u_tau is evaluated once per wall,
    # in the step's coupling sweep that builds the new state.
    one = _run_counts(monkeypatch, 1)
    two = _run_counts(monkeypatch, 2)
    extra = {name: two[name] - one[name] for name in one}
    assert extra["d_x1"] <= 7
    assert extra["d_x2"] <= 7
    assert extra["tangential_velocity"] <= 2
