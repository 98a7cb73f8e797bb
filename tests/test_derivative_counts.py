"""Each field is differentiated once per step and once per sample.

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
from rbns.diagnostics import measure
from rbns.runner import build_stepper, initial_stream_function, initial_temperature


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


@pytest.fixture
def flat_state():
    cfg = RunConfig()
    cfg.physical.ra, cfg.physical.pr = 1e4, 10.0
    cfg.grid.n1, cfg.grid.n2 = 16, 17
    cfg.initial.u0_amplitude = 1.0
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    return stepper, state


def test_flat_step_takes_five_x1_derivatives(monkeypatch, flat_state):
    # temperature and vorticity gradients, the two x1 fluxes of the skew
    # advection, and the new velocity; buoyancy reuses the temperature gradient
    stepper, state = flat_state
    assert stepper.coupling_sweeps == 0
    calls = _count_calls(monkeypatch, "d_x1")
    stepper.step(state, 1e-4)
    assert len(calls) <= 5


def test_measure_differentiates_each_field_once(monkeypatch, flat_state):
    stepper, state = flat_state
    state = stepper.step(state, 1e-4)
    pressure, _ = stepper.recover_pressure(state)
    background = build_background(0.25, stepper.grid)
    d_x1_calls = _count_calls(monkeypatch, "d_x1")
    u_tau_calls = _count_calls(monkeypatch, "tangential_velocity")
    rec = measure(state.time, state.omega, state.temp, state.u1, state.u2, stepper.grid,
                  stepper.bottom, stepper.top, 10.0, 1e4,
                  pressure=pressure, background=background)
    assert np.isfinite(rec.grad_theta_sq)
    assert all(np.isfinite(v) for v in rec.enstrophy_terms.values())
    # grad T, grad u1, grad u2 and grad omega; one u_tau per wall
    assert len(d_x1_calls) <= 4
    assert len(u_tau_calls) <= 2
