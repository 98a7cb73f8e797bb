"""Symmetry oracles: the half-turn and the mirror of the channel.

The Boussinesq problem is equivariant under the half-turn
(y1, y2) -> (-y1, 1 - y2), with T -> 1 - T, u -> -u and psi, omega
unchanged, whenever the walls map onto each other: an odd profile h and
the same alpha on both walls.  The mirror y1 -> -y1 (psi -> -psi,
omega -> -omega, u1 -> -u1) needs an even h and keeps each wall in place.
On the grid both are index maps: i -> -i mod n1, and j -> n2 - 1 - j for
the half-turn.  A run from mapped fields must be the mapped run, and its
diagnostics the same integrals; no formula is written twice.
"""

import numpy as np
import pytest

from rbns.checkpoint import read_checkpoint, write_checkpoint
from rbns.config import RunConfig
from rbns.diagnostics import ENSTROPHY_COLUMNS, measure, velocity_gradient_integrals
from rbns.runner import build_stepper, run_simulation
from rbns.solver import velocity_gradients

ODD_ONE = ((1, 0.0, 0.1),)
ODD_TWO = ((1, 0.0, 0.1), (3, 0.0, -0.05))
EVEN = ((1, 0.1, 0.0), (2, 0.03, 0.0))

# the row's integrals that neither map changes; under the half-turn the
# hydrostatic part of p moves between the wall pressure and wall buoyancy
# terms, so those two are compared as a sum
INVARIANT = ("energy", "enstrophy", "grad_u_sq", "nu_gradsq", "boundary_friction",
             "kappa_friction", "ak_friction", "ens:grad_omega_sq", "ens:buoyancy_torque",
             "ens:wall_inertia")
PRESSURE_SPLIT = ("ens:wall_pressure", "ens:wall_buoyancy")


def _reflect(f):
    """f at i -> -i mod n1 (the x1 reflection of periodic grid values)."""
    return np.roll(f[::-1], 1, axis=0)


def _half_turn(f):
    return _reflect(f)[:, ::-1]


# per symmetry, the maps of temp, psi, omega, u1 and u2
MAPS = {
    "half_turn": (lambda f: 1.0 - _half_turn(f), _half_turn, _half_turn,
                  lambda f: -_half_turn(f), lambda f: -_half_turn(f)),
    "mirror": (_reflect, lambda f: -_reflect(f), lambda f: -_reflect(f),
               lambda f: -_reflect(f), _reflect),
}


def _image(symmetry, *fields):
    """The images of (temp, psi, omega, u1, u2), or of as many of them as given."""
    return tuple(m(f) for m, f in zip(MAPS[symmetry], fields))


def _config(modes, n1, n2):
    cfg = RunConfig()
    cfg.geometry.modes = modes
    cfg.physical.ra, cfg.physical.pr = 1e4, 10.0
    cfg.grid.n1, cfg.grid.n2 = n1, n2
    return cfg


def _initial_fields(grid):
    """A multi-mode start with no symmetry of its own; exact wall rows."""
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    temp = 1.0 - x2 + 0.05 * np.sin(np.pi * x2) * (np.cos(2.0 * np.pi * x1)
                                                    + 0.7 * np.sin(4.0 * np.pi * x1 + 0.3))
    temp[:, 0], temp[:, -1] = 1.0, 0.0
    psi = 2.0 * np.sin(np.pi * x2) ** 2 * (np.sin(2.0 * np.pi * x1 + 0.4)
                                           + 0.5 * np.cos(4.0 * np.pi * x1))
    psi[:, 0] = psi[:, -1] = 0.0
    return temp, psi


def _fields(state):
    return state.temp, state.psi, state.omega, state.u1, state.u2


def _sample(stepper, state):
    grid = stepper.grid
    derivs = stepper.state_derivatives(state)
    derivs.grad_u = velocity_gradients(state, grid)
    grad_u_sq = velocity_gradient_integrals(derivs.grad_u, grid)
    pressure, info = stepper.recover_pressure(state, derivs)
    return measure(state, grid, stepper.walls, stepper.params.pr, stepper.params.ra, derivs,
                   grad_u_sq, pressure=pressure, pressure_defect=info.compat_defect)


def _assert_mapped_fields(got, want):
    for name, g, w in zip(("temp", "psi", "omega", "u1", "u2"), got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def _assert_same_integrals(got, want, columns):
    # an enstrophy term is held to the budget's scale as well: on flat walls
    # the wall inertia is zero to rounding
    budget = 1e-9 * max(abs(want[name]) for name in ENSTROPHY_COLUMNS)
    for name in columns:
        tol = budget if name in ENSTROPHY_COLUMNS else 0.0
        assert got[name] == pytest.approx(want[name], rel=1e-9, abs=tol), name
    assert sum(got[n] for n in PRESSURE_SPLIT) == pytest.approx(
        sum(want[n] for n in PRESSURE_SPLIT), rel=1e-9, abs=budget)


@pytest.mark.parametrize("symmetry, modes, n1, n2, steps", [
    ("half_turn", (), 16, 17, 40),
    ("half_turn", ODD_ONE, 16, 17, 40),
    ("half_turn", ODD_ONE, 32, 33, 10),
    ("half_turn", ODD_TWO, 16, 17, 40),
    ("half_turn", ODD_TWO, 32, 33, 10),
    ("mirror", EVEN, 16, 17, 40),
    ("mirror", EVEN, 32, 33, 10),
], ids=["half_turn-flat-16", "half_turn-one_mode-16", "half_turn-one_mode-32",
        "half_turn-two_modes-16", "half_turn-two_modes-32", "mirror-even-16", "mirror-even-32"])
def test_step_is_equivariant(symmetry, modes, n1, n2, steps):
    stepper = build_stepper(_config(modes, n1, n2))
    temp, psi = _initial_fields(stepper.grid)
    state = stepper.state_from_fields(temp, psi)
    image = stepper.state_from_fields(*_image(symmetry, temp, psi))
    for _ in range(steps):
        state = stepper.step(state, 2e-4, stepper.state_derivatives(state))
        image = stepper.step(image, 2e-4, stepper.state_derivatives(image))
    _assert_mapped_fields(_fields(image), _image(symmetry, *_fields(state)))
    row, mapped_row = _sample(stepper, state), _sample(stepper, image)
    # the mirror keeps each wall in place: every integral of the row is invariant
    columns = INVARIANT if symmetry == "half_turn" else [*row.keys()]
    _assert_same_integrals(mapped_row, row, columns)


def test_resumed_half_turned_run_is_the_half_turned_run(tmp_path):
    # a run resumed from the half-turned fields of a checkpoint: both runs go
    # on from state_from_fields of written fields, sampled every step
    cfg = _config(ODD_ONE, 16, 17)
    cfg.time.dt, cfg.time.t_end = 2e-4, 4e-3
    cfg.time.sample_interval, cfg.time.checkpoint_interval = 2e-4, 2e-3
    cfg.initial.temp_perturbation, cfg.initial.u0_amplitude = 0.05, 1.0
    cfg.output.pressure_every = 1
    run = run_simulation(cfg, str(tmp_path / "run"))
    mid = read_checkpoint(next(p for p in run.checkpoints if "checkpoint_000001" in p))
    assert mid.psi_top == 0.0              # psi -> psi keeps psi = 0 on the bottom wall
    mid.temp, mid.psi, mid.omega = _image("half_turn", mid.temp, mid.psi, mid.omega)
    path = tmp_path / "half_turned.ckpt"
    write_checkpoint(path, mid)
    resumed = run_simulation(cfg, resume=str(path))
    assert not run.aborted and not resumed.aborted
    assert resumed.steps_taken == 10
    _assert_mapped_fields(_fields(resumed.final_state),
                          _image("half_turn", *_fields(run.final_state)))
    rows = {r["time"]: r for r in run.recorder.records}
    mapped_rows = {r["time"]: r for r in resumed.recorder.records}
    assert len(mapped_rows) == 10 and mapped_rows.keys() <= rows.keys()
    for time, mapped_row in mapped_rows.items():
        _assert_same_integrals(mapped_row, rows[time], INVARIANT)
