"""A run holds each full-size array only until its last use.

Memory is counted in field sizes, n1 * n2 float64 values: the step, the
solves and the sample allocate arrays of about that size (coefficient
arrays of interior rows are (n2 - 2, n1//2 + 1) complex).
"""

import tracemalloc
import weakref

import pytest

from rbns.config import RunConfig
from rbns.runner import run_simulation
from rbns.solver import BoussinesqStepper


def _rough_config(n1, n2, steps):
    cfg = RunConfig()
    cfg.geometry.modes = ((1, 0.0, 0.1),)
    cfg.physical.ra, cfg.physical.pr = 1e4, 10.0
    cfg.grid.n1, cfg.grid.n2 = n1, n2
    cfg.initial.u0_amplitude = 1.0
    dt = 1e-4
    cfg.time.dt, cfg.time.t_end, cfg.time.sample_interval = dt, steps * dt, dt
    cfg.output.pressure_every = 1
    return cfg


def test_rough_run_traced_peak():
    # six rough steps, each sampled with pressure; the warm-up run builds the
    # shared x2 bases, so the traced run holds only what a run allocates.
    # Was 38 fields while the run kept its start state and each solve its
    # spare copies, and 28.9 while the sample held omega's derivatives and
    # the pressure right-hand side through the Neumann solve (now 24.8).
    n1, n2 = 64, 65
    run_simulation(_rough_config(n1, n2, 6))
    tracemalloc.start()
    try:
        res = run_simulation(_rough_config(n1, n2, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.steps_taken == 6 and not res.aborted
    assert peak <= 27 * n1 * n2 * 8


@pytest.mark.parametrize("resumed", [False, True], ids=["start", "resumed"])
def test_start_state_released_once_the_run_moves_on(monkeypatch, tmp_path, resumed):
    resume = None
    if resumed:
        run_simulation(_rough_config(16, 17, 1), output_dir=str(tmp_path))
        resume = str(tmp_path / "checkpoints" / "final.ckpt")
    step = BoussinesqStepper.step
    refs, dead = [], []

    def recorded(self, state, *args, **kwargs):
        dead.append([ref() is None for ref in refs])
        refs.append(weakref.ref(state.omega))
        return step(self, state, *args, **kwargs)

    monkeypatch.setattr(BoussinesqStepper, "step", recorded)
    res = run_simulation(_rough_config(16, 17, 4 if resumed else 3), resume=resume)
    assert res.steps_taken == 3
    # at the second step the first state is gone, at the third also the second
    assert dead == [[], [True], [True, True]]
