import numpy as np
import pytest

from rbns.background import BackgroundField
from rbns.geometry import boundary_frames
from rbns.grid import MappedGrid


def test_eta_profile_values(flat_profile):
    grid = MappedGrid(flat_profile, 8, 41)
    bg = BackgroundField(0.1, grid)
    eta = bg.eta_profile
    x2 = grid.x2
    # wall traces and bulk plateau
    assert eta[0] == 1.0
    assert eta[-1] == 0.0
    j = np.argmin(np.abs(x2 - 0.5))
    assert eta[j] == pytest.approx(0.5)
    # inside the lower strip: eta(0.05) = 1 - 0.05/0.2 = 0.75
    j = np.argmin(np.abs(x2 - 0.05))
    assert eta[j] == pytest.approx(0.75)


def test_grad_eta_sq_flat(flat_profile):
    grid = MappedGrid(flat_profile, 8, 41)
    assert BackgroundField(0.1, grid).grad_eta_sq_avg == pytest.approx(5.0, rel=1e-14)


def test_grad_eta_sq_rough_strip_formula(sine_profile):
    grid = MappedGrid(sine_profile, 64, 41)
    bg = BackgroundField(0.1, grid)
    expected = float(np.mean(1.0 + grid.hp**2)) / 0.2
    assert bg.grad_eta_sq_avg == pytest.approx(expected, rel=1e-13)


def test_strip_formula_matches_grid_quadrature(flat_profile):
    # face-difference quadrature of the sampled profile converges at order ~2
    errs = []
    for n2 in (41, 81, 161):
        grid = MappedGrid(flat_profile, 8, n2)
        bg = BackgroundField(0.1, grid)
        prof = bg.eta_profile
        slopes = (prof[1:] - prof[:-1]) / grid.dx2
        quad = float(np.sum(slopes**2) * grid.dx2)  # exact for node-aligned kinks
        errs.append(abs(quad - bg.grad_eta_sq_avg))
    assert errs[-1] <= 1e-10  # delta = 0.1 aligns with all three grids


def test_theta_vanishes_on_walls(flat_profile):
    grid = MappedGrid(flat_profile, 8, 41)
    bg = BackgroundField(0.25, grid)
    temp = np.broadcast_to(1.0 - grid.x2, grid.shape).copy()
    th = bg.theta(temp)
    assert np.abs(th[:, 0]).max() <= 1e-15
    assert np.abs(th[:, -1]).max() <= 1e-15


def test_theta_ingredients_conduction(flat_profile, alpha_one):
    # closed forms for T = 1 - x2, u = 0:
    #   <|grad theta|^2> = 2 delta (1/(2 delta) - 1)^2 + (1 - 2 delta)
    #   <theta u . grad eta> = 0
    from reference_diagnostics import measure_fields

    grid = MappedGrid(flat_profile, 8, 161)
    walls = boundary_frames(flat_profile, 8, alpha_one)
    delta = 0.125
    bg = BackgroundField(delta, grid)
    temp = np.broadcast_to(1.0 - grid.x2, grid.shape).copy()
    row = measure_fields(grid, walls, temp, background=bg)
    gts, coupling = row["grad_theta_sq"], row["theta_u_grad_eta"]
    exact = 2 * delta * (1.0 / (2 * delta) - 1.0) ** 2 + (1.0 - 2 * delta)
    assert gts == pytest.approx(exact, rel=1e-10)
    assert coupling == pytest.approx(0.0, abs=1e-14)
    # the eta/theta representation reproduces the conduction Nusselt number
    nu = bg.grad_eta_sq_avg - gts - 2 * coupling
    assert nu == pytest.approx(1.0, rel=1e-10)


def test_delta_validation(flat_profile):
    grid = MappedGrid(flat_profile, 8, 41)
    with pytest.raises(ValueError):
        BackgroundField(0.7, grid)
    with pytest.raises(ValueError):
        BackgroundField(0.0, grid)
    with pytest.warns(UserWarning, match="fewer than 4 cells"):
        BackgroundField(0.05, MappedGrid(flat_profile, 8, 17))


def test_under_resolved_delta_warning_names_the_builder(flat_profile):
    # the warning points at the code that built the field, not into the
    # dataclass-generated __init__
    import rbns.runner
    from rbns.config import RunConfig

    grid = MappedGrid(flat_profile, 8, 17)
    with pytest.warns(UserWarning, match="fewer than 4 cells") as caught:
        BackgroundField(0.1, grid)
    assert [w.filename for w in caught] == [__file__]

    cfg = RunConfig()
    cfg.grid.n1, cfg.grid.n2 = 16, 17
    cfg.time.t_end = 0.0
    cfg.bounds.background_delta = 0.1
    with pytest.warns(UserWarning, match="fewer than 4 cells") as caught:
        rbns.runner.run_simulation(cfg)
    assert [w.filename for w in caught if "fewer than 4 cells" in str(w.message)] == [
        rbns.runner.__file__]
