import numpy as np
import pytest
from scipy.integrate import quad

from rbns.geometry import Side
from rbns.geometry import FourierSeries
from rbns.grid import (
    MappedGrid,
    apply_L_tilde,
    d_x2,
    grad_physical,
    level_index,
    line_integral,
    volume_integral,
)

from reference_diagnostics import boundary_trace


def make_grid(profile, n1=32, n2=33):
    return MappedGrid(profile, n1, n2)


def _d_x2_three_expressions(f, grid):
    """d_x2 as the centered and two one-sided expressions, each divided by 2 dx2."""
    out = np.empty_like(f)
    h = 2.0 * grid.dx2
    out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / h
    out[:, 0] = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / h
    out[:, -1] = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / h
    return out


@pytest.mark.parametrize("n1, n2", [(33, 34), (16, 35), (8, 9)])
def test_d_x2_matches_three_expressions_bit_for_bit(n1, n2):
    # one subtraction on the flattened array, in-place wall rows and one
    # division: the same operations per entry, on C-ordered and strided input
    g = MappedGrid(FourierSeries(gamma=1.0), n1, n2)
    rng = np.random.default_rng(n1 + n2)
    c_order = rng.standard_normal((n1, n2))
    transposed = np.ascontiguousarray(c_order.T).T
    sliced = rng.standard_normal((n1, n2 + 3))[:, 1:n2 + 1]
    for f in (c_order, transposed, sliced):
        assert np.array_equal(d_x2(f, g), _d_x2_three_expressions(f, g))


def test_grad_flat_trivial(flat_profile):
    g = make_grid(flat_profile)
    f = np.sin(2 * np.pi * g.x1)[:, None] * np.ones(g.n2)
    fy1, fy2 = grad_physical(f, g)
    assert np.allclose(fy1, 2 * np.pi * np.cos(2 * np.pi * g.x1)[:, None], atol=1e-11)
    assert np.abs(fy2).max() <= 1e-11


def test_grad_of_wall_distance(sine_profile):
    # f = x2 = y2 - h(y1), so the physical gradient is (-h', 1) exactly
    g = make_grid(sine_profile)
    f = np.broadcast_to(g.x2, g.shape).copy()
    fy1, fy2 = grad_physical(f, g)
    assert np.allclose(fy1, -g.hp[:, None], atol=1e-12)
    assert np.allclose(fy2, 1.0, atol=1e-12)


def test_grad_mms_order(sine_profile):
    errs = []
    for n2 in (17, 33, 65):
        g = make_grid(sine_profile, 32, n2)
        x1, x2 = g.x1[:, None], g.x2[None, :]
        f = np.sin(2 * np.pi * x1) * np.sin(np.pi * x2)
        ex1 = (2 * np.pi * np.cos(2 * np.pi * x1) * np.sin(np.pi * x2)
               - g.hp[:, None] * np.pi * np.sin(2 * np.pi * x1) * np.cos(np.pi * x2))
        ex2 = np.pi * np.sin(2 * np.pi * x1) * np.cos(np.pi * x2)
        fy1, fy2 = grad_physical(f, g)
        errs.append(max(np.abs(fy1 - ex1).max(), np.abs(fy2 - ex2).max()))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.9)


def test_L_tilde_flat_reduction(flat_profile):
    # empty mode list reduces to the plain spectral + 3-point Laplacian
    # (interior rows; the operator has no wall-row stencils)
    g = make_grid(flat_profile)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    fhat = np.fft.rfft(f, axis=0)
    standard = (np.fft.irfft(-g.k2[:, None] * fhat, n=g.n1, axis=0)[:, 1:-1]
                + (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / g.dx2**2)
    got = apply_L_tilde(f, g)
    scale = np.abs(standard).max()
    assert np.abs(got - standard).max() <= 1e-13 * scale


def test_L_tilde_annihilates_constants(sine_profile):
    g = make_grid(sine_profile)
    f = np.full(g.shape, 3.7)
    assert np.abs(apply_L_tilde(f, g)).max() <= 1e-10


def test_L_tilde_mms_order(sine_profile):
    errs = []
    for n2 in (17, 33, 65):
        g = make_grid(sine_profile, 32, n2)
        x1, x2 = g.x1[:, None], g.x2[None, :]
        hp, hpp = g.hp[:, None], g.hpp[:, None]
        f = np.sin(2 * np.pi * x1) * np.sin(np.pi * x2)
        fz = np.pi * np.sin(2 * np.pi * x1) * np.cos(np.pi * x2)
        fxz = 2 * np.pi**2 * np.cos(2 * np.pi * x1) * np.cos(np.pi * x2)
        lap = (-(2 * np.pi) ** 2 * f - 2 * hp * fxz
               + (1 + hp**2) * (-np.pi**2 * f) - hpp * fz)
        got = apply_L_tilde(f, g)
        errs.append(np.abs(got - lap[:, 1:-1]).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.9)


def test_L_tilde_interior_adjointness(sine_profile):
    # symmetric divergence form: <f, Lg> = <Lf, g> for wall-vanishing fields
    g = make_grid(sine_profile, 16, 17)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    f[:, 0] = f[:, -1] = 0.0
    h[:, 0] = h[:, -1] = 0.0
    lf = apply_L_tilde(f, g)
    lh = apply_L_tilde(h, g)
    a = np.sum(f[:, 1:-1] * lh)
    b = np.sum(lf * h[:, 1:-1])
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)


def test_volume_integral_flat(flat_profile):
    g = make_grid(flat_profile)
    assert volume_integral(np.ones(g.shape), g) == pytest.approx(1.0, rel=1e-14)
    f = np.broadcast_to(g.x2, g.shape).copy()
    assert volume_integral(f, g) == pytest.approx(0.5, rel=1e-13)


def test_line_integral_values(flat_profile, sine_profile):
    g = make_grid(flat_profile)
    assert line_integral(np.ones(g.n1), g) == pytest.approx(1.0, rel=1e-14)
    g = make_grid(sine_profile, 64, 17)
    exact, _ = quad(lambda y: np.sqrt(1 + (0.2 * np.pi * np.cos(2 * np.pi * y)) ** 2), 0, 1,
                    limit=200, epsabs=1e-14)
    assert line_integral(np.ones(g.n1), g) == pytest.approx(exact, abs=1e-12)
    # curvature integrates to zero along a wall (exact differential)
    kb = -g.hpp / (1 + g.hp**2) ** 1.5
    assert abs(line_integral(kb, g)) <= 1e-12


def test_level_index(flat_profile):
    g = make_grid(flat_profile, 8, 65)
    assert level_index(g, 0.25) == 16
    assert level_index(g, 0.0) == 0
    with pytest.raises(ValueError):
        level_index(g, 1.2)
    with pytest.raises(ValueError):
        level_index(g, -0.1)


def test_boundary_trace_kinds(flat_profile, sine_profile):
    g = make_grid(flat_profile)
    f = np.broadcast_to(g.x2, g.shape).copy()
    nd = boundary_trace(f, g, Side.BOTTOM, "normal_derivative")
    assert np.allclose(nd, -1.0, atol=1e-12)  # n_- = (0, -1)
    const = np.full(g.shape, 5.0)
    td = boundary_trace(const, g, Side.TOP, "tangential_derivative")
    assert np.abs(td).max() <= 1e-12
    assert np.array_equal(boundary_trace(f, g, Side.TOP, "value"), f[:, -1])

    # f = y2 on a rough grid: n . grad f = n . e2 = -1/sqrt(1+h'^2) on the bottom
    g = make_grid(sine_profile)
    f = g.x2[None, :] + np.asarray(sine_profile.evaluate(g.x1))[:, None]
    nd = boundary_trace(f, g, Side.BOTTOM, "normal_derivative")
    assert np.allclose(nd, -1.0 / g.ds_weight, atol=1e-10)

    with pytest.raises(ValueError):
        boundary_trace(f, g, Side.BOTTOM, "nonsense")


def test_metric_coefficients_spd(sine_profile):
    g = make_grid(sine_profile)
    # det of [[1, -h'], [-h', 1+h'^2]] is identically one
    det = 1.0 * (1 + g.hp**2) - g.hp**2
    assert np.allclose(det, 1.0, atol=1e-15)
