import dataclasses
import math

import numpy as np
import pytest

from rbns.geometry import (
    CONDITIONS,
    FourierSeries,
    Side,
    boundary_frames,
    boundary_norms,
    check_conditions,
    curvature,
    evaluate_height,
)
from rbns.reporting import conditions_from_norms


def test_flat_profile_orders(flat_profile):
    prof = FourierSeries(gamma=1.0, offset=0.3)
    assert evaluate_height(prof, 0.7, 0) == 0.3
    for order in (1, 2, 3):
        assert evaluate_height(prof, 0.7, order) == 0.0


def test_height_derivatives_match_series_oracle(sine_profile):
    # closed-form derivatives of 0.1 sin(2 pi y)
    w = 2 * np.pi
    y = np.linspace(0, 1, 13)
    assert np.allclose(evaluate_height(sine_profile, y, 0), 0.1 * np.sin(w * y), atol=1e-15)
    assert np.allclose(evaluate_height(sine_profile, y, 1), 0.1 * w * np.cos(w * y), atol=1e-13)
    assert np.allclose(evaluate_height(sine_profile, y, 2), -0.1 * w**2 * np.sin(w * y), atol=1e-12)
    assert np.allclose(evaluate_height(sine_profile, y, 3), -0.1 * w**3 * np.cos(w * y), atol=1e-11)
    # spot values
    assert evaluate_height(sine_profile, 0.25, 2) == pytest.approx(-0.1 * w**2)
    assert evaluate_height(sine_profile, 0.0, 1) == pytest.approx(0.1 * w)


def test_height_rejects_bad_order(sine_profile):
    with pytest.raises(ValueError):
        evaluate_height(sine_profile, 0.1, 4)
    with pytest.raises(ValueError):
        evaluate_height(sine_profile, 0.1, -1)


def test_curvature_flat_and_sine(flat_profile, sine_profile):
    assert curvature(flat_profile, 0.3, Side.BOTTOM) == 0.0
    assert curvature(flat_profile, 0.3, Side.TOP) == 0.0
    # at y1 = 0.25 the slope vanishes and h'' = -0.1 (2 pi)^2
    k_bot = curvature(sine_profile, 0.25, Side.BOTTOM)
    assert k_bot == pytest.approx(0.1 * (2 * np.pi) ** 2, rel=1e-12)
    y = np.linspace(0, 1, 57)
    assert np.array_equal(curvature(sine_profile, y, Side.TOP),
                          -curvature(sine_profile, y, Side.BOTTOM))


def test_boundary_frames_flat(flat_profile, alpha_one):
    walls = boundary_frames(flat_profile, 16, alpha_one)
    assert walls.alpha.shape == walls.kappa.shape == (2, 16)
    assert walls.normal.shape == walls.tangent.shape == (2, 16, 2)
    assert walls.ds_weight.shape == (16,)
    assert np.allclose(walls.normal[0], [0.0, -1.0])
    assert np.allclose(walls.tangent[0], [1.0, 0.0])
    assert np.allclose(walls.normal[1], [0.0, 1.0])
    assert np.allclose(walls.tangent[1], [-1.0, 0.0])
    assert np.allclose(walls.ds_weight, 1.0)
    assert np.all(walls.kappa == 0.0)
    assert walls.alpha_min == 1.0
    assert walls.n_samples == 16


def test_boundary_frames_sine_invariants(sine_profile, alpha_one):
    walls = boundary_frames(sine_profile, 256, alpha_one)
    for normal, tangent in zip(walls.normal, walls.tangent):
        assert np.abs(np.linalg.norm(normal, axis=1) - 1.0).max() <= 1e-14
        assert np.abs(np.linalg.norm(tangent, axis=1) - 1.0).max() <= 1e-14
        assert np.abs(np.einsum("ij,ij->i", normal, tangent)).max() <= 1e-14
        # tangent is normal rotated by +90 degrees
        rot = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
        assert np.array_equal(tangent, rot)
    # outward normals: n = +-(-h', 1)/sqrt(1+h'^2)
    hp = sine_profile.evaluate(walls.y1, 1)
    w = np.sqrt(1 + hp**2)
    assert np.allclose(walls.normal[1, :, 0], -hp / w, atol=1e-14)
    assert np.allclose(walls.normal[0, :, 1], -1.0 / w, atol=1e-14)
    # ds weight at y1 = 0: sqrt(1 + (0.2 pi)^2)
    assert walls.ds_weight[0] == pytest.approx(np.sqrt(1 + (0.2 * np.pi) ** 2), rel=1e-14)
    # curvature antisymmetry is exact by construction
    assert np.array_equal(walls.kappa[1], -walls.kappa[0])
    # kappa dS is an exact differential: closed integral vanishes on each wall
    closure = walls.line_integral(walls.kappa)
    assert closure.shape == (2,)
    assert np.abs(closure).max() <= 1e-12
    assert closure[0] == walls.line_integral(walls.kappa[0])


def test_alpha_sampling_and_minimum(flat_profile):
    alpha = FourierSeries(gamma=1.0, offset=1.0, modes=((1, 0.5, 0.0),))
    walls = boundary_frames(flat_profile, 64, alpha)
    assert walls.alpha_min == pytest.approx(0.5, abs=1e-14)
    assert np.array_equal(walls.alpha[0], walls.alpha[1])


def test_negative_alpha_rejected(flat_profile):
    alpha = FourierSeries(gamma=1.0, offset=0.2, modes=((1, 0.5, 0.0),))
    with pytest.raises(ValueError, match="negative on the bottom wall"):
        boundary_frames(flat_profile, 64, alpha)
    with pytest.raises(ValueError, match="negative on the top wall"):
        boundary_frames(flat_profile, 64, FourierSeries(gamma=1.0, offset=1.0), alpha)


def test_independent_wall_alphas(flat_profile):
    a_b = FourierSeries(gamma=1.0, offset=1.0)
    a_t = FourierSeries(gamma=1.0, offset=0.25)
    walls = boundary_frames(flat_profile, 32, a_b, a_t)
    assert np.all(walls.alpha[0] == 1.0)
    assert np.all(walls.alpha[1] == 0.25)
    assert walls.alpha_min == 0.25  # joint minimum over both walls


def test_refinement_consistency_of_norms(sine_profile, flat_profile):
    # extrema of alpha + kappa sit on grid points for these band-limited
    # inputs, so the sup-norm estimate is refinement-stable to round-off
    alpha = FourierSeries(gamma=1.0, offset=1.0, modes=((2, 0.3, 0.0),))
    n1 = boundary_norms(sine_profile, boundary_frames(sine_profile, 512, alpha))
    n2 = boundary_norms(sine_profile, boundary_frames(sine_profile, 1024, alpha))
    assert abs(n1.alpha_plus_kappa_inf - n2.alpha_plus_kappa_inf) < 1e-10
    # flat walls with cos-aligned alpha: the W1inf estimate is stable too
    n1 = boundary_norms(flat_profile, boundary_frames(flat_profile, 512, alpha))
    n2 = boundary_norms(flat_profile, boundary_frames(flat_profile, 1024, alpha))
    assert abs(n1.alpha_plus_kappa_w1inf - n2.alpha_plus_kappa_w1inf) < 1e-10


def _with_kappa(walls, kappa_bottom, kappa_top):
    kappa = np.array((np.full(walls.n_samples, kappa_bottom), np.full(walls.n_samples, kappa_top)))
    return dataclasses.replace(walls, kappa=kappa)


def test_condition_ec_flat_alpha_one(flat_profile, alpha_one):
    rep = check_conditions(boundary_frames(flat_profile, 64, alpha_one))["ec"]
    assert rep.passed
    assert rep.margin == pytest.approx(2.25, abs=1e-14)
    assert rep.n_samples == 128


def test_condition_ec_failure_case(flat_profile):
    # alpha = 0.04, |kappa| = 0.2: rhs = 0.08 + 0.25*min(1, 0.2) = 0.13 < 0.2
    walls = _with_kappa(boundary_frames(flat_profile, 32, FourierSeries(gamma=1.0, offset=0.04)),
                        -0.2, 0.2)
    rep = check_conditions(walls)["ec"]
    assert not rep.passed
    assert rep.margin == pytest.approx(0.13 - 0.2, abs=1e-14)
    assert rep.n_fail == 64
    # equal margins on both walls: the tie goes to the bottom wall's first sample
    assert rep.worst_side is Side.BOTTOM and rep.worst_y1 == 0.0


def test_condition_ec_zero_kappa_any_alpha(flat_profile):
    alpha = FourierSeries(gamma=1.0, offset=0.0, modes=((1, 0.0, 0.0),))
    rep = check_conditions(boundary_frames(flat_profile, 32, alpha))["ec"]
    assert rep.passed  # rhs >= 0 = |kappa|


def test_condition_theorem2_variants(flat_profile):
    # alpha = 0.01, |kappa| = 0.03: strong variant fails, general passes
    walls = _with_kappa(boundary_frames(flat_profile, 32, FourierSeries(gamma=1.0, offset=0.01)),
                        0.03, -0.03)
    reports = check_conditions(walls)
    assert list(reports) == list(CONDITIONS) == ["ec", "theorem2_kappa_leq_alpha", "theorem2_general"]
    rep_strong = reports["theorem2_kappa_leq_alpha"]
    assert not rep_strong.passed
    assert rep_strong.margin == pytest.approx(0.01 - 0.03, abs=1e-14)
    rep_gen = reports["theorem2_general"]
    assert rep_gen.passed
    assert rep_gen.margin == pytest.approx(0.02 + 0.25 * 0.1 - 0.03, abs=1e-14)


def test_theorem2_norms_example(flat_profile):
    # alpha = 0.1 + 0.05 cos(2 pi y): W1inf norm is max(0.15, 0.05*2pi)
    alpha = FourierSeries(gamma=1.0, offset=0.1, modes=((1, 0.05, 0.0),))
    norms = boundary_norms(flat_profile, boundary_frames(flat_profile, 1024, alpha))
    assert norms.alpha_plus_kappa_inf == pytest.approx(0.15, abs=1e-12)
    assert norms.alpha_plus_kappa_w1inf == pytest.approx(0.05 * 2 * np.pi, rel=1e-6)
    assert norms.n_samples == 1024


def test_trivial_theorem2_flat_alpha_one(flat_profile, alpha_one):
    walls = boundary_frames(flat_profile, 64, alpha_one)
    assert all(rep.passed for rep in check_conditions(walls).values())
    assert boundary_norms(flat_profile, walls).alpha_plus_kappa_inf == pytest.approx(1.0)


def test_only_top_wall_failing_is_reported_on_top(sine_profile):
    # alpha_top = 0.01 against |kappa| up to 0.4 pi^2: only the top row fails
    walls = boundary_frames(sine_profile, 64, FourierSeries(gamma=1.0, offset=4.0),
                            FourierSeries(gamma=1.0, offset=0.01))
    for name, rep in check_conditions(walls).items():
        rhs = CONDITIONS[name](walls.alpha, walls.ds_weight)
        margin = rhs - np.abs(walls.kappa)
        assert np.all(margin[0] >= 0.0), name
        assert not rep.passed and rep.worst_side is Side.TOP
        i = int(np.argmin(margin[1]))
        assert rep.worst_y1 == walls.y1[i]
        assert rep.margin == margin[1, i]
        assert rep.n_fail == np.count_nonzero(margin[1] < 0.0)
        assert 0 < rep.n_fail < walls.n_samples
        assert rep.n_samples == 2 * walls.n_samples


@pytest.mark.parametrize("alpha", [0.01, 0.25, 1.0, 4.0])
def test_pure_formula_margins_equal_pointwise_on_flat_walls(flat_profile, alpha):
    # constant alpha and kappa = 0: the sup-norm evaluation is exact
    walls = boundary_frames(flat_profile, 32, FourierSeries(gamma=1.0, offset=alpha))
    norms = boundary_norms(flat_profile, walls)
    pointwise = check_conditions(walls)
    pure = conditions_from_norms(norms)
    assert list(pure) == list(pointwise)
    for name in CONDITIONS:
        assert pure[name].margin == pointwise[name].margin, name
        assert pure[name].passed == pointwise[name].passed
    assert pure["ec"].margin == 2.0 * alpha + min(1.0, math.sqrt(alpha)) / 4.0
