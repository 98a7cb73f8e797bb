import math

import numpy as np
import pytest

from rbns.background import BackgroundField
from rbns.bounds import (
    BOUNDS_CSV_HEADER,
    Q_INGREDIENTS,
    BoundParams,
    choose_proof_parameters,
    evaluate_theorem1,
    evaluate_theorem2,
    q_form,
    sweep_slope,
)
from rbns.diagnostics import AVERAGED
from rbns.geometry import BoundaryNorms, ConditionReport, Side
from rbns.grid import MappedGrid
from rbns.reporting import assemble_report, conditions_from_norms
from rbns.solver import PhysicalParams


def norms_with(**kw):
    base = dict(alpha_min=1.0, kappa_inf=0.0, alpha_plus_kappa_inf=1.0,
                alpha_plus_kappa_w1inf=1.0, alpha_dot_inf=0.0, kappa_dot_inf=0.0,
                hprime_inf=0.0, height_range=0.0, gamma=1.0, n_samples=0)
    base.update(kw)
    return BoundaryNorms(**base)


def passing_condition(name="ec"):
    return ConditionReport(name=name, passed=True, margin=1.0, worst_y1=0.0,
                           worst_side=Side.BOTTOM, n_fail=0, n_samples=0)


def failing_condition(name="ec"):
    return ConditionReport(name=name, passed=False, margin=-0.1, worst_y1=0.0,
                           worst_side=Side.BOTTOM, n_fail=1, n_samples=0)


# --- theorem 1 ---------------------------------------------------------------

def test_theorem1_golden_values():
    ev = evaluate_theorem1(PhysicalParams(1e6, 1.0), norms_with(), 1.0, passing_condition())
    assert ev.bound_value == pytest.approx(1000.0, rel=1e-12)
    assert ev.applicable
    ev = evaluate_theorem1(PhysicalParams(1.0, 1.0), norms_with(), 1.0, passing_condition())
    assert ev.bound_value == pytest.approx(1.0, rel=1e-12)
    # sine-fixture curvature norm at Ra = 1e4
    kappa = 0.1 * (2 * np.pi) ** 2
    ev = evaluate_theorem1(PhysicalParams(1e4, 1.0), norms_with(kappa_inf=kappa),
                           1.0, passing_condition())
    assert ev.bound_value == pytest.approx(100.0 + kappa, rel=1e-12)


def test_theorem1_flags():
    ev = evaluate_theorem1(PhysicalParams(0.5, 1.0), norms_with(), 1.0, passing_condition())
    assert not ev.flags["ra_ok"] and not ev.applicable
    ev = evaluate_theorem1(PhysicalParams(10.0, 1.0), norms_with(), 1.0, failing_condition())
    assert not ev.flags["ec_ok"] and not ev.applicable


def test_theorem1_monotone_in_ra_and_kappa():
    values = [evaluate_theorem1(PhysicalParams(ra, 1.0), norms_with(kappa_inf=k),
                                2.0, passing_condition()).bound_value
              for ra, k in ((1e4, 0.0), (1e5, 0.0), (1e5, 1.0), (1e5, 2.0))]
    assert values == sorted(values) and len(set(values)) == len(values)


# --- proof parameters ---------------------------------------------------------

def test_choose_parameters_flat_b_is_half():
    p = choose_proof_parameters("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6),
                                norms_with())
    assert p.b == 0.5


def test_choose_parameters_delta_formula():
    ra = 1e6
    norms = norms_with()
    p = choose_proof_parameters("interp_kappa_leq_alpha", PhysicalParams(ra, 1e6), norms,
                                user_constant_c=1.0, u0_norm=1.0)
    # a0 = b / (8 C (u0^2 + adot^2 + kdot^2 + 1)) with b = 1/2: a0 = 1/32
    assert p.a0 == pytest.approx(1.0 / 32.0, rel=1e-12)
    assert p.a == pytest.approx(p.a0 * ra**-1.5, rel=1e-12)
    assert p.delta == pytest.approx((p.a0 * p.b / 8.0) ** (1 / 6) * ra ** (-5 / 12), rel=1e-12)
    assert p.big_m == pytest.approx(p.a * norms.alpha_plus_kappa_w1inf**2, rel=1e-12)
    # the reference arithmetic: a0 = 1, b = 1/2, C = 1 gives (1/16)^(1/6) 10^(-2.5)
    ref = (1.0 / 16.0) ** (1 / 6) * 10.0 ** (-2.5)
    assert ref == pytest.approx(1.9921e-3, rel=1e-4)


def test_choose_parameters_case_scalings():
    ra = 1e6
    p1 = choose_proof_parameters("interp_kappa_leq_alpha", PhysicalParams(ra, 1.0), norms_with())
    p3 = choose_proof_parameters("three_sevenths", PhysicalParams(ra, 1.0), norms_with())
    # a scales as a0 Ra^(-3/2) vs a0 Ra^(-11/7)
    assert p1.a / p1.a0 == pytest.approx(ra**-1.5, rel=1e-12)
    assert p3.a / p3.a0 == pytest.approx(ra ** (-11.0 / 7.0), rel=1e-12)
    assert p3.delta == pytest.approx((p3.a0 * p3.b / 4.0) ** (1 / 6) * ra ** (-3 / 7), rel=1e-12)
    p2 = choose_proof_parameters("interp_general", PhysicalParams(ra, 1.0),
                                 norms_with(alpha_min=0.25))
    assert p2.a0 == pytest.approx(math.sqrt(0.25) * p2.b / (8.0 * 2.0), rel=1e-12)


def test_choose_parameters_delta_override():
    p = choose_proof_parameters("interp_general", PhysicalParams(1e5, 1.0), norms_with(),
                                delta_override=0.125)
    assert p.delta == 0.125 and not p.used_proof_delta


def test_choose_parameters_rejects_unknown_case():
    with pytest.raises(ValueError):
        choose_proof_parameters("nope", PhysicalParams(1.0, 1.0), norms_with())


# --- theorem 2 ----------------------------------------------------------------

def test_theorem2_case1_golden():
    # ||a+k||_W1 = 1, C = 1, u0 norm = 0, derivative norms 0:
    # bound = Ra^(1/2) + Ra^(5/12) = 1000 + 316.23 at Ra = 1e6
    norms = norms_with(alpha_min=0.5)
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6), norms,
                           passing_condition(), user_constant_c=1.0, user_cbar=1.0,
                           u0_norm=0.0)
    expected = 1e3 + 10.0 ** 2.5
    assert ev.bound_value == pytest.approx(expected, rel=1e-12)
    assert ev.bound_value == pytest.approx(1316.2, rel=1e-4)


def test_theorem2_case1_regime_flags():
    # alpha_min = 0.5, Ra = 1e6: Pr threshold is 0.5^-1.5 * 1e4.5 ~ 8.94e4
    norms = norms_with(alpha_min=0.5, alpha_plus_kappa_inf=0.5)
    thresh = 0.5**-1.5 * 1e6**0.75
    assert thresh == pytest.approx(8.944e4, rel=1e-3)
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6), norms,
                           passing_condition())
    assert ev.flags["pr_ok"] and ev.flags["ra_ok"] and ev.applicable
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 5e4), norms,
                           passing_condition())
    assert not ev.flags["pr_ok"] and not ev.applicable


def test_theorem2_case3_pr_threshold():
    norms = norms_with(alpha_plus_kappa_inf=0.5)
    thresh = 1e6 ** (5.0 / 7.0)
    assert thresh == pytest.approx(1.93e4, rel=1e-2)
    ev = evaluate_theorem2("three_sevenths", PhysicalParams(1e6, 2e4), norms,
                           passing_condition())
    assert ev.flags["pr_ok"]
    ev = evaluate_theorem2("three_sevenths", PhysicalParams(1e6, 1.8e4), norms,
                           passing_condition())
    assert not ev.flags["pr_ok"]


def test_theorem2_case2_alpha_factors():
    norms = norms_with(alpha_min=0.25, alpha_plus_kappa_inf=0.5)
    ev = evaluate_theorem2("interp_general", PhysicalParams(1e6, 1e8), norms,
                           passing_condition(), u0_norm=0.0)
    expected = (math.sqrt(0.25) * 1.0 * 1e3
                + 0.25 ** (-1.0 / 12.0) * 10.0 ** 2.5)
    assert ev.bound_value == pytest.approx(expected, rel=1e-12)


def test_theorem2_alpha_min_quarter():
    # alpha_min = 1/4, N0 = 0.5, ||alpha'|| = 0.3, ||kappa'|| = 0.2 (they sum
    # with 1 to 2), ||alpha+kappa||_W1inf = 1.5, C = 2, max h - min h = 0.2;
    # expected values from the formulas of the bounds module's docs
    norms = norms_with(alpha_min=0.25, alpha_plus_kappa_w1inf=1.5, alpha_dot_inf=0.3,
                       kappa_dot_inf=0.2, height_range=0.2)
    physical = PhysicalParams(1e7, 1e6)
    # three_sevenths: a0 = alpha_min b / (8 C (N0^2 + alpha_min^-2 + 0.3^2 + 0.2^2 + 1))
    # with b = 1/(2 * 1.2) = 5/12
    p = choose_proof_parameters("three_sevenths", physical, norms, 2.0, 0.5)
    assert p.a0 == pytest.approx(0.25 * (5.0 / 12.0) / (16.0 * 17.38), rel=1e-12)
    # C_3/7 = C (1.5^2 + 4^(1/2) + 4^(1/6) 2^(1/3)) = 2 (4.25 + 2^(2/3))
    ev = evaluate_theorem2("three_sevenths", physical, norms, passing_condition(), 2.0,
                           u0_norm=0.5)
    assert ev.bound_value == pytest.approx(2.0 * (4.25 + 2.0 ** (2.0 / 3.0)) * 1e7 ** (3.0 / 7.0),
                                           rel=1e-12)
    # interp_general needs Ra^(-1) <= alpha_min, Ra >= 4; the flags keep their order
    for ra, ok in ((4.04, True), (3.96, False)):
        ev = evaluate_theorem2("interp_general", PhysicalParams(ra, 1e6), norms,
                               passing_condition())
        assert ev.flags["ra_ok"] == ok
        assert list(ev.flags) == ["condition_ok", "smallness_ok", "pr_ok", "ra_ok"]


def test_theorem2_smallness_flag():
    norms = norms_with(alpha_plus_kappa_inf=1.5)
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6), norms,
                           passing_condition(), user_cbar=1.0)
    assert not ev.flags["smallness_ok"]
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6), norms,
                           passing_condition(), user_cbar=2.0)
    assert ev.flags["smallness_ok"]


def test_conditions_from_norms_conservative():
    conds = conditions_from_norms(norms_with(alpha_min=1.0, kappa_inf=0.0))
    assert all(c.passed for c in conds.values())
    conds = conditions_from_norms(norms_with(alpha_min=0.04, kappa_inf=0.2))
    assert not conds["ec"].passed
    assert conds["ec"].margin == pytest.approx(0.13 - 0.2, abs=1e-12)


def test_csv_rows_carry_their_own_regime_flags():
    # Ra 1e4, Pr 10: below Pr >= Ra^(3/4) and Pr >= Ra^(5/7), so every
    # theorem-2 case fails its Pr regime; theorem1 has no Pr flag and
    # three_sevenths no Ra flag
    norms = norms_with()
    report = assemble_report(PhysicalParams(1e4, 10.0), norms, conditions_from_norms(norms),
                             measured_nu=2.0)
    header = BOUNDS_CSV_HEADER.split(",")
    rows = {row["case"]: row for row in (dict(zip(header, line.split(",")))
                                         for line in report.csv_rows())}
    assert {case: (row["pr_ok"], row["ra_ok"]) for case, row in rows.items()} == {
        "theorem1": ("", "1"),
        "interp_kappa_leq_alpha": ("0", "1"),
        "interp_general": ("0", "1"),
        "three_sevenths": ("0", ""),
    }
    for ev in report.evaluations:
        assert rows[ev.name]["applicable"] == str(int(ev.applicable))


# --- quadratic form -----------------------------------------------------------

def zero_averages():
    av = {"grad_theta_sq": 0.0, "theta_u_grad_eta": 0.0, "grad_u_sq": 0.0,
          "boundary_friction": 0.0}
    for k in ("grad_omega_sq", "wall_pressure", "buoyancy_torque",
              "wall_inertia", "wall_buoyancy"):
        av[f"ens:{k}"] = 0.0
    return av


def test_q_form_zero_averages(flat_profile):
    grid = MappedGrid(flat_profile, 8, 41)
    bg = BackgroundField(0.1, grid)
    params = BoundParams(a=1.0, b=0.0, big_m=0.0, a0=1.0, delta=0.1)
    res = q_form(zero_averages(), bg.grad_eta_sq_avg, params, PhysicalParams(10.0, 1.0),
                 norms_with(), nu_measured=0.0)
    assert res.q == pytest.approx(bg.grad_eta_sq_avg, rel=1e-14)


def test_q_form_conduction_closed_form(flat_profile):
    # u = 0, T = 1 - x2: Q = M Ra^2 + <|grad eta|^2> + <|grad theta|^2> and the
    # reconstruction identity returns Nu = 1 exactly
    grid = MappedGrid(flat_profile, 8, 161)
    delta = 0.125
    bg = BackgroundField(delta, grid)
    gts_exact = 2 * delta * (1 / (2 * delta) - 1.0) ** 2 + (1 - 2 * delta)
    av = zero_averages()
    av["grad_theta_sq"] = gts_exact
    ra = 100.0
    params = BoundParams(a=1e-3, b=0.5, big_m=2e-3, a0=1.0, delta=delta)
    res = q_form(av, bg.grad_eta_sq_avg, params, PhysicalParams(ra, 1.0), norms_with(),
                 nu_measured=1.0)
    expected_q = params.big_m * ra**2 + bg.grad_eta_sq_avg + gts_exact \
        + (params.b / ra) * 0.0 - (params.b / ra) * (0.0 - ra * (1.0 - 1.0))
    assert res.q == pytest.approx(expected_q, rel=1e-12)
    assert res.nu_eta_representation == pytest.approx(1.0, rel=1e-12)
    assert res.nu_reconstructed == pytest.approx(1.0, rel=1e-10)


def test_q_form_missing_ingredients_named(flat_profile):
    grid = MappedGrid(flat_profile, 8, 41)
    bg = BackgroundField(0.1, grid)
    params = BoundParams(a=1.0, b=0.1, big_m=0.0, a0=1.0, delta=0.1)
    av = zero_averages()
    av["grad_theta_sq"] = float("nan")
    del av["ens:wall_pressure"]
    with pytest.raises(ValueError) as err:
        q_form(av, bg.grad_eta_sq_avg, params, PhysicalParams(10.0, 1.0), norms_with(), 1.0)
    assert "grad_theta_sq" in str(err.value)
    assert "ens:wall_pressure" in str(err.value)


def test_q_ingredients_are_run_averages():
    # q_form reads a run's averages, so each ingredient must be one it reports
    assert set(Q_INGREDIENTS) <= set(AVERAGED)


def test_sweep_slope():
    ra = np.array([1e4, 10**4.5, 1e5])
    nu = 0.2 * ra**0.3
    assert sweep_slope(ra, nu) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError):
        sweep_slope([1e4], [2.0])
