"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  The two long fixtures (the statistically steady flat run
at Ra = 1e5 on 128 x 129 and the rough-wall run at Ra = 1e4) are shared
across criteria 5-8.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rbns.bounds import choose_proof_parameters, evaluate_theorem1, evaluate_theorem2
from rbns.config import RunConfig, parse_config, serialize_config
from rbns.diagnostics import STRIP_COLUMNS
from rbns.geometry import boundary_frames, check_conditions
from rbns.runner import run_simulation
from rbns.scaling import DimensionalSetup, curvature_scaling, ratio_for_target_exponent
from rbns.solver import PhysicalParams
from rbns.verify import decay_fixture, decay_rate_check, geometry_suite, mms_suite
from rbns.reporting import conditions_from_norms


def _report(criterion: int, ok: bool, detail: str, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}{stamp}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared long fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flat_run():
    cfg = RunConfig()
    cfg.physical.ra = 1e5
    cfg.physical.pr = 10.0
    cfg.grid.n1, cfg.grid.n2 = 128, 129
    cfg.time.t_end = 0.25
    cfg.time.burn_in = 0.1
    cfg.time.sample_interval = 1e-4
    cfg.initial.temp_perturbation = 0.01
    cfg.bounds.background_delta = 0.125
    cfg.output.pressure_every = 10
    t0 = time.time()
    res = run_simulation(cfg)
    res.elapsed = time.time() - t0
    assert not res.aborted
    return res


@pytest.fixture(scope="module")
def rough_run():
    cfg = RunConfig()
    cfg.geometry.modes = ((1, 0.0, 0.1),)
    cfg.physical.ra = 1e4
    cfg.physical.pr = 10.0
    cfg.grid.n1, cfg.grid.n2 = 64, 65
    cfg.time.t_end = 0.5
    cfg.time.burn_in = 0.25
    cfg.time.sample_interval = 2.5e-4
    cfg.initial.temp_perturbation = 0.01
    cfg.output.pressure_every = 10
    t0 = time.time()
    res = run_simulation(cfg)
    res.elapsed = time.time() - t0
    assert not res.aborted
    return res


# ---------------------------------------------------------------------------
# 1. geometry identities
# ---------------------------------------------------------------------------

def test_criterion_1_geometry_identities():
    t0 = time.time()
    rows = geometry_suite()
    elapsed = time.time() - t0
    bad = [name for name, ok, _ in rows if not ok]
    _report(1, not bad and elapsed < 1.0,
            f"{len(rows)} identities on flat and sine fixtures"
            + (f"; failing: {bad}" if bad else ""), elapsed)


# ---------------------------------------------------------------------------
# 2. MMS convergence
# ---------------------------------------------------------------------------

def test_criterion_2_mms_orders():
    t0 = time.time()
    rows = mms_suite()
    elapsed = time.time() - t0
    bad = [name for name, ok, _ in rows if not ok]
    _report(2, not bad and elapsed < 30.0,
            "; ".join(f"{name}: {detail}" for name, _, detail in rows), elapsed)


# ---------------------------------------------------------------------------
# 3. conduction exactness
# ---------------------------------------------------------------------------

def test_criterion_3_conduction():
    t0 = time.time()
    cfg = RunConfig()
    cfg.physical.ra = 100.0  # far below onset
    cfg.physical.pr = 10.0
    cfg.grid.n1, cfg.grid.n2 = 64, 65
    cfg.time.dt = 5e-4
    cfg.time.t_end = 0.5  # exactly 1000 steps
    cfg.time.sample_interval = 0.05
    cfg.initial.temp_perturbation = 0.0
    res = run_simulation(cfg)
    row = res.recorder.records[-1]
    nu_all = [row[name] for name in ("nu_flux", "nu_gradsq", *STRIP_COLUMNS)]
    nu_dev = max(abs(v - 1.0) for v in nu_all)
    u_norm = math.sqrt(row["energy"])
    elapsed = time.time() - t0
    _report(3, res.steps_taken == 1000 and nu_dev <= 1e-6 and u_norm <= 1e-8
            and elapsed < 30.0,
            f"after {res.steps_taken} steps: max |Nu - 1| = {nu_dev:.2e}, "
            f"||u||_2 = {u_norm:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 4. quantitative energy decay
# ---------------------------------------------------------------------------

def test_criterion_4_energy_decay():
    t0 = time.time()
    cfg = decay_fixture(n1=48, n2=49, pr=1.0, t_end=0.25, dt=5e-4)
    profile = cfg.geometry.profile()
    ec = check_conditions(boundary_frames(profile, 1024, *cfg.boundary.series(profile.gamma)))["ec"]
    rate, bound_rate, t, e = decay_rate_check(cfg)
    envelope_ok = bool(np.all(e <= e[0] * np.exp(-bound_rate * t) * 1.05 + 1e-300))
    elapsed = time.time() - t0
    _report(4, ec.passed and rate >= 0.95 * bound_rate and envelope_ok
            and elapsed < 60.0,
            f"fitted rate {rate:.3f} >= 0.95 x bound rate {bound_rate:.3f}; "
            f"condition ec margin {ec.margin:.3g}; energy under envelope", elapsed)


# ---------------------------------------------------------------------------
# 5. balance residuals on the statistically steady fixture
# ---------------------------------------------------------------------------

def test_criterion_5_balance_residuals(flat_run):
    rec = flat_run.recorder
    e_res = rec.mean_abs_energy_residual()
    s_res = rec.final_enstrophy_residual()
    nu = rec.average("nu_flux")
    _report(5, e_res <= 1e-3 and s_res <= 5e-3 and flat_run.elapsed < 600.0
            and 2.0 < nu < 20.0,
            f"energy residual {e_res:.2e} <= 1e-3, enstrophy residual "
            f"{s_res:.2e} <= 5e-3 (nu = {nu:.3f})", flat_run.elapsed)


# ---------------------------------------------------------------------------
# 6. Nusselt representation equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_nusselt_equivalence(flat_run):
    av = flat_run.recorder.averages()
    nu = av["nu_flux"]
    gap = abs(av["nu_flux"] - av["nu_gradsq"])
    strips = [av["nu_strip_25"], av["nu_strip_50"], av["nu_strip_75"]]
    spread = max(strips) - min(strips)
    _report(6, gap <= 0.03 * nu and spread <= 0.03 * nu,
            f"|nu_flux - nu_gradsq| = {gap / nu:.3%} of nu, "
            f"strip spread = {spread / nu:.3%} of nu")


# ---------------------------------------------------------------------------
# 7. inequality checks (flat and rough)
# ---------------------------------------------------------------------------

def test_criterion_7_inequalities(flat_run, rough_run):
    oks, details = [], []
    for label, run in (("flat", flat_run), ("rough", rough_run)):
        rec = run.recorder
        defect = rec.nusselt_inequality_defect()
        slack, _ = rec.energy_inequality_slack()
        oks.append(defect >= -1e-3 and slack >= -1e-3)
        details.append(f"{label}: nu ineq defect {defect:+.2e}, "
                       f"energy ineq slack {slack:+.2e}")
    _report(7, all(oks), "; ".join(details))


# ---------------------------------------------------------------------------
# 8. background-field identity
# ---------------------------------------------------------------------------

def test_criterion_8_background_identity(flat_run):
    rec = flat_run.recorder
    nu_eta = rec.nu_eta_corrected()
    nu_ref = rec.average("nu_gradsq")
    rel = abs(nu_eta - nu_ref) / nu_ref
    _report(8, rel <= 0.05,
            f"nu from eta/theta = {nu_eta:.4f} vs nu_gradsq = {nu_ref:.4f} "
            f"({rel:.3%})")


def test_invariant_omega_lp_bounded(flat_run):
    # ||w||_p stays bounded in time for p in {2, 4, 8} at fixed Ra: the
    # post-transient maxima do not grow over the window
    rec = flat_run.recorder
    for p in (2, 4, 8):
        vals = rec.column(f"omega_l{p}")[rec.column("time") >= rec.burn_in]
        half = len(vals) // 2
        assert np.max(vals[half:]) <= 2.0 * np.max(vals[:half])
        assert np.isfinite(vals).all()


# ---------------------------------------------------------------------------
# 9. bound formulas and condition flags
# ---------------------------------------------------------------------------

def _norms_with(**kw):
    from rbns.geometry import BoundaryNorms

    base = dict(alpha_min=1.0, kappa_inf=0.0, alpha_plus_kappa_inf=1.0,
                alpha_plus_kappa_w1inf=1.0, alpha_dot_inf=0.0, kappa_dot_inf=0.0,
                hprime_inf=0.0, height_range=0.0, gamma=1.0, n_samples=0)
    base.update(kw)
    return BoundaryNorms(**base)


def _passing_condition():
    from rbns.geometry import ConditionReport, Side

    return ConditionReport(name="ec", passed=True, margin=1.0, worst_y1=0.0,
                           worst_side=Side.BOTTOM, n_fail=0, n_samples=0)


def test_criterion_9_bound_formulas():
    t0 = time.time()
    ok = True
    checks = []

    def expect(name, got, want, rel=1e-12):
        nonlocal ok
        good = math.isclose(got, want, rel_tol=rel)
        ok = ok and good
        checks.append(f"{name}{'' if good else '!=' + repr(want)}")

    norms_with, passing_condition = _norms_with, _passing_condition

    # golden bound values
    ev = evaluate_theorem1(PhysicalParams(1e6, 1.0), norms_with(), 1.0, passing_condition())
    expect("thm1@1e6", ev.bound_value, 1000.0)
    kappa = 0.1 * (2 * math.pi) ** 2
    ev = evaluate_theorem1(PhysicalParams(1e4, 1.0), norms_with(kappa_inf=kappa),
                           1.0, passing_condition())
    expect("thm1@1e4+kappa", ev.bound_value, 100.0 + kappa)
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6),
                           norms_with(alpha_min=0.5), passing_condition(), u0_norm=0.0)
    expect("case1@1e6", ev.bound_value, 1e3 + 10.0**2.5)
    ev = evaluate_theorem2("interp_general", PhysicalParams(1e6, 1e8),
                           norms_with(alpha_min=0.25, alpha_plus_kappa_inf=0.5),
                           passing_condition(), u0_norm=0.0)
    expect("case2@1e6", ev.bound_value,
           0.5 * 1e3 + 0.25 ** (-1 / 12) * 10.0**2.5)
    p = choose_proof_parameters("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6),
                                norms_with())
    expect("b=1/2", p.b, 0.5)
    expect("a0", p.a0, 1.0 / 32.0)
    expect("delta", p.delta, (p.a0 * 0.5 / 8.0) ** (1 / 6) * 1e6 ** (-5.0 / 12.0))
    p3 = choose_proof_parameters("three_sevenths", PhysicalParams(1e6, 1e6), norms_with())
    expect("a-scaling-1", p.a / p.a0, 1e6**-1.5)
    expect("a-scaling-3", p3.a / p3.a0, 1e6 ** (-11.0 / 7.0))

    # condition-flag truth tables
    flags_ok = True
    conds = conditions_from_norms(norms_with(alpha_min=0.04, kappa_inf=0.2))
    flags_ok &= not conds["ec"].passed
    conds = conditions_from_norms(norms_with(alpha_min=1.0, kappa_inf=0.0))
    flags_ok &= all(c.passed for c in conds.values())
    conds = conditions_from_norms(norms_with(alpha_min=0.01, kappa_inf=0.03))
    flags_ok &= not conds["theorem2_kappa_leq_alpha"].passed
    flags_ok &= conds["theorem2_general"].passed
    nm = norms_with(alpha_min=0.5, alpha_plus_kappa_inf=0.5)
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6), nm,
                           passing_condition())
    flags_ok &= ev.flags["pr_ok"] and ev.flags["ra_ok"] and ev.flags["smallness_ok"]
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 5e4), nm,
                           passing_condition())
    flags_ok &= not ev.flags["pr_ok"]
    ev = evaluate_theorem2("interp_kappa_leq_alpha", PhysicalParams(1e6, 1e6),
                           norms_with(alpha_min=1e-4, alpha_plus_kappa_inf=0.5),
                           passing_condition())
    flags_ok &= not ev.flags["ra_ok"]
    ev = evaluate_theorem2("three_sevenths", PhysicalParams(1e6, 2e4), nm,
                           passing_condition())
    flags_ok &= ev.flags["pr_ok"]
    ev = evaluate_theorem2("three_sevenths", PhysicalParams(1e6, 1.8e4), nm,
                           passing_condition())
    flags_ok &= not ev.flags["pr_ok"]

    elapsed = time.time() - t0
    _report(9, ok and flags_ok,
            f"{len(checks)} golden values exact to 1e-12; flag truth tables "
            + ("consistent" if flags_ok else "INCONSISTENT"), elapsed)


# ---------------------------------------------------------------------------
# 10. scaling round trip
# ---------------------------------------------------------------------------

def test_criterion_10_scaling():
    t0 = time.time()
    ok = True
    details = []
    for rho in (0.0, 0.25, 0.5, 1.5):
        hr = ratio_for_target_exponent(rho, 3.0)
        s1 = DimensionalSetup(height_gap=150.0, temp_gap=1.0, viscosity=1.0,
                              thermal_diffusivity=1.0, expansion_coeff=1.0, gravity=1.0)
        s2 = DimensionalSetup(height_gap=150.0 * hr, temp_gap=3.0, viscosity=1.0,
                              thermal_diffusivity=1.0, expansion_coeff=1.0, gravity=1.0)
        cmp_ = curvature_scaling(s1, s2)
        target = cmp_.ra_ratio**rho
        rel = abs(cmp_.kappa_ratio_exact - target) / target
        ok = ok and rel <= 0.10
        details.append(f"rho={rho}: {rel:.2%}")
    try:
        ratio_for_target_exponent(2.0 / 3.0, 2.0)
        pole_ok = False
    except ValueError:
        pole_ok = True
    _report(10, ok and pole_ok,
            "kappa-ratio vs Ra-ratio^rho deviations " + ", ".join(details)
            + "; pole at rho=2/3 rejected", time.time() - t0)


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    text = """
[physical]
ra = 1e4
pr = 10.0

[grid]
n1 = 32
n2 = 33

[time]
t_end = 0.1
sample_interval = 0.005
checkpoint_interval = 0.05

[initial]
temp_perturbation = 0.01
"""
    cfg = parse_config(text)
    a = run_simulation(cfg, str(tmp_path / "a"))
    mid = [p for p in a.checkpoints if "checkpoint_000001" in p][0]
    b = run_simulation(parse_config(text), str(tmp_path / "b"), resume=mid)
    fa = [p for p in a.checkpoints if "final" in p][0]
    fb = [p for p in b.checkpoints if "final" in p][0]
    bit_exact = Path(fa).read_bytes() == Path(fb).read_bytes()
    rt = parse_config(serialize_config(cfg))
    round_trip = rt == cfg and serialize_config(rt) == serialize_config(cfg)
    _report(11, bit_exact and round_trip,
            f"restart bit-exact: {bit_exact}; config round-trip idempotent: "
            f"{round_trip}", time.time() - t0)
