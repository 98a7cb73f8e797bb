"""Assembling bound reports from configs, live runs, or run directories."""

from __future__ import annotations

import math
import os

from rbns.bounds import (
    BOUNDS_CSV_HEADER,
    CASE_CONDITION,
    CASES,
    BoundReport,
    QFormResult,
    choose_proof_parameters,
    evaluate_theorem1,
    evaluate_theorem2,
    q_form,
)
from rbns.config import RunConfig, parse_config
from rbns.files import atomic_open
from rbns.geometry import CONDITIONS, BoundaryNorms, ConditionReport, Side
from rbns.runner import conditions_for_config, read_summary
from rbns.solver import PhysicalParams


def conditions_from_norms(norms: BoundaryNorms) -> dict[str, ConditionReport]:
    """Conservative pointwise-condition checks from sup-norms alone.

    Evaluates each CONDITIONS right-hand side at (alpha_min, sqrt(1 + ||h'||_inf^2))
    against ||kappa||_inf: every rhs grows with alpha and shrinks with |h'|,
    so a pass is sound but a fail may be pessimistic (pure-formula mode only).
    """
    w = math.sqrt(1.0 + norms.hprime_inf**2)
    margins = {name: float(rhs(norms.alpha_min, w) - norms.kappa_inf)
               for name, rhs in CONDITIONS.items()}
    return {
        name: ConditionReport(name=name, passed=margin >= 0.0, margin=margin,
                              worst_y1=float("nan"), worst_side=Side.BOTTOM,
                              n_fail=0 if margin >= 0.0 else 1, n_samples=0)
        for name, margin in margins.items()
    }


def assemble_report(physical: PhysicalParams, norms: BoundaryNorms,
                    conditions: dict[str, ConditionReport],
                    measured_nu: float = float("nan"),
                    cases=CASES,
                    user_c: float = 1.0, user_cbar: float = 1.0, u0_norm: float = 1.0,
                    delta_override: float | None = None,
                    qform: QFormResult | None = None,
                    notes: list[str] | None = None) -> BoundReport:
    evaluations = [evaluate_theorem1(physical, norms, user_c, conditions["ec"])]
    for case in cases:
        params = choose_proof_parameters(case, physical, norms, user_c, u0_norm,
                                         delta_override)
        evaluations.append(evaluate_theorem2(case, physical, norms,
                                             conditions[CASE_CONDITION[case]],
                                             user_c, user_cbar, u0_norm, params))
    return BoundReport(ra=physical.ra, pr=physical.pr, measured_nu=measured_nu,
                       user_c=user_c, user_cbar=user_cbar, norms=norms,
                       conditions=conditions, evaluations=evaluations,
                       qform=qform, notes=notes or [])


def report_for_run(config: RunConfig, averages: dict, measured_nu: float,
                   notes: list[str] | None = None,
                   boundary: tuple[BoundaryNorms, dict[str, ConditionReport]] | None = None
                   ) -> BoundReport:
    """Bound report for a completed run described by its config and averages.

    The quadratic form reads the run's own <|grad eta|^2>, ``averages["grad_eta_sq"]``.
    boundary is the run's ``conditions_for_config(config)`` (a RunResult's
    norms and conditions), evaluated here when not given.
    """
    norms, conditions = conditions_for_config(config) if boundary is None else boundary
    physical = PhysicalParams(config.physical.ra, config.physical.pr)
    b = config.bounds
    qform = None
    notes = list(notes or [])
    if b.background_delta is not None:
        params = choose_proof_parameters(b.cases[0] if b.cases else CASES[0],
                                         physical, norms, b.user_c, b.u0_norm,
                                         b.background_delta)
        try:
            qform = q_form(averages, averages.get("grad_eta_sq", math.nan), params,
                           physical, norms, measured_nu)
        except ValueError as exc:
            notes.append(str(exc))
    else:
        notes.append("background diagnostics disabled; set [bounds] background_delta "
                     "to evaluate the quadratic form")
    return assemble_report(physical, norms, conditions, measured_nu,
                           cases=b.cases, user_c=b.user_c, user_cbar=b.user_cbar,
                           u0_norm=b.u0_norm, delta_override=b.delta_override,
                           qform=qform, notes=notes)


def report_from_run_dir(run_dir: str) -> BoundReport:
    """Rebuild the bound report of a finished run from its output directory."""
    cfg_path = os.path.join(run_dir, "effective_config.txt")
    summary_path = os.path.join(run_dir, "run_summary.txt")
    for p in (cfg_path, summary_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"{run_dir}: missing {os.path.basename(p)}; "
                                    "not a completed run directory")
    with open(cfg_path) as fh:
        config = parse_config(fh.read())
    summary = read_summary(summary_path)
    averages = {k[len("avg:"):]: v for k, v in summary.items() if k.startswith("avg:")}
    measured = averages.get("nu_flux", float("nan"))
    return report_for_run(config, averages, measured)


def write_report(run_dir: str, report: BoundReport) -> None:
    with atomic_open(os.path.join(run_dir, "bound_report.txt")) as fh:
        fh.write(report.render_text())
    with atomic_open(os.path.join(run_dir, "bounds.csv")) as fh:
        fh.writelines(f"{line}\n" for line in (BOUNDS_CSV_HEADER, *report.csv_rows()))
