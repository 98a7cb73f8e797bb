"""Explicit heat-transport bound formulas and the quadratic-form bookkeeping.

Two families of Nusselt bounds are evaluated against measured averages:

  * the curvature-aware half bound   Nu <= C (Ra^(1/2) + ||kappa||_inf),
    valid for Ra >= 1 under the pointwise condition
    |kappa| <= 2 alpha + min{1, sqrt(alpha)}/(4 sqrt(1+h'^2));

  * three background-field bounds under ||alpha+kappa||_inf <= C_bar:

      case interp_kappa_leq_alpha   (needs |kappa| <= alpha,
                                     Pr >= alpha_min^(-3/2) Ra^(3/4),
                                     Ra^(-1/2) <= alpha_min):
          Nu <= C_1/2 ||alpha+kappa||_W1inf^2 Ra^(1/2) + C_5/12 Ra^(5/12)
      case interp_general           (general kappa condition,
                                     same Pr regime, Ra^(-1) <= alpha_min):
          Nu <= C_1/2 sqrt(alpha_min) ||alpha+kappa||_W1inf^2 Ra^(1/2)
                + C_5/12 alpha_min^(-1/12) Ra^(5/12)
      case three_sevenths           (general kappa condition, Pr >= Ra^(5/7)):
          Nu <= C_3/7 Ra^(3/7)

    with constants

      C_1/2  = C (1 + N0^2)^(-1)
      C_5/12 = C (N0 + ||alpha'||_inf + ||kappa'||_inf + 1)^(1/3)
      C_3/7  = C (||alpha+kappa||_W1inf^2 + alpha_min^(-1/2)
                  + alpha_min^(-1/6) (N0 + ||alpha'||_inf + ||kappa'||_inf + 1)^(1/3))

    where N0 stands in for the initial-data Sobolev norm.  The absolute
    constant C, the smallness threshold C_bar and N0 are not derivable from
    the analysis; they are explicit user inputs (default 1) and every report
    prints them.

The proof's parameter recipe (b, a0, a, delta, M) is reproduced per case so
the quadratic form

    Q = M Ra^2 + <|grad eta|^2> + <|grad theta|^2> + 2 <theta u . grad eta>
        + (b/Ra)(<|grad u|^2> + <(2a+k) u_tau^2>) - (b/Ra) bterm + a aterm

can be assembled term by term from measured averages, together with the
reconstruction identity

    (1 - b (1 + max h - min h)) Nu + b = M Ra^2 + 2 <|grad eta|^2> - Q.

Q >= 0 is a statement about all admissible fields, so the sign is reported,
never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rbns.diagnostics import ENSTROPHY_COLUMNS
from rbns.geometry import BoundaryNorms, ConditionReport
from rbns.solver import PhysicalParams

# each background-field case and the ``geometry.CONDITIONS`` entry its hypotheses need
CASE_CONDITION = {
    "interp_kappa_leq_alpha": "theorem2_kappa_leq_alpha",
    "interp_general": "theorem2_general",
    "three_sevenths": "theorem2_general",
}
CASES = tuple(CASE_CONDITION)


@dataclass(frozen=True)
class BoundParams:
    a: float
    b: float
    big_m: float
    a0: float
    delta: float
    used_proof_delta: bool = True


def choose_proof_parameters(case: str, physical: PhysicalParams, norms: BoundaryNorms,
                            user_constant_c: float = 1.0, u0_norm: float = 1.0,
                            delta_override: float | None = None) -> BoundParams:
    """The b, a0, a, delta, M recipe of the background-field argument.

    With b = 1 / (2 (1 + max h - min h)) and S = N0^2 + ||alpha'||^2 + ||kappa'||^2 + 1,
    a0 is b / (8 C S), sqrt(alpha_min) b / (8 C S) and
    alpha_min b / (8 C (S + alpha_min^(-2))) in the three cases.
    Parameters are computed even when the case hypotheses fail (the caller
    flags applicability separately).  alpha_min = 0 degrades gracefully:
    the affected cases get a = 0 and an empty strip.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r} (known: {', '.join(CASES)})")
    ra = physical.ra
    c = user_constant_c
    b = 1.0 / (2.0 * (1.0 + norms.height_range))
    smooth = u0_norm**2 + norms.alpha_dot_inf**2 + norms.kappa_dot_inf**2 + 1.0
    am = norms.alpha_min
    if case == "interp_kappa_leq_alpha":
        a0 = b / (8.0 * c * smooth)
        a = a0 * ra ** (-1.5)
        delta = (a0 * b / (8.0 * c)) ** (1.0 / 6.0) * ra ** (-5.0 / 12.0)
    elif case == "interp_general":
        a0 = math.sqrt(am) * b / (8.0 * c * smooth)
        a = a0 * ra ** (-1.5)
        delta = (a0 * b / (4.0 * c)) ** (1.0 / 6.0) * ra ** (-5.0 / 12.0)
    else:  # three_sevenths
        smooth3 = u0_norm**2 + (am ** (-2.0) if am > 0 else math.inf) \
            + norms.alpha_dot_inf**2 + norms.kappa_dot_inf**2 + 1.0
        a0 = am * b / (8.0 * c * smooth3) if math.isfinite(smooth3) else 0.0
        a = a0 * ra ** (-11.0 / 7.0)
        delta = (a0 * b / (4.0 * c)) ** (1.0 / 6.0) * ra ** (-3.0 / 7.0)
    big_m = c * a * norms.alpha_plus_kappa_w1inf**2
    if delta_override is not None:
        delta = delta_override
    return BoundParams(a=a, b=b, big_m=big_m, a0=a0, delta=delta,
                       used_proof_delta=delta_override is None)


@dataclass
class TheoremEvaluation:
    name: str
    bound_value: float
    flags: dict[str, bool]
    params: BoundParams | None = None

    @property
    def applicable(self) -> bool:
        return all(self.flags.values())


def evaluate_theorem1(physical: PhysicalParams, norms: BoundaryNorms,
                      user_constant_c: float, ec_report: ConditionReport) -> TheoremEvaluation:
    """C (Ra^(1/2) + ||kappa||_inf) with its validity flags."""
    bound = user_constant_c * (math.sqrt(physical.ra) + norms.kappa_inf)
    flags = {
        "ec_ok": ec_report.passed,
        "ra_ok": physical.ra >= 1.0,
        "alpha_positive": norms.alpha_min > 0.0,
    }
    return TheoremEvaluation("theorem1", bound, flags)


def evaluate_theorem2(case: str, physical: PhysicalParams, norms: BoundaryNorms,
                      condition: ConditionReport, user_constant_c: float = 1.0,
                      user_cbar: float = 1.0, u0_norm: float = 1.0,
                      params: BoundParams | None = None) -> TheoremEvaluation:
    """One of the three background-field bounds plus all its regime flags."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r} (known: {', '.join(CASES)})")
    ra, pr, am, c = physical.ra, physical.pr, norms.alpha_min, user_constant_c
    akw = norms.alpha_plus_kappa_w1inf
    # (N0 + ||alpha'||_inf + ||kappa'||_inf + 1)^(1/3), in C_5/12 and C_3/7
    smooth = (u0_norm + norms.alpha_dot_inf + norms.kappa_dot_inf + 1.0) ** (1.0 / 3.0)
    flags = {
        "condition_ok": condition.passed,
        "smallness_ok": norms.alpha_plus_kappa_inf <= user_cbar,
    }
    if case == "three_sevenths":
        c_3_7 = c * (akw**2 + am**-0.5 + am ** (-1.0 / 6.0) * smooth) if am > 0 else math.inf
        bound = c_3_7 * ra ** (3.0 / 7.0)
        flags["pr_ok"] = pr >= ra ** (5.0 / 7.0)
    else:
        c_half, c_5_12 = c / (1.0 + u0_norm**2), c * smooth
        flags["pr_ok"] = am > 0.0 and pr >= am ** (-1.5) * ra**0.75
        if case == "interp_kappa_leq_alpha":
            bound = c_half * akw**2 * ra**0.5 + c_5_12 * ra ** (5.0 / 12.0)
            flags["ra_ok"] = ra ** (-0.5) <= am
        else:
            bound = (c_half * math.sqrt(am) * akw**2 * ra**0.5
                     + (c_5_12 * am ** (-1.0 / 12.0) if am > 0 else math.inf) * ra ** (5.0 / 12.0))
            flags["ra_ok"] = ra ** (-1.0) <= am
    return TheoremEvaluation(case, bound, flags, params)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

Q_INGREDIENTS = ("grad_theta_sq", "theta_u_grad_eta", "grad_u_sq", "boundary_friction",
                 *ENSTROPHY_COLUMNS)


@dataclass
class QFormResult:
    q: float
    terms: dict[str, float]
    nu_used: float
    nu_eta_representation: float   # <|grad eta|^2> - <|grad theta|^2> - 2<theta u.grad eta>
    nu_reconstructed: float
    a_residual: float              # the measured enstrophy-balance sum
    b_residual: float              # the measured energy-balance slack


def q_form(averages: dict, grad_eta_sq: float, params: BoundParams,
           physical: PhysicalParams, norms: BoundaryNorms, nu_measured: float) -> QFormResult:
    """Assemble Q term by term from measured averages and the run's <|grad eta|^2>.

    ``averages`` uses the recorder's keys; raw integrals are normalized by
    |Omega| here.  Missing (NaN) ingredients are reported by name.
    """
    missing = [k for k in Q_INGREDIENTS
               if k not in averages or not np.isfinite(averages[k])]
    if not np.isfinite(grad_eta_sq):
        missing.append("grad_eta_sq")
    if missing:
        raise ValueError("q_form is missing ingredient averages: " + ", ".join(missing))
    ra = physical.ra
    area = norms.gamma
    span = 1.0 + norms.height_range
    b, a, big_m = params.b, params.a, params.big_m

    grad_u = averages["grad_u_sq"] / area
    friction = averages["boundary_friction"] / area
    a_sum = float(sum(averages[name] for name in ENSTROPHY_COLUMNS))
    b_term = grad_u + friction - ra * (span * nu_measured - 1.0)

    terms = {
        "m_ra2": big_m * ra**2,
        "grad_eta_sq": grad_eta_sq,
        "grad_theta_sq": averages["grad_theta_sq"],
        "theta_coupling": 2.0 * averages["theta_u_grad_eta"],
        "grad_u": (b / ra) * grad_u,
        "friction": (b / ra) * friction,
        "b_balance": -(b / ra) * b_term,
        "a_balance": a * a_sum,
    }
    q = float(sum(terms.values()))
    nu_eta = (grad_eta_sq - averages["grad_theta_sq"]
              - 2.0 * averages["theta_u_grad_eta"])
    denom = 1.0 - b * span
    nu_rec = (big_m * ra**2 + 2.0 * grad_eta_sq - q - b) / denom
    return QFormResult(q=q, terms=terms, nu_used=nu_measured,
                       nu_eta_representation=float(nu_eta),
                       nu_reconstructed=float(nu_rec),
                       a_residual=a_sum, b_residual=float(b_term))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    ra: float
    pr: float
    measured_nu: float
    user_c: float
    user_cbar: float
    norms: BoundaryNorms
    conditions: dict[str, ConditionReport]
    evaluations: list[TheoremEvaluation]
    qform: QFormResult | None = None
    notes: list[str] = field(default_factory=list)

    def csv_rows(self) -> list[str]:
        return [",".join(value(self, ev) for _, value in _CSV_COLUMNS)
                for ev in self.evaluations]

    def render_text(self) -> str:
        lines = [
            "bound report",
            f"  ra = {self.ra:g}   pr = {self.pr:g}",
            f"  measured_nu = {self.measured_nu:.6g}",
            f"  user_c = {self.user_c:g}   user_cbar = {self.user_cbar:g}",
            f"  alpha_min = {self.norms.alpha_min:.6g}   kappa_inf = {self.norms.kappa_inf:.6g}",
            f"  alpha_plus_kappa_inf = {self.norms.alpha_plus_kappa_inf:.6g}"
            f"   (W1inf = {self.norms.alpha_plus_kappa_w1inf:.6g})",
        ]
        for name, cond in self.conditions.items():
            lines.append(f"  condition {name}: {'pass' if cond.passed else 'FAIL'}"
                         f"  margin = {cond.margin:.6g} at y1 = {cond.worst_y1:.4g}"
                         f" ({cond.worst_side.value})")
        for ev in self.evaluations:
            mark = "applicable" if ev.applicable else "inapplicable"
            margin = ev.bound_value - self.measured_nu
            extra = ""
            if ev.params is not None:
                p = ev.params
                extra = (f"  [delta = {p.delta:.4g}, a = {p.a:.4g}, b = {p.b:.4g},"
                         f" M = {p.big_m:.4g}{'' if p.used_proof_delta else ', delta overridden'}]")
            lines.append(f"  {ev.name}: bound = {ev.bound_value:.6g} ({mark})"
                         + (f", margin = {margin:+.6g}" if np.isfinite(margin) else "")
                         + extra)
            for key, val in ev.flags.items():
                lines.append(f"      {key} = {'pass' if val else 'fail'}")
        if self.qform is not None:
            qf = self.qform
            lines.append(f"  Q = {qf.q:.6g} (reported, not asserted)")
            for key, val in qf.terms.items():
                lines.append(f"      {key} = {val:.6g}")
            lines.append(f"  nu_eta_representation = {qf.nu_eta_representation:.6g}")
            lines.append(f"  nu_reconstructed = {qf.nu_reconstructed:.6g}"
                         f" (vs measured {qf.nu_used:.6g})")
            lines.append(f"  a_residual = {qf.a_residual:.6g}   b_residual = {qf.b_residual:.6g}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _number(x: float) -> str:
    return f"{x:.17g}" if np.isfinite(x) else ""


def _flag(value: bool) -> str:
    return str(int(value))


def _param(name: str):
    return lambda r, ev: f"{getattr(ev.params, name):.17g}" if ev.params else ""


def _own_flag(name: str):
    """The row's own regime flag; empty where its theorem has no such flag."""
    return lambda r, ev: _flag(ev.flags[name]) if name in ev.flags else ""


def _condition(name: str):
    return lambda r, ev: _flag(name in r.conditions and r.conditions[name].passed)


# bounds.csv: one row per TheoremEvaluation, (column, value of (report, evaluation))
_CSV_COLUMNS = (
    ("ra", lambda r, ev: f"{r.ra:.17g}"),
    ("pr", lambda r, ev: f"{r.pr:.17g}"),
    ("case", lambda r, ev: ev.name),
    ("applicable", lambda r, ev: _flag(ev.applicable)),
    ("bound_value", lambda r, ev: f"{ev.bound_value:.17g}"),
    ("measured_nu", lambda r, ev: _number(r.measured_nu)),
    ("margin", lambda r, ev: _number(ev.bound_value - r.measured_nu)
     if np.isfinite(r.measured_nu) else ""),
    *((name, _param(name)) for name in ("delta", "a", "b", "big_m")),
    ("user_c", lambda r, ev: f"{r.user_c:.17g}"),
    ("ec_ok", _condition("ec")),
    ("kappa_leq_alpha_ok", _condition("theorem2_kappa_leq_alpha")),
    ("kappa_general_ok", _condition("theorem2_general")),
    ("smallness_ok", lambda r, ev: _flag(r.norms.alpha_plus_kappa_inf <= r.user_cbar)),
    ("pr_ok", _own_flag("pr_ok")),
    ("ra_ok", _own_flag("ra_ok")),
)

BOUNDS_CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


def sweep_slope(ra_values, nu_values) -> float:
    """Least-squares slope of log Nu against log Ra over a sweep."""
    ra = np.asarray(ra_values, dtype=float)
    nu = np.asarray(nu_values, dtype=float)
    if ra.size < 2:
        raise ValueError("sweep slope needs at least two runs")
    return float(np.polyfit(np.log(ra), np.log(nu), 1)[0])
