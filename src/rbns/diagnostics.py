"""Instantaneous functionals and long-time-averaged diagnostics.

Three equivalent heat-transport measurements are tracked:

  * nu_flux     wall heat flux       (1/|Omega|) int_{bottom} n . grad T dS
  * nu_gradsq   dissipation          (1/|Omega|) int |grad T|^2
  * nu_strip    level-line flux      (1/|Omega|) int_{level} (uT - grad T) . n_+ dS

together with the kinetic energy/enstrophy budget terms:

    d/dt ||u||^2 / (2 Pr) + ||grad u||^2 + int (2 alpha + kappa) u_tau^2
        = Ra int T u2

and the five averaged enstrophy-balance ingredients whose sum vanishes for
exact long-time averages:

    <|grad w|^2> + 2 <(alpha+kappa) u . grad p>_walls - Ra <w dT/dy1>
        + (2/Pr) <(alpha+kappa) u_tau^2 du_tau/dlambda>_walls
        - 2 Ra <(alpha+kappa) u_tau n1>_bottom .

Angle brackets carry the 1/|Omega| normalization; the raw integrals in the
energy budget do not.  The long-time average of the theory is approximated
by the running mean over samples past a burn-in time, reported together
with the max over the trailing half of the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbns.background import BackgroundField
from rbns.geometry import BoundaryData, Side
from rbns.grid import (
    MappedGrid,
    boundary_trace,
    grad_physical,
    level_index,
    line_integral,
    tangential_derivative,
    volume_integral,
)
from rbns.solver import FlowState, StateDerivatives

STRIP_LEVELS = (0.25, 0.5, 0.75)
STRIP_COLUMNS = tuple(f"nu_strip_{round(100 * level)}" for level in STRIP_LEVELS)

ENSTROPHY_TERM_NAMES = (
    "grad_omega_sq",      # <|grad w|^2>
    "wall_pressure",      # +2 <(alpha+kappa) u.grad p>_walls
    "buoyancy_torque",    # -Ra <w dT/dy1>
    "wall_inertia",       # (2/Pr) <(alpha+kappa) u_tau^2 du_tau/dlambda>_walls
    "wall_buoyancy",      # -2 Ra <(alpha+kappa) u_tau n1>_bottom
)
ENSTROPHY_COLUMNS = tuple(f"ens:{name}" for name in ENSTROPHY_TERM_NAMES)

OMEGA_NORM_POWERS = (2, 4, 8)
OMEGA_NORM_COLUMNS = tuple(f"omega_l{p}" for p in OMEGA_NORM_POWERS)

# A sample is one dict keyed by column name; these tuples are the only
# place the names and their order are written down.
CSV_COLUMNS = (
    "time", "nu_flux", "nu_gradsq", *STRIP_COLUMNS,
    "energy", "enstrophy", "grad_u_sq", "boundary_friction", "buoyancy_flux",
    "energy_residual", "enstrophy_residual", "temp_min", "temp_max",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

# the long-time averages a run reports, in run_summary.txt order
AVERAGED = (
    "nu_flux", "nu_gradsq", *STRIP_COLUMNS,
    "energy", "enstrophy", "grad_u_sq", "boundary_friction", "kappa_friction",
    "ak_friction", "buoyancy_flux", "convective_transport",
    "grad_theta_sq", "theta_u_grad_eta", *ENSTROPHY_COLUMNS,
)


def nusselt_flux(temp: np.ndarray, grid: MappedGrid) -> float:
    """Instantaneous boundary-flux Nusselt number on the bottom wall."""
    flux = boundary_trace(temp, grid, Side.BOTTOM, "normal_derivative")
    return line_integral(flux, grid) / grid.area


def nusselt_gradsq(temp: np.ndarray, grid: MappedGrid) -> float:
    """Instantaneous (1/|Omega|) int |grad T|^2."""
    ty1, ty2 = grad_physical(temp, grid)
    return volume_integral(ty1**2 + ty2**2, grid) / grid.area


def nusselt_strip(temp: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                  grid: MappedGrid, x2_level: float) -> float:
    """Instantaneous level-line Nusselt number at wall distance x2_level.

    The level line is a vertical translate of the bottom wall; its upward
    normal is (-h', 1)/sqrt(1+h'^2), so the weighted integrand reduces to
    -h'(u1 T - dT/dy1) + (u2 T - dT/dy2) per unit y1.
    """
    return _strip_nusselt(temp, grad_physical(temp, grid), u1, u2, grid, x2_level)


def _strip_nusselt(temp, grad_temp, u1, u2, grid: MappedGrid, x2_level: float) -> float:
    """nusselt_strip with (dT/dy1, dT/dy2) already evaluated."""
    j = level_index(grid, x2_level)
    ty1, ty2 = grad_temp
    row = (-grid.hp * (u1[:, j] * temp[:, j] - ty1[:, j])
           + (u2[:, j] * temp[:, j] - ty2[:, j]))
    return float(np.sum(row) * grid.dx1) / grid.area


def velocity_gradient_integrals(grad_u, grid: MappedGrid) -> float:
    """Raw int |grad u|^2 over the domain; grad_u holds the grad_physical pairs of (u1, u2)."""
    (u1y1, u1y2), (u2y1, u2y2) = grad_u
    return volume_integral(u1y1**2 + u1y2**2 + u2y1**2 + u2y2**2, grid)


def boundary_friction_integral(u_tau, bottom: BoundaryData, top: BoundaryData,
                               weight: str = "2a+k") -> float:
    """Raw wall integral of (2a+k), (a+k) or k times u_tau^2; u_tau = (bottom, top)."""
    weights = {
        "2a+k": lambda bd: 2.0 * bd.alpha + bd.kappa,
        "a+k": lambda bd: bd.alpha + bd.kappa,
        "kappa": lambda bd: bd.kappa,
    }
    total = 0.0
    for bd, ut in zip((bottom, top), u_tau):
        total += bd.line_integral(weights[weight](bd) * ut**2)
    return total


def enstrophy_balance_terms(omega, grad_omega, grad_temp, u_tau, pressure, grid: MappedGrid,
                            bottom: BoundaryData, top: BoundaryData, pr: float, ra: float) -> dict:
    """The five averaged-enstrophy-balance ingredients, instantaneous values.

    grad_omega and grad_temp are grad_physical pairs and u_tau the (bottom,
    top) wall u_tau.

    On the walls u is purely tangential, so u.grad reduces to u_tau d/dlambda
    acting on wall traces; those tangential derivatives are spectral.  The
    signs are the ones under which the five long-time averages cancel: the
    wall terms enter through the vorticity flux expansion

        n.grad w = (1/Pr)(du_tau/dt + u_tau du_tau/dlambda) + dp/dlambda
                   - Ra T n1   (along tau),

    multiplied by the wall data w = -2(alpha+kappa) u_tau.
    """
    wy1, wy2 = grad_omega
    t_grad = volume_integral(wy1**2 + wy2**2, grid) / grid.area

    t_buoy = -ra * volume_integral(omega * grad_temp[0], grid) / grid.area

    t_press = 0.0
    t_inertia = 0.0
    for bd, ut in zip((bottom, top), u_tau):
        ak = bd.alpha + bd.kappa
        dp_dlam = boundary_trace(pressure, grid, bd.side, "tangential_derivative")
        t_press += 2.0 * bd.line_integral(ak * ut * dp_dlam) / grid.area
        dut_dlam = tangential_derivative(ut, grid, bd.side)
        t_inertia += (2.0 / pr) * bd.line_integral(ak * ut**2 * dut_dlam) / grid.area

    n1_b = bottom.normal[:, 0]
    t_wall_buoy = -2.0 * ra * bottom.line_integral((bottom.alpha + bottom.kappa) * u_tau[0] * n1_b) / grid.area

    return {
        "grad_omega_sq": t_grad,
        "wall_pressure": t_press,
        "buoyancy_torque": t_buoy,
        "wall_inertia": t_inertia,
        "wall_buoyancy": t_wall_buoy,
    }


def measure(state: FlowState, grid: MappedGrid,
            bottom: BoundaryData, top: BoundaryData, pr: float, ra: float,
            derivs: StateDerivatives, grad_u,
            pressure: np.ndarray | None = None,
            pressure_defect: float = float("nan"),
            background: BackgroundField | None = None) -> dict[str, float]:
    """Evaluate every instantaneous diagnostic for one snapshot, as one row.

    The row holds every CSV_COLUMNS and AVERAGED name plus the endpoint
    terms of the window estimators (heat_content, theta_sq) and the Neumann
    pressure_defect; the two residual columns stay NaN until
    Recorder.finalize.  derivs is the snapshot's state_derivatives (grad
    omega, grad T) and grad_u the grad_physical pairs of (u1, u2); with the
    state's wall u_tau nothing here differentiates a field again.
    """
    omega, temp, u1, u2, u_tau = state.omega, state.temp, state.u1, state.u2, state.u_tau
    grad_temp = ty1, ty2 = derivs.grad_temp
    row = {
        "time": state.time,
        "nu_flux": nusselt_flux(temp, grid),
        "nu_gradsq": volume_integral(ty1**2 + ty2**2, grid) / grid.area,
        **{name: _strip_nusselt(temp, grad_temp, u1, u2, grid, level)
           for name, level in zip(STRIP_COLUMNS, STRIP_LEVELS)},
        "energy": volume_integral(u1**2 + u2**2, grid),               # ||u||_2^2
        "enstrophy": volume_integral(omega**2, grid),                 # ||w||_2^2
        "grad_u_sq": velocity_gradient_integrals(grad_u, grid),       # int |grad u|^2
        "boundary_friction": boundary_friction_integral(u_tau, bottom, top),  # int (2a+k) u_tau^2
        "kappa_friction": boundary_friction_integral(u_tau, bottom, top, weight="kappa"),
        "ak_friction": boundary_friction_integral(u_tau, bottom, top, weight="a+k"),
        "buoyancy_flux": ra * volume_integral(temp * u2, grid),       # Ra int T u2
        "temp_min": float(np.min(temp)),
        "temp_max": float(np.max(temp)),
        "convective_transport": volume_integral(u2 * temp - ty2, grid) / grid.area,
        "heat_content": volume_integral((1.0 - grid.x2)[None, :] * temp, grid),  # int (1-x2) T
        "pressure_defect": pressure_defect,
        "energy_residual": float("nan"),
        "enstrophy_residual": float("nan"),
    }

    if pressure is not None:
        terms = enstrophy_balance_terms(omega, derivs.grad_omega, grad_temp, u_tau,
                                        pressure, grid, bottom, top, pr, ra)
        row.update(zip(ENSTROPHY_COLUMNS, (terms[name] for name in ENSTROPHY_TERM_NAMES)))
    else:
        row.update(dict.fromkeys(ENSTROPHY_COLUMNS, float("nan")))

    gts, tue, tsq = float("nan"), float("nan"), float("nan")
    if background is not None:
        gts, tue = background.theta_ingredients(temp, grad_temp, u1, u2)
        tsq = volume_integral(background.theta(temp) ** 2, grid)
    row.update(grad_theta_sq=gts, theta_u_grad_eta=tue, theta_sq=tsq)  # theta_sq = int theta^2

    abs_w = np.abs(omega)
    w_sup = float(np.max(abs_w))
    if w_sup > 0.0 and np.isfinite(w_sup):
        scaled = abs_w / w_sup  # overflow-safe evaluation of the p-norms
        row.update((name, w_sup * volume_integral(scaled**p, grid) ** (1.0 / p))
                   for name, p in zip(OMEGA_NORM_COLUMNS, OMEGA_NORM_POWERS))
    else:
        row.update(dict.fromkeys(OMEGA_NORM_COLUMNS, w_sup))
    return row


@dataclass
class AverageStat:
    mean: float
    tail_max: float
    n_samples: int
    t_start: float
    t_end: float


class Recorder:
    """Accumulates sample rows, maintains post-burn-in running means and tail stats.

    The limiting long-time average is approximated by the arithmetic mean of
    samples with t >= burn_in; the max over the trailing half of that window
    is reported alongside so a non-converged average is visible.

    For the balance and inequality checks the finite-window averages are
    corrected by the exact endpoint (budget) terms of the corresponding
    evolution identities, so the estimators converge at the discretization
    error instead of O(1/T_window):

      * heat transport: mean(u2 T - d2 T) picks up  [H(t1)-H(t0)]/(T |O|)
        with H = int (1-x2) T  (exact for flat walls);
      * kinetic energy: the window mean of Ra int T u2 equals the mean of
        ||grad u||^2 + friction plus  [E(t1)-E(t0)]/(2 Pr T);
      * enstrophy: the five-term sum picks up  [Z(t1)-Z(t0)]/(Pr-weighted)
        with Z = ||w||^2/(2 Pr) + int (a+k) u_tau^2 / Pr;
      * background identity: the eta/theta representation picks up
        [|theta|^2(t1) - |theta|^2(t0)]/(T |O|).
    """

    def __init__(self, burn_in: float, pr: float, area: float, height_range: float = 0.0,
                 ra: float = 0.0, is_flat: bool = True,
                 grad_eta_sq: float | None = None):
        self.burn_in = burn_in
        self.pr = pr
        self.ra = ra
        self.area = area
        self.height_range = height_range
        self.is_flat = is_flat
        self.grad_eta_sq = grad_eta_sq
        self.records: list[dict[str, float]] = []

    def add(self, row: dict[str, float]) -> None:
        self.records.append(row)

    # -- averaging ---------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The named column of every sample, in sample order."""
        return np.array([r[name] for r in self.records])

    def average(self, name: str) -> AverageStat:
        t, v = self.column("time"), self.column(name)
        sel = t >= self.burn_in
        if not np.any(sel):
            sel = np.ones_like(t, dtype=bool)  # nothing past burn-in yet
        t, v = t[sel], v[sel]
        ok = np.isfinite(v)
        if not np.any(ok):
            return AverageStat(float("nan"), float("nan"), 0, float("nan"), float("nan"))
        t, v = t[ok], v[ok]
        tail = v[t >= 0.5 * (t[0] + t[-1])] if v.size > 1 else v
        return AverageStat(float(np.mean(v)), float(np.max(tail)), v.size, float(t[0]), float(t[-1]))

    def averages(self) -> dict[str, float]:
        return {name: self.average(name).mean for name in AVERAGED}

    # -- endpoint-corrected window estimators --------------------------------

    def _window(self) -> list[dict[str, float]]:
        recs = [r for r in self.records if r["time"] >= self.burn_in]
        return recs if recs else self.records

    def _window_span(self) -> tuple[dict | None, dict | None, float]:
        """First and last sample of the window and the time between them.

        A run that stopped before its first sample has no records: then both
        samples are None and the span 0, so each estimator returns its
        (NaN) window average without an endpoint correction.
        """
        recs = self._window()
        if not recs:
            return None, None, 0.0
        first, last = recs[0], recs[-1]
        return first, last, max(last["time"] - first["time"], 0.0)

    def convective_transport_corrected(self) -> float:
        """Drift-free estimator of the long-time <(u2 - d2) T>."""
        first, last, span = self._window_span()
        raw = self.average("convective_transport").mean
        if span == 0.0 or not self.is_flat:
            return raw  # rough walls: the inequality carries genuine slack
        return raw + (last["heat_content"] - first["heat_content"]) / (span * self.area)

    def nusselt_inequality_defect(self) -> float:
        """nu_flux - <(u2 - d2) T>/(1 + max h - min h); negative = violation."""
        nu = self.average("nu_flux").mean
        return nu - self.convective_transport_corrected() / (1.0 + self.height_range)

    def energy_inequality_slack(self) -> tuple[float, float]:
        """(relative slack, scale) of the averaged energy inequality.

        Positive slack means <|grad u|^2> + <(2a+k) u_tau^2> stays below
        Ra((1 + max h - min h) Nu - 1); the left side carries the exact
        kinetic-energy and (flat) heat-content endpoint corrections.
        """
        first, last, span = self._window_span()
        nu = self.average("nu_flux").mean
        lhs = self.average("grad_u_sq").mean + self.average("boundary_friction").mean
        if span > 0.0:
            lhs += (last["energy"] - first["energy"]) / (2.0 * self.pr * span)
            if self.is_flat:
                lhs += self.ra * (last["heat_content"] - first["heat_content"]) / span
        rhs = self.ra * ((1.0 + self.height_range) * nu - 1.0) * self.area
        scale = max(abs(rhs), 1.0)
        return (rhs - lhs) / scale, scale

    def nu_eta_corrected(self) -> float:
        """Heat transport from the background/fluctuation representation."""
        if self.grad_eta_sq is None:
            return float("nan")
        first, last, span = self._window_span()
        nu = (self.grad_eta_sq - self.average("grad_theta_sq").mean
              - 2.0 * self.average("theta_u_grad_eta").mean)
        if span > 0.0 and np.isfinite(first["theta_sq"]) and np.isfinite(last["theta_sq"]):
            nu -= (last["theta_sq"] - first["theta_sq"]) / (span * self.area)
        return nu

    # -- residuals ---------------------------------------------------------

    def _energy_residuals(self) -> np.ndarray:
        n = len(self.records)
        if n < 2:
            return np.full(n, np.nan)
        t, e = self.column("time"), self.column("energy")
        grad_u_sq = self.column("grad_u_sq")
        buoyancy = self.column("buoyancy_flux")
        lhs = np.gradient(e, t) / (2.0 * self.pr) + grad_u_sq + self.column("boundary_friction")
        scale = np.maximum(np.maximum(np.abs(buoyancy), np.abs(grad_u_sq)), 1.0)
        return (lhs - buoyancy) / scale

    def _enstrophy_residuals(self) -> np.ndarray:
        """Residual of the running post-burn-in means of the five terms.

        The running sum carries the exact evolution endpoint term
        [Z(t_i) - Z(t_first)]/(span |O|) with Z = ||w||^2/(2Pr)
        + int (a+k) u_tau^2 / Pr, so it converges at the discretization
        error.  Before any post-burn-in sample exists the mean runs from
        the start, so early rows are still populated.  Row i averages the
        selected samples up to i: cumulative sums and running first/last
        indices of the two selections give every row in one pass.
        """
        n = len(self.records)
        if n == 0:
            return np.full(n, np.nan)
        t = self.column("time")
        z = self.column("enstrophy") / (2.0 * self.pr) + self.column("ak_friction") / self.pr
        vals = np.column_stack([self.column(name) for name in ENSTROPHY_COLUMNS])
        finite = np.all(np.isfinite(vals), axis=1)
        post = finite & (t >= self.burn_in)
        idx = np.arange(n)

        def window_residuals(sel: np.ndarray) -> np.ndarray:
            # row i: residual over the selected samples up to i (nan if none)
            count = np.cumsum(sel)
            with np.errstate(invalid="ignore"):
                means = np.cumsum(np.where(sel[:, None], vals, 0.0), axis=0) / count[:, None]
            first = np.argmax(sel)
            last = np.maximum.accumulate(np.where(sel, idx, 0))
            total = np.sum(means, axis=1)
            span = t[last] - t[first]
            drift = span > 0.0
            total[drift] += (z[last] - z[first])[drift] / (span[drift] * self.area)
            scale = np.maximum(np.max(np.abs(means), axis=1), 1e-300)
            return np.where(count > 0, total / scale, np.nan)

        # the post-burn-in window once it has a sample, all finite rows before
        return np.where(np.cumsum(post) > 0, window_residuals(post), window_residuals(finite))

    def finalize(self) -> None:
        for r, e_res, s_res in zip(self.records, self._energy_residuals(),
                                   self._enstrophy_residuals()):
            r["energy_residual"], r["enstrophy_residual"] = float(e_res), float(s_res)

    # -- output ------------------------------------------------------------

    def write_csv(self, path, precision: int = 17) -> None:
        fmt = f"{{:.{precision}g}}"
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.records:
                fh.write(",".join(fmt.format(r[name]) for name in CSV_COLUMNS) + "\n")

    # -- derived checks ----------------------------------------------------

    def mean_abs_energy_residual(self) -> float:
        t, res = self.column("time"), self.column("energy_residual")
        sel = (t >= self.burn_in) & np.isfinite(res)
        # end samples carry one-sided d/dt stencils; they are still included
        return float(np.mean(np.abs(res[sel]))) if np.any(sel) else float("nan")

    def pressure_defect_max(self) -> float:
        """Largest Neumann compatibility defect over the samples; NaN if none recovered pressure."""
        defects = self.column("pressure_defect")
        defects = defects[np.isfinite(defects)]
        return float(np.max(defects)) if defects.size else float("nan")

    def final_enstrophy_residual(self) -> float:
        res = [r["enstrophy_residual"] for r in self.records
               if np.isfinite(r["enstrophy_residual"])]
        return abs(res[-1]) if res else float("nan")
