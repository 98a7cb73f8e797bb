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
from rbns.geometry import Walls
from rbns.grid import MappedGrid, level_index, volume_integral, wall_tangential_derivatives
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


def velocity_gradient_integrals(grad_u, grid: MappedGrid) -> float:
    """Raw int |grad u|^2 from ``rbns.solver.velocity_gradients``: d u1/dy1 = -d u2/dy2."""
    u1y2, u2y1, u2y2 = grad_u
    f, g = np.multiply(u2y2, u2y2), np.multiply(u1y2, u1y2)
    f *= 2.0
    f += g
    f += np.multiply(u2y1, u2y1, out=g)
    return volume_integral(f, grid)


# measure's integrand rows: each row's sum times dx1 is an integral, as the
# x2 quadrature f @ w2 of a volume integrand, a wall-line integrand times ds
# and a level-line integrand all integrate as a sum over x1.  A wall
# integrand fills a (bottom, top) pair of rows that add up to its integral.
_LINE_ROWS = ("grad_t_sq", "u_sq", "omega_sq", *OMEGA_NORM_COLUMNS, "heat_content", "t_u2",
              "convective_transport", *STRIP_COLUMNS, "nu_flux", "grad_omega_sq",
              "buoyancy_torque", "wall_buoyancy", "cross", "theta_sq", "theta_u_grad_eta")
_WALL_ROWS = ("boundary_friction", "kappa_friction", "ak_friction", "wall_pressure", "wall_inertia")
_STRIPS = slice(_LINE_ROWS.index(STRIP_COLUMNS[0]), _LINE_ROWS.index(STRIP_COLUMNS[-1]) + 1)
_WALL = {name: slice(len(_LINE_ROWS) + 2 * i, len(_LINE_ROWS) + 2 * i + 2)
         for i, name in enumerate(_WALL_ROWS)}


def _totals(rows: np.ndarray, grid: MappedGrid) -> dict[str, float]:
    """Every integral of measure's rows, in one reduction."""
    sums = rows.sum(axis=1)
    sums *= grid.dx1
    sums += 0.0                 # a -0.0 integral reads +0.0, as from a sum started at 0.0
    values = sums.tolist()
    total = dict(zip(_LINE_ROWS, values))
    for name, w in _WALL.items():
        total[name] = values[w.start] + values[w.start + 1]
    return total


def measure(state: FlowState, grid: MappedGrid,
            walls: Walls, pr: float, ra: float,
            derivs: StateDerivatives, grad_u_sq: float,
            pressure: np.ndarray | None = None,
            pressure_defect: float = float("nan"),
            background: BackgroundField | None = None) -> dict[str, float]:
    """Evaluate every instantaneous diagnostic for one snapshot, as one row.

    The row holds every CSV_COLUMNS and AVERAGED name plus the endpoint
    terms of the window estimators (heat_content, theta_sq) and the Neumann
    pressure_defect; the two residual columns stay NaN until
    Recorder.finalize.  derivs is the snapshot's state_derivatives (grad
    omega, grad T) and grad_u_sq its raw int |grad u|^2
    (velocity_gradient_integrals, evaluated before the pressure solve).

    One pass: each integrand is formed once, in one of two scratch arrays,
    into its fixed row (``_LINE_ROWS``, ``_WALL``), and all rows are reduced
    together.  Both walls are one (2, n1) stack throughout.  The wall heat
    flux reads grad T's wall row, and with pressure the x1 derivatives of
    both walls' u_tau and pressure traces take one transform pair; nothing
    else is differentiated.  Flat grids skip every h' product.
    """
    omega, temp, u1, u2, ut = state.omega, state.temp, state.u1, state.u2, state.u_tau
    ty1, ty2 = derivs.grad_temp
    flat, w2 = grid.is_flat, grid.w2
    rows = np.zeros((len(_LINE_ROWS) + 2 * len(_WALL_ROWS), grid.n1))
    row = dict(zip(_LINE_ROWS, rows))
    f, g = np.empty(grid.shape), np.empty(grid.shape)

    def sum_of_squares(a, b):
        return np.add(np.multiply(a, a, out=f), np.multiply(b, b, out=g), out=f)

    np.matmul(sum_of_squares(ty1, ty2), w2, out=row["grad_t_sq"])
    np.matmul(sum_of_squares(u1, u2), w2, out=row["u_sq"])
    omega_sq = np.multiply(omega, omega, out=g)
    np.matmul(omega_sq, w2, out=row["omega_sq"])
    # the p-norms from w^2 scaled by its largest value (overflow-safe for p > 2)
    w_sup_sq = float(omega_sq.max())
    norms = w_sup_sq > 0.0 and np.isfinite(w_sup_sq)
    if norms:
        power = np.divide(omega_sq, w_sup_sq, out=g)
        for i, name in enumerate(OMEGA_NORM_COLUMNS):  # powers 2, 4, 8: each squares the last
            if i:
                power *= power
            np.matmul(power, w2, out=row[name])
    w_sup = float(np.sqrt(w_sup_sq))                   # max |w|
    np.matmul(temp, (1.0 - grid.x2) * w2, out=row["heat_content"])   # int (1-x2) T
    np.matmul(np.multiply(temp, u2, out=f), w2, out=row["t_u2"])
    flux2 = np.subtract(f, ty2, out=f)                   # u2 T - dT/dy2
    np.matmul(flux2, w2, out=row["convective_transport"])
    # level lines, vertical translates of the bottom wall: -h'(u1 T - dT/dy1)
    # + (u2 T - dT/dy2) per unit y1
    j = [level_index(grid, level) for level in STRIP_LEVELS]
    strips = rows[_STRIPS]
    strips[:] = flux2[:, j].T
    if not flat:
        strips -= grid.hp * (u1[:, j] * temp[:, j] - ty1[:, j]).T
    # the bottom wall: n.grad T ds = h' dT/dy1 - dT/dy2 per unit y1
    if flat:
        np.negative(ty2[:, 0], out=row["nu_flux"])
    else:
        np.subtract(grid.hp * ty1[:, 0], ty2[:, 0], out=row["nu_flux"])

    alpha, kappa = walls.alpha, walls.kappa
    ak = alpha + kappa
    ut_ds = ut * grid.ds_weight
    ut_sq_ds = ut * ut_ds
    np.multiply(ak + alpha, ut_sq_ds, out=rows[_WALL["boundary_friction"]])  # (2a+k) u_tau^2
    np.multiply(kappa, ut_sq_ds, out=rows[_WALL["kappa_friction"]])
    np.multiply(ak, ut_sq_ds, out=rows[_WALL["ak_friction"]])

    if pressure is not None:
        # the enstrophy ingredients; on the walls u.grad is u_tau d/dlambda
        np.matmul(sum_of_squares(*derivs.grad_omega), w2, out=row["grad_omega_sq"])
        np.matmul(np.multiply(omega, ty1, out=f), w2, out=row["buoyancy_torque"])
        lines = np.empty((2, 2, grid.n1))
        lines[0] = ut
        lines[1] = pressure.T[[0, -1]]
        dut, dp = wall_tangential_derivatives(lines, grid)
        ak_ut_ds = np.multiply(ak, ut_ds, out=ut_ds)
        np.multiply(ak_ut_ds, dp, out=rows[_WALL["wall_pressure"]])
        np.multiply(np.multiply(ak_ut_ds, ut, out=ut_sq_ds), dut, out=rows[_WALL["wall_inertia"]])
        np.multiply(ak_ut_ds[0], walls.normal[0, :, 0], out=row["wall_buoyancy"])

    if background is not None:
        # grad T . grad eta = eta'(x2) (dT/dy2 - h' dT/dy1) and
        # u . grad eta = eta'(x2) (u2 - h' u1): eta' joins the x2 weights
        slope_w2 = background.eta_slope * w2
        cross = np.matmul(ty2, slope_w2, out=row["cross"])
        theta = background.theta(temp, out=f)
        np.matmul(np.multiply(theta, theta, out=g), w2, out=row["theta_sq"])
        u_eta = u2
        if not flat:
            cross -= grid.hp * (ty1 @ slope_w2)
            u_eta = np.subtract(u2, np.multiply(grid.hp[:, None], u1, out=g), out=g)
        np.matmul(np.multiply(theta, u_eta, out=f), slope_w2, out=row["theta_u_grad_eta"])

    total = _totals(rows, grid)
    area, nan = grid.area, float("nan")
    out = {
        "time": state.time,
        "nu_flux": total["nu_flux"] / area,
        "nu_gradsq": total["grad_t_sq"] / area,
        **{name: total[name] / area for name in STRIP_COLUMNS},
        "energy": total["u_sq"],                          # ||u||_2^2
        "enstrophy": total["omega_sq"],                   # ||w||_2^2
        "grad_u_sq": grad_u_sq,                           # int |grad u|^2
        "boundary_friction": total["boundary_friction"],  # int (2a+k) u_tau^2
        "kappa_friction": total["kappa_friction"],
        "ak_friction": total["ak_friction"],
        "buoyancy_flux": ra * total["t_u2"],              # Ra int T u2
        "temp_min": float(temp.min()),
        "temp_max": float(temp.max()),
        "convective_transport": total["convective_transport"] / area,
        "heat_content": total["heat_content"],
        "pressure_defect": pressure_defect,
        "energy_residual": nan,
        "enstrophy_residual": nan,
        "grad_theta_sq": nan,
        "theta_u_grad_eta": nan,
        "theta_sq": nan,
    }
    scales = (1.0, 2.0, -ra, 2.0 / pr, -2.0 * ra)     # ENSTROPHY_TERM_NAMES order
    for column, name, scale in zip(ENSTROPHY_COLUMNS, ENSTROPHY_TERM_NAMES, scales):
        out[column] = scale * total[name] / area if pressure is not None else nan
    if background is not None:
        out.update(grad_theta_sq=(total["grad_t_sq"] / area - 2.0 * (total["cross"] / area)
                                  + background.grad_eta_sq_avg),
                   theta_u_grad_eta=total["theta_u_grad_eta"] / area,
                   theta_sq=total["theta_sq"])                 # int theta^2
    for name, p in zip(OMEGA_NORM_COLUMNS, OMEGA_NORM_POWERS):
        out[name] = w_sup * total[name] ** (1.0 / p) if norms else w_sup
    return out


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
