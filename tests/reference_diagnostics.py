"""Per-quantity reference formulas for the one-pass ``rbns.diagnostics.measure``.

Each function evaluates one diagnostic on its own, forming its integrand and
differentiating wall lines as the quantity's definition reads;
``reference_row`` assembles them into a sample row.  ``measure`` forms each
integrand once, reduces every quadrature together and batches its wall-line
derivatives, so the two must agree to rounding.
"""

from __future__ import annotations

import numpy as np

from rbns.background import BackgroundField
from rbns.diagnostics import (
    ENSTROPHY_COLUMNS,
    ENSTROPHY_TERM_NAMES,
    OMEGA_NORM_COLUMNS,
    OMEGA_NORM_POWERS,
    STRIP_COLUMNS,
    STRIP_LEVELS,
    measure,
)
from rbns.geometry import Side, Walls
from rbns.grid import (
    MappedGrid,
    d_x1_line,
    grad_physical,
    level_index,
    line_integral,
    volume_integral,
    wall_tangential_derivatives,
)
from rbns.solver import FlowState, StateDerivatives


def tangential_velocity(u1: np.ndarray, u2: np.ndarray, grid: MappedGrid, side: Side) -> np.ndarray:
    """u . tau on one wall row; tau points along +y1 on the bottom wall, -y1 on top."""
    j = 0 if side is Side.BOTTOM else -1
    s = 1.0 if side is Side.BOTTOM else -1.0
    return s * (u1[:, j] + grid.hp * u2[:, j]) / grid.ds_weight


def boundary_trace(f: np.ndarray, grid: MappedGrid, side: Side, kind: str = "value") -> np.ndarray:
    """Wall trace of a field: value, physical normal or tangential derivative."""
    j = 0 if side is Side.BOTTOM else -1
    if kind == "value":
        return f[:, j].copy()
    if kind == "tangential_derivative":
        return wall_tangential_derivatives(f[:, [0, -1]].T, grid)[j]
    if kind == "normal_derivative":
        h = 2.0 * grid.dx2
        if side is Side.BOTTOM:
            fz = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / h
        else:
            fz = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / h
        fy1 = d_x1_line(f[:, j], grid) - grid.hp * fz
        if side is Side.BOTTOM:   # n = (h', -1)/w
            return (grid.hp * fy1 - fz) / grid.ds_weight
        return (-grid.hp * fy1 + fz) / grid.ds_weight
    raise ValueError(f"unknown trace kind {kind!r}")


def nusselt_flux(temp: np.ndarray, grid: MappedGrid) -> float:
    """Instantaneous boundary-flux Nusselt number on the bottom wall."""
    flux = boundary_trace(temp, grid, Side.BOTTOM, "normal_derivative")
    return line_integral(flux, grid) / grid.area


def grad_u_sq(u1: np.ndarray, u2: np.ndarray, grid: MappedGrid) -> float:
    """int |grad u|^2 from all four velocity gradients, each from its own grad_physical."""
    (u1y1, u1y2), (u2y1, u2y2) = grad_physical(u1, grid), grad_physical(u2, grid)
    return volume_integral(u1y1**2 + u1y2**2 + u2y1**2 + u2y2**2, grid)


def nusselt_gradsq(temp: np.ndarray, grid: MappedGrid) -> float:
    """Instantaneous (1/|Omega|) int |grad T|^2."""
    ty1, ty2 = grad_physical(temp, grid)
    return volume_integral(ty1**2 + ty2**2, grid) / grid.area


def nusselt_strip(temp: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                  grid: MappedGrid, x2_level: float, grad_temp=None) -> float:
    """Instantaneous level-line Nusselt number at wall distance x2_level.

    The level line is a vertical translate of the bottom wall; its upward
    normal is (-h', 1)/sqrt(1+h'^2), so the weighted integrand reduces to
    -h'(u1 T - dT/dy1) + (u2 T - dT/dy2) per unit y1.
    """
    j = level_index(grid, x2_level)
    ty1, ty2 = grad_physical(temp, grid) if grad_temp is None else grad_temp
    row = (-grid.hp * (u1[:, j] * temp[:, j] - ty1[:, j])
           + (u2[:, j] * temp[:, j] - ty2[:, j]))
    return float(np.sum(row) * grid.dx1) / grid.area


def boundary_friction_integral(u_tau, walls: Walls, weight: str = "2a+k") -> float:
    """Raw wall integral of (2a+k), (a+k) or k times u_tau^2; u_tau = (bottom, top)."""
    weights = {
        "2a+k": 2.0 * walls.alpha + walls.kappa,
        "a+k": walls.alpha + walls.kappa,
        "kappa": walls.kappa,
    }
    return float(np.sum(walls.line_integral(weights[weight] * u_tau**2)))


def _d_dlambda(line: np.ndarray, grid: MappedGrid, side: Side) -> np.ndarray:
    """d/dlambda of one wall's line: d/dx1 over sqrt(1+h'^2), tau along +y1 (bottom), -y1 (top)."""
    s = 1.0 if side is Side.BOTTOM else -1.0
    return s * d_x1_line(line, grid) / grid.ds_weight


def enstrophy_balance_terms(omega, grad_omega, grad_temp, u_tau, pressure, grid: MappedGrid,
                            walls: Walls, pr: float, ra: float) -> dict:
    """The five averaged-enstrophy-balance ingredients, instantaneous values.

    The wall terms enter through the vorticity flux expansion

        n.grad w = (1/Pr)(du_tau/dt + u_tau du_tau/dlambda) + dp/dlambda
                   - Ra T n1   (along tau),

    multiplied by the wall data w = -2(alpha+kappa) u_tau.
    """
    wy1, wy2 = grad_omega
    t_grad = volume_integral(wy1**2 + wy2**2, grid) / grid.area
    t_buoy = -ra * volume_integral(omega * grad_temp[0], grid) / grid.area
    t_press = 0.0
    t_inertia = 0.0
    ak = walls.alpha + walls.kappa
    for side, j, ak_side, ut in zip(Side, (0, -1), ak, u_tau):
        dp_dlam = _d_dlambda(pressure[:, j], grid, side)
        t_press += 2.0 * walls.line_integral(ak_side * ut * dp_dlam) / grid.area
        dut_dlam = _d_dlambda(ut, grid, side)
        t_inertia += (2.0 / pr) * walls.line_integral(ak_side * ut**2 * dut_dlam) / grid.area
    n1_b = walls.normal[0, :, 0]
    t_wall_buoy = -2.0 * ra * walls.line_integral(ak[0] * u_tau[0] * n1_b) / grid.area
    return {
        "grad_omega_sq": t_grad,
        "wall_pressure": t_press,
        "buoyancy_torque": t_buoy,
        "wall_inertia": t_inertia,
        "wall_buoyancy": t_wall_buoy,
    }


def theta_ingredients(background: BackgroundField, temp, grad_temp, u1, u2) -> tuple[float, float]:
    """Domain averages <|grad theta|^2> and <theta u . grad eta>.

    |grad theta|^2 = |grad T|^2 - 2 grad T.grad eta + |grad eta|^2 with the
    last term from the closed-form strip integral; u . grad eta =
    eta'(x2) (u2 - h' u1), supported on the strips.
    """
    grid = background.grid
    ty1, tz = grad_temp
    grad_t_sq = float(np.sum((ty1**2 + tz**2) @ grid.w2) * grid.dx1) / grid.area
    s = background.eta_slope[None, :]
    hp = grid.hp[:, None]
    cross = float(np.sum((s * (tz - hp * ty1)) @ grid.w2) * grid.dx1) / grid.area
    grad_theta_sq = grad_t_sq - 2.0 * cross + background.grad_eta_sq_avg
    th = background.theta(temp)
    coupling = float(np.sum((th * s * (u2 - hp * u1)) @ grid.w2) * grid.dx1) / grid.area
    return grad_theta_sq, coupling


def reference_row(state, grid: MappedGrid, walls: Walls, pr: float, ra: float, pressure=None,
                  background: BackgroundField | None = None) -> dict[str, float]:
    """The sample row of ``measure``, every quantity evaluated on its own."""
    omega, temp, u1, u2, u_tau = state.omega, state.temp, state.u1, state.u2, state.u_tau
    grad_temp = ty1, ty2 = grad_physical(temp, grid)
    row = {
        "time": state.time,
        "nu_flux": nusselt_flux(temp, grid),
        "nu_gradsq": nusselt_gradsq(temp, grid),
        **{name: nusselt_strip(temp, u1, u2, grid, level, grad_temp)
           for name, level in zip(STRIP_COLUMNS, STRIP_LEVELS)},
        "energy": volume_integral(u1**2 + u2**2, grid),
        "enstrophy": volume_integral(omega**2, grid),
        "grad_u_sq": grad_u_sq(u1, u2, grid),
        "boundary_friction": boundary_friction_integral(u_tau, walls),
        "kappa_friction": boundary_friction_integral(u_tau, walls, weight="kappa"),
        "ak_friction": boundary_friction_integral(u_tau, walls, weight="a+k"),
        "buoyancy_flux": ra * volume_integral(temp * u2, grid),
        "temp_min": float(np.min(temp)),
        "temp_max": float(np.max(temp)),
        "convective_transport": volume_integral(u2 * temp - ty2, grid) / grid.area,
        "heat_content": volume_integral((1.0 - grid.x2)[None, :] * temp, grid),
    }
    if pressure is not None:
        terms = enstrophy_balance_terms(omega, grad_physical(omega, grid), grad_temp, u_tau,
                                        pressure, grid, walls, pr, ra)
        row.update(zip(ENSTROPHY_COLUMNS, (terms[name] for name in ENSTROPHY_TERM_NAMES)))
    else:
        row.update(dict.fromkeys(ENSTROPHY_COLUMNS, float("nan")))
    gts = tue = tsq = float("nan")
    if background is not None:
        gts, tue = theta_ingredients(background, temp, grad_temp, u1, u2)
        tsq = volume_integral(background.theta(temp) ** 2, grid)
    row.update(grad_theta_sq=gts, theta_u_grad_eta=tue, theta_sq=tsq)
    abs_w = np.abs(omega)
    w_sup = float(np.max(abs_w))
    if w_sup > 0.0 and np.isfinite(w_sup):
        scaled = abs_w / w_sup
        row.update((name, w_sup * volume_integral(scaled**p, grid) ** (1.0 / p))
                   for name, p in zip(OMEGA_NORM_COLUMNS, OMEGA_NORM_POWERS))
    else:
        row.update(dict.fromkeys(OMEGA_NORM_COLUMNS, w_sup))
    return row


def measure_fields(grid: MappedGrid, walls: Walls, temp,
                   u1=None, u2=None, omega=None, *, pr: float = 1.0, ra: float = 0.0,
                   pressure=None, background: BackgroundField | None = None,
                   time: float = 0.0) -> dict[str, float]:
    """``measure`` of hand-made fields (velocity and vorticity zero unless given).

    The wall u_tau and the state derivatives are evaluated here, as the
    runner does for a sampled state; int |grad u|^2 takes all four velocity
    gradients, as hand-made velocities need not be divergence free.
    """
    zeros = np.zeros(grid.shape)
    u1, u2, omega = (zeros if a is None else a for a in (u1, u2, omega))
    u_tau = np.array([tangential_velocity(u1, u2, grid, side) for side in (Side.BOTTOM, Side.TOP)])
    state = FlowState(time=time, omega=omega, psi=zeros, temp=temp, u1=u1, u2=u2,
                      psi_top=0.0, u_tau=u_tau)
    derivs = StateDerivatives(grad_omega=grad_physical(omega, grid),
                              grad_temp=grad_physical(temp, grid))
    return measure(state, grid, walls, pr, ra, derivs, grad_u_sq(u1, u2, grid),
                   pressure=pressure, background=background)
