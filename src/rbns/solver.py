"""Semi-implicit time integration of the Boussinesq system.

State variables are vorticity w, stream function psi and temperature T on
the flattened grid:

    (1/Pr)(w_t + u.grad w) - Lap w = Ra dT/dy1,   w = -2(alpha+kappa) u_tau  on walls
    T_t + u.grad T - Lap T = 0,                   T = 1 (bottom), 0 (top)
    Lap psi = w,    psi = 0 (bottom), psi_+ (top),    u = (-dpsi/dy2, dpsi/dy1)

Scheme: Crank-Nicolson for diffusion through the mapped Helmholtz solver,
second-order Adams-Bashforth (variable-step coefficients, forward Euler on
the first step) for advection and buoyancy, skew-symmetric centered
advection.  The curl construction makes the discrete velocity exactly
divergence free, and the vorticity wall data is coupled to u_tau lagged by
one step, with an optional fixed-point iteration for stiff (large alpha)
walls.

The top stream-function trace psi_+ equals -(1/|Omega|) int u1; with
constant wall traces that integral telescopes to -Gamma psi_+ exactly, so
recomputing it each step is an exact fixed point and the scheme conserves
the horizontal mean momentum it starts with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from rbns.elliptic import HelmholtzDirichlet, PoissonNeumann, SolveInfo, wall_spectra
from rbns.geometry import Walls
from rbns.grid import (
    MappedGrid,
    apply_L_tilde,
    d_x2,
    grad_physical,
    wall_tangential_derivatives,
    wall_tangential_velocity,
    x1_transform,
)


@dataclass(frozen=True)
class PhysicalParams:
    ra: float
    pr: float

    def __post_init__(self):
        if not self.ra >= 0.0:
            raise ValueError(f"Ra must be nonnegative, got {self.ra}")
        if not self.pr > 0.0:
            raise ValueError(f"Pr must be positive, got {self.pr}")


class CflViolation(RuntimeError):
    def __init__(self, dt: float, suggested_dt: float):
        super().__init__(
            f"dt = {dt:.3e} violates the advective CFL bound; "
            f"suggested dt <= {suggested_dt:.3e}"
        )
        self.suggested_dt = suggested_dt


@dataclass
class FlowState:
    """One time level; wall rows of the arrays hold the boundary data.

    u_tau is the (bottom, top) wall tangential velocity of (u1, u2),
    stacked (2, n1), evaluated where the state is built.  The multistep history
    prev_expl_* holds the explicit terms of the step that built the state,
    as interior-row x1 spectra (x1_transform's layout).
    """

    time: float
    omega: np.ndarray
    psi: np.ndarray
    temp: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    psi_top: float
    u_tau: np.ndarray
    prev_expl_omega: np.ndarray | None = None
    prev_expl_temp: np.ndarray | None = None
    prev_dt: float | None = None

    def without_history(self) -> "FlowState":
        """Drop the multistep history (used at checkpoint instants)."""
        return replace(self, prev_expl_omega=None, prev_expl_temp=None, prev_dt=None)


@dataclass
class StateDerivatives:
    """Derivatives of one FlowState, shared by its sample and the step from it.

    grad_omega and grad_temp are grad_physical pairs; the wall u_tau is the
    state's own.  omega_spectrum and temp_spectrum are the rfft(f, axis=0)
    of the full fields that their d_x1 took; the Crank-Nicolson solves read
    their interior rows as the old fields' coefficients.  The step consumes
    the set: it drops each gradient once its explicit terms are formed and
    each spectrum once its solve has read it, so no gradient is held
    through the elliptic solves.  grad_u is a sample's, from
    ``velocity_gradients``: recover_pressure drops it once its right-hand
    side is formed, before the Neumann solve.
    """

    grad_omega: tuple[np.ndarray, np.ndarray] | None
    grad_temp: tuple[np.ndarray, np.ndarray] | None
    omega_spectrum: np.ndarray | None = None
    temp_spectrum: np.ndarray | None = None
    grad_u: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def velocity_gradients(state: FlowState, grid: MappedGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d u1/dy2, d u2/dy1, d u2/dy2) of a state, one x1 transform pair.

    d u1/dy1 = -d u2/dy2 to rounding at every node: u = (-d psi/dy2, d psi/dy1),
    d_x1 and d_x2 act on different axes and h' is constant along x2.
    """
    return (d_x2(state.u1, grid), *grad_physical(state.u2, grid))


def boundary_vorticity(u_tau: np.ndarray, walls: Walls) -> np.ndarray:
    """Navier-slip vorticity wall data -2 (alpha + kappa) u_tau, (2, n1) like u_tau."""
    if u_tau.shape != walls.alpha.shape:
        raise ValueError("u_tau and boundary sample counts differ")
    return -2.0 * (walls.alpha + walls.kappa) * u_tau


class BoussinesqStepper:
    """Owns the elliptic solvers and advances FlowState in time."""

    def __init__(self, grid: MappedGrid, params: PhysicalParams,
                 walls: Walls, *,
                 coupling_sweeps: int = 0, coupling_tol: float = 1e-8,
                 cfl_safety: float = 0.4, buoyancy_safety: float = 0.35):
        if walls.n_samples != grid.n1:
            raise ValueError("boundary data must be sampled on the grid columns")
        self.grid = grid
        self.params = params
        self.walls = walls
        self.coupling_sweeps = coupling_sweeps
        self.coupling_tol = coupling_tol
        self.cfl_safety = cfl_safety
        self.buoyancy_safety = buoyancy_safety

        self.t_bottom = np.ones(grid.n1)
        self.t_top = np.zeros(grid.n1)
        self.poisson = HelmholtzDirichlet(grid, None)
        self.neumann = PoissonNeumann(grid)
        # wall terms of constant traces: the temperature Crank-Nicolson solve's
        # old plus new (a state's walls hold t_bottom, t_top), psi's per unit psi_+
        self._temp_walls = wall_spectra(2.0 * np.array((self.t_bottom, self.t_top)), grid)
        self._psi_walls = wall_spectra(np.array((np.zeros(grid.n1), np.ones(grid.n1))), grid)
        # (bottom, top) stacks: alpha + kappa, boundary_vorticity's factor
        # -2 (alpha + kappa), and kappa/Pr and Ra n2 of the pressure fluxes
        self._ak = walls.alpha + walls.kappa
        self._slip = -2.0 * self._ak
        self._kappa_pr = walls.kappa / params.pr
        self._ra_n2 = params.ra * walls.normal[0, :, 1]

    # -- state construction --------------------------------------------------

    def state_from_fields(self, temp: np.ndarray, psi: np.ndarray | None = None,
                          time: float = 0.0) -> FlowState:
        grid = self.grid
        if psi is None:
            psi = grid.zeros()
        u1, u2 = self._velocity(psi)
        u_tau = self.wall_u_tau(u1, u2)
        psi_top = float(np.mean(psi[:, -1]))
        omega = np.empty(grid.shape)
        omega[:, 1:-1] = apply_L_tilde(psi, grid)
        omega[:, [0, -1]] = boundary_vorticity(u_tau, self.walls).T
        return FlowState(time=time, omega=omega, psi=psi.copy(), temp=temp.copy(),
                         u1=u1, u2=u2, psi_top=psi_top, u_tau=u_tau)

    # -- time step sizing ------------------------------------------------------

    def cfl_limit(self, state: FlowState) -> float:
        grid = self.grid
        u1m = float(np.max(np.abs(state.u1)))
        u2c = state.u2 if grid.is_flat else state.u2 - grid.hp[:, None] * state.u1
        u2c = float(np.max(np.abs(u2c)))
        lim = np.inf
        if u1m > 0.0:
            lim = min(lim, grid.dx1 / u1m)
        if u2c > 0.0:
            lim = min(lim, grid.dx2 / u2c)
        return self.cfl_safety * lim

    def buoyancy_limit(self) -> float:
        """Stability cap for the explicit buoyancy coupling, ~ (Pr Ra)^(-1/2)."""
        prod = self.params.ra * self.params.pr
        return self.buoyancy_safety / np.sqrt(prod) if prod > 0 else np.inf

    def suggest_dt(self, cfl_limit: float, dt_cap: float = np.inf) -> float:
        """The automatic step from a state's cfl_limit: capped by the buoyancy limit and dt_cap."""
        return min(cfl_limit, self.buoyancy_limit(), dt_cap)

    # -- pieces ---------------------------------------------------------------

    def _velocity(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        psi_y1, psi_y2 = grad_physical(psi, self.grid)
        return -psi_y2, psi_y1

    def wall_u_tau(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """(bottom, top) wall tangential velocity of (u1, u2), stacked (2, n1)."""
        return wall_tangential_velocity(u1, u2, self.grid)

    def state_derivatives(self, state: FlowState) -> StateDerivatives:
        """grad omega and grad T of a state and their x1 spectra, evaluated once."""
        grid = self.grid
        w_hat = np.fft.rfft(state.omega, axis=0)
        t_hat = np.fft.rfft(state.temp, axis=0)
        return StateDerivatives(
            grad_omega=grad_physical(state.omega, grid, w_hat),
            grad_temp=grad_physical(state.temp, grid, t_hat),
            omega_spectrum=w_hat, temp_spectrum=t_hat,
        )

    def _advection(self, f: np.ndarray, grad_f: tuple[np.ndarray, np.ndarray],
                   u1: np.ndarray, u2: np.ndarray, u2c: np.ndarray,
                   forcing: np.ndarray | None = None) -> np.ndarray:
        """Skew-symmetric centered advection -(u.grad f + div(u f))/2 plus forcing (grid values).

        Interior-row x1 spectra (rows, nk); grad_f is grad_physical(f).  The
        divergence is the contravariant flux d_x1(u1 f) + d_x2(u2c f) with
        u2c = u2 - h' u1, equal to the chain-rule form because h' is constant
        along each x2 column.  g = -(u.grad f + d_x2(u2c f))/2 + forcing and
        q = u1 f are transformed once each, and the result is g^ - ik q^/2.
        """
        grid = self.grid
        fy1, fz = grad_f
        # full-grid products: contiguous, several times faster than on the interior rows
        g, w, p = np.multiply(u1, fy1), np.empty(grid.shape), np.empty(grid.shape)
        g += np.multiply(u2, fz, out=w)
        # the centered d_x2 of u2c f on the flattened C-ordered array: the
        # differences that straddle two x1 columns land on the unused wall rows
        np.multiply(u2c, f, out=p)
        np.subtract(p.ravel()[2:], p.ravel()[:-2], out=w.ravel()[1:-1])
        w /= 2.0 * grid.dx2
        g += w
        g *= -0.5
        if forcing is not None:
            g += forcing
        n_hat = x1_transform(g[:, 1:-1], grid)
        q_hat = x1_transform(np.multiply(u1, f, out=p)[:, 1:-1], grid)
        q_hat *= -0.5 * grid.ik_d1
        n_hat += q_hat
        return n_hat

    def _explicit_terms(self, state: FlowState,
                        derivs: StateDerivatives) -> tuple[np.ndarray, np.ndarray]:
        """Advection and buoyancy, interior-row x1 spectra; drops each gradient of derivs once used."""
        grid = self.grid
        pr, ra = self.params.pr, self.params.ra
        u1, u2 = state.u1, state.u2
        u2c = u2 if grid.is_flat else u2 - grid.hp[:, None] * u1
        grad_t, derivs.grad_temp = derivs.grad_temp, None
        n_t = self._advection(state.temp, grad_t, u1, u2, u2c)
        buoyancy = (pr * ra) * grad_t[0] if ra > 0.0 else None
        del grad_t
        grad_w, derivs.grad_omega = derivs.grad_omega, None
        n_w = self._advection(state.omega, grad_w, u1, u2, u2c, buoyancy)
        return n_w, n_t

    # -- the step ---------------------------------------------------------------

    def step(self, state: FlowState, dt: float, derivs: StateDerivatives,
             cfl_limit: float | None = None) -> FlowState:
        """Advance one semi-implicit step; raises CflViolation for over-large dt.

        derivs is state_derivatives(state); the step consumes its gradients.
        cfl_limit, if given, is cfl_limit(state), already evaluated to size dt.
        """
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        limit = self.cfl_limit(state) if cfl_limit is None else cfl_limit
        if dt > limit * (1.0 + 1e-9):
            raise CflViolation(dt, limit)
        grid = self.grid
        pr = self.params.pr

        n_w, n_t = self._explicit_terms(state, derivs)
        # dt times the explicit terms, AB2 (forward Euler on the first step)
        if state.prev_expl_omega is None or state.prev_dt is None:
            rhs_w, rhs_t = n_w * dt, n_t * dt
        else:
            r = dt / state.prev_dt
            rhs_w, rhs_t = n_w * (1.0 + 0.5 * r), n_t * (1.0 + 0.5 * r)
            rhs_w += state.prev_expl_omega * (-0.5 * r)
            rhs_t += state.prev_expl_temp * (-0.5 * r)
            rhs_w *= dt
            rhs_t *= dt

        # Crank-Nicolson: (I - c L) f_new = f + c L f + dt expl, assembled by the
        # solver from the interior x1 spectra of f (the state's) and dt expl
        helm_t = HelmholtzDirichlet(grid, 0.5 * dt)
        t_hat, derivs.temp_spectrum = derivs.temp_spectrum[:, 1:-1].T, None
        temp_new = helm_t.solve(None, self.t_bottom, self.t_top,
                                rhs_coords=helm_t.coordinates(rhs_t),
                                old=helm_t.coordinates(t_hat), walls=self._temp_walls)[0]
        del t_hat, rhs_t

        u_tau = state.u_tau
        psi_top = state.psi_top  # exact fixed point of the trace recomputation
        omega_new = psi_new = u1 = u2 = None
        helm_w = HelmholtzDirichlet(grid, 0.5 * pr * dt)
        w_old, derivs.omega_spectrum = derivs.omega_spectrum[:, 1:-1].T, None
        old_walls = state.omega.T[[0, -1]]
        for sweep in range(self.coupling_sweeps + 1):
            w_new = self._slip * u_tau                  # boundary_vorticity on both walls
            # the solve overwrites its right-hand side; a further sweep needs it again
            rhs = rhs_w if sweep == self.coupling_sweeps else rhs_w.copy()
            omega_new, info = helm_w.solve(None, w_new[0], w_new[1],
                                           rhs_coords=helm_w.coordinates(rhs),
                                           old=helm_w.coordinates(w_old),
                                           walls=wall_spectra(w_new + old_walls, grid))
            # the psi right-hand side's coordinates are minus omega_new's
            w_hat, info = info.coords, None
            psi_new = self.poisson.solve(
                None, np.zeros(grid.n1), np.full(grid.n1, psi_top), x0=state.psi,
                rhs_coords=np.negative(w_hat, out=w_hat), walls=psi_top * self._psi_walls)[0]
            w_hat = None
            u1, u2 = self._velocity(psi_new)
            u_tau, u_tau_old = self.wall_u_tau(u1, u2), u_tau
            if (sweep >= self.coupling_sweeps
                    or float(np.max(np.abs(u_tau - u_tau_old))) <= self.coupling_tol):
                break

        return FlowState(
            time=state.time + dt,
            omega=omega_new, psi=psi_new, temp=temp_new, u1=u1, u2=u2,
            psi_top=psi_top, u_tau=u_tau,
            prev_expl_omega=n_w, prev_expl_temp=n_t, prev_dt=dt,
        )

    # -- pressure ---------------------------------------------------------------

    def recover_pressure(self, state: FlowState,
                         derivs: StateDerivatives) -> tuple[np.ndarray, SolveInfo]:
        """Mean-zero pressure from the Neumann problem the momentum balance implies.

        Bulk:  Lap p = -(1/Pr) (grad u)^T : grad u + Ra dT/dy2.
        Walls: n.grad p = -(kappa/Pr) u_tau^2 + 2 d/dlambda((alpha+kappa) u_tau),
        plus n2 Ra on the bottom wall where T = 1.

        derivs is state_derivatives(state) with the sample's grad_u set
        (``velocity_gradients``); they are dropped once the right-hand side
        is formed, so the solve does not hold them.  Both walls' flux derivatives take one
        transform pair.  Each solve starts cold, so a resumed run recovers
        the same pressures.
        """
        grid = self.grid
        pr, ra = self.params.pr, self.params.ra
        u1z, u2y1, u2z = derivs.grad_u
        derivs.grad_u = None
        # -2 (u2z^2 + u2y1 u1z) / Pr + Ra dT/dy2 (u1y1 = -u2z), in two arrays
        rhs, work = np.multiply(u2z, u2z), np.multiply(u2y1, u1z)
        rhs += work
        del u1z, u2y1, u2z
        rhs *= -2.0 / pr
        if ra > 0.0:
            rhs += np.multiply(ra, derivs.grad_temp[1], out=work)
        del work

        # both walls' (bottom, top) lines at once
        fluxes = wall_tangential_derivatives(self._ak * state.u_tau, grid)
        fluxes *= 2.0
        fluxes -= self._kappa_pr * state.u_tau**2
        fluxes[0] += self._ra_n2
        return self.neumann.solve(rhs, *fluxes)
