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

The top stream-function trace psi_+ is held fixed: ``step`` carries the
state's value forward unchanged.  With psi = 0 on the bottom wall the net
horizontal flux int u1 dOmega is -Gamma psi_+, so every run keeps the flux
it starts with (0 from the default initial data); the channel is driven at
fixed flux, not at a fixed mean pressure gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    zero_wall_field,
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
    as interior-row x1 spectra (x1_transform's layout).  u2_spectrum, set by
    a flat step, is u2's (ik psi^ from the psi solve), read by a sample's
    ``velocity_gradients``; whoever forms the state's derivative set drops
    it (``state_derivatives``, or the runner's sample once recorded).
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
    u2_spectrum: np.ndarray | None = None


@dataclass
class StateDerivatives:
    """Derivatives of one FlowState, shared by its sample and the step from it.

    grad_omega and grad_temp are grad_physical pairs, omega_spectrum and
    temp_spectrum the rfft(f, axis=0) that their d_x1 took; the Crank-Nicolson
    solves read its interior rows as the old field's coefficients.  The step
    consumes the set: each gradient dies at its last use in the explicit terms
    and each spectrum once its solve's coordinates are formed.  grad_u is a
    sample's (``velocity_gradients``), dropped before the Neumann solve.
    """

    grad_omega: tuple[np.ndarray, np.ndarray] | None
    grad_temp: tuple[np.ndarray, np.ndarray] | None
    omega_spectrum: np.ndarray | None = None
    temp_spectrum: np.ndarray | None = None
    grad_u: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def field_derivatives(f: np.ndarray, grid: MappedGrid) -> tuple[tuple, np.ndarray]:
    """grad_physical(f) and the x1 spectrum rfft(f, axis=0) that its d_x1 takes."""
    spectrum = np.fft.rfft(f, axis=0)
    return grad_physical(f, grid, spectrum), spectrum


def velocity_gradients(state: FlowState, grid: MappedGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d u1/dy2, d u2/dy1, d u2/dy2) of a state, one x1 transform pair.

    d u1/dy1 = -d u2/dy2 to rounding at every node: u = (-d psi/dy2, d psi/dy1),
    d_x1 and d_x2 act on different axes and h' is constant along x2.  With
    the state's u2_spectrum (flat walls, where u2 = d psi/dx1 is zero on both
    walls) d u2/dy1 is one inverse transform.
    """
    u1_y2, u2 = d_x2(state.u1, grid), state.u2
    if state.u2_spectrum is None:
        return (u1_y2, *grad_physical(u2, grid))
    return u1_y2, zero_wall_field(state.u2_spectrum * grid.ik_d1, grid), d_x2(u2, grid)


def boundary_vorticity(u_tau: np.ndarray, walls: Walls) -> np.ndarray:
    """Navier-slip vorticity wall data -2 (alpha + kappa) u_tau, (2, n1) like u_tau."""
    if u_tau.shape != walls.alpha.shape:
        raise ValueError("u_tau and boundary sample counts differ")
    return -2.0 * (walls.alpha + walls.kappa) * u_tau


class BoussinesqStepper:
    """Owns the elliptic solvers and advances FlowState in time."""

    def __init__(self, grid: MappedGrid, params: PhysicalParams, walls: Walls, *,
                 coupling_sweeps: int, coupling_tol: float,
                 cfl_safety: float, buoyancy_safety: float):
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

    def state_from_fields(self, temp: np.ndarray, psi: np.ndarray | None = None) -> FlowState:
        grid = self.grid
        if psi is None:
            psi = np.zeros(grid.shape)
        u1, u2, _ = self._velocity(psi)
        u_tau = wall_tangential_velocity(u1, u2, grid)
        psi_top = float(np.mean(psi[:, -1]))
        omega = np.empty(grid.shape)
        omega[:, 1:-1] = apply_L_tilde(psi, grid)
        omega[:, [0, -1]] = boundary_vorticity(u_tau, self.walls).T
        return FlowState(time=0.0, omega=omega, psi=psi.copy(), temp=temp.copy(),
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

    def _velocity(self, psi: np.ndarray, psi_hat: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """u = (-d psi/dy2, d psi/dy1), and u2's interior-row x1 spectra or None.

        psi_hat, if given, is the x1 spectra of psi's interior rows (psi is
        constant along each wall), overwritten: d psi/dx1 is synthesized from
        ik psi_hat, so psi is not transformed again.  On flat grids, where
        u2 = d psi/dx1, those spectra are u2's and are returned.
        """
        grid = self.grid
        if psi_hat is None:
            psi_y1, psi_y2 = grad_physical(psi, grid)
            return -psi_y2, psi_y1, None
        psi_y2 = d_x2(psi, grid)
        psi_hat *= grid.ik_d1
        psi_y1 = zero_wall_field(psi_hat, grid)
        if not grid.is_flat:
            psi_hat = None
            psi_y1 -= grid.hp[:, None] * psi_y2
        return np.negative(psi_y2, out=psi_y2), psi_y1, psi_hat

    def state_derivatives(self, state: FlowState) -> StateDerivatives:
        """grad omega and grad T of a state and their x1 spectra, evaluated once.

        The state's u2_spectrum, read only by a sample's ``velocity_gradients``, is dropped.
        """
        state.u2_spectrum = None
        grad_omega, w_hat = field_derivatives(state.omega, self.grid)
        grad_temp, t_hat = field_derivatives(state.temp, self.grid)
        return StateDerivatives(grad_omega, grad_temp, w_hat, t_hat)

    def _advection(self, f: np.ndarray, grad_f: list | tuple,
                   u1: np.ndarray, u2: np.ndarray, u2c: np.ndarray,
                   forcing: list | tuple = ()) -> np.ndarray:
        """Skew-symmetric centered advection -(u.grad f + div(u f))/2 plus forcing (grid values).

        Interior-row x1 spectra (rows, nk); grad_f is grad_physical(f), forcing
        none or one array of grid values, and a list of either is emptied as it
        is read.  The divergence is the contravariant flux d_x1(u1 f) + d_x2(u2c f)
        with u2c = u2 - h' u1, equal to the chain-rule form because h' is constant
        along each x2 column.  g = -(u.grad f + d_x2(u2c f))/2 + forcing and
        q = u1 f are transformed once each, and the result is g^ - ik q^/2.
        """
        grid = self.grid
        fy1, fz = grad_f
        grad_f *= 0                 # empties a list in place (a tuple is only rebound)
        # full-grid products: contiguous, several times faster than on the interior rows
        g = np.multiply(u1, fy1)
        del fy1
        w = np.multiply(u2, fz)
        del fz
        g += w
        # the centered d_x2 of u2c f on the flattened C-ordered array: the
        # differences that straddle two x1 columns land on the unused wall rows
        p = np.multiply(u2c, f)
        flat = p.ravel()
        np.subtract(flat[2:], flat[:-2], out=w.ravel()[1:-1])
        w /= 2.0 * grid.dx2
        g += w
        del w
        g *= -0.5
        if forcing:
            g += forcing[0]
            forcing *= 0
        n_hat = x1_transform(g[:, 1:-1], grid)
        del g
        q_hat = x1_transform(np.multiply(u1, f, out=p)[:, 1:-1], grid)
        q_hat *= -0.5 * grid.ik_d1
        n_hat += q_hat
        return n_hat

    def _explicit_terms(self, state: FlowState,
                        derivs: StateDerivatives) -> tuple[np.ndarray, np.ndarray]:
        """Advection and buoyancy, interior-row x1 spectra; derivs' gradients die at last use."""
        grid = self.grid
        pr, ra = self.params.pr, self.params.ra
        u1, u2 = state.u1, state.u2
        u2c = u2 if grid.is_flat else u2 - grid.hp[:, None] * u1
        grad_t, derivs.grad_temp = [*derivs.grad_temp], None
        buoyancy = [(pr * ra) * grad_t[0]] if ra > 0.0 else []
        n_t = self._advection(state.temp, grad_t, u1, u2, u2c)
        grad_w, derivs.grad_omega = [*derivs.grad_omega], None
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
        # dt times the explicit terms, AB2 (forward Euler on the first step); the
        # vorticity's waits until the temperature solve is done, so that it does not hold it
        ab2 = state.prev_expl_omega is not None and state.prev_dt is not None
        r = dt / state.prev_dt if ab2 else 0.0
        rhs_t = n_t * (1.0 + 0.5 * r) if ab2 else n_t * dt
        if ab2:
            rhs_t += state.prev_expl_temp * (-0.5 * r)
            rhs_t *= dt

        # Crank-Nicolson: (I - c L) f_new = f + c L f + dt expl, assembled by the
        # solver from the interior x1 spectra of f (the state's) and dt expl
        helm_t = HelmholtzDirichlet(grid, 0.5 * dt)
        old, derivs.temp_spectrum = helm_t.coordinates(derivs.temp_spectrum[:, 1:-1].T), None
        rhs, rhs_t = helm_t.coordinates(rhs_t), None
        temp_new = helm_t.solve(None, self.t_bottom, self.t_top, rhs_coords=rhs, old=old,
                                walls=self._temp_walls)[0]
        del rhs, old, helm_t

        rhs_w = n_w * (1.0 + 0.5 * r) if ab2 else n_w * dt
        if ab2:
            rhs_w += state.prev_expl_omega * (-0.5 * r)
            rhs_w *= dt
        u_tau = state.u_tau
        psi_top = state.psi_top  # held: the net flux -Gamma psi_top is fixed
        omega_new = psi_new = u1 = u2 = u2_hat = None
        helm_w = HelmholtzDirichlet(grid, 0.5 * pr * dt)
        w_old, derivs.omega_spectrum = derivs.omega_spectrum[:, 1:-1].T, None
        old_walls = state.omega.T[[0, -1]]
        for sweep in range(self.coupling_sweeps + 1):
            last = sweep == self.coupling_sweeps
            w_new = self._slip * u_tau                  # boundary_vorticity on both walls
            old = helm_w.coordinates(w_old)
            # the solve overwrites its right-hand side; a further sweep needs it again
            rhs = helm_w.coordinates(rhs_w if last else rhs_w.copy())
            # spent after the last sweep; a sweep that converges early holds
            # them through its psi solve, since only that solve's u_tau shows it
            if last:
                del rhs_w, w_old
            omega_new, info = helm_w.solve(None, w_new[0], w_new[1], rhs_coords=rhs, old=old,
                                           walls=wall_spectra(w_new + old_walls, grid))
            del rhs, old
            if last:
                del helm_w
            # the psi right-hand side's coordinates are minus omega_new's
            w_hat, info = info.coords, None
            psi_new, info = self.poisson.solve(
                None, np.zeros(grid.n1), np.full(grid.n1, psi_top), x0=state.psi,
                rhs_coords=np.negative(w_hat, out=w_hat), walls=psi_top * self._psi_walls)
            w_hat = None
            # psi's spectra spare the velocity a forward transform; on flat
            # grids they turn into u2's, which the new state carries
            psi_hat, info = info.spectra, None
            u1, u2, u2_hat = self._velocity(psi_new, psi_hat)
            del psi_hat
            u_tau, u_tau_old = wall_tangential_velocity(u1, u2, grid), u_tau
            if (sweep >= self.coupling_sweeps
                    or float(np.max(np.abs(u_tau - u_tau_old))) <= self.coupling_tol):
                break

        return FlowState(
            time=state.time + dt,
            omega=omega_new, psi=psi_new, temp=temp_new, u1=u1, u2=u2,
            psi_top=psi_top, u_tau=u_tau,
            prev_expl_omega=n_w, prev_expl_temp=n_t, prev_dt=dt,
            u2_spectrum=u2_hat,
        )

    # -- pressure ---------------------------------------------------------------

    def recover_pressure(self, state: FlowState,
                         derivs: StateDerivatives) -> tuple[np.ndarray, SolveInfo]:
        """Wall traces (bottom, top), (2, n1), of the mean-zero pressure of the Neumann problem.

        Bulk:  Lap p = -(1/Pr) (grad u)^T : grad u + Ra dT/dy2.
        Walls: n.grad p = -(kappa/Pr) u_tau^2 + 2 d/dlambda((alpha+kappa) u_tau),
        plus n2 Ra on the bottom wall where T = 1.

        derivs holds the state's grad_temp and the sample's grad_u
        (``velocity_gradients``); grad_u is dropped once the bulk term is formed.  Both
        walls' flux derivatives take one transform pair.  Only the wall traces
        are read (``PoissonNeumann.wall_traces``), so the field is never
        synthesized.  Each solve starts cold, so a resumed run recovers the
        same pressures.
        """
        # both walls' (bottom, top) lines at once
        fluxes = wall_tangential_derivatives(self._ak * state.u_tau, self.grid)
        fluxes *= 2.0
        fluxes -= self._kappa_pr * state.u_tau**2
        fluxes[0] += self._ra_n2
        # the solve weights the bulk term in place; unnamed here, it is freed once transformed
        return self.neumann.wall_traces(self._pressure_bulk(derivs), fluxes[0], fluxes[1])

    def _pressure_bulk(self, derivs: StateDerivatives) -> np.ndarray:
        """-2 (u2z^2 + u2y1 u1z) / Pr + Ra dT/dy2 (u1y1 = -u2z), F-ordered; drops grad_u."""
        pr, ra = self.params.pr, self.params.ra
        u1z, u2y1, u2z = derivs.grad_u
        derivs.grad_u = None
        rhs, work = np.multiply(u2z, u2z, order="F"), np.multiply(u2y1, u1z, order="F")
        rhs += work
        del u1z, u2y1, u2z
        rhs *= -2.0 / pr
        if ra > 0.0:
            rhs += np.multiply(ra, derivs.grad_temp[1], out=work)
        return rhs
