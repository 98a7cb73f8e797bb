"""Grid-value reference for ``rbns.solver.BoussinesqStepper.step``.

The step keeps its explicit terms in x1 spectra of the interior rows and
hands the Crank-Nicolson solves the state's own spectra.  This reference
forms every term on grid values, as the scheme reads: the skew-symmetric
advection from full-grid derivatives, the Adams-Bashforth combination, the
Crank-Nicolson right-hand side f + c L f + dt expl from ``apply_L_tilde``,
and fresh Dirichlet solvers that add the new wall traces themselves.  Its
multistep history is kept as grid values in the returned state's
``prev_expl_*``.  The two must agree to rounding.
"""

from __future__ import annotations

import numpy as np

from rbns.elliptic import HelmholtzDirichlet
from rbns.grid import apply_L_tilde, d_x1, d_x2, grad_physical, wall_tangential_velocity
from rbns.solver import BoussinesqStepper, FlowState, boundary_vorticity


def reference_step(stepper: BoussinesqStepper, state: FlowState, dt: float) -> FlowState:
    """One step (no coupling sweeps) from a state built by ``state_from_fields`` or by this function."""
    grid = stepper.grid
    pr, ra = stepper.params.pr, stepper.params.ra
    u1, u2 = state.u1, state.u2
    u2c = u2 - grid.hp[:, None] * u1

    def advection(f):
        fy1, fz = grad_physical(f, grid)
        return -0.5 * (u1 * fy1 + u2 * fz + d_x1(u1 * f, grid) + d_x2(u2c * f, grid))

    n_t = advection(state.temp)[:, 1:-1]
    n_w = (advection(state.omega) + pr * ra * grad_physical(state.temp, grid)[0])[:, 1:-1]
    expl_t, expl_w = n_t, n_w
    if state.prev_dt is not None:
        r = dt / state.prev_dt
        expl_t = (1.0 + 0.5 * r) * n_t - 0.5 * r * state.prev_expl_temp
        expl_w = (1.0 + 0.5 * r) * n_w - 0.5 * r * state.prev_expl_omega

    def crank_nicolson(f, c, expl, bottom, top):
        rhs = f[:, 1:-1] + c * apply_L_tilde(f, grid) + dt * expl
        return HelmholtzDirichlet(grid, c).solve(rhs, bottom, top, x0=f)[0]

    temp = crank_nicolson(state.temp, 0.5 * dt, expl_t, stepper.t_bottom, stepper.t_top)
    omega = crank_nicolson(state.omega, 0.5 * pr * dt, expl_w,
                           *boundary_vorticity(state.u_tau, stepper.walls))
    psi = HelmholtzDirichlet(grid, None).solve(-omega[:, 1:-1], np.zeros(grid.n1),
                                               np.full(grid.n1, state.psi_top), x0=state.psi)[0]
    psi_y1, psi_y2 = grad_physical(psi, grid)
    u1, u2 = -psi_y2, psi_y1
    return FlowState(time=state.time + dt, omega=omega, psi=psi, temp=temp, u1=u1, u2=u2,
                     psi_top=state.psi_top, u_tau=wall_tangential_velocity(u1, u2, grid),
                     prev_expl_omega=n_w, prev_expl_temp=n_t, prev_dt=dt)
