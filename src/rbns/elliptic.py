"""Elliptic solves on the flattened grid.

Three problems back the time stepper and the pressure recovery:

  * Dirichlet Poisson      -L u = -rhs        with given wall traces
  * Dirichlet Helmholtz    (I - c L) u = rhs  with given wall traces, c > 0
  * Neumann Poisson         L p = rhs         with given physical conormal
                                              fluxes n.grad(p), mean-zero p

where L is the mapped divergence-form Laplacian.  The Dirichlet problems
apply it through ``rbns.grid.apply_L_tilde``, which lives in the grid
module with the other mapped derivatives; the Neumann problem has its own
face discretization (below).  On a flat grid every problem is solved
directly in a tensor-product eigenbasis (Lynch, Rice & Thomas 1964): the x2
operators have closed-form bases, a discrete sine basis for the interior
Dirichlet rows and a cosine (DCT-I) basis for the Neumann nodes, and x1 is
diagonalized by the FFT, so a solve is a basis change in x2, an rfft in x1,
one elementwise divide and the inverse transforms.  On rough grids the interior operator is symmetric
positive definite (the coefficient matrix has unit determinant), and we run
preconditioned conjugate gradients with the flat-metric eigenbasis solve
(mean x2 coefficient) as the preconditioner.  Dirichlet wall data reach only
the two rows next to the walls and are moved into the right-hand side
there, without a full-grid apply.

The Neumann problem is discretized from the Dirichlet energy on x2 cell
faces (gradient components averaged/differenced to face midpoints), which
makes the operator symmetric positive semidefinite with constants as its
kernel by construction; the right-hand side is projected onto the
compatible subspace and the projection defect reported.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from rbns.grid import MappedGrid, apply_L_tilde, d_x1, volume_integral


class EllipticError(RuntimeError):
    """Iterative solve failed to reach tolerance within the iteration cap."""

    def __init__(self, message: str, iterations: int, rel_residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.rel_residual = rel_residual


@dataclass
class SolveInfo:
    iterations: int
    rel_residual: float
    method: str
    compat_defect: float = 0.0


def default_maxiter(grid: MappedGrid) -> int:
    return int(10 * grid.n2 * np.sqrt(grid.n1))


# ---------------------------------------------------------------------------
# closed-form x2 eigenbases (one per n2, shared and read-only)
# ---------------------------------------------------------------------------

def _second_difference_eigenvalues(n: int, j: np.ndarray) -> np.ndarray:
    """(2 - 2 cos(pi j / n)) n^2, in the cancellation-free sine form."""
    return (2.0 * n * np.sin(0.5 * np.pi * j / n)) ** 2


@functools.cache
def _sine_basis(n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal symmetric S and eigenvalues of the interior -D2 (Dirichlet).

    S[i, j] = sqrt(2/n) sin(pi i j / n), i, j = 1..n-1 with n = n2 - 1, and
    -D2 S = S diag(lam) for the 3-point second difference on the n2-2
    interior rows with zero wall values.
    """
    n = n2 - 1
    j = np.arange(1, n)
    phase = np.outer(j, j) % (2 * n)          # exact reduction of the sine argument
    s = np.sqrt(2.0 / n) * np.sin(np.pi * phase / n)
    lam = _second_difference_eigenvalues(n, j)
    s.setflags(write=False)
    lam.setflags(write=False)
    return s, lam


@functools.cache
def _cosine_basis(n2: int) -> tuple[np.ndarray, np.ndarray]:
    """W-orthonormal V and eigenvalues of Gz^T Gz on the n2 nodes (Neumann).

    V[i, j] is cos(pi i j / n), i, j = 0..n with n = n2 - 1, scaled so that
    V^T W V = I for the trapezoid weights W = diag(1/2, 1, ..., 1, 1/2);
    then Gz^T Gz V = W V diag(mu).  Column 0 (mu = 0) spans the constants.
    """
    n = n2 - 1
    j = np.arange(n2)
    phase = np.outer(j, j) % (2 * n)
    v = np.cos(np.pi * phase / n) * np.sqrt(2.0 / n)
    v[:, [0, -1]] *= np.sqrt(0.5)
    mu = _second_difference_eigenvalues(n, j)
    v.setflags(write=False)
    mu.setflags(write=False)
    return v, mu


# ---------------------------------------------------------------------------
# Dirichlet wall data
# ---------------------------------------------------------------------------

def _embed(v_int: np.ndarray, grid: MappedGrid) -> np.ndarray:
    full = np.zeros(grid.shape)
    full[:, 1:-1] = v_int
    return full


def _dirichlet_rhs(c: float, rhs_int: np.ndarray, bottom: np.ndarray, top: np.ndarray,
                   grid: MappedGrid) -> np.ndarray:
    """Move the Dirichlet data into the right-hand side of (sigma*I - c*L).

    This is rhs + c * (interior L of the wall-only field), which is nonzero
    only on the two rows next to the walls: there the 3-point x2 stencil
    reads the wall value and, on rough grids, the centered x2 difference in
    the two cross terms gives +-[dx1(h' g) + h' dx1 g] / (2 dx2) for the
    wall trace g.
    """
    b = rhs_int.copy()
    b[:, 0] += c * (grid.a22 * bottom / grid.dx2**2)
    b[:, -1] += c * (grid.a22 * top / grid.dx2**2)
    if not grid.is_flat:
        hp = grid.hp[:, None]
        wall = np.stack([bottom, top], axis=1)                    # (n1, 2)
        d = d_x1(np.hstack([hp * wall, wall]), grid)
        cross = (d[:, :2] + hp * d[:, 2:]) / (2.0 * grid.dx2)
        b[:, 0] += c * cross[:, 0]
        b[:, -1] -= c * cross[:, 1]
    return b


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def _pcg(apply_a, apply_m, b: np.ndarray, x0: np.ndarray | None,
         tol: float, maxiter: int, name: str) -> tuple[np.ndarray, SolveInfo]:
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0, "pcg")
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - apply_a(x)
    z = apply_m(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / float(np.vdot(p, ap).real)
        x += alpha * p
        ap *= alpha
        r -= ap
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= tol:
            return x, SolveInfo(it, rel, "pcg")
        z = apply_m(r)
        rz_new = float(np.vdot(r, z).real)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise EllipticError(f"{name}: PCG did not reach {tol:g} in {maxiter} iterations "
                        f"(residual {rel:.3e})", maxiter, rel)


# ---------------------------------------------------------------------------
# Dirichlet / Helmholtz front ends
# ---------------------------------------------------------------------------

class HelmholtzDirichlet:
    """Solver for (I - c L) u = rhs with Dirichlet wall traces (c >= 0).

    With c=None the operator is the Poisson one (-L u = -rhs).  The flat
    operator sigma - c (Dxx + a Dzz) is diagonal in the x1 Fourier modes
    times the x2 sine basis, so construction computes only its eigenvalues
    (one divisor array); ``a`` is 1 on flat grids and the mean of 1 + h'^2
    when the flat solve preconditions PCG on rough ones.
    """

    def __init__(self, grid: MappedGrid, c: float | None, tol: float = 1e-10,
                 maxiter: int | None = None):
        self.grid = grid
        self.c = c
        self.tol = tol
        self.maxiter = maxiter if maxiter is not None else default_maxiter(grid)
        sigma = 0.0 if c is None else 1.0
        ceff = 1.0 if c is None else c
        self._sigma, self._ceff = sigma, ceff
        a = 1.0 if grid.is_flat else float(np.mean(grid.a22))
        _, lam = _sine_basis(grid.n2)
        self._divisor = sigma + ceff * (grid.k2[:, None] + a * lam[None, :])

    def _flat_solve(self, b: np.ndarray) -> np.ndarray:
        """Flat-operator solve on the interior rows: (n1, n2-2) -> (n1, n2-2)."""
        s, _ = _sine_basis(self.grid.n2)
        bhat = np.fft.rfft(b @ s, axis=0)
        return np.fft.irfft(bhat / self._divisor, n=self.grid.n1, axis=0) @ s

    def _apply(self, v_int: np.ndarray) -> np.ndarray:
        out = apply_L_tilde(_embed(v_int, self.grid), self.grid)
        out *= -self._ceff
        if self._sigma:
            out += v_int
        return out

    def solve(self, rhs_int: np.ndarray, bottom: np.ndarray, top: np.ndarray,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
        """Returns the full-field solution (wall rows set to the given traces)."""
        grid = self.grid
        b = _dirichlet_rhs(self._ceff, rhs_int, bottom, top, grid)
        if grid.is_flat:
            u_int = self._flat_solve(b)
            info = SolveInfo(1, 0.0, "direct")
        else:
            u_int, info = _pcg(self._apply, self._flat_solve, b,
                               x0[:, 1:-1] if x0 is not None and x0.shape == grid.shape else x0,
                               self.tol, self.maxiter, "helmholtz" if self._sigma else "poisson")
        full = np.empty(grid.shape)
        full[:, 1:-1] = u_int
        full[:, 0] = bottom
        full[:, -1] = top
        return full, info


def solve_poisson_dirichlet(rhs: np.ndarray, bottom, top, grid: MappedGrid,
                            tol: float = 1e-10, maxiter: int | None = None,
                            x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
    """Solve L u = rhs with Dirichlet traces; rhs given at interior nodes.

    rhs may be a full (n1, n2) array (wall rows ignored) or (n1, n2-2).
    """
    rhs_int = rhs[:, 1:-1] if rhs.shape == grid.shape else rhs
    bottom = np.broadcast_to(np.asarray(bottom, dtype=float), (grid.n1,))
    top = np.broadcast_to(np.asarray(top, dtype=float), (grid.n1,))
    solver = HelmholtzDirichlet(grid, None, tol, maxiter)
    # -L u = -rhs
    return solver.solve(-rhs_int, bottom, top, x0)


def solve_helmholtz_dirichlet(c: float, rhs: np.ndarray, bottom, top, grid: MappedGrid,
                              tol: float = 1e-10, maxiter: int | None = None,
                              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
    rhs_int = rhs[:, 1:-1] if rhs.shape == grid.shape else rhs
    bottom = np.broadcast_to(np.asarray(bottom, dtype=float), (grid.n1,))
    top = np.broadcast_to(np.asarray(top, dtype=float), (grid.n1,))
    solver = HelmholtzDirichlet(grid, c, tol, maxiter)
    return solver.solve(rhs_int, bottom, top, x0)


# ---------------------------------------------------------------------------
# Neumann Poisson (mean-zero pressure)
# ---------------------------------------------------------------------------

def _remove_kernel(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Project out the kernel of the face-scheme operator (plain inner product).

    The kernel is the constants and, for even n1, a second (non-physical)
    vector: the skew x1 derivative zeroes the Nyquist mode, so a field
    alternating in x1 and constant in x2 is annihilated too.
    """
    f = f - np.sum(f) / f.size
    if grid.n1 % 2 == 0:
        v2 = np.empty(grid.n1)
        v2[0::2], v2[1::2] = 1.0, -1.0
        f -= (np.sum(v2[:, None] * f) / f.size) * v2[:, None]
    return f


class PoissonNeumann:
    """L p = rhs with physical conormal fluxes n.grad(p) given on the walls.

    Discretized from the Dirichlet energy on x2 cell faces: gradient
    components are averaged (x1) / differenced (x2) to face midpoints, so
    the assembled operator is A = G^T C G, symmetric positive semidefinite
    with ker A = constants.  The weak right-hand side is

        b = -W rhs + dx1 * sqrt(1+h'^2) * flux     (flux rows only),

    where W are trapezoid node weights; b is projected orthogonal to the
    kernel and the projection defect reported.  The solution is returned
    with zero volume mean.
    """

    def __init__(self, grid: MappedGrid, tol: float = 1e-10, maxiter: int | None = None):
        self.grid = grid
        self.tol = tol
        self.maxiter = maxiter if maxiter is not None else default_maxiter(grid)
        # Per x1 mode the flat operator is dx1 dx2 (kk Av^T Av + a Gz^T Gz)
        # = dx1 dx2 (kk W + (a - kk dx2^2/4) Gz^T Gz), since
        # Av^T Av = W - (dx2^2/4) Gz^T Gz with W = diag(1/2, 1, ..., 1, 1/2):
        # diagonal in the W-orthonormal cosine basis.  kk is the x1 symbol of
        # apply(); the skew derivative zeroes the Nyquist mode, so that mode
        # is singular like k = 0, and an infinite divisor zeroes their kernel
        # coefficient.
        a = 1.0 if grid.is_flat else float(np.mean(grid.a22))
        _, mu = _cosine_basis(grid.n2)
        kk = (np.abs(grid.ik_d1) ** 2)[:, None]
        self._divisor = grid.dx1 * grid.dx2 * (kk + (a - 0.25 * grid.dx2**2 * kk) * mu[None, :])
        self._divisor[kk[:, 0] == 0.0, 0] = np.inf

    # face-scheme operator -------------------------------------------------
    def apply(self, p: np.ndarray) -> np.ndarray:
        grid = self.grid
        dxp = d_x1(p, grid)
        gx = 0.5 * (dxp[:, 1:] + dxp[:, :-1])
        gz = (p[:, 1:] - p[:, :-1]) / grid.dx2
        if grid.is_flat:
            q1, q2 = gx, gz
        else:
            hp = grid.hp[:, None]
            q1 = gx - hp * gz
            q2 = -hp * gx + grid.a22[:, None] * gz
        # adjoints, with the weight dx1 dx2 folded into the face fluxes:
        # Gx^T = -Dx Av^T (Dx per face, then averaged to the nodes), and
        # Gz^T the difference scatter; face j feeds nodes j and j+1
        dq1 = d_x1(q1 * (0.5 * grid.dx1 * grid.dx2), grid)
        q2 = q2 * grid.dx1
        out = np.empty(grid.shape)
        out[:, :-1] = -(dq1 + q2)
        out[:, -1] = q2[:, -1] - dq1[:, -1]
        out[:, 1:-1] += q2[:, :-1] - dq1[:, :-1]
        return out

    # flat-metric direct solve (the rough-grid preconditioner) --------------
    def _flat_solve(self, b: np.ndarray) -> np.ndarray:
        """Exact flat-operator solve on the compatible subspace.

        The singular modes come back with zero mean in x2.
        """
        grid = self.grid
        v, _ = _cosine_basis(grid.n2)
        bhat = np.fft.rfft(b @ v, axis=0)
        return _remove_kernel(np.fft.irfft(bhat / self._divisor, n=grid.n1, axis=0) @ v.T, grid)

    # front end --------------------------------------------------------------
    def solve(self, rhs: np.ndarray, flux_bottom, flux_top,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
        grid = self.grid
        flux_bottom = np.broadcast_to(np.asarray(flux_bottom, dtype=float), (grid.n1,))
        flux_top = np.broadcast_to(np.asarray(flux_top, dtype=float), (grid.n1,))
        b = -(rhs * grid.w2[None, :]) * grid.dx1
        b[:, 0] += grid.dx1 * grid.ds_weight * flux_bottom
        b[:, -1] += grid.dx1 * grid.ds_weight * flux_top
        # compatibility: project out the kernel component and report it
        defect = float(np.sum(b))
        scale = float(np.sum(np.abs(b)))
        rel_defect = abs(defect) / scale if scale > 0 else 0.0
        b = _remove_kernel(b, grid)

        if grid.is_flat:
            p = self._flat_solve(b)
            info = SolveInfo(1, 0.0, "direct", rel_defect)
        else:
            p, info = _pcg(self.apply, self._flat_solve, b,
                           x0, self.tol, self.maxiter, "neumann")
            info.compat_defect = rel_defect
        p -= volume_integral(p, grid) / grid.area
        return p, info


def solve_poisson_neumann(rhs: np.ndarray, flux_bottom, flux_top, grid: MappedGrid,
                          tol: float = 1e-10, maxiter: int | None = None,
                          x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
    """One-shot Neumann solve; see :class:`PoissonNeumann`."""
    return PoissonNeumann(grid, tol, maxiter).solve(rhs, flux_bottom, flux_top, x0)
