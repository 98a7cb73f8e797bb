"""Elliptic solves on the flattened grid.

Three problems back the time stepper and the pressure recovery:

  * Dirichlet Poisson      -L u = -rhs        with given wall traces
  * Dirichlet Helmholtz    (I - c L) u = rhs  with given wall traces, c > 0
  * Neumann Poisson         L p = rhs         with given physical conormal
                                              fluxes n.grad(p), mean-zero p

where L is the mapped divergence-form Laplacian.  The Dirichlet problems
apply it through ``rbns.grid.SineOperator``, which lives in the grid module
with the other mapped derivatives; the Neumann problem has its own face
discretization (below).  Dirichlet wall data reach only the two rows next
to the walls (``rbns.grid.laplacian_of_walls``) and are moved into the
right-hand side there.

Every solve works on x1-Fourier coefficients in the layout of
``rbns.grid.to_coefficients``: x2-major, (rows, n1//2+1) complex.  On a flat
grid each problem is solved directly in a tensor-product eigenbasis (Lynch,
Rice & Thomas 1964): x1 is diagonal in the coefficients and the x2
operators have the closed-form bases of ``rbns.grid`` (sine for the interior
Dirichlet rows, cosine for the Neumann nodes), so a solve is one forward
transform, ``to_basis``, one elementwise product with the reciprocal
eigenvalues, ``from_basis`` and one inverse transform.  The isometric
scaling of the coefficients commutes with that solve, so the direct path
leaves it out.

On rough grids the operators are symmetric (positive semidefinite for
Neumann; the coefficient matrix has unit determinant) and we run
preconditioned conjugate gradients.  The Dirichlet problems iterate on the
sine coordinates y = S^T c of the isometric coefficients c; S is
orthonormal, so PCG makes the same iterates as on c or on grid values.  In
these coordinates the flat-metric preconditioner (mean x2 coefficient) is
diagonal, one multiply by the reciprocal of the SineOperator's ``divisor``,
and an iteration makes two half-size GEMMs and no x1 transform or basis
change; the basis changes happen once per solve.  The Neumann problem
iterates on c, with the cosine-basis solve as its preconditioner (four
half-size GEMMs) and two multiply-adds per Fourier term of h'.

The Neumann problem is discretized from the Dirichlet energy on x2 cell
faces (gradient components averaged/differenced to face midpoints), which
makes the operator symmetric positive semidefinite with constants as its
kernel by construction; the right-hand side is projected onto the
compatible subspace and the projection defect reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbns.grid import (
    MappedGrid,
    SineOperator,
    _cosine_basis,
    _parity_basis,
    _ParityBasis,
    _sine_basis,
    convolve,
    from_basis,
    from_coefficients,
    laplacian_of_walls,
    sine_divisor,
    to_basis,
    to_coefficients,
    widen,
    x1_inverse,
    x1_transform,
)


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


def _eigen_solve(basis: _ParityBasis, x: np.ndarray, inv_divisor: np.ndarray,
                 grid: MappedGrid) -> np.ndarray:
    """Q @ ((Q^T @ x) * inv_divisor) for C-ordered x2-major coefficients x.

    Four half-size real GEMMs and one elementwise product with the
    reciprocal eigenvalues (rows, nk), given in the basis' split order; no
    transform.  numpy divides complex by real arrays in complex arithmetic,
    several times slower than the product, so the reciprocal is stored.
    """
    y = to_basis(basis, x, grid)
    y *= inv_divisor
    return from_basis(basis, y, grid)


# ---------------------------------------------------------------------------
# Dirichlet wall data
# ---------------------------------------------------------------------------

def _dirichlet_rhs(c: float, rhs_int: np.ndarray, bottom: np.ndarray, top: np.ndarray,
                   grid: MappedGrid) -> np.ndarray:
    """Move the Dirichlet data into the right-hand side of (sigma*I - c*L).

    This is rhs + c * (interior L of the wall-only field), nonzero only on
    the two rows next to the walls.  b is Fortran-ordered, so x1_transform
    reads its rows without a transposing copy.
    """
    b = np.array(rhs_int, order="F")
    near_bottom, near_top = laplacian_of_walls(bottom, top, grid)
    b[:, 0] += c * near_bottom
    b[:, -1] += c * near_top
    return b


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def _pcg(apply_a, apply_m, b: np.ndarray, x0: np.ndarray | None,
         tol: float, maxiter: int, name: str) -> tuple[np.ndarray, SolveInfo]:
    """Preconditioned conjugate gradients; x0, if given, is updated in place.

    apply_m may return the same array at every call: its result is spent
    before the next call.  Apart from what the two return, the loop allocates
    nothing.  Norms come from vdot, a third of the time of np.linalg.norm on
    complex arrays (two strided real dots).
    """
    bnorm = float(np.sqrt(np.vdot(b, b).real))
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0, "pcg")
    x = np.zeros_like(b) if x0 is None else x0
    r = b - apply_a(x)
    z = apply_m(r)
    p = z.copy()
    step = np.empty_like(p)
    rz = float(np.vdot(r, z).real)
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / float(np.vdot(p, ap).real)
        x += np.multiply(p, alpha, out=step)
        ap *= alpha
        r -= ap
        rel = float(np.sqrt(np.vdot(r, r).real)) / bnorm
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
    times the x2 sine basis (``rbns.grid.sine_divisor``: ``a`` is 1 on flat
    grids and the mean of 1 + h'^2 on rough ones).  A flat grid keeps only
    the reciprocals of those eigenvalues and solves directly with them; a
    rough grid builds a ``rbns.grid.SineOperator`` and runs PCG on sine
    coordinates, with the reciprocals as its diagonal preconditioner.
    """

    def __init__(self, grid: MappedGrid, c: float | None, tol: float = 1e-10,
                 maxiter: int | None = None):
        self.grid = grid
        self.c = c
        self.tol = tol
        self.maxiter = maxiter if maxiter is not None else default_maxiter(grid)
        self._sigma = 0.0 if c is None else 1.0
        self._ceff = 1.0 if c is None else c
        self._basis = _parity_basis(_sine_basis, grid.n2)
        if grid.is_flat:
            self._inv_divisor = sine_divisor(grid, self._sigma, self._ceff)
            np.reciprocal(self._inv_divisor, out=self._inv_divisor)
        else:
            self._operator = SineOperator(grid, self._sigma, self._ceff)
            self._inv_divisor = np.reciprocal(self._operator.divisor)

    def solve(self, rhs_int: np.ndarray, bottom: np.ndarray, top: np.ndarray,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
        """Returns the full-field solution (wall rows set to the given traces).

        x0, a full field or its interior rows, starts the rough-grid PCG.
        """
        grid = self.grid
        b = _dirichlet_rhs(self._ceff, rhs_int, bottom, top, grid)
        full = np.empty(grid.shape)
        if grid.is_flat:
            u = _eigen_solve(self._basis, x1_transform(b, grid), self._inv_divisor, grid)
            full[:, 1:-1] = x1_inverse(u, grid)
            info = SolveInfo(1, 0.0, "direct")
        else:
            b = to_basis(self._basis, to_coefficients(b, grid), grid)
            if x0 is not None:
                x0 = to_coefficients(x0[:, 1:-1] if x0.shape == grid.shape else x0, grid)
                x0 = to_basis(self._basis, x0, grid)
            z = np.empty_like(b)
            u, info = _pcg(self._operator.apply,
                           lambda r: np.multiply(r, self._inv_divisor, out=z), b, x0,
                           self.tol, self.maxiter, "helmholtz" if self._sigma else "poisson")
            del b, x0, z
            full[:, 1:-1] = from_coefficients(from_basis(self._basis, u, grid), grid)
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

def _remove_kernel(c: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Project out the kernel of the face-scheme operator, in place (plain inner product).

    The kernel is the constants and, for even n1, a second (non-physical)
    vector: the skew x1 derivative zeroes the Nyquist mode, so a field
    alternating in x1 and constant in x2 is annihilated too.  In x2-major
    coefficients each is a constant k = 0 or Nyquist column, so the
    projection removes the plain mean of that column.
    """
    c[:, 0] -= c[:, 0].mean()
    if grid.n1 % 2 == 0:
        c[:, -1] -= c[:, -1].mean()
    return c


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
        self._basis = _parity_basis(_cosine_basis, grid.n2)
        kk = np.abs(grid.ik_d1) ** 2
        self._inv_divisor = np.multiply.outer(self._basis.eig, a - 0.25 * grid.dx2**2 * kk)
        self._inv_divisor += kk
        self._inv_divisor *= grid.dx1 * grid.dx2
        self._inv_divisor[0, kk == 0.0] = np.inf
        np.reciprocal(self._inv_divisor, out=self._inv_divisor)

    # face-scheme operator -------------------------------------------------
    def apply(self, p: np.ndarray) -> np.ndarray:
        """A p on node coefficients (n2, nk) in the to_coefficients layout."""
        grid = self.grid
        rows, nk = p.shape[0] - 1, p.shape[1]
        b = grid.band
        # face gradient: gx = dx1 p averaged to the faces, gz the x2 difference
        g = np.empty((2, rows, nk + 2 * b), dtype=complex)
        gx, gz = g[:, :, b:b + nk]
        np.add(p[1:], p[:-1], out=gx)
        gx *= 0.5 * grid.ik_d1
        np.subtract(p[1:], p[:-1], out=gz)
        gz *= 1.0 / grid.dx2
        if not grid.is_flat:
            # q1 = gx - h' gz and q2 = -h' gx + (1 + h'^2) gz = gz - h' q1, in
            # place by convolution with the grid spectrum of h'
            convolve(gx, widen(g[1], grid), grid.mhp_shifts, grid)
            convolve(gz, widen(g[0], grid), grid.mhp_shifts, grid)
        # adjoints, which fold in the weight dx1 dx2: Gx^T = -Dx Av^T (Dx per
        # face, then averaged to the nodes), and Gz^T the difference
        # scatter; face j feeds nodes j, j+1
        dq1, q2 = gx, gz
        dq1 *= (0.5 * grid.dx1 * grid.dx2) * grid.ik_d1
        q2 *= grid.dx1
        out = np.empty(p.shape, dtype=complex)
        np.subtract(q2, dq1, out=out[1:])
        out[0] = 0.0
        out[:-1] -= dq1
        out[:-1] -= q2
        return out

    # flat-metric direct solve (the rough-grid preconditioner) --------------
    def _precondition(self, b: np.ndarray) -> np.ndarray:
        """Exact flat-operator solve on the compatible subspace, coefficients in and out.

        The singular modes come back with zero mean in x2.
        """
        return _remove_kernel(_eigen_solve(self._basis, b, self._inv_divisor, self.grid),
                              self.grid)

    # front end --------------------------------------------------------------
    def solve(self, rhs: np.ndarray, flux_bottom, flux_top,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
        grid = self.grid
        flux_bottom = np.broadcast_to(np.asarray(flux_bottom, dtype=float), (grid.n1,))
        flux_top = np.broadcast_to(np.asarray(flux_top, dtype=float), (grid.n1,))
        # Fortran order: x1_transform reads the rows of b without a copy
        b = np.multiply(rhs, -grid.dx1 * grid.w2, out=np.empty(grid.shape, order="F"))
        b[:, 0] += grid.dx1 * grid.ds_weight * flux_bottom
        b[:, -1] += grid.dx1 * grid.ds_weight * flux_top
        # compatibility: project out the kernel component and report it
        defect = float(np.sum(b))
        scale = float(np.sum(np.abs(b)))
        rel_defect = abs(defect) / scale if scale > 0 else 0.0

        if grid.is_flat:
            p = self._precondition(_remove_kernel(x1_transform(b, grid), grid))
            info = SolveInfo(1, 0.0, "direct", rel_defect)
        else:
            b = _remove_kernel(to_coefficients(b, grid), grid)
            p, info = _pcg(self.apply, self._precondition, b,
                           None if x0 is None else to_coefficients(x0, grid),
                           self.tol, self.maxiter, "neumann")
            info.compat_defect = rel_defect
        p[:, 0] -= grid.w2 @ p[:, 0]         # zero volume mean (the weights w2 sum to 1)
        return (x1_inverse if grid.is_flat else from_coefficients)(p, grid), info


def solve_poisson_neumann(rhs: np.ndarray, flux_bottom, flux_top, grid: MappedGrid,
                          tol: float = 1e-10, maxiter: int | None = None,
                          x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
    """One-shot Neumann solve; see :class:`PoissonNeumann`."""
    return PoissonNeumann(grid, tol, maxiter).solve(rhs, flux_bottom, flux_top, x0)
