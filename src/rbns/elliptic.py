"""Elliptic solves on the flattened grid.

Three problems back the time stepper and the pressure recovery:

  * Dirichlet Poisson      -L u = -rhs        with given wall traces
  * Dirichlet Helmholtz    (I - c L) u = rhs  with given wall traces, c > 0
  * Neumann Poisson         L p = rhs         with given physical conormal
                                              fluxes n.grad(p), mean-zero p

where L is the mapped divergence-form Laplacian.  The Dirichlet problems
apply it through ``rbns.grid.SineOperator``; the Neumann problem has its own
face discretization, applied by ``rbns.grid.CosineOperator``.  Dirichlet
wall data reach only the two rows next to the walls
(``rbns.grid.laplacian_of_walls``) and are moved into the right-hand side
as the x1 spectra of those two rows (``wall_spectra``), so wall traces that
are constant for a run are transformed once by the caller.

Every solve works on x1-Fourier coefficients in the layout of
``rbns.grid.to_coefficients``: x2-major, (rows, n1//2+1) complex.  On a flat
grid each problem is solved directly in a tensor-product eigenbasis (Lynch,
Rice & Thomas 1964): x1 is diagonal in the coefficients and the x2
operators have the closed-form bases of ``rbns.grid`` (sine for the interior
Dirichlet rows, cosine for the Neumann nodes), so a solve is one forward
transform, ``to_basis``, one elementwise product with the reciprocal
eigenvalues, ``from_basis`` and one inverse transform.  The isometric
scaling of the coefficients commutes with that solve, so the direct path
leaves it out, and a flat Crank-Nicolson right-hand side x0 + c L x0 + rhs
is built in the same coefficients (``rbns.grid._flat_laplacian``).

The Crank-Nicolson entry takes the coordinates of x0 and rhs
(``HelmholtzDirichlet.coordinates`` of their interior-row x1 spectra): the
time step reads x0's spectra from its x1 derivatives and assembles rhs in
spectra, so the solve makes no forward transform.

On rough grids the operators are symmetric (positive semidefinite for
Neumann; the coefficient matrix has unit determinant) and we run
preconditioned conjugate gradients in the same x2 eigen-coordinates, where
the flat-metric preconditioner is one multiply by the reciprocal divisor
and an iteration makes two half-size GEMMs and no transform.  The Dirichlet
problems iterate on the sine coordinates S^T c of the isometric
coefficients c (S orthonormal: the iterates of grid-value PCG) and build a
Crank-Nicolson right-hand side x0 + c L x0 + rhs there, one apply giving
c L y0 = y0 - A y0 and the first residual.  The Neumann problem iterates on
cosine coordinates y, p = V y with V^T W V = I; b = V^T b and the zero
start make it a congruence of node-coefficient PCG with the cosine-basis
solve as preconditioner, and its stopping test keeps the node norm.

The Neumann problem is discretized from the Dirichlet energy on x2 cell
faces (gradient components averaged/differenced to face midpoints), which
makes the operator symmetric positive semidefinite with constants as its
kernel by construction; the right-hand side is projected onto the
compatible subspace and the projection defect reported
(``SolveInfo.compat_defect``; a run writes its largest value to
run_summary.txt as ``pressure_defect_max``).  A sample reads only the
pressure's wall traces: ``PoissonNeumann.wall_traces`` shares the solve up
to the cosine coordinates and takes the two wall rows from them, so the
field is never synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rbns.grid import (
    CosineOperator,
    MappedGrid,
    SineOperator,
    _cosine_basis,
    _parity_basis,
    _ParityBasis,
    _flat_laplacian,
    _sine_basis,
    cosine_divisor,
    end_rows,
    from_basis,
    from_coefficients,
    laplacian_of_walls,
    sine_divisor,
    to_basis,
    to_coefficients,
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
    # Dirichlet solves: the solution's interior x1 coefficients (flat) or sine coordinates (rough)
    coords: np.ndarray | None = field(default=None, repr=False)
    # and its interior-row x1 spectra (x1_transform's values; flat grids: coords itself)
    spectra: np.ndarray | None = field(default=None, repr=False)


# relative residual at which the rough-grid PCG stops
SOLVER_TOL = 1e-10


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
    return from_basis(basis, y, grid, y)


# ---------------------------------------------------------------------------
# Dirichlet wall data
# ---------------------------------------------------------------------------

def wall_spectra(walls: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """x1 spectra (2, n1//2+1) of ``laplacian_of_walls``, the Dirichlet wall terms.

    walls stacks the (bottom, top) traces, (2, n1).  Row 0 is the term on
    the row next to the bottom wall, row 1 next to the top; each depends on
    its own trace only.
    """
    return np.fft.rfft(laplacian_of_walls(walls, grid))


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def _pcg(apply_a, apply_m, b: np.ndarray, x0: np.ndarray | None,
         tol: float, maxiter: int, name: str, *, ax0: np.ndarray | None = None,
         norm=lambda r: float(np.sqrt(np.vdot(r, r).real))) -> tuple[np.ndarray, SolveInfo]:
    """Preconditioned conjugate gradients; x0, if given, is updated in place.

    b is overwritten: the residual is formed in its buffer.  ax0, if given,
    is apply_a(x0).  apply_a and apply_m may return the same buffer at every
    call, and the two may share one: each result is spent before the other
    is formed.  The spent A p takes the x update, so the loop allocates
    nothing.  norm measures b and r for the stopping test (the default, from
    vdot, takes a third of the time of np.linalg.norm).
    """
    bnorm = norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0, "pcg")
    x = np.zeros_like(b) if x0 is None else x0
    r = b
    r -= apply_a(x) if ax0 is None else ax0
    rel = norm(r) / bnorm
    z = apply_m(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / float(np.vdot(p, ap).real)
        ap *= alpha
        r -= ap
        x += np.multiply(p, alpha, out=ap)
        rel = norm(r) / bnorm
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

    def __init__(self, grid: MappedGrid, c: float | None):
        self.grid = grid
        self.c = c
        self._sigma = 0.0 if c is None else 1.0
        self._ceff = 1.0 if c is None else c
        self._basis = _parity_basis(_sine_basis, grid.n2)
        if grid.is_flat:
            self._inv_divisor = sine_divisor(grid, self._sigma, self._ceff)
            np.reciprocal(self._inv_divisor, out=self._inv_divisor)
        else:
            self.maxiter = default_maxiter(grid)
            self._operator = SineOperator(grid, self._sigma, self._ceff)
            self._inv_divisor = np.reciprocal(self._operator.divisor)

    def coordinates(self, spectra: np.ndarray) -> np.ndarray:
        """The solve's coordinates of interior-row x1 spectra (x1_transform's layout).

        The spectra themselves on flat grids; on rough ones, a new array of
        the sine coordinates of the isometric coefficients.
        """
        grid = self.grid
        if grid.is_flat:
            return spectra
        c = np.multiply(spectra, grid.coeff_scale, out=np.empty(spectra.shape, dtype=complex))
        return to_basis(self._basis, c, grid)

    def solve(self, rhs_int: np.ndarray | None, bottom: np.ndarray, top: np.ndarray,
              x0: np.ndarray | None = None, *, rhs_coords: np.ndarray | None = None,
              old: np.ndarray | None = None,
              walls: np.ndarray | None = None) -> tuple[np.ndarray, SolveInfo]:
        """Returns the full-field solution (wall rows set to the given traces).

        The right-hand side is rhs_int, grid values of the interior rows, or
        rhs_coords, its ``coordinates`` (overwritten).  walls, the
        ``wall_spectra`` of the traces that enter the right-hand side, is
        computed from (bottom, top) when not given.  With old, the
        coordinates of a field's interior rows, the solve is the
        Crank-Nicolson one: the right-hand side gains old + c L old, and
        the rough-grid PCG starts from old (overwritten); walls must then be
        those of the old plus the new traces.  Otherwise x0, a full field,
        starts the rough-grid PCG.  info.coords holds the solution's
        coordinates and info.spectra the x1 spectra of its interior rows, the
        values its inverse transform read.
        """
        grid = self.grid
        b = self.coordinates(x1_transform(rhs_int, grid)) if rhs_coords is None else rhs_coords
        if walls is None:
            walls = wall_spectra(np.array((bottom, top)), grid)
        if grid.is_flat:
            g = walls * self._ceff                  # on the rows next to the walls
            b[0] += g[0]
            b[-1] += g[1]
            if old is not None:
                cly = _flat_laplacian(old, grid, np.empty_like(old))
                cly *= self._ceff
                cly += old
                b += cly
                del cly
            u = _eigen_solve(self._basis, b, self._inv_divisor, grid)
            full = np.empty(grid.shape)
            x1_inverse(u, grid, full[:, 1:-1])
            info = SolveInfo(1, 0.0, "direct", coords=u, spectra=u)
        else:
            basis, op = self._basis, self._operator
            x, ax = old, None
            if x is None and x0 is not None:
                x = self.coordinates(x1_transform(x0[:, 1:-1], grid))
            ap = np.empty_like(b)
            if old is not None:
                # c L y0 = y0 - A y0: b = 2 y0 - A y0 + rhs + wall terms
                ax = op.apply(x, ap)
                b += x
                b += x
                b -= ax
            # the wall terms live on the rows next to the walls: their
            # coordinates are outer(S[0, :], g_bottom) + outer(S[-1, :], g_top)
            # with S[0, :] = (plus[0], minus[0]), S[-1, :] = (plus[0], -minus[0])
            g = walls * grid.coeff_scale
            g *= self._ceff
            mid = basis.plus.shape[0]
            b[:mid] += np.multiply.outer(basis.plus[0], g[0] + g[1])
            b[mid:] += np.multiply.outer(basis.minus[0], g[0] - g[1])
            # z = M r goes to the A p buffer: each is spent before the other is formed
            u, info = _pcg(lambda p: op.apply(p, ap),
                           lambda r: np.multiply(r, self._inv_divisor, out=ap), b, x, SOLVER_TOL,
                           self.maxiter, "helmholtz" if self._sigma else "poisson", ax0=ax)
            del ax, ap
            info.coords = u
            full = np.empty(grid.shape)
            # synthesized in the spent residual buffer, b, which then holds the spectra
            from_coefficients(from_basis(basis, u, grid, b), grid, full[:, 1:-1])
            info.spectra = b
        full[:, 0] = bottom
        full[:, -1] = top
        return full, info


# ---------------------------------------------------------------------------
# Neumann Poisson (mean-zero pressure)
# ---------------------------------------------------------------------------

def _remove_kernel(c: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Project out the kernel of the face-scheme operator, in place (plain inner product).

    The kernel is the constants and, for even n1, a second (non-physical)
    vector: the skew x1 derivative zeroes the Nyquist mode, so a field
    alternating in x1 and constant in x2 is annihilated too.  In x2-major
    coefficients each is a constant k = 0 or Nyquist column, so the
    projection removes the plain mean of that column (sum over length: the
    bits of ndarray.mean without its per-call overhead).
    """
    rows = c.shape[0]
    c[:, 0] -= c[:, 0].sum() / rows
    if grid.n1 % 2 == 0:
        c[:, -1] -= c[:, -1].sum() / rows
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

    def __init__(self, grid: MappedGrid):
        self.grid = grid
        self._basis = _parity_basis(_cosine_basis, grid.n2)
        if not grid.is_flat:
            self.maxiter = default_maxiter(grid)
            self._operator = CosineOperator(grid)
        with np.errstate(divide="ignore"):
            self._inv_divisor = np.reciprocal(cosine_divisor(grid) if grid.is_flat
                                              else self._operator.divisor)
        # the x1 modes whose j = 0 coordinate spans the kernel: zero divisor, zero reciprocal
        self._kernel = grid.ik_d1 == 0.0
        self._inv_divisor[0, self._kernel] = 0.0
        self._node_weight = -grid.dx1 * grid.w2
        self._wall_weight = grid.dx1 * grid.ds_weight
        # V[0, :] and V[n, :]
        self._wall_rows = end_rows(self._basis) if grid.is_flat else self._operator.wall_rows
        # the plain x2 mean of V y is mean_row @ y: zero on V's minus columns,
        # which are odd about the middle row, so only the plus part is kept
        plus = self._basis.plus
        self._mean_row = (2.0 * plus.sum(axis=0) - (plus[-1] if grid.n2 % 2 else 0.0)) / grid.n2

    def solve(self, rhs: np.ndarray, flux_bottom, flux_top) -> tuple[np.ndarray, SolveInfo]:
        """The whole field p; rhs is overwritten.  Rough grids: PCG from zero on cosine coordinates."""
        grid = self.grid
        b, defect = self._weak_coordinates(rhs, flux_bottom, flux_top)
        del rhs                                 # b alone holds the data: the field is freed
        y, info = self._coordinates(b, defect)
        p = from_basis(self._basis, y, grid, y)
        if grid.n1 % 2 == 0:
            # the coordinates give the Nyquist kernel column zero W-mean; it takes zero plain mean
            p[:, -1] -= p[:, -1].mean()
        p[:, 0] -= grid.w2 @ p[:, 0]         # zero volume mean (the weights w2 sum to 1)
        return (x1_inverse if grid.is_flat else from_coefficients)(p, grid), info

    def wall_traces(self, rhs: np.ndarray, flux_bottom, flux_top) -> tuple[np.ndarray, SolveInfo]:
        """The (bottom, top) wall rows of ``solve``'s field, (2, n1); rhs is overwritten.

        The two rows are read from the cosine coordinates, V[0, :] y and
        V[n, :] y, so only those lines are transformed.  The k = 0 column
        needs no mean removal: its kernel coordinate is zero, so the field
        has zero volume mean already.
        """
        grid = self.grid
        b, defect = self._weak_coordinates(rhs, flux_bottom, flux_top)
        del rhs                                 # b alone holds the data: the field is freed
        y, info = self._coordinates(b, defect)
        rows = (self._wall_rows @ y.view(np.float64)).view(complex)
        if grid.n1 % 2 == 0:
            # solve's Nyquist column has zero plain x2 mean
            rows[:, -1] -= self._mean_row @ y[:self._mean_row.size, -1]
        if not grid.is_flat:
            rows *= 1.0 / grid.coeff_scale
        return np.fft.irfft(rows, n=grid.n1), info

    def _weak_coordinates(self, rhs: np.ndarray, flux_bottom, flux_top) -> tuple[np.ndarray, float]:
        """Cosine coordinates of the projected weak right-hand side b, and the projection defect.

        Flat grids: of unscaled x1 spectra (the direct solve); rough ones: of
        the isometric coefficients.  rhs is overwritten.
        """
        grid = self.grid
        b = np.multiply(rhs, self._node_weight, out=rhs)
        line = np.empty(grid.n1)
        b[:, 0] += np.multiply(self._wall_weight, flux_bottom, out=line)
        b[:, -1] += np.multiply(self._wall_weight, flux_top, out=line)
        # compatibility: project out the kernel component and report it
        defect = float(np.sum(b))
        scale = float(np.sum(np.abs(b)))
        b = (x1_transform if grid.is_flat else to_coefficients)(b, grid)
        return (to_basis(self._basis, _remove_kernel(b, grid), grid),
                abs(defect) / scale if scale > 0 else 0.0)

    def _coordinates(self, b: np.ndarray, defect: float) -> tuple[np.ndarray, SolveInfo]:
        """Cosine coordinates y of the solution, p = V y, with the kernel coordinates zero.

        b is ``_weak_coordinates``' (overwritten); defect is reported as info.compat_defect.
        """
        if self.grid.is_flat:
            b *= self._inv_divisor                  # zero at the kernel coordinates
            return b, SolveInfo(1, 0.0, "direct", defect)
        b[0, self._kernel] = 0.0                    # the kernel coordinates stay zero
        op = self._operator
        ap = np.empty_like(b)                       # A p, and z = M r as in the Dirichlet PCG

        def node_norm(r):
            # |W V r|, the stopping test's norm: V^T W^2 V = I - V^T diag(1/4, 0, ..., 0, 1/4) V
            q = self._wall_rows @ r.view(np.float64)
            return float(np.sqrt(np.vdot(r, r).real - 0.25 * np.vdot(q, q)))

        y, info = _pcg(lambda q: op.apply(q, ap),
                       lambda r: np.multiply(r, self._inv_divisor, out=ap), b, None,
                       SOLVER_TOL, self.maxiter, "neumann", norm=node_norm)
        info.compat_defect = defect
        return y, info
