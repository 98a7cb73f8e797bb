"""Flattened-channel grid and mapped differential operators.

Fields live on the rectangle [0, Gamma) x [0, 1]: x1 is the periodic
horizontal coordinate (Fourier collocation, n1 points), x2 the wall-distance
coordinate (n2 uniformly spaced nodes *including* both wall rows).  The
physical domain is recovered through y = (x1, x2 + h(x1)); the map has unit
Jacobian, so volume integrals are plain quadrature on the rectangle and
|Omega| = Gamma.

Physical derivatives follow from the chain rule

    d/dy1 = d/dx1 - h'(x1) d/dx2,        d/dy2 = d/dx2,

and the physical Laplacian becomes the divergence-form operator

    L f = dx1(dx1 f) + dx1(-h' dx2 f) + dx2(-h' dx1 f) + dx2((1+h'^2) dx2 f)

whose coefficient matrix [[1, -h'], [-h', 1+h'^2]] has unit determinant, so
it is uniformly elliptic for any bounded slope.  x1 derivatives are spectral
(FFT), x2 derivatives second-order centered with one-sided second-order
stencils on the wall rows.

Every mapped derivative is formed here: ``grad_physical``, the wall-line
``tangential_derivative`` and the interior-row Laplacian of the elliptic
solves, the Crank-Nicolson right-hand side and the MMS check.

Grid values are float64 with shape (n1, n2); axis 0 is periodic by index
arithmetic everywhere.  The elliptic solves work on x1-Fourier coefficients
instead: ``to_coefficients`` stores the rfft of each x2 row x2-major, shape
(rows, n1//2+1) complex, scaled by sqrt(w_k/n1) with w_k = 1 at k = 0 and at
the even-n1 Nyquist mode and 2 otherwise.  With that scaling the map is an
isometry: Re vdot of two coefficient arrays is the real dot product of the
two fields, so a Krylov method gives the same iterates on either side.  The
Laplacian kernel ``apply_L_tilde_coeffs`` acts on coefficients: the flat
part (spectral k^2 and the x2 second difference) is diagonal in x1, and the
metric terms take one batched inverse transform of two face fields and one
batched forward transform of two interior fields, n2 + 3 (n2 - 2) lines of
length n1 in all.  ``apply_L_tilde`` wraps it for grid values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rbns.geometry import FourierSeries, Side


@dataclass
class MappedGrid:
    profile: FourierSeries
    n1: int
    n2: int

    # derived, filled in __post_init__
    gamma: float = field(init=False)
    dx1: float = field(init=False)
    dx2: float = field(init=False)
    x1: np.ndarray = field(init=False)
    x2: np.ndarray = field(init=False)
    k: np.ndarray = field(init=False)        # rfft wavenumbers 2 pi j / Gamma
    ik_d1: np.ndarray = field(init=False)    # i*k with the Nyquist mode zeroed
    k2: np.ndarray = field(init=False)       # full k^2 (spectral second derivative)
    hp: np.ndarray = field(init=False)
    hpp: np.ndarray = field(init=False)
    hppp: np.ndarray = field(init=False)
    a22: np.ndarray = field(init=False)      # 1 + h'^2 per column
    ds_weight: np.ndarray = field(init=False)
    w2: np.ndarray = field(init=False)       # trapezoid weights in x2
    coeff_scale: np.ndarray = field(init=False)  # sqrt(w_k / n1), see the module docstring
    is_flat: bool = field(init=False)

    def __post_init__(self):
        if self.n1 < 4:
            raise ValueError(f"n1 must be at least 4, got {self.n1}")
        if self.n2 < 8:
            raise ValueError(f"n2 must be at least 8, got {self.n2}")
        self.gamma = self.profile.gamma
        self.dx1 = self.gamma / self.n1
        self.dx2 = 1.0 / (self.n2 - 1)
        self.x1 = np.arange(self.n1) * self.dx1
        self.x2 = np.linspace(0.0, 1.0, self.n2)
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n1, d=self.dx1)
        self.k = k
        ik = 1j * k
        if self.n1 % 2 == 0:
            ik = ik.copy()
            ik[-1] = 0.0  # odd-derivative Nyquist mode has no consistent sign
        self.ik_d1 = ik
        self.k2 = k**2
        self.hp = np.asarray(self.profile.evaluate(self.x1, 1))
        self.hpp = np.asarray(self.profile.evaluate(self.x1, 2))
        self.hppp = np.asarray(self.profile.evaluate(self.x1, 3))
        self.a22 = 1.0 + self.hp**2
        self.ds_weight = np.sqrt(self.a22)
        w2 = np.full(self.n2, self.dx2)
        w2[0] = w2[-1] = 0.5 * self.dx2
        self.w2 = w2
        w = np.full(k.size, 2.0)
        w[0] = 1.0
        if self.n1 % 2 == 0:
            w[-1] = 1.0
        self.coeff_scale = np.sqrt(w / self.n1)
        self.is_flat = self.profile.is_flat

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def area(self) -> float:
        return self.gamma  # unit gap, unit Jacobian

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def d_x1(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Spectral d/dx1 along the periodic axis."""
    return np.fft.irfft(grid.ik_d1[:, None] * np.fft.rfft(f, axis=0), n=grid.n1, axis=0)


def d2_x1(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Spectral d^2/dx1^2 along the periodic axis."""
    return np.fft.irfft(-grid.k2[:, None] * np.fft.rfft(f, axis=0), n=grid.n1, axis=0)


def d_x1_line(g: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Spectral d/dx1 of a single periodic line sample (n1,)."""
    return np.fft.irfft(grid.ik_d1 * np.fft.rfft(g), n=grid.n1)


def d_x2(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Second-order d/dx2: centered inside, one-sided on the wall rows."""
    out = np.empty_like(f)
    h = 2.0 * grid.dx2
    out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / h
    out[:, 0] = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / h
    out[:, -1] = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / h
    return out


def grad_physical(f: np.ndarray, grid: MappedGrid) -> tuple[np.ndarray, np.ndarray]:
    """(d/dy1 f, d/dy2 f) at every node, via the chain rule."""
    fz = d_x2(f, grid)
    fy1 = d_x1(f, grid) - grid.hp[:, None] * fz
    return fy1, fz


# ---------------------------------------------------------------------------
# x1-Fourier coefficients and the mapped Laplacian
# ---------------------------------------------------------------------------

def x1_transform(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Unscaled rfft of every x2 row of f: (n1, rows) -> (rows, n1//2+1), C order."""
    return np.fft.rfft(np.ascontiguousarray(f.T), axis=1)


def x1_inverse(c: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Inverse of x1_transform: (rows, n1//2+1) -> (n1, rows), a transposed view."""
    return np.fft.irfft(c, n=grid.n1, axis=1).T


def to_coefficients(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Isometric x1-Fourier coefficients of the rows of f (scaled x1_transform)."""
    c = x1_transform(f, grid)
    c *= grid.coeff_scale
    return c


def from_coefficients(c: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Grid values of isometric coefficients: (rows, n1//2+1) -> (n1, rows)."""
    return x1_inverse(c * (1.0 / grid.coeff_scale), grid)


def apply_L_tilde_coeffs(c: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Mapped Laplacian on coefficients, zero walls: (n2-2, nk) -> (n2-2, nk).

    c holds the to_coefficients of the interior rows of a field whose wall
    rows are zero; wall data enter through ``laplacian_of_walls``.  With g
    the x2 face differences (g_{j+1/2} = (f_{j+1} - f_j)/dx2), the centered
    stencils at an interior node are dx2 f = (g_{j+1/2} + g_{j-1/2})/2 and
    dx2^2 f = (g_{j+1/2} - g_{j-1/2})/dx2, and

        L f = dx1^2 f + dx2^2 f + h'^2 dx2^2 f - h' dx1(dx2 f) - dx1(h' dx2 f)

    (dx2(-h' dx1 f) = -h' dx1(dx2 f) because h' depends on x1 only).  The
    first two terms are diagonal in x1; the h' products are formed on the
    grid from one batched inverse transform of (g, dx1 g) and one batched
    forward transform of the two interior products.  First derivatives use
    ik with the Nyquist mode zeroed and the second derivative the full k^2,
    as in d_x1 and d2_x1.
    """
    dx2 = grid.dx2
    rows, nk = c.shape
    if grid.is_flat:
        return _flat_laplacian(c, grid, np.empty_like(c))
    faces = np.empty((2, rows + 1, nk), dtype=complex)
    g = faces[0]
    np.subtract(c[1:], c[:-1], out=g[1:-1])
    g[0] = c[0]
    np.negative(c[-1], out=g[-1])
    g *= 1.0 / (dx2 * grid.coeff_scale)
    np.multiply(g, grid.ik_d1, out=faces[1])
    gz, gxz = np.fft.irfft(faces, n=grid.n1, axis=-1)             # g, dx1 g on the grid
    del faces, g
    hp = grid.hp
    prod = np.empty((2, rows, grid.n1))
    np.subtract(gz[1:], gz[:-1], out=prod[0])
    prod[0] *= hp * (hp / dx2)                                    # h'^2 dx2^2 f
    np.add(gxz[1:], gxz[:-1], out=prod[1])
    prod[1] *= 0.5 * hp
    prod[0] -= prod[1]                                            # - h' dx1(dx2 f)
    np.add(gz[1:], gz[:-1], out=prod[1])
    prod[1] *= 0.5 * hp                                           # h' dx2 f
    del gz, gxz
    prod_hat = np.fft.rfft(prod, axis=-1)
    del prod
    prod_hat[1] *= -grid.ik_d1                                    # - dx1(h' dx2 f)
    prod_hat[1] += prod_hat[0]
    prod_hat[1] *= grid.coeff_scale
    return np.add(_flat_laplacian(c, grid, prod_hat[0]), prod_hat[1])


def _flat_laplacian(c: np.ndarray, grid: MappedGrid, out: np.ndarray) -> np.ndarray:
    """dx1^2 f + dx2^2 f of the zero-wall field with interior-row coefficients c, into out."""
    np.multiply(c, -(2.0 + grid.k2 * grid.dx2**2), out=out)
    out[1:] += c[:-1]
    out[:-1] += c[1:]
    out *= 1.0 / grid.dx2**2
    return out


def laplacian_of_walls(bottom: np.ndarray, top: np.ndarray,
                       grid: MappedGrid) -> tuple[np.ndarray, np.ndarray]:
    """Interior Laplacian of the field that is zero except for its wall traces.

    It is nonzero only on the rows next to the walls, returned as that
    (bottom, top) pair of rows: there the 3-point x2 stencil reads the wall
    value and, on rough grids, the centered x2 difference in the two cross
    terms gives +-[dx1(h' g) + h' dx1 g] / (2 dx2) for the wall trace g.
    """
    near_bottom = grid.a22 * bottom / grid.dx2**2
    near_top = grid.a22 * top / grid.dx2**2
    if not grid.is_flat:
        hp = grid.hp[:, None]
        wall = np.stack([bottom, top], axis=1)                    # (n1, 2)
        d = d_x1(np.hstack([hp * wall, wall]), grid)
        cross = (d[:, :2] + hp * d[:, 2:]) / (2.0 * grid.dx2)
        near_bottom += cross[:, 0]
        near_top -= cross[:, 1]
    return near_bottom, near_top


def apply_L_tilde(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Mapped Laplacian at the interior rows of grid values f (n1, n2): (n1, n2-2).

    Wall rows of f enter as data: the interior rows go through
    apply_L_tilde_coeffs and the wall rows through laplacian_of_walls.  On
    flat grids the kernel is diagonal in x1, so the coefficient scaling
    cancels and is left out.
    """
    to, back = (x1_transform, x1_inverse) if grid.is_flat else (to_coefficients, from_coefficients)
    out = back(apply_L_tilde_coeffs(to(f[:, 1:-1], grid), grid), grid)
    near_bottom, near_top = laplacian_of_walls(f[:, 0], f[:, -1], grid)
    out[:, 0] += near_bottom
    out[:, -1] += near_top
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def volume_integral(f: np.ndarray, grid: MappedGrid) -> float:
    """Integral over the physical domain (unit-Jacobian map, trapezoid in x2)."""
    return float(np.sum(f @ grid.w2) * grid.dx1)


def line_integral(integrand: np.ndarray, grid: MappedGrid) -> float:
    """Integral along a wall or any vertically shifted wall line.

    Every level line y2 = h(y1) + x2 is a vertical translate of the bottom
    wall, so the arc-length weight sqrt(1+h'^2) is the same for all of them.
    The rectangle rule is trapezoid-equivalent (periodic) and spectrally
    accurate for smooth integrands.
    """
    return float(np.sum(integrand * grid.ds_weight) * grid.dx1)


def level_index(grid: MappedGrid, x2_level: float) -> int:
    """Grid row closest to the level; rejects levels outside [0, 1]."""
    if not 0.0 <= x2_level <= 1.0:
        raise ValueError(f"level must lie in [0, 1], got {x2_level}")
    return int(round(x2_level / grid.dx2))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def _row(side: Side) -> int:
    return 0 if side is Side.BOTTOM else -1


def _d_x2_row(f: np.ndarray, grid: MappedGrid, side: Side) -> np.ndarray:
    h = 2.0 * grid.dx2
    if side is Side.BOTTOM:
        return (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / h
    return (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / h


def tangential_derivative(g: np.ndarray, grid: MappedGrid, side: Side) -> np.ndarray:
    """d/dlambda of a line sampled along a wall (n1,).

    The wall row *is* the wall curve, so the arc-length derivative is a
    spectral x1 derivative over sqrt(1+h'^2); the sign follows the tangent
    orientation (+y1 on the bottom wall, -y1 on the top).
    """
    s = 1.0 if side is Side.BOTTOM else -1.0
    return s * d_x1_line(g, grid) / grid.ds_weight


def tangential_velocity(u1: np.ndarray, u2: np.ndarray, grid: MappedGrid, side: Side) -> np.ndarray:
    """u . tau on a wall row; tau points along +y1 on the bottom wall, -y1 on top."""
    j = _row(side)
    s = 1.0 if side is Side.BOTTOM else -1.0
    return s * (u1[:, j] + grid.hp * u2[:, j]) / grid.ds_weight


def boundary_trace(f: np.ndarray, grid: MappedGrid, side: Side, kind: str = "value") -> np.ndarray:
    """Wall trace of a field: value, physical normal or tangential derivative."""
    j = _row(side)
    if kind == "value":
        return f[:, j].copy()
    if kind == "tangential_derivative":
        return tangential_derivative(f[:, j], grid, side)
    if kind == "normal_derivative":
        fz = _d_x2_row(f, grid, side)
        fy1 = d_x1_line(f[:, j], grid) - grid.hp * fz
        if side is Side.BOTTOM:   # n = (h', -1)/w
            return (grid.hp * fy1 - fz) / grid.ds_weight
        return (-grid.hp * fy1 + fz) / grid.ds_weight
    raise ValueError(f"unknown trace kind {kind!r}")
