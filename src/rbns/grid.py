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
``wall_tangential_derivatives`` (both walls' lines in one transform pair)
and the interior-row Laplacian of the elliptic solves, the Crank-Nicolson
right-hand side and the MMS check.

Grid values are float64, C-ordered with shape (n1, n2); axis 0 is periodic
by index arithmetic everywhere.  Every x1 spectrum is x2-major:
``x1_transform`` takes the rfft of each x2 row into a C-ordered
(rows, n1//2+1) complex array, and ``d_x1``, the state derivatives and the
solves all read that layout.  The elliptic solves work on x1-Fourier
coefficients: ``to_coefficients`` stores the same spectra scaled by
sqrt(w_k/n1) with w_k = 1 at k = 0 and at the even-n1 Nyquist mode and 2
otherwise.  With that scaling the map is an isometry: Re vdot of two
coefficient arrays is the real dot product of the two fields, so a Krylov
method gives the same iterates on either side.

The x2 operators have closed-form eigenbases, a discrete sine basis for the
interior Dirichlet rows and a cosine (DCT-I) basis for the Neumann nodes;
``to_basis`` and ``from_basis`` change basis with two half-size real GEMMs
each.  The rough-wall Laplacian has one kernel, ``SineOperator``, on the
sine coordinates of interior-row coefficients: diagonal except for the
metric products, which are circular convolutions over the x1 wavenumbers
with the few grid Fourier terms of h' and h'^2 (``metric_fourier_terms``: 5
for a single profile mode).  Flat grids keep the 3-point x2 stencil,
``_flat_laplacian``, on x1 coefficients and need no kernel object.  The
Neumann face scheme of the pressure solve has its twin, ``CosineOperator``,
on cosine coordinates.  Both kernels take their temporaries from one work
plane and one buffer per grid (``MappedGrid.plane`` and ``.buffer``).
``apply_L_tilde``, the Laplacian of grid values, is a cold-path utility
(the initial vorticity and the MMS check); the time step never forms it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from rbns.geometry import FourierSeries


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
    shape: tuple[int, int] = field(init=False)
    k: np.ndarray = field(init=False)        # rfft wavenumbers 2 pi j / Gamma
    ik_d1: np.ndarray = field(init=False)    # i*k with the Nyquist mode zeroed
    k2: np.ndarray = field(init=False)       # full k^2 (spectral second derivative)
    hp: np.ndarray = field(init=False)
    hpp: np.ndarray = field(init=False)
    a22: np.ndarray = field(init=False)      # 1 + h'^2 per column
    a22_mean: float = field(init=False)      # its mean, the flat-metric coefficient of the divisors
    sine_eig: np.ndarray | None = field(init=False, repr=False)  # flat grids: see sine_divisor
    ds_weight: np.ndarray = field(init=False)
    w2: np.ndarray = field(init=False)       # trapezoid weights in x2
    coeff_scale: np.ndarray = field(init=False)  # sqrt(w_k / n1), see the module docstring
    is_flat: bool = field(init=False)
    # metric convolutions on scaled coefficients, see metric_spectra: per
    # shift m a weight over the output wavenumbers k = 0..n1//2
    band: int = field(init=False)            # largest |m|
    mhp_shifts: tuple = field(init=False)    # -h'
    hp2_shifts: tuple = field(init=False)    # h'^2
    cross_shifts: tuple = field(init=False)  # -h' dx1 (.) - dx1 (h' .), times 1/(2 dx2)
    # the rough kernels' complex (n2 + 1, nk) buffer; fold, its float64 view, the basis changes'
    buffer: np.ndarray = field(init=False, repr=False, compare=False)
    fold: np.ndarray = field(init=False, repr=False, compare=False)

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
        self.shape = (self.n1, self.n2)
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
        self.a22 = 1.0 + self.hp**2
        self.a22_mean = float(np.mean(self.a22))
        self.ds_weight = np.sqrt(self.a22)
        w2 = np.full(self.n2, self.dx2)
        w2[0] = w2[-1] = 0.5 * self.dx2
        self.w2 = w2
        w = np.full(k.size, 2.0)
        w[0] = 1.0
        if self.n1 % 2 == 0:
            w[-1] = 1.0
        self.coeff_scale = np.sqrt(w / self.n1)
        self.buffer = np.empty((self.n2 + 1, k.size), dtype=complex)
        self.fold = self.buffer.view(np.float64)
        self.is_flat = self.profile.is_flat
        self.sine_eig = _sine_eig(self) if self.is_flat else None
        hp_hat, hp2_hat = metric_spectra(self.profile, self.n1)
        self.band = max((abs(m) for m in (*hp_hat, *hp2_hat)), default=0)
        self.mhp_shifts = self._shift_weights({m: -v for m, v in hp_hat.items()})
        self.hp2_shifts = self._shift_weights(hp2_hat)
        self.cross_shifts = tuple((m, (0.5 / self.dx2) * w * (self._ik_shifted(m) + self.ik_d1))
                                  for m, w in self.mhp_shifts)

    def _half_index(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Where wavenumbers k - m (k = 0..n1//2) sit in the half spectrum, and which are conjugated."""
        f = (np.arange(self.k.size) - m) % self.n1
        return np.minimum(f, self.n1 - f), f > self.n1 // 2

    def _ik_shifted(self, m: int) -> np.ndarray:
        """i kappa of d_x1 at the wavenumbers k - m (Nyquist zeroed)."""
        q, conj = self._half_index(m)
        return np.where(conj, -1.0, 1.0) * self.ik_d1[q]

    def _shift_weights(self, spectrum: dict[int, complex]) -> tuple:
        """(m, c_m s_k / s_(k-m)) per shift: c_m times the ratio of the coefficient scalings."""
        return tuple((m, c * (self.coeff_scale / self.coeff_scale[self._half_index(m)[0]]))
                     for m, c in sorted(spectrum.items()))

    @functools.cached_property
    def plane(self) -> np.ndarray:
        """Complex (2, n2, nk + 2 band) work plane of the rough kernels, built on first use.

        Kernels slice it and ``buffer`` to the rows they need; contents are
        undefined, and while a kernel holds them it calls no other kernel and
        no basis change (``fold`` is ``buffer``'s memory).  Per-call temporaries
        let the C heap return pages and fault them in again (tens of thousands per rough run).
        """
        return np.empty((2, self.n2, self.k.size + 2 * self.band), dtype=complex)

    @property
    def metric_fourier_terms(self) -> int:
        """Nonzero grid Fourier coefficients of h' plus those of h'^2."""
        return len(self.mhp_shifts) + len(self.hp2_shifts)

    @property
    def area(self) -> float:
        return self.gamma  # unit gap, unit Jacobian


def metric_spectra(profile: FourierSeries, n1: int) -> tuple[dict[int, complex], dict[int, complex]]:
    """Grid DFT coefficients of h' and h'^2, keyed by the shift m.

    The samples of h' on the n1 grid points are sum_m H_m exp(2 pi i m x1/gamma)
    with H from the profile's modes; a mode at or above n1/2 aliases onto
    its index modulo n1.  h'^2 on the grid is the circular convolution
    H * H.  Shifts are folded into [-n1/2, n1/2) and exact zeros dropped, so
    a flat profile gives two empty dicts.
    """
    hp: dict[int, complex] = {}
    for k, c, s in profile.modes:
        w = 2.0 * np.pi * k / profile.gamma
        a, b = w * s, -w * c                 # h' = a cos + b sin of this mode
        for j, v in ((k % n1, 0.5 * complex(a, -b)), (-k % n1, 0.5 * complex(a, b))):
            hp[j] = hp.get(j, 0.0) + v
    hp2: dict[int, complex] = {}
    for j1, v1 in hp.items():
        for j2, v2 in hp.items():
            j = (j1 + j2) % n1
            hp2[j] = hp2.get(j, 0.0) + v1 * v2

    def fold(spectrum):
        return {(j - n1 if 2 * j >= n1 else j): v for j, v in spectrum.items() if v != 0.0}

    return fold(hp), fold(hp2)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def d_x1(f: np.ndarray, grid: MappedGrid, spectrum: np.ndarray | None = None) -> np.ndarray:
    """Spectral d/dx1 of grid values f, C-ordered like them; spectrum, if given, is x1_transform(f)."""
    if spectrum is None:
        spectrum = np.fft.rfft(f.T, axis=1)
    # an x1-major product: irfft keeps its layout, so the result's transpose is C-ordered
    return np.fft.irfft(np.multiply(spectrum, grid.ik_d1, order="F"), n=grid.n1, axis=1).T


def d2_x1(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Spectral d^2/dx1^2 of grid values f, C-ordered like them (as in d_x1)."""
    product = np.multiply(np.fft.rfft(f.T, axis=1), -grid.k2, order="F")
    return np.fft.irfft(product, n=grid.n1, axis=1).T


def d_x1_line(g: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Spectral d/dx1 of periodic line samples (..., n1), all in one rfft/irfft pair."""
    return np.fft.irfft(grid.ik_d1 * np.fft.rfft(g), n=grid.n1)


def zero_wall_field(spectra: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Grid values of interior-row x1 spectra (x1_transform's layout), with zero wall rows.

    One inverse transform; the d/dx1 of a field constant along each wall
    row, from ik times its interior rows' spectra.
    """
    out = np.empty(grid.shape)
    out[:, 0] = out[:, -1] = 0.0
    x1_inverse(spectra, grid, out[:, 1:-1])
    return out


def d_x2(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Second-order d/dx2: centered inside, one-sided on the wall rows.

    One subtraction on the flattened C-ordered array forms every centered
    difference; those that straddle two x1 columns land on the wall rows,
    which the one-sided differences then overwrite, and one division by
    2 dx2 scales the whole array.
    """
    flat, out = f.ravel(), np.empty(f.shape)      # ravel copies only a strided f
    np.subtract(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
    bottom, top = out[:, 0], out[:, -1]
    np.multiply(f[:, 0], -3.0, out=bottom)
    bottom += 4.0 * f[:, 1]
    bottom -= f[:, 2]
    np.multiply(f[:, -1], 3.0, out=top)
    top -= 4.0 * f[:, -2]
    top += f[:, -3]
    out /= 2.0 * grid.dx2
    return out


def grad_physical(f: np.ndarray, grid: MappedGrid,
                  spectrum: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(d/dy1 f, d/dy2 f) at every node, via the chain rule (d/dy1 = d/dx1 on flat grids).

    spectrum, if given, is x1_transform(f), the transform d_x1 would take.
    """
    fz = d_x2(f, grid)
    fy1 = d_x1(f, grid, spectrum)
    if not grid.is_flat:
        fy1 -= grid.hp[:, None] * fz
    return fy1, fz


# ---------------------------------------------------------------------------
# x1-Fourier coefficients and the mapped Laplacian
# ---------------------------------------------------------------------------

def x1_transform(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Unscaled rfft of every x2 row of f: (n1, rows) -> (rows, n1//2+1), C order."""
    return np.fft.rfft(f.T, axis=1, out=np.empty((f.shape[1], grid.k.size), dtype=complex))


def x1_inverse(c: np.ndarray, grid: MappedGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of x1_transform: (rows, n1//2+1) -> (n1, rows), a transposed view.

    out, if given, is an (n1, rows) array (a field's interior rows) to write to.
    """
    return np.fft.irfft(c, n=grid.n1, axis=1, out=None if out is None else out.T).T


def to_coefficients(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Isometric x1-Fourier coefficients of the rows of f (scaled x1_transform)."""
    c = x1_transform(f, grid)
    c *= grid.coeff_scale
    return c


def from_coefficients(c: np.ndarray, grid: MappedGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Grid values of isometric coefficients: (rows, n1//2+1) -> (n1, rows).

    c is overwritten: it is unscaled in place.  out is as for ``x1_inverse``.
    """
    c *= 1.0 / grid.coeff_scale
    return x1_inverse(c, grid, out)


# ---------------------------------------------------------------------------
# closed-form x2 eigenbases (one per n2, shared and read-only)
# ---------------------------------------------------------------------------

def _second_difference_eigenvalues(n: int, j: np.ndarray) -> np.ndarray:
    """(2 - 2 cos(pi j / n)) n^2, in the cancellation-free sine form."""
    return (2.0 * n * np.sin(0.5 * np.pi * j / n)) ** 2


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
    return s, _second_difference_eigenvalues(n, j)


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
    return v, _second_difference_eigenvalues(n, j)


@dataclass(frozen=True)
class _ParityBasis:
    """A square x2 eigenbasis Q split by the mirror symmetry of its rows.

    Both bases satisfy Q[r-1-i, j] = +-Q[i, j] for r rows: the sign is +
    for the columns 0, 2, 4, ... (sine j = 1, 3, ...; cosine j = 0, 2, ...)
    and - for the columns 1, 3, ...  So Q^T x is two half-size products,
    one on the sums of mirrored rows of x (plus columns) and one on their
    differences (minus columns), and Q y is their mirror butterfly.  For odd
    r the middle row is its own mirror: it enters the sums twice, so
    ``to_basis`` halves that sum, and the minus columns vanish on it, so
    ``minus`` has it set to zero.  ``eig`` holds the eigenvalues in this
    split order: plus columns, then minus columns.
    """

    plus: np.ndarray       # Q[:mid, 0::2], mid = r - r//2
    minus: np.ndarray      # Q[:mid, 1::2] with an odd r's middle row zeroed
    eig: np.ndarray


@functools.cache
def _parity_basis(dense, n2: int) -> _ParityBasis:
    """The split of dense(n2) (``_sine_basis`` or ``_cosine_basis``); shared, read-only."""
    q, eig = dense(n2)
    half = q.shape[0] // 2
    mid = q.shape[0] - half
    plus = np.ascontiguousarray(q[:mid, 0::2])
    minus = np.ascontiguousarray(q[:mid, 1::2])
    minus[half:] = 0.0
    return _ParityBasis(*_read_only(plus, minus, np.concatenate([eig[0::2], eig[1::2]])))


def _read_only(*parts: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in parts:
        a.setflags(write=False)
    return parts


def end_rows(basis: _ParityBasis) -> np.ndarray:
    """Q[0, :] and Q[-1, :] in the basis' split order, stacked (2, r): mirror rows, minus columns negated."""
    return np.stack([np.concatenate([basis.plus[0], s * basis.minus[0]]) for s in (1.0, -1.0)])


def to_basis(basis: _ParityBasis, x: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Q^T x in the basis' split order, for C-ordered x2-major coefficients x.

    Two half-size real GEMMs on the float64 view (the real basis acts on
    real and imaginary parts alike), one on the sums and one on the
    differences of mirrored rows; no transform.
    """
    xf = x.view(np.float64)
    half = xf.shape[0] // 2
    mid = xf.shape[0] - half
    fold = grid.fold[:xf.shape[0]]
    np.add(xf[:mid], xf[:-mid - 1:-1], out=fold[:mid])              # sums (plus half)
    fold[half:mid] *= 0.5                                           # an odd middle row, twice
    np.subtract(xf[:half], xf[:-half - 1:-1], out=fold[mid:])
    y = np.empty_like(xf)
    np.matmul(basis.plus.T, fold[:mid], out=y[:mid])
    np.matmul(basis.minus[:half].T, fold[mid:], out=y[mid:])
    return y.view(complex)


def from_basis(basis: _ParityBasis, y: np.ndarray, grid: MappedGrid, out: np.ndarray) -> np.ndarray:
    """Q y for split-order coordinates y, the inverse of ``to_basis``, written into out (may be y)."""
    yf, of = y.view(np.float64), out.view(np.float64)
    mid = basis.plus.shape[0]
    fold = grid.fold[:2 * mid]
    np.matmul(basis.plus, yf[:mid], out=fold[:mid])
    np.matmul(basis.minus, yf[mid:], out=fold[mid:])
    np.add(fold[:mid], fold[mid:], out=of[:mid])
    np.subtract(fold[:mid], fold[mid:], out=of[:-mid - 1:-1])       # an odd middle row again
    return out


@functools.cache
def _sine_difference(n2: int) -> tuple[np.ndarray, np.ndarray]:
    """S^T T S in the sine basis' split order; shared, read-only.

    T is the centred difference f_{i+1} - f_{i-1} on the interior rows with
    zero walls.  T maps sine mode j to 2 sin(pi j/n) cos(pi i j/n), and the
    sine sums of those cosines close: with n = n2 - 1 the entry for output
    mode k and input mode j is

        (2/n) sin(pi j/n) [cot(pi (k+j)/2n) + cot(pi (k-j)/2n)]

    when k + j is odd and zero otherwise.  So it couples only modes of
    opposite parity, and its two nonzero blocks are returned: plus rows
    from minus columns, then minus rows from plus columns.  The closed form
    needs no dense product at set-up, where one above the BLAS threading
    threshold wakes a second OpenBLAS thread that then spins through the run.
    """
    n = n2 - 1
    odd, even = np.arange(1, n, 2), np.arange(2, n, 2)
    a = 0.5 * np.pi / n

    def block(k, j):
        cot_sum = 1.0 / np.tan(a * np.add.outer(k, j)) + 1.0 / np.tan(a * np.subtract.outer(k, j))
        return (2.0 / n) * np.sin(2.0 * a * j) * cot_sum

    return _read_only(block(odd, even), block(even, odd))


@functools.cache
def _cosine_difference(n2: int) -> tuple[np.ndarray, np.ndarray]:
    """E = V^T T' V in the cosine basis' split order, blocks as by ``_sine_difference``.

    T' is p_{i+1} - p_{i-1} inside, p_1 - p_0 and p_n - p_{n-1} on the walls.
    With n = n2 - 1 and V's column scales s_j = sqrt(2/n) (sqrt(1/n) for j = 0,
    n), E[k, j] = s_k s_j [-sin(pi j/n) (cot(pi (j+k)/2n) + cot(pi (j-k)/2n))
    - 4 sin^2(pi j/2n)] when j + k is odd and zero otherwise.
    """
    n = n2 - 1
    even, odd = np.arange(0, n2, 2), np.arange(1, n2, 2)
    a = 0.5 * np.pi / n

    def block(k, j):
        cot_sum = 1.0 / np.tan(a * np.add.outer(k, j)) - 1.0 / np.tan(a * np.subtract.outer(k, j))
        e = -np.sin(2.0 * a * j) * cot_sum - 4.0 * np.sin(a * j) ** 2
        s_k, s_j = (np.where((i == 0) | (i == n), np.sqrt(1.0 / n), np.sqrt(2.0 / n)) for i in (k, j))
        return np.multiply.outer(s_k, s_j) * e

    return _read_only(block(even, odd), block(odd, even))


# ---------------------------------------------------------------------------
# the mapped Laplacian
# ---------------------------------------------------------------------------

def _sine_eig(grid: MappedGrid) -> np.ndarray:
    """k^2 + a lam in the sine basis' split order, (n2-2, nk); a = ``grid.a22_mean``."""
    return np.add.outer(grid.a22_mean * _parity_basis(_sine_basis, grid.n2).eig, grid.k2)


def sine_divisor(grid: MappedGrid, sigma: float, c: float) -> np.ndarray:
    """sigma + c (k^2 + a lam) in the sine basis' split order, a new (n2-2, nk) array.

    The flat-metric operator sigma - c (Dxx + a Dzz) is diagonal in the x1
    wavenumbers times the sine basis, with these eigenvalues; a is the mean
    of 1 + h'^2, ``grid.a22_mean`` (exactly 1.0 on flat grids).  A flat grid
    holds k^2 + a lam (``grid.sine_eig``), so its divisor is one multiply and
    one add: the stepper builds two per step, as auto dt changes c.
    """
    out = np.multiply(_sine_eig(grid) if grid.sine_eig is None else grid.sine_eig, c)
    out += sigma
    return out


class _EigenOperator:
    """divisor * y + (h'^2 - mean) conv (lam * y) + cross conv (D y) on x2 eigen-coordinates.

    The form of both rough-wall kernels; D, the x2 difference in the basis,
    couples opposite parities only (two half-size GEMMs).
    """

    def __init__(self, grid: MappedGrid, divisor, lam, cross: float, difference):
        self.grid = grid
        self.divisor = divisor
        self._lam = lam[:, None]
        self._hp2 = tuple((m, w) for m, w in grid.hp2_shifts if m != 0)
        self._cross = tuple((m, cross * w) for m, w in grid.cross_shifts)
        self._difference = difference

    def apply(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The operator on C-ordered coordinates (rows, nk), written into out (may be y)."""
        grid = self.grid
        rows, nk = y.shape
        b = grid.band
        ext = grid.plane[:, :rows]
        np.multiply(y, self._lam, out=ext[0, :, b:b + nk])
        plus_from_minus, minus_from_plus = self._difference
        mid = plus_from_minus.shape[0]
        yf, dy = y.view(np.float64), ext[1, :, b:b + nk].view(np.float64)
        np.matmul(plus_from_minus, yf[mid:], out=dy[:mid])
        np.matmul(minus_from_plus, yf[:mid], out=dy[mid:])
        np.multiply(y, self.divisor, out=out)
        widen(ext, grid)
        convolve(out, ext[0], self._hp2, grid)
        return convolve(out, ext[1], self._cross, grid)


class SineOperator(_EigenOperator):
    """sigma - c L on sine coordinates y = S^T v of zero-wall interior rows.

    Rough grids only: flat grids solve directly and apply ``_flat_laplacian``.

    v holds the to_coefficients of the interior rows of a field whose wall
    rows are zero (wall data enter through ``laplacian_of_walls``), and S is
    the orthonormal sine basis in the split order of ``to_basis``.  With the
    centered x2 stencils d2 f = (f_{j+1} - f_{j-1})/(2 dx2) and
    d2^2 f = (f_{j+1} - 2 f_j + f_{j-1})/dx2^2 at an interior node (the
    1/(2 dx2) of d2 is folded into the cross weights),

        L f = dx1^2 f + d2^2 f + h'^2 d2^2 f - h' dx1(d2 f) - dx1(h' d2 f)

    (dx2(-h' dx1 f) = -h' dx1(dx2 f) because h' depends on x1 only).  In
    sine coordinates d2^2 is -diag(lam) and dx1^2 is -k^2, so the flat part
    and the mean of h'^2 give ``sine_divisor``, the array the flat-metric
    preconditioner divides by, and the cross terms act on D y with
    D = S^T T S (``_sine_difference``).  First derivatives use ik with the
    Nyquist mode zeroed and the second derivative the full k^2, as in d_x1
    and d2_x1.
    """

    def __init__(self, grid: MappedGrid, sigma: float, c: float):
        super().__init__(grid, sine_divisor(grid, sigma, c),
                         c * _parity_basis(_sine_basis, grid.n2).eig, -c, _sine_difference(grid.n2))


def cosine_divisor(grid: MappedGrid) -> np.ndarray:
    """dx1 dx2 (kk + (a - kk dx2^2/4) mu) in the cosine basis' split order, a new (n2, nk) array.

    The flat-metric Neumann operator dx1 dx2 (kk Av^T Av + a Gz^T Gz) per x1
    mode, diagonal in this basis as Av^T Av = W - (dx2^2/4) Gz^T Gz; zero in
    row 0 (mu = 0) where kk = |ik|^2 is: k = 0 and the even-n1 Nyquist mode.
    a is the mean of 1 + h'^2, ``grid.a22_mean`` (exactly 1.0 on flat grids).
    """
    kk = np.abs(grid.ik_d1) ** 2
    out = np.multiply.outer(_parity_basis(_cosine_basis, grid.n2).eig,
                            grid.a22_mean - 0.25 * grid.dx2**2 * kk)
    out += kk
    out *= grid.dx1 * grid.dx2
    return out


class CosineOperator(_EigenOperator):
    """The Neumann face-scheme operator V^T A V on cosine coordinates y (rough grids).

    p = V y are node coefficients (V^T W V = I).  A = dx1 dx2 G^T C G, with
    (Gx, Gz) = (Dx Av, Gz) the face average and difference and C the metric
    [[1, -h'], [-h', 1 + h'^2]]; V^T Gz^T Gz V = diag(mu).  As
    Av^T Gz + Gz^T Av = diag(-1, 0, ..., 0, 1)/dx2, the cross terms are the
    ``cross_shifts`` convolution of E y (E = V^T (2 dx2 Av^T Gz) V) plus the
    rank-two wall term dx1 (V[0, :]^T h' Dx p_0 - V[n, :]^T h' Dx p_n) of the
    wall rows (p_0, p_n) = ``wall_rows`` y.
    """

    def __init__(self, grid: MappedGrid):
        basis = _parity_basis(_cosine_basis, grid.n2)
        w = grid.dx1 * grid.dx2
        super().__init__(grid, cosine_divisor(grid), w * basis.eig, -w, _cosine_difference(grid.n2))
        # dx1 h' Dx: the -h' weights times -dx1 ik at the source wavenumber
        self._wall = tuple((m, -grid.dx1 * c * grid._ik_shifted(m)) for m, c in grid.mhp_shifts)
        self.wall_rows = end_rows(basis)           # V[0, :] and V[n, :]
        self._wall_cols = np.stack([self.wall_rows[0], -self.wall_rows[1]], axis=1)

    def apply(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The operator on C-ordered cosine coordinates (n2, nk), written into out (not y)."""
        super().apply(y, out)
        grid, nk = self.grid, y.shape[1]
        b = grid.band
        lines, wall = grid.plane[0, :2], grid.plane[1, :2, :nk]
        np.matmul(self.wall_rows, y.view(np.float64), out=lines[:, b:b + nk].view(np.float64))
        wall[:] = 0.0
        convolve(wall, widen(lines, grid), self._wall, grid)
        rank_two = grid.fold[:y.shape[0]]
        out += np.matmul(self._wall_cols, wall.view(np.float64), out=rank_two).view(complex)
        return out


def widen(ext: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Fill the band margins of half-spectrum coefficients of real fields, in place.

    ext (..., nk + 2 band) holds the coefficients of wavenumbers 0..nk-1 in
    its columns band..band+nk-1; by Hermitian symmetry (x_{-j} = conj x_j,
    x_{n1-j} = conj x_j) column band + j then holds wavenumber j for every
    -band <= j < nk + band, as ``convolve`` reads them.
    """
    b, n1 = grid.band, grid.n1
    nk = ext.shape[-1] - 2 * b
    if b:
        np.conjugate(ext[..., 2 * b:b:-1], out=ext[..., :b])
        np.conjugate(ext[..., b + n1 - nk:n1 - nk:-1], out=ext[..., b + nk:])
    return ext


def convolve(out: np.ndarray, src: np.ndarray, shifts, grid: MappedGrid) -> np.ndarray:
    """out += sum over shifts (m, w) of w * src at wavenumbers k - m, in place.

    src is a ``widen``-ed array (rows, nk + 2 band), so the term of shift m
    is one multiply-add with a strided view.  The k = 0 and Nyquist
    coefficients of a real field are real; the rounding-level imaginary part
    the sum leaves there is cleared.
    """
    b = grid.band
    nk = out.shape[-1]
    tmp = grid.buffer[:out.shape[0]]
    for m, w in shifts:
        np.multiply(src[:, b - m:b - m + nk], w, out=tmp)
        out += tmp
    out[:, 0].imag = 0.0
    if grid.n1 % 2 == 0:
        out[:, -1].imag = 0.0
    return out


def _flat_laplacian(c: np.ndarray, grid: MappedGrid, out: np.ndarray) -> np.ndarray:
    """dx1^2 f + dx2^2 f of the zero-wall field with interior-row coefficients c, into out."""
    np.multiply(c, -(2.0 + grid.k2 * grid.dx2**2), out=out)
    out[1:] += c[:-1]
    out[:-1] += c[1:]
    out *= 1.0 / grid.dx2**2
    return out


def laplacian_of_walls(walls: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Interior Laplacian of the field that is zero except for its wall traces.

    walls stacks the (bottom, top) traces, (2, n1).  The Laplacian is
    nonzero only on the rows next to the walls, returned as that (2, n1)
    pair of rows: there the 3-point x2 stencil reads the wall value and, on
    rough grids, the centered x2 difference in the two cross terms gives
    +-[dx1(h' g) + h' dx1 g] / (2 dx2) for the wall trace g.
    """
    near = grid.a22 * walls / grid.dx2**2
    if not grid.is_flat:
        d = d_x1_line(np.concatenate([grid.hp * walls, walls]), grid)
        cross = (d[:2] + grid.hp * d[2:]) / (2.0 * grid.dx2)
        near[0] += cross[0]
        near[1] -= cross[1]
    return near


def apply_L_tilde(f: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """Mapped Laplacian at the interior rows of grid values f (n1, n2): (n1, n2-2).

    A cold-path utility: the time step never forms it.  Wall rows of f enter
    through laplacian_of_walls.  Flat interior rows take ``_flat_laplacian``
    (diagonal in x1, so the coefficient scaling cancels and is left out);
    rough ones change to sine coordinates around a ``SineOperator`` built
    for the call.
    """
    c = f[:, 1:-1]
    if grid.is_flat:
        c = x1_transform(c, grid)
        out = x1_inverse(_flat_laplacian(c, grid, np.empty_like(c)), grid)
    else:
        basis = _parity_basis(_sine_basis, grid.n2)
        y = to_basis(basis, to_coefficients(c, grid), grid)
        y = SineOperator(grid, 0.0, -1.0).apply(y, y)
        out = from_coefficients(from_basis(basis, y, grid, y), grid)
    near = laplacian_of_walls(f.T[[0, -1]], grid)
    out[:, 0] += near[0]
    out[:, -1] += near[1]
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

def wall_tangential_derivatives(pairs: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """d/dlambda of (bottom, top) pairs of wall lines, stacked (..., 2, n1).

    The wall row *is* the wall curve, so the arc-length derivative is a
    spectral x1 derivative over sqrt(1+h'^2); the sign follows the tangent
    orientation (+y1 on the bottom wall, -y1 on the top).  The whole stack
    takes one rfft/irfft pair, which costs little more than one line's.
    """
    d = d_x1_line(pairs, grid)
    d[..., 1, :] *= -1.0
    d /= grid.ds_weight
    return d


def wall_tangential_velocity(u1: np.ndarray, u2: np.ndarray, grid: MappedGrid) -> np.ndarray:
    """u . tau on both wall rows, stacked (bottom, top) as (2, n1).

    tau points along +y1 on the bottom wall and -y1 on the top, so
    u . tau = +-(u1 + h' u2) / sqrt(1+h'^2).
    """
    ut = np.multiply(grid.hp, u2.T[[0, -1]])
    ut += u1.T[[0, -1]]
    ut[1] *= -1.0
    ut /= grid.ds_weight
    return ut
