import gc
import weakref

import numpy as np
import pytest

import rbns.elliptic
from rbns.elliptic import (
    SOLVER_TOL,
    EllipticError,
    HelmholtzDirichlet,
    PoissonNeumann,
    _cosine_basis,
    _eigen_solve,
    _parity_basis,
    _pcg,
    _remove_kernel,
    _sine_basis,
    wall_spectra,
)
from rbns.geometry import FourierSeries
from rbns.grid import (
    MappedGrid,
    apply_L_tilde,
    convolve,
    cosine_divisor,
    d2_x1,
    d_x1,
    d_x2,
    sine_divisor,
    _cosine_difference,
    _sine_difference,
    from_basis,
    from_coefficients,
    to_coefficients,
    volume_integral,
    widen,
    x1_inverse,
    x1_transform,
)
from rbns.verify import _neumann_data

# two wall modes, so h' and h'' are not single harmonics
TWO_MODES = FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1), (3, 0.02, -0.01)))


def test_flat_helmholtz_divisor_is_one_multiply_add():
    # the grid holds k^2 + lam, so each construction (a new c every auto-dt
    # step) gives the reciprocal of the divisor built from scratch
    g = MappedGrid(FourierSeries(gamma=1.0), 48, 49)
    lam = _parity_basis(_sine_basis, g.n2).eig
    for c in (5e-5, 0.37, 1.3e-3, 5e-5, 2.0, None):
        sigma, ceff = (0.0, 1.0) if c is None else (1.0, c)
        inv = HelmholtzDirichlet(g, c)._inv_divisor
        assert np.array_equal(inv, 1.0 / sine_divisor(g, sigma, ceff))
        assert np.array_equal(inv, 1.0 / (np.add.outer(g.a22_mean * lam, g.k2) * ceff + sigma))


def _relmax(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _divergence_form_laplacian(f, g):
    """Unfused reference for apply_L_tilde at the interior rows.

    dx1(dx1 f) + dx1(-h' dx2 f) + dx2(-h' dx1 f) + dx2((1+h'^2) dx2 f), each
    term from its own derivative calls (six x1 transforms on rough grids).
    """
    hp = g.hp[:, None]
    inner = slice(1, -1)
    d2z = (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / g.dx2**2
    out = d2_x1(f, g)[:, inner] + g.a22[:, None] * d2z
    out += d_x1(-hp * d_x2(f, g), g)[:, inner]
    out += d_x2(-hp * d_x1(f, g), g)[:, inner]
    return out


def test_flat_eigenfunction(flat_profile):
    g = MappedGrid(flat_profile, 32, 33)
    x1, x2 = g.x1[:, None], g.x2[None, :]
    f = np.sin(2 * np.pi * x1) * np.sin(np.pi * x2)
    sol, info = HelmholtzDirichlet(g, None).solve(5 * np.pi**2 * f[:, 1:-1], np.zeros(32), np.zeros(32))
    assert info.method == "direct"
    assert np.abs(sol - f).max() <= 2e-4  # truncation of the discrete eigenvalue


def test_flat_harmonic_linear(flat_profile):
    g = MappedGrid(flat_profile, 16, 33)
    sol, _ = HelmholtzDirichlet(g, None).solve(np.zeros((16, 31)), np.zeros(16), np.ones(16))
    assert np.abs(sol - g.x2[None, :]).max() <= 1e-12


def test_dirichlet_solve_then_apply(sine_profile):
    g = MappedGrid(sine_profile, 32, 33)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((g.n1, g.n2 - 2))
    sol, info = HelmholtzDirichlet(g, None).solve(-rhs, np.zeros(32), np.zeros(32))
    assert info.method == "pcg"
    resid = apply_L_tilde(sol, g) - rhs
    assert np.abs(resid).max() <= 1e-8 * max(np.abs(rhs).max(), 1.0)


def test_dirichlet_self_consistent_recovery(sine_profile):
    # rhs built by the discrete operator itself is recovered to solver tolerance
    g = MappedGrid(sine_profile, 32, 33)
    x1, x2 = g.x1[:, None], g.x2[None, :]
    f = np.cos(2 * np.pi * x1) * x2 * (1.0 - x2) + 0.2 * x2
    rhs = apply_L_tilde(f, g)
    sol, _ = HelmholtzDirichlet(g, None).solve(-rhs, f[:, 0], f[:, -1])
    assert np.abs(sol - f).max() <= 1e-8 * np.abs(f).max()


def test_helmholtz_flat_exact_mode(flat_profile):
    g = MappedGrid(flat_profile, 32, 33)
    x1, x2 = g.x1[:, None], g.x2[None, :]
    f = np.sin(2 * np.pi * x1) * np.sin(np.pi * x2)
    c = 0.01
    rhs = f[:, 1:-1] - c * apply_L_tilde(f, g)
    sol, info = HelmholtzDirichlet(g, c).solve(rhs, f[:, 0], f[:, -1])
    assert info.method == "direct"
    assert np.abs(sol - f).max() <= 1e-12


@pytest.mark.parametrize("n1", [8, 9])
@pytest.mark.parametrize("c", [None, 0.003])
def test_flat_dirichlet_matches_dense_per_mode(flat_profile, n1, c):
    # per x1 mode the interior operator is sigma + c (k^2 - D2), D2 the
    # 3-point second difference; the walls enter the first and last rows
    g = MappedGrid(flat_profile, n1, 11)
    rng = np.random.default_rng(n1)
    rhs = rng.standard_normal((n1, g.n2 - 2))
    bottom, top = rng.standard_normal(n1), rng.standard_normal(n1)
    sol, info = HelmholtzDirichlet(g, c).solve(rhs, bottom, top)
    assert info.method == "direct"
    sigma, ceff = (0.0, 1.0) if c is None else (1.0, c)
    b = rhs.copy()
    b[:, 0] += ceff * bottom / g.dx2**2
    b[:, -1] += ceff * top / g.dx2**2
    bhat = np.fft.rfft(b, axis=0)
    nz = g.n2 - 2
    d2 = (np.diag(np.full(nz - 1, 1.0), -1) - 2.0 * np.eye(nz)
          + np.diag(np.full(nz - 1, 1.0), 1)) / g.dx2**2
    xhat = np.array([np.linalg.solve(sigma * np.eye(nz) + ceff * (k2 * np.eye(nz) - d2), bm)
                     for k2, bm in zip(g.k2, bhat)])
    expected = np.fft.irfft(xhat, n=n1, axis=0)
    assert np.abs(sol[:, 1:-1] - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(sol[:, 0], bottom) and np.array_equal(sol[:, -1], top)


@pytest.mark.parametrize("n1", [8, 9])
def test_flat_neumann_matches_dense_per_mode(flat_profile, n1):
    # per x1 mode the face-scheme operator is dx1 dx2 (kk Av^T Av + Gz^T Gz);
    # the singular modes (k = 0, and Nyquist for even n1) are solved with
    # node 0 pinned and returned with zero mean in x2
    g = MappedGrid(flat_profile, n1, 11)
    n2 = g.n2
    rng = np.random.default_rng(n1)
    b = rng.standard_normal(g.shape)
    b -= b.mean()
    if n1 % 2 == 0:
        alt = (-1.0) ** np.arange(n1)[:, None]
        b -= np.mean(alt * b) * alt
    rhs = -b / (g.w2[None, :] * g.dx1)       # consistent data, zero wall flux
    sol, info = PoissonNeumann(g).solve(rhs, 0.0, 0.0)
    assert info.method == "direct"
    assert info.compat_defect <= 1e-14
    av = 0.5 * (np.eye(n2 - 1, n2) + np.eye(n2 - 1, n2, 1))
    gz = (np.eye(n2 - 1, n2, 1) - np.eye(n2 - 1, n2)) / g.dx2
    bhat = np.fft.rfft(b, axis=0)
    xhat = np.zeros_like(bhat)
    for m, kk in enumerate(np.abs(g.ik_d1) ** 2):
        a_m = g.dx1 * g.dx2 * (kk * av.T @ av + gz.T @ gz)
        if kk == 0.0:
            xhat[m, 1:] = np.linalg.solve(a_m[1:, 1:], bhat[m, 1:])
            xhat[m] -= xhat[m].mean()
        else:
            xhat[m] = np.linalg.solve(a_m, bhat[m])
    expected = np.fft.irfft(xhat, n=n1, axis=0)
    expected -= volume_integral(expected, g) / g.area
    assert np.abs(sol - expected).max() <= 1e-12 * np.abs(expected).max()
    if n1 % 2 == 0:
        assert abs(np.fft.rfft(sol, axis=0)[-1].mean()) <= 1e-13 * np.abs(sol).max()


def test_neumann_trivial_and_mean_zero(flat_profile):
    g = MappedGrid(flat_profile, 16, 17)
    sol, info = PoissonNeumann(g).solve(np.zeros(g.shape), np.zeros(16), np.zeros(16))
    assert np.abs(sol).max() <= 1e-14
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(g.shape)
    sol, info = PoissonNeumann(g).solve(rhs, np.zeros(16), np.zeros(16))
    assert abs(volume_integral(sol, g)) <= 1e-12 * max(np.abs(sol).max(), 1.0)


def test_neumann_flat_mode_oracle(flat_profile):
    # rhs = cos(2 pi x1), zero flux: per-mode two-point BVP solved densely
    g = MappedGrid(flat_profile, 32, 33)
    rhs = np.cos(2 * np.pi * g.x1)[:, None] * np.ones(g.n2)
    sol, info = PoissonNeumann(g).solve(rhs, np.zeros(32), np.zeros(32))
    # 1D oracle: (d^2/dz^2 - k^2) v = 1, v'(0) = v'(1) = 0  =>  v = -1/k^2
    k = 2 * np.pi
    n = 401
    dz = 1.0 / (n - 1)
    a = np.zeros((n, n))
    b = np.ones(n)
    for j in range(1, n - 1):
        a[j, j - 1] = a[j, j + 1] = 1.0 / dz**2
        a[j, j] = -2.0 / dz**2 - k**2
    a[0, 0], a[0, 1], a[0, 2] = -3.0 / (2 * dz), 4.0 / (2 * dz), -1.0 / (2 * dz)
    a[-1, -1], a[-1, -2], a[-1, -3] = 3.0 / (2 * dz), -4.0 / (2 * dz), 1.0 / (2 * dz)
    b[0] = b[-1] = 0.0
    v = np.linalg.solve(a, b)
    assert np.abs(v - (-1.0 / k**2)).max() <= 1e-6
    expected = np.cos(2 * np.pi * g.x1)[:, None] * v[200] * np.ones(g.n2)
    assert np.abs(sol - expected).max() <= 1e-10


def _neumann_error(g, p, *derivs):
    """Max error of the Neumann solve for p, given (px, pz, pxx, pzz, pxz) in x coordinates."""
    lap, flux_bottom, flux_top = _neumann_data(g, *derivs)
    sol, _ = PoissonNeumann(g).solve(lap, flux_bottom, flux_top)
    return float(np.abs(sol - (p - volume_integral(p, g) / g.area)).max())


def test_rough_neumann_wall_normal_gradient_second_order(sine_profile):
    # p = cos(2 pi x1) sin(pi x2) has dp/dx2 = +-pi cos(2 pi x1) on the walls,
    # the part of the wall flux criterion 2's field (dp/dx2 = 0 there) never tests
    n2_list = (32, 64, 128)
    errs = []
    for n2 in n2_list:
        g = MappedGrid(sine_profile, 32, n2)
        x1, x2 = g.x1[:, None], g.x2[None, :]
        c1, s1 = np.cos(2 * np.pi * x1), np.sin(2 * np.pi * x1)
        c2, s2 = np.cos(np.pi * x2), np.sin(np.pi * x2)
        p = c1 * s2
        errs.append(_neumann_error(g, p, -2 * np.pi * s1 * s2, np.pi * c1 * c2,
                                   -(2 * np.pi) ** 2 * p, -np.pi**2 * p,
                                   -2 * np.pi**2 * s1 * c2))
    orders = [np.log(errs[i] / errs[i + 1]) / np.log((n2_list[i + 1] - 1) / (n2_list[i] - 1))
              for i in range(2)]
    assert min(orders) >= 1.9, (errs, orders)


@pytest.mark.parametrize("n1, n2", [(32, 33), (64, 65)])
def test_rough_neumann_solves_linear_field_exactly(sine_profile, n1, n2):
    # p = x2: unit dp/dx2 on both walls and the mapped Laplacian -h''
    g = MappedGrid(sine_profile, n1, n2)
    zero = np.zeros(g.shape)
    p = np.broadcast_to(g.x2, g.shape)
    assert _neumann_error(g, p, zero, zero + 1.0, zero, zero, zero) <= 1e-10


def test_neumann_compatibility_defect_reported(flat_profile):
    g = MappedGrid(flat_profile, 16, 17)
    # incompatible data: rhs with nonzero mean and zero flux
    rhs = np.ones(g.shape)
    sol, info = PoissonNeumann(g).solve(rhs, np.zeros(16), np.zeros(16))
    assert info.compat_defect > 0.1
    assert abs(volume_integral(sol, g)) <= 1e-12


def _dot(a, b):
    """The real inner product of coefficient arrays (the fields' dot product)."""
    return float(np.vdot(a, b).real)


def _face_neumann_apply(p, g):
    """The Neumann face-scheme operator A = G^T C G on node coefficients (n2, nk).

    The node-coefficient form of the operator the rough Neumann solve
    iterates on in cosine coordinates: gx = Dx Av p and gz = Gz p on the x2
    cell faces, q1 = gx - h' gz and q2 = -h' gx + (1 + h'^2) gz by
    convolution, then the adjoints with the weight dx1 dx2.
    """
    rows, nk = p.shape[0] - 1, p.shape[1]
    b = g.band
    faces = np.empty((2, rows, nk + 2 * b), dtype=complex)
    gx, gz = faces[:, :, b:b + nk]
    np.add(p[1:], p[:-1], out=gx)
    gx *= 0.5 * g.ik_d1
    np.subtract(p[1:], p[:-1], out=gz)
    gz *= 1.0 / g.dx2
    gx, gz = gx.copy(), gz.copy()
    if not g.is_flat:
        # q1 = gx - h' gz and q2 = -h' gx + (1 + h'^2) gz = gz - h' q1
        convolve(gx, widen(faces[1], g), g.mhp_shifts, g)
        faces[0, :, b:b + nk] = gx
        convolve(gz, widen(faces[0], g), g.mhp_shifts, g)
    dq1 = gx * ((0.5 * g.dx1 * g.dx2) * g.ik_d1)
    q2 = gz * g.dx1
    out = np.zeros(p.shape, dtype=complex)
    out[1:] += q2 - dq1
    out[:-1] -= dq1 + q2
    return out


def _split_cosine_basis(n2):
    """Dense W-orthonormal V with its columns in the split order of to_basis."""
    v, _ = _cosine_basis(n2)
    return v[:, np.r_[0:n2:2, 1:n2:2]]


def _cosine_apply(g, y):
    return PoissonNeumann(g)._operator.apply(y, np.empty_like(y))


def test_neumann_operator_symmetry(sine_profile):
    # the cosine-coordinate operator (a congruence of the node operator)
    g = MappedGrid(sine_profile, 16, 17)
    rng = np.random.default_rng(2)
    u = to_coefficients(rng.standard_normal(g.shape), g)
    v = to_coefficients(rng.standard_normal(g.shape), g)
    a = _dot(v, _cosine_apply(g, u))
    b = _dot(u, _cosine_apply(g, v))
    assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)
    # positive semidefinite with the constants (coordinate j = 0 at k = 0)
    # and the x2-constant Nyquist mode in the kernel
    assert _dot(u, _cosine_apply(g, u)) >= -1e-12
    kernel = np.zeros_like(u)
    kernel[0, 0] = kernel[0, -1] = 1.0
    assert np.abs(_cosine_apply(g, kernel)).max() <= 1e-12


def test_nonconvergence_raises(sine_profile, monkeypatch):
    g = MappedGrid(sine_profile, 32, 33)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal((g.n1, g.n2 - 2))
    monkeypatch.setattr(rbns.elliptic, "default_maxiter", lambda grid: 2)
    with pytest.raises(EllipticError) as err:
        HelmholtzDirichlet(g, None).solve(-rhs, np.zeros(32), np.zeros(32))
    assert err.value.iterations == 2
    assert err.value.rel_residual > 0


@pytest.mark.parametrize("n1", [32, 33])
def test_interior_apply_matches_full_operator_rough(n1):
    # the fused operator (one shared forward transform) is the divergence-form
    # Laplacian, term by term, at the interior rows
    g = MappedGrid(TWO_MODES, n1, 33)
    f = np.random.default_rng(n1).standard_normal(g.shape)
    assert _relmax(apply_L_tilde(f, g), _divergence_form_laplacian(f, g)) <= 1e-13


def test_rough_grid_freed_without_cycle_collector():
    # nothing the grid keeps may refer back to it, or a dropped grid and its
    # work arrays outlive their last use
    g = MappedGrid(TWO_MODES, 16, 17)
    apply_L_tilde(np.ones(g.shape), g)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n1", [32, 33])
@pytest.mark.parametrize("rough", [False, True])
def test_dirichlet_rhs_is_operator_of_wall_field(n1, rough):
    # the two-row wall terms equal the interior operator of the wall-only field
    g = MappedGrid(TWO_MODES if rough else FourierSeries(gamma=1.0), n1, 17)
    rng = np.random.default_rng(n1)
    bottom, top = rng.standard_normal(n1), rng.standard_normal(n1)
    walls = np.zeros(g.shape)
    walls[:, 0], walls[:, -1] = bottom, top
    expected = x1_transform(apply_L_tilde(walls, g), g)
    got = wall_spectra(np.array((bottom, top)), g)
    if rough:
        assert _relmax(got, expected[[0, -1]]) <= 1e-13
    else:
        assert np.array_equal(got, expected[[0, -1]])
    assert not expected[1:-1].any()


@pytest.mark.parametrize("n1", [16, 15])
def test_rough_neumann_operator_symmetric_to_rounding(n1):
    # the cosine-coordinate operator
    g = MappedGrid(TWO_MODES, n1, 17)
    rng = np.random.default_rng(n1)
    u, v = (to_coefficients(rng.standard_normal(g.shape), g) for _ in range(2))
    au, av = _cosine_apply(g, u), _cosine_apply(g, v)
    scale = float(np.sum(np.abs(v.conj() * au)))
    assert abs(_dot(v, au) - _dot(u, av)) <= 1e-14 * scale


@pytest.mark.parametrize("n1", [32, 33])
def test_coefficient_layout_is_an_isometry(n1):
    g = MappedGrid(TWO_MODES, n1, 9)
    rng = np.random.default_rng(n1)
    f, h = rng.standard_normal((2, n1, 7))
    cf, ch = to_coefficients(f, g), to_coefficients(h, g)
    assert cf.shape == (7, n1 // 2 + 1) and cf.flags.c_contiguous
    assert abs(_dot(cf, ch) - np.sum(f * h)) <= 1e-13 * np.sqrt(np.sum(f * f) * np.sum(h * h))
    assert np.linalg.norm(cf) == pytest.approx(np.linalg.norm(f), rel=1e-13)
    assert np.abs(from_coefficients(cf, g) - f).max() <= 1e-13 * np.abs(f).max()


def _count_transforms(monkeypatch):
    """Record the input shape of every np.fft.rfft / irfft call."""
    shapes = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return shapes


@pytest.mark.parametrize("rough, most", [(False, 2), (True, 0)])
def test_operator_apply_transform_count(monkeypatch, rough, most):
    # x1 transform calls: rough PCG iterations make none, Dirichlet (sine
    # coordinates) and Neumann (cosine coordinates) alike, each with its
    # diagonal preconditioner, so a solve cut after 4 iterations makes no
    # more than one cut after 1; a flat direct solve makes at most `most`
    # full-size ones, plus one of its two wall lines
    g = MappedGrid(TWO_MODES if rough else FourierSeries(gamma=1.0), 32, 33)
    solver = HelmholtzDirichlet(g, 0.003)
    rng = np.random.default_rng(0)
    rhs, bottom, top = (rng.standard_normal((g.n1, g.n2 - 2)), rng.standard_normal(g.n1),
                        rng.standard_normal(g.n1))
    shapes = _count_transforms(monkeypatch)
    if rough:
        neumann = PoissonNeumann(g)
        p = rng.standard_normal(g.shape)
        counts = []
        for maxiter in (1, 4):
            solver.maxiter = neumann.maxiter = maxiter
            shapes.clear()
            with pytest.raises(EllipticError):
                solver.solve(rhs, bottom, top)
            with pytest.raises(EllipticError):
                neumann.solve(p.copy(), 0.0, 0.0)       # the solve overwrites its rhs
            counts.append(len(shapes))
        assert counts[1] - counts[0] <= most
    else:
        solver.solve(rhs, bottom, top)
        assert sum(min(s) > 4 for s in shapes) <= most
        assert sum(min(s) <= 4 for s in shapes) <= 1


def _reference_pcg_solver(solver):
    """Grid-value PCG operator and preconditioner of a HelmholtzDirichlet.

    The operator is (sigma - c L) through the unfused divergence-form
    Laplacian of the zero-wall field, and the preconditioner the dense
    flat-metric sine-basis solve on grid values: the grid-value formulation
    of the solver's PCG, sharing no kernel with it.
    """
    g = solver.grid
    sigma = 0.0 if solver.c is None else 1.0
    ceff = 1.0 if solver.c is None else solver.c
    s, lam = _sine_basis(g.n2)
    divisor = sigma + ceff * (g.k2[:, None] + float(np.mean(g.a22)) * lam[None, :])

    def apply(v):
        full = np.zeros(g.shape)
        full[:, 1:-1] = v
        return sigma * v - ceff * _divergence_form_laplacian(full, g)

    def precondition(b):
        return np.fft.irfft(np.fft.rfft(b @ s, axis=0) / divisor, n=g.n1, axis=0) @ s

    return apply, precondition


def test_rough_pcg_iterations_match_grid_value_reference(monkeypatch):
    # every Dirichlet solve of a few rough steps takes as many PCG iterations
    # as the grid-value PCG on the same right-hand side and starting guess
    from rbns.config import RunConfig
    from rbns.runner import build_stepper, initial_stream_function, initial_temperature

    cfg = RunConfig()
    cfg.geometry.modes = ((1, 0.0, 0.1),)
    cfg.physical.ra, cfg.physical.pr = 1e4, 10.0
    cfg.grid.n1, cfg.grid.n2 = 32, 33
    cfg.initial.u0_amplitude = 1.0
    stepper = build_stepper(cfg)
    grid = stepper.grid
    state = stepper.state_from_fields(initial_temperature(cfg, grid),
                                      initial_stream_function(cfg, grid))
    solve = HelmholtzDirichlet.solve
    counts = []

    def recorded(self, rhs_int, bottom, top, x0=None, *, rhs_coords=None, old=None, walls=None):
        # the reference assembles the grid-value right-hand side and starting
        # guess itself, from the sine coordinates the step hands over, before
        # the solve overwrites them: rhs plus the wall terms, and for a
        # Crank-Nicolson solve the old field f (zero walls) plus c L f
        def values(coords):
            return from_coefficients(from_basis(self._basis, coords, grid, np.empty_like(coords)), grid)

        rhs = rhs_int.copy() if rhs_coords is None else values(rhs_coords)
        wall_rows = x1_inverse(wall_spectra(np.array((bottom, top)), grid) if walls is None else walls, grid)
        rhs[:, [0, -1]] += self._ceff * wall_rows
        if old is None:
            start = x0[:, 1:-1].copy()
        else:
            start = values(old)
            field = np.zeros(grid.shape)
            field[:, 1:-1] = start
            rhs += start + self.c * _divergence_form_laplacian(field, grid)
        out, info = solve(self, rhs_int, bottom, top, x0, rhs_coords=rhs_coords, old=old, walls=walls)
        apply, precondition = _reference_pcg_solver(self)
        _, ref = _pcg(apply, precondition, rhs, start, SOLVER_TOL, self.maxiter, "reference")
        counts.append((info.iterations, ref.iterations))
        return out, info

    monkeypatch.setattr(HelmholtzDirichlet, "solve", recorded)
    for _ in range(3):
        state = stepper.step(state, 2e-4, stepper.state_derivatives(state))
    assert len(counts) == 9
    assert all(it > 3 for it, _ in counts)
    assert [it for it, _ in counts] == [ref for _, ref in counts]


@pytest.mark.parametrize("rough", [False, True])
def test_dirichlet_rhs_transforms_only_wall_data(monkeypatch, rough):
    g = MappedGrid(TWO_MODES if rough else FourierSeries(gamma=1.0), 32, 33)
    rng = np.random.default_rng(1)
    shapes = _count_transforms(monkeypatch)
    wall_spectra(rng.standard_normal((2, g.n1)), g)
    # at most a few wall lines per transform, never a grid-sized field
    assert shapes and all(min(s) <= 4 for s in shapes)


@pytest.mark.parametrize("n2", [9, 10, 33, 64, 65, 129])
@pytest.mark.parametrize("dense", [_sine_basis, _cosine_basis])
def test_parity_split_eigen_solve_matches_dense(dense, n2):
    # the half-size products and their butterfly are Q ((Q^T x) * inv) for
    # odd and even row counts, with and without a middle row
    q, _ = dense(n2)
    basis = _parity_basis(dense, n2)
    rng = np.random.default_rng(n2)
    rows, nk = q.shape[0], 5
    x = rng.standard_normal((rows, nk)) + 1j * rng.standard_normal((rows, nk))
    inv = rng.uniform(0.5, 2.0, (rows, nk))
    order = np.r_[0:rows:2, 1:rows:2]                 # the split order of the eigenvalues
    got = _eigen_solve(basis, x, inv[order], MappedGrid(FourierSeries(gamma=1.0), 2 * (nk - 1), n2))
    expected = q @ ((q.T @ x) * inv)
    assert _relmax(got, expected) <= 1e-13
    _, eig = dense(n2)
    assert np.array_equal(basis.eig, eig[order])


def _fft_laplacian_coeffs(c, g):
    """Rough Laplacian of interior-row coefficients c, zero walls, with the h' products formed on the grid.

    One batched inverse transform of the x2 face differences g and dx1 g,
    the products with h' and h'^2 at the grid points and one batched
    forward transform: the grid-product reference for the convolutions.
    """
    rows, nk = c.shape
    faces = np.empty((2, rows + 1, nk), dtype=complex)
    f = faces[0]
    np.subtract(c[1:], c[:-1], out=f[1:-1])
    f[0], f[-1] = c[0], -c[-1]
    f *= 1.0 / (g.dx2 * g.coeff_scale)
    np.multiply(f, g.ik_d1, out=faces[1])
    gz, gxz = np.fft.irfft(faces, n=g.n1, axis=-1)
    hp = g.hp
    prod = np.empty((2, rows, g.n1))
    prod[0] = (gz[1:] - gz[:-1]) * hp * (hp / g.dx2) - 0.5 * hp * (gxz[1:] + gxz[:-1])
    prod[1] = 0.5 * hp * (gz[1:] + gz[:-1])
    prod_hat = np.fft.rfft(prod, axis=-1)
    metric = (prod_hat[0] - g.ik_d1 * prod_hat[1]) * g.coeff_scale
    d2 = -2.0 * c
    d2[1:] += c[:-1]
    d2[:-1] += c[1:]
    return metric + d2 / g.dx2**2 - g.k2 * c


def _fft_neumann_apply(p, g):
    """Rough _face_neumann_apply with q1 = gx - h' gz, q2 = gz - h' gx + h'^2 gz on the grid."""
    gx = 0.5 * g.ik_d1 * (p[1:] + p[:-1]) / g.coeff_scale
    gz = (p[1:] - p[:-1]) / (g.dx2 * g.coeff_scale)
    fx, fz = np.fft.irfft(np.stack([gx, gz]), n=g.n1, axis=-1)
    q1 = np.fft.rfft(fx - g.hp * fz, axis=-1) * g.coeff_scale
    q2 = np.fft.rfft(fz - g.hp * fx + g.hp**2 * fz, axis=-1) * g.coeff_scale
    dq1 = (0.5 * g.dx1 * g.dx2) * g.ik_d1 * q1
    q2 = g.dx1 * q2
    out = np.zeros(p.shape, dtype=complex)
    out[1:] += q2 - dq1
    out[:-1] -= dq1 + q2
    return out


@pytest.mark.parametrize("profile, n1", [
    (TWO_MODES, 32),
    (TWO_MODES, 33),
    # modes at or above n1/2 alias on the grid: the shifts fold modulo n1,
    # down to the even-n1 Nyquist shift
    (FourierSeries(gamma=1.0, modes=((5, 0.03, 0.1),)), 8),
    (FourierSeries(gamma=1.0, modes=((4, 0.03, 0.1),)), 8),
    (FourierSeries(gamma=1.3, modes=((5, 0.03, 0.1), (2, 0.0, -0.05))), 9),
])
def test_metric_convolutions_match_grid_products(profile, n1):
    g = MappedGrid(profile, n1, 17)
    rng = np.random.default_rng(n1)
    f = rng.standard_normal(g.shape)
    f0 = f.copy()
    f0[:, [0, -1]] = 0.0
    expected = from_coefficients(_fft_laplacian_coeffs(to_coefficients(f0[:, 1:-1], g), g), g)
    assert _relmax(apply_L_tilde(f0, g), expected) <= 1e-13
    y = to_coefficients(f, g)
    v = _split_cosine_basis(g.n2)
    assert _relmax(_cosine_apply(g, y), v.T @ _fft_neumann_apply(v @ y, g)) <= 1e-13
    # h' and h'^2 sampled on the grid have exactly the stored number of DFT terms
    hp_hat = np.fft.fft(g.hp) / n1
    a_hat = np.fft.fft(g.hp**2) / n1
    tiny = 1e-12 * np.abs(hp_hat).max()
    assert g.metric_fourier_terms == np.sum(np.abs(hp_hat) > tiny) + np.sum(np.abs(a_hat) > tiny)


def _split_sine_basis(n2):
    """Dense S with its columns in the split order of to_basis."""
    s, _ = _sine_basis(n2)
    return s[:, np.r_[0:n2 - 2:2, 1:n2 - 2:2]]


@pytest.mark.parametrize("n2", [9, 10, 33, 64, 65, 129])
def test_sine_difference_matches_dense(n2):
    # the closed-form S^T T S against the dense product, T the zero-wall
    # centred difference f_{i+1} - f_{i-1}; opposite parities only
    s = _split_sine_basis(n2)
    rows = n2 - 2
    t = np.eye(rows, k=1) - np.eye(rows, k=-1)
    dense = s.T @ t @ s
    mid = rows - rows // 2
    plus_from_minus, minus_from_plus = _sine_difference(n2)
    assert np.abs(plus_from_minus - dense[:mid, mid:]).max() <= 1e-14
    assert np.abs(minus_from_plus - dense[mid:, :mid]).max() <= 1e-14
    assert np.abs(dense[:mid, :mid]).max() <= 1e-14
    assert np.abs(dense[mid:, mid:]).max() <= 1e-14


FOUR_MODES = FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1), (2, 0.03, 0.0),
                                             (3, 0.02, -0.01), (4, -0.01, 0.005)))


@pytest.mark.parametrize("profile", [FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1),)),
                                     TWO_MODES, FOUR_MODES], ids=["1mode", "2modes", "4modes"])
@pytest.mark.parametrize("n1", [32, 33])
@pytest.mark.parametrize("c", [None, 0.003])
def test_sine_operator_matches_divergence_form(profile, n1, c):
    # sigma - c L on sine coordinates, changed back through dense S, is the
    # unfused divergence-form operator of the zero-wall field
    g = MappedGrid(profile, n1, 17)
    solver = HelmholtzDirichlet(g, c)
    sigma, ceff = (0.0, 1.0) if c is None else (1.0, c)
    f = np.zeros(g.shape)
    f[:, 1:-1] = np.random.default_rng(n1).standard_normal((n1, g.n2 - 2))
    s = _split_sine_basis(g.n2)
    y = s.T @ to_coefficients(f[:, 1:-1], g)
    got = from_coefficients(s @ solver._operator.apply(y, np.empty_like(y)), g)
    expected = sigma * f[:, 1:-1] - ceff * _divergence_form_laplacian(f, g)
    assert _relmax(got, expected) <= 1e-12


@pytest.mark.parametrize("n2", [9, 10, 33, 64, 65, 129])
def test_cosine_difference_matches_dense(n2):
    # the closed-form E = V^T T' V against the dense product, T' the node
    # difference (centred inside, one-sided on the wall nodes)
    v = _split_cosine_basis(n2)
    t = np.eye(n2, k=1) - np.eye(n2, k=-1)
    t[0, 0], t[-1, -1] = -1.0, 1.0
    dense = v.T @ t @ v
    mid = n2 - n2 // 2
    plus_from_minus, minus_from_plus = _cosine_difference(n2)
    assert np.abs(plus_from_minus - dense[:mid, mid:]).max() <= 1e-14
    assert np.abs(minus_from_plus - dense[mid:, :mid]).max() <= 1e-14
    assert np.abs(dense[:mid, :mid]).max() <= 1e-14
    assert np.abs(dense[mid:, mid:]).max() <= 1e-14


@pytest.mark.parametrize("profile", [FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1),)),
                                     TWO_MODES, FOUR_MODES], ids=["1mode", "2modes", "4modes"])
@pytest.mark.parametrize("n1", [32, 33])
@pytest.mark.parametrize("n2", [17, 18])
def test_cosine_operator_matches_face_scheme(profile, n1, n2):
    # the kernel on cosine coordinates is V^T A V for the node-coefficient
    # face-scheme operator A and dense V
    g = MappedGrid(profile, n1, n2)
    y = to_coefficients(np.random.default_rng(n1 + n2).standard_normal(g.shape), g)
    v = _split_cosine_basis(n2)
    assert _relmax(_cosine_apply(g, y), v.T @ _face_neumann_apply(v @ y, g)) <= 1e-12


def _node_neumann_pcg(g, rhs, flux_bottom, flux_top, tol):
    """The rough Neumann solve as PCG on node coefficients.

    Face-scheme operator, the cosine-basis solve of the flat-metric operator
    as preconditioner (singular modes returned with zero plain x2 mean),
    plain norms: the formulation the cosine-coordinate PCG is a congruence of.
    """
    basis = _parity_basis(_cosine_basis, g.n2)
    inv = cosine_divisor(g)
    inv[0, g.ik_d1 == 0.0] = np.inf
    inv = 1.0 / inv
    b = -g.dx1 * g.w2 * rhs
    b[:, 0] += g.dx1 * g.ds_weight * flux_bottom
    b[:, -1] += g.dx1 * g.ds_weight * flux_top
    b = _remove_kernel(to_coefficients(b, g), g)
    p, info = _pcg(lambda q: _face_neumann_apply(q, g),
                   lambda r: _remove_kernel(_eigen_solve(basis, r, inv, g), g),
                   b, None, tol, 10_000, "reference")
    p[:, 0] -= g.w2 @ p[:, 0]
    return from_coefficients(p, g), info


@pytest.mark.parametrize("n1", [32, 33])
def test_rough_neumann_iterations_match_node_reference(n1):
    # the same iterations as the node-coefficient PCG and the same pressure,
    # both from a zero start
    g = MappedGrid(TWO_MODES, n1, 33)
    rng = np.random.default_rng(n1)
    x1, x2 = g.x1[:, None], g.x2[None, :]
    rhs = np.cos(2 * np.pi * x1) * np.cos(np.pi * x2) + 0.1 * rng.standard_normal(g.shape)
    flux_bottom, flux_top = 0.3 * np.sin(2 * np.pi * g.x1), 0.2 * np.cos(4 * np.pi * g.x1)
    solver = PoissonNeumann(g)
    got, info = solver.solve(rhs.copy(), flux_bottom, flux_top)     # the solve overwrites rhs
    expected, ref = _node_neumann_pcg(g, rhs, flux_bottom, flux_top, SOLVER_TOL)
    assert info.iterations > 5
    assert info.iterations == ref.iterations
    assert _relmax(got, expected) <= 1e-10
    assert abs(volume_integral(got, g)) <= 1e-13 * np.abs(got).max()


def test_pcg_without_iterations_raises_elliptic_error(monkeypatch):
    # maxiter < 1 reports the initial residual instead of failing on it
    g = MappedGrid(FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1),)), 16, 17)
    rng = np.random.default_rng(3)
    monkeypatch.setattr(rbns.elliptic, "default_maxiter", lambda grid: 0)
    with pytest.raises(EllipticError) as err:
        HelmholtzDirichlet(g, None).solve(rng.standard_normal(g.shape)[:, 1:-1],
                                          np.zeros(16), np.zeros(16))
    assert err.value.iterations == 0 and err.value.rel_residual == pytest.approx(1.0)
    with pytest.raises(EllipticError) as err:
        PoissonNeumann(g).solve(rng.standard_normal(g.shape), 0.0, 0.0)
    assert err.value.iterations == 0 and err.value.rel_residual == pytest.approx(1.0)


def _stepper_and_state(modes, n1, n2):
    from rbns.config import RunConfig
    from rbns.runner import build_stepper, initial_stream_function, initial_temperature

    cfg = RunConfig()
    cfg.geometry.modes = modes
    cfg.grid.n1, cfg.grid.n2 = n1, n2
    cfg.initial.u0_amplitude = 1.0
    stepper = build_stepper(cfg)
    state = stepper.state_from_fields(initial_temperature(cfg, stepper.grid),
                                      initial_stream_function(cfg, stepper.grid))
    return stepper, state


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "rough"])
def test_rough_step_full_size_transform_count(monkeypatch, modes):
    # full-size x1 transforms of one step, its state derivatives included:
    # the two gradients (one rfft and one irfft each, the rfft kept as the
    # old fields' coefficients of the Crank-Nicolson solves), per field the
    # grid part and the x1 flux of the explicit terms (two rfft, nothing
    # back), the three solutions back (one irfft each), the rough psi
    # solve's starting guess (one rfft) and the new velocity (one irfft,
    # from the spectra the psi solve formed before its own).
    # Wall lines are not counted.
    stepper, state = _stepper_and_state(modes, 32, 33)
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if min(np.shape(a)) > 4:
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    stepper.step(state, 2e-4, stepper.state_derivatives(state))
    assert (calls.count("rfft"), calls.count("irfft")) == ((6, 6) if not modes else (7, 6))


@pytest.mark.parametrize("modes", [(), ((1, 0.0, 0.1),)], ids=["flat", "rough"])
def test_step_forms_no_grid_value_laplacian(monkeypatch, modes):
    # the Crank-Nicolson right-hand sides are built in x1 coefficients
    # (flat) or sine coordinates (rough); apply_L_tilde is for cold paths
    import sys

    import rbns.grid

    stepper, state = _stepper_and_state(modes, 16, 17)

    def forbidden(*args, **kwargs):
        raise AssertionError("the step called apply_L_tilde")

    original = rbns.grid.apply_L_tilde
    for name, module in list(sys.modules.items()):
        if name.startswith("rbns") and getattr(module, "apply_L_tilde", None) is original:
            monkeypatch.setattr(module, "apply_L_tilde", forbidden)
    new = stepper.step(state, 2e-4, stepper.state_derivatives(state))
    assert np.isfinite(new.omega).all()


def _array_bytes(obj) -> int:
    """Bytes of the 2-D and larger arrays an object holds, through dicts and attributes.

    A view counts the memory block of the array that owns its data, once.
    """
    blocks, seen, stack = {}, set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            if item.ndim >= 2:
                while isinstance(item.base, np.ndarray):
                    item = item.base
                blocks[id(item)] = item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return sum(blocks.values())


def test_rough_grid_work_arrays_small():
    # one work plane and one buffer, the fold a view of it: 420,032 bytes at 128 x 129
    from rbns.solver import velocity_gradients

    stepper, state = _stepper_and_state(((1, 0.0, 0.1),), 128, 129)
    grid = stepper.grid
    state = stepper.step(state, 1e-5, stepper.state_derivatives(state))
    derivs = stepper.state_derivatives(state)
    derivs.grad_u = velocity_gradients(state, grid)
    stepper.recover_pressure(state, derivs)
    assert _array_bytes(grid) <= 0.45e6
