"""Built-in verification suites: geometry identities, MMS orders, balances.

Each suite returns a list of (name, passed, detail) rows; the CLI renders
them as a table and fails the process if any row fails.  These are the same
checks the test suite automates, packaged for quick command-line runs.
"""

from __future__ import annotations

import numpy as np

from rbns.config import RunConfig
from rbns.geometry import FourierSeries, Side, boundary_frames, check_conditions
from rbns.grid import MappedGrid, apply_L_tilde, grad_physical
from rbns.elliptic import HelmholtzDirichlet, PoissonNeumann
from rbns.runner import run_simulation

Row = tuple[str, bool, str]

SINE_PROFILE = FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1),))


def _row(name: str, passed: bool, detail: str) -> Row:
    return (name, bool(passed), detail)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def geometry_suite(n1: int = 1024) -> list[Row]:
    rows = []
    for label, profile in (("flat", FourierSeries(gamma=1.0)), ("sine", SINE_PROFILE)):
        alpha = FourierSeries(gamma=1.0, offset=1.0)
        walls = boundary_frames(profile, n1, alpha)
        for side, normal, tangent in zip(Side, walls.normal, walls.tangent):
            nrm = np.abs(np.linalg.norm(normal, axis=1) - 1.0).max()
            tnrm = np.abs(np.linalg.norm(tangent, axis=1) - 1.0).max()
            dot = np.abs(np.einsum("ij,ij->i", normal, tangent)).max()
            rows.append(_row(f"{label}/{side.value}: |n|=1", nrm <= 1e-14, f"dev {nrm:.2e}"))
            rows.append(_row(f"{label}/{side.value}: |tau|=1", tnrm <= 1e-14, f"dev {tnrm:.2e}"))
            rows.append(_row(f"{label}/{side.value}: tau.n=0", dot <= 1e-14, f"dev {dot:.2e}"))
        closure = abs(walls.line_integral(walls.kappa[0]))
        rows.append(_row(f"{label}: int kappa dS = 0", closure <= 1e-12, f"value {closure:.2e}"))
        anti = np.abs(walls.kappa[1] + walls.kappa[0]).max()
        rows.append(_row(f"{label}: kappa_top = -kappa_bottom", anti == 0.0, f"dev {anti:.2e}"))
        # refinement consistency of sup-norm estimates (cos-aligned extrema)
        fine = boundary_frames(profile, 2 * n1, alpha)
        n_a = np.max(np.abs(walls.alpha[0] + walls.kappa[0]))
        n_b = np.max(np.abs(fine.alpha[0] + fine.kappa[0]))
        rows.append(_row(f"{label}: norm refinement", abs(n_a - n_b) < 1e-10,
                         f"change {abs(n_a - n_b):.2e}"))
    rep = check_conditions(boundary_frames(FourierSeries(gamma=1.0), n1,
                                           FourierSeries(gamma=1.0, offset=1.0)))["ec"]
    rows.append(_row("flat alpha=1: condition ec margin 2.25",
                     abs(rep.margin - 2.25) <= 1e-12, f"margin {rep.margin}"))
    return rows


# ---------------------------------------------------------------------------
# MMS
# ---------------------------------------------------------------------------

def _mms_fields(grid: MappedGrid):
    """Manufactured field, its physical gradient and Laplacian, on the grid."""
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    hp, hpp = grid.hp[:, None], grid.hpp[:, None]
    f = np.sin(2 * np.pi * x1) * np.sin(np.pi * x2)
    fx = 2 * np.pi * np.cos(2 * np.pi * x1) * np.sin(np.pi * x2)
    fz = np.pi * np.sin(2 * np.pi * x1) * np.cos(np.pi * x2)
    fxx = -(2 * np.pi) ** 2 * f
    fzz = -np.pi**2 * f
    fxz = 2 * np.pi**2 * np.cos(2 * np.pi * x1) * np.cos(np.pi * x2)
    grad = (fx - hp * fz, fz)
    lap = fxx - 2 * hp * fxz + (1 + hp**2) * fzz - hpp * fz
    return f, grad, lap


def _neumann_data(grid: MappedGrid, px, pz, pxx, pzz, pxz):
    """Mapped Laplacian of a field and its outward wall fluxes, from its x-derivatives."""
    hp, hpp = grid.hp[:, None], grid.hpp[:, None]
    lap = pxx - 2 * hp * pxz + (1 + hp**2) * pzz - hpp * pz
    py1, py2 = px - hp * pz, pz
    gb = (grid.hp * py1[:, 0] - py2[:, 0]) / grid.ds_weight
    gt = (-grid.hp * py1[:, -1] + py2[:, -1]) / grid.ds_weight
    return lap, gb, gt


def _neumann_fields(grid: MappedGrid):
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    p = np.cos(2 * np.pi * x1) * np.cos(np.pi * x2)
    px = -2 * np.pi * np.sin(2 * np.pi * x1) * np.cos(np.pi * x2)
    pz = -np.pi * np.cos(2 * np.pi * x1) * np.sin(np.pi * x2)
    pxx = -(2 * np.pi) ** 2 * p
    pzz = -np.pi**2 * p
    pxz = 2 * np.pi**2 * np.sin(2 * np.pi * x1) * np.sin(np.pi * x2)
    return (p, *_neumann_data(grid, px, pz, pxx, pzz, pxz))


def mms_errors(n2: int, n1: int = 32) -> dict[str, float]:
    grid = MappedGrid(SINE_PROFILE, n1, n2)
    f, (gy1, gy2), lap = _mms_fields(grid)
    out = {}
    fy1, fy2 = grad_physical(f, grid)
    out["grad_physical"] = float(max(np.abs(fy1 - gy1).max(), np.abs(fy2 - gy2).max()))
    out["apply_L_tilde"] = float(np.abs(apply_L_tilde(f, grid) - lap[:, 1:-1]).max())
    sol, _ = HelmholtzDirichlet(grid, None).solve(-lap[:, 1:-1], f[:, 0], f[:, -1])  # -L u = -lap
    out["solve_poisson_dirichlet"] = float(np.abs(sol - f).max())
    p, plap, gb, gt = _neumann_fields(grid)
    sol, _ = PoissonNeumann(grid).solve(plap, gb, gt)
    pm = p - (np.sum(p @ grid.w2) * grid.dx1) / grid.area
    out["solve_poisson_neumann"] = float(np.abs(sol - pm).max())
    return out


def mms_suite(n2_list=(32, 64, 128), min_order: float = 1.9) -> list[Row]:
    errs = {n2: mms_errors(n2) for n2 in n2_list}
    rows = []
    for op in ("grad_physical", "apply_L_tilde", "solve_poisson_dirichlet",
               "solve_poisson_neumann"):
        seq = [errs[n2][op] for n2 in n2_list]
        orders = [np.log(seq[i] / seq[i + 1])
                  / np.log((n2_list[i + 1] - 1) / (n2_list[i] - 1))
                  for i in range(len(seq) - 1)]
        observed = orders[-1]
        detail = "errors " + " ".join(f"{e:.2e}" for e in seq) \
            + " orders " + " ".join(f"{o:.2f}" for o in orders)
        rows.append(_row(f"mms {op}: order >= {min_order}", observed >= min_order, detail))
    return rows


# ---------------------------------------------------------------------------
# balances
# ---------------------------------------------------------------------------

def decay_fixture(n1: int = 32, n2: int = 33, pr: float = 1.0,
                  t_end: float = 0.25, dt: float = 1e-3) -> RunConfig:
    cfg = RunConfig()
    cfg.physical.ra = 0.0
    cfg.physical.pr = pr
    cfg.grid.n1, cfg.grid.n2 = n1, n2
    cfg.time.t_end = t_end
    cfg.time.dt = dt
    cfg.time.sample_interval = 5 * dt
    cfg.initial.temp_perturbation = 0.0
    cfg.initial.u0_amplitude = 1.0
    return cfg


def decay_rate_check(cfg: RunConfig | None = None) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(fitted decay rate of log ||u||^2, bound rate, times, energies)."""
    cfg = cfg or decay_fixture()
    res = run_simulation(cfg)
    t, e = res.recorder.column("time"), res.recorder.column("energy")
    alpha_min = 1.0  # decay_fixture uses alpha = 1 on both walls
    bound_rate = 0.25 * min(1.0, alpha_min) * cfg.physical.pr
    sel = (t > 0.0) & (e > 1e-24 * e[0])
    rate = -np.polyfit(t[sel], np.log(e[sel]), 1)[0]
    return float(rate), bound_rate, t, e


def balances_suite() -> list[Row]:
    rows = []
    rate, bound_rate, t, e = decay_rate_check()
    rows.append(_row("decay rate >= 0.95 * bound rate",
                     rate >= 0.95 * bound_rate,
                     f"fitted {rate:.3f} vs bound {bound_rate:.3f}"))
    envelope = e[0] * np.exp(-bound_rate * t) * 1.05
    ok = bool(np.all(e <= envelope + 1e-300))
    rows.append(_row("energy under decay envelope (5% slack)", ok,
                     f"max ratio {np.max(e / np.maximum(envelope, 1e-300)):.3f}"))

    cfg = RunConfig()
    cfg.physical.ra = 1e4
    cfg.physical.pr = 10.0
    cfg.grid.n1, cfg.grid.n2 = 48, 49
    cfg.time.t_end = 0.8
    cfg.time.burn_in = 0.5
    cfg.time.sample_interval = 5e-3
    res = run_simulation(cfg)
    e_res = res.recorder.mean_abs_energy_residual()
    s_res = res.recorder.final_enstrophy_residual()
    rows.append(_row("energy balance residual <= 5e-3", e_res <= 5e-3, f"{e_res:.2e}"))
    rows.append(_row("enstrophy balance residual <= 2e-2", s_res <= 2e-2, f"{s_res:.2e}"))
    return rows


SUITES = {
    "geometry": geometry_suite,
    "mms": mms_suite,
    "balances": balances_suite,
}


def run_suite(name: str) -> tuple[list[Row], bool]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (known: {', '.join(SUITES)})")
    rows = SUITES[name]()
    return rows, all(p for _, p, _ in rows)


def render_rows(rows: list[Row]) -> str:
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}"
             for name, ok, detail in rows]
    return "\n".join(lines)
