"""Mutation audit: run a pytest selection against one-line mutants of the code.

    python3 tools/mutants.py [PYTEST_ARGS ...]

Each entry of MUTANTS replaces one text, which must occur exactly once in
its file (a path from the repository root), with another.  The tool copies
src/, tests/, bench/ (tests/test_bench_tooling.py loads it) and
pyproject.toml into a temporary directory and checks that the selection
passes there unmutated.  Then, one mutant at a time, it rewrites the file,
runs the selection and restores the file.  It prints the kill matrix: a row
per test that failed under some mutant, a column per mutant.  A mutant no
test kills survives.

PYTEST_ARGS default to tests/test_diagnostics.py.  No bytecode is written,
so a restored file of the mutant's length is never run from a stale cache.
Standard library only; nothing in src/, tests/ or bench/ imports this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIAGNOSTICS = "src/rbns/diagnostics.py"
SOLVER = "src/rbns/solver.py"
GRID = "src/rbns/grid.py"
BOUNDS = "src/rbns/bounds.py"
RNG = "src/rbns/rng.py"

# id: (file, old, new, why)
MUTANTS = {
    "M1": (SOLVER,
           "fluxes -= self._kappa_pr * state.u_tau**2",
           "fluxes += self._kappa_pr * state.u_tau**2",
           "recover_pressure: wall flux -(kappa/Pr) u_tau^2 -> +"),
    "M2": (DIAGNOSTICS,
           "scales = (1.0, 2.0, -ra, 2.0 / pr, -2.0 * ra)",
           "scales = (1.0, 2.0, -ra, -2.0 / pr, -2.0 * ra)",
           "measure: wall_inertia scale 2/Pr -> -2/Pr"),
    "M3": (SOLVER,
           "self._slip = -2.0 * self._ak",
           "self._slip = -2.0 * (walls.alpha - walls.kappa)",
           "step: slip vorticity -2(alpha+kappa) -> -2(alpha-kappa)"),
    "M4": (SOLVER,
           "out += prev * (-0.5 * r)",
           "out += prev * 0.0",
           "adams_bashforth: the AB2 history of omega and T dropped"),
    "M5": (DIAGNOSTICS,
           'np.multiply(ak + alpha, ut_sq_ds, out=rows[_WALL["boundary_friction"]])',
           'np.multiply(ak + kappa, ut_sq_ds, out=rows[_WALL["boundary_friction"]])',
           "measure: boundary friction (2 alpha + kappa) -> (alpha + 2 kappa)"),
    "M6": (DIAGNOSTICS,
           'walls.normal[0, :, 0], out=row["wall_buoyancy"]',
           'walls.normal[0, :, 1], out=row["wall_buoyancy"]',
           "measure: wall_buoyancy reads n2 for n1"),
    "M7": (SOLVER,
           "fluxes[0] += self._ra_n2",
           "fluxes[0] -= self._ra_n2",
           "recover_pressure: bottom wall flux Ra n2 -> -Ra n2"),
    "M8": (DIAGNOSTICS,
           'np.subtract(grid.hp * ty1[:, 0], ty2[:, 0], out=row["nu_flux"])',
           'np.subtract(-grid.hp * ty1[:, 0], ty2[:, 0], out=row["nu_flux"])',
           "measure: sign of h' in the rough wall heat flux"),
    "M11": (GRID,
            "ut[1] *= -1.0",
            "ut[1] *= 1.0",
            "wall_tangential_velocity: top-wall orientation dropped"),
    "M12": (DIAGNOSTICS,
            'np.multiply(kappa, ut_sq_ds, out=rows[_WALL["kappa_friction"]])',
            'np.multiply(alpha, ut_sq_ds, out=rows[_WALL["kappa_friction"]])',
            "measure: kappa_friction reads alpha"),
    "M13": (DIAGNOSTICS,
            "cross -= grid.hp * (ty1 @ slope_w2)",
            "cross += grid.hp * (ty1 @ slope_w2)",
            "measure: sign of the rough background cross term"),
    "M14": (DIAGNOSTICS,
            'nu -= (last["theta_sq"] - first["theta_sq"])',
            'nu += (last["theta_sq"] - first["theta_sq"])',
            "nu_eta_corrected: sign of the d|theta|^2/dt endpoint term"),
    "M15": (DIAGNOSTICS,
            'np.matmul(temp, (1.0 - grid.x2) * w2, out=row["heat_content"])',
            'np.matmul(temp, grid.x2 * w2, out=row["heat_content"])',
            "measure: heat_content weight 1 - x2 -> x2"),
    "M16": (DIAGNOSTICS,
            '(2.0 * self.pr) + self.column("ak_friction") / self.pr',
            '(2.0 * self.pr) - self.column("ak_friction") / self.pr',
            "enstrophy residual: sign of int (a+k) u_tau^2 / Pr in Z"),
    "M17": (BOUNDS,
            "a0 = am * b / (8.0 * c * smooth3)",
            "a0 = b / (8.0 * c * smooth3)",
            "choose_proof_parameters: three_sevenths a0 loses its alpha_min factor"),
    "M18": (BOUNDS,
            "am ** (-1.0 / 6.0) * smooth",
            "am ** (1.0 / 6.0) * smooth",
            "evaluate_theorem2: alpha_min^(-1/6) in C_3/7 -> alpha_min^(+1/6)"),
    "M19": (BOUNDS,
            'flags["ra_ok"] = ra ** (-1.0) <= am',
            'flags["ra_ok"] = ra ** (-0.5) <= am',
            "evaluate_theorem2: interp_general Ra^(-1) <= alpha_min -> Ra^(-1/2)"),
    "M20": (RNG,
            "yield (x >> rot | x << (64 - rot)) & _M64",
            "yield (x << rot | x >> (64 - rot)) & _M64",
            "_pcg64: XSL-RR rotates left instead of right"),
    "M21": (RNG,
            "(_FI[idx - 1] - _FI[idx]) * next_double()",
            "(_FI[idx] - _FI[idx - 1]) * next_double()",
            "standard_normals: wedge height fi[idx-1] - fi[idx] -> fi[idx] - fi[idx-1]"),
    "M22": (RNG,
            "-(_R + xx) if rabs >> 8 & 1 else _R + xx",
            "-(_R + xx) if r & 1 else _R + xx",
            "standard_normals: the tail's sign from the layer draw's sign bit"),
}


def run_in(copy: str, *args: str) -> subprocess.CompletedProcess:
    """Run Python in the copy, importing rbns from the copy's src/."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(copy, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=copy, env=env, capture_output=True,
                          text=True)


def run_pytest(copy: str, args: list[str]) -> tuple[int, list[str], str]:
    """(exit code, failed test ids, output tail) of pytest in the copy."""
    proc = run_in(copy, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed, "\n".join(proc.stdout.splitlines()[-5:])


def copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests", "bench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def print_matrix(results: dict[str, list[str]]) -> None:
    ids = list(results)
    tests = list(dict.fromkeys(t for failed in results.values() for t in failed))
    width = max([len(t) for t in tests] + [len("survived")])
    print(f"{'':<{width}}  " + "  ".join(f"{m:>4}" for m in ids))
    for test in tests:
        print(f"{test:<{width}}  " + "  ".join(f"{'x' if test in results[m] else '.':>4}"
                                                for m in ids))
    print(f"{'survived':<{width}}  " + "  ".join(f"{'yes' if not results[m] else 'no':>4}"
                                                 for m in ids))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER)
    selection = parser.parse_args(argv).pytest_args or ["tests/test_diagnostics.py"]

    with tempfile.TemporaryDirectory(prefix="rbns-mutants-") as copy:
        copy_tree(copy)
        where = run_in(copy, "-c", "import rbns; print(rbns.__file__)").stdout.strip()
        if not where.startswith(os.path.join(copy, "src") + os.sep):
            print(f"rbns imports from {where or 'nowhere'}, not from the copy", file=sys.stderr)
            return 2
        code, failed, tail = run_pytest(copy, selection)
        if code != 0:
            print(f"the selection does not pass unmutated (exit {code}):\n{tail}", file=sys.stderr)
            return 2
        results = {}
        for m, (path, old, new, why) in MUTANTS.items():
            target = os.path.join(copy, path)
            with open(target, encoding="utf-8") as fh:
                original = fh.read()
            if original.count(old) != 1:
                print(f"{m}: the text to mutate occurs {original.count(old)} times in {path}",
                      file=sys.stderr)
                return 2
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(original.replace(old, new))
            try:
                code, failed, tail = run_pytest(copy, selection)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(original)
            if code not in (0, 1):
                print(f"{m}: pytest exited {code}:\n{tail}", file=sys.stderr)
                return 2
            results[m] = failed
            print(f"{m} {'killed by ' + str(len(failed)) if failed else 'survived'}: {why}")
    print()
    print_matrix(results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
