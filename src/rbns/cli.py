"""Command-line front end.

Subcommands:

  simulate         run a configured simulation (optionally a parameter sweep
                   or a restart from a checkpoint), writing diagnostics CSV,
                   checkpoints and the final bound report
  verify           run a built-in verification suite (geometry | mms |
                   balances | all) and print a pass/fail table
  bounds           evaluate the bound formulas, either for completed run
                   directories or in pure-formula mode from explicit norms
  scaling          nondimensionalization and curvature/friction scaling ratios
  geometry-report  condition checks and sup-norms for a configured geometry
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

import rbns
from rbns import bounds as bounds_mod
from rbns import reporting, scaling, verify
from rbns.config import _SCHEMA, ConfigError, RunConfig, _convert, parse_config, serialize_config
from rbns.files import atomic_open
from rbns.geometry import CONDITION_SAMPLES, BoundaryNorms
from rbns.runner import conditions_for_config, run_simulation
from rbns.solver import PhysicalParams


def _load_config(path: str) -> tuple[RunConfig, str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text), text


def _set_config_key(config: RunConfig, dotted: str, raw: str) -> None:
    if "." in dotted:
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"--sweep: unknown config key {dotted!r}")
    else:
        hits = [(s, dotted) for s, keys in _SCHEMA.items() if dotted in keys]
        if len(hits) != 1:
            raise ConfigError(f"--sweep: key {dotted!r} is "
                              + ("ambiguous" if hits else "unknown")
                              + "; use section.key")
        section, key = hits[0]
    value = _convert(_SCHEMA[section][key], raw, f"--sweep {dotted}")
    setattr(getattr(config, section), key, value)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_one(config: RunConfig, out_dir: str, resume: str | None,
             config_text: str | None) -> tuple[int, float]:
    result = run_simulation(config, out_dir, resume=resume, config_text=config_text)
    measured = result.averages.get("nu_flux", float("nan"))
    report = reporting.report_for_run(config, result.averages, measured,
                                      boundary=(result.norms, result.conditions))
    reporting.write_report(out_dir, report)
    print(report.render_text())
    if result.aborted:
        # before its own first checkpoint, a resumed run still has the one it started from
        retained = result.checkpoints[-1] if result.checkpoints else resume or "none"
        print(f"error in solver: {result.abort_reason}; last checkpoint retained ({retained})",
              file=sys.stderr)
        return 1, measured
    print(f"run complete: t = {result.final_state.time:g}, {result.steps_taken} steps, "
          f"nu = {measured:.6g}, output in {out_dir}")
    return 0, measured


def cmd_simulate(args) -> int:
    # run_simulation validates each (possibly swept) config again and warns
    # there; a stiffness warning here would only repeat that one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        config, text = _load_config(args.config)
    out_base = args.output or config.output.directory
    if args.sweep is None:
        return _run_one(config, out_base, args.resume, text)[0]

    if args.resume:
        raise ConfigError("--resume cannot be combined with --sweep")
    dotted, _, values = args.sweep.partition("=")
    if not values:
        raise ConfigError("--sweep expects KEY=v1,v2,...")
    status = 0
    ra_values, nu_values = [], []
    for i, raw in enumerate(v.strip() for v in values.split(",")):
        cfg_i = copy.deepcopy(config)
        _set_config_key(cfg_i, dotted, raw)
        sub = os.path.join(out_base, f"sweep_{i:02d}_{dotted.replace('.', '_')}_{raw}")
        rc, nu = _run_one(cfg_i, sub, None, serialize_config(cfg_i))
        status = max(status, rc)
        ra_values.append(cfg_i.physical.ra)
        nu_values.append(nu)
    lines = [f"swept = {dotted}", f"values = {values}"]
    finite = [i for i in range(len(nu_values)) if np.isfinite(nu_values[i])]
    if len(finite) >= 2 and len(set(ra_values)) > 1:
        slope = bounds_mod.sweep_slope([ra_values[i] for i in finite],
                                       [nu_values[i] for i in finite])
        lines.append(f"log_nu_vs_log_ra_slope = {slope!r}")
    os.makedirs(out_base, exist_ok=True)
    with atomic_open(os.path.join(out_base, "sweep_summary.txt")) as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return status


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        rows, passed = verify.run_suite(name)
        print(f"[{name}]")
        print(verify.render_rows(rows))
        ok = ok and passed
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    if args.run:
        ra_values, nu_values = [], []
        for run_dir in args.run:
            report = reporting.report_from_run_dir(run_dir)
            reporting.write_report(run_dir, report)
            print(report.render_text())
            ra_values.append(report.ra)
            nu_values.append(report.measured_nu)
        if len(args.run) >= 2 and len(set(ra_values)) > 1:
            slope = bounds_mod.sweep_slope(ra_values, nu_values)
            print(f"log_nu_vs_log_ra_slope = {slope!r}")
        return 0
    # pure-formula mode
    for name in ("alpha_min", "kappa_inf", "alpha_plus_kappa_inf", "alpha_plus_kappa_w1inf",
                 "alpha_dot_inf", "kappa_dot_inf", "hprime_inf", "height_range"):
        value = getattr(args, name)
        if value is not None and not value >= 0.0:
            raise ValueError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    if not args.gamma > 0.0:
        raise ValueError(f"--gamma must be positive, got {args.gamma}")
    norms = BoundaryNorms(
        alpha_min=args.alpha_min,
        kappa_inf=args.kappa_inf,
        alpha_plus_kappa_inf=args.alpha_plus_kappa_inf
        if args.alpha_plus_kappa_inf is not None else args.alpha_min + args.kappa_inf,
        alpha_plus_kappa_w1inf=args.alpha_plus_kappa_w1inf
        if args.alpha_plus_kappa_w1inf is not None
        else max(args.alpha_min + args.kappa_inf, args.alpha_dot_inf + args.kappa_dot_inf),
        alpha_dot_inf=args.alpha_dot_inf,
        kappa_dot_inf=args.kappa_dot_inf,
        hprime_inf=args.hprime_inf,
        height_range=args.height_range,
        gamma=args.gamma,
        n_samples=0,
    )
    conditions = reporting.conditions_from_norms(norms)
    physical = PhysicalParams(args.ra, args.pr)
    report = reporting.assemble_report(
        physical, norms, conditions, measured_nu=args.measured_nu,
        user_c=args.user_c, user_cbar=args.user_cbar, u0_norm=args.u0_norm,
        notes=["pure-formula mode: pointwise conditions inferred conservatively "
               "from sup-norms"],
    )
    print(report.render_text())
    return 0


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def _parse_setup(raw: str) -> scaling.DimensionalSetup:
    parts = [float(v) for v in raw.split(",")]
    if len(parts) != 6:
        raise ConfigError("setup expects H,dT,viscosity,diffusivity,expansion,gravity")
    return scaling.DimensionalSetup(height_gap=parts[0], temp_gap=parts[1],
                                    viscosity=parts[2], thermal_diffusivity=parts[3],
                                    expansion_coeff=parts[4], gravity=parts[5])


def cmd_scaling(args) -> int:
    lines = []
    if args.setup1 and args.setup2:
        s1, s2 = _parse_setup(args.setup1), _parse_setup(args.setup2)
        ra1, pr1 = scaling.nondimensionalize(s1)
        ra2, pr2 = scaling.nondimensionalize(s2)
        cmp_ = scaling.curvature_scaling(s1, s2)
        lines += [f"ra_1 = {ra1!r}", f"pr_1 = {pr1!r}", f"ra_2 = {ra2!r}", f"pr_2 = {pr2!r}",
                  f"ra_ratio = {cmp_.ra_ratio!r}",
                  f"kappa_ratio_leading = {cmp_.kappa_ratio_leading!r}",
                  f"kappa_ratio_exact = {cmp_.kappa_ratio_exact!r}"]
    elif args.setup1:
        ra, pr = scaling.nondimensionalize(_parse_setup(args.setup1))
        lines += [f"ra = {ra!r}", f"pr = {pr!r}"]
    if args.rho is not None:
        if args.temp_ratio is None:
            raise ConfigError("--rho requires --temp-ratio")
        hr = scaling.ratio_for_target_exponent(args.rho, args.temp_ratio)
        lines += [f"rho = {args.rho!r}", f"temp_ratio = {args.temp_ratio!r}",
                  f"height_ratio = {hr!r}",
                  f"ra_ratio = {args.temp_ratio * hr**3!r}",
                  f"kappa_ratio_leading = {hr**2!r}"]
    if not lines:
        raise ConfigError("scaling: provide --setup1 [--setup2] and/or --rho --temp-ratio")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# geometry-report
# ---------------------------------------------------------------------------

def cmd_geometry_report(args) -> int:
    if args.samples < 4:
        raise ValueError(f"--samples must be at least 4, got {args.samples}")
    config, _ = _load_config(args.config)
    norms, conditions = conditions_for_config(config, args.samples)
    for key, value in asdict(norms).items():
        print(f"{key} = {value}")
    for name, rep in conditions.items():
        for key, value in rep.to_dict().items():
            if key == "name":
                continue
            print(f"{name}:{key} = {value}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbns",
        description="Rayleigh-Benard convection between rough Navier-slip walls",
    )
    parser.add_argument("--version", action="version", version=f"rbns {rbns.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("--config", required=True, help="path to the run config")
    p.add_argument("--output", help="output directory (default from config)")
    p.add_argument("--resume", help="checkpoint file to restart from")
    p.add_argument("--sweep", help="KEY=v1,v2,... launch one run per value")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[*verify.SUITES, "all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="evaluate the bound formulas")
    p.add_argument("--run", nargs="*", help="completed run directories")
    p.add_argument("--ra", type=float, default=1e6)
    p.add_argument("--pr", type=float, default=1e6)
    p.add_argument("--alpha-min", type=float, default=1.0)
    p.add_argument("--kappa-inf", type=float, default=0.0)
    p.add_argument("--alpha-plus-kappa-inf", type=float, default=None)
    p.add_argument("--alpha-plus-kappa-w1inf", type=float, default=None)
    p.add_argument("--alpha-dot-inf", type=float, default=0.0)
    p.add_argument("--kappa-dot-inf", type=float, default=0.0)
    p.add_argument("--hprime-inf", type=float, default=0.0)
    p.add_argument("--height-range", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--user-c", type=float, default=1.0)
    p.add_argument("--user-cbar", type=float, default=1.0)
    p.add_argument("--u0-norm", type=float, default=1.0)
    p.add_argument("--measured-nu", type=float, default=float("nan"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scaling", help="nondimensionalization and scaling ratios")
    p.add_argument("--setup1", help="H,dT,viscosity,diffusivity,expansion,gravity")
    p.add_argument("--setup2", help="second setup sharing the wall shape")
    p.add_argument("--rho", type=float, help="target exponent of ||kappa|| ~ Ra^rho")
    p.add_argument("--temp-ratio", type=float, help="temperature-gap ratio dT2/dT1")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("geometry-report", help="condition checks for a geometry")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=CONDITION_SAMPLES)
    p.set_defaults(func=cmd_geometry_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error in config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad domain inputs (pole rejection, ranges, ...)
        print(f"error in input: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver and elliptic failures carry their stage
        stage = type(exc).__name__
        print(f"error in {stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
