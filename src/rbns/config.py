"""Run configuration: sectioned key-value files, validation, round-tripping.

The format is INI-style with the sections geometry / boundary / physical /
grid / time / initial / bounds / output.  Fourier mode lists are written as
comma-separated  k:cos:sin  triples.  Every key has a default; a minimal
config only needs [physical] and [grid].  The section dataclasses are the
schema: each field is a key, and its type hint picks the converter
(``_KINDS``), so parsing, validation, serialization and ``simulate
--sweep`` read one definition.  Unknown keys and invariant violations,
non-finite numbers among them, are rejected with messages naming the
section and key.

``parse_config(serialize_config(cfg))`` reproduces cfg exactly: floats are
emitted with repr (round-trip exact) and "auto" markers survive.
"""

from __future__ import annotations

import configparser
import io
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from rbns.bounds import CASES
from rbns.geometry import DENSE_SAMPLES, FourierSeries, Side, curvature


class ConfigError(ValueError):
    pass


_SMALL_PRIMES = (2, 3, 5, 7)

# README "Numerical notes": the lagged wall coupling is stiff above this (alpha + kappa) * dt
_STIFF_ALPHA_DT = 0.02


def _fft_friendly(n: int) -> bool:
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
    return n == 1


def _parse_modes(text: str, where: str) -> tuple[tuple[int, float, float], ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for item in text.split(","):
        parts = item.strip().split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: mode entry {item.strip()!r} is not k:cos:sin")
        try:
            k = int(parts[0])
            c, s = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if k < 1:
            raise ConfigError(f"{where}: wavenumber must be a positive integer, got {k}")
        out.append((k, c, s))
    return tuple(out)


@dataclass
class GeometryConfig:
    gamma: float = 1.0
    mean_offset: float = 0.0
    modes: tuple[tuple[int, float, float], ...] = ()

    def profile(self) -> FourierSeries:
        return FourierSeries(gamma=self.gamma, offset=self.mean_offset, modes=self.modes)


@dataclass
class BoundaryConfig:
    alpha_bottom_mean: float = 1.0
    alpha_bottom_modes: tuple[tuple[int, float, float], ...] = ()
    alpha_top_mean: float = 1.0
    alpha_top_modes: tuple[tuple[int, float, float], ...] = ()

    def series(self, gamma: float) -> tuple[FourierSeries, FourierSeries]:
        return (
            FourierSeries(gamma=gamma, offset=self.alpha_bottom_mean, modes=self.alpha_bottom_modes),
            FourierSeries(gamma=gamma, offset=self.alpha_top_mean, modes=self.alpha_top_modes),
        )


@dataclass
class PhysicalConfig:
    ra: float = 1.0e5
    pr: float = 10.0


@dataclass
class GridConfig:
    n1: int = 64
    n2: int = 65


@dataclass
class TimeConfig:
    dt: float | None = None          # None = automatic (CFL + buoyancy caps)
    dt_max: float | None = None
    t_end: float = 1.0
    burn_in: float | None = None     # None = 20% of t_end
    sample_interval: float | None = None  # None = t_end / 200
    checkpoint_interval: float | None = None  # None = no periodic checkpoints
    coupling_sweeps: int = 0
    coupling_tol: float = 1e-8
    cfl_safety: float = 0.4
    buoyancy_safety: float = 0.35

    def effective_burn_in(self) -> float:
        return 0.2 * self.t_end if self.burn_in is None else self.burn_in

    def effective_sample_interval(self) -> float:
        if self.sample_interval is not None:
            return self.sample_interval
        return self.t_end / 200.0 if self.t_end > 0 else 1.0


@dataclass
class InitialConfig:
    temp_perturbation: float = 0.01
    seed: int = 0
    u0_amplitude: float = 0.0
    u0_mode: int = 1
    u0_phase: float = 0.0


@dataclass
class BoundsConfig:
    cases: tuple[str, ...] = CASES
    user_c: float = 1.0
    user_cbar: float = 1.0
    u0_norm: float = 1.0
    delta_override: float | None = None
    background_delta: float | None = None  # enables eta/theta diagnostics when set


@dataclass
class OutputConfig:
    directory: str = "runs/latest"
    precision: int = 17
    pressure_every: int = 1   # recover pressure every N-th sample; 0 never


@dataclass
class RunConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    boundary: BoundaryConfig = field(default_factory=BoundaryConfig)
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    bounds: BoundsConfig = field(default_factory=BoundsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_KINDS = {
    float: "float",
    int: "int",
    str: "str",
    float | None: "float_or_auto",             # None is written and read as "auto"
    tuple[tuple[int, float, float], ...]: "modes",
    tuple[str, ...]: "cases",
}


def _section_schema(section: type) -> dict[str, str]:
    hints = get_type_hints(section)
    return {f.name: _KINDS[hints[f.name]] for f in fields(section)}


# section -> key -> converter tag, in the order the dataclasses declare them
_SCHEMA: dict[str, dict[str, str]] = {
    name: _section_schema(section) for name, section in get_type_hints(RunConfig).items()
}


def _convert(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw
        if kind == "float_or_auto":
            return None if raw.lower() in ("auto", "none", "") else float(raw)
        if kind == "modes":
            return _parse_modes(raw, where)
        if kind == "cases":
            cases = tuple(c.strip() for c in raw.split(",") if c.strip())
            for c in cases:
                if c not in CASES:
                    raise ConfigError(f"{where}: unknown bound case {c!r} "
                                      f"(known: {', '.join(CASES)})")
            return cases
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None
    raise ConfigError(f"{where}: internal schema error {kind!r}")


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"[{section}]: unknown section "
                              f"(known: {', '.join(_SCHEMA)})")
        schema = _SCHEMA[section]
        target = getattr(cfg, section)
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"[{section}] {key}: unknown key "
                                  f"(known: {', '.join(schema)})")
            setattr(target, key, _convert(schema[key], raw, f"[{section}] {key}"))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for section, schema in _SCHEMA.items():
        target = getattr(cfg, section)
        for key, kind in schema.items():
            value = getattr(target, key)
            if kind == "modes":
                numbers = [x for _, c, s in value for x in (c, s)]
            elif kind in ("float", "float_or_auto") and value is not None:
                numbers = [value]
            else:
                continue
            if not all(math.isfinite(x) for x in numbers):
                raise ConfigError(f"[{section}] {key}: must be finite, got {value}")
    g = cfg.grid
    if g.n1 < 4 or not _fft_friendly(g.n1):
        raise ConfigError(f"[grid] n1: {g.n1} must be >= 4 and a product of primes "
                          f"{_SMALL_PRIMES} (FFT-friendly)")
    if g.n2 < 8:
        raise ConfigError(f"[grid] n2: {g.n2} violates the n2 >= 8 rule")
    if cfg.geometry.gamma <= 0:
        raise ConfigError(f"[geometry] gamma: must be positive, got {cfg.geometry.gamma}")
    if cfg.physical.ra < 0:
        raise ConfigError(f"[physical] ra: must be nonnegative, got {cfg.physical.ra}")
    if cfg.physical.pr <= 0:
        raise ConfigError(f"[physical] pr: must be positive, got {cfg.physical.pr}")
    t = cfg.time
    for key in ("dt", "dt_max", "sample_interval", "checkpoint_interval"):
        value = getattr(t, key)
        if value is not None and not value > 0:
            raise ConfigError(f"[time] {key}: must be positive (or auto), got {value}")
    for key in ("cfl_safety", "buoyancy_safety", "coupling_tol"):
        value = getattr(t, key)
        if not value > 0:
            raise ConfigError(f"[time] {key}: must be positive, got {value}")
    if t.t_end < 0:
        raise ConfigError(f"[time] t_end: must be nonnegative, got {t.t_end}")
    if t.coupling_sweeps < 0:
        raise ConfigError(f"[time] coupling_sweeps: must be >= 0, got {t.coupling_sweeps}")
    ini = cfg.initial
    if ini.temp_perturbation < 0:
        raise ConfigError(f"[initial] temp_perturbation: negative amplitude {ini.temp_perturbation}")
    if ini.u0_amplitude < 0:
        raise ConfigError(f"[initial] u0_amplitude: negative amplitude {ini.u0_amplitude}")
    if ini.seed < 0:
        raise ConfigError(f"[initial] seed: must be >= 0, got {ini.seed}")
    b = cfg.bounds
    if b.delta_override is not None and not 0.0 < b.delta_override <= 0.5:
        raise ConfigError(f"[bounds] delta_override: must lie in (0, 1/2], got {b.delta_override}")
    if b.background_delta is not None and not 0.0 < b.background_delta <= 0.5:
        raise ConfigError(f"[bounds] background_delta: must lie in (0, 1/2], got {b.background_delta}")
    if cfg.output.precision < 1:
        raise ConfigError(f"[output] precision: must be >= 1, got {cfg.output.precision}")
    if cfg.output.pressure_every < 0:
        raise ConfigError(f"[output] pressure_every: must be >= 0, got {cfg.output.pressure_every}")
    # confirm the wall shapes construct (raises on bad series)
    profile = cfg.geometry.profile()
    # the friction coefficients, sampled as by extrema_range
    y = np.linspace(0.0, profile.gamma, DENSE_SAMPLES, endpoint=False)
    alphas = [a.evaluate(y) for a in cfg.boundary.series(cfg.geometry.gamma)]
    for side, a in zip(Side, alphas):
        low = float(np.min(a))
        if low < 0.0:
            raise ConfigError(f"[boundary] alpha_{side.value}_mean/alpha_{side.value}_modes: the "
                              f"friction coefficient must be nonnegative, sampled min {low:.6g}")
    if t.dt is not None and t.coupling_sweeps == 0:
        # alpha + kappa, the Navier-slip coupling's coefficient
        stiffness = t.dt * max(float(np.max(a + curvature(profile, y, side)))
                               for a, side in zip(alphas, Side))
        if stiffness > _STIFF_ALPHA_DT:
            warnings.warn(
                f"[time] dt: max(alpha + kappa) * dt = {stiffness:.3g} exceeds the stiffness "
                f"guideline {_STIFF_ALPHA_DT} with coupling_sweeps = 0; reduce dt or "
                f"enable coupling_sweeps",
                stacklevel=2,
            )


def _emit(kind: str, value) -> str:
    # numbers pass through float(): the repr of np.float64(0.5) would not parse back
    if value is None:
        return "auto"
    if kind == "modes":
        return ", ".join(f"{k}:{float(c)!r}:{float(s)!r}" for k, c, s in value)
    if kind == "cases":
        return ", ".join(value)
    if kind in ("float", "float_or_auto"):
        return repr(float(value))
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    for section, schema in _SCHEMA.items():
        target = getattr(cfg, section)
        out.write(f"[{section}]\n")
        for key, kind in schema.items():
            out.write(f"{key} = {_emit(kind, getattr(target, key))}\n")
        out.write("\n")
    return out.getvalue()
