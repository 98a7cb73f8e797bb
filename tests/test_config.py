import dataclasses
import re
import warnings

import numpy as np
import pytest

from rbns.cli import main
from rbns.config import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    _convert,
    _emit,
    parse_config,
    serialize_config,
)
from rbns.runner import run_simulation

MINIMAL = """
[physical]
ra = 1e5
pr = 10.0

[grid]
n1 = 64
n2 = 65
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.physical.ra == 1e5
    assert cfg.geometry.modes == ()          # flat walls
    assert cfg.boundary.alpha_bottom_mean == 1.0
    assert cfg.time.dt is None               # automatic step
    assert cfg.time.effective_burn_in() == pytest.approx(0.2 * cfg.time.t_end)


def test_mode_passthrough():
    cfg = parse_config(MINIMAL + "\n[geometry]\nmodes = 1:0.0:0.1\n")
    assert cfg.geometry.modes == ((1, 0.0, 0.1),)
    prof = cfg.geometry.profile()
    assert prof.evaluate(0.25) == pytest.approx(0.1)


def test_n2_rule_named():
    with pytest.raises(ConfigError, match="n2 >= 8"):
        parse_config(MINIMAL.replace("n2 = 65", "n2 = 4"))


def test_n1_fft_friendly():
    with pytest.raises(ConfigError, match="FFT-friendly"):
        parse_config(MINIMAL.replace("n1 = 64", "n1 = 13"))
    parse_config(MINIMAL.replace("n1 = 64", "n1 = 60"))  # 2^2 * 3 * 5 passes


def test_unknown_key_and_section_located():
    with pytest.raises(ConfigError, match=r"\[grid\] n3"):
        parse_config(MINIMAL + "\n[grid]\nn3 = 2\n".replace("[grid]\n", ""))
    with pytest.raises(ConfigError, match=r"\[nonsense\]"):
        parse_config(MINIMAL + "\n[nonsense]\nx = 1\n")


def test_type_error_located():
    with pytest.raises(ConfigError, match=r"\[physical\] ra"):
        parse_config(MINIMAL.replace("ra = 1e5", "ra = fast"))


def test_negative_amplitude_rejected():
    with pytest.raises(ConfigError, match="negative amplitude"):
        parse_config(MINIMAL + "\n[initial]\ntemp_perturbation = -0.1\n")


@pytest.mark.parametrize("amplitude", ["0.01", "0.0"])
def test_negative_seed_named(amplitude):
    # it used to fail inside the generator with a message naming no key,
    # and pass unnoticed when no perturbation is drawn
    with pytest.raises(ConfigError, match=r"^\[initial\] seed: must be >= 0, got -3$"):
        parse_config(MINIMAL + f"\n[initial]\nseed = -3\ntemp_perturbation = {amplitude}\n")


def test_delta_override_cap():
    with pytest.raises(ConfigError, match="delta_override"):
        parse_config(MINIMAL + "\n[bounds]\ndelta_override = 0.7\n")


def test_dt_validation():
    with pytest.raises(ConfigError, match=r"\[time\] dt"):
        parse_config(MINIMAL + "\n[time]\ndt = -0.1\n")
    cfg = parse_config(MINIMAL + "\n[time]\ndt = auto\n")
    assert cfg.time.dt is None


@pytest.mark.parametrize("section, key, value", [
    ("time", "sample_interval", "0"),
    ("time", "sample_interval", "-0.01"),
    ("time", "checkpoint_interval", "0"),
    ("time", "dt_max", "0"),
    ("time", "cfl_safety", "0"),
    ("time", "buoyancy_safety", "0"),
    ("time", "coupling_tol", "0"),
    ("time", "coupling_tol", "-1e-8"),
    ("output", "precision", "-1"),
    ("output", "precision", "0"),
    ("output", "pressure_every", "-1"),
])
def test_nonpositive_time_and_output_keys_named(section, key, value):
    # each would otherwise sample or checkpoint every step (and fail on
    # resume), stop with an error naming no key, or lose the CSV rows
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n")


_NUMBER_KEYS = [(section, key, kind) for section, schema in _SCHEMA.items()
                for key, kind in schema.items() if kind in ("float", "float_or_auto", "modes")]


@pytest.mark.parametrize("number", ["nan", "inf"])
@pytest.mark.parametrize("section, key, kind", _NUMBER_KEYS,
                         ids=[f"{section}.{key}" for section, key, _ in _NUMBER_KEYS])
def test_non_finite_values_named(section, key, kind, number):
    # t_end = nan ran no step and exited 0, temp_perturbation = nan ran
    # without a perturbation, burn_in = nan averaged every sample
    value = f"1:{number}:0.0" if kind == "modes" else number
    if f"[{section}]" in MINIMAL:
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", MINIMAL, flags=re.MULTILINE)
    else:
        text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: must be finite"):
        parse_config(text)


def test_round_trip_idempotent():
    cfg = parse_config(MINIMAL + "\n[geometry]\nmodes = 1:0.0:0.1, 2:0.25:-0.125\n")
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2 == cfg
    assert serialize_config(cfg2) == text


def test_round_trip_default_config():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_schema_covers_every_dataclass_field():
    assert list(_SCHEMA) == [f.name for f in dataclasses.fields(RunConfig)]
    defaults = RunConfig()
    for section, schema in _SCHEMA.items():
        target = getattr(defaults, section)
        assert list(schema) == [f.name for f in dataclasses.fields(target)]
        for key, kind in schema.items():
            # the kind converts its own serialized default back to the default
            value = getattr(target, key)
            assert _convert(kind, _emit(kind, value), f"[{section}] {key}") == value


def _config_without_defaults() -> RunConfig:
    sections = {
        "geometry": dict(gamma=2.0, mean_offset=0.05, modes=((1, 0.0, 0.05), (3, 0.01, -0.02))),
        "boundary": dict(alpha_bottom_mean=2.0, alpha_bottom_modes=((1, 0.1, 0.0),),
                         alpha_top_mean=3.0, alpha_top_modes=((2, 0.0, 0.2),)),
        "physical": dict(ra=2.5e4, pr=0.7),
        "grid": dict(n1=48, n2=33),
        "time": dict(dt=1e-4, dt_max=1e-3, t_end=0.3, burn_in=0.1, sample_interval=0.01,
                     checkpoint_interval=0.05, coupling_sweeps=2, coupling_tol=1e-9,
                     cfl_safety=0.3, buoyancy_safety=0.25),
        "initial": dict(temp_perturbation=0.02, seed=7, u0_amplitude=1.5, u0_mode=2,
                        u0_phase=0.25),
        "bounds": dict(cases=("three_sevenths", "interp_general"), user_c=2.0, user_cbar=3.0,
                       u0_norm=0.5, delta_override=0.125, background_delta=0.25),
        "output": dict(directory="runs/other", precision=12, pressure_every=3),
    }
    defaults = RunConfig()
    return dataclasses.replace(defaults, **{
        name: dataclasses.replace(getattr(defaults, name), **keys) for name, keys in sections.items()})


def test_round_trip_every_key_set():
    cfg = _config_without_defaults()
    defaults = RunConfig()
    for section, schema in _SCHEMA.items():
        for key in schema:
            assert getattr(getattr(cfg, section), key) != getattr(getattr(defaults, section), key)
    assert parse_config(serialize_config(cfg)) == cfg


_DEFAULT_TEXT = "".join(f"{line}\n" for line in (
    "[geometry]", "gamma = 1.0", "mean_offset = 0.0", "modes = ", "",
    "[boundary]", "alpha_bottom_mean = 1.0", "alpha_bottom_modes = ", "alpha_top_mean = 1.0",
    "alpha_top_modes = ", "",
    "[physical]", "ra = 100000.0", "pr = 10.0", "",
    "[grid]", "n1 = 64", "n2 = 65", "",
    "[time]", "dt = auto", "dt_max = auto", "t_end = 1.0", "burn_in = auto",
    "sample_interval = auto", "checkpoint_interval = auto", "coupling_sweeps = 0",
    "coupling_tol = 1e-08", "cfl_safety = 0.4", "buoyancy_safety = 0.35", "",
    "[initial]", "temp_perturbation = 0.01", "seed = 0", "u0_amplitude = 0.0", "u0_mode = 1",
    "u0_phase = 0.0", "",
    "[bounds]", "cases = interp_kappa_leq_alpha, interp_general, three_sevenths",
    "user_c = 1.0", "user_cbar = 1.0", "u0_norm = 1.0", "delta_override = auto",
    "background_delta = auto", "",
    "[output]", "directory = runs/latest", "precision = 17", "pressure_every = 1", "",
))


def test_numpy_scalars_serialize_as_python_numbers():
    # a config built in code from numpy values must write a file that parses back
    cfg = _config_without_defaults()
    text = serialize_config(cfg)
    cfg.physical.ra, cfg.time.dt, cfg.grid.n1 = np.float64(2.5e4), np.float64(1e-4), np.int64(48)
    cfg.geometry.modes = ((np.int64(1), np.float64(0.0), np.float64(0.05)), (3, 0.01, -0.02))
    assert serialize_config(cfg) == text
    assert parse_config(text) == cfg


def test_serialize_default_config_golden():
    # guards the key order and the value format of effective_config.txt
    assert serialize_config(RunConfig()) == _DEFAULT_TEXT


def test_bad_case_named():
    with pytest.raises(ConfigError, match="unknown bound case"):
        parse_config(MINIMAL + "\n[bounds]\ncases = three_sevenths, wrong\n")


STIFF = MINIMAL + """
[boundary]
alpha_bottom_mean = 1.0
alpha_top_mean = 20.0

[time]
dt = 2e-3
"""


def test_stiff_wall_coupling_warns():
    # max alpha over both walls (the top one here) times dt = 0.04 > 0.02
    with pytest.warns(UserWarning, match=r"\[time\] dt: max\(alpha \+ kappa\) \* dt = 0\.04"):
        parse_config(STIFF)


def test_curved_wall_stiffness_counts_kappa():
    # h = 0.1 sin(2 pi y1): max kappa = 0.4 pi^2 = 3.95 on both walls, so with
    # alpha = 1 and dt = 5e-3, alpha dt = 0.005 but (alpha + kappa) dt = 0.0247
    text = (STIFF.replace("20.0", "1.0").replace("dt = 2e-3", "dt = 5e-3")
            .replace("[boundary]", "[geometry]\nmodes = 1:0.0:0.1\n\n[boundary]"))
    with pytest.warns(UserWarning, match=r"max\(alpha \+ kappa\) \* dt = 0\.0247"):
        parse_config(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(text.replace("dt = 5e-3", "dt = 3e-3"))    # (alpha + kappa) dt = 0.0148


@pytest.mark.parametrize("text", [
    STIFF.replace("dt = 2e-3", "dt = 1e-4").replace("20.0", "1.0"),  # sampled_restart
    STIFF.replace("dt = 2e-3", "dt = 2e-3\ncoupling_sweeps = 3"),
    STIFF.replace("dt = 2e-3", "dt = auto"),
])
def test_wall_coupling_without_stiffness_is_quiet(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(text)


def _negative_friction(side, dt):
    # alpha = 0.05 + 0.17 cos(2 pi y1) on one wall: sampled min -0.12 at y1 = 1/2
    return MINIMAL + f"""
[boundary]
alpha_{side}_mean = 0.05
alpha_{side}_modes = 1:0.17:0.0

[time]
dt = {dt}
t_end = 0.0
"""


@pytest.mark.parametrize("dt", ["2e-3", "auto"])
@pytest.mark.parametrize("side", ["bottom", "top"])
def test_negative_friction_named(side, dt):
    with pytest.raises(ConfigError, match=rf"^\[boundary\] alpha_{side}_mean/alpha_{side}_modes: "
                                          r".*nonnegative, sampled min -0\.12$"):
        parse_config(_negative_friction(side, dt))


def test_cli_simulate_rejects_negative_friction(tmp_path, capsys):
    path = tmp_path / "negative.cfg"
    path.write_text(_negative_friction("top", "auto").replace("n1 = 64", "n1 = 16")
                    .replace("n2 = 65", "n2 = 17"))
    assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
    assert "[boundary] alpha_top_mean/alpha_top_modes" in capsys.readouterr().err


def _code_config(n1=16, dt=None):
    cfg = RunConfig()
    cfg.physical.ra, cfg.physical.pr = 1e3, 10.0
    cfg.grid.n1, cfg.grid.n2 = n1, 17
    cfg.time.dt, cfg.time.t_end = dt, 0.0
    return cfg


def test_run_simulation_validates_code_built_config():
    # 22 = 2 * 11 builds a MappedGrid but is not FFT-friendly
    with pytest.raises(ConfigError, match="FFT-friendly"):
        run_simulation(_code_config(n1=22))


def test_run_simulation_warns_for_stiff_code_built_config():
    cfg = _code_config(dt=2e-3)
    cfg.boundary.alpha_top_mean = 20.0
    with pytest.warns(UserWarning, match=r"\[time\] dt: max\(alpha \+ kappa\) \* dt = 0\.04"):
        run_simulation(cfg)


def test_cli_simulate_warns_once_for_stiff_config(tmp_path):
    path = tmp_path / "stiff.cfg"
    path.write_text(STIFF.replace("n1 = 64", "n1 = 16").replace("n2 = 65", "n2 = 17")
                    + "t_end = 0.0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "run")]) == 0
    stiff = [w for w in caught if "max(alpha + kappa) * dt" in str(w.message)]
    assert len(stiff) == 1


def test_cli_simulate_warns_once_for_under_resolved_background(tmp_path):
    # delta = 0.1 < 4 dx2 = 0.25: the run's background field warns, the report builds none
    path = tmp_path / "coarse.cfg"
    path.write_text(MINIMAL.replace("n1 = 64", "n1 = 16").replace("n2 = 65", "n2 = 17")
                    + "\n[time]\nt_end = 0.0\n\n[bounds]\nbackground_delta = 0.1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "run")]) == 0
    coarse = [w for w in caught if "fewer than 4 cells" in str(w.message)]
    assert len(coarse) == 1
