import gc
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rbns import reporting
from rbns.cli import main
from rbns.geometry import CONDITIONS, BoundaryNorms

TINY = """
[physical]
ra = 2000
pr = 10.0

[grid]
n1 = 16
n2 = 17

[time]
t_end = 0.05
sample_interval = 0.01

[initial]
temp_perturbation = 0.01

[bounds]
background_delta = 0.25
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_simulate_writes_outputs(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", tiny_config, "--output", out]) == 0
    for name in ("config.txt", "effective_config.txt", "provenance.txt",
                 "diagnostics.csv", "run_summary.txt", "bounds.csv",
                 "bound_report.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    assert os.path.exists(os.path.join(out, "checkpoints", "final.ckpt"))
    text = Path(out, "provenance.txt").read_text()
    assert "tool_version" in text and "grid = 16 x 17" in text
    assert "metric_fourier_terms = 0\n" in text
    assert Path(out, "config.txt").read_text() == TINY


def test_provenance_counts_metric_fourier_terms(tmp_path):
    # h = 0.1 sin(2 pi y1): h' has two grid Fourier terms and h'^2 three
    path = tmp_path / "rough.cfg"
    path.write_text("[geometry]\nmodes = 1:0.0:0.1\n"
                    + TINY.replace("t_end = 0.05", "t_end = 0.0"))
    out = str(tmp_path / "rough_run")
    assert main(["simulate", "--config", str(path), "--output", out]) == 0
    text = Path(out, "provenance.txt").read_text()
    assert "flat = 0\n" in text and "metric_fourier_terms = 5\n" in text


def test_simulate_t_end_zero_initial_diagnostics_only(tiny_config, tmp_path):
    cfg = TINY.replace("t_end = 0.05", "t_end = 0.0")
    path = tmp_path / "zero.cfg"
    path.write_text(cfg)
    out = str(tmp_path / "zero_run")
    assert main(["simulate", "--config", str(path), "--output", out]) == 0
    lines = Path(out, "diagnostics.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header + the t = 0 sample


def test_simulate_resume_matches(tiny_config, tmp_path):
    cfg = TINY + "\ncheckpoint_interval = 0.02\n"
    cfg = cfg.replace("[initial]", "[time]\ncheckpoint_interval = 0.02\n\n[initial]")
    path = tmp_path / "ck.cfg"
    path.write_text(TINY.replace("[initial]",
                                 "checkpoint_interval = 0.02\n\n[initial]"))
    out_a = str(tmp_path / "a")
    assert main(["simulate", "--config", str(path), "--output", out_a]) == 0
    mid = os.path.join(out_a, "checkpoints", "checkpoint_000001.ckpt")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", str(path), "--output", out_b,
                 "--resume", mid]) == 0
    fa = Path(out_a, "checkpoints", "final.ckpt").read_bytes()
    fb = Path(out_b, "checkpoints", "final.ckpt").read_bytes()
    assert fa == fb


def test_sweep_runs_and_slope(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = main(["simulate", "--config", tiny_config, "--output", out,
               "--sweep", "physical.ra=1500,3000"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "sweep_summary.txt"))
    dirs = [d for d in os.listdir(out) if d.startswith("sweep_")]
    assert len(dirs) == 3  # two run dirs + summary file

def test_bounds_pure_formula(capsys):
    assert main(["bounds", "--ra", "1e6", "--pr", "1e6", "--kappa-inf", "0",
                 "--alpha-min", "1", "--user-c", "1"]) == 0
    out = capsys.readouterr().out
    assert "theorem1: bound = 1000" in out


def test_bounds_pure_formula_rejects_negative_alpha_min(capsys):
    assert main(["bounds", "--alpha-min", "-0.5"]) == 2
    assert "--alpha-min must be nonnegative, got -0.5" in capsys.readouterr().err


def test_bounds_run_dir(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "run")
    main(["simulate", "--config", tiny_config, "--output", out])
    capsys.readouterr()
    assert main(["bounds", "--run", out]) == 0
    assert "bound report" in capsys.readouterr().out


def test_report_from_run_dir_closes_its_files(tiny_config, tmp_path):
    out = str(tmp_path / "run")
    main(["simulate", "--config", tiny_config, "--output", out])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        reporting.report_from_run_dir(out)
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_scaling_cli(capsys):
    assert main(["scaling", "--rho", "0", "--temp-ratio", "5"]) == 0
    out = capsys.readouterr().out
    assert "height_ratio = 1.0" in out
    assert main(["scaling", "--setup1", "1,1,0.01,0.001,1,1"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert float(values["ra"]) == pytest.approx(1e5, rel=1e-12)
    assert float(values["pr"]) == pytest.approx(10.0, rel=1e-12)
    assert main(["scaling", "--rho", "0.6666666666666666", "--temp-ratio", "2"]) == 2


def test_geometry_report(tmp_path, capsys):
    path = tmp_path / "geo.cfg"
    path.write_text(TINY + "\n[geometry]\nmodes = 1:0.0:0.1\n")
    assert main(["geometry-report", "--config", str(path), "--samples", "256"]) == 0
    out = capsys.readouterr().out
    assert "kappa_inf" in out and "ec:passed" in out


def test_geometry_report_counts_each_condition_over_both_walls(tmp_path, capsys):
    # alpha = 0.05 against |kappa| up to 0.4 pi^2: every condition fails on
    # part of both walls
    path = tmp_path / "geo.cfg"
    path.write_text(TINY + "\n[geometry]\nmodes = 1:0.0:0.1\n\n"
                    "[boundary]\nalpha_bottom_mean = 0.05\nalpha_top_mean = 0.05\n")
    assert main(["geometry-report", "--config", str(path), "--samples", "256"]) == 0
    pairs = [line.split(" = ") for line in capsys.readouterr().out.strip().split("\n")]
    keys = [key for key, _ in pairs]
    values = dict(pairs)
    assert len(keys) == len(set(keys))
    assert [key for key in keys if ":" not in key] == [f.name for f in fields(BoundaryNorms)]
    assert values["n_samples"] == "256"
    report_fields = ("passed", "margin", "worst_y1", "worst_side", "n_fail", "n_samples")
    assert [key for key in keys if ":" in key] == [f"{name}:{field}" for name in CONDITIONS
                                                  for field in report_fields]
    for name in CONDITIONS:
        assert values[f"{name}:n_samples"] == "512"
        assert 0 < int(values[f"{name}:n_fail"]) <= 512


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace("n2 = 17", "n2 = 4"))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "n2" in capsys.readouterr().err


def test_nan_abort_exit_code(tmp_path, capsys):
    # disable the CFL guard and force unstable steps so the run blows up
    cfg = TINY.replace("[initial]",
                       "dt = 0.02\ncfl_safety = 1e30\nbuoyancy_safety = 1e30\n\n[initial]")
    cfg = cfg.replace("ra = 2000", "ra = 1e8")
    cfg = cfg.replace("t_end = 0.05", "t_end = 5.0")
    path = tmp_path / "blow.cfg"
    path.write_text(cfg)
    out = str(tmp_path / "blow_run")
    rc = main(["simulate", "--config", str(path), "--output", out])
    assert rc == 1
    assert "error in solver" in capsys.readouterr().err
    # the diagnostics sampled before the abort are still flushed
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))


@pytest.mark.parametrize("after_setup, stage", [
    # every solver capped: the t = 0 sample's pressure solve fails first
    (False, "pressure solve failed at t = 0"),
    # only solvers built after set-up capped: the first step's solve fails
    (True, "step solve failed at t = 0"),
])
def test_solver_failure_aborts_with_outputs(tmp_path, capsys, monkeypatch, after_setup, stage):
    import rbns.elliptic
    import rbns.runner
    from rbns.runner import read_summary

    def cap_iterations():
        monkeypatch.setattr(rbns.elliptic, "default_maxiter", lambda grid: 1)

    if after_setup:
        build = rbns.runner.build_stepper

        def build_then_cap(config):
            stepper = build(config)
            cap_iterations()
            return stepper

        monkeypatch.setattr(rbns.runner, "build_stepper", build_then_cap)
    else:
        cap_iterations()
    cfg = TINY.replace("[physical]", "[geometry]\nmodes = 1:0.0:0.1\n\n[physical]")
    path = tmp_path / "rough.cfg"
    path.write_text(cfg)
    out = str(tmp_path / "rough_run")
    assert main(["simulate", "--config", str(path), "--output", out]) == 1
    err = capsys.readouterr().err
    assert stage in err and "in 1 iterations (residual" in err
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert read_summary(os.path.join(out, "run_summary.txt"))["aborted"] == 1


def test_abort_before_first_sample_writes_summary(tmp_path, capsys):
    # a resume whose first step is rejected takes no sample; the window
    # estimators are then NaN and the run ends as a normal abort
    from rbns.runner import read_summary

    cfg = """
[physical]
ra = 1e5
pr = 10.0

[grid]
n1 = 16
n2 = 17

[time]
dt = 2e-4
t_end = 0.002
checkpoint_interval = 0.001

[initial]
u0_amplitude = 10
"""
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text(cfg)
    second.write_text(cfg.replace("dt = 2e-4", "dt = 0.05"))
    run = str(tmp_path / "run")
    assert main(["simulate", "--config", str(first), "--output", run]) == 0
    out = str(tmp_path / "resumed")
    ckpt = os.path.join(run, "checkpoints", "checkpoint_000001.ckpt")
    with pytest.warns(UserWarning, match="stiffness"):
        rc = main(["simulate", "--config", str(second), "--output", out, "--resume", ckpt])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error in solver: step rejected at t = 0.001" in err
    # no checkpoint of its own yet: the one it resumed from is retained
    assert f"last checkpoint retained ({ckpt})" in err
    for name in ("run_summary.txt", "bound_report.txt", "bounds.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    summary = read_summary(os.path.join(out, "run_summary.txt"))
    assert summary["aborted"] == 1 and summary["steps"] == 0
    assert np.isnan(summary["convective_transport_corrected"])
    assert np.isnan(summary["energy_inequality_slack_rel"])
