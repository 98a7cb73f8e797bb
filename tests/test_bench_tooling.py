"""The benchmark finds every rbns entry point it uses and accepts a run.

bench/spans.py looks functions and methods up by name and reads some of
their arguments.  A rename or a deletion in rbns (say of d2_x1 or
HelmholtzDirichlet.__init__) would make traced benchmark runs raise or
silently drop a span, and a changed signature (the step's dt) would make
them raise; this catches both.  bench/op.py's check_call gates every
benchmark operation on output names (CSV_HEADER, the temp_min/temp_max
columns, energy_residual_mean in the summary); renaming one fails it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rbns.config import parse_config
from rbns.diagnostics import AVERAGED, CSV_COLUMNS, ENSTROPHY_COLUMNS, ROW
from rbns.grid import MappedGrid
from rbns.runner import initial_temperature, read_summary, run_simulation

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = BENCH / "workloads.py"
OP = BENCH / "op.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_calls(tmp_path_factory):
    """The self-test workload's simulate calls, run as bench/op.py runs them.

    Returns (result, output directory, resumed) per call; the second call
    resumes from the first one's last periodic checkpoint.
    """
    workloads, op = _load("bench_workloads", WORKLOADS), _load("bench_op", OP)
    root = tmp_path_factory.mktemp("tiny")
    calls = []
    for i, call in enumerate(workloads.calls("tiny")):
        text = workloads.config_text("tiny", 0, call["t_end"])
        resume = op.last_periodic_checkpoint(calls[-1][1]) if call["resume"] else None
        out = str(root / f"out{i}")
        result = run_simulation(parse_config(text), out, resume=resume, config_text=text)
        calls.append((result, out, call["resume"]))
    return calls


@pytest.mark.parametrize("name", ["rough_pcg", "sampled_restart"])
def test_gated_initial_temperatures_hold_the_wall_data_exactly(name):
    # the step's temperature wall terms assume T = 1 and 0 on the walls
    workloads = _load("bench_workloads", WORKLOADS)
    for seed in range(workloads.N_CASES):
        cfg = parse_config(workloads.config_text(name, seed))
        temp = initial_temperature(cfg, MappedGrid(cfg.geometry.profile(), cfg.grid.n1,
                                                   cfg.grid.n2))
        assert np.all(temp[:, 0] == 1.0) and np.all(temp[:, -1] == 0.0)


def test_tracer_installs_every_wrap():
    tracer = _load("bench_spans", SPANS).Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_tiny_run_records_every_stage(tmp_path):
    # a traced run of the self-test config through rbns.cli.main, as
    # `bench/run.py --trace 1` makes it; a changed signature of a wrapped
    # entry point shows up here as an error or a missing span attribute
    workloads = _load("bench_workloads", WORKLOADS)
    config = tmp_path / "tiny.cfg"
    config.write_text(workloads.config_text("tiny", 0))

    import rbns.cli

    spans = _load("bench_spans", SPANS)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert rbns.cli.main(["simulate", "--config", str(config),
                              "--output", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    names = [s[spans.NAME] for s in tracer.spans]
    steps = [s for s in tracer.spans if s[spans.NAME] == "solver.step"]
    assert steps and all(s[spans.ATTRS].get("dt", 0.0) > 0.0 for s in steps)
    assert "solver.recover_pressure" in names
    assert "diagnostics.measure" in names
    assert not any("error" in s[spans.ATTRS] for s in tracer.spans)


def test_op_check_call_accepts_tiny_run(tiny_calls):
    op = _load("bench_op", OP)
    assert [resumed for _, _, resumed in tiny_calls] == [False, True]
    for result, out, resumed in tiny_calls:
        fails, values = op.check_call(0, result, out, bound_energy=False, resumed=resumed)
        assert fails == []
        assert values and all(np.isfinite(v) for v in values.values())


def test_tiny_rows_and_summary_carry_every_column(tiny_calls):
    # the tiny config samples pressure and a background, so each of its
    # samples with pressure measures every ROW name (the residuals once
    # finalized); the others lack only what needs pressure
    assert set(CSV_COLUMNS) | set(AVERAGED) <= set(ROW.names)
    needs_pressure = {*ENSTROPHY_COLUMNS, "pressure_defect", "enstrophy_residual"}
    for result, out, _ in tiny_calls:
        records = result.recorder.records
        with_pressure = np.isfinite(records["pressure_defect"])
        assert len(records) >= 2 and with_pressure.any() and not with_pressure.all()
        for name in ROW.names:
            finite = np.isfinite(records[name])
            assert finite[with_pressure].all() and (name in needs_pressure or finite.all()), name
        summary = read_summary(str(Path(out) / "run_summary.txt"))
        assert [key for key in summary if key.startswith("avg:")] == [
            *(f"avg:{name}" for name in AVERAGED), "avg:grad_eta_sq"]
        assert summary["avg:grad_eta_sq"] == result.recorder.grad_eta_sq
