"""The traced benchmark finds every rbns entry point it wraps and can run.

bench/spans.py looks functions and methods up by name and reads some of
their arguments.  A rename or a deletion in rbns (say of d2_x1 or
HelmholtzDirichlet.__init__) would make traced benchmark runs raise or
silently drop a span, and a changed signature (the step's dt) would make
them raise; this catches both.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = BENCH / "workloads.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_wrap():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_tiny_run_records_every_stage(tmp_path):
    # a traced run of the self-test config through rbns.cli.main, as
    # `bench/run.py --trace 1` makes it; a changed signature of a wrapped
    # entry point shows up here as an error or a missing span attribute
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = tmp_path / "tiny.cfg"
    config.write_text(workloads.config_text("tiny", 0))

    import rbns.cli

    spans = _load_spans()
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
