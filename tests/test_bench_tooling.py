"""The traced benchmark finds every rbns entry point it wraps.

bench/spans.py looks functions and methods up by name.  A rename or a
deletion in rbns (say of d2_x1 or HelmholtzDirichlet.__init__) would make
traced benchmark runs raise or silently drop a span; this catches it.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
