"""In-memory span tracer for traced operations, and the per-layer metrics.

`Tracer.install` wraps the public entry points of the rbns modules at the
names their callers look them up by (a module attribute for a function
imported by name, the class attribute for a method).  Each call records a
span `[id, name, start, end, parent, op, attrs]`; spans stay in memory and
are written out when the operation ends.  `d_x1`/`d2_x1` calls are counted,
not spanned, on the innermost open span (key "deriv").

`layer_metrics` turns the spans of one or more traced operations of the
same config into the per-layer metrics.  Counts come from the first
operation, so they repeat exactly; times pool every operation's calls.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

ID, NAME, START, END, PARENT, OP, ATTRS = range(7)


class Tracer:
    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, owner, attr: str, name: str, annotate=None) -> None:
        """Record a span around every call of `owner.attr`.

        `annotate(attrs, args, kwargs, result)` runs after the span closes.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, op_id = self.spans, self._stack, self.op_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, clock(), 0.0, stack[-1] if stack else -1, op_id, {}]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ATTRS]["error"] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if annotate is not None:
                annotate(rec[ATTRS], args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of `owner.attr` on the innermost open span."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                attrs = spans[stack[-1]][ATTRS]
                attrs[key] = attrs.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def install(self) -> None:
        import rbns.cli
        import rbns.diagnostics
        import rbns.elliptic
        import rbns.grid
        import rbns.reporting
        import rbns.runner
        import rbns.solver

        stepper = rbns.solver.BoussinesqStepper
        helm = getattr(rbns.elliptic, "HelmholtzDirichlet", None)
        neumann = getattr(rbns.elliptic, "PoissonNeumann", None)
        recorder = rbns.diagnostics.Recorder

        self.span(rbns.cli, "run_simulation", "runner.run_simulation")
        self.span(rbns.runner, "build_stepper", "runner.build_stepper")
        self.span(stepper, "step", "solver.step", annotate=_step_dt)
        self.span(stepper, "recover_pressure", "solver.recover_pressure")
        if helm is not None:
            self.span(helm, "__init__", "elliptic.factor")
            self.span(helm, "solve", "elliptic.dirichlet_solve", annotate=_dirichlet_info)
        if neumann is not None:
            self.span(neumann, "solve", "elliptic.neumann_solve", annotate=_iterations)
        self.span(rbns.runner, "measure", "diagnostics.measure")
        self.span(recorder, "finalize", "diagnostics.finalize")
        self.span(recorder, "write_csv", "diagnostics.write_csv", annotate=_file_bytes(1))
        self.span(rbns.runner, "write_checkpoint", "checkpoint.write", annotate=_file_bytes(0))
        self.span(rbns.runner, "read_checkpoint", "checkpoint.read", annotate=_file_bytes(0))
        self.span(rbns.reporting, "report_for_run", "reporting.report_for_run")
        self.span(rbns.reporting, "write_report", "reporting.write_report")
        # d_x1 / d2_x1 at every name they are looked up by
        for fname in ("d_x1", "d2_x1"):
            original = getattr(rbns.grid, fname)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("rbns") and getattr(mod, fname, None) is original:
                    self.count(mod, fname, "deriv")


def _step_dt(attrs, args, kwargs, out):
    attrs["dt"] = kwargs["dt"] if "dt" in kwargs else args[2]


def _iterations(attrs, args, kwargs, out):
    attrs["iters"] = out[1].iterations


def _dirichlet_info(attrs, args, kwargs, out):
    attrs["iters"] = out[1].iterations
    attrs["c"] = args[0].c


def _file_bytes(index):
    def annotate(attrs, args, kwargs, out):
        attrs["bytes"] = os.path.getsize(args[index])
    return annotate


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order they are printed
LAYER_UNITS = {
    "runner.build_stepper_ms": "ms",
    "solver.step_ms_p50": "ms",
    "solver.step_ms_p99": "ms",
    "solver.step_samples": "count",
    "solver.step_self_ms": "ms",
    "solver.steps": "count",
    "solver.omega_solves_per_step": "1/step",
    "solver.pressure_self_ms": "ms",
    "elliptic.temp_ms": "ms",
    "elliptic.omega_ms": "ms",
    "elliptic.psi_ms": "ms",
    "elliptic.temp_iters": "1/solve",
    "elliptic.omega_iters": "1/solve",
    "elliptic.psi_iters": "1/solve",
    "elliptic.neumann_ms": "ms",
    "elliptic.neumann_iters": "1/solve",
    "elliptic.factor_count": "count",
    "elliptic.factor_ms": "ms",
    "elliptic.factor_reuse": "ratio",
    "elliptic.share": "ratio",
    "grid.fft_deriv_calls_per_step": "1/step",
    "grid.fft_deriv_calls_per_sample": "1/sample",
    "diagnostics.measure_ms": "ms",
    "diagnostics.samples": "count",
    "diagnostics.finalize_ms": "ms",
    "diagnostics.write_csv_ms": "ms",
    "diagnostics.csv_bytes": "bytes",
    "checkpoint.write_ms": "ms",
    "checkpoint.read_ms": "ms",
    "checkpoint.bytes": "bytes",
    "reporting.report_ms": "ms",
}

# Counts that must repeat bit for bit across traced operations of one config.
EXACT_COUNTS = (
    "solver.steps", "solver.omega_solves_per_step",
    "elliptic.temp_iters", "elliptic.omega_iters", "elliptic.psi_iters",
    "elliptic.neumann_iters", "elliptic.factor_count", "elliptic.factor_reuse",
    "grid.fft_deriv_calls_per_step", "grid.fft_deriv_calls_per_sample",
    "diagnostics.samples", "diagnostics.csv_bytes", "checkpoint.bytes",
)


def _dur_ms(span) -> float:
    return 1e3 * (span[END] - span[START])


def _p(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class _OpView:
    """Index of one operation's spans: children, self times, roles."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[PARENT], []).append(s)
        self.by_name: dict[str, list[list]] = {}
        for s in spans:
            self.by_name.setdefault(s[NAME], []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def self_ms(self, span, only=None) -> float:
        kids = self.children.get(span[ID], [])
        if only is not None:
            kids = [k for k in kids if k[NAME].startswith(only)]
        return _dur_ms(span) - sum(_dur_ms(k) for k in kids)

    def subtree_count(self, span, key) -> int:
        total = span[ATTRS].get(key, 0)
        for kid in self.children.get(span[ID], []):
            total += self.subtree_count(kid, key)
        return total

    def parent(self, span):
        return self.spans[span[PARENT]] if span[PARENT] >= 0 else None

    def in_step(self, span) -> bool:
        p = self.parent(span)
        while p is not None:
            if p[NAME] == "solver.step":
                return True
            p = self.parent(p)
        return False

    def dirichlet_role(self, span) -> str:
        c = span[ATTRS].get("c")
        if c is None:
            return "psi"
        p = self.parent(span)
        dt = p[ATTRS].get("dt") if p is not None and p[NAME] == "solver.step" else None
        if dt is not None and abs(c - 0.5 * dt) <= 1e-12 * abs(c):
            return "temp"
        return "omega"


def layer_metrics(ops: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from the spans of traced operations (one list per op)."""
    views = [_OpView(spans) for spans in ops]
    first = views[0]

    def pooled(fn):
        out = []
        for v in views:
            out += fn(v)
        return out

    def durations(name):
        return pooled(lambda v: [_dur_ms(s) for s in v.named(name)])

    def dirichlet(v, role):
        return [s for s in v.named("elliptic.dirichlet_solve") if v.dirichlet_role(s) == role]

    steps = first.named("solver.step")
    step_ms = durations("solver.step")
    n_steps = len(steps)
    helm_solves = len(dirichlet(first, "temp")) + len(dirichlet(first, "omega"))
    factors = [s for s in first.named("elliptic.factor") if first.in_step(s)]
    measures = first.named("diagnostics.measure")
    step_total = sum(step_ms)
    elliptic_in_steps = pooled(lambda v: [
        _dur_ms(s) for s in v.spans
        if s[NAME].startswith("elliptic.") and v.parent(s) is not None
        and v.parent(s)[NAME] == "solver.step"])
    writes = first.named("checkpoint.write")
    report_ms = durations("reporting.report_for_run") + durations("reporting.write_report")
    n_sim = len(pooled(lambda v: v.named("runner.run_simulation")))

    m = {
        "runner.build_stepper_ms": _p(durations("runner.build_stepper"), 0.5),
        "solver.step_ms_p50": _p(step_ms, 0.50),
        "solver.step_ms_p99": _p(step_ms, 0.99),
        "solver.step_samples": float(len(step_ms)),
        "solver.step_self_ms": _p(pooled(lambda v: [
            v.self_ms(s, "elliptic.") for s in v.named("solver.step")]), 0.5),
        "solver.steps": float(n_steps),
        "solver.omega_solves_per_step": len(dirichlet(first, "omega")) / max(n_steps, 1),
        "solver.pressure_self_ms": _p(pooled(lambda v: [
            v.self_ms(s, "elliptic.") for s in v.named("solver.recover_pressure")]), 0.5),
        "elliptic.temp_ms": _p(pooled(lambda v: [_dur_ms(s) for s in dirichlet(v, "temp")]), 0.5),
        "elliptic.omega_ms": _p(pooled(lambda v: [_dur_ms(s) for s in dirichlet(v, "omega")]), 0.5),
        "elliptic.psi_ms": _p(pooled(lambda v: [_dur_ms(s) for s in dirichlet(v, "psi")]), 0.5),
        "elliptic.temp_iters": _mean([s[ATTRS]["iters"] for s in dirichlet(first, "temp")]),
        "elliptic.omega_iters": _mean([s[ATTRS]["iters"] for s in dirichlet(first, "omega")]),
        "elliptic.psi_iters": _mean([s[ATTRS]["iters"] for s in dirichlet(first, "psi")]),
        "elliptic.neumann_ms": _p(durations("elliptic.neumann_solve"), 0.5),
        "elliptic.neumann_iters": _mean([s[ATTRS]["iters"]
                                         for s in first.named("elliptic.neumann_solve")]),
        "elliptic.factor_count": float(len(factors)),
        "elliptic.factor_ms": sum(_dur_ms(s) for s in factors),
        "elliptic.factor_reuse": 1.0 - len(factors) / helm_solves if helm_solves else 0.0,
        "elliptic.share": sum(elliptic_in_steps) / step_total if step_total > 0 else 0.0,
        "grid.fft_deriv_calls_per_step":
            sum(first.subtree_count(s, "deriv") for s in steps) / max(n_steps, 1),
        "grid.fft_deriv_calls_per_sample":
            sum(first.subtree_count(s, "deriv") for s in measures) / max(len(measures), 1),
        "diagnostics.measure_ms": _p(durations("diagnostics.measure"), 0.5),
        "diagnostics.samples": float(len(measures)),
        "diagnostics.finalize_ms": _p(durations("diagnostics.finalize"), 0.5),
        "diagnostics.write_csv_ms": _p(durations("diagnostics.write_csv"), 0.5),
        "diagnostics.csv_bytes": float(sum(s[ATTRS].get("bytes", 0)
                                           for s in first.named("diagnostics.write_csv"))),
        "checkpoint.write_ms": _p(durations("checkpoint.write"), 0.5),
        "checkpoint.read_ms": _p(durations("checkpoint.read"), 0.5),
        "checkpoint.bytes": _mean([s[ATTRS].get("bytes", 0) for s in writes]),
        "reporting.report_ms": sum(report_ms) / max(n_sim, 1),
    }
    return m


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with span structure: a child outside its parent, negative self time."""
    view = _OpView(spans)
    problems = []
    for s in spans:
        if s[END] < s[START]:
            problems.append(f"span {s[ID]} {s[NAME]} ends before it starts")
        p = view.parent(s)
        if p is not None and not (p[START] <= s[START] and s[END] <= p[END]):
            problems.append(f"span {s[ID]} {s[NAME]} lies outside parent {p[NAME]}")
        if view.self_ms(s) < 0.0:
            problems.append(f"span {s[ID]} {s[NAME]} has negative self time")
    return problems
