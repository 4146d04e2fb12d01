"""In-memory span tracer that wraps module-level names of ``dfnflow``.

Each layer boundary is a module attribute through which one layer calls the
next (``dfnflow.picard.assemble`` is the name the Picard loop calls to reach
the assembler). ``Tracer.install`` replaces each such attribute with a
wrapper that records a span (name, start, end, parent, run id) and restores
the original on ``uninstall``. A missing attribute is an error: a layer that
silently drops out of the measurement must not read as zero.

Self time of a span is its duration minus the durations of its direct
children; calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name). The module is the caller's namespace, so a
# wrapper sees exactly the calls that cross from one layer into the next.
HOOKS = (
    ("dfnflow.presets", "run_case", "presets.run_case"),
    ("dfnflow.presets", "build_mesh", "meshing.build_mesh"),
    ("dfnflow.meshing", "validate_network", "network.validate"),
    ("dfnflow.presets", "track", "tracker.track"),
    ("dfnflow.tracker", "split_mesh_at", "meshing.split"),
    ("dfnflow.tracker", "picard_solve", "picard.solve"),
    ("dfnflow.picard", "assemble", "fem.assemble"),
    ("dfnflow.picard", "solve_saddle", "fem.solve"),
    ("dfnflow.fem", "implied_junction_pressures", "fem.junction_diag"),
    ("dfnflow.presets", "build_energy_block", "energy.block"),
    ("dfnflow.energy", "reduce_and_minimize", "energy.reduce"),
    ("dfnflow.energy", "energy_of", "energy.energy_of"),
    ("dfnflow.presets", "bundle_from_report", "export.bundle"),
    ("dfnflow.export", "export_bundle", "export.write"),
)

ROOT_SPAN = "workload"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict | None = None


class Tracer:
    """Records spans around the hooked names while installed.

    ``counters`` maps a span name to a function of the wrapped call's result
    and arguments that returns the counts to keep with the span; results
    themselves are not kept, so tracing does not hold solver state alive.
    """

    def __init__(self, hooks=HOOKS, counters=None):
        self.hooks = hooks
        self.counters = counters or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.run_id = 0

    def install(self) -> None:
        for module_name, attr, span_name in self.hooks:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise AttributeError(
                    f"hook target {module_name}.{attr} does not exist"
                )
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        count = self.counters.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return wrapper

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def self_times(self, run_id: int | None = None) -> dict[str, float]:
        """Total self time per span name, over one run id or all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, inner in zip(self.spans, child_time):
            if run_id is None or span.run_id == run_id:
                totals[span.name] = totals.get(span.name, 0.0) + (
                    span.end - span.start - inner
                )
        return totals

    def to_records(self) -> list[list]:
        return [
            [s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans
        ]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.span = Span(self.name, time.perf_counter(), 0.0, parent, t.run_id)
        t.spans.append(self.span)
        t._stack.append(len(t.spans) - 1)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
