"""``repro.obs`` — zero-cost-when-disabled telemetry for the simulator.

Three pillars (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — a typed, labelled metrics registry with
  snapshot/diff/merge, shared by threads and aggregated across
  :class:`~repro.core.engine.SweepRunner` worker processes;
* :mod:`repro.obs.spans` — hierarchical spans (primitive → handler →
  phase) over simulated time, emitted through pluggable sinks;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, Prometheus
  text, and flamegraph folded-stacks writers.

This package owns the **global switchboard**: instrumentation sites all
over the tree (executor, kernel handlers, engine caches, TLB, first-
level cache, event log) consult :data:`OBS_STATE` — a slotted object
whose attribute loads are the entire disabled-path cost — before
touching the registry, and the process-global :class:`Tracer` is
inactive until a sink attaches.  The obs gate of ``scripts/gates.py``
pins the instrumented-but-disabled executor within 3% of an
uninstrumented run.

Typical use::

    from repro import obs

    with obs.capture() as cap:
        run_experiment()
    obs.export.write_chrome_trace(cap.spans, "trace.json")
    print(obs.export.render_prometheus(cap.metrics()))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.obs import export, metrics, spans  # noqa: F401 (public submodules)
from repro.obs.metrics import (  # noqa: F401
    REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    snapshot_diff,
)
from repro.obs.spans import (  # noqa: F401
    InMemorySink,
    PhaseSpanObserver,
    SimClock,
    Span,
    SpanSink,
    Tracer,
)


class _ObsState:
    """The switchboard instrumentation sites check before any work.

    ``metrics_on`` gates registry writes; ``tracer.active`` (sinks
    attached) gates span production.  Both default off, so an
    uninstrumented process pays one attribute load per gate.
    """

    __slots__ = ("metrics_on", "tracer", "clock")

    def __init__(self) -> None:
        self.metrics_on = False
        self.tracer = Tracer()
        self.clock = SimClock()


OBS_STATE = _ObsState()


def metrics_enabled() -> bool:
    return OBS_STATE.metrics_on


def enable_metrics() -> None:
    """Route instrumentation-site counters into :data:`REGISTRY`."""
    OBS_STATE.metrics_on = True


def disable_metrics() -> None:
    OBS_STATE.metrics_on = False


def tracer() -> Tracer:
    """The process-global tracer (engine/handler spans emit here)."""
    return OBS_STATE.tracer


def tracing_active() -> bool:
    return OBS_STATE.tracer.active


def sim_clock() -> SimClock:
    """The cursor executor-driven spans advance along."""
    return OBS_STATE.clock


class Capture:
    """What :func:`capture` yields: collected spans + a metrics window."""

    def __init__(self, sink: InMemorySink, before: Dict[str, Any]) -> None:
        self._sink = sink
        self._before = before

    @property
    def spans(self) -> List[Span]:
        return self._sink.spans

    def metrics(self) -> Dict[str, Any]:
        """Snapshot diff covering the captured window only."""
        return snapshot_diff(self._before, REGISTRY.snapshot())

    def span_names(self) -> List[str]:
        return self._sink.names()


@contextmanager
def capture(enable_spans: bool = True,
            enable_metrics_too: bool = True) -> Iterator[Capture]:
    """Enable telemetry for a block, restoring the prior state after.

    Attaches an :class:`InMemorySink` to the global tracer and turns
    the metrics gate on; yields a :class:`Capture` whose ``spans`` and
    ``metrics()`` cover exactly the block.
    """
    sink = InMemorySink()
    was_on = OBS_STATE.metrics_on
    if enable_metrics_too:
        OBS_STATE.metrics_on = True
    if enable_spans:
        OBS_STATE.tracer.add_sink(sink)
    try:
        yield Capture(sink, REGISTRY.snapshot())
    finally:
        OBS_STATE.tracer.remove_sink(sink)
        OBS_STATE.metrics_on = was_on


__all__ = [
    "Capture",
    "InMemorySink",
    "MetricsRegistry",
    "OBS_STATE",
    "PhaseSpanObserver",
    "REGISTRY",
    "SimClock",
    "Span",
    "SpanSink",
    "Tracer",
    "capture",
    "disable_metrics",
    "enable_metrics",
    "export",
    "merge_snapshots",
    "metrics",
    "metrics_enabled",
    "sim_clock",
    "snapshot_diff",
    "spans",
    "tracer",
    "tracing_active",
]
