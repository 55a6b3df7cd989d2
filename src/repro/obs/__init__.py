"""Observability for the simulator: probe bus, metrics, exporters.

Layers (all optional — an un-instrumented run pays only the bus's
fast-path flag checks):

- :mod:`repro.obs.bus` — :class:`ProbeBus`, the typed event publisher the
  engine/machine/router/link layers emit into.
- :mod:`repro.obs.events` — the frozen event dataclasses.
- :mod:`repro.obs.metrics` — counters/gauges/log-binned histograms and
  the standard :class:`MetricsCollector` subscriber.
- :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace_event`` JSON export.
- :mod:`repro.obs.report` — JSON-lines run reports.
- :mod:`repro.obs.cli` — the ``python -m repro trace`` command
  (``repro.__main__`` imports it only when that command runs).

Typical instrumented run::

    from repro.obs import MetricsCollector, PerfettoTrace, ProbeBus

    bus = ProbeBus()
    metrics = MetricsCollector()
    trace = PerfettoTrace(topology=topo)
    bus.attach(metrics)
    bus.attach(trace)
    machine = Machine(topo, bus=bus)
    ...
    metrics.finalize(machine.runtime())
    trace.write("run.trace.json")
"""

from .bus import TOPICS, ProbeBus
from .events import (BlockEvent, ComputeEvent, DeliverEvent, GatewayEvent,
                     OpEvent, PhaseEvent, QueueEvent, SendEvent, UnblockEvent)
from .metrics import (Counter, Gauge, Histogram, MetricsCollector,
                      MetricsRegistry, TimeSeries)
from .perfetto import PerfettoTrace
from .report import (RunReporter, active_reporter, load_report, run_record,
                     set_reporter, topology_record)

__all__ = [
    "TOPICS",
    "ProbeBus",
    "SendEvent",
    "DeliverEvent",
    "ComputeEvent",
    "QueueEvent",
    "GatewayEvent",
    "BlockEvent",
    "UnblockEvent",
    "PhaseEvent",
    "OpEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "MetricsCollector",
    "PerfettoTrace",
    "RunReporter",
    "run_record",
    "topology_record",
    "set_reporter",
    "active_reporter",
    "load_report",
]
