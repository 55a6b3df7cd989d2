"""Execution tracing: capture and render what a simulated run did.

Attach a :class:`Tracer` to a machine to record every message send,
delivery and compute interval::

    tracer = Tracer()
    machine = Machine(topo, tracer=tracer)
    ...
    print(render_timeline(tracer, machine.topology, machine.runtime()))

The text timeline is a per-rank Gantt strip (``#`` compute, ``-`` idle,
``>``/``<`` send/receive activity in the bin) — enough to *see* a
superstep structure, a straggler, or a gateway stall in a terminal.
Structured events are available for programmatic analysis.

Since the probe-bus refactor the tracer is an ordinary
:class:`~repro.obs.bus.ProbeBus` subscriber (``on_send`` / ``on_deliver``
/ ``on_compute``); ``Machine(topo, tracer=...)`` attaches it for you, or
attach it to a shared bus yourself with ``bus.attach(tracer)``.  The
event dataclasses live in :mod:`repro.obs.events` and are re-exported
here for backwards compatibility.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .network.topology import Topology
from .obs.events import ComputeEvent, DeliverEvent, SendEvent


def _percentile(sorted_values: List[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list (p in [0, 100])."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class Tracer:
    """Collects structured events from one machine run.

    Each of the three event streams (sends, delivers, computes) has its
    own ``max_events`` cap and its own drop counter, so a saturated send
    stream cannot silently mask drops elsewhere.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.max_events = max_events
        self.sends: List[SendEvent] = []
        self.delivers: List[DeliverEvent] = []
        self.computes: List[ComputeEvent] = []
        self.dropped_sends = 0
        self.dropped_delivers = 0
        self.dropped_computes = 0

    @property
    def dropped(self) -> int:
        """Total drops across all streams (see the per-stream counters)."""
        return self.dropped_sends + self.dropped_delivers + self.dropped_computes

    # -- probe-bus subscriber interface --------------------------------
    def on_send(self, ev: SendEvent) -> None:
        if len(self.sends) >= self.max_events:
            self.dropped_sends += 1
            return
        self.sends.append(ev)

    def on_deliver(self, ev: DeliverEvent) -> None:
        if len(self.delivers) >= self.max_events:
            self.dropped_delivers += 1
            return
        self.delivers.append(ev)

    def on_compute(self, ev: ComputeEvent) -> None:
        if len(self.computes) >= self.max_events:
            self.dropped_computes += 1
            return
        self.computes.append(ev)

    # -- analysis -------------------------------------------------------
    def message_count(self) -> int:
        return len(self.sends)

    def wan_sends(self) -> List[SendEvent]:
        return [e for e in self.sends if e.inter_cluster]

    def latency_stats(self) -> Dict[str, float]:
        """Min/mean/max and p50/p95/p99 delivery latency over all messages."""
        if not self.delivers:
            return {"min": 0.0, "mean": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        lats = sorted(e.latency for e in self.delivers)
        return {
            "min": lats[0],
            "mean": sum(lats) / len(lats),
            "max": lats[-1],
            "p50": _percentile(lats, 50),
            "p95": _percentile(lats, 95),
            "p99": _percentile(lats, 99),
        }

    @staticmethod
    def _merge(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
        spans.sort()
        merged: List[Tuple[float, float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def busy_intervals(self, rank: int) -> List[Tuple[float, float]]:
        """Merged compute intervals of one rank, sorted by start."""
        return self._merge([(e.start, e.end) for e in self.computes
                            if e.rank == rank])

    def busy_intervals_by_rank(self) -> Dict[int, List[Tuple[float, float]]]:
        """Merged compute intervals of every rank, in one pass over events."""
        by_rank: Dict[int, List[Tuple[float, float]]] = {}
        for e in self.computes:
            by_rank.setdefault(e.rank, []).append((e.start, e.end))
        return {rank: self._merge(spans) for rank, spans in by_rank.items()}


def render_timeline(tracer: Tracer, topology: Topology, until: float,
                    width: int = 72, ranks: Optional[Sequence[int]] = None) -> str:
    """Per-rank text Gantt over [0, until], ``width`` time bins wide."""
    if until <= 0:
        return "(empty timeline)"
    ranks = list(ranks if ranks is not None else topology.ranks())
    bin_width = until / width

    def bin_of(t: float) -> int:
        return min(width - 1, max(0, int(t / bin_width)))

    rows: Dict[int, List[str]] = {r: ["-"] * width for r in ranks}
    for ev in tracer.computes:
        if ev.rank in rows:
            for b in range(bin_of(ev.start), bin_of(ev.end) + 1):
                rows[ev.rank][b] = "#"
    for ev in tracer.sends:
        if ev.src in rows:
            b = bin_of(ev.time)
            if rows[ev.src][b] != "#":
                rows[ev.src][b] = ">"
    for ev in tracer.delivers:
        if ev.dst in rows:
            b = bin_of(ev.time)
            if rows[ev.dst][b] == "-":
                rows[ev.dst][b] = "<"

    lines = [f"timeline 0 .. {until:.4f}s ({bin_width * 1e3:.2f} ms/bin); "
             f"# compute, > send, < deliver, - idle"]
    for r in ranks:
        cluster = topology.cluster_of(r)
        lines.append(f"rank {r:3d} (c{cluster}) |" + "".join(rows[r]) + "|")
    if tracer.dropped:
        lines.append(
            f"({tracer.dropped} events dropped beyond the cap: "
            f"{tracer.dropped_sends} sends, {tracer.dropped_delivers} delivers, "
            f"{tracer.dropped_computes} computes)")
    return "\n".join(lines)


def utilization(tracer: Tracer, topology: Topology, until: float) -> Dict[int, float]:
    """Fraction of [0, until] each rank spent computing.

    Groups compute events by rank in a single pass, so the cost is
    O(events + ranks) rather than O(ranks x events).
    """
    by_rank = tracer.busy_intervals_by_rank()
    out = {}
    for rank in topology.ranks():
        busy = sum(end - start for start, end in by_rank.get(rank, ()))
        out[rank] = busy / until if until > 0 else 0.0
    return out


__all__ = [
    "SendEvent",
    "DeliverEvent",
    "ComputeEvent",
    "Tracer",
    "render_timeline",
    "utilization",
]
