"""Typed events published on the probe bus.

Every event is a small immutable record (a frozen dataclass; the
per-operation ``OpEvent`` is a ``NamedTuple``) carrying simulated-time
fields only — no wall-clock, no object references into mutable simulator
state — so subscribers can buffer them safely and exports built from
them are deterministic (same seed, same bytes).

``SendEvent``/``DeliverEvent``/``ComputeEvent`` are the classic trace
stream (re-exported by :mod:`repro.trace` for backwards compatibility);
the remaining types cover the resources the two-layer model contends on:
link serialization queues, gateway CPUs, blocked receivers, and
application-level collective phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple


@dataclass(frozen=True)
class SendEvent:
    """A message injected into the network (after routing classified it)."""

    time: float
    src: int
    dst: int
    size: int
    tag: Any
    inter_cluster: bool


@dataclass(frozen=True)
class DeliverEvent:
    """A message handed to the destination endpoint."""

    time: float
    src: int
    dst: int
    size: int
    tag: Any
    latency: float


@dataclass(frozen=True)
class ComputeEvent:
    """One reserved interval of CPU work on a rank."""

    start: float
    end: float
    rank: int


@dataclass(frozen=True)
class QueueEvent:
    """One transfer through a link, with its queueing delay.

    ``wait`` is how far behind the wire was when the message arrived
    (seconds of backlog — the queue depth of a bandwidth-serialized FIFO),
    ``duration`` the serialization time actually charged, ``end`` the time
    the wire went free again.
    """

    time: float
    link: str
    wait: float
    duration: float
    end: float
    size: int


@dataclass(frozen=True)
class GatewayEvent:
    """One message served by a cluster gateway CPU (store-and-forward)."""

    time: float
    cluster: int
    start: float
    end: float
    size: int


@dataclass(frozen=True)
class BlockEvent:
    """A process started blocking on a receive."""

    time: float
    rank: int
    tag: Any


@dataclass(frozen=True)
class UnblockEvent:
    """A blocked receive completed; ``waited`` is the blocked interval.

    The trailing fields describe the *releasing message* so subscribers
    (notably the :mod:`repro.critpath` profiler) can attribute the wait
    to its cause without correlating against the send/deliver streams:
    ``src``/``size`` identify the message, ``send_time`` is when it
    departed the sender (after host overhead), and ``inter_cluster``
    tells which link class carried it.  They default to "unknown" so
    hand-built events in older tests stay valid.
    """

    time: float
    rank: int
    tag: Any
    waited: float
    src: int = -1
    size: int = 0
    send_time: float = -1.0
    inter_cluster: bool = False


@dataclass(frozen=True)
class PhaseEvent:
    """A named application phase boundary (``kind`` is enter/exit)."""

    time: float
    rank: int
    name: str
    kind: str


@dataclass(frozen=True)
class FaultDropEvent:
    """A message dropped by an injected fault (loss/outage/crash).

    ``link`` names the WAN link or gateway (``"gw2"``) that ate the
    message, ``reason`` is ``"loss"``, ``"outage"`` or
    ``"gateway-crash"``; ``send_time`` is the depart time of the dropped
    message so subscribers can correlate it with its send event.
    """

    time: float
    link: str
    reason: str
    src: int
    dst: int
    size: int
    tag: Any
    send_time: float


@dataclass(frozen=True)
class FaultSpikeEvent:
    """A WAN transfer whose latency was inflated by a burst window."""

    time: float
    link: str
    base_latency: float
    latency: float
    size: int


@dataclass(frozen=True)
class FaultLinkEvent:
    """A scheduled fault window opened or closed (``kind`` is up/down).

    ``link`` is a WAN link name or ``"gw<cluster>"`` for gateway
    crash-and-recover transitions.
    """

    time: float
    link: str
    kind: str


@dataclass(frozen=True)
class RetransmitEvent:
    """The reliable WAN transport retransmitted one unacked message."""

    time: float
    src: int
    dst: int
    seq: int
    attempt: int
    rto: float
    size: int
    tag: Any


class OpEvent(NamedTuple):
    """One application-level operation, in per-process program order.

    Published on the ``op`` topic by the :class:`~repro.runtime.context`
    syscalls — the stream :class:`repro.whatif.record.Recorder` turns into
    a replayable communication DAG.  Unlike the transport-level topics
    (``send``/``deliver``/``queue``), ``op`` events carry the *logical*
    structure of the computation: which process did what, in what order,
    independent of when the network let it happen.

    ``kind`` is one of:

    - ``"compute"`` — ``duration`` seconds of CPU work on ``rank``;
    - ``"send"`` — point-to-point send (``dst``, ``size``, ``tag``);
    - ``"multicast"`` — intra-cluster multicast (``dst`` is a tuple);
    - ``"recv"`` — a blocking receive was *issued* (``tag``);
    - ``"recv_done"`` — that receive matched a message (``src``, ``size``);
    - ``"poll"`` — a non-blocking receive (``detail`` is the hit flag);
    - ``"sleep"`` — a simulated-time timer (``duration``), no CPU charged;
    - ``"spawn"`` — a service process was started (``detail`` is its name).

    The one event a recording run publishes per operation, so it is an
    immutable ``NamedTuple`` rather than a frozen dataclass: same
    fields, order and defaults, at a third of the construction cost.
    """

    time: float
    proc: str
    rank: int
    daemon: bool
    kind: str
    dst: Any = None
    src: int = -1
    size: int = 0
    tag: Any = None
    duration: float = 0.0
    detail: Any = None


__all__ = [
    "SendEvent",
    "DeliverEvent",
    "ComputeEvent",
    "QueueEvent",
    "GatewayEvent",
    "BlockEvent",
    "UnblockEvent",
    "PhaseEvent",
    "FaultDropEvent",
    "FaultSpikeEvent",
    "FaultLinkEvent",
    "RetransmitEvent",
    "OpEvent",
]
