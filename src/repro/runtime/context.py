"""Per-process API for application code — the Panda-like messaging layer.

A :class:`Context` is bound to one rank of one :class:`Machine`.  Its
methods return syscall objects that the process yields::

    def body(ctx):
        yield ctx.compute(2e-3)
        yield ctx.send(dst=3, size=4096, tag="row")
        msg = yield ctx.recv("row")

Composite operations (``rpc``) are generators used with ``yield from``.

Hot-path layout: a context pre-resolves its per-rank resources (CPU
clock, stats record, endpoint, engine, bus) once at construction, and
the four hot syscalls (``compute``/``send``/``recv``/``recv_nowait``)
are *reused* per context — a syscall object is yielded, applied and dead
within one process step, so the factory methods refill one cached
instance instead of allocating.  An ``in_flight`` flag falls back to a
fresh allocation for code that holds a syscall across a yield.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..network.message import Message
from ..obs.events import (BlockEvent, ComputeEvent, OpEvent, PhaseEvent,
                          UnblockEvent)
from ..sim.process import Process, Syscall
from .machine import Machine

#: Size in bytes of a bare control message (ack, token, seq request).
CONTROL_BYTES = 64


@dataclass
class RpcEnvelope:
    """Wraps an RPC request payload with the tag the reply must use."""

    reply_tag: Any
    body: Any


class _Compute(Syscall):
    __slots__ = ("ctx", "duration", "in_flight")

    def __init__(self, ctx: "Context", duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative compute duration {duration!r}")
        self.ctx = ctx
        self.duration = duration
        self.in_flight = False

    def apply(self, proc: Process) -> None:
        self.in_flight = False
        ctx = self.ctx
        duration = self.duration
        engine = ctx._engine
        now = engine.now
        end = ctx._cpu.reserve(now, duration)
        ctx._stats.compute_time += duration
        bus = ctx._bus
        if bus.want_compute and duration > 0:
            bus.emit("compute", ComputeEvent(end - duration, end, ctx.rank))
        if bus.want_op:
            bus.emit("op", OpEvent(now, proc.name, ctx.rank, proc.daemon,
                                   "compute", duration=duration))
        if end > now:
            engine.call_at(end, proc.trampoline)
        else:
            engine.call_soon(proc.trampoline)


class _Send(Syscall):
    __slots__ = ("ctx", "dst", "size", "tag", "payload", "in_flight")

    def __init__(self, ctx: "Context", dst: int, size: int, tag: Any, payload: Any) -> None:
        self.ctx = ctx
        self.dst = dst
        self.size = size
        self.tag = tag
        self.payload = payload
        self.in_flight = False

    def apply(self, proc: Process) -> None:
        self.in_flight = False
        ctx = self.ctx
        machine = ctx.machine
        dst = self.dst
        size = self.size
        tag = self.tag
        inter = ctx._rank_cluster[dst] != ctx.cluster
        spec = ctx._wide_spec if inter else ctx._local_spec
        # Host overhead is paid sequentially by this process but does not
        # reserve the rank CPU: on the DAS, messaging ran on the LANai
        # co-processor / Panda upcall thread, so a computing process does
        # not stall the message pipeline of its neighbours on the rank.
        engine = ctx._engine
        now = engine.now
        overhead_end = now + spec.send_overhead
        ctx._stats.send_overhead_time += spec.send_overhead
        if ctx._bus.want_op:
            ctx._bus.emit("op", OpEvent(now, proc.name, ctx.rank,
                                        proc.daemon, "send", dst=dst,
                                        size=size, tag=tag))
        msg = Message(ctx.rank, dst, tag, size, self.payload)
        self.payload = None
        bus = ctx._bus
        if inter and ctx._transport is not None:
            # Reliable WAN transport: the send becomes a sequenced,
            # acked, retransmitted wire message.  The sender still only
            # pays its host overhead and continues asynchronously.
            ctx._transport.send(msg, overhead_end)
        elif bus.want_send or bus.want_deliver:
            machine.transmit(msg, overhead_end)
        else:
            # Un-instrumented fast path: route directly with the pre-bound
            # endpoint deliver (same behaviour as Machine.transmit minus
            # the probe emits, which nothing is subscribed to).
            ctx._route(msg, overhead_end, engine, ctx._deliver_fns[dst])
            stats = ctx._stats
            stats.messages_sent += 1
            stats.bytes_sent += size
        # Asynchronous send: the sender continues once the host overhead
        # is paid (the NIC/gateway pipeline drains without the CPU).
        if overhead_end > now:
            engine.call_at(overhead_end, proc.trampoline)
        else:
            engine.call_soon(proc.trampoline)


class _Multicast(Syscall):
    __slots__ = ("ctx", "dsts", "size", "tag", "payload")

    def __init__(self, ctx: "Context", dsts, size: int, tag: Any, payload: Any) -> None:
        self.ctx = ctx
        self.dsts = tuple(dsts)
        self.size = size
        self.tag = tag
        self.payload = payload

    def apply(self, proc: Process) -> None:
        ctx = self.ctx
        machine = ctx.machine
        spec = machine.topology.local
        overhead_end = machine.now + spec.send_overhead
        ctx._stats.send_overhead_time += spec.send_overhead
        if ctx._bus.want_op:
            ctx._bus.emit("op", OpEvent(machine.now, proc.name, ctx.rank,
                                        proc.daemon, "multicast",
                                        dst=self.dsts, size=self.size,
                                        tag=self.tag))
        machine.transmit_multicast(ctx.rank, self.dsts, self.size, self.tag,
                                   self.payload, overhead_end)
        machine.engine.call_at(overhead_end, proc.trampoline)


class _Recv(Syscall):
    """Blocking receive.

    The syscall object itself is the mailbox receiver: ``apply`` stashes
    the waiting process and wait-start time and registers one pre-bound
    method, so the un-instrumented blocking path allocates nothing.  The
    state is consumed when the message arrives, which always happens
    before the owning process can issue another receive — so the
    per-context reuse is safe even while blocked.
    """

    __slots__ = ("ctx", "tag", "proc", "wait_start", "in_flight", "_receiver")

    def __init__(self, ctx: "Context", tag: Any) -> None:
        self.ctx = ctx
        self.tag = tag
        self.proc: Optional[Process] = None
        self.wait_start = 0.0
        self.in_flight = False
        self._receiver = self._on_message

    def apply(self, proc: Process) -> None:
        self.in_flight = False
        ctx = self.ctx
        tag = self.tag
        bus = ctx._bus
        self.proc = proc
        wait_start = self.wait_start = ctx._engine.now
        if bus.want_block:
            bus.emit("block", BlockEvent(wait_start, ctx.rank, tag))
        if bus.want_op:
            bus.emit("op", OpEvent(wait_start, proc.name, ctx.rank,
                                   proc.daemon, "recv", tag=tag))
        ctx._endpoint.box(tag).add_receiver(self._receiver)

    def _on_message(self, msg: Message) -> None:
        ctx = self.ctx
        proc = self.proc
        tag = self.tag
        engine = ctx._engine
        now = engine.now
        stats = ctx._stats
        bus = ctx._bus
        if not proc.daemon:
            # Idle time is only meaningful for application processes;
            # service daemons block on their inboxes by design.
            stats.recv_blocked_time += now - self.wait_start
        if bus.want_unblock:
            bus.emit("unblock", UnblockEvent(now, ctx.rank, tag,
                                             now - self.wait_start,
                                             msg.src, msg.size,
                                             msg.send_time,
                                             msg.inter_cluster))
        if bus.want_op:
            bus.emit("op", OpEvent(now, proc.name, ctx.rank, proc.daemon,
                                   "recv_done", src=msg.src,
                                   size=msg.size, tag=tag))
        spec = ctx._wide_spec if msg.inter_cluster else ctx._local_spec
        # Like the send overhead, this is a sequential delay for the
        # receiving process, not a rank-CPU reservation (see _Send).
        end = now + spec.recv_overhead
        stats.recv_overhead_time += spec.recv_overhead
        stats.messages_received += 1
        proc._value = msg
        if end > now:
            engine.call_at(end, proc.trampoline)
        else:
            engine.call_soon(proc.trampoline)


class _Sleep(Syscall):
    """Suspend for simulated time *visibly*: like the engine-level
    :class:`~repro.sim.primitives.Sleep`, but published on the ``op``
    topic so timer-driven protocols (work stealing retries) stay
    observable to the probe-bus profilers.  Scheduling is identical to
    the bare primitive, so runs are byte-identical with probes off."""

    __slots__ = ("ctx", "duration", "in_flight")

    def __init__(self, ctx: "Context", duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative sleep duration {duration!r}")
        self.ctx = ctx
        self.duration = duration
        self.in_flight = False

    def apply(self, proc: Process) -> None:
        self.in_flight = False
        ctx = self.ctx
        bus = ctx._bus
        if bus.want_op:
            bus.emit("op", OpEvent(ctx._engine.now, proc.name, ctx.rank,
                                   proc.daemon, "sleep",
                                   duration=self.duration))
        ctx._engine.call_after(self.duration, proc.trampoline)


class _RecvNowait(Syscall):
    __slots__ = ("ctx", "tag", "in_flight")

    def __init__(self, ctx: "Context", tag: Any) -> None:
        self.ctx = ctx
        self.tag = tag
        self.in_flight = False

    def apply(self, proc: Process) -> None:
        self.in_flight = False
        ctx = self.ctx
        msg = ctx._endpoint.box(self.tag).try_get()
        if msg is not None:
            ctx._stats.messages_received += 1
        if ctx._bus.want_op:
            ctx._bus.emit("op", OpEvent(
                ctx._engine.now, proc.name, ctx.rank, proc.daemon, "poll",
                src=msg.src if msg is not None else -1, tag=self.tag,
                detail=msg is not None))
        proc.resume(msg)


class _PhaseScope:
    """Publishes phase enter/exit events around a ``with`` block."""

    __slots__ = ("ctx", "name")

    def __init__(self, ctx: "Context", name: str) -> None:
        self.ctx = ctx
        self.name = name

    def __enter__(self) -> "_PhaseScope":
        machine = self.ctx.machine
        machine.bus.emit("phase", PhaseEvent(machine.now, self.ctx.rank,
                                             self.name, "enter"))
        return self

    def __exit__(self, *exc) -> bool:
        machine = self.ctx.machine
        machine.bus.emit("phase", PhaseEvent(machine.now, self.ctx.rank,
                                             self.name, "exit"))
        return False


class _NullPhase:
    """Shared no-op scope returned when nothing subscribes to phases."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class Context:
    """Bound per-process handle on the machine (one per spawned process)."""

    def __init__(self, machine: Machine, rank: int) -> None:
        self.machine = machine
        self.rank = rank
        self.process: Optional[Process] = None
        self._rpc_ids = itertools.count()
        # Topology conveniences: fixed for the machine's life, and read by
        # the collectives on every call, so plain attributes.
        topo = machine.topology
        self.topology = topo
        self.num_ranks = topo.num_ranks
        self.cluster = topo._rank_cluster[rank]
        # Pre-resolved per-rank resources (stable for the machine's life).
        self._engine = machine.engine
        self._bus = machine.bus
        self._cpu = machine.cpus[rank]
        self._stats = machine.rank_stats[rank]
        self._endpoint = machine.endpoints[rank]
        self._rank_cluster = topo._rank_cluster
        self._local_spec = topo.local
        self._wide_spec = topo.wide
        self._route = machine.router.route
        self._deliver_fns = machine._deliver
        self._transport = machine.transport
        # Reusable hot syscalls (see module docstring).
        self._compute = _Compute(self, 0.0)
        self._send = _Send(self, 0, 0, None, None)
        self._recv = _Recv(self, None)
        self._recv_nowait = _RecvNowait(self, None)
        self._sleep = _Sleep(self, 0.0)

    @property
    def now(self) -> float:
        return self._engine.now

    def is_local(self, other: int) -> bool:
        return self._rank_cluster[other] == self.cluster

    # ------------------------------------------------------------------
    # Syscall factories
    # ------------------------------------------------------------------
    def compute(self, duration: float) -> Syscall:
        """Charge ``duration`` seconds of CPU work on this rank."""
        if duration < 0:
            raise ValueError(f"negative compute duration {duration!r}")
        sc = self._compute
        if sc.in_flight:
            return _Compute(self, duration)
        sc.in_flight = True
        sc.duration = duration
        return sc

    def send(self, dst: int, size: int, tag: Any, payload: Any = None) -> Syscall:
        """Asynchronously send ``size`` bytes to rank ``dst`` under ``tag``."""
        sc = self._send
        if sc.in_flight:
            return _Send(self, dst, size, tag, payload)
        sc.in_flight = True
        sc.dst = dst
        sc.size = size
        sc.tag = tag
        sc.payload = payload
        return sc

    def multicast(self, dsts, size: int, tag: Any, payload: Any = None) -> Syscall:
        """Intra-cluster multicast: one NIC transfer, many deliveries.

        Models the LFC spanning-tree multicast of the DAS Myrinet; all
        destinations must be in this rank's cluster.
        """
        return _Multicast(self, dsts, size, tag, payload)

    def recv(self, tag: Any) -> Syscall:
        """Block until a message tagged ``tag`` arrives; yields the Message."""
        sc = self._recv
        if sc.in_flight:
            return _Recv(self, tag)
        sc.in_flight = True
        sc.tag = tag
        return sc

    def sleep(self, duration: float) -> Syscall:
        """Suspend this process for ``duration`` simulated seconds.

        Unlike :meth:`compute` no CPU is reserved or charged — the
        process is simply parked, like a timer.  Unlike yielding the raw
        :class:`~repro.sim.primitives.Sleep` primitive, the timer is
        published as an ``op`` probe event, so profilers see it instead
        of an unexplained gap in the process timeline.
        """
        if duration < 0:
            raise ValueError(f"negative sleep duration {duration!r}")
        sc = self._sleep
        if sc.in_flight:
            return _Sleep(self, duration)
        sc.in_flight = True
        sc.duration = duration
        return sc

    def recv_nowait(self, tag: Any) -> Syscall:
        """Poll for a message tagged ``tag``; yields the Message or None."""
        sc = self._recv_nowait
        if sc.in_flight:
            return _RecvNowait(self, tag)
        sc.in_flight = True
        sc.tag = tag
        return sc

    def phase(self, name: str):
        """Scope marking a named application phase on this rank::

            with ctx.phase("exchange"):
                yield ctx.send(...)
                msg = yield ctx.recv(...)

        Enter/exit events go to the probe bus (topic ``phase``) and show
        up as nested slices in the Perfetto export.  When nothing is
        subscribed this returns a shared no-op scope, so un-instrumented
        runs pay one flag check.  The runtime collectives (barriers,
        broadcasts, reductions) are pre-annotated with their own names.
        """
        if not self.machine.bus.want_phase:
            return _NULL_PHASE
        return _PhaseScope(self, name)

    # ------------------------------------------------------------------
    # Composites
    # ------------------------------------------------------------------
    def rpc(
        self,
        dst: int,
        tag: Any,
        size: int = CONTROL_BYTES,
        payload: Any = None,
    ) -> Generator:
        """Request/reply round trip: returns the reply payload.

        The server must answer with :meth:`reply` (or send to the request's
        envelope tag).  Usage: ``result = yield from ctx.rpc(dst, tag, ...)``.
        """
        reply_tag = ("_rpc", self.rank, next(self._rpc_ids))
        envelope = RpcEnvelope(reply_tag=reply_tag, body=payload)
        yield self.send(dst, size, tag, envelope)
        msg = yield self.recv(reply_tag)
        return msg.payload

    def reply(self, request: Message, size: int = CONTROL_BYTES, payload: Any = None) -> Syscall:
        """Answer an RPC ``request`` previously received."""
        envelope = request.payload
        if not isinstance(envelope, RpcEnvelope):
            raise TypeError(f"message {request.tag!r} is not an RPC request")
        return self.send(request.src, size, envelope.reply_tag, payload)

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def spawn_service(
        self, body_factory: Callable[["Context"], Generator], name: str = "svc"
    ) -> Process:
        """Start a daemon process on this same rank (shares this rank's CPU)."""
        child_name = f"rank{self.rank}.{name}"
        machine = self.machine
        if machine.bus.want_op and self.process is not None:
            machine.bus.emit("op", OpEvent(
                machine.now, self.process.name, self.rank, self.process.daemon,
                "spawn", detail=child_name))
        return machine.spawn(self.rank, body_factory, name=child_name, daemon=True)
