"""The simulated parallel machine: topology + engine + message delivery.

A :class:`Machine` owns the event engine, the router and one
:class:`Endpoint` per rank.  Application code is spawned as per-rank
processes (``machine.spawn(rank, body)``); ``machine.run()`` drives the
simulation until every non-daemon process has finished.

CPU model: each rank has a serializing CPU clock.  ``compute`` time and
per-message send/receive overheads all reserve the CPU, so a rank that is
busy forwarding messages (a gateway or coordinator rank) genuinely loses
computation time — the effect the paper's optimizations trade against.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..network.message import Message
from ..network.router import Router
from ..network.stats import TrafficStats
from ..network.topology import Topology
from ..obs.bus import ProbeBus
from ..obs.events import DeliverEvent, SendEvent
from ..sim.engine import Engine
from ..sim.events import Mailbox
from ..sim.process import Process


class DeadlockError(RuntimeError):
    """The event queue drained while application processes were blocked."""


class CpuClock:
    """Serializes CPU work on one rank (FIFO, like a link for time)."""

    __slots__ = ("next_free", "busy_time")

    def __init__(self) -> None:
        self.next_free = 0.0
        self.busy_time = 0.0

    def reserve(self, now: float, duration: float) -> float:
        """Book ``duration`` seconds of CPU starting no earlier than ``now``;
        returns the completion time."""
        start = max(now, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_time += duration
        return end


class RankStats:
    """Per-rank accounting used by Figure 4 style analyses."""

    __slots__ = ("compute_time", "send_overhead_time", "recv_overhead_time",
                 "recv_blocked_time", "messages_sent", "messages_received",
                 "bytes_sent", "finish_time")

    def __init__(self) -> None:
        self.compute_time = 0.0
        self.send_overhead_time = 0.0
        self.recv_overhead_time = 0.0
        self.recv_blocked_time = 0.0
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.finish_time = 0.0


class Endpoint:
    """Per-rank message reception: one mailbox per tag."""

    __slots__ = ("rank", "_boxes")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._boxes: Dict[Any, Mailbox] = {}

    def box(self, tag: Any) -> Mailbox:
        mb = self._boxes.get(tag)
        if mb is None:
            mb = Mailbox()
            self._boxes[tag] = mb
        return mb

    def deliver(self, msg: Message) -> None:
        self.box(msg.tag).put(msg)

    def pending(self) -> Dict[Any, int]:
        return {tag: len(mb) for tag, mb in self._boxes.items() if len(mb)}

    def waiting(self) -> List[Any]:
        return [tag for tag, mb in self._boxes.items() if mb.waiting_receivers]


class Machine:
    """A two-layer parallel machine executing simulated processes."""

    def __init__(self, topology: Topology, seed: int = 0, tracer=None,
                 bus: Optional[ProbeBus] = None, sanitize: bool = False,
                 faults=None) -> None:
        self.topology = topology
        self.seed = seed
        #: the probe bus every layer of this machine publishes into;
        #: subscribe/attach before or after construction, at will
        self.bus = bus if bus is not None else ProbeBus()
        #: optional :class:`repro.trace.Tracer`; kept as an attribute for
        #: backwards compatibility, attached to the bus like any subscriber
        self.tracer = tracer
        if tracer is not None:
            self.bus.attach(tracer)
        #: opt-in runtime protocol sanitizer (:mod:`repro.lint.sanitizer`);
        #: an ordinary bus subscriber, so ``sanitize=False`` keeps every
        #: topic cold and the hot path un-instrumented
        self.sanitizer = None
        if sanitize:
            from ..lint.sanitizer import Sanitizer  # avoid an import cycle

            self.sanitizer = Sanitizer()
            self.bus.attach(self.sanitizer)
        self.engine = Engine()
        self.stats = TrafficStats(topology.num_clusters)
        self.bus.attach(self.stats)
        self.router = Router(topology, self.stats, seed=seed, bus=self.bus)
        self.endpoints: List[Endpoint] = [Endpoint(r) for r in topology.ranks()]
        # Pre-bound per-rank deliver methods: transmit() hands these to the
        # router so the un-instrumented path allocates nothing per message.
        self._deliver: List[Callable[[Message], None]] = [
            ep.deliver for ep in self.endpoints
        ]
        self.cpus: List[CpuClock] = [CpuClock() for _ in topology.ranks()]
        self.rank_stats: List[RankStats] = [RankStats() for _ in topology.ranks()]
        self._main_procs: List[Process] = []
        self._daemon_procs: List[Process] = []
        #: every spawned process's Context, for :meth:`seal` to reach
        self._contexts: List["Context"] = []
        self._live_main = 0
        #: compiled :class:`~repro.faults.inject.FaultInjector` and
        #: :class:`~repro.runtime.transport.ReliableTransport`, or None.
        #: With ``faults=None`` (the default) these stay None and every
        #: hot-path hook is one attribute load and a branch — the
        #: call-count parity guard in benchmarks/test_zero_cost_when_off.py
        #: holds the subsystem to exactly zero disabled cost.
        self.fault_injector = None
        self.transport = None
        if faults is not None and faults.active:
            from ..faults.inject import FaultInjector  # avoid an import cycle

            if faults.has_faults:
                self.fault_injector = FaultInjector(faults, self)
            if faults.transport is not None:
                from .transport import ReliableTransport

                self.transport = ReliableTransport(faults.transport, self)

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        rank: int,
        body_factory: Callable[["Context"], Generator],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> Process:
        """Start a process on ``rank``.  ``body_factory`` receives a bound
        :class:`~repro.runtime.context.Context` and returns the generator.

        Daemon processes (services) do not keep the run alive.
        """
        from .context import Context  # local import to avoid a cycle

        ctx = Context(self, rank)
        pname = name or f"rank{rank}"
        proc = Process(self.engine, body_factory(ctx), name=pname, daemon=daemon)
        ctx.process = proc
        self._contexts.append(ctx)
        if daemon:
            self._daemon_procs.append(proc)
        else:
            self._main_procs.append(proc)
            self._live_main += 1
            proc.on_done(self._main_done)
        proc.start()
        return proc

    def _main_done(self, proc: Process) -> None:
        self._live_main -= 1
        rank = self._rank_of(proc)
        if rank is not None:
            self.rank_stats[rank].finish_time = self.engine.now
        if self._live_main == 0:
            # End the simulation right after this callback: remaining
            # daemon events stay queued, exactly like the old step() loop
            # that re-checked the live count before every event.
            self.engine.stop()

    def _rank_of(self, proc: Process) -> Optional[int]:
        name = proc.name
        if name.startswith("rank"):
            head = name[4:].split(".", 1)[0]
            if head.isdigit():
                return int(head)
        return None

    # ------------------------------------------------------------------
    # Message transport (called from Context syscalls)
    # ------------------------------------------------------------------
    def transmit(self, msg: Message, depart_time: float,
                 deliver: Optional[Callable[[Message], None]] = None) -> None:
        """Route ``msg``; delivery is scheduled through the engine (shared
        resources are reserved in arrival order along the path).

        ``deliver`` overrides the destination callback — the reliable
        transport routes its wire messages into its own handlers this way
        while still paying every link/gateway cost and emitting the same
        probe events.
        """
        bus = self.bus
        if deliver is None:
            deliver = self._deliver[msg.dst]
        if bus.want_deliver:
            final = deliver
            engine = self.engine

            def deliver(m: Message) -> None:
                bus.emit("deliver", DeliverEvent(engine.now, m.src, m.dst,
                                                 m.size, m.tag,
                                                 engine.now - m.send_time))
                final(m)
        self.router.route(msg, depart_time, self.engine, deliver)
        if bus.want_send:
            # After route(): the message knows whether it crossed the WAN.
            bus.emit("send", SendEvent(depart_time, msg.src, msg.dst,
                                       msg.size, msg.tag, msg.inter_cluster))
        st = self.rank_stats[msg.src]
        st.messages_sent += 1
        st.bytes_sent += msg.size

    def transmit_multicast(self, src: int, dsts: List[int], size: int,
                           tag: Any, payload: Any, depart_time: float) -> float:
        """Intra-cluster hardware multicast (LFC-style spanning tree).

        The payload crosses the sender's NIC *once* and is delivered to all
        destinations one local latency later; traffic statistics count it
        once, matching how the DAS measurements count multicast data.
        All destinations must be in the sender's cluster.
        """
        rank_cluster = self.topology._rank_cluster
        home = rank_cluster[src]
        for dst in dsts:
            if rank_cluster[dst] != home:
                raise ValueError(
                    f"multicast from {src} to {dst} crosses clusters; "
                    f"use point-to-point sends over the WAN"
                )
        deliver_time = self.router.nic(src).transfer(depart_time, size)
        self.bus.emit_traffic_intra(size)
        deliver_fns = self._deliver
        for dst in dsts:
            msg = Message(src, dst, tag, size, payload,
                          send_time=depart_time, deliver_time=deliver_time)
            self.engine.call_at(deliver_time, partial(deliver_fns[dst], msg))
        st = self.rank_stats[src]
        st.messages_sent += 1
        st.bytes_sent += size
        return deliver_time

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until all non-daemon processes finish; returns finish time.

        Raises :class:`DeadlockError` if the event queue drains while main
        processes are still blocked (a protocol bug in the application);
        with the sanitizer attached the error carries the wait-for-cycle
        report.  ``until`` and ``max_events`` bound this call's simulated
        horizon and event budget: reaching either with events still
        pending raises :class:`TimeoutError` (the protocol fuzz tests use
        the budget to guard against runaway schedules); a queue that
        drained inside the bound is still a deadlock.
        """
        eng = self.engine
        if self._live_main > 0:
            # The engine runs flat out; _main_done stops it the moment the
            # last main process finishes (leaving daemon events queued).
            eng.run(until=until, max_events=max_events)
            if self._live_main > 0:
                # The engine returned on its own: it either drained, hit
                # the horizon, or exhausted the event budget with main
                # processes still blocked.  Only events still pending make
                # it a timeout: a drained queue is a deadlock whatever
                # horizon or budget this call was given.
                if eng.pending > 0:
                    if until is not None:
                        raise TimeoutError(
                            f"simulation exceeded until={until}s with "
                            f"{self._live_main} main processes still live"
                        )
                    if max_events is not None:
                        raise TimeoutError(
                            f"simulation exceeded the {max_events}-event "
                            f"budget with {self._live_main} main processes "
                            f"still live"
                        )
                blocked = [p.name for p in self._main_procs if not p.finished]
                waiting = {
                    ep.rank: ep.waiting() for ep in self.endpoints if ep.waiting()
                }
                detail = ""
                if self.sanitizer is not None:
                    report = self.sanitizer.on_deadlock(self)
                    detail = "\n" + report.render()
                raise DeadlockError(
                    f"event queue drained with live processes {blocked}; "
                    f"ranks blocked on tags: {waiting}{detail}"
                )
        self.stats.mark_end(eng.now)
        if self.sanitizer is not None and self._live_main == 0:
            self.sanitizer.finish(self, drained=(eng.pending == 0))
        return eng.now

    def seal(self) -> None:
        """Cut the reference cycles that only a live run needs.

        While a run is live the hot path keeps self-references for
        speed: each process schedules its own bound ``trampoline``, each
        context refills five cached syscalls that point back at it, a
        blocked ``_Recv`` parks a bound method of itself in a mailbox,
        queued events hold the engine, and the fault injector and the
        reliable transport hold the machine.  Every one is a cycle, so a
        finished machine would wait for a gen-2 collection.
        :func:`~repro.runtime.run.run_spmd` calls this once :meth:`run`
        has returned; the machine is then an acyclic, read-only record
        that reference counting frees when its last holder lets go.
        ``runtime()``, ``results()``, the stats, the engine's counters,
        the sanitizer's findings, ``transport.buffered()`` and the
        injector's counters stay readable.  The machine cannot run
        again, and daemons still blocked are closed.
        """
        for ctx in self._contexts:
            ctx._recv._receiver = None
            ctx._compute = ctx._send = ctx._recv = None
            ctx._recv_nowait = ctx._sleep = None
        self._contexts = []
        for proc in self._main_procs + self._daemon_procs:
            proc.trampoline = None
            if not proc.finished:
                proc._body = None        # a daemon still parked
        for endpoint in self.endpoints:
            for box in endpoint._boxes.values():
                box.drop_waiters()
        self.engine.seal()
        if self.transport is not None:
            self.transport.detach()
        if self.fault_injector is not None:
            self.fault_injector.detach()

    @property
    def now(self) -> float:
        return self.engine.now

    def runtime(self) -> float:
        """Completion time of the slowest main process."""
        return max(s.finish_time for s in self.rank_stats)

    def results(self) -> List[Any]:
        """Return values of all main processes, in spawn order."""
        return [p.result for p in self._main_procs]
