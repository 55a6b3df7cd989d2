"""Reliable WAN transport: timeout/retransmit/ack for inter-cluster sends.

The simulator's base network delivers every message; under an injected
:class:`~repro.faults.plan.FaultPlan` the WAN drops, and an application
whose protocol assumes delivery deadlocks.  :class:`ReliableTransport`
restores the delivery guarantee the way a WAN transport would: each
inter-cluster send becomes a sequenced wire message that is retransmitted
with exponential backoff until a (64-byte by default) ack returns, and
the receiving side acks every arrival, drops duplicates, and releases
messages to the application **in per-flow sequence order** — so the
per-(src, dst) FIFO the runtime protocols rely on survives
retransmission-induced reordering on the wire.

Wire protocol (all tags are tuples, invisible to applications):

- data:  tag ``("_rt", src, dst, seq)``, payload a :class:`_DataEnvelope`
  carrying the application tag/size/payload and the original depart time;
- ack:   tag ``("_rt-ack", src, dst, seq)``, sent from ``dst`` back to
  ``src`` the moment the data reaches the destination endpoint.

Acks and retransmissions ride the normal router path, so they contend for
gateways and WAN bandwidth like any other traffic — loss does not just
delay messages, it *costs* the degraded link capacity, which is exactly
the effect the degraded-mode experiments measure.  Acks are issued by the
transport layer without host overhead, modelling the LANai co-processor
handling of the DAS network stack.

The retransmission timeout is ``max(min_rto, rto_factor *
uncontended_rtt)`` of the data + ack pair, doubling (``backoff``) per
retry; ``max_retries`` unacked transmissions raise :class:`TransportError`
out of ``machine.run()`` — a typed failure, never a hang.

Determinism: the transport introduces no randomness at all; timers and
retransmissions are scheduled purely from engine time, so a fixed seed
and plan replay bit-identically.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from ..network.message import Message
from ..obs.events import RetransmitEvent


class TransportError(RuntimeError):
    """A reliable-transport send exhausted its retransmission budget."""

    def __init__(self, src: int, dst: int, tag, seq: int,
                 attempts: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.seq = seq
        self.attempts = attempts
        super().__init__(
            f"WAN send {src}->{dst} tag={tag!r} (flow seq {seq}) got no ack "
            f"after {attempts} transmission(s) — link presumed dead")


class _DataEnvelope:
    """What a reliable data message carries on the wire."""

    __slots__ = ("seq", "tag", "size", "payload", "send_time")

    def __init__(self, seq: int, tag, size: int, payload,
                 send_time: float) -> None:
        self.seq = seq
        self.tag = tag
        self.size = size
        self.payload = payload
        self.send_time = send_time


class _PendingSend:
    """Sender-side state of one unacked flow sequence number."""

    __slots__ = ("src", "dst", "seq", "envelope", "rto", "attempts")

    def __init__(self, src: int, dst: int, seq: int,
                 envelope: _DataEnvelope, rto: float) -> None:
        self.src = src
        self.dst = dst
        self.seq = seq
        self.envelope = envelope
        self.rto = rto
        self.attempts = 0


class _RxState:
    """Receiver-side reassembly state of one (src, dst) flow."""

    __slots__ = ("next_seq", "buffer")

    def __init__(self) -> None:
        self.next_seq = 0
        #: out-of-order envelopes awaiting the in-order flush, keyed by seq
        self.buffer: Dict[int, _DataEnvelope] = {}


class ReliableTransport:
    """Sequenced, acked, retransmitting delivery for inter-cluster sends."""

    def __init__(self, config, machine) -> None:
        self.config = config
        self.machine = machine
        self._engine = machine.engine
        self._router = machine.router
        self._deliver_fns = machine._deliver
        self._next_seq: Dict[Tuple[int, int], int] = {}
        self._pending: Dict[Tuple[int, int, int], _PendingSend] = {}
        self._rx: Dict[Tuple[int, int], _RxState] = {}
        # Pre-bound wire-delivery callbacks handed to Machine.transmit.
        self._on_data_cb = self._on_data
        self._on_ack_cb = self._on_ack

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def send(self, msg: Message, depart_time: float) -> None:
        """Take over one inter-cluster application send (from ``ctx.send``)."""
        src, dst = msg.src, msg.dst
        flow = (src, dst)
        seq = self._next_seq.get(flow, 0)
        self._next_seq[flow] = seq + 1
        envelope = _DataEnvelope(seq, msg.tag, msg.size, msg.payload,
                                 depart_time)
        config = self.config
        rtt = (self._router.uncontended_time(src, dst, msg.size)
               + self._router.uncontended_time(dst, src, config.ack_bytes))
        rto = max(config.min_rto, config.rto_factor * rtt)
        entry = _PendingSend(src, dst, seq, envelope, rto)
        self._pending[(src, dst, seq)] = entry
        self._transmit(entry, depart_time)

    def _transmit(self, entry: _PendingSend, when: float) -> None:
        entry.attempts += 1
        envelope = entry.envelope
        wire = Message(entry.src, entry.dst,
                       ("_rt", entry.src, entry.dst, entry.seq),
                       envelope.size, envelope)
        self.machine.transmit(wire, when, deliver=self._on_data_cb)
        self._engine.call_at(
            when + entry.rto,
            partial(self._on_timeout, entry, entry.attempts))

    def _on_timeout(self, entry: _PendingSend, attempt: int) -> None:
        key = (entry.src, entry.dst, entry.seq)
        if self._pending.get(key) is not entry or entry.attempts != attempt:
            return  # acked, or superseded by a newer retransmission timer
        config = self.config
        if entry.attempts > config.max_retries:
            raise TransportError(entry.src, entry.dst, entry.envelope.tag,
                                 entry.seq, entry.attempts)
        entry.rto *= config.backoff
        machine = self.machine
        machine.stats.retransmits += 1
        now = self._engine.now
        bus = machine.bus
        if bus.want_fault_retransmit:
            bus.emit("fault_retransmit", RetransmitEvent(
                now, entry.src, entry.dst, entry.seq, entry.attempts,
                entry.rto, entry.envelope.size, entry.envelope.tag))
        self._transmit(entry, now)

    def _on_ack(self, msg: Message) -> None:
        _kind, src, dst, seq = msg.tag
        self._pending.pop((src, dst, seq), None)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        envelope: _DataEnvelope = msg.payload
        src, dst = msg.src, msg.dst
        now = self._engine.now
        machine = self.machine
        # Ack every arrival, duplicates included — the earlier ack may be
        # the one that was lost.  Acks leave immediately with no host
        # overhead (co-processor), but pay gateway + WAN contention.
        ack = Message(dst, src, ("_rt-ack", src, dst, envelope.seq),
                      self.config.ack_bytes, None)
        machine.transmit(ack, now, deliver=self._on_ack_cb)
        machine.stats.acks += 1

        flow = (src, dst)
        rx = self._rx.get(flow)
        if rx is None:
            rx = self._rx[flow] = _RxState()
        seq = envelope.seq
        if seq < rx.next_seq or seq in rx.buffer:
            machine.stats.dup_data_drops += 1
            return
        rx.buffer[seq] = envelope
        # In-order release: the application sees the flow's messages in
        # send order, whatever the wire did.
        deliver = self._deliver_fns[dst]
        while rx.next_seq in rx.buffer:
            env = rx.buffer.pop(rx.next_seq)
            rx.next_seq += 1
            deliver(Message(src, dst, env.tag, env.size, env.payload,
                            send_time=env.send_time, deliver_time=now,
                            inter_cluster=True))

    # ------------------------------------------------------------------
    # End-of-run introspection (sanitizer + reports)
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Drop the machine and this transport's two bound methods once
        the run is over (:meth:`Machine.seal <repro.runtime.machine.
        Machine.seal>`); the flow state, so :meth:`unacked` and
        :meth:`buffered`, stays."""
        self.machine = self._on_data_cb = self._on_ack_cb = None

    def unacked(self) -> int:
        """Sends still awaiting an ack (in flight when the run stopped)."""
        return len(self._pending)

    def buffered(self) -> int:
        """Received data held for in-order release (gap ahead of it)."""
        return sum(len(self._rx[flow].buffer) for flow in sorted(self._rx))


__all__ = ["ReliableTransport", "TransportError"]
