"""Analytic replay of a recorded :class:`~repro.whatif.record.CommDag`.

The evaluator predicts the runtime of an application under *any*
``LinkSpec``/``Topology`` parameterization of the recorded cluster shape
without re-running the application coroutines.  It is a longest-path
computation over the recorded dependency graph with the same first-order
resource model the simulator uses:

- per-rank **CPU clocks** serialize compute intervals (FIFO);
- per-rank **NIC links** serialize outgoing bytes (``size/bandwidth``),
  then propagate for the local latency;
- per-cluster **gateway CPUs** charge a fixed per-message service;
- per-pair **WAN links** serialize bytes at the wide bandwidth and
  propagate at the wide latency, one link per hop of the WAN route;
- per-cluster **gateway egress links** dispatch arriving WAN traffic onto
  the destination cluster's local network.

Process replay comes in two flavors:

**Main processes** advance strictly in recorded program order: their
control flow is the program text, and each receive is pinned to the
specific message that satisfied it (FIFO per channel, so the pin is
parameter-stable for deterministic apps).

**Daemon services** are reactive dispatchers — ``recv`` in a loop,
handle, repeat — whose recorded arrival order is a property of the
*recorded* link parameters, not of the program.  Replaying them in
recorded order manufactures false dependencies (a local request queued
behind a slow WAN reply it never waited for).  Instead the evaluator
splits a daemon's op stream into handler blocks (one receive plus the
work it triggered) and executes blocks in *delivery order*, exactly like
the event-driven server it models.

Processes advance greedily (plain arithmetic, no coroutines) until they
block on an undelivered message.  Because sends are asynchronous in the
simulator — the sender pays only the host overhead while the NIC/WAN
pipeline drains through the engine — every shared-resource reservation
(NIC, gateway CPU, WAN wire, gateway egress) can be deferred to a small
``(time, seq)`` event heap without perturbing any process clock.  The
heap hands out reservations in global time order, exactly how the
discrete-event router resolves contention, while the expensive part of
the simulation (driving application coroutines through the scheduler) is
replaced by table lookups.

Everything structural is compiled once per :class:`Evaluator`: main op
streams become receive-headed segments, daemon streams become handler
blocks, per-channel tables are cached per wiring.  Per evaluation, each
message then costs O(1) bookkeeping — a consumed ``(channel, k)`` pin is
unique and flattened to a global pin index at compile time, so delivery
resolves its waiter with a single flat-array load, and
daemons keep a ready-heap of delivered-but-unserved blocks instead of
rescanning their backlog.  A full simulation spends orders of magnitude
more work per message stepping coroutines through the scheduler; one
Figure-3 grid point evaluates in milliseconds (see
``benchmarks/test_whatif_speedup.py``).

The walk (:meth:`Evaluator.walk`) is generic in its time value.
:meth:`Evaluator.evaluate` runs it on floats; :mod:`repro.replay.compile`
runs the same method on symbolic stamps, which turns the schedule into a
(max, +) program instead of a number.  There is no second copy to keep
in step: a change to the model here is a change to every pricing path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from ..network.topology import Topology
from .record import (OP_COMPUTE, OP_MCAST, OP_POLL, OP_RECV, OP_SEND,
                     OP_SPAWN, CommDag)

# Heap event kinds (field 2 of the heap tuples).  A send whose NIC could
# not be booked inline waits on the heap under its own op code
# (``OP_SEND`` / ``OP_MCAST``); the two WAN stages are numbered past the
# op codes.
_EV_GW = OP_POLL + 1      # gateway CPU + one WAN hop
_EV_ARRIVE = OP_POLL + 2  # destination gateway CPU + egress, then deliver


class EvaluationError(RuntimeError):
    """The DAG could not be replayed to completion (inconsistent recording)."""


def _later(a: float, b: float) -> float:
    """``join`` of the float instance: the later of two times.  (Not the
    builtin ``max``: a two-argument ``max`` call costs three times what
    this does, on the walk's hottest operation.)"""
    return b if b > a else a


class _Proc:
    """Mutable replay state of one recorded process."""

    __slots__ = ("index", "rank", "daemon", "root", "solo_cpu", "solo_send",
                 "started", "finished", "t", "pc", "segs", "prologue",
                 "blocks", "ready", "nserved")

    def __init__(self, index: int, zero, rank: int, daemon: bool, root: bool,
                 solo_cpu: bool, solo_send: bool, segs, prologue,
                 blocks) -> None:
        self.index = index         # position in ``dag.procs``
        self.rank = rank
        self.daemon = daemon
        self.root = root
        #: True when no other process computes on this rank, so the CPU
        #: clock degenerates to the process's own clock.
        self.solo_cpu = solo_cpu
        #: True when this is the rank's only sending process: its NIC
        #: bookings are then already in time order and skip the heap.
        self.solo_send = solo_send
        self.started = root
        self.finished = False
        self.t = zero              # a time of the walk's value type
        self.pc = 0                # main: current segment index
        self.segs = segs           # main: ((cid, k, pid, body, fdur), ...);
                                   # cid<0 = segment with no recv head
        self.prologue = prologue   # daemon: ops before the first receive;
                                   # None once they have run
        self.blocks = blocks       # daemon: ((cid, k, pid, body), ...)
        self.ready: List[tuple] = []  # daemon: heap of delivered, unserved
                                      # blocks, (delivery time, block index)
        self.nserved = 0


class Evaluator:
    """Replays one :class:`CommDag` under arbitrary link parameters.

    Construct once per recording; :meth:`evaluate` may be called for any
    number of topologies (one Figure-3 grid = 42 calls on one instance).
    The op streams are compiled to segment/block form at construction and
    per-channel tables (endpoints, overheads, WAN routes) are cached per
    wiring — neither depends on bandwidth or latency, so a grid sweep
    pays only for the replay itself.
    """

    def __init__(self, dag: CommDag) -> None:
        if dag.timing_sensitive:
            raise EvaluationError(
                "refusing to evaluate a timing-sensitive DAG: "
                + "; ".join(dag.sensitive_reasons))
        self.dag = dag
        self._n_ranks = sum(dag.cluster_sizes)
        self._tables: Dict[tuple, tuple] = {}
        self._compile()

    def _compile(self) -> None:
        """Turn op streams into replay form: main segments, daemon blocks."""
        computing: Dict[int, int] = {}
        sending: Dict[int, int] = {}
        ch_count = [0] * len(self.dag.channels)
        for p in self.dag.procs:
            if any(op[0] == OP_COMPUTE for op in p.ops):
                computing[p.rank] = computing.get(p.rank, 0) + 1
            if any(op[0] in (OP_SEND, OP_MCAST) for op in p.ops):
                sending[p.rank] = sending.get(p.rank, 0) + 1
            for op in p.ops:
                if op[0] == OP_SEND:
                    ch_count[op[1]] += 1
                elif op[0] == OP_MCAST:
                    for c in op[1]:
                        ch_count[c] += 1

        # Flatten every (channel, k) pin to one global index: the DAG is
        # static, so per-evaluation delivery state can live in flat arrays
        # instead of a dict per channel.
        pin_off = [0] * len(ch_count)
        total = 0
        for cid, cnt in enumerate(ch_count):
            pin_off[cid] = total
            total += cnt
        self._pin_off = pin_off
        self._n_pins = total
        #: pin -> index of the daemon handler block it heads (-1: the pin
        #: is consumed by a main process, or by nobody)
        self._pin_block = pin_block = [-1] * total

        self._compiled = []
        for p in self.dag.procs:
            if any(op[0] == OP_POLL for op in p.ops):  # pragma: no cover
                raise EvaluationError(
                    f"poll op in {p.name} of a DAG not flagged "
                    f"timing-sensitive")
            # Split into receive-headed chunks:
            # (cid, k, pin-index, ops-after-the-recv); cid < 0 = no recv.
            head = (-1, -1, -1)
            chunks: List[Tuple[int, int, int, list]] = []
            body: List[tuple] = []
            for op in p.ops:
                if op[0] == OP_RECV:
                    chunks.append((head[0], head[1], head[2], body))
                    head = (op[1], op[2], pin_off[op[1]] + op[2])
                    body = []
                else:
                    body.append(op)
            chunks.append((head[0], head[1], head[2], body))
            solo = computing.get(p.rank, 0) <= 1
            solo_send = sending.get(p.rank, 0) <= 1
            if p.daemon:
                prologue = chunks[0][3]
                blocks = tuple((c, k, pid, tuple(b))
                               for c, k, pid, b in chunks[1:])
                for bi, block in enumerate(blocks):
                    pin_block[block[2]] = bi
                self._compiled.append((p.rank, True, p.spawned_by is None,
                                       solo, solo_send, None, prologue,
                                       blocks))
            else:
                # A segment whose body is nothing but compute collapses to
                # a single duration (fdur >= 0); deliver() fast-forwards
                # such segments without entering the interpreter.
                segs = tuple(
                    (c, k, pid, tuple(b),
                     sum(op[1] for op in b)
                     if all(op[0] == OP_COMPUTE for op in b) else -1.0)
                    for c, k, pid, b in chunks)
                self._compiled.append((p.rank, False, p.spawned_by is None,
                                       solo, solo_send, segs, None, None))

    # ------------------------------------------------------------------
    def _channel_tables(self, topology: Topology) -> tuple:
        """Bandwidth/latency-independent per-channel constants, cached."""
        local, wide = topology.local, topology.wide
        key = (local.send_overhead, local.recv_overhead, wide.send_overhead,
               wide.recv_overhead, topology.wan_shape, topology.wan_hub)
        tables = self._tables.get(key)
        if tables is not None:
            return tables

        dag = self.dag
        cluster_of = topology.cluster_of
        n_ch = len(dag.channels)
        ch_src = [0] * n_ch
        ch_dst_cluster = [0] * n_ch
        ch_inter = [False] * n_ch
        ch_send_ov = [0.0] * n_ch
        ch_recv_ov = [0.0] * n_ch
        ch_hops: List[Tuple[Tuple[int, int], ...]] = [()] * n_ch
        for cid, (src, dst, _tag) in enumerate(dag.channels):
            sc, dc = cluster_of(src), cluster_of(dst)
            inter = sc != dc
            ch_src[cid] = src
            ch_dst_cluster[cid] = dc
            ch_inter[cid] = inter
            spec = wide if inter else local
            ch_send_ov[cid] = spec.send_overhead
            ch_recv_ov[cid] = spec.recv_overhead
            if inter:
                ch_hops[cid] = tuple(topology.wan_route(sc, dc))
        tables = (ch_src, ch_dst_cluster, ch_inter, ch_send_ov, ch_recv_ov,
                  ch_hops)
        self._tables[key] = tables
        return tables

    # ------------------------------------------------------------------
    def evaluate(self, topology: Topology) -> float:
        """Predicted runtime of the recorded application on ``topology``."""
        return max(self.walk(topology))

    def walk(self, topology: Topology, zero=0.0, join=_later, wide_bw=None,
             wide_lat=None, queues=None) -> list:
        """The schedule walk: the finish time of every root main process.

        This is the only implementation of the walk.  It is written in
        plain arithmetic over a *time* value: anything that adds a cost
        with ``+``, orders by its reference time under ``<``/``>`` (heap
        and service order, ties broken by ``seq`` / block index), starts
        from ``zero``, and meets another time through ``join(a, b)``, the
        later of the two.  :meth:`evaluate` walks floats.  The compiler
        (:mod:`repro.replay.compile`) walks symbolic stamps: ``wide_bw``
        and ``wide_lat`` are then symbolic too, so that ``size / wide_bw``
        and ``+ wide_lat`` read the same here.  Its adaptive mode also
        passes ``queues``, a recorder called *instead of* ``join``
        wherever a contended clock is booked:

        - ``book(key, arrival, free, cost)`` for ``join(arrival, free) +
          cost`` at a CPU, NIC, gateway, WAN-wire or egress clock;
        - ``wake(proc, now)`` for ``join(proc.t, now)`` when a daemon is
          scheduled;
        - ``serve(proc, arrival, free)`` for ``join(free, arrival)`` at
          the start of a handler block, and ``served(proc, end)`` once
          the block's body has run.

        These arguments are plumbing with one caller each, not settings;
        ``docs/replay.md`` ("One walk, three value types") has the
        contract in full.
        """
        dag = self.dag
        if topology.cluster_sizes != dag.cluster_sizes:
            raise EvaluationError(
                f"topology shape {topology.cluster_sizes} does not match the "
                f"recorded shape {dag.cluster_sizes}")
        if topology.wan_variability is not None:
            raise EvaluationError(
                "cannot evaluate under WAN variability: the analytic replay "
                "models first-order contention only; simulate jittered "
                "topologies directly")

        local_lat = topology.local.latency
        local_bw = topology.local.bandwidth
        if wide_bw is None:
            wide_bw = topology.wide.bandwidth
            wide_lat = topology.wide.latency
        local_send_ov = topology.local.send_overhead
        gw_service = topology.gateway_overhead
        n_clusters = topology.num_clusters

        (ch_src, ch_dst_cluster, ch_inter, ch_send_ov, ch_recv_ov,
         ch_hops) = self._channel_tables(topology)
        n_ch = len(ch_src)

        # Resource clocks (``next_free`` times, all starting idle).
        cpu_free = [zero] * self._n_ranks
        nic_free = [zero] * self._n_ranks
        gw_free = [zero] * n_clusters
        gwout_free = [zero] * n_clusters
        wan_free = {pair: zero for pair in topology.wan_pairs()}

        procs = [_Proc(i, zero, *c) for i, c in enumerate(self._compiled)]
        # Per-channel deliveries arrive in send order (the NIC and WAN
        # pipelines are FIFO per channel), so message k on channel cid is
        # pin ``pin_off[cid] + k`` and delivery state is three flat arrays:
        # how many landed per channel, when each pin landed, and which
        # process (if any) is waiting on it.  The waiter is stored bare —
        # a tuple per parked receive would outlive the walk's other
        # garbage and be what drives the cyclic GC during an evaluation.
        pin_off = self._pin_off
        pin_block = self._pin_block
        ch_next = [0] * n_ch
        dlv_at = [zero] * self._n_pins
        pin_waiter: List = [None] * self._n_pins
        # Daemons wait on every handler block up front; their ready-heaps
        # then receive (delivery_time, block) pairs as messages land.
        for proc in procs:
            if proc.daemon:
                for _cid, _k, pid, _body in proc.blocks:
                    pin_waiter[pid] = proc

        # Heap events: (time, seq, kind, channel-or-channels, size, hop).
        # Pops are monotone in time: processes only emit sends at or after
        # the delivery time that woke them, so reservations taken at pop
        # time replicate the engine's arrival-order contention handling.
        heap: List[tuple] = []
        seq = 0
        runnable: List[tuple] = [(p, zero) for p in procs if p.root]
        runnable_append = runnable.append
        pop = heapq.heappop
        push = heapq.heappush

        def deliver(cid: int, at) -> None:
            k = ch_next[cid]
            ch_next[cid] = k + 1
            pid = pin_off[cid] + k
            dlv_at[pid] = at
            proc = pin_waiter[pid]
            if proc is None:
                return
            bi = pin_block[pid]
            if bi >= 0:
                push(proc.ready, (at, bi))
                if proc.started:
                    runnable_append((proc, at))
                return
            # A parked main: this delivery is exactly the message heading
            # its current segment, so complete the receive here and resume
            # it with that segment's body — no re-check, no round trip
            # through the runnable list.
            t = join(proc.t, at) + ch_recv_ov[cid]
            segs = proc.segs
            i = proc.pc
            if proc.solo_cpu:
                # Compute-only segments on a solo-CPU rank (the
                # overwhelming majority) advance the clock by a
                # precomputed duration; fast-forward through them until
                # the process parks, finishes, or needs the interpreter.
                n = len(segs)
                while True:
                    fdur = segs[i][4]
                    if fdur < 0.0:
                        proc.pc = i
                        break
                    t += fdur
                    i += 1
                    if i == n:
                        proc.pc = i
                        proc.t = t
                        proc.finished = True
                        return
                    seg = segs[i]
                    scid = seg[0]
                    if seg[1] < ch_next[scid]:
                        t = join(t, dlv_at[seg[2]]) + ch_recv_ov[scid]
                    else:
                        proc.pc = i
                        proc.t = t
                        pin_waiter[seg[2]] = proc
                        return
            run(proc, t, segs[i][3])

        def run(proc: _Proc, t, body) -> None:
            """Interpret ``body`` from clock ``t``, then keep the process
            going: a main takes its next segment while the message heading
            it has landed (and parks on it otherwise); a daemon serves
            whichever delivered block arrived first — reactive-server
            semantics, not recorded order — until none is left."""
            nonlocal seq
            rank = proc.rank
            solo = proc.solo_cpu
            solo_send = proc.solo_send
            serving = False        # adaptive: a block is open in ``queues``
            while True:
                for op in body:
                    code = op[0]
                    if code == OP_COMPUTE:
                        if solo:
                            t += op[1]
                        else:
                            # CpuClock.reserve: FIFO per rank.
                            if queues is None:
                                t = join(t, cpu_free[rank]) + op[1]
                            else:
                                t = queues.book(("cpu", rank), t,
                                                cpu_free[rank], op[1])
                            cpu_free[rank] = t
                    elif code == OP_SPAWN:
                        child_idx = op[1]
                        if child_idx >= 0:
                            child = procs[child_idx]
                            if not child.started:
                                child.started = True
                                runnable_append((child, t))
                    else:  # OP_SEND / OP_MCAST: (code, channel(s), size)
                        dest = op[1]
                        t += (ch_send_ov[dest] if code == OP_SEND
                              else local_send_ov)
                        if solo_send:
                            # Sole sender on this rank: its NIC bookings
                            # arrive pre-sorted, so skip the heap round
                            # trip and book/deliver inline.
                            wire = op[2] / local_bw
                            if queues is None:
                                end = join(t, nic_free[rank]) + wire
                            else:
                                end = queues.book(("nic", rank), t,
                                                  nic_free[rank], wire)
                            nic_free[rank] = end
                            arrive = end + local_lat
                            if code == OP_MCAST:
                                for c in dest:
                                    deliver(c, arrive)
                            elif ch_inter[dest]:
                                push(heap, (arrive, seq, _EV_GW, dest,
                                            op[2], 0))
                                seq += 1
                            else:
                                deliver(dest, arrive)
                        else:
                            push(heap, (t, seq, code, dest, op[2], 0))
                            seq += 1
                if proc.daemon:
                    if serving:
                        queues.served(proc, t)
                    if not proc.ready:
                        proc.finished = proc.nserved == len(proc.blocks)
                        break
                    at, bi = pop(proc.ready)
                    cid, _k, _pid, body = proc.blocks[bi]
                    if queues is None:
                        t = join(t, at)
                    else:
                        t = queues.serve(proc, at, t)
                        serving = True
                    t += ch_recv_ov[cid]
                    proc.nserved += 1
                else:
                    i = proc.pc = proc.pc + 1
                    if i == len(proc.segs):
                        proc.finished = True
                        break
                    cid, k, pid, body, _fdur = proc.segs[i]
                    if k < ch_next[cid]:
                        t = join(t, dlv_at[pid]) + ch_recv_ov[cid]
                    else:
                        pin_waiter[pid] = proc
                        break
            proc.t = t

        # Drain: run everything runnable, then advance the transport
        # pipeline one event at a time, waking processes as messages land.
        # Delivery times are known the moment a message's last resource is
        # booked, so deliver() is called directly from the booking event —
        # waking a process "early" in processing order is safe because its
        # clock advances to the (correct, future) delivery time and any
        # sends it emits land back on the heap in time order.
        while True:
            while runnable:
                proc, at = runnable.pop()
                if proc.finished:
                    continue
                if not proc.daemon:
                    # A main is scheduled exactly once, at its first
                    # (receive-less) segment; deliver() resumes it after.
                    run(proc, join(proc.t, at), proc.segs[proc.pc][3])
                elif proc.ready or proc.prologue is not None:
                    if queues is None:
                        t = join(proc.t, at)
                    else:
                        t = queues.wake(proc, at)
                    body = proc.prologue or ()
                    proc.prologue = None
                    run(proc, t, body)
            if not heap:
                break
            at, _, kind, cid, size, hop = pop(heap)
            if kind < _EV_GW:
                # A deferred OP_SEND / OP_MCAST: book the sender's NIC
                # (Link.transfer, FIFO in time order), exactly as a sole
                # sender does inline.
                rank = ch_src[cid if kind == OP_SEND else cid[0]]
                if queues is None:
                    end = join(at, nic_free[rank]) + size / local_bw
                else:
                    end = queues.book(("nic", rank), at, nic_free[rank],
                                      size / local_bw)
                nic_free[rank] = end
                arrive = end + local_lat
                if kind == OP_MCAST:
                    for c in cid:
                        deliver(c, arrive)
                elif ch_inter[cid]:
                    push(heap, (arrive, seq, _EV_GW, cid, size, 0))
                    seq += 1
                else:
                    deliver(cid, arrive)
            elif kind == _EV_GW:
                # At the gateway of hops[hop][0]: per-message
                # store-and-forward service, then the WAN wire.
                hops = ch_hops[cid]
                link = hops[hop]
                here = link[0]
                if queues is None:
                    ready_at = join(at, gw_free[here]) + gw_service
                    wend = join(ready_at, wan_free[link]) + size / wide_bw
                else:
                    ready_at = queues.book(("gw", here), at, gw_free[here],
                                           gw_service)
                    wend = queues.book(("wan",) + link, ready_at,
                                       wan_free[link], size / wide_bw)
                gw_free[here] = ready_at
                wan_free[link] = wend
                # Star/ring shapes: store-and-forward at the intermediate
                # cluster's gateway, then onward.
                hop += 1
                push(heap, (wend + wide_lat, seq,
                            _EV_GW if hop < len(hops) else _EV_ARRIVE,
                            cid, size, hop))
                seq += 1
            else:  # _EV_ARRIVE
                # Destination cluster: gateway service, then dispatch onto
                # the local network via the shared gateway egress link.
                dst = ch_dst_cluster[cid]
                if queues is None:
                    ready_at = join(at, gw_free[dst]) + gw_service
                    oend = join(ready_at, gwout_free[dst]) + size / local_bw
                else:
                    ready_at = queues.book(("gw", dst), at, gw_free[dst],
                                           gw_service)
                    oend = queues.book(("gwout", dst), ready_at,
                                       gwout_free[dst], size / local_bw)
                gw_free[dst] = ready_at
                gwout_free[dst] = oend
                deliver(cid, oend + local_lat)

        stalled = [p for p in procs
                   if p.started and not p.finished and not p.daemon]
        if stalled:
            names = [dag.procs[p.index].name for p in stalled[:5]]
            raise EvaluationError(
                f"replay stalled with {len(stalled)} main processes "
                f"blocked (first: {names}); the recording is inconsistent "
                f"with this parameterization")
        finish = [p.t for p in procs if p.root and not p.daemon]
        if not finish:
            raise EvaluationError("recording contains no main processes")
        return finish
