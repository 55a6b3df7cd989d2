"""Record-once communication DAGs from an instrumented run.

A :class:`Recorder` subscribes to the ``op`` topic of the probe bus (see
:class:`repro.obs.events.OpEvent`) and turns one simulated run into a
:class:`CommDag`: per-process ordered operation lists (compute intervals,
sends with destinations and sizes, receives matched to the *specific*
message that satisfied them) plus a channel table.  Everything recorded is
a property of the application's logical structure — no link latencies, no
bandwidths, no queueing — so the DAG can be re-evaluated under any
parameterization of the same cluster shape by
:class:`repro.whatif.evaluate.Evaluator`.

Message matching follows LLAMP's dependency-graph construction (Shen et
al.): each completed receive is pinned to the k-th message of its
``(src, dst, tag)`` channel, which is FIFO end-to-end in the transport
model, so the dependency edge survives parameter changes as long as the
application's *control flow* does.  Where it does not — work stealing,
arrival-order-driven protocols, non-blocking polls — the recording is
flagged ``timing_sensitive`` and callers fall back to full simulation
(see :mod:`repro.whatif.validate`).
"""

from __future__ import annotations

import hashlib
import marshal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..apps import default_config, get_builder, is_timing_dependent
from ..experiments import grids
from ..network.topology import Topology
from ..obs.bus import ProbeBus
from ..obs.events import OpEvent
from ..runtime.run import run_spmd

# Compact op codes used in CommDag op tuples (and by the evaluator).
OP_COMPUTE = 0    # (OP_COMPUTE, duration)
OP_SEND = 1       # (OP_SEND, channel_id, size)
OP_RECV = 2       # (OP_RECV, channel_id, index_in_channel)
OP_MCAST = 3      # (OP_MCAST, (channel_id, ...), size)
OP_SPAWN = 4      # (OP_SPAWN, child_proc_index)
OP_POLL = 5       # (OP_POLL, channel_id_or_-1, index_or_-1)

#: Grid point a DAG is recorded at by default: mid-grid, so the recording
#: run exercises both layers without extreme queueing.
REFERENCE_POINT: Tuple[float, float] = (0.95, 3.3)


@dataclass
class ProcRecord:
    """One simulated process: its identity and ordered operations."""

    name: str
    rank: int
    daemon: bool
    ops: List[tuple] = field(default_factory=list)
    #: index of the spawning proc in CommDag.procs, or None for roots
    #: (the per-rank mains started by ``run_spmd``).
    spawned_by: Optional[int] = None


@dataclass
class CommDag:
    """A recorded, link-parameter-independent communication DAG."""

    procs: List[ProcRecord]
    #: channel_id -> (src_rank, dst_rank, tag); tags are kept for
    #: debugging only — the evaluator needs just the endpoints.
    channels: List[Tuple[int, int, Any]]
    cluster_sizes: Tuple[int, ...]
    #: True when the recording contains constructs whose control flow
    #: depends on message timing; predictions from such a DAG are invalid.
    timing_sensitive: bool = False
    sensitive_reasons: List[str] = field(default_factory=list)

    @property
    def num_ops(self) -> int:
        return sum(len(p.ops) for p in self.procs)

    @property
    def num_messages(self) -> int:
        n = 0
        for p in self.procs:
            for op in p.ops:
                if op[0] == OP_SEND:
                    n += 1
                elif op[0] == OP_MCAST:
                    n += len(op[1])
        return n

    def digest(self) -> str:
        """Hex blake2b of everything the DAG prices by: two DAGs with
        the same digest evaluate and compile identically.  Channel tags
        are left out (debugging only, and of any type); marshal version
        2 is used because its bytes depend on values alone (version 3
        and later also encode object identity and string interning)."""
        body = (self.cluster_sizes,
                [(src, dst) for src, dst, _tag in self.channels],
                [(p.name, p.rank, p.daemon, p.spawned_by, p.ops)
                 for p in self.procs])
        return hashlib.blake2b(marshal.dumps(body, 2),
                               digest_size=16).hexdigest()


class Recorder:
    """Probe-bus subscriber building a :class:`CommDag` from ``op`` events."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._procs: List[ProcRecord] = []
        self._by_name: Dict[str, int] = {}
        self._channels: List[Tuple[int, int, Any]] = []
        self._channel_ids: Dict[Tuple[int, int, Any], int] = {}
        #: messages consumed so far per channel (receive-side index).
        self._recv_counts: Dict[int, int] = {}
        #: procs with a receive issued but not yet matched.
        self._pending_recv: Dict[int, bool] = {}
        self._reasons: List[str] = []

    # ------------------------------------------------------------------
    def _proc(self, event: OpEvent) -> ProcRecord:
        idx = self._by_name.get(event.proc)
        if idx is None:
            idx = len(self._procs)
            self._by_name[event.proc] = idx
            self._procs.append(ProcRecord(event.proc, event.rank, event.daemon))
        return self._procs[idx]

    def _channel(self, src: int, dst: int, tag: Any) -> int:
        key = (src, dst, tag)
        cid = self._channel_ids.get(key)
        if cid is None:
            cid = len(self._channels)
            self._channel_ids[key] = cid
            self._channels.append(key)
        return cid

    def _flag(self, reason: str) -> None:
        if reason not in self._reasons:
            self._reasons.append(reason)

    # ------------------------------------------------------------------
    def on_op(self, event: OpEvent) -> None:
        kind = event.kind
        proc = self._proc(event)
        if kind == "compute":
            proc.ops.append((OP_COMPUTE, event.duration))
        elif kind == "send":
            cid = self._channel(event.rank, event.dst, event.tag)
            proc.ops.append((OP_SEND, cid, event.size))
        elif kind == "multicast":
            cids = tuple(self._channel(event.rank, d, event.tag)
                         for d in event.dst)
            proc.ops.append((OP_MCAST, cids, event.size))
        elif kind == "recv":
            # Placeholder; filled by the matching recv_done.  A process is
            # strictly sequential, so at most one receive is pending.
            self._pending_recv[self._by_name[event.proc]] = True
            proc.ops.append((OP_RECV, -1, -1))
        elif kind == "recv_done":
            cid = self._channel(event.src, event.rank, event.tag)
            k = self._recv_counts.get(cid, 0)
            self._recv_counts[cid] = k + 1
            pidx = self._by_name[event.proc]
            if not self._pending_recv.pop(pidx, False):  # pragma: no cover
                raise RuntimeError(
                    f"recv_done without pending recv on {event.proc}")
            proc.ops[-1] = (OP_RECV, cid, k)
        elif kind == "poll":
            self._flag("non-blocking receive (recv_nowait) used")
            if event.detail:
                cid = self._channel(event.src, event.rank, event.tag)
                k = self._recv_counts.get(cid, 0)
                self._recv_counts[cid] = k + 1
                proc.ops.append((OP_POLL, cid, k))
            else:
                proc.ops.append((OP_POLL, -1, -1))
        elif kind == "sleep":
            # A timer is a fixed simulated delay; replaying it as compute
            # preserves the duration but not the "no CPU reserved"
            # semantics, so flag the recording — timer-driven protocols
            # are timing-dependent anyway.
            self._flag("sleep timer used")
            proc.ops.append((OP_COMPUTE, event.duration))
        elif kind == "spawn":
            child = event.detail
            if child in self._by_name:
                # A service name reused (e.g. repeated retry timers): the
                # op streams of the instances are indistinguishable.
                self._flag(f"service {child!r} spawned more than once")
            proc.ops.append((OP_SPAWN, child))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown op kind {kind!r}")

    # ------------------------------------------------------------------
    def finish(self) -> CommDag:
        """Seal the recording into a :class:`CommDag`."""
        by_name = self._by_name
        for pidx, proc in enumerate(self._procs):
            # Drop a dangling receive (a daemon parked when the run ended).
            if proc.ops and proc.ops[-1] == (OP_RECV, -1, -1):
                proc.ops.pop()
            # Resolve spawn targets to proc indices; mark parentage.
            for i, op in enumerate(proc.ops):
                if op[0] == OP_SPAWN:
                    cidx = by_name.get(op[1])
                    if cidx is None:
                        # Spawned but never emitted an op: nothing to replay.
                        proc.ops[i] = (OP_SPAWN, -1)
                    else:
                        self._procs[cidx].spawned_by = pidx
                        proc.ops[i] = (OP_SPAWN, cidx)
        return CommDag(
            procs=self._procs,
            channels=self._channels,
            cluster_sizes=self.topology.cluster_sizes,
            timing_sensitive=bool(self._reasons),
            sensitive_reasons=list(self._reasons),
        )


@dataclass
class Recording:
    """A :class:`CommDag` plus the ground truth of the run it came from."""

    dag: CommDag
    app: str
    variant: str
    scale: str
    seed: int
    topology: Topology
    #: simulated runtime of the recorded run (ground truth at this point).
    runtime: float
    #: host seconds spent recording (simulation + DAG construction).
    wall_time: float

    @property
    def timing_sensitive(self) -> bool:
        return self.dag.timing_sensitive

    @property
    def sensitive_reasons(self) -> List[str]:
        return self.dag.sensitive_reasons


def record_app(
    app: str,
    variant: str,
    topology: Optional[Topology] = None,
    scale: str = "bench",
    seed: int = 0,
    config: Any = None,
) -> Recording:
    """Run ``app``/``variant`` once with a :class:`Recorder` attached.

    ``topology`` defaults to the mid-grid :data:`REFERENCE_POINT` on the
    paper's 4x8 system.  Apps registered ``timing_dependent`` are recorded
    all the same (the run is also a ground-truth sample) but the DAG comes
    back flagged ``timing_sensitive``.
    """
    if topology is None:
        topology = grids.multi_cluster(*REFERENCE_POINT)
    if config is None:
        config = default_config(app, scale)
    bus = ProbeBus()
    recorder = Recorder(topology)
    bus.subscribe("op", recorder.on_op)
    main = get_builder(app, variant)(config)
    # Host wall-time for the recording-cost report, not simulated time.
    wall_start = time.perf_counter()  # lint: ignore[wall-clock]
    result = run_spmd(topology, main, seed=seed, bus=bus,
                      report_meta={"app": app, "variant": variant,
                                   "harness": "whatif-record"})
    dag = recorder.finish()
    wall = time.perf_counter() - wall_start  # lint: ignore[wall-clock]
    if is_timing_dependent(app):
        dag.timing_sensitive = True
        dag.sensitive_reasons.insert(
            0, "app registered with timing-dependent control flow")
    return Recording(dag=dag, app=app, variant=variant, scale=scale, seed=seed,
                     topology=topology, runtime=result.runtime, wall_time=wall)
