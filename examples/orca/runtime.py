"""The Orca runtime: replicated and owned shared objects on the simulator.

Write protocol for replicated objects (Orca's get-sequence-then-broadcast
scheme — the one ASP's description in the paper matches: "The sender ...
has to wait for a sequence number to arrive before it can continue"):

1. the writer RPCs the object's *sequencer* (its home rank's service) for
   the next sequence number;
2. the writer forwards the write to every cluster leader's service (one
   WAN message per remote cluster), which multicasts it locally;
3. every replica applies writes strictly in sequence order (hold-back
   queue), so all replicas traverse identical state histories;
4. the writer's own replica, on applying the write, hands the operation's
   result back to the waiting process.

Reads on replicated objects touch only the local replica: zero messages.
Owned (non-replicated) objects execute every operation at their home rank
via RPC.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Mapping, Optional, Tuple

from repro.runtime.context import CONTROL_BYTES, Context
from .objects import ObjectSpec, Placement

ORCA_TAG = "orca-svc"


class _Store:
    """Per-rank object states plus the write-ordering bookkeeping."""

    def __init__(self) -> None:
        self.state: Dict[str, Any] = {}
        self.applied: Dict[str, int] = {}          # obj -> last applied seq
        self.holdback: Dict[Tuple[str, int], Any] = {}
        self.next_seq: Dict[str, int] = {}         # sequencer counters (home)
        self.write_counts: Dict[str, int] = {}
        self.read_counts: Dict[str, int] = {}


class OrcaEnv:
    """Per-rank handle on the shared-object space.

    Construct one per rank with identical ``specs`` and ``placements``;
    then ``result = yield from env.invoke(name, op, *args)``.
    """

    def __init__(self, ctx: Context, specs: Iterable[ObjectSpec],
                 placements: Optional[Mapping[str, Placement]] = None) -> None:
        self.ctx = ctx
        self.specs: Dict[str, ObjectSpec] = {s.name: s for s in specs}
        self.placements: Dict[str, Placement] = {
            name: (placements or {}).get(name, Placement())
            for name in self.specs
        }
        self._store = _Store()
        for name, spec in self.specs.items():
            placement = self.placements[name]
            if placement.replicated or placement.home == ctx.rank:
                self._store.state[name] = spec.initial()
            self._store.applied[name] = -1
            self._store.next_seq[name] = 0
        ctx.spawn_service(self._service, name="orca")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def invoke(self, name: str, op: str, *args: Any) -> Generator:
        """Perform operation ``op`` on object ``name``; returns its result."""
        spec = self.specs[name]
        placement = self.placements[name]
        is_write = spec.is_write(op)

        if placement.replicated:
            if not is_write:
                # Local read on the replica: CPU cost only, no messages.
                yield self.ctx.compute(spec.op_cost)
                self._store.read_counts[name] = \
                    self._store.read_counts.get(name, 0) + 1
                return spec.operation(op)(self._store.state[name], *args)
            result = yield from self._replicated_write(spec, placement, op, args)
            return result

        # Owned object: everything happens at the home rank.
        if self.ctx.rank == placement.home:
            yield self.ctx.compute(spec.op_cost)
            counts = (self._store.write_counts if is_write
                      else self._store.read_counts)
            counts[name] = counts.get(name, 0) + 1
            return spec.operation(op)(self._store.state[name], *args)
        reply = yield from self.ctx.rpc(
            placement.home, ORCA_TAG, spec.op_bytes,
            {"kind": "op", "obj": name, "op": op, "args": args})
        return reply

    def _replicated_write(self, spec: ObjectSpec, placement: Placement,
                          op: str, args: Tuple) -> Generator:
        ctx = self.ctx
        # 1. Synchronously fetch the sequence number (the latency the
        #    paper's ASP optimization attacks).
        seq = yield from ctx.rpc(placement.home, ORCA_TAG, CONTROL_BYTES,
                                 {"kind": "wseq", "obj": spec.name})
        # 2. Fan the write out: one message per cluster leader.
        topo = ctx.topology
        payload = {"kind": "wapply", "obj": spec.name, "seq": seq,
                   "op": op, "args": args, "writer": ctx.rank}
        for cid in topo.clusters():
            yield ctx.send(topo.cluster_leader(cid), spec.op_bytes,
                           ORCA_TAG, {"kind": "wfwd", "inner": payload})
        # 3. Wait for the local replica to reach this write's slot.
        msg = yield ctx.recv(("orca-wres", spec.name, seq))
        return msg.payload

    # Convenience accessors ------------------------------------------------
    def local_state(self, name: str) -> Any:
        """Direct (test/debug) access to this rank's replica state."""
        return self._store.state.get(name)

    def stats(self, name: str) -> Dict[str, int]:
        return {
            "reads": self._store.read_counts.get(name, 0),
            "writes": self._store.write_counts.get(name, 0),
            "applied_seq": self._store.applied.get(name, -1),
        }

    # ------------------------------------------------------------------
    # Service (one daemon per rank)
    # ------------------------------------------------------------------
    def _service(self, ctx: Context) -> Generator:
        store = self._store
        topo = ctx.topology
        members = list(topo.cluster_members(ctx.cluster))

        def apply_ready(obj: str) -> Generator:
            """Drain the hold-back queue in sequence order."""
            spec = self.specs[obj]
            while (obj, store.applied[obj] + 1) in store.holdback:
                seq = store.applied[obj] + 1
                entry = store.holdback.pop((obj, seq))
                yield ctx.compute(spec.op_cost)
                result = spec.operation(entry["op"])(store.state[obj],
                                                     *entry["args"])
                store.applied[obj] = seq
                store.write_counts[obj] = store.write_counts.get(obj, 0) + 1
                if entry["writer"] == ctx.rank:
                    yield ctx.send(ctx.rank, CONTROL_BYTES,
                                   ("orca-wres", obj, seq), result)

        while True:
            msg = yield ctx.recv(ORCA_TAG)
            req = msg.payload
            body = req.body if hasattr(req, "body") else req
            kind = body["kind"]

            if kind == "wseq":
                obj = body["obj"]
                seq = store.next_seq[obj]
                store.next_seq[obj] = seq + 1
                yield ctx.reply(msg, CONTROL_BYTES, seq)

            elif kind == "wfwd":
                inner = body["inner"]
                spec = self.specs[inner["obj"]]
                others = [r for r in members if r != ctx.rank]
                if others:
                    yield ctx.multicast(others, spec.op_bytes, ORCA_TAG, inner)
                store.holdback[(inner["obj"], inner["seq"])] = inner
                yield from apply_ready(inner["obj"])

            elif kind == "wapply":
                store.holdback[(body["obj"], body["seq"])] = body
                yield from apply_ready(body["obj"])

            elif kind == "op":
                spec = self.specs[body["obj"]]
                yield ctx.compute(spec.op_cost)
                result = spec.operation(body["op"])(store.state[body["obj"]],
                                                    *body["args"])
                counts = (store.write_counts if spec.is_write(body["op"])
                          else store.read_counts)
                counts[body["obj"]] = counts.get(body["obj"], 0) + 1
                yield ctx.reply(msg, spec.op_bytes, result)

            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown orca request {kind!r}")
