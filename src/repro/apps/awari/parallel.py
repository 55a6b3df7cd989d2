"""Parallel retrograde analysis (Awari): staged floods of tiny updates.

States are hashed to processors.  The computation proceeds in stages (one
per stone count); evaluating a state produces tiny value updates for the
owners of its predecessor states — "many small, asynchronous packets of
work" (Section 3.1).

Unoptimized (uniform-network design)
    Per-destination message combining only.  Every combined batch travels
    directly to its destination, so on a multi-cluster most of the tiny-
    message flood crosses the WAN, paying the high per-message overhead.

Optimized (the paper's improvement)
    A second combining layer: cross-cluster updates are assembled at a
    designated local relay rank, shipped in large batches over the slow
    link, and re-distributed by the relay on the far side.

Stage synchronization uses end-markers carried *through the same combined
channels* as the data (FIFO per path), so quiescence detection itself is
subject to the combining delays — the starvation effect the paper notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from ...costmodel import calibration as cal
from ...runtime.combining import Batch, CombiningBuffer
from ...runtime.context import CONTROL_BYTES, Context
from ...runtime.memo import item_memo
from ...sim.rng import make_rng
from ..base import register_app
from . import kernel

#: Marker item ending a rank's contribution to a stage on some channel.
MARK = "AW-MARK"
#: Marker item from the relay: all remote-cluster data has been delivered.
RELAY_DONE = "AW-RELAY-DONE"

UPDATE_TAG = "aw-upd"
RELAY_TAG = "aw-relay"

#: Update pairs the synthetic-stream memo keeps (about 170 bytes each: two
#: small tuples and an index).  The bench workload is 2 stages x 24 000
#: updates and fits, so the 19 runs of a panel share one stream; paper scale
#: is 9 x 43 200, so there the oldest stages are dropped as new ones are
#: drawn, and memory stays at this bound (~11 MB) instead of ~65 MB.
UPDATE_MEMO_ITEMS = 65_536


@dataclass
class AwariConfig:
    """Problem size and cost parameters."""

    stages: int = 9
    states_per_stage: int = 21_600  # total across all ranks
    fanout: int = 2
    imbalance_sigma: float = 0.85
    real_data: bool = False
    game_tokens: int = 60
    takes: Tuple[int, ...] = (1, 2, 3)
    #: Optional factory for a custom stage-DAG game (e.g. games.KaylesGame);
    #: overrides game_tokens/takes when set.
    game_factory: Optional[Callable[[], Any]] = None
    sec_per_eval: float = cal.AWARI_SEC_PER_EVAL
    sec_per_update: float = cal.AWARI_SEC_PER_UPDATE
    sec_per_pack: float = cal.AWARI_SEC_PER_PACK
    update_bytes: int = cal.AWARI_UPDATE_BYTES
    combine_count: int = cal.AWARI_COMBINE_COUNT
    relay_combine_count: int = 64
    #: relay CPU cost per update repacked/unpacked (optimized variant); the
    #: relay rank is also a worker, so this contends with its compute.
    sec_per_relay_item: float = 5e-6


# ----------------------------------------------------------------------
# Synthetic workload (paper scale)
# ----------------------------------------------------------------------
def _seed_count(cfg: AwariConfig, seed: int, rank: int, stage: int,
                p: int) -> int:
    """Per-rank state count for a stage: the rank's share of the stage's
    fixed total, scaled by a log-normal imbalance factor deterministic per
    (seed, stage, rank).  Real game stages hash unevenly onto processors;
    this models the resulting load imbalance (which grows with p, as the
    max of p draws)."""
    base = cfg.states_per_stage / p
    if p == 1:
        return max(1, round(base))
    # Hash-induced imbalance grows with p: each rank's share is a 1/p
    # sample of the stage's states, so relative fluctuations scale like
    # sqrt(p).  ``imbalance_sigma`` is the value at 32 ranks.
    sigma = cfg.imbalance_sigma * math.sqrt(p / 32.0)
    rng = make_rng(seed, f"awari-seeds-{stage}-{rank}")
    factor = rng.lognormvariate(-sigma ** 2 / 2, sigma)
    return max(1, round(base * factor))


@item_memo(UPDATE_MEMO_ITEMS)
def _synthetic_updates(seed: int, stage: int, rank: int, p: int,
                       count: int) -> Tuple[Tuple[int, Any], ...]:
    """The ``count`` (destination, item) pairs ``rank`` of ``p`` emits in
    a stage — the same at every WAN setting, so every run of a sweep is
    handed the one tuple."""
    rng = make_rng(seed, f"awari-dests-{stage}-{rank}")
    return tuple((rng.randrange(p), ("upd", stage, rank, i))
                 for i in range(count))


# ----------------------------------------------------------------------
# Stage exchange protocols
# ----------------------------------------------------------------------
def _exchange_direct(ctx: Context, cfg: AwariConfig, stage: int,
                     updates: Sequence[Tuple[int, Any]]) -> Generator:
    """Unoptimized: per-destination combining straight to every rank.

    Returns the update items received this stage.  Completion: one MARK
    from every other rank, carried through the combined channels.
    """
    p = ctx.num_ranks
    tag = (UPDATE_TAG, stage)
    buf = CombiningBuffer(ctx, tag, flush_count=cfg.combine_count)
    received: List[Any] = []
    pack_time = 0.0
    rank = ctx.rank
    sec_per_pack = cfg.sec_per_pack
    update_bytes = cfg.update_bytes
    for dst, item in updates:
        if dst == rank:
            received.append(item)
        else:
            pack_time += sec_per_pack
            if buf.put(dst, item, update_bytes):
                yield from buf.flush(dst)
    if pack_time:
        yield ctx.compute(pack_time)
    for r in range(p):
        if r != ctx.rank:
            yield from buf.add(r, MARK, 8)
    yield from buf.flush_all()

    markers = 0
    while markers < p - 1:
        msg = yield ctx.recv(tag)
        for item in msg.payload.items:
            if item == MARK:
                markers += 1
            else:
                received.append(item)
    return received


class _StageState:
    """One stage's bookkeeping in a relay daemon (:func:`_relay_service`)."""

    __slots__ = ("jumbo", "deliver", "local_done", "remote_done", "delivered")

    def __init__(self, ctx: Context, cfg: AwariConfig, stage: int,
                 remote_leaders: List[int]) -> None:
        #: pending jumbo items per remote relay rank
        self.jumbo: Dict[int, List[Any]] = {r: [] for r in remote_leaders}
        #: per-final-destination combining of arriving remote updates
        self.deliver = CombiningBuffer(ctx, (UPDATE_TAG, stage),
                                       flush_count=cfg.combine_count)
        self.local_done = 0
        self.remote_done = 0
        self.delivered = False  # RELAY_DONE already broadcast


def _relay_service(ctx: Context, cfg: AwariConfig) -> Generator:
    """Cluster relay daemon: second-level message combining (optimized).

    Receives local workers' remote-destined updates, combines them into
    jumbo batches per target cluster, exchanges them relay-to-relay, and
    re-distributes arriving batches to final destinations.  All per-stage;
    the stage's bookkeeping is discarded once complete.
    """
    topo = ctx.topology
    members = list(topo.cluster_members(ctx.cluster))
    remote_leaders = [topo.cluster_leader(c) for c in topo.clusters()
                      if c != ctx.cluster]
    #: rank -> the relay (leader) of its cluster
    relay_of = [topo.cluster_leader(topo.cluster_of(r)) for r in topo.ranks()]
    update_bytes = cfg.update_bytes

    stages: Dict[int, _StageState] = {}

    def state_for(stage: int) -> _StageState:
        st = stages.get(stage)
        if st is None:
            st = _StageState(ctx, cfg, stage, remote_leaders)
            stages[stage] = st
        return st

    def jumbo_send(stage: int, relay: int, items: List[Any]) -> Generator:
        size = cfg.update_bytes * len(items)
        yield ctx.send(relay, size, RELAY_TAG, ("jumbo", stage, items))

    def finish_delivery(st: _StageState) -> Generator:
        """All remote-cluster data for the stage is in: release the members."""
        st.delivered = True
        for r in members:
            yield from st.deliver.add(r, RELAY_DONE, 8)
        yield from st.deliver.flush_all()

    while True:
        msg = yield ctx.recv(RELAY_TAG)
        kind, stage, items = msg.payload
        st = state_for(stage)

        if kind == "submit":
            # Local worker's remote-destined updates (or its end marker).
            data_items = len(items) - items.count(MARK)
            if data_items:
                yield ctx.compute(data_items * cfg.sec_per_relay_item)
            for entry in items:
                if entry == MARK:
                    st.local_done += 1
                else:
                    relay = relay_of[entry[0]]
                    pending = st.jumbo[relay]
                    pending.append(entry)
                    if len(pending) >= cfg.relay_combine_count:
                        yield from jumbo_send(stage, relay, pending)
                        st.jumbo[relay] = []
            if st.local_done == len(members):
                for relay in remote_leaders:
                    pending = st.jumbo[relay]
                    # Final flush, with the end marker riding along.
                    yield from jumbo_send(stage, relay, pending + [MARK])
                    st.jumbo[relay] = []
                if not remote_leaders and not st.delivered:
                    # Single-cluster machine: nothing will ever arrive.
                    yield from finish_delivery(st)
        elif kind == "jumbo":
            # A batch (possibly ending in a marker) from a remote relay.
            data_items = len(items) - items.count(MARK)
            if data_items:
                yield ctx.compute(data_items * cfg.sec_per_relay_item)
            deliver = st.deliver
            for entry in items:
                if entry == MARK:
                    st.remote_done += 1
                else:
                    dst, item = entry
                    if deliver.put(dst, item, update_bytes):
                        yield from deliver.flush(dst)
            if st.remote_done == len(remote_leaders) and not st.delivered:
                yield from finish_delivery(st)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown relay message kind {kind!r}")


def _exchange_relayed(ctx: Context, cfg: AwariConfig, stage: int,
                      updates: Sequence[Tuple[int, Any]]) -> Generator:
    """Optimized: local combining direct; remote via the cluster relay."""
    topo = ctx.topology
    rank = ctx.rank
    members = topo.cluster_members(ctx.cluster)     # a range: ``in`` is O(1)
    relay = topo.cluster_leader(ctx.cluster)
    sec_per_pack = cfg.sec_per_pack
    update_bytes = cfg.update_bytes
    combine_count = cfg.combine_count
    tag = (UPDATE_TAG, stage)
    buf_local = CombiningBuffer(ctx, tag, flush_count=combine_count)
    received: List[Any] = []
    submit: List[Any] = []
    pack_time = 0.0

    for update in updates:
        dst, item = update
        if dst == rank:
            received.append(item)
        elif dst in members:
            pack_time += sec_per_pack
            if buf_local.put(dst, item, update_bytes):
                yield from buf_local.flush(dst)
        else:
            pack_time += sec_per_pack
            submit.append(update)
            if len(submit) >= combine_count:
                size = update_bytes * len(submit)
                yield ctx.send(relay, size, RELAY_TAG, ("submit", stage, submit))
                submit = []
    if pack_time:
        yield ctx.compute(pack_time)

    submit.append(MARK)
    yield ctx.send(relay, cfg.update_bytes * len(submit), RELAY_TAG,
                   ("submit", stage, submit))
    for r in members:
        if r != rank:
            yield from buf_local.add(r, MARK, 8)
    yield from buf_local.flush_all()

    # Completion: MARK from each local peer + RELAY_DONE from the relay.
    local_marks = 0
    relay_done = False
    expect_local = len(members) - 1
    while local_marks < expect_local or not relay_done:
        msg = yield ctx.recv(tag)
        for item in msg.payload.items:
            if item == MARK:
                local_marks += 1
            elif item == RELAY_DONE:
                relay_done = True
            else:
                received.append(item)
    return received


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _make_driver(cfg: AwariConfig, optimized: bool) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        p = ctx.num_ranks
        rank = ctx.rank
        topo = ctx.topology
        use_relay = optimized
        if use_relay and rank == topo.cluster_leader(ctx.cluster):
            ctx.spawn_service(lambda c: _relay_service(c, cfg), name="aw-relay")
        exchange = _exchange_relayed if use_relay else _exchange_direct

        game = values = succ_values = None
        if cfg.real_data:
            if cfg.game_factory is not None:
                game = cfg.game_factory()
            else:
                game = kernel.SubtractionGame(cfg.game_tokens, cfg.takes)
            values = {}
            succ_values: Dict[int, List[int]] = {}
            my_states = [s for s in game.states()
                         if kernel.state_owner(s, p) == rank]
            by_stage: Dict[int, List[int]] = {}
            for s in my_states:
                by_stage.setdefault(game.stage(s), []).append(s)
            num_stages = game.num_stages()
        else:
            num_stages = cfg.stages

        for stage in range(num_stages):
            if cfg.real_data:
                updates: List[Tuple[int, Any]] = []
                for s in sorted(by_stage.get(stage, [])):
                    succ = game.successors(s)
                    known = succ_values.get(s, [])
                    assert len(known) == len(succ), (
                        f"state {s}: {len(known)}/{len(succ)} successor values"
                    )
                    value = (kernel.WIN if any(v == kernel.LOSS for v in known)
                             else kernel.LOSS)
                    values[s] = value
                    yield ctx.compute(cfg.sec_per_eval)
                    for pred in game.predecessors(s):
                        updates.append((kernel.state_owner(pred, p),
                                        ("val", pred, value)))
            else:
                evals = _seed_count(cfg, ctx.machine.seed, rank, stage, p)
                yield ctx.compute(evals * cfg.sec_per_eval)
                updates = _synthetic_updates(ctx.machine.seed, stage, rank, p,
                                             evals * cfg.fanout)

            received = yield from exchange(ctx, cfg, stage, updates)

            yield ctx.compute(len(received) * cfg.sec_per_update)
            if cfg.real_data:
                for item in received:
                    _, pred, value = item
                    succ_values.setdefault(pred, []).append(value)

        return values if cfg.real_data else None

    return main


def make_unoptimized(cfg: AwariConfig) -> Callable[[Context], Generator]:
    return _make_driver(cfg, optimized=False)


def make_optimized(cfg: AwariConfig) -> Callable[[Context], Generator]:
    return _make_driver(cfg, optimized=True)


def _default_config(scale: str) -> AwariConfig:
    from ...costmodel import get_scale

    ws = get_scale(scale)
    return AwariConfig(stages=ws.awari_stages,
                       states_per_stage=ws.awari_states_per_stage)


# The stage exchange consumes update batches in arrival order and the
# MARK-based quiescence detection races with the data, so a recorded
# communication DAG is not parameter-stable (repro.whatif falls back).
register_app("awari", "unoptimized", make_unoptimized, _default_config,
             timing_dependent=True)
register_app("awari", "optimized", make_optimized)
