"""Parallel Water: all-to-half exchange, unoptimized vs. cluster-aware.

Unoptimized (uniform-network design)
    Every iteration, each rank pushes its molecule positions to the p/2
    ranks that compute against them, and later sends each of those owners
    a force-update message.  On a 4-cluster machine 75% of these O(p^2)
    messages cross the WAN, and the same position data crosses the same
    WAN link up to 8 times.

Optimized (the paper's improvement)
    Per remote owner ``q``, one rank in each cluster acts as *local
    coordinator* for ``q``.  Position reads become an intra-cluster RPC to
    the coordinator, which fetches the data over the WAN once per
    iteration and serves cached copies locally.  Force updates are
    combined (added) at the coordinator, so only the reduced result
    crosses the WAN — the two-level reduction tree of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ...costmodel import calibration as cal
from ...runtime.context import CONTROL_BYTES, Context
from ...runtime.memo import item_memo
from ..base import register_app
from . import kernel

SVC_TAG = "water-svc"

#: Ranks the ownership memos keep, each.  Who computes against whom is a
#: function of (rank, p) alone; one machine size needs p * p/2 of them
#: (512 at 32 ranks), so this holds every size a sweep is likely to mix.
OWNERSHIP_MEMO_ITEMS = 16_384


@dataclass
class WaterConfig:
    """Problem size and cost parameters (defaults: paper scale constants)."""

    molecules: int = 1500
    iterations: int = 2
    real_data: bool = False
    sec_per_pair: float = cal.WATER_SEC_PER_PAIR
    sec_per_update: float = cal.WATER_SEC_PER_MOL_UPDATE
    sec_per_force_add: float = 0.2e-6
    pos_bytes: int = cal.WATER_POS_BYTES
    force_bytes: int = cal.WATER_FORCE_BYTES


# ----------------------------------------------------------------------
# Ownership structure (who computes which pair, who talks to whom)
# ----------------------------------------------------------------------
@item_memo(OWNERSHIP_MEMO_ITEMS)
def _need(rank: int, p: int) -> Tuple[int, ...]:
    if p <= 1:
        return ()
    half = p // 2
    return tuple((rank + d) % p for d in range(1, half + 1))


def need_set(rank: int, p: int) -> List[int]:
    """Owners whose positions ``rank`` fetches and computes against.

    ``rank`` handles partners at cyclic distance 1..p/2.  For even p the
    p/2-distant "tie" partner appears in *both* owners' need sets and the
    pair work is split exactly in half by index parity (the Splash Water
    scheme), keeping the load balanced.
    """
    return list(_need(rank, p))


def tie_partner(rank: int, p: int) -> Optional[int]:
    """The p/2-distant partner whose pair set is split by parity (even p)."""
    if p > 1 and p % 2 == 0:
        return (rank + p // 2) % p
    return None


def tie_parity(rank: int, p: int) -> int:
    """Which parity of (i + j) this rank computes against its tie partner."""
    tie = tie_partner(rank, p)
    return 0 if tie is None or rank < tie else 1


@item_memo(OWNERSHIP_MEMO_ITEMS)
def _providers(rank: int, p: int) -> Tuple[int, ...]:
    return tuple(r for r in range(p) if rank in _need(r, p))


def providers(rank: int, p: int) -> List[int]:
    """Ranks that compute against ``rank``'s molecules.

    They need ``rank``'s positions and send force updates back; by
    symmetry this is the complement half of :func:`need_set` (the tie
    partner, if any, appears in both).
    """
    return list(_providers(rank, p))


def _tie_pair_count(n_mine: int, n_other: int, parity: int) -> int:
    """Number of (i, j) pairs in an n x m grid with (i + j) % 2 == parity."""
    total = n_mine * n_other
    if n_mine % 2 and n_other % 2:
        return (total + 1) // 2 if parity == 0 else total // 2
    return total // 2


@item_memo(OWNERSHIP_MEMO_ITEMS)
def _molecule_counts(molecules: int, p: int) -> Tuple[int, ...]:
    return tuple(len(kernel.partition(molecules, p, r)) for r in range(p))


def _counts(cfg: WaterConfig, p: int) -> Tuple[int, ...]:
    """Molecules owned by each rank."""
    return _molecule_counts(cfg.molecules, p)


def _pair_compute_time(cfg: WaterConfig, rank: int, p: int,
                       counts: Sequence[int]) -> float:
    my_count = counts[rank]
    pairs = my_count * (my_count - 1) // 2
    tie = tie_partner(rank, p)
    for q in _need(rank, p):
        if q == tie:
            pairs += _tie_pair_count(my_count, counts[q], tie_parity(rank, p))
        else:
            pairs += my_count * counts[q]
    return pairs * cfg.sec_per_pair


def _compute_forces_real(cfg: WaterConfig, rank: int, p: int, pos, partner_pos):
    """Real-data force phase: my accumulated forces + per-owner contributions."""
    my_forces = kernel.internal_forces(pos)
    forces_for = {}
    tie = tie_partner(rank, p)
    for q in _need(rank, p):
        other = partner_pos[q]
        if q == tie:
            mask = kernel.parity_mask(len(pos), len(other), tie_parity(rank, p))
            f_mine, f_theirs = kernel.pair_forces_masked(pos, other, mask)
        else:
            f_mine, f_theirs = kernel.pair_forces(pos, other)
        my_forces += f_mine
        forces_for[q] = f_theirs
    return my_forces, forces_for


# ----------------------------------------------------------------------
# Unoptimized driver
# ----------------------------------------------------------------------
def make_unoptimized(cfg: WaterConfig) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        p = ctx.num_ranks
        rank = ctx.rank
        counts = _counts(cfg, p)
        mine = kernel.partition(cfg.molecules, p, rank)
        partners_out = _need(rank, p)       # I read positions / send updates
        partners_in = _providers(rank, p)   # they read mine / send me updates

        state: Dict[str, Any] = {"published": {}}
        ctx.spawn_service(
            lambda c: _water_service(c, cfg, counts, state), name="water-svc"
        )

        pos = vel = None
        if cfg.real_data:
            all_pos, all_vel = kernel.init_molecules(cfg.molecules,
                                                     ctx.machine.seed)
            pos = all_pos[mine.start:mine.stop].copy()
            vel = all_vel[mine.start:mine.stop].copy()

        for it in range(cfg.iterations):
            # Publish this iteration's positions, then read each partner's
            # positions with a synchronous shared-object RPC — the Orca
            # program's access pattern.  On a multi-cluster, 75% of these
            # blocking reads pay the WAN round trip, every iteration.
            state["published"][it] = pos
            yield ctx.send(rank, CONTROL_BYTES, SVC_TAG, {"kind": "pub", "iter": it})
            partner_pos: Dict[int, Any] = {}
            for q in partners_out:
                yield ctx.send(q, CONTROL_BYTES, SVC_TAG,
                               {"kind": "fetch", "iter": it, "reply_to": rank,
                                "reply_tag": ("pos", it, q)})
                msg = yield ctx.recv(("pos", it, q))
                partner_pos[q] = msg.payload

            # Force computation (charged; real arithmetic at test scale).
            yield ctx.compute(_pair_compute_time(cfg, rank, p, counts))
            forces_for: Dict[int, Any] = {}
            my_forces = None
            if cfg.real_data:
                my_forces, forces_for = _compute_forces_real(
                    cfg, rank, p, pos, partner_pos)

            # Send accumulated contributions back to each owner.
            for q in partners_out:
                yield ctx.send(q, counts[q] * cfg.force_bytes, ("frc", it),
                               payload=forces_for.get(q))
            for _ in partners_in:
                msg = yield ctx.recv(("frc", it))
                if cfg.real_data:
                    my_forces += msg.payload

            # Integration.
            yield ctx.compute(counts[rank] * cfg.sec_per_update)
            if cfg.real_data:
                pos, vel = kernel.integrate(pos, vel, my_forces)

        return pos if cfg.real_data else None

    return main


# ----------------------------------------------------------------------
# Optimized driver: coordinator caching + two-level force reduction
# ----------------------------------------------------------------------
def _coordinator_for(ctx: Context, q: int, cluster: int) -> int:
    """The rank in ``cluster`` acting as local coordinator for owner ``q``."""
    members = ctx.topology.cluster_members(cluster)
    return members[q % len(members)]


@item_memo(OWNERSHIP_MEMO_ITEMS)
def _dependents(first: int, stop: int, q: int, p: int) -> Tuple[int, ...]:
    return tuple(r for r in range(first, stop) if q in _need(r, p))


def _local_dependents(ctx: Context, cluster: int, q: int,
                      p: int) -> Tuple[int, ...]:
    """Members of ``cluster`` that compute against owner ``q``."""
    members = ctx.topology.cluster_members(cluster)
    return _dependents(members.start, members.stop, q, p)


def _send_positions(ctx: Context, cfg: WaterConfig, counts: Sequence[int],
                    fetch_request: Dict[str, Any], positions: Any) -> Generator:
    """Answer a position fetch: to the requester's service inbox by default,
    or to an explicit reply tag (direct synchronous reads)."""
    it = fetch_request["iter"]
    size = counts[ctx.rank] * cfg.pos_bytes
    reply_tag = fetch_request.get("reply_tag")
    if reply_tag is not None:
        yield ctx.send(fetch_request["reply_to"], size, reply_tag, positions)
    else:
        yield ctx.send(fetch_request["reply_to"], size, SVC_TAG,
                       {"kind": "fetchreply", "q": ctx.rank, "iter": it,
                        "pos": positions})


def _water_service(ctx: Context, cfg: WaterConfig, counts: Sequence[int],
                   state: Dict[str, Any]) -> Generator:
    """Per-rank daemon: serves position fetches and reduces force updates.

    All requests arrive on one inbox and are dispatched on ``kind``; the
    service never blocks on anything but its inbox, so coordinator-to-
    coordinator traffic cannot deadlock.
    """
    p = ctx.num_ranks
    published: Dict[int, Any] = state["published"]
    fetch_waiters: Dict[int, List[Any]] = {}          # iter -> parked fetches
    cache: Dict[Any, Any] = {}                        # (q, iter) -> positions
    cache_waiters: Dict[Any, List[Any]] = {}          # (q, iter) -> reply tags
    served: Dict[Any, int] = {}                       # (q, iter) -> replies sent
    reductions: Dict[Any, Dict[str, Any]] = {}        # (q, iter) -> partial sum

    def expected_requesters(q: int) -> int:
        return len(_local_dependents(ctx, ctx.cluster, q, p))

    while True:
        msg = yield ctx.recv(SVC_TAG)
        req = msg.payload
        kind = req["kind"]

        if kind == "pub":
            it = req["iter"]
            for fetch in fetch_waiters.pop(it, []):
                yield from _send_positions(ctx, cfg, counts, fetch, published[it])

        elif kind == "fetch":
            # A remote coordinator (or, in the unoptimized program, a peer
            # doing a direct shared-object read) wants my positions for
            # iteration `iter`.
            it = req["iter"]
            if it in published:
                yield from _send_positions(ctx, cfg, counts, req, published[it])
            else:
                fetch_waiters.setdefault(it, []).append(req)

        elif kind == "getpos":
            # A local rank asks me (the coordinator for q) for q's positions.
            q, it = req["q"], req["iter"]
            key = (q, it)
            if key in cache:
                yield ctx.send(msg.src, counts[q] * cfg.pos_bytes,
                               req["reply_tag"], cache[key])
                served[key] = served.get(key, 0) + 1
                if served[key] >= expected_requesters(q):
                    del cache[key], served[key]
            elif key in cache_waiters:
                cache_waiters[key].append((msg.src, req["reply_tag"]))
            else:
                cache_waiters[key] = [(msg.src, req["reply_tag"])]
                yield ctx.send(q, CONTROL_BYTES, SVC_TAG,
                               {"kind": "fetch", "iter": it, "reply_to": ctx.rank})

        elif kind == "fetchreply":
            q, it = req["q"], req["iter"]
            key = (q, it)
            cache[key] = req["pos"]
            served[key] = 0
            for requester, reply_tag in cache_waiters.pop(key, []):
                yield ctx.send(requester, counts[q] * cfg.pos_bytes,
                               reply_tag, cache[key])
                served[key] += 1
            if served[key] >= expected_requesters(q):
                del cache[key], served[key]

        elif kind == "fupd":
            # Local contribution to the force reduction for remote owner q.
            q, it = req["q"], req["iter"]
            key = (q, it)
            entry = reductions.setdefault(key, {"n": 0, "sum": None})
            entry["n"] += 1
            if cfg.real_data and req["data"] is not None:
                entry["sum"] = (req["data"] if entry["sum"] is None
                                else entry["sum"] + req["data"])
            yield ctx.compute(counts[q] * cfg.sec_per_force_add)
            if entry["n"] >= len(_local_dependents(ctx, ctx.cluster, q, p)):
                yield ctx.send(q, counts[q] * cfg.force_bytes, ("frc", it),
                               payload=entry["sum"])
                del reductions[key]

        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown water service request {kind!r}")


def make_optimized(cfg: WaterConfig) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        p = ctx.num_ranks
        rank = ctx.rank
        topo = ctx.topology
        counts = _counts(cfg, p)
        mine = kernel.partition(cfg.molecules, p, rank)
        partners_out = _need(rank, p)
        partners_in = _providers(rank, p)
        local_out = [q for q in partners_out if ctx.is_local(q)]
        remote_out = [q for q in partners_out if not ctx.is_local(q)]
        local_in = [r for r in partners_in if ctx.is_local(r)]
        # Remote clusters that will send me one combined force update each.
        remote_in_clusters = sorted({topo.cluster_of(r) for r in partners_in
                                     if not ctx.is_local(r)})

        state: Dict[str, Any] = {"published": {}}
        ctx.spawn_service(
            lambda c: _water_service(c, cfg, counts, state), name="water-svc"
        )

        pos = vel = None
        if cfg.real_data:
            all_pos, all_vel = kernel.init_molecules(cfg.molecules,
                                                     ctx.machine.seed)
            pos = all_pos[mine.start:mine.stop].copy()
            vel = all_vel[mine.start:mine.stop].copy()

        for it in range(cfg.iterations):
            # Publish this iteration's positions to my own service.
            state["published"][it] = pos
            yield ctx.send(rank, CONTROL_BYTES, SVC_TAG, {"kind": "pub", "iter": it})

            # Local consumers still get a direct push (fast network).
            for r in local_in:
                yield ctx.send(r, counts[rank] * cfg.pos_bytes, ("pos", it),
                               payload=pos)

            # Remote owners: ask each one's local coordinator (all requests
            # in flight at once so WAN fetches overlap).
            for q in remote_out:
                coord = _coordinator_for(ctx, q, ctx.cluster)
                yield ctx.send(coord, CONTROL_BYTES, SVC_TAG,
                               {"kind": "getpos", "q": q, "iter": it,
                                "reply_tag": ("wpos", it, q)})
            partner_pos: Dict[int, Any] = {}
            for _ in local_out:
                msg = yield ctx.recv(("pos", it))
                partner_pos[msg.src] = msg.payload
            for q in remote_out:
                msg = yield ctx.recv(("wpos", it, q))
                partner_pos[q] = msg.payload

            yield ctx.compute(_pair_compute_time(cfg, rank, p, counts))
            forces_for: Dict[int, Any] = {}
            my_forces = None
            if cfg.real_data:
                my_forces, forces_for = _compute_forces_real(
                    cfg, rank, p, pos, partner_pos)

            # Force updates: direct locally, via the coordinator reduction
            # tree for remote owners.
            for q in local_out:
                yield ctx.send(q, counts[q] * cfg.force_bytes, ("frc", it),
                               payload=forces_for.get(q))
            for q in remote_out:
                coord = _coordinator_for(ctx, q, ctx.cluster)
                yield ctx.send(coord, counts[q] * cfg.force_bytes, SVC_TAG,
                               {"kind": "fupd", "q": q, "iter": it,
                                "data": forces_for.get(q)})
            expected = len(local_in) + len(remote_in_clusters)
            for _ in range(expected):
                msg = yield ctx.recv(("frc", it))
                if cfg.real_data:
                    my_forces += msg.payload

            yield ctx.compute(counts[rank] * cfg.sec_per_update)
            if cfg.real_data:
                pos, vel = kernel.integrate(pos, vel, my_forces)

        return pos if cfg.real_data else None

    return main


def _default_config(scale: str) -> WaterConfig:
    from ...costmodel import get_scale

    ws = get_scale(scale)
    return WaterConfig(molecules=ws.water_molecules, iterations=ws.water_iterations)


register_app("water", "unoptimized", make_unoptimized, _default_config)
register_app("water", "optimized", make_optimized)
