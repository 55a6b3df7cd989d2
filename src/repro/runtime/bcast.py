"""Broadcast algorithms: flat binomial tree vs. cluster-aware two-level.

``flat_bcast`` is what a topology-unaware MPI (MPICH-style) does: a
binomial tree over rank order that happily routes many edges over the
slow links.  ``hier_bcast`` sends each payload exactly once per remote
cluster (root -> cluster leaders over the WAN), then fans out inside each
cluster on the fast network — the MagPIe/optimized-ASP structure.

All group members must call the same function with the same ``bcast_id``
and ``root``; the call returns the payload on every rank.
"""

from __future__ import annotations

from typing import Any, Generator

from .context import Context


def flat_bcast(ctx: Context, bcast_id: Any, root: int, size: int,
               payload: Any = None) -> Generator:
    """Binomial-tree broadcast over rank order (topology-unaware)."""
    topo = ctx.topology
    p = topo.num_ranks
    tag = ("bcast", bcast_id)
    vrank = (ctx.rank - root) % p
    with ctx.phase("flat_bcast"):
        if vrank != 0:
            msg = yield ctx.recv(tag)
            payload = msg.payload
        # After receiving (or as root), forward along the binomial tree: in
        # round k, ranks with vrank < 2^k send to vrank + 2^k.
        mask = 1
        while mask < p:
            if vrank < mask:
                peer = vrank + mask
                if peer < p:
                    yield ctx.send((peer + root) % p, size, tag, payload)
            mask <<= 1
        # Receivers above have already received before forwarding because the
        # binomial schedule guarantees the parent's send precedes the child's
        # forwarding rounds; Python-level we enforced it by receiving first.
        return payload


def hier_bcast(ctx: Context, bcast_id: Any, root: int, size: int,
               payload: Any = None) -> Generator:
    """Two-level broadcast: once per remote cluster over the WAN, then the
    intra-cluster hardware multicast primitive (Section 3.2: "point-to-point
    communication from the sender to the cluster gateways, and multicast
    primitives inside clusters")."""
    topo = ctx.topology
    tag_wan = ("hbcast-w", bcast_id)
    tag_loc = ("hbcast-l", bcast_id)
    root_cluster = topo.cluster_of(root)
    # The entry rank of a cluster is the root itself in the root's cluster,
    # the cluster leader elsewhere.
    my_entry = root if ctx.cluster == root_cluster else topo.cluster_leader(ctx.cluster)

    with ctx.phase("hier_bcast"):
        if ctx.rank == root:
            for cid in topo.clusters():
                if cid != root_cluster:
                    yield ctx.send(topo.cluster_leader(cid), size, tag_wan, payload)
        elif ctx.rank == my_entry:
            msg = yield ctx.recv(tag_wan)
            payload = msg.payload

        if ctx.rank == my_entry:
            # only the entry rank needs the peer list
            others = [r for r in topo.cluster_members(ctx.cluster)
                      if r != ctx.rank]
            if others:
                yield ctx.multicast(others, size, tag_loc, payload)
        else:
            msg = yield ctx.recv(tag_loc)
            payload = msg.payload
        return payload
