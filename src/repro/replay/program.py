"""Flat array-of-structs event program, priced by vectorized numpy sweeps.

A :class:`ReplayProgram` is the output of :func:`~repro.replay.compile.
compile_dag`: a (max, +) circuit over the swept WAN parameters, stored as
parallel arrays —

- ``pred_a`` / ``pred_b`` (int32): the two dependency indices of each
  join node, and
- ``edge_a`` / ``edge_b`` (float64, shape ``(N, 4)``): each edge's affine
  cost row ``(c0, bytes, hops, traversals)``, priced per grid point as
  ``c0 + bytes/wide_bw + hops*wide_lat + traversals*E_loss``.

Nodes are stored in level order (level = longest dependency chain below),
so :meth:`price_grid` is a topologically-ordered sweep: one fused
``maximum(T[pred_a] + cost_a, T[pred_b] + cost_b)`` per level, with the
grid dimension broadcast across the whole level — no per-event Python
dispatch, a handful of numpy kernel calls per dependency level.

The loss-rate axis is an expected-value model of the reliable transport
(:mod:`repro.runtime.transport`): each WAN traversal of a lossy link
pays the expected geometric-backoff retransmission delay

    E(p) = RTO * (b*p/(1-b*p) - p/(1-p)) / (b-1)

with backoff ``b`` and ``RTO = rto_factor * uncontended_RTT`` (clamped at
``min_rto``), and the effective wire bandwidth shrinks by ``(1-p)`` to
account for retransmitted bytes.  This prices the *expectation*, not a
seeded sample — sweeps carrying an actual seeded
:class:`~repro.faults.plan.FaultPlan` fall back to full simulation (see
:class:`~repro.replay.backend.ReplayBackend`).

Programs serialize to JSON (arrays as base64) so :class:`~repro.
experiments.cache.SimCache` can content-address them: a serve cold start
deserializes and prices in milliseconds instead of re-recording.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.plan import TransportConfig
from ..network.linkspec import MBYTE, MS
from ..network.topology import Topology
from . import require_numpy

#: Bump when the array layout or cost semantics change: the version is
#: part of every cache key, so stale cached programs miss instead of
#: mispricing.
PROGRAM_FORMAT = 1

#: The reliable transport's defaults: the loss model prices the
#: expectation of exactly what a default FaultPlan's transport does.
_TRANSPORT = TransportConfig()


def _levelize(pa: List[int], pb: List[int]):
    """Longest-chain levels for the compiler's append-order node lists.

    Returns ``(order, remap, starts)``: the level-major node order, the
    old-id -> new-id map, and the per-level start offsets (length
    ``n_levels + 1``).  Shared by :meth:`ReplayProgram.from_circuit` and
    the adaptive packer, which must remap its group arrays with the
    same ``remap``.
    """
    n = len(pa)
    level = [0] * n
    for i in range(1, n):
        la = level[pa[i]]
        lb = level[pb[i]]
        level[i] = (la if la >= lb else lb) + 1
    order = sorted(range(n), key=lambda i: (level[i], i))
    remap = [0] * n
    for new, old in enumerate(order):
        remap[old] = new
    n_levels = level[order[-1]] + 1 if n else 1
    starts = [0] * (n_levels + 1)
    for lv in (level[old] for old in order):
        starts[lv + 1] += 1
    for lv in range(n_levels):
        starts[lv + 1] += starts[lv]
    return order, remap, starts


def _encode(arr) -> Dict[str, Any]:
    return {"shape": list(arr.shape), "dtype": str(arr.dtype),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(np, obj: Dict[str, Any]):
    arr = np.frombuffer(base64.b64decode(obj["data"]),
                        dtype=np.dtype(obj["dtype"]))
    return arr.reshape(obj["shape"]).copy()


class ReplayProgram:
    """A compiled DAG, re-priceable across a whole grid in one pass."""

    def __init__(self, pred_a, pred_b, edge_a, edge_b, level_starts,
                 fin_node, fin_edge, meta: Dict[str, Any]) -> None:
        self.pred_a = pred_a          # (N,) int32, level-ordered
        self.pred_b = pred_b          # (N,) int32
        self.edge_a = edge_a          # (N, 4) float64
        self.edge_b = edge_b          # (N, 4) float64
        self.level_starts = level_starts  # (L+1,) int32; level l = [s[l], s[l+1])
        self.fin_node = fin_node      # (F,) int32
        self.fin_edge = fin_edge      # (F, 4) float64
        self.meta = meta

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, pa: List[int], pb: List[int], ea: List[tuple],
                     eb: List[tuple], finish: List[tuple],
                     meta: Dict[str, Any]) -> "ReplayProgram":
        """Levelize, renumber, and pack the compiler's circuit lists.

        ``finish`` rows are ``(node, c0, bytes, hops, traversals)`` finish
        stamps.  The compiler appends join nodes in a valid topological
        order (operands always exist first), so levels are one forward
        pass.
        """
        np = require_numpy()
        n = len(pa)
        order, remap, starts = _levelize(pa, pb)
        n_levels = len(starts) - 1

        pred_a = np.fromiter((remap[pa[old]] for old in order),
                             dtype=np.int32, count=n)
        pred_b = np.fromiter((remap[pb[old]] for old in order),
                             dtype=np.int32, count=n)
        edge_a = np.array([ea[old] for old in order], dtype=np.float64)
        edge_b = np.array([eb[old] for old in order], dtype=np.float64)
        fin_node = np.array([remap[f[0]] for f in finish], dtype=np.int32)
        fin_edge = np.array([f[1:] for f in finish], dtype=np.float64)
        meta = dict(meta)
        meta["format"] = PROGRAM_FORMAT
        meta["num_nodes"] = n
        meta["num_levels"] = n_levels
        return cls(pred_a, pred_b, edge_a, edge_b,
                   np.array(starts, dtype=np.int32), fin_node, fin_edge,
                   meta)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.pred_a.shape[0])

    @property
    def num_levels(self) -> int:
        return int(self.level_starts.shape[0]) - 1

    def stats(self) -> Dict[str, Any]:
        """Program-shape summary for reports and metrics."""
        return {
            "nodes": self.num_nodes,
            "levels": self.num_levels,
            "finish_stamps": int(self.fin_node.shape[0]),
            "joins_reduced": self.meta.get("joins_reduced", 0),
            "num_ops": self.meta.get("num_ops", 0),
            "num_messages": self.meta.get("num_messages", 0),
            "wan_traversals": self.meta.get("wan_traversals", 0),
        }

    # ------------------------------------------------------------------
    def _loss_terms(self, np, inv_bw, wlat, loss):
        """Per-point (inv_bw_effective, expected retransmission delay)."""
        if not np.any(loss):
            return inv_bw, np.zeros_like(inv_bw)
        b = _TRANSPORT.backoff
        if np.any(loss < 0.0) or np.any(loss * b >= 1.0):
            raise ValueError(
                f"loss rates must be in [0, {1.0 / b:g}) for the "
                f"expected-value model (geometric backoff x{b:g} "
                f"diverges beyond it); simulate heavier loss with a "
                f"FaultPlan instead")
        meta = self.meta
        travs = meta.get("wan_traversals", 0)
        mean_bytes = (meta["wan_bytes"] / travs) if travs else 0.0
        local_lat, _, send_ov, recv_ov = meta["local_spec"]
        gw = meta["gateway_overhead_s"]
        # First-order uncontended RTT of a representative data message
        # plus its 64-byte ack: WAN wire + propagation both ways, the
        # gateway handling on each side, and the local legs.
        fixed = 2.0 * (2.0 * local_lat + 2.0 * gw + send_ov + recv_ov)
        rtt = (2.0 * wlat + (mean_bytes + _TRANSPORT.ack_bytes) * inv_bw
               + fixed)
        rto = np.maximum(_TRANSPORT.min_rto, _TRANSPORT.rto_factor * rtt)
        expected = rto * (b * loss / (1.0 - b * loss)
                          - loss / (1.0 - loss)) / (b - 1.0)
        return inv_bw / (1.0 - loss), expected

    def _sweep_values(self, np, cost_a, cost_b):
        """All node values for pre-priced edge costs (both ``(N, G)``)."""
        t = np.empty_like(cost_a)
        starts = self.level_starts
        t[starts[0]:starts[1]] = 0.0         # level 0: the root
        pa, pb = self.pred_a, self.pred_b
        for lv in range(1, self.num_levels):
            lo, hi = int(starts[lv]), int(starts[lv + 1])
            np.maximum(t[pa[lo:hi]] + cost_a[lo:hi],
                       t[pb[lo:hi]] + cost_b[lo:hi],
                       out=t[lo:hi])
        return t

    def _sweep(self, np, inv_bw, wlat, eloss):
        """Runtime at each of G grid points (all args shape ``(G,)``)."""
        # Price every edge at every point with one matmul: rows of the
        # parameter matrix are (1, 1/wide_bw, wide_lat, E_loss).
        params = np.stack([np.ones_like(inv_bw), inv_bw, wlat, eloss])
        cost_a = self.edge_a @ params        # (N, G)
        cost_b = self.edge_b @ params
        t = self._sweep_values(np, cost_a, cost_b)
        finals = t[self.fin_node] + self.fin_edge @ params
        return finals.max(axis=0)

    # ------------------------------------------------------------------
    def price_grid(self, bandwidths_mbyte_s: Sequence[float],
                   latencies_ms: Sequence[float],
                   loss_rates: Optional[Sequence[float]] = None):
        """Runtimes for the full cartesian grid, in one vectorized pass.

        Returns a float64 array of shape ``(len(latencies_ms),
        len(bandwidths_mbyte_s))``, row-major like the Figure-3 panels —
        or, when ``loss_rates`` is given, ``(len(loss_rates), n_lat,
        n_bw)``.
        """
        np = require_numpy()
        bws = np.asarray(bandwidths_mbyte_s, dtype=np.float64) * MBYTE
        lats = np.asarray(latencies_ms, dtype=np.float64) * MS
        losses = (np.zeros(1) if loss_rates is None
                  else np.asarray(loss_rates, dtype=np.float64))
        grid = np.meshgrid(losses, lats, 1.0 / bws, indexing="ij")
        loss, wlat, inv_bw = (g.ravel() for g in grid)
        inv_bw_eff, eloss = self._loss_terms(np, inv_bw, wlat, loss)
        runtimes = self._sweep(np, inv_bw_eff, wlat, eloss)
        shape = (len(losses), len(lats), len(bws))
        out = runtimes.reshape(shape)
        return out[0] if loss_rates is None else out

    def price_points(self, points: Sequence[Tuple[float, float]],
                     loss_rate: float = 0.0):
        """Runtimes for arbitrary ``(bandwidth_mbyte_s, latency_ms)``
        pairs (not necessarily a cartesian grid) in one sweep."""
        np = require_numpy()
        inv_bw = 1.0 / (np.array([p[0] for p in points]) * MBYTE)
        wlat = np.array([p[1] for p in points]) * MS
        loss = np.full_like(inv_bw, float(loss_rate))
        inv_bw_eff, eloss = self._loss_terms(np, inv_bw, wlat, loss)
        return self._sweep(np, inv_bw_eff, wlat, eloss)

    def price(self, topology: Topology, loss_rate: float = 0.0) -> float:
        """Runtime at a single topology (shape-checked single point)."""
        np = require_numpy()
        self.check_topology(topology)
        inv_bw = np.array([1.0 / topology.wide.bandwidth])
        wlat = np.array([topology.wide.latency])
        loss = np.array([float(loss_rate)])
        inv_bw_eff, eloss = self._loss_terms(np, inv_bw, wlat, loss)
        return float(self._sweep(np, inv_bw_eff, wlat, eloss)[0])

    def check_topology(self, topology: Topology) -> None:
        """Raise ValueError unless ``topology`` differs from the compiled
        base only in the swept WAN latency/bandwidth."""
        meta = self.meta
        if list(topology.cluster_sizes) != meta["cluster_sizes"]:
            raise ValueError(
                f"topology shape {topology.cluster_sizes} does not match "
                f"the compiled shape {tuple(meta['cluster_sizes'])}")
        if topology.wan_shape != meta["wan_shape"] or \
                topology.wan_hub != meta["wan_hub"]:
            raise ValueError("WAN shape differs from the compiled program")
        local = [topology.local.latency, topology.local.bandwidth,
                 topology.local.send_overhead, topology.local.recv_overhead]
        wide_ov = [topology.wide.send_overhead, topology.wide.recv_overhead]
        if local != meta["local_spec"] or wide_ov != meta["wide_overheads"] \
                or topology.gateway_overhead != meta["gateway_overhead_s"]:
            raise ValueError(
                "local-layer constants differ from the compiled program "
                "(only WAN latency/bandwidth are swept); recompile")
        if topology.wan_variability is not None:
            raise ValueError("cannot price under WAN variability")

    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """JSON-able form (arrays as base64) for SimCache storage."""
        return {
            "format": PROGRAM_FORMAT,
            "meta": self.meta,
            "pred_a": _encode(self.pred_a),
            "pred_b": _encode(self.pred_b),
            "edge_a": _encode(self.edge_a),
            "edge_b": _encode(self.edge_b),
            "level_starts": _encode(self.level_starts),
            "fin_node": _encode(self.fin_node),
            "fin_edge": _encode(self.fin_edge),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ReplayProgram":
        """Inverse of :meth:`to_record`; raises ValueError on a stale or
        foreign format."""
        np = require_numpy()
        if record.get("format") != PROGRAM_FORMAT:
            raise ValueError(
                f"replay program format {record.get('format')!r} != "
                f"{PROGRAM_FORMAT}")
        return cls(
            _decode(np, record["pred_a"]), _decode(np, record["pred_b"]),
            _decode(np, record["edge_a"]), _decode(np, record["edge_b"]),
            _decode(np, record["level_starts"]),
            _decode(np, record["fin_node"]), _decode(np, record["fin_edge"]),
            dict(record["meta"]))
