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
so :meth:`price_grid` is a topologically-ordered sweep: per level one
``maximum(T[pred_a] + cost_a, T[pred_b] + cost_b)``, with the grid
dimension broadcast across the whole level — no per-event Python
dispatch, three numpy kernel calls per dependency level (one stacked
gather, one add, one maximum: :meth:`ReplayProgram._sweep_levels`, the
one sweep the order-adaptive engine runs too) into buffers a per-thread
workspace keeps between calls.  The edge costs are priced one chunk of
levels at a time, just before the sweep reaches them, so no (edges x
points) cost matrix is ever held; and the node values live in *rows*
that are handed back once a node's last reader has swept, so the
(rows x points) value matrix holds the live set, not every node
(:meth:`_Layout.live_rows`).

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
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.plan import TransportConfig
from ..network.linkspec import MBYTE, MS
from ..network.topology import Topology

#: Bump when the array layout or cost semantics change: the version is
#: part of every cache key, so stale cached programs miss instead of
#: mispricing.
PROGRAM_FORMAT = 1

#: The reliable transport's defaults: the loss model prices the
#: expectation of exactly what a default FaultPlan's transport does.
_TRANSPORT = TransportConfig()

#: Most bytes of sweep scratch one thread keeps between pricing calls.
#: A frozen sweep asks for its live rows, not one row per node, so
#: 128 MiB holds every shipped program on a 64 x 64 grid (the largest,
#: fft, asks for 104 MB, 6.8 MB on 16 x 16; asp/unoptimized 8.0 and
#: 0.9 MB).  An adaptive plan is carved from a workspace lent for its
#: one call (:meth:`_ThreadWorkspace.lend`), so what the thread keeps
#: is what frozen sweeps ask for.  A larger request is allocated for
#: that call only.
WORKSPACE_BYTES = 128 << 20

#: Bytes of edge costs one sweep chunk prices at a time, rounded to
#: whole levels.  512 KiB keeps every chunk's product under OpenBLAS's
#: threading threshold (m*n*k <= 262144 with k = 4) and its costs in
#: cache until the chunk's levels read them.
CHUNK_BYTES = 512 << 10


class _Workspace:
    """One reusable scratch buffer, carved afresh per request.

    Pricing needs (rows x points) matrices whose *values* never outlive
    the call; mapping and first-touching them each time used to cost as
    much as the sweep.  The buffer grows to the largest request seen, up
    to :data:`WORKSPACE_BYTES`.
    """

    buf = None                    # flat float64

    @staticmethod
    def words(specs) -> list:
        """The 8-byte words :meth:`carve` gives each ``(rows, cols,
        dtype)`` spec."""
        return [-(-rows * cols * np.dtype(dtype).itemsize // 8)
                for rows, cols, dtype in specs]

    def release(self) -> None:
        """Let go of the buffer, before a larger one is allocated."""
        self.buf = None

    def carve(self, *specs):
        """One uninitialised C-contiguous ``(rows, cols)`` array of
        ``dtype`` per ``(rows, cols, dtype)`` spec, 8-byte aligned."""
        slots = self.words(specs)
        need = sum(slots)
        buf = self.buf
        if buf is None or buf.size < need:
            keep = 8 * need <= WORKSPACE_BYTES     # else: this call only
            if keep:
                buf = None
                self.release()                     # release, then regrow
            buf = np.empty(need)
            if keep:
                self.buf = buf
        out, pos = [], 0
        for (rows, cols, dtype), n in zip(specs, slots):
            flat = buf[pos:pos + n].view(dtype)
            out.append(flat[:rows * cols].reshape(rows, cols))
            pos += n
        return out


class _ThreadWorkspace(_Workspace, threading.local):
    """The calling thread's workspace, for frozen sweeps: it also keeps
    the level schedule of its last sweep (:meth:`sweep`)."""

    def __init__(self) -> None:
        #: at most one entry, layout -> ``((points, chunk rows), t,
        #: schedule)``: a layout that dies takes it along
        self.schedules = weakref.WeakKeyDictionary()

    def release(self) -> None:
        """Let go of the buffer and of the schedule over it, so no kept
        schedule pins a buffer that was outgrown."""
        self.schedules.clear()
        super().release()

    @contextmanager
    def lend(self) -> Iterator[_Workspace]:
        """A workspace for one call, started on this thread's buffer:
        the call's scratch and a frozen sweep's are never held at once.
        When the call ends the thread gets back a buffer of the size it
        lent (the same one unless the call outgrew it), so nothing the
        call carved beyond what frozen sweeps asked for is kept."""
        call = _Workspace()
        call.buf, size = self.buf, None if self.buf is None else \
            self.buf.size
        self.release()
        try:
            yield call
        finally:
            if size is not None:
                buf, call.buf = call.buf, None
                self.buf = buf if buf is not None and buf.size == size \
                    else np.empty(size)

    def sweep(self, lay: "_Layout", points: int):
        """``(t, schedule)`` of a frozen sweep of ``lay`` at ``points``
        points: the value matrix and :meth:`_Layout.schedule` over this
        workspace's buffer.  The last sweep's schedule is reused while
        its layout, point count, chunk size and buffer are unchanged (a
        grid after a grid of one program); any other sweep drops it
        before building its own, so one schedule at a time is kept."""
        shape = (points, lay.chunk_rows(points))
        kept = self.schedules.get(lay)
        if kept is not None and kept[0] == shape and \
                kept[1].base is self.buf:
            return kept[1], kept[2]
        self.schedules.clear()
        t, cost, arena = self.carve(
            (lay.rows, points, np.float64),
            (lay.cost_rows(points), points, np.float64),
            (2 * lay.max_width, points, np.float64))
        schedule = lay.schedule(t, cost, arena)
        if t.base is self.buf:             # not a this-call-only buffer
            self.schedules[lay] = (shape, t, schedule)
        return t, schedule


_WORKSPACE = _ThreadWorkspace()


class _Layout:
    """Point-count-independent stacked form of a program's levels.

    Level ``l`` (nodes ``[lo, hi)``) owns rows ``[2*lo, 2*hi)`` of
    ``idx_ab`` / ``edge_ab``: its ``pred_a`` / ``edge_a`` rows, then its
    ``pred_b`` / ``edge_b`` rows — so one gather, one add and one
    maximum over the two halves update the whole level.  ``row`` (the
    constructor's) maps every node to its row of the value matrix ``t``;
    a level's rows are one contiguous run from ``firsts[l - 1]``,
    ``idx_ab`` holds the rows of the operands, ``fin_rows`` those of the
    finish stamps, and ``rows`` is the height ``t`` needs.
    """

    __slots__ = ("idx_ab", "edge_ab", "idx_lv", "spans", "firsts",
                 "max_width", "fin_rows", "rows", "__weakref__")

    def __init__(self, program: "ReplayProgram", row) -> None:
        ls = program.level_starts.astype(np.intp)
        widths = np.diff(ls)
        node = np.arange(program.num_nodes, dtype=np.intp)
        at_a = node + np.repeat(ls[:-1], widths)     # 2*lo + (i - lo)
        at_b = node + np.repeat(ls[1:], widths)      # 2*lo + m + (i - lo)
        pred = np.empty(2 * len(node), dtype=np.intp)
        pred[at_a], pred[at_b] = program.pred_a, program.pred_b
        pred[:2 * ls[1]] = 0                         # level 0 reads nothing
        # intp: np.take would otherwise convert the indices every call
        self.idx_ab = row[pred]
        self.edge_ab = edge_ab = np.empty((2 * len(node), 4))
        edge_ab[at_a], edge_ab[at_b] = program.edge_a, program.edge_b
        self.fin_rows = row[program.fin_node]
        self.rows = int(row.max()) + 1 if len(row) else 0
        bounds = ls.tolist()
        #: (lo, hi) node range of every level above the root's, and the
        #: level's first row
        self.spans = list(zip(bounds[1:-1], bounds[2:]))
        self.firsts = [int(row[lo]) if hi > lo else 0
                       for lo, hi in self.spans]
        self.idx_lv = [self.idx_ab[2 * lo:2 * hi] for lo, hi in self.spans]
        self.max_width = int(widths[1:].max()) if len(widths) > 1 else 0

    @staticmethod
    def live_rows(program: "ReplayProgram"):
        """Each node's row of ``t`` when a row is reused once its value
        is dead: the levels in order each take one contiguous run of
        free rows (first fit), and a node's row is free again after the
        last level that reads it; finish-stamp nodes keep theirs to the
        end.  Level 0 comes first, so it sits at row 0."""
        ls = program.level_starts.astype(np.intp)
        n, n_lv = program.num_nodes, len(ls) - 1
        widths = np.diff(ls)
        level = np.repeat(np.arange(n_lv), widths)
        first = int(ls[1])
        # the last level that reads each node: its own if none does
        last = level.copy()
        np.maximum.at(last, program.pred_a[first:], level[first:])
        np.maximum.at(last, program.pred_b[first:], level[first:])
        last[program.fin_node] = n_lv                # never freed
        # what each level frees, as runs of consecutive nodes of one level
        dead = np.flatnonzero(last < n_lv)
        dead = dead[np.argsort(last[dead], kind="stable")]
        head = np.ones(len(dead), dtype=bool)
        head[1:] = ((np.diff(dead) != 1) | (np.diff(last[dead]) != 0)
                    | (np.diff(level[dead]) != 0))
        heads = np.flatnonzero(head)
        run_len = np.diff(np.append(heads, len(dead))).tolist()
        node = dead[heads]
        run_when, run_level = last[node].tolist(), level[node].tolist()
        run_off = (node - ls[level[node]]).tolist()      # within its level
        width = widths.tolist()
        base = [0] * n_lv
        # bit r of ``free`` is set while row r (below ``top``) is free;
        # rows from ``top`` up are all free
        free = top = 0
        j, runs = 0, len(run_len)
        for lv in range(n_lv):
            m = width[lv]
            # bit r of ``fit``: rows [r, r + m) are free, by folding the
            # mask onto itself (one spare row keeps an empty level fed)
            fit, span = free | ((2 << m) - 1) << top, 1
            while span < m:
                step = min(span, m - span)
                fit &= fit >> step
                span += step
            base[lv] = row0 = (fit & -fit).bit_length() - 1
            free &= ~(((1 << m) - 1) << row0)
            top = max(top, row0 + m)
            while j < runs and run_when[j] == lv:
                row0 = base[run_level[j]] + run_off[j]
                free |= ((1 << run_len[j]) - 1) << row0
                j += 1
        return np.repeat(np.array(base, dtype=np.intp) - ls[:-1],
                         widths) + np.arange(n, dtype=np.intp)

    def chunk_rows(self, points: int) -> int:
        """Most edge-cost rows one chunk groups at ``points`` points:
        :data:`CHUNK_BYTES` of costs, in whole levels (a level wider
        than that is a chunk of its own)."""
        return CHUNK_BYTES // (8 * points) if points else len(self.edge_ab)

    def cost_rows(self, points: int) -> int:
        """Rows of the chunk buffer at ``points`` points: room for the
        largest chunk, never more than the whole program's rows."""
        return min(len(self.edge_ab),
                   max(self.chunk_rows(points), 2 * self.max_width))

    def schedule(self, t, cost, arena) -> list:
        """The operands of :meth:`ReplayProgram._sweep_levels` over the
        buffers ``t``, ``cost`` and ``arena``, in chunks of whole levels
        (a frozen sweep keeps it for the next call on the same buffers:
        :meth:`_ThreadWorkspace.sweep`): per chunk ``(edge
        rows, their costs, levels)``, per level ``(gather index, costs,
        gather buffer, its a half, its b half, output)``.  Chunks take
        turns in ``cost`` (:meth:`cost_rows` rows), and levels in one
        ``(2 * max_width, P)`` gather ``arena``."""
        room = self.chunk_rows(t.shape[1])
        halves: Dict[int, tuple] = {}
        chunks, first, levels = [], 0, []     # chunks: (rows, levels)
        for idx, (lo, hi), row0 in zip(self.idx_lv, self.spans, self.firsts):
            if levels and 2 * hi - first > room:
                chunks.append((slice(first, 2 * lo), levels))
                levels = []
            if not levels:
                first = 2 * lo
            m = hi - lo
            bufs = halves.get(m)
            if bufs is None:
                buf = arena[:2 * m]
                bufs = halves[m] = (buf, buf[:m], buf[m:])
            levels.append((idx, cost[2 * lo - first:2 * hi - first], *bufs,
                           t[row0:row0 + m]))
        if levels:
            chunks.append((slice(first, 2 * self.spans[-1][1]), levels))
        return [(self.edge_ab[rows], cost[:rows.stop - rows.start], levels)
                for rows, levels in chunks]


def _priced(rows, params, out=None):
    """``rows @ params`` (into ``out`` when given) on numpy's
    matrix-matrix path whatever the point count.  With one column numpy
    takes its matrix-vector path, which rounds some rows differently
    from a wider product; so one point is priced as two identical
    columns and the first is kept, and a column's bits never depend on
    how many points are priced beside it."""
    if params.shape[1] != 1:
        return np.matmul(rows, params, out=out)
    wide = np.matmul(rows, np.repeat(params, 2, axis=1))[:, :1]
    if out is None:
        return wide
    out[...] = wide
    return out


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


def _decode(obj: Dict[str, Any]):
    arr = np.frombuffer(base64.b64decode(obj["data"]),
                        dtype=np.dtype(obj["dtype"]))
    return arr.reshape(obj["shape"]).copy()


#: The arrays of a program record: ``(name, dtype, row width)``, width 0
#: for a vector.
_ARRAYS = (("pred_a", "int32", 0), ("pred_b", "int32", 0),
           ("edge_a", "float64", 4), ("edge_b", "float64", 4),
           ("level_starts", "int32", 0), ("fin_node", "int32", 0),
           ("fin_edge", "float64", 4))

#: The ``meta`` fields pricing reads.
_META = ("num_nodes", "cluster_sizes", "wan_shape", "wan_hub", "local_spec",
         "wide_overheads", "gateway_overhead_s", "wan_bytes",
         "wan_traversals")


def _decode_fields(record: Dict[str, Any], spec) -> list:
    """The arrays ``spec`` names, decoded from ``record``; ValueError on
    a field that is missing, does not decode, or has the wrong dtype or
    rank."""
    arrays = []
    for name, dtype, width in spec:
        try:
            arr = _decode(record[name])
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"program field {name!r} does not decode: "
                             f"{err!r}") from None
        if arr.dtype != dtype or arr.ndim != (2 if width else 1) \
                or (width and arr.shape[1] != width):
            raise ValueError(f"program field {name!r} is {arr.dtype} "
                             f"{arr.shape}, not {dtype} of width {width}")
        arrays.append(arr)
    return arrays


def _below(idx, hi) -> bool:
    """Whether every index is in ``[0, hi)`` (``hi`` a bound or one per
    index)."""
    return bool(((idx >= 0) & (idx < hi)).all())


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
        self._stacked: Optional[_Layout] = None   # built on first pricing

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
    def _loss_terms(self, inv_bw, wlat, loss):
        """Per-point (inv_bw_effective, expected retransmission delay)."""
        if not np.any(loss):
            return inv_bw, np.zeros_like(inv_bw)
        b = _TRANSPORT.backoff
        ok = (loss >= 0.0) & (loss * b < 1.0)
        if not ok.all():
            raise ValueError(
                f"loss rate {float(loss[~ok][0])!r}: loss rates must be in "
                f"[0, {1.0 / b:g}) for the "
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

    def _terms(self, bandwidths, latencies, losses,
               bw_unit: float = MBYTE, lat_unit: float = MS):
        """Per-point ``(1/wide_bw_effective, wide_lat, E_loss)`` rows for
        ``P`` points given as flat sequences (``losses`` may be one
        scalar for all of them).

        Every pricing entry point comes through here, so this is where
        an operating point is refused: a bandwidth that is not finite
        and positive, a latency that is not finite and non-negative, or
        a loss rate outside the expected-value model raises ValueError
        naming the first offending value.
        """
        bw = np.asarray(bandwidths, dtype=np.float64)
        lat = np.asarray(latencies, dtype=np.float64)
        for what, arr, ok in (
                ("bandwidth", bw, np.isfinite(bw) & (bw > 0.0)),
                ("latency", lat, np.isfinite(lat) & (lat >= 0.0))):
            if not ok.all():
                raise ValueError(
                    f"cannot price at {what} {float(arr[~ok][0])!r}: "
                    f"bandwidths must be finite and positive, latencies "
                    f"finite and non-negative")
        loss = np.broadcast_to(np.asarray(losses, dtype=np.float64),
                               bw.shape)
        wlat = lat * lat_unit
        inv_bw, eloss = self._loss_terms(1.0 / (bw * bw_unit), wlat,
                                         loss)
        return inv_bw, wlat, eloss

    def _grid_terms(self, bandwidths_mbyte_s, latencies_ms, loss_rates):
        """``(terms, shape)`` of the cartesian grid, loss-major, then
        latency, then bandwidth (the Figure-3 panel order)."""
        losses = (0.0,) if loss_rates is None else loss_rates
        grid = np.meshgrid(np.asarray(losses, dtype=np.float64),
                           np.asarray(latencies_ms, dtype=np.float64),
                           np.asarray(bandwidths_mbyte_s, dtype=np.float64),
                           indexing="ij")
        loss, lat, bw = (g.ravel() for g in grid)
        return self._terms(bw, lat, loss), grid[0].shape

    def _points_terms(self, points, loss_rate: float):
        """``terms`` of ``(bandwidth_mbyte_s, latency_ms)`` pairs."""
        return self._terms([p[0] for p in points],
                           [p[1] for p in points], float(loss_rate))

    def _topology_terms(self, topology: Topology, loss_rate: float):
        """``terms`` of one shape-checked topology (SI units already)."""
        self.check_topology(topology)
        return self._terms([topology.wide.bandwidth],
                           [topology.wide.latency], float(loss_rate),
                           bw_unit=1.0, lat_unit=1.0)

    # ------------------------------------------------------------------
    def _layout(self) -> _Layout:
        if self._stacked is None:
            self._stacked = _Layout(self, _Layout.live_rows(self))
        return self._stacked

    def _sweep_levels(self, t, params, plan, overrides=None) -> None:
        """The level sweep: fill ``t`` bottom-up from the ``(4, P)``
        parameter matrix ``params``, chunk by chunk of ``plan``
        (:meth:`_Layout.schedule`): one matmul prices the chunk's edges,
        then three numpy calls per level.  ``overrides`` (the adaptive
        engine's) holds per level ``None`` or ``(nodes, values)`` to
        splice over the level's max-plus result."""
        t[:int(self.level_starts[1])] = 0.0      # level 0: the root
        # the bound method skips np.take's dispatch: 2.4 -> 0.9 us a call
        take, add, maximum = t.take, np.add, np.maximum
        over = iter(overrides or ())
        for edge, cost, levels in plan:
            _priced(edge, params, cost)
            if overrides is None:
                for idx, c, buf, half_a, half_b, out in levels:
                    take(idx, 0, buf, "clip")
                    add(buf, c, out=buf)
                    maximum(half_a, half_b, out=out)
            else:
                for (idx, c, buf, half_a, half_b, out), ov in zip(levels,
                                                                  over):
                    take(idx, 0, buf, "clip")
                    add(buf, c, out=buf)
                    maximum(half_a, half_b, out=out)
                    if ov is not None:
                        t[ov[0]] = ov[1]

    def _sweep(self, inv_bw, wlat, eloss):
        """Runtime at each of P points (all args shape ``(P,)``)."""
        # Rows of the parameter matrix are (1, 1/wide_bw, wide_lat,
        # E_loss): an edge's cost is its row's dot product with a column.
        params = np.stack([np.ones_like(inv_bw), inv_bw, wlat, eloss])
        lay = self._layout()
        t, schedule = _WORKSPACE.sweep(lay, params.shape[1])
        self._sweep_levels(t, params, schedule)
        finals = t[lay.fin_rows] + _priced(self.fin_edge, params)
        return finals.max(axis=0)

    # ------------------------------------------------------------------
    def price_grid(self, bandwidths_mbyte_s: Sequence[float],
                   latencies_ms: Sequence[float],
                   loss_rates: Optional[Sequence[float]] = None):
        """Runtimes for the full cartesian grid, in one vectorized pass.

        Returns a float64 array of shape ``(len(latencies_ms),
        len(bandwidths_mbyte_s))``, row-major like the Figure-3 panels —
        or, when ``loss_rates`` is given, ``(len(loss_rates), n_lat,
        n_bw)``.  Raises ValueError on an axis value that cannot be
        priced (see :meth:`_terms`).
        """
        terms, shape = self._grid_terms(bandwidths_mbyte_s,
                                        latencies_ms, loss_rates)
        out = self._sweep(*terms).reshape(shape)
        return out[0] if loss_rates is None else out

    def price_points(self, points: Sequence[Tuple[float, float]],
                     loss_rate: float = 0.0):
        """Runtimes for arbitrary ``(bandwidth_mbyte_s, latency_ms)``
        pairs (not necessarily a cartesian grid) in one sweep."""
        return self._sweep(*self._points_terms(points, loss_rate))

    def price(self, topology: Topology, loss_rate: float = 0.0) -> float:
        """Runtime at a single topology (shape-checked single point)."""
        terms = self._topology_terms(topology, loss_rate)
        return float(self._sweep(*terms)[0])

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
        record = {"format": PROGRAM_FORMAT, "meta": self.meta}
        for name, _dtype, _width in _ARRAYS:
            record[name] = _encode(getattr(self, name))
        return record

    @staticmethod
    def _base_fields(record: Dict[str, Any],
                     formats: Dict[str, int]) -> list:
        """The constructor arguments of the frozen part of ``record``,
        ``meta`` last.  ValueError unless ``record`` is an object whose
        format fields read ``formats``, and where a field is missing or
        mistyped."""
        if not isinstance(record, dict):
            raise ValueError(f"a program record is a JSON object, not "
                             f"{type(record).__name__}")
        found = {name: record.get(name) for name in formats}
        if found != formats:
            raise ValueError(f"replay program format {found} != {formats}")
        meta = record.get("meta")
        if not isinstance(meta, dict) or not all(k in meta for k in _META):
            raise ValueError(f"program meta lacks one of {_META}")
        return _decode_fields(record, _ARRAYS) + [dict(meta)]

    def _check(self) -> None:
        """Raise ValueError unless the arrays form one levelized program
        of ``meta["num_nodes"]`` nodes: every join reads nodes of lower
        levels and every finish stamp an existing node."""
        n, ls = self.num_nodes, self.level_starts
        ok = (self.meta["num_nodes"] == n
              and self.pred_b.shape[0] == self.edge_a.shape[0]
              == self.edge_b.shape[0] == n
              and self.fin_edge.shape[0] == self.fin_node.shape[0]
              and ls.shape[0] >= 2 and ls[0] == 0 and ls[-1] == n
              and bool((ls[1:] >= ls[:-1]).all()))
        if ok:
            first = int(ls[1])                  # level 0 is the root
            floor = ls[:-1].repeat(ls[1:] - ls[:-1])[first:]
            ok = (_below(self.pred_a[first:], floor)
                  and _below(self.pred_b[first:], floor)
                  and _below(self.fin_node, n))
        if not ok:
            raise ValueError(
                f"program arrays do not form one levelized program of "
                f"meta num_nodes={self.meta['num_nodes']!r} nodes")

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ReplayProgram":
        """Inverse of :meth:`to_record`.  Raises ValueError on a stale or
        foreign format and on a record that does not decode to one
        consistent program: a missing or mistyped field, or arrays that
        disagree with ``meta["num_nodes"]`` or with each other."""
        program = cls(*cls._base_fields(record,
                                        {"format": PROGRAM_FORMAT}))
        program._check()
        return program
