"""Order-adaptive replay: vectorized fixed-point re-pricing.

The frozen :class:`~repro.replay.program.ReplayProgram` is exact only
while every contention order it captured at the reference point still
holds; fft's pipelined transpose rounds and water's daemon scheduling
reorder at the grid extremes, which is why PR 8 downgraded them to the
~20x-slower interpreted predict path.  An :class:`AdaptiveProgram`
keeps the levelized array representation but carries the compiler's
**queue groups** (:func:`~repro.replay.compile.compile_dag` with
``adaptive=True``): per contended resource, the arrival edge, service
cost row, and join node of every booking, in reference order.

Per grid point (batched across the whole grid in numpy) the engine
iterates to a fixed point:

1. price each queue op's **arrival** from the previous iterate's node
   values (``T[arr_pred] + arr_edge @ params``),
2. stable-argsort every queue by arrival (ties keep reference order —
   the evaluator's pop-sequence tiebreak; arrivals within
   ``order_tol`` of each other relative to the point's runtime count
   as ties, which stops order flapping between near-equivalent
   schedules),
3. **re-serve** each queue in the new order with a vectorized
   busy-period scan: with sorted arrivals ``a`` and an exclusive cost
   prefix sum ``S``, ``start_i = max(seed, max_{j<=i}(a_j - S_j)) +
   S_i`` — the classic ``start_i = max(a_i, end_{i-1})`` recurrence
   without a sequential loop.  Serving each queue *atomically* from
   the previous iterate keeps the update monotone-safe: a wrong order
   guess can never feed a cyclic precedence back into the values,
4. re-run the level sweep with the served starts overriding the queue
   nodes (non-queue nodes stay exact max-plus over them),
5. repeat until, per point, **no queue changed order and no node value
   changed** — a bitwise fixed point of the iteration map, at which the
   values satisfy the serve-in-arrival-order semantics exactly.

The per-resource order-change count is the convergence signal; points
still unconverged at the iteration cap are flagged so the caller
(:class:`~repro.experiments.runner.Sweeper`) can downgrade *those
points* — and only those — to the interpreted evaluator instead of
returning silently-wrong prices.  Order flapping (a cycle of serve
orders, each invalidating the other's arrival times) is exactly the
regime where a fixed dependency graph is the wrong model, so the
downgrade is the honest answer there.

Because the engine overrides every queue node by scatter anyway, the
adaptive compile emits **chainless** queue joins (both dependency
columns point at the arrival), which collapses the level count by an
order of magnitude (fft 1183 -> 101 levels) and keeps the sweep to a
few milliseconds for the whole Figure-3 grid.  The sweep is the frozen
program's own (:meth:`ReplayProgram._sweep_levels`: one matmul per
chunk of levels, then one stacked gather, one add, one maximum per
level, buffers from the calling thread's workspace) with one extra
scatter per level that splices the served starts in.  Measured on the
Figure-3 grid: fft converges bitwise-exactly (<= 1e-13 vs. the interpreted
evaluator) within 30 iterations; water's value feedback is hundreds of
queue-crossings deep, so it never converges within any sensible cap
and every point downgrades — which is the honest outcome for a
recording whose schedule is that sensitive to the operating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..network.topology import Topology
from .program import (_WORKSPACE, PROGRAM_FORMAT, ReplayProgram, _below,
                      _decode_fields, _encode, _Layout, _levelize, _priced,
                      _Workspace)

#: Bump when the group-array layout or the iteration semantics change;
#: part of the adaptive cache key (alongside the base PROGRAM_FORMAT).
ADAPTIVE_FORMAT = 2

#: The queue-group arrays of an adaptive record, in constructor order:
#: ``(name, dtype, row width)`` like the frozen ones.
_GROUPS = (("grp_starts", "int32", 0), ("grp_seed_node", "int32", 0),
           ("grp_seed_edge", "float64", 4), ("op_arr_pred", "int32", 0),
           ("op_arr_edge", "float64", 4), ("op_cost", "float64", 4),
           ("op_node", "int32", 0))

#: The iteration cap of the three adaptive pricing entry points (read
#: per call, like :data:`DEFAULT_ORDER_TOL`).  Measured fft grids
#: converge exactly within 30 iterations (orders fix early, then value
#: corrections drain through roughly one queue boundary per iteration);
#: the cap bounds deep-feedback programs like water, whose correction
#: depth exceeds any sensible cap and whose points downgrade honestly
#: instead.
DEFAULT_MAX_ITERS = 40

#: The order hysteresis: arrivals closer than this fraction of the
#: point's current runtime sort as ties (reference order wins).  Queues
#: whose near-simultaneous arrivals permute under float jitter would
#: otherwise flap between equivalent schedules forever.
DEFAULT_ORDER_TOL = 1e-9

#: Most bytes of workspace one fixed-point plan may take; more points
#: are iterated in balanced blocks.  Blocks are sized by the one-point
#: plan, 1.5 MB on fft (its edge-cost chunk is the whole program); a
#: wider plan costs 1.3 MB a point: 53 MB for the 42-point paper grid in
#: one block.  16 MiB holds 11 points, so that grid runs in four blocks
#: carved in turn from one 14.2 MB buffer, lent for the call: the thread
#: keeps none of it afterwards.  Chosen on that grid (2 vCPUs, CPU time
#: against one block compacted at half, bandwidth-major): 8 MiB +10 %,
#: 16 MiB -8 %, 32 MiB -11 % but a 31 MB plan carved.
PLAN_BYTES = 16 << 20


@dataclass
class AdaptiveResult:
    """Per-point outcome of one adaptive pricing pass.

    ``runtimes``, ``converged`` and ``iterations`` share a shape (flat
    for point lists, ``(n_lat, n_bw)`` or ``(n_loss, n_lat, n_bw)`` for
    grids).  ``iterations`` counts re-serve iterations actually run per
    point (0 when the program has no re-sortable queues at all);
    unconverged points hold the cap and must not be trusted —
    :meth:`runtime_at` refuses to read them.
    """

    runtimes: Any
    converged: Any
    iterations: Any
    #: queue-kind -> number of (point, iteration) order changes observed.
    order_changes: Dict[str, int] = field(default_factory=dict)
    max_iters: int = DEFAULT_MAX_ITERS

    @property
    def num_points(self) -> int:
        return int(self.converged.size)

    @property
    def num_unconverged(self) -> int:
        return int(self.num_points - self.converged.sum())

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def max_iterations(self) -> int:
        return int(self.iterations.max()) if self.num_points else 0

    def runtime_at(self, *index) -> float:
        """The runtime at one index — raises on an unconverged point
        (callers must downgrade those, never read them)."""
        if not bool(self.converged[index]):
            raise ValueError(
                f"point {index} did not converge within {self.max_iters} "
                f"iterations; downgrade it to the interpreted evaluator")
        return float(self.runtimes[index])

    def summary(self) -> str:
        flips = sum(self.order_changes.values())
        state = ("converged" if self.all_converged
                 else f"{self.num_unconverged} unconverged")
        return (f"{self.num_points} points {state}, max "
                f"{self.max_iterations} iterations, {flips} queue "
                f"order changes")


class _Plan:
    """One call's buffers and per-level views for ``P`` live points.

    Everything here is storage carved out of the workspace lent to one
    :meth:`AdaptiveProgram._adaptive` call
    (:meth:`~repro.replay.program._ThreadWorkspace.lend`), not values: a
    plan lives for one :meth:`AdaptiveProgram._iterate` and is re-carved
    in place when the iteration compacts to the survivors.
    """

    __slots__ = ("P", "t", "t_prev", "levels", "overrides",
                 "served_lv", "arr_costg", "costg", "seed_cost",
                 "arrg", "served", "s_prev", "s_new", "flat",
                 "a_s", "c_s", "s_excl", "ok_rows", "stale")


class AdaptiveProgram(ReplayProgram):
    """A frozen program plus re-sortable queue groups.

    The base arrays *are* the frozen program (iteration 0 of the
    engine), so all inherited pricing still works; the adaptive entry
    points (:meth:`price_grid_adaptive` & co.) run the re-sorting
    iteration on top.
    """

    def __init__(self, pred_a, pred_b, edge_a, edge_b, level_starts,
                 fin_node, fin_edge, meta: Dict[str, Any],
                 grp_kinds: List[str], grp_starts, grp_seed_node,
                 grp_seed_edge, op_arr_pred, op_arr_edge, op_cost,
                 op_node) -> None:
        super().__init__(pred_a, pred_b, edge_a, edge_b, level_starts,
                         fin_node, fin_edge, meta)
        self.grp_kinds = grp_kinds        # K kind strings
        self.grp_starts = grp_starts      # (K+1,) int32 op ranges
        self.grp_seed_node = grp_seed_node  # (K,) int32
        self.grp_seed_edge = grp_seed_edge  # (K, 4) float64
        self.op_arr_pred = op_arr_pred    # (M,) int32 arrival pred node
        self.op_arr_edge = op_arr_edge    # (M, 4) float64 arrival row
        self.op_cost = op_cost            # (M, 4) float64 service cost row
        self.op_node = op_node            # (M,) int32 queue join node
        self._static: Optional[dict] = None  # queue layout, built once

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit_groups(cls, pa, pb, ea, eb, finish,
                            meta: Dict[str, Any],
                            glist: List[tuple]) -> "AdaptiveProgram":
        """Pack circuit lists plus queue groups (level-remapped).

        ``glist`` rows are ``(kind, seed_stamp, ops)`` with ops
        ``(arrival_stamp, cost_row, node_id)`` in reference service
        order — the order that seeds the iteration and breaks ties.
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

        kinds: List[str] = []
        g_starts = [0]
        seed_nodes: List[int] = []
        seed_edges: List[tuple] = []
        arr_pred: List[int] = []
        arr_edge: List[tuple] = []
        cost: List[tuple] = []
        nodes: List[int] = []
        for kind, seed, ops in glist:
            kinds.append(kind)
            seed_nodes.append(remap[seed[0]])
            seed_edges.append((seed[1], seed[2], seed[3], seed[4]))
            for at, crow, nid in ops:
                arr_pred.append(remap[at[0]])
                arr_edge.append((at[1], at[2], at[3], at[4]))
                cost.append(crow)
                nodes.append(remap[nid])
            g_starts.append(len(nodes))

        meta = dict(meta)
        meta["format"] = PROGRAM_FORMAT
        meta["adaptive_format"] = ADAPTIVE_FORMAT
        meta["num_nodes"] = n
        meta["num_levels"] = n_levels
        return cls(
            pred_a, pred_b, edge_a, edge_b,
            np.array(starts, dtype=np.int32), fin_node, fin_edge, meta,
            kinds, np.array(g_starts, dtype=np.int32),
            np.array(seed_nodes, dtype=np.int32),
            np.array(seed_edges, dtype=np.float64).reshape(len(kinds), 4),
            np.array(arr_pred, dtype=np.int32),
            np.array(arr_edge, dtype=np.float64).reshape(len(nodes), 4),
            np.array(cost, dtype=np.float64).reshape(len(nodes), 4),
            np.array(nodes, dtype=np.int32))

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self.grp_kinds)

    @property
    def num_group_ops(self) -> int:
        return int(self.op_node.shape[0])

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["adaptive_groups"] = self.num_groups
        stats["adaptive_group_ops"] = self.num_group_ops
        stats["adaptive_rigid_groups"] = self.meta.get(
            "adaptive_rigid_groups", 0)
        return stats

    # ------------------------------------------------------------------
    def _layout(self) -> _Layout:
        """The stacked levels with row = node: the fixed point reads
        any node of the previous iterate, so no row is ever reused."""
        if self._stacked is None:
            rows = np.arange(self.num_nodes, dtype=np.intp)
            self._stacked = _Layout(self, rows)
        return self._stacked

    def _static_layout(self) -> dict:
        """Point-count-independent queue layout, built once.

        Groups the queue ops by the level of their node, so served
        starts splice into the shared level sweep with one scatter per
        level, and flattens the groups for the segmented serve.
        """
        if self._static is not None:
            return self._static
        ls = self.level_starts

        # Queue ops sorted by node (= level order, since each op has its
        # own join node); per level, the contiguous run of its ops.
        ov_order = np.argsort(self.op_node, kind="stable")
        ov_nodes = self.op_node[ov_order].astype(np.intp)
        ov_bounds = np.searchsorted(ov_nodes, ls).tolist()
        ov_slices = []             # per level above 0: None | (o0, o1, nodes)
        for o0, o1 in zip(ov_bounds[1:-1], ov_bounds[2:]):
            ov_slices.append((o0, o1, ov_nodes[o0:o1]) if o0 < o1 else None)

        # Flat segmented-serve layout: group offset per op slot (local
        # permutation -> global row), each op's group-start row, and
        # the group-first rows (where the sticky sortedness check and
        # the seed both anchor).
        M = self.num_group_ops
        gs = self.grp_starts
        grp_of = np.repeat(np.arange(self.num_groups, dtype=np.int32),
                           np.diff(gs))
        grp_off = gs[:-1][grp_of].astype(np.int32)[:, None]   # (M, 1)
        first_rows = gs[:-1].astype(np.int64)                  # (K,)
        kind_groups = {}
        for k, kind in enumerate(self.grp_kinds):
            kind_groups.setdefault(kind, []).append(k)
        kind_groups = {kind: np.array(ix) for kind, ix in
                       kind_groups.items()}

        self._static = {
            "ov_order": ov_order, "ov_slices": ov_slices,
            "arr_pred": self.op_arr_pred.astype(np.intp),
            "grp_off": grp_off, "first_rows": first_rows,
            "local_slot": np.arange(M, dtype=np.int32)[:, None] - grp_off,
            "kind_groups": kind_groups,
        }
        return self._static

    def _plan_specs(self, P: int) -> list:
        """The workspace specs of a ``P``-point :class:`_Plan`, in
        :meth:`_carve_plan`'s unpacking order."""
        N, M, K = self.num_nodes, self.num_group_ops, self.num_groups
        f8, i4, lay = np.float64, np.int32, self._layout()
        return [(N, P, f8), (N, P, f8), (lay.cost_rows(P), P, f8),
                (2 * lay.max_width, P, f8), (K, P, f8),
                *[(M, P, f8)] * 8,
                (M, P, i4), (M, P, i4), (M, P, np.intp), (M, P, bool)]

    def _block_points(self) -> int:
        """Most points one plan may hold within :data:`PLAN_BYTES`
        (at least one)."""
        per_point = 8 * sum(_Workspace.words(self._plan_specs(1)))
        return max(1, PLAN_BYTES // per_point)

    def _carve_plan(self, workspace: _Workspace, params, s_prev) -> _Plan:
        """A plan for the ``P`` points (columns) of ``params`` out of
        ``workspace``, its queue rows priced there and seeded with the
        serve orders ``s_prev`` (broadcast over the points)."""
        lay, st = self._layout(), self._static_layout()
        plan = _Plan()
        plan.P = params.shape[1]
        (plan.t, plan.t_prev, cost, arena, plan.seed_cost,
         plan.served_lv, plan.arr_costg, plan.costg, plan.arrg, plan.served,
         plan.a_s, plan.c_s, plan.s_excl, plan.s_prev, plan.s_new,
         plan.flat, plan.ok_rows) = workspace.carve(
            *self._plan_specs(plan.P))
        plan.levels = lay.schedule(plan.t, cost, arena)
        plan.overrides = [ov and (ov[2], plan.served_lv[ov[0]:ov[1]])
                          for ov in st["ov_slices"]]
        _priced(self.op_arr_edge, params, plan.arr_costg)
        _priced(self.op_cost, params, plan.costg)
        _priced(self.grp_seed_edge, params, plan.seed_cost)
        plan.s_prev[:] = s_prev
        self._flatten(plan, plan.s_prev)
        return plan

    def _flatten(self, plan: _Plan, perm) -> None:
        """``plan.flat``: where, in a flattened ``(M, P)`` array, each
        slot of the per-queue serve permutations ``perm`` reads from —
        one ``np.take`` / ``np.put`` per gather instead of an index
        broadcast.  Marks the order-dependent cost prefix stale."""
        np.add(perm, self._static["grp_off"], out=plan.flat)
        plan.flat *= plan.P
        plan.flat += np.arange(plan.P)
        plan.stale = True

    def _serve(self, plan: _Plan, order_tol: float, scale) -> bool:
        """Re-sort and re-serve every queue from the current iterate;
        returns whether any queue was re-sorted.

        Fills ``plan.arrg`` (arrivals), ``plan.served`` (start of
        service per op, slot order) and — only when a queue was
        re-sorted — ``plan.s_new`` (the new per-queue serve
        permutations; ``plan.flat`` then indexes by them).  Orders are
        *sticky*: a queue keeps its previous permutation while its
        arrivals stay sorted under it to within
        ``order_tol`` of the point's runtime ``scale`` — re-sorting on
        every sub-tolerance jitter would let near-simultaneous arrivals
        flap between equivalent schedules forever (a classic two-cycle
        of this kind of fixed-point iteration).  With ``order_tol=0``
        only bitwise-sorted previous orders are kept, so the converged
        order is exactly the arrival order.
        """
        st = self._static
        t = plan.t
        gs = self.grp_starts
        np.take(t, st["arr_pred"], axis=0, out=plan.arrg, mode="clip")
        plan.arrg += plan.arr_costg
        tol = scale * order_tol if order_tol > 0.0 else 0.0

        # Sticky check, all groups at once: gather arrivals in the
        # previous serve order and test sortedness within each segment.
        a_s = plan.a_s
        np.take(plan.arrg, plan.flat, out=a_s, mode="clip")
        plan.ok_rows[1:] = a_s[:-1] <= a_s[1:] + tol
        plan.ok_rows[st["first_rows"]] = True
        keep = np.logical_and.reduceat(plan.ok_rows, gs[:-1], axis=0)

        resort = ~keep.all(axis=1)
        resorted = bool(resort.any())
        if resorted:
            np.copyto(plan.s_new, plan.s_prev)
            for k in np.nonzero(resort)[0]:
                lo, hi = int(gs[k]), int(gs[k + 1])
                p = np.argsort(plan.arrg[lo:hi], axis=0, kind="stable")
                np.copyto(p, plan.s_prev[lo:hi], where=keep[k][None, :])
                plan.s_new[lo:hi] = p
            self._flatten(plan, plan.s_new)
            np.take(plan.arrg, plan.flat, out=a_s, mode="clip")

        # Busy-period scan, segmented: exclusive cost prefix within each
        # group via a global cumsum rebased at the group-first rows
        # (rounding of the rebase is deterministic, which is all the
        # bitwise convergence check needs), then a per-group running max
        # of ``arrival - prefix``.  The prefix depends on the orders
        # only, so it is kept until a queue re-sorts.
        s_excl = plan.s_excl
        if plan.stale:
            np.take(plan.costg, plan.flat, out=plan.c_s, mode="clip")
            s_excl[0] = 0.0
            np.cumsum(plan.c_s[:-1], axis=0, out=s_excl[1:])
            s_excl -= s_excl[st["grp_off"][:, 0]]
            plan.stale = False
        z = a_s
        z -= s_excl
        first = st["first_rows"]
        seedv = t[self.grp_seed_node] + plan.seed_cost
        z[first] = np.maximum(z[first], seedv)
        for k in range(self.num_groups):
            lo, hi = int(gs[k]), int(gs[k + 1])
            np.maximum.accumulate(z[lo:hi], axis=0, out=z[lo:hi])
        z += s_excl
        np.put(plan.served, plan.flat, z, mode="clip")
        return resorted

    # ------------------------------------------------------------------
    def _iterate(self, params, max_iters: int, order_tol: float,
                 workspace: _Workspace):
        """The fixed-point loop over one block of points; returns flat
        per-point result arrays.

        ``params`` is the ``(4, P)`` parameter matrix of
        :meth:`ReplayProgram._sweep`, C-contiguous; the plan is carved
        from ``workspace``.
        """
        P0 = params.shape[1]
        st = self._static_layout()
        gs = self.grp_starts
        fin_cost = _priced(self.fin_edge, params)

        out_rt = np.empty(P0, dtype=np.float64)
        out_conv = np.zeros(P0, dtype=bool)
        out_iters = np.zeros(P0, dtype=np.int32)
        order_changes: Dict[str, int] = {}

        # Serve orders seed from the compiler's reference order.
        plan = self._carve_plan(workspace, params, st["local_slot"])
        live = np.arange(P0)           # global column of each plan column
        active = np.ones(P0, dtype=bool)

        # Iteration 0: the chainless relaxation (queues serve with no
        # waiting) seeds the arrivals.
        self._sweep_levels(plan.t, params, plan.levels)
        scale = (plan.t[self.fin_node] + fin_cost).max(axis=0)

        it = 0
        while it < max_iters:
            it += 1
            settled = active
            if self._serve(plan, order_tol, scale):
                gflips = np.logical_or.reduceat(plan.s_new != plan.s_prev,
                                                gs[:-1], axis=0)
                changed = gflips.any(axis=0)
                if changed.any():
                    gact = gflips & active[None, :]
                    for kind, ix in st["kind_groups"].items():
                        n = int(gact[ix].sum())
                        if n:
                            order_changes[kind] = \
                                order_changes.get(kind, 0) + n
                settled = active & ~changed
                plan.s_prev, plan.s_new = plan.s_new, plan.s_prev
            np.copyto(plan.t_prev, plan.t)
            np.take(plan.served, st["ov_order"], axis=0, out=plan.served_lv,
                    mode="clip")
            self._sweep_levels(plan.t, params, plan.levels, plan.overrides)
            scale = (plan.t[self.fin_node] + fin_cost).max(axis=0)
            newly = (plan.t == plan.t_prev).all(axis=0) & settled
            if newly.any():
                done = live[newly]
                out_rt[done] = scale[newly]
                out_conv[done] = True
                out_iters[done] = it
                active &= ~newly
            nlive = int(active.sum())
            if nlive == 0:
                break
            if nlive < plan.P:
                # Compact to the unconverged columns as soon as one
                # converges: iteration cost tracks the surviving points,
                # not the block.  The survivors' state is copied out,
                # then the same workspace is re-carved for them.
                cols = np.nonzero(active)[0]
                live = live[cols]
                params = np.ascontiguousarray(params[:, cols])
                fin_cost = np.ascontiguousarray(fin_cost[:, cols])
                t_keep = plan.t[:, cols].copy()
                s_keep = plan.s_prev[:, cols].copy()
                scale = scale[cols].copy()
                plan = self._carve_plan(workspace, params, s_keep)
                plan.t[:] = t_keep
                active = np.ones(nlive, dtype=bool)

        if int(active.sum()):
            rest = live[active]
            out_rt[rest] = scale[active]
            out_iters[rest] = it
        return out_rt, out_conv, out_iters, order_changes

    def _adaptive(self, inv_bw, wlat, eloss, max_iters: int,
                  order_tol: float) -> AdaptiveResult:
        """The fixed point at ``P`` points (all args shape ``(P,)``).

        The points are iterated in balanced blocks of at most
        :meth:`_block_points`, so the plan never outgrows
        :data:`PLAN_BYTES`.  Every column of the fixed point is
        independent, so blocking changes no bit of the pinned grids
        (``tests/replay/test_adaptive.py``), down to a block of one
        point.  The blocks' plans are carved in turn from one workspace
        lent for this call, so the thread's workspace keeps only what
        frozen sweeps ask for.
        """
        P = inv_bw.shape[0]
        if self.num_group_ops == 0 or max_iters < 1:
            # With queues present, the base sweep alone prices a
            # chainless (no-waiting) relaxation — never trustworthy.
            return AdaptiveResult(
                runtimes=self._sweep(inv_bw, wlat, eloss),
                converged=np.full(P, self.num_group_ops == 0, dtype=bool),
                iterations=np.zeros(P, dtype=np.int32), max_iters=max_iters)
        params = np.stack([np.ones_like(inv_bw), inv_bw, wlat, eloss])
        # A block iterates until its slowest point converges, and
        # neighbouring operating points converge alike (fft's paper grid
        # takes 9-12 iterations below 0.3 MByte/s and 29-30 at 0.95), so
        # the blocks take the points bandwidth-major.
        order = np.lexsort((eloss, wlat, inv_bw))
        blocks = -(-P // self._block_points()) or 1
        with _WORKSPACE.lend() as workspace:
            parts = [self._iterate(params[:, cols], max_iters, order_tol,
                                   workspace)
                     for cols in np.array_split(order, blocks)]
        order_changes: Counter = Counter()
        for *_, flips in parts:
            order_changes.update(flips)
        caller = np.argsort(order)    # back in the caller's point order
        runtimes, converged, iters = (np.concatenate(arrays)[caller]
                                      for arrays in list(zip(*parts))[:3])
        return AdaptiveResult(runtimes=runtimes, converged=converged,
                              iterations=iters,
                              order_changes=dict(order_changes),
                              max_iters=max_iters)

    # ------------------------------------------------------------------
    def price_grid_adaptive(self, bandwidths_mbyte_s: Sequence[float],
                            latencies_ms: Sequence[float],
                            loss_rates: Optional[Sequence[float]] = None
                            ) -> AdaptiveResult:
        """Adaptive runtimes for the full cartesian grid; shapes match
        :meth:`ReplayProgram.price_grid`."""
        terms, shape = self._grid_terms(bandwidths_mbyte_s,
                                        latencies_ms, loss_rates)
        result = self._adaptive(*terms, DEFAULT_MAX_ITERS,
                                DEFAULT_ORDER_TOL)
        for name in ("runtimes", "converged", "iterations"):
            arr = getattr(result, name).reshape(shape)
            setattr(result, name, arr if loss_rates is not None else arr[0])
        return result

    def price_points_adaptive(self, points: Sequence[Tuple[float, float]],
                              loss_rate: float = 0.0) -> AdaptiveResult:
        """Adaptive runtimes for arbitrary ``(bw_mbyte_s, lat_ms)``
        pairs, flat."""
        return self._adaptive(*self._points_terms(points, loss_rate),
                              DEFAULT_MAX_ITERS, DEFAULT_ORDER_TOL)

    def price_adaptive(self, topology: Topology, loss_rate: float = 0.0
                       ) -> Tuple[float, bool, int]:
        """One shape-checked point: ``(runtime, converged, iterations)``.

        The runtime is returned even when unconverged — the *caller*
        owns the downgrade decision and the ``converged`` flag is the
        contract (:class:`~repro.experiments.runner.Sweeper` swaps in
        the interpreted evaluator).
        """
        terms = self._topology_terms(topology, loss_rate)
        result = self._adaptive(*terms, DEFAULT_MAX_ITERS,
                                DEFAULT_ORDER_TOL)
        return (float(result.runtimes[0]), bool(result.converged[0]),
                int(result.iterations[0]))

    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        record = super().to_record()
        record["adaptive_format"] = ADAPTIVE_FORMAT
        record["grp_kinds"] = list(self.grp_kinds)
        for name, _dtype, _width in _GROUPS:
            record[name] = _encode(getattr(self, name))
        return record

    def _check(self) -> None:
        """The frozen part's check, then: the groups partition the
        ``M`` queue ops, and every seed, arrival and queue node exists."""
        super()._check()
        n, gs = self.num_nodes, self.grp_starts
        k, m = self.num_groups, self.num_group_ops
        if not (gs.shape[0] == k + 1 and gs[0] == 0 and gs[-1] == m
                and bool((gs[1:] >= gs[:-1]).all())
                and self.grp_seed_node.shape[0] == k
                and self.grp_seed_edge.shape[0] == k
                and self.op_arr_pred.shape[0] == m
                and self.op_arr_edge.shape[0] == m
                and self.op_cost.shape[0] == m
                and all(_below(idx, n) for idx in (
                    self.grp_seed_node, self.op_arr_pred, self.op_node))):
            raise ValueError(f"queue-group arrays do not partition the "
                             f"{m} queue ops of {k} groups over {n} nodes")

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "AdaptiveProgram":
        """Inverse of :meth:`to_record`, refusing what
        :meth:`ReplayProgram.from_record` refuses and inconsistent queue
        groups."""
        base = cls._base_fields(record, {
            "format": PROGRAM_FORMAT, "adaptive_format": ADAPTIVE_FORMAT})
        kinds = record.get("grp_kinds")
        if not isinstance(kinds, list) or \
                not all(isinstance(kind, str) for kind in kinds):
            raise ValueError("program field 'grp_kinds' is not a list of "
                             "strings")
        program = cls(*base, kinds, *_decode_fields(record, _GROUPS))
        program._check()
        return program
