"""Compile a recorded :class:`~repro.whatif.record.CommDag` to a max-plus
event program.

The :class:`~repro.whatif.evaluate.Evaluator` replays a DAG with plain
float arithmetic: every timestamp is built from ``max`` (a process waits
for a message, a message waits for a busy resource) and ``+`` (compute
intervals, overheads, wire terms).  Crucially, each ``+`` term is an
*affine* function of the swept WAN parameters::

    cost(theta) = c0  +  bytes / wide_bw  +  n_hops * wide_lat
                      +  n_traversals * E_loss(theta)

(local-network terms are constants of the recorded cluster shape — the
Figure-3 grid sweeps only the WAN).  That makes one full replay a
**(max, +) circuit** over those four coefficients.  This module does not
re-implement the replay: it calls the evaluator's own
:meth:`~repro.whatif.evaluate.Evaluator.walk` exactly once, at the
recording's reference parameters, on symbolic *stamps* instead of
floats.  A :class:`Stamp` is a node of the circuit plus an accumulated
affine offset, and *is* a float — its reference time — so the walk's
heaps order it natively.  ``+`` extends the offset (free); ``join``
materializes a binary **join node** with the two operand stamps as
dependency edges.  The result is a flat program —
``pred_a``/``pred_b`` index arrays and per-edge coefficient rows — that
:class:`~repro.replay.program.ReplayProgram` re-prices for an entire
grid in one vectorized numpy pass, no per-event dispatch.

What is frozen at compile time is the *orders*: the order contended
resources (NIC, gateway CPU, WAN wire, egress) serve their messages and
the order daemons serve their handler blocks, both resolved at the
reference point.  Re-pricing under parameters that would flip one of
those orders is a first-order approximation — exactly the regime the
corner validation in :class:`~repro.replay.backend.ReplayBackend`
exists to catch (and LLAMP's fixed-dependency-graph analysis shares).
Pure dependency chains (receive pins, compute, spawns) carry over
exactly: a parked-vs-delivered receive is ``max(t, delivery)`` on both
paths, so only contention order is approximated.

Join reduction keeps the program small: a ``max`` of two stamps on the
same node collapses when one offset dominates componentwise, and a
``max`` against the never-positive root stamp (an idle resource clock)
is dropped.  What remains is one node per *genuine* synchronization.

**Adaptive mode** (``compile_dag(..., adaptive=True)``) targets the
order-unstable DAGs the frozen programs cannot price: every
resource-booking ``max`` is materialized unconditionally and recorded in
a per-resource **queue group** — (arrival stamp, service-cost row,
join node) per booking, in reference service order — so
:class:`~repro.replay.adaptive.AdaptiveProgram` can re-sort each queue
from a previous iterate's arrival times and re-serve it per grid point,
instead of trusting the frozen order.  The queue joins are emitted
*chainless* — no frozen served-order edge, which also collapses the
level count (see :class:`_Group`).  Daemon handler queues become
groups too (the block's service cost is the recv overhead plus its body
duration); a daemon block whose body is not affine over the block start
(a shared-CPU compute chain) marks its group *rigid* — kept frozen,
chain edges patched back in, out of the iteration —
while shared CPUs gain their own re-sortable ``cpu`` groups.  One
deliberate approximation: a started daemon's wake-time join
(``t = max(t, now)``) is dropped — it is subsumed by the per-block
arrival maxes except for a LIFO pop quirk the convergence check
arbitrates.  Adaptive programs therefore are not bit-identical to the
frozen compile even at the anchor; the default (non-adaptive) output is
unchanged byte for byte.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..network.topology import Topology
from ..whatif.evaluate import EvaluationError, Evaluator
from ..whatif.record import CommDag, Recording

#: An affine offset ``(c0, bytes, hops, traversals)``; see the module
#: docstring for the cost it denotes.
Row = Tuple[float, float, float, float]
_NO_OFFSET: Row = (0.0, 0.0, 0.0, 0.0)


class CompileError(RuntimeError):
    """The DAG could not be compiled (timing-sensitive or inconsistent)."""


class _Cost(float):
    """A cost that depends on the swept WAN parameters: its float value
    is the cost at the reference point, ``row`` its coefficients."""

    __slots__ = ("row",)

    def __new__(cls, ref: float, row: Row) -> "_Cost":
        self = float.__new__(cls, ref)
        self.row = row
        return self


class _WideBandwidth:
    """The walk's symbolic ``wide_bw``: ``size / wide_bw`` is the cost of
    one WAN wire transfer.  Its reference time is ``size * (1 / bw)``,
    the way the compiled program itself prices the reference point —
    not the evaluator's ``size / bw``, which can differ in the last bit
    and flip a tie.  The walk takes the quotient exactly once per WAN
    hop, which is also where the program's ``wan_bytes`` /
    ``wan_traversals`` totals are tallied."""

    def __init__(self, reference: float) -> None:
        self.ref_inverse = 1.0 / reference
        self.bytes = 0.0
        self.traversals = 0

    def __rtruediv__(self, size: float) -> _Cost:
        self.bytes += size
        self.traversals += 1
        return _Cost(size * self.ref_inverse, (0.0, size, 0.0, 0.0))


class Stamp(float):
    """A symbolic time: circuit node ``node`` plus the affine offset
    ``row`` accumulated on top of it.  The float value is the concrete
    time at the reference parameters, so heap and service order are
    native float comparisons; ``+`` extends the offset and never
    touches the circuit.

    There is deliberately no ``__new__``: a compile makes tens of
    thousands of stamps, and ``Stamp(ref)`` through the C constructor
    plus two slot stores is half the cost of a Python-level one.
    """

    __slots__ = ("node", "row")

    def __add__(self, cost: float) -> "Stamp":
        c0, nbytes, hops, traversals = self.row
        end = Stamp(float.__add__(self, cost))
        end.node = self.node
        if type(cost) is _Cost:
            d0, dbytes, dhops, dtraversals = cost.row
            end.row = (c0 + d0, nbytes + dbytes, hops + dhops,
                       traversals + dtraversals)
        else:                      # a grid-constant cost, in seconds
            end.row = (c0 + cost, nbytes, hops, traversals)
        return end

    __radd__ = __add__

    def flat(self) -> tuple:
        """``(node, c0, bytes, hops, traversals)``: the tuple form of
        :meth:`~repro.replay.program.ReplayProgram.from_circuit` and
        :meth:`~repro.replay.adaptive.AdaptiveProgram.
        from_circuit_groups`."""
        return (self.node,) + self.row


class _Circuit:
    """Append-only join-node store: parallel edge arrays."""

    __slots__ = ("pa", "pb", "ea", "eb", "joins_reduced", "zero")

    def __init__(self) -> None:
        # Node 0 is the root (time zero); give it a self-edge so the
        # arrays stay aligned with node ids.
        self.pa: List[int] = [0]
        self.pb: List[int] = [0]
        self.ea: List[Row] = [_NO_OFFSET]
        self.eb: List[Row] = [_NO_OFFSET]
        self.joins_reduced = 0
        #: the root stamp — an idle resource clock, a root's start time
        self.zero = zero = Stamp(0.0)
        zero.node = 0
        zero.row = _NO_OFFSET

    def node(self, x: Stamp, y: Stamp, later: float) -> Stamp:
        """Materialize ``max(x, y)`` unconditionally; ``later`` is its
        reference time."""
        stamp = Stamp(later)
        stamp.node = len(self.pa)
        stamp.row = _NO_OFFSET
        self.pa.append(x.node)
        self.pb.append(y.node)
        self.ea.append(x.row)
        self.eb.append(y.row)
        return stamp

    def join(self, x: Stamp, y: Stamp) -> Stamp:
        """max(x, y) — reduced to the operand itself where provably
        one-sided, else a node."""
        xr, yr = x.row, y.row
        if x.node == y.node:
            if xr[0] >= yr[0] and xr[1] >= yr[1] and xr[2] >= yr[2] \
                    and xr[3] >= yr[3]:
                self.joins_reduced += 1
                return x
            if yr[0] >= xr[0] and yr[1] >= xr[1] and yr[2] >= xr[2] \
                    and yr[3] >= xr[3]:
                self.joins_reduced += 1
                return y
        # The root stamp with no offset is time zero, and every cost
        # coefficient is non-negative, so max(x, 0) == x.
        elif x.node == 0 and xr == _NO_OFFSET:
            self.joins_reduced += 1
            return y
        elif y.node == 0 and yr == _NO_OFFSET:
            self.joins_reduced += 1
            return x
        return self.node(x, y, x if x >= y else y)


class _Group:
    """One contended resource's service queue, in reference order.

    ``ops`` rows are ``(arrival, cost_row, node_id)``: the arrival
    stamp the booking joined against the resource clock (in
    :meth:`Stamp.flat` form — a group keeps rows, not stamp objects:
    ten thousand of those alive until the walk ends tip the cyclic GC
    into a full collection mid-compile), the affine service-cost row
    ``(c0, bytes, hops, traversals)``, and the materialized join node
    whose value is the start of service.
    ``seed`` is the resource's initial clock (the root stamp for
    hardware; a daemon's post-prologue stamp).  ``rigid`` groups keep
    their frozen order — a daemon block's body was not affine over the
    block start, so re-sorting could not re-price the chain.

    Queue joins are emitted *chainless* (both predecessor slots point
    at the arrival): the adaptive engine overrides the node with the
    served start every sweep, so a frozen edge to the previous service
    would only stretch the levelization — the intra-queue chains are
    what make fft's frozen program 1183 levels deep.  ``chain_preds``
    remembers each dropped resource-clock stamp (join node id, clock
    node, clock row) so the frozen edge can be patched back in if the
    group later turns out rigid.
    """

    __slots__ = ("kind", "ops", "rigid", "seed", "chain_preds", "open")

    def __init__(self, kind: str, seed: Stamp) -> None:
        self.kind = kind
        self.ops: List[tuple] = []
        self.rigid = False
        self.seed = seed
        self.chain_preds: List[Tuple[int, int, Row]] = []
        #: daemon groups: ``(arrival, start)`` of the block in service
        self.open: Optional[Tuple[Stamp, Stamp]] = None


class _Queues:
    """The adaptive compile's queue-group recorder — the ``queues`` of
    :meth:`~repro.whatif.evaluate.Evaluator.walk`, which lists what each
    call stands in for.  Groups are keyed by resource identity and kept
    in creation order."""

    def __init__(self, circuit: _Circuit) -> None:
        self.circuit = circuit
        self.groups: dict = {}

    def _start(self, g: _Group, arrival: Stamp, free: Stamp) -> Stamp:
        """The start-of-service node of one queue op.  It is always
        materialized, even where a reduction would elide it: the op row
        names it and the adaptive engine overrides it every sweep.
        Unless the group is rigid the join is *chainless* — the node
        depends only on the arrival (both predecessor slots), so queue
        chains don't inflate the levelization; the reference clock still
        advances over the resource's ``free`` stamp, keeping the
        compile-time event order exact.  The dropped chain stamp is
        remembered for rigid patch-back."""
        later = arrival if arrival >= free else free
        if g.rigid:
            return self.circuit.node(arrival, free, later)
        start = self.circuit.node(arrival, arrival, later)
        g.chain_preds.append((start.node, free.node, free.row))
        return start

    def book(self, key: tuple, arrival: Stamp, free: Stamp,
             cost: float) -> Stamp:
        """Record one hardware service; the end-of-service stamp."""
        g = self.groups.get(key)
        if g is None:
            g = self.groups[key] = _Group(key[0], self.circuit.zero)
        start = self._start(g, arrival, free)
        end = start + cost
        g.ops.append((arrival.flat(), end.row, start.node))
        return end

    def wake(self, proc, now: Stamp) -> Stamp:
        """The clock a scheduled daemon resumes from.  Its group is
        created on the first wake, before the prologue can book
        anything.  The wake-time join of the frozen walk is dropped (see
        the module docstring) once the prologue has run, and a root
        daemon without prologue work is unconstrained: its first block
        starts at its own arrival."""
        key = ("daemon", proc.index)
        if key in self.groups:
            return proc.t
        self.groups[key] = _Group("daemon", self.circuit.zero)
        if proc.root and not proc.prologue:
            return self.circuit.zero
        return self.circuit.join(proc.t, now)

    def serve(self, proc, arrival: Stamp, free: Stamp) -> Stamp:
        """Open a daemon's handler block: the start-of-service stamp.
        The clock the first block finds — the post-prologue stamp —
        seeds the group's chain."""
        g = self.groups["daemon", proc.index]
        if not g.ops:
            g.seed = free
        start = self._start(g, arrival, free)
        g.open = (arrival, start)
        return start

    def served(self, proc, end: Stamp) -> None:
        """Close the open block: its cost is the recv overhead plus the
        body's duration, read off the offset ``end`` has over the start
        node."""
        g = self.groups["daemon", proc.index]
        arrival, start = g.open
        if end.node != start.node and not g.rigid:
            # The body joined a shared clock: its duration is not an
            # affine offset over the block start, so this queue cannot
            # be re-served from a cost row.  Keep the frozen order (the
            # shared clock has its own adaptive group) and restore the
            # chain edges its queue joins dropped — the adaptive engine
            # will never override them.
            g.rigid = True
            for nid, free_node, free_row in g.chain_preds:
                self.circuit.pb[nid] = free_node
                self.circuit.eb[nid] = free_row
            g.chain_preds.clear()
        g.ops.append((arrival.flat(), end.row, start.node))


def compile_dag(dag: CommDag, topology: Optional[Topology] = None,
                adaptive: bool = False):
    """Compile ``dag`` into a :class:`~repro.replay.program.ReplayProgram`.

    ``topology`` supplies the fixed (local network, gateway, WAN shape)
    constants and the reference WAN point the contention orders are
    resolved at; it defaults to the recording default, the mid-grid
    :data:`~repro.whatif.record.REFERENCE_POINT` on the DAG's own
    cluster shape.  Raises :class:`CompileError` for timing-sensitive
    DAGs — the caller owns the fallback to full simulation.

    With ``adaptive=True`` the result is an :class:`~repro.replay.
    adaptive.AdaptiveProgram`: resource bookings are materialized into
    re-sortable queue groups (see the module docstring) for the
    Gauss-Seidel re-pricing engine.  The default output is unchanged.
    """
    return compile_walk(lambda: Evaluator(dag), dag, topology, adaptive)


def compile_walk(evaluator: Callable[[], Evaluator], dag: CommDag,
                 topology: Optional[Topology], adaptive: bool):
    """:func:`compile_dag` on a caller's :class:`Evaluator` for ``dag``.

    The segment/block/pin compilation an evaluator does at construction
    is structural (no link parameters) and the compiler walks it as it
    is, so :class:`~repro.replay.backend.ReplayBackend` hands over the
    one it probes with instead of paying for a second and a third.
    ``evaluator`` is a thunk because an ``Evaluator`` refuses a
    timing-sensitive DAG with an error of its own: it is called only
    once the DAG has passed the compiler's checks.
    """
    from .program import ReplayProgram

    if dag.timing_sensitive:
        raise CompileError(
            "refusing to compile a timing-sensitive DAG: "
            + "; ".join(dag.sensitive_reasons))
    if topology is None:
        from ..experiments import grids
        from ..whatif.record import REFERENCE_POINT

        topology = grids.multi_cluster(
            *REFERENCE_POINT, clusters=len(dag.cluster_sizes),
            cluster_size=dag.cluster_sizes[0])
    if topology.cluster_sizes != dag.cluster_sizes:
        raise CompileError(
            f"topology shape {topology.cluster_sizes} does not match the "
            f"recorded shape {dag.cluster_sizes}")
    if topology.wan_variability is not None:
        raise CompileError("cannot compile under WAN variability")

    circuit = _Circuit()
    wide_bw = _WideBandwidth(topology.wide.bandwidth)
    # One WAN propagation: wide_lat, plus one lossable data traversal
    # (the loss model charges expected retransmission delay per WAN
    # traversal).
    wide_lat = _Cost(topology.wide.latency, (0.0, 0.0, 1.0, 1.0))
    queues = _Queues(circuit) if adaptive else None
    try:
        finish = evaluator().walk(
            topology, zero=circuit.zero, join=circuit.join,
            wide_bw=wide_bw, wide_lat=wide_lat, queues=queues)
    except EvaluationError as err:
        raise CompileError(f"compile {err}") from err

    meta = {
        "cluster_sizes": list(dag.cluster_sizes),
        "wan_shape": topology.wan_shape,
        "wan_hub": topology.wan_hub,
        "reference": [topology.wide.bandwidth, topology.wide.latency],
        "local_spec": [topology.local.latency, topology.local.bandwidth,
                       topology.local.send_overhead,
                       topology.local.recv_overhead],
        "wide_overheads": [topology.wide.send_overhead,
                           topology.wide.recv_overhead],
        "gateway_overhead_s": topology.gateway_overhead,
        "wan_bytes": wide_bw.bytes,
        "wan_traversals": wide_bw.traversals,
        "joins_reduced": circuit.joins_reduced,
        "num_ops": dag.num_ops,
        "num_messages": dag.num_messages,
    }
    finish_rows = [s.flat() for s in finish]
    if not adaptive:
        return ReplayProgram.from_circuit(
            circuit.pa, circuit.pb, circuit.ea, circuit.eb, finish_rows,
            meta)
    from .adaptive import AdaptiveProgram

    # Rigid queues keep their frozen order by construction (their
    # chain edges were patched back).  Singleton hardware queues
    # are exact without serving (a chainless join over a root seed
    # is just the arrival), but a singleton daemon queue still
    # needs its seed constraint served in.
    groups = list(queues.groups.values())
    glist = [(g.kind, g.seed.flat(), g.ops)
             for g in groups if not g.rigid and
             (len(g.ops) > 1 or (g.ops and g.seed is not circuit.zero))]
    meta["adaptive_groups"] = len(glist)
    meta["adaptive_group_ops"] = sum(len(ops) for _, _, ops in glist)
    meta["adaptive_rigid_groups"] = sum(1 for g in groups if g.rigid)
    return AdaptiveProgram.from_circuit_groups(
        circuit.pa, circuit.pb, circuit.ea, circuit.eb, finish_rows, meta,
        glist)


def compile_recording(recording: Recording):
    """Compile a :class:`~repro.whatif.record.Recording` on its own
    recorded topology (the usual entry point)."""
    return compile_dag(recording.dag, recording.topology)
