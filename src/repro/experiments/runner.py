"""Sweep driver: relative speedups over the bandwidth x latency grid.

Relative speedup follows the paper exactly: ``T_L / T_M * 100%`` where
``T_L`` is the run time on the all-Myrinet single cluster with the same
number of processors and ``T_M`` the run time on the multi-cluster.
Baseline runs are cached per (app, variant, scale, ranks, seed).

Three orthogonal accelerators (all off by default):

``backend="predict"`` / ``backend="replay"``
    Fill the grid analytically from one recorded run instead of
    simulating every point: ``"predict"`` re-prices the recorded
    communication DAG with the interpreted evaluator
    (:mod:`repro.whatif`), ``"replay"`` first tries the compiled
    vectorized programs (:mod:`repro.replay`).  The name is
    where the sweep *enters* the fallback ladder; which rung actually
    prices an application — or whether it is simulated after all — is
    decided by :mod:`repro.replay.ladder` (table in ``docs/replay.md``)
    and reported as :attr:`SpeedupGrid.backend` and
    :attr:`SpeedupGrid.decision`.  The four grid-corner points of an
    analytic grid are always the *simulated* ground truth (they were
    computed for validation anyway), in :meth:`Sweeper.speedup_grid` and
    :meth:`Sweeper.speedup_at` alike, so spot-checking either against a
    full sweep at the corners compares identical floats.

``workers=N``
    Run ground-truth grid simulations in a
    :class:`concurrent.futures.ProcessPoolExecutor` with ``N`` workers.
    Results are merged in the serial iteration order, so the produced
    grid is identical to a serial run.  (Per-run reporter records are
    not emitted for pool-side runs.)

``cache=SimCache(...)``
    Memoize every ground-truth runtime on disk; see
    :mod:`repro.experiments.cache`.

``faults=FaultPlan(...)``
    Inject the plan's WAN faults into every *multi-cluster* run (the
    all-Myrinet baseline stays clean — relative speedups then read as
    "degraded WAN vs. ideal LAN", mirroring the paper's T_L / T_M).  A
    fault-bearing sweep disables the other accelerators for the faulty
    runs: the ladder refuses (recorded DAGs do not model loss or
    retransmission), the on-disk cache is bypassed (its key does not
    include the plan), and grid points run serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..apps import run_app
from ..network.topology import Topology
from ..obs.report import RunReporter, run_record
from ..runtime.run import RunResult
from . import grids
from .cache import SimCache, runtime_entry


#: ``Sweeper(backend=)``: simulate, or the rung the ladder is entered at
BACKENDS: Tuple[str, ...] = ("simulate", "predict", "replay")


def relative_speedup_pct(baseline_runtime: float, runtime: float) -> float:
    """The paper's y-axis, ``T_L / T_M * 100``.  Every front end that
    reports a speedup calls this one float expression — which is why a
    merged serve stream, a replayed panel and a direct sweep compare
    ``repr``-equal."""
    return 100.0 * baseline_runtime / runtime


@dataclass
class GridPoint:
    bandwidth_mbyte_s: float
    latency_ms: float
    runtime: float
    relative_speedup_pct: float


@dataclass
class SpeedupGrid:
    """Relative-speedup surface for one application variant."""

    app: str
    variant: str
    baseline_runtime: float
    points: Dict[Tuple[float, float], GridPoint] = field(default_factory=dict)
    #: the rung of the backend ladder that actually produced the points:
    #: "simulate", "predict", "vectorized-adaptive", or "replay".
    backend: str = "simulate"
    #: the :class:`repro.replay.ladder.Decision` of an analytic sweep:
    #: evidence, corner validation, fallback reason (None: no walk).
    decision: Optional[object] = None
    #: (bw, lat) points of a "vectorized-adaptive" grid that did not
    #: converge and were re-priced by the interpreted evaluator.
    downgraded_points: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def predicted(self) -> bool:
        """True when an analytic rung, not full simulation, produced
        the points."""
        return self.backend != "simulate"

    def put(self, bandwidth_mbyte_s: float, latency_ms: float,
            runtime: float) -> None:
        """Set one point from its runtime (speedup against the baseline)."""
        self.points[(bandwidth_mbyte_s, latency_ms)] = GridPoint(
            bandwidth_mbyte_s=bandwidth_mbyte_s, latency_ms=latency_ms,
            runtime=runtime, relative_speedup_pct=relative_speedup_pct(
                self.baseline_runtime, runtime))

    def series(self, latency_ms: float) -> List[GridPoint]:
        """One Figure-3 curve: points of a latency series, by bandwidth."""
        if not self.points:
            raise KeyError(
                f"speedup grid for {self.app}/{self.variant} has no points "
                f"yet — populate it with Sweeper.speedup_grid() before "
                f"calling series()")
        bws = sorted({bw for bw, lat in self.points if lat == latency_ms})
        if not bws:
            available = ", ".join(
                f"{lat:g}" for lat in sorted({lat for _, lat in self.points}))
            raise KeyError(
                f"speedup grid for {self.app}/{self.variant} has no "
                f"latency={latency_ms:g} ms series; available latencies: "
                f"{available} ms")
        return [self.points[(bw, latency_ms)] for bw in bws]


#: Entries each key memo below keeps.  A key is a pure function of its
#: arguments, so the bound only limits memory: the paper surface is 462
#: grid points x 12 app/variants = 5544 distinct keys, and an entry is
#: an argument tuple plus a ~60-character string.
KEY_MEMO_SIZE = 8192


# typed=True: 1, 1.0 and True compare equal but must not share a memo
# slot — the seed is formatted into the key, so True would read "sTrue".
@lru_cache(maxsize=KEY_MEMO_SIZE, typed=True)
def point_key(app: str, variant: str, scale: str, seed: int,
              bandwidth_mbyte_s: float, latency_ms: float,
              clusters: int = grids.NUM_CLUSTERS,
              cluster_size: int = grids.CLUSTER_SIZE,
              wan_shape: str = "full") -> str:
    """Content-addressed :class:`SimCache` key for one clean grid point.

    This is *the* per-point identity the sweep machinery and
    :mod:`repro.serve` share: two processes (or two users' job
    submissions) that name the same ``(app, variant, scale, seed,
    grid-point, cluster shape)`` compute the same key and therefore
    dedup against the same on-disk entry.  The key is a pure function of
    its arguments — no process state, no dict iteration order — backed
    by :meth:`~repro.network.topology.Topology.fingerprint`.  Because it
    is pure it is memoised (bounded, ``KEY_MEMO_SIZE``): a repeated grid
    point costs a dict probe, not a :class:`Topology` build plus a sha1.
    """
    topo = grids.multi_cluster(bandwidth_mbyte_s, latency_ms, clusters,
                               cluster_size, wan_shape)
    return SimCache.key(app, variant, scale, seed, topo)


@lru_cache(maxsize=KEY_MEMO_SIZE, typed=True)
def baseline_key(app: str, variant: str, scale: str, seed: int,
                 num_ranks: int = grids.NUM_RANKS) -> str:
    """:class:`SimCache` key for the all-Myrinet baseline run (memoised
    like :func:`point_key`)."""
    return SimCache.key(app, variant, scale, seed, grids.baseline(num_ranks))


# One ground-truth point — how it is described, run and reported — for
# the Sweeper (serial and pooled) and repro.serve's workers alike.
def point_payload(app: str, variant: str, scale: str, seed: int,
                  bandwidth_mbyte_s: Optional[float],
                  latency_ms: Optional[float],
                  clusters: int = grids.NUM_CLUSTERS,
                  cluster_size: int = grids.CLUSTER_SIZE,
                  wan_shape: str = "full") -> Dict[str, Any]:
    """The picklable work order for one point; ``(None, None)`` is the
    all-Myrinet baseline on ``clusters * cluster_size`` ranks.  Callers
    may add ``max_events`` (an engine event budget)."""
    return {"app": app, "variant": variant, "scale": scale, "seed": seed,
            "bandwidth_mbyte_s": bandwidth_mbyte_s, "latency_ms": latency_ms,
            "clusters": clusters, "cluster_size": cluster_size,
            "wan_shape": wan_shape}


def point_topology(payload: Dict[str, Any]) -> Topology:
    """The machine a point payload describes."""
    if payload["bandwidth_mbyte_s"] is None or payload["latency_ms"] is None:
        return grids.baseline(payload["clusters"] * payload["cluster_size"])
    return grids.multi_cluster(
        payload["bandwidth_mbyte_s"], payload["latency_ms"],
        payload["clusters"], payload["cluster_size"], payload["wan_shape"])


def run_ground_truth(payload: Dict[str, Any], faults=None) -> RunResult:
    """Simulate the point ``payload`` describes, under ``faults`` (a
    :class:`~repro.faults.plan.FaultPlan`) if given."""
    return run_app(payload["app"], payload["variant"],
                   point_topology(payload), scale=payload["scale"],
                   seed=payload["seed"], faults=faults,
                   max_events=payload.get("max_events"))


def point_result(result: RunResult) -> Dict[str, Any]:
    """The result record of one run: what is cached and streamed."""
    return {"runtime": result.runtime,
            "engine_events": result.machine.engine.events_processed}


def simulate_point(payload: Dict[str, Any], faults=None) -> Dict[str, Any]:
    """Payload in, result record out: the task of both process pools
    (module-level so it pickles)."""
    return point_result(run_ground_truth(payload, faults))


class Sweeper:
    """Runs applications over grids with baseline caching.

    Pass ``reporter=`` (a :class:`~repro.obs.report.RunReporter`) to get
    one machine-readable JSON-lines record per simulated run — config,
    seed, topology, sim/wall time, and the full traffic summary — the raw
    material sharded/async sweep drivers resume from.
    """

    def __init__(self, scale: str = "bench", seed: int = 0,
                 reporter: Optional[RunReporter] = None,
                 workers: Optional[int] = None,
                 cache: Optional[SimCache] = None,
                 faults=None,
                 backend: str = "simulate") -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown sweep backend {backend!r}: expected "
                             f"one of {', '.join(BACKENDS)}")
        self.scale = scale
        self.seed = seed
        self.reporter = reporter
        self.backend = backend
        self.workers = workers
        self.cache = cache
        self.faults = faults
        self._baseline_cache: Dict[Tuple[str, str, int], float] = {}
        #: (app, variant, clusters, cluster_size, wan_shape) -> memoized
        #: :class:`repro.replay.ladder.Decision` (``figure4`` asks for
        #: one panel point by point, so a panel walks once)
        self._decisions: Dict[tuple, object] = {}

    @property
    def _active_faults(self):
        """The sweep's :class:`FaultPlan` when it changes runs, else None."""
        plan = self.faults
        if plan is not None and plan.active:
            return plan
        return None

    # ------------------------------------------------------------------
    def _reported(self, app: str, variant: str,
                  result: RunResult) -> RunResult:
        if self.reporter is not None:
            self.reporter.emit(run_record(
                result.machine, result.runtime, result.wall_time,
                meta={"app": app, "variant": variant, "scale": self.scale,
                      "harness": "sweeper"}))
        return result

    def _payload(self, app: str, variant: str, bandwidth: Optional[float],
                 latency_ms: Optional[float], *shape) -> Dict[str, Any]:
        return point_payload(app, variant, self.scale, self.seed, bandwidth,
                             latency_ms, *shape)

    def _cached(self, payload: Dict[str, Any]) -> Optional[float]:
        """The cached ground-truth runtime of a clean point, if any."""
        if self.cache is None:
            return None
        return self.cache.get(payload["app"], payload["variant"], self.scale,
                              self.seed, point_topology(payload))

    def _landed(self, payload: Dict[str, Any],
                record: Dict[str, Any]) -> float:
        """Cache a clean point's fresh result record; returns its runtime."""
        if self.cache is not None:
            app, variant = payload["app"], payload["variant"]
            topo = point_topology(payload)
            self.cache.store(
                SimCache.key(app, variant, self.scale, self.seed, topo),
                runtime_entry(app, variant, self.scale, self.seed, topo,
                              record))
        return record["runtime"]

    def _sim_runtime(self, payload: Dict[str, Any], faults=None) -> float:
        """Ground-truth runtime for one point, via the on-disk cache.

        Fault-bearing runs bypass the cache entirely — its key does not
        encode the plan, so a hit from (or a store into) a clean sweep
        would silently mix clean and degraded runtimes.
        """
        if faults is None:
            hit = self._cached(payload)
            if hit is not None:
                return hit
        record = point_result(self._reported(
            payload["app"], payload["variant"],
            run_ground_truth(payload, faults)))
        return self._landed(payload, record) if faults is None \
            else record["runtime"]

    def baseline_runtime(self, app: str, variant: str,
                         num_ranks: int = grids.NUM_RANKS) -> float:
        key = (app, variant, num_ranks)
        if key not in self._baseline_cache:
            # the baseline machine is one all-Myrinet cluster
            self._baseline_cache[key] = self._sim_runtime(
                self._payload(app, variant, None, None, 1, num_ranks))
        return self._baseline_cache[key]

    # ------------------------------------------------------------------
    def decision(self, app: str, variant: str,
                 clusters: int = grids.NUM_CLUSTERS,
                 cluster_size: int = grids.CLUSTER_SIZE,
                 wan_shape: str = "full"):
        """The fallback ladder's verdict for (app, variant, shape).

        A :class:`repro.replay.ladder.Decision` — rung, evidence
        reports, ground-truth validation report, pricer, downgrade
        evaluator and the walk's facts — walked once and memoized;
        ``None`` for ``backend="simulate"``, which never consults the
        ladder.  The memo keeps only what the rung prices with: the
        recording, and every program the rung does not price with, are
        freed once the walk returns.
        """
        if self.backend == "simulate":
            return None
        memo_key = (app, variant, clusters, cluster_size, wan_shape)
        if memo_key not in self._decisions:
            from ..replay import ladder

            decision = ladder.walk(
                self.backend, app, variant, scale=self.scale, seed=self.seed,
                cache=self.cache, faulty=self._active_faults is not None,
                baseline=lambda: self.baseline_runtime(
                    app, variant, clusters * cluster_size),
                simulate=lambda bw, lat: self._sim_runtime(self._payload(
                    app, variant, bw, lat, clusters, cluster_size,
                    wan_shape)),
                topology_for=lambda bw, lat: grids.multi_cluster(
                    bw, lat, clusters, cluster_size, wan_shape))
            self._decisions[memo_key] = decision
            if self.reporter is not None:
                self.reporter.emit(ladder.replay_record(
                    decision, app, variant, self.scale, self.seed,
                    meta={"harness": "sweeper"}))
        return self._decisions[memo_key]

    # ------------------------------------------------------------------
    def speedup_at(self, app: str, variant: str, bandwidth: float,
                   latency_ms: float, clusters: int = grids.NUM_CLUSTERS,
                   cluster_size: int = grids.CLUSTER_SIZE,
                   wan_shape: str = "full") -> GridPoint:
        base = self.baseline_runtime(app, variant, clusters * cluster_size)
        decision = self.decision(app, variant, clusters, cluster_size,
                                 wan_shape)
        if decision is None or decision.pricer is None:
            runtime = self._sim_runtime(
                self._payload(app, variant, bandwidth, latency_ms, clusters,
                              cluster_size, wan_shape),
                faults=self._active_faults)
        else:
            runtime = decision.price_point(bandwidth, latency_ms)
        return GridPoint(
            bandwidth_mbyte_s=bandwidth,
            latency_ms=latency_ms,
            runtime=runtime,
            relative_speedup_pct=relative_speedup_pct(base, runtime),
        )

    def _simulate_grid(self, app: str, variant: str,
                       points: Sequence[Tuple[float, float]]
                       ) -> Dict[Tuple[float, float], float]:
        """Ground-truth runtimes for ``points``, serial or pooled.

        The parallel path takes what the cache has, fans the misses out
        to a process pool, and merges in the serial iteration order —
        the resulting dict (and every stored entry) is identical to a
        serial sweep's.  Fault-bearing sweeps always run serially (the
        pool task does not carry the plan) and never touch the cache.
        """
        faults = self._active_faults
        payloads = {point: self._payload(app, variant, *point)
                    for point in points}
        if not (self.workers and self.workers > 1 and faults is None):
            return {point: self._sim_runtime(payloads[point], faults=faults)
                    for point in points}

        from concurrent.futures import ProcessPoolExecutor

        runtimes = {point: self._cached(payloads[point]) for point in points}
        misses = [point for point in points if runtimes[point] is None]
        if misses:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                records = pool.map(simulate_point,
                                   [payloads[point] for point in misses])
                for point, record in zip(misses, records):
                    runtimes[point] = self._landed(payloads[point], record)
        return runtimes

    def speedup_grid(self, app: str, variant: str,
                     bandwidths=grids.BANDWIDTHS_MBYTE_S,
                     latencies=grids.LATENCIES_MS) -> SpeedupGrid:
        """The full Figure-3 panel for one application variant."""
        base = self.baseline_runtime(app, variant)
        grid = SpeedupGrid(app=app, variant=variant, baseline_runtime=base)
        decision = grid.decision = self.decision(app, variant)
        if decision is not None:
            grid.backend = decision.rung
        if decision is not None and decision.pricer is not None:
            runtimes, grid.downgraded_points = decision.price_grid(
                bandwidths, latencies)
        else:
            runtimes = self._simulate_grid(
                app, variant,
                [(bw, lat) for lat in latencies for bw in bandwidths])
        for (bw, lat), runtime in runtimes.items():
            grid.put(bw, lat, runtime)
        return grid

    # ------------------------------------------------------------------
    def communication_time_pct(self, app: str, variant: str, bandwidth: float,
                               latency_ms: float) -> float:
        """Figure 4's metric: (T_M - T_L) / T_M * 100."""
        point = self.speedup_at(app, variant, bandwidth, latency_ms)
        base = self.baseline_runtime(app, variant)
        return max(0.0, 100.0 * (point.runtime - base) / point.runtime)
