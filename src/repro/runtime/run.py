"""Convenience entry point for running SPMD programs on a machine."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..network.stats import TrafficStats
from ..network.topology import Topology
from ..obs.bus import ProbeBus
from ..obs.report import active_reporter, run_record
from .context import Context
from .machine import Machine, RankStats

MainBody = Callable[[Context], Generator]


@dataclass
class RunResult:
    """Outcome of one simulated program run."""

    runtime: float
    results: List[Any]
    machine: Machine
    #: host wall-clock seconds spent inside ``machine.run()``
    wall_time: float = 0.0

    @property
    def stats(self) -> TrafficStats:
        return self.machine.stats

    @property
    def rank_stats(self) -> List[RankStats]:
        return self.machine.rank_stats

    def traffic_summary(self) -> Dict[str, float]:
        return self.machine.stats.summary()


def run_spmd(
    topology: Topology,
    main: MainBody,
    seed: int = 0,
    until: Optional[float] = None,
    bus: Optional[ProbeBus] = None,
    report_meta: Optional[Dict[str, Any]] = None,
    sanitize: bool = False,
    faults=None,
    max_events: Optional[int] = None,
) -> RunResult:
    """Run ``main(ctx)`` on every rank of ``topology`` to completion.

    ``main`` receives a bound :class:`Context`; it may spawn services.
    Returns the :class:`RunResult` with the parallel runtime (completion
    time of the slowest rank) and each rank's return value.

    ``bus`` attaches a prepared :class:`~repro.obs.bus.ProbeBus` (with
    tracers/metrics/exporters already subscribed) to the machine.  Use a
    fresh bus per run — the machine wires its own traffic accounting into
    it.  When a run reporter is active (see
    :func:`repro.obs.report.active_reporter`), one JSON-lines record is
    emitted per run, tagged with ``report_meta``.

    ``sanitize=True`` attaches the runtime protocol sanitizer
    (:class:`repro.lint.Sanitizer`): FIFO/conservation/monotonicity
    violations raise at run end, deadlocks get wait-for-cycle reports,
    and leak findings land on ``result.machine.sanitizer.findings``.
    Results are byte-identical with the sanitizer on or off.

    ``faults`` takes a :class:`~repro.faults.plan.FaultPlan`: injected
    WAN faults plus (unless the plan disables it) the reliable transport
    that lets the run complete under loss.  ``max_events`` bounds the
    engine event budget (:class:`TimeoutError` on exhaustion) — the chaos
    tests' guarantee that a faulty run ends instead of hanging.
    """
    machine = Machine(topology, seed=seed, bus=bus, sanitize=sanitize,
                      faults=faults)
    for rank in topology.ranks():
        machine.spawn(rank, main, name=f"rank{rank}")
    # Host wall-time measurement for reports, not simulated time.
    wall_start = time.perf_counter()  # lint: ignore[wall-clock]
    machine.run(until=until, max_events=max_events)
    wall = time.perf_counter() - wall_start  # lint: ignore[wall-clock]
    machine.seal()
    result = RunResult(runtime=machine.runtime(), results=machine.results(),
                       machine=machine, wall_time=wall)
    reporter = active_reporter()
    if reporter is not None:
        reporter.emit(run_record(machine, result.runtime, wall,
                                 meta=report_meta))
    return result
