"""The fallback ladder: which analytic path may price an application.

One ordered rung table, one walk, one ground-truth arbitration.  The
walk starts at the rung a sweep's ``backend=`` names, takes the first
rung whose analytic check admits the recording, and hands that rung's
pricer to **one** :func:`repro.whatif.validate.validate` call against
full simulation at the paper grid's corners.  ``simulate`` is not a
rung but the only landing spot: active faults, timing-sensitive
recordings, :class:`~repro.replay.compile.CompileError` and a failed
corner validation all end there.  Rung order and acceptance policy live
here and nowhere else; ``docs/replay.md`` has the table in prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..experiments import grids
from ..network.topology import Topology
from ..whatif.evaluate import EvaluationError
from ..whatif.validate import (DEFAULT_TOLERANCE_PP, ValidationReport,
                               corner_points, validate)
from .adaptive import DEFAULT_MAX_ITERS
from .backend import ReplayBackend
from .compile import CompileError


@dataclass(frozen=True)
class Pricer:
    """How one rung prices.

    ``evaluate(topology)`` (the surface
    :func:`~repro.whatif.validate.validate` expects) returns a runtime
    or raises :class:`~repro.whatif.evaluate.EvaluationError` — never an
    unconverged price.  ``grid(bandwidths, latencies, loss_rates=None)``
    returns ``[lat][bw]`` rows (``[loss][lat][bw]`` with a loss axis)
    holding ``None`` where the rung has no trustworthy price and the
    point must downgrade to the interpreted evaluator.
    """

    evaluate: Callable[[Topology], float]
    grid: Callable[..., Sequence]


def _frozen(backend: ReplayBackend, topology_for) -> Pricer:
    program = backend.prepare()

    def evaluate(topology: Topology) -> float:
        try:
            return program.price(topology)
        except ValueError as err:
            raise EvaluationError(str(err)) from err

    return Pricer(evaluate, backend.price_grid)


def _adaptive(backend: ReplayBackend, topology_for) -> Pricer:
    program = backend.prepare_adaptive()

    def evaluate(topology: Topology) -> float:
        try:
            runtime, converged, _iters = program.price_adaptive(topology)
        except ValueError as err:
            raise EvaluationError(str(err)) from err
        if not converged:
            raise EvaluationError(
                f"adaptive engine did not converge within "
                f"{DEFAULT_MAX_ITERS} iterations at this point")
        return runtime

    def grid(bandwidths, latencies, loss_rates=None):
        result = backend.price_grid_adaptive(bandwidths, latencies,
                                             loss_rates)
        return np.where(result.converged, result.runtimes, None)

    return Pricer(evaluate, grid)


def _interpreted(backend: ReplayBackend, topology_for) -> Pricer:
    evaluate = backend.evaluator.evaluate

    def grid(bandwidths, latencies, loss_rates=None):
        if loss_rates is not None:      # the float walk has no loss term
            return [[[None] * len(bandwidths) for _ in latencies]
                    for _ in loss_rates]
        return [[evaluate(topology_for(bw, lat)) for bw in bandwidths]
                for lat in latencies]

    return Pricer(evaluate, grid)


@dataclass(frozen=True)
class Rung:
    """One analytic rung: ``check(backend)`` measures the evidence
    report filed under ``evidence``, whose ``verdict`` attribute admits
    the rung (no check: admits unconditionally); ``pricer(backend,
    topology_for)`` builds its :class:`Pricer`."""

    name: str
    pricer: Callable[[ReplayBackend, Callable], Pricer]
    evidence: Optional[str] = None
    check: Optional[Callable[[ReplayBackend], Any]] = None
    verdict: Optional[str] = None


#: top to bottom; ``Sweeper(backend=...)`` names the rung a walk starts at
LADDER = (
    Rung("replay", _frozen, "probe", ReplayBackend.probe, "stable"),
    Rung("vectorized-adaptive", _adaptive, "convergence",
         ReplayBackend.convergence_check, "converged"),
    Rung("predict", _interpreted),
)


@dataclass
class Decision:
    """Outcome of one walk: the ``rung`` that prices the grid (or
    ``"simulate"``), its ``pricer`` (None on ``"simulate"``), the
    ``evidence`` reports measured on the way down (``"probe"``,
    ``"convergence"``), the ground-truth ``validation`` report, the
    :class:`ReplayBackend` (None when faults refused before recording)
    and the ``topology_for(bw, lat)`` the pricer was validated on."""

    rung: str
    validation: ValidationReport
    backend: Optional[ReplayBackend] = None
    evidence: Dict[str, Any] = field(default_factory=dict)
    pricer: Optional[Pricer] = None
    topology_for: Callable[[float, float], Topology] = grids.multi_cluster

    def _simulated(self) -> Dict[tuple, float]:
        """``{(bw, lat): runtime}`` of the validated corners: they were
        simulated anyway, so every price there is the ground truth and
        agrees bit for bit with a full sweep."""
        return {(vp.bandwidth_mbyte_s, vp.latency_ms): vp.simulated_runtime
                for vp in self.validation.points}

    def price_point(self, bandwidth: float, latency_ms: float) -> float:
        """The rung's runtime at one point: the simulated runtime at a
        validated corner; where the rung has no trustworthy price (an
        unconverged adaptive point) the evaluator's."""
        simulated = self._simulated().get((bandwidth, latency_ms))
        if simulated is not None:
            return simulated
        topology = self.topology_for(bandwidth, latency_ms)
        try:
            return self.pricer.evaluate(topology)
        except EvaluationError:
            return self.backend.evaluator.evaluate(topology)

    def price_grid(self, bandwidths: Sequence[float],
                   latencies: Sequence[float],
                   loss_rate: Optional[float] = None):
        """``({(bw, lat): runtime}, downgraded)`` in the sweep's serial
        order: a point the rung could not price is re-priced by the
        interpreted evaluator and listed, instead of trusting a capped
        value.  The float walk has no loss term, so under a
        ``loss_rate`` nothing downgrades and such a point stays None.
        Without a loss rate the validated corners read their simulated
        runtimes, as :meth:`price_point` does."""
        losses = None if loss_rate is None else [loss_rate]
        rows = self.pricer.grid(bandwidths, latencies, losses)
        simulated = {} if losses else self._simulated()
        runtimes, downgraded = {}, []
        for lat, row in zip(latencies, rows[0] if losses else rows):
            for bw, runtime in zip(bandwidths, row):
                if runtime is None and not losses:
                    downgraded.append((bw, lat))
                    runtime = self.backend.evaluator.evaluate(
                        self.topology_for(bw, lat))
                runtimes[bw, lat] = simulated.get(
                    (bw, lat), runtime if runtime is None else float(runtime))
        return runtimes, downgraded

    def summary(self) -> Dict[str, Any]:
        """The verdict, JSON-able: ``mode`` (the rung), a line per
        evidence report, the ``validation`` line and, on a ``"simulate"``
        landing, the bare ``fallback_reason``."""
        out: Dict[str, Any] = {"mode": self.rung}
        for name, report in self.evidence.items():
            out[name] = report.summary()
        out["validation"] = self.validation.summary()
        if self.validation.fallback:
            out["fallback_reason"] = self.validation.reason
        return out


def walk(entry: str, app: str, variant: str, *, scale: str, seed: int,
         cache, faulty: bool,
         baseline: Callable[[], float],
         simulate: Callable[[float, float], float],
         topology_for: Callable[[float, float], Topology]) -> Decision:
    """Walk the ladder from the rung named ``entry`` for one recording,
    validating within :data:`~repro.whatif.validate.DEFAULT_TOLERANCE_PP`.
    """
    evidence: Dict[str, Any] = {}

    def refuse(reason: str, backend=None) -> Decision:
        return Decision("simulate", ValidationReport(
            app=app, variant=variant, tolerance_pp=DEFAULT_TOLERANCE_PP,
            fallback=True, reason=reason), backend, evidence)

    if faulty:
        return refuse("fault injection active: recorded DAGs and compiled "
                      "programs do not model the plan's seeded loss, "
                      "outages, or retransmission; simulating every grid "
                      "point")
    backend = ReplayBackend.for_app(app, variant, scale=scale, seed=seed,
                                    cache=cache)
    start = [rung.name for rung in LADDER].index(entry)
    accepted = pricer = None
    if not backend.recording.timing_sensitive:
        try:
            for rung in LADDER[start:]:
                if rung.check is not None:
                    report = evidence[rung.evidence] = rung.check(backend)
                    if not getattr(report, rung.verdict):
                        continue
                accepted, pricer = rung, rung.pricer(backend, topology_for)
                break
        except CompileError as err:
            return refuse(f"replay compilation failed: {err}", backend)
    # The one ground-truth arbitration every rung shares.  It also words
    # the timing-sensitive refusal, before touching the (absent) pricer.
    # A rung that fails here does not retry the next one down: every
    # rung prices the same recorded schedule, so they would fail alike.
    report = validate(
        backend.recording, baseline_runtime=baseline(), simulate=simulate,
        points=corner_points(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS),
        tolerance_pp=DEFAULT_TOLERANCE_PP, evaluator=pricer,
        topology_for=topology_for)
    if report.fallback:
        return Decision("simulate", report, backend, evidence)
    return Decision(accepted.name, report, backend, evidence, pricer,
                    topology_for)


def replay_record(decision: Decision, app: str, variant: str, scale: str,
                  seed: int,
                  meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One ``replay`` report record (JSON-lines, obs substrate) for a
    walked ladder; ``replay.mode`` is the rung that produced the grid."""
    backend = decision.backend
    program = getattr(backend, "program", None)
    replay: Dict[str, Any] = dict(
        decision.summary(),
        from_cache=backend.from_cache if backend is not None else False,
        program=program.stats() if program is not None else {},
        timings=dict(backend.timings) if backend is not None else {})
    return {"kind": "replay", "meta": dict(meta or {}), "app": app,
            "variant": variant, "scale": scale, "seed": seed,
            "replay": replay}
