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

A walk returns a :class:`Decision` that keeps only the query side of
what it measured: the one program (or evaluator) its rung prices with,
and the walk's facts as plain data.  The recording, the
:class:`~repro.replay.backend.ReplayBackend` and every program the rung
does not price with are freed when the walk returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..experiments import grids
from ..network.topology import Topology
from ..whatif.evaluate import EvaluationError, Evaluator
from ..whatif.record import CommDag
from ..whatif.validate import (DEFAULT_TOLERANCE_PP, ValidationReport,
                               corner_points, validate)
from .adaptive import DEFAULT_MAX_ITERS
from .backend import ReplayBackend, timed
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
    point must downgrade to the interpreted evaluator.  Both close over
    the one program or evaluator the rung prices with, never the
    backend.
    """

    evaluate: Callable[[Topology], float]
    grid: Callable[..., Sequence]


def _frozen(backend: ReplayBackend, topology_for) -> Pricer:
    program, timings = backend.prepare(), backend.timings

    def evaluate(topology: Topology) -> float:
        try:
            return program.price(topology)
        except ValueError as err:
            raise EvaluationError(str(err)) from err

    def grid(bandwidths, latencies, loss_rates=None):
        with timed(timings, "price_s"):
            return program.price_grid(bandwidths, latencies, loss_rates)

    return Pricer(evaluate, grid)


def _adaptive(backend: ReplayBackend, topology_for) -> Pricer:
    program, timings = backend.prepare_adaptive(), backend.timings

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
        with timed(timings, "adaptive_price_s"):
            result = program.price_grid_adaptive(bandwidths, latencies,
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


class DeferredEvaluator:
    """The interpreted evaluator of one recorded DAG, built on its first
    :meth:`evaluate`: the downgrade target of a rung that rarely
    downgrades, so a warm walk that never needs it builds none."""

    __slots__ = ("dag", "_evaluator")

    def __init__(self, dag: CommDag) -> None:
        self.dag = dag
        self._evaluator: Optional[Evaluator] = None

    def evaluate(self, topology: Topology) -> float:
        if self._evaluator is None:
            self._evaluator = Evaluator(self.dag)
        return self._evaluator.evaluate(topology)


@dataclass(frozen=True)
class Rung:
    """One analytic rung: ``check(backend)`` measures the evidence
    report filed under ``evidence``, whose ``verdict`` attribute admits
    the rung (no check: admits unconditionally); ``pricer(backend,
    topology_for)`` builds its :class:`Pricer`; ``downgrade(backend)``
    (None: none) the evaluator a point the rung cannot price is
    re-priced by."""

    name: str
    pricer: Callable[[ReplayBackend, Callable], Pricer]
    evidence: Optional[str] = None
    check: Optional[Callable[[ReplayBackend], Any]] = None
    verdict: Optional[str] = None
    downgrade: Optional[Callable[[ReplayBackend], Any]] = None


#: top to bottom; ``Sweeper(backend=...)`` names the rung a walk starts at
LADDER = (
    Rung("replay", _frozen, "probe", ReplayBackend.probe, "stable"),
    Rung("vectorized-adaptive", _adaptive, "convergence",
         ReplayBackend.convergence_check, "converged",
         downgrade=lambda backend: DeferredEvaluator(backend.recording.dag)),
    Rung("predict", _interpreted,
         downgrade=lambda backend: backend.evaluator),
)


@dataclass(frozen=True)
class Compiled:
    """One program a walk loaded or compiled, as plain data: its
    :class:`~repro.experiments.cache.SimCache` ``key``, whether it was
    ``from_cache`` and its ``stats()``."""

    key: str
    from_cache: bool
    stats: Dict[str, Any]


@dataclass
class Facts:
    """What a walk did, as plain data: the frozen ``program`` and the
    ``adaptive`` one it prepared (None: not prepared) and the host
    seconds of each pipeline stage in ``timings`` (``record_s``,
    ``compile_s``, ``probe_s`` …, to which pricing a grid adds
    ``price_s`` or ``adaptive_price_s``)."""

    program: Optional[Compiled] = None
    adaptive: Optional[Compiled] = None
    timings: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, backend: ReplayBackend) -> "Facts":
        """``backend``'s facts; ``timings`` is its own dict, so the
        stages its pricer times after the walk land there too."""
        def compiled(program, key, from_cache) -> Optional[Compiled]:
            return None if program is None else \
                Compiled(key(), from_cache, program.stats())

        return cls(
            compiled(backend.program, backend.cache_key,
                     backend.from_cache),
            compiled(backend.adaptive_program, backend.adaptive_cache_key,
                     backend.adaptive_from_cache),
            backend.timings)


@dataclass
class Decision:
    """Outcome of one walk: the ``rung`` that prices the grid (or
    ``"simulate"``), the ground-truth ``validation`` report, the
    ``evidence`` reports measured on the way down (``"probe"``,
    ``"convergence"``), the rung's ``pricer`` (None on ``"simulate"``),
    the ``topology_for(bw, lat)`` it was validated on, the ``evaluator``
    a point it cannot price downgrades to (None: the frozen rung, which
    refuses instead; and ``"simulate"``) and the walk's :class:`Facts`
    (empty when faults refused before recording)."""

    rung: str
    validation: ValidationReport
    evidence: Dict[str, Any] = field(default_factory=dict)
    pricer: Optional[Pricer] = None
    topology_for: Callable[[float, float], Topology] = grids.multi_cluster
    evaluator: Optional[Any] = None
    facts: Facts = field(default_factory=Facts)

    def _simulated(self) -> Dict[tuple, float]:
        """``{(bw, lat): runtime}`` of the validated corners: they were
        simulated anyway, so every price there is the ground truth and
        agrees bit for bit with a full sweep."""
        return {(vp.bandwidth_mbyte_s, vp.latency_ms): vp.simulated_runtime
                for vp in self.validation.points}

    def price_point(self, bandwidth: float, latency_ms: float) -> float:
        """The rung's runtime at one point: the simulated runtime at a
        validated corner; where the rung has no trustworthy price (an
        unconverged adaptive point) the evaluator's.  Without an
        evaluator (the frozen rung) the rung's refusal is raised: the
        program refuses only a non-finite axis value."""
        simulated = self._simulated().get((bandwidth, latency_ms))
        if simulated is not None:
            return simulated
        topology = self.topology_for(bandwidth, latency_ms)
        try:
            return self.pricer.evaluate(topology)
        except EvaluationError:
            if self.evaluator is None:
                raise
            return self.evaluator.evaluate(topology)

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
                    runtime = self.evaluator.evaluate(
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

    def refuse(reason: str, facts: Optional[Facts] = None) -> Decision:
        return Decision("simulate", ValidationReport(
            app=app, variant=variant, tolerance_pp=DEFAULT_TOLERANCE_PP,
            fallback=True, reason=reason), evidence,
            facts=facts or Facts())

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
            return refuse(f"replay compilation failed: {err}",
                          Facts.of(backend))
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
        return Decision("simulate", report, evidence,
                        facts=Facts.of(backend))
    evaluator = None if accepted.downgrade is None \
        else accepted.downgrade(backend)
    return Decision(accepted.name, report, evidence, pricer, topology_for,
                    evaluator, Facts.of(backend))


def replay_record(decision: Decision, app: str, variant: str, scale: str,
                  seed: int,
                  meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One ``replay`` report record (JSON-lines, obs substrate) for a
    walked ladder; ``replay.mode`` is the rung that produced the grid."""
    program = decision.facts.program
    replay: Dict[str, Any] = dict(
        decision.summary(),
        from_cache=program is not None and program.from_cache,
        program=dict(program.stats) if program is not None else {},
        timings=dict(decision.facts.timings))
    return {"kind": "replay", "meta": dict(meta or {}), "app": app,
            "variant": variant, "scale": scale, "seed": seed,
            "replay": replay}
