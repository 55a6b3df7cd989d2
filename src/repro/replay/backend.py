"""The replay backend: record once, compile once, re-price everywhere.

:class:`ReplayBackend` packages the full pipeline for one
``(app, variant, scale, seed)``:

1. **Record** the communication DAG at the reference point
   (:func:`~repro.whatif.record.record_app`), exactly like the what-if
   predict path.
2. **Compile or load** the :class:`~repro.replay.program.ReplayProgram`.
   Compiled programs are content-addressed into
   :class:`~repro.experiments.cache.SimCache` (key includes the recorded
   topology fingerprint and the program format version), so a service
   cold start pays a millisecond JSON load instead of a recording run.
3. **Probe** the program against the reference
   :class:`~repro.whatif.evaluate.Evaluator` at the grid corners.  The
   compiled program freezes every contention order (resource queues,
   daemon service) at the reference point; the probe measures how much
   that frozen order matters at the grid extremes.  DAGs whose orders are
   stable (asp, barnes: sub-0.3%% everywhere) price vectorized; DAGs
   whose orders flip (fft's pipelined transpose rounds, water's daemon
   scheduling) are flagged *order-unstable*.
4. **Converge** (order-unstable programs only): compile the adaptive
   variant (:func:`compile_dag` with ``adaptive=True``) and run the
   :class:`~repro.replay.adaptive.AdaptiveProgram` fixed-point engine at
   the same corners.
This class only measures; which rung a verdict admits, where a refusal
lands, and what a decided panel keeps to price its grid (whole grids in
one vectorized pass, the loss-rate axis included) is
:mod:`repro.replay.ladder`'s decision (the table is in
``docs/replay.md``).  A backend lives for one walk.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..experiments import grids
from ..experiments.cache import SimCache
from ..network.linkspec import wan
from ..whatif.evaluate import Evaluator
from ..whatif.record import Recording, record_app
from ..whatif.validate import corner_points
from .adaptive import ADAPTIVE_FORMAT, DEFAULT_MAX_ITERS, AdaptiveProgram
from .compile import compile_walk
from .program import PROGRAM_FORMAT, ReplayProgram

#: Maximum |program - evaluator| / evaluator runtime disagreement at a
#: corner before the probe declares the DAG order-unstable (and the
#: convergence check the adaptive engine diverged); read per verdict.
#: The gap between stable and unstable DAGs is wide (<0.3% vs >10%), so
#: the exact threshold is not delicate.
PROBE_REL_TOL = 0.02

_NUMBER = (int, float)

#: The per-corner fields of a program's evidence and the JSON types of
#: their values, beside ``dag`` (the recording's digest) and ``points``:
#: what the probe compares, and what the convergence check adds to it
#: (with ``max_iters``, the iteration cap).
_PROBE_EVIDENCE = {"evaluator": _NUMBER, "program": _NUMBER}
_CONVERGENCE_EVIDENCE = dict(_PROBE_EVIDENCE, converged=(bool,),
                             iterations=(int,))


def _check_evidence(program: ReplayProgram) -> None:
    """Raise ValueError unless the evidence ``program.meta`` carries, if
    any, is well-formed: a digest string, ``[bandwidth, latency]``
    points, and one value of the right type per point in every field
    (``docs/replay.md``, "Programs are cache citizens")."""
    evidence = program.meta.get("evidence")
    if evidence is None:
        return
    adaptive = isinstance(program, AdaptiveProgram)
    fields = _CONVERGENCE_EVIDENCE if adaptive else _PROBE_EVIDENCE
    try:
        points = evidence["points"]
        ok = (isinstance(evidence["dag"], str)
              and all(len(p) == 2 and all(type(x) in _NUMBER for x in p)
                      for p in points)
              and all(len(evidence[name]) == len(points)
                      and all(type(x) in types for x in evidence[name])
                      for name, types in fields.items())
              and (not adaptive or type(evidence["max_iters"]) is int))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise ValueError("malformed corner evidence in the program meta")


@contextmanager
def timed(timings: Dict[str, float], name: str) -> Iterator[None]:
    """Time one pipeline stage into ``timings[name]`` (host seconds;
    left unset when the stage raises)."""
    t0 = time.perf_counter()  # lint: ignore[wall-clock]
    yield
    timings[name] = time.perf_counter() - t0  # lint: ignore[wall-clock]


@dataclass
class CornerPoint:
    """A program vs the evaluator at one grid corner (both analytic).
    An adaptive program's fixed point also says whether it converged
    there and after how many iterations; a frozen one iterates nothing."""

    bandwidth_mbyte_s: float
    latency_ms: float
    program_runtime: float
    evaluator_runtime: float
    converged: bool = True
    iterations: int = 0

    @property
    def rel_error(self) -> float:
        return abs(self.program_runtime - self.evaluator_runtime) \
            / self.evaluator_runtime


def _points_from(evidence: dict) -> List[CornerPoint]:
    """The :class:`CornerPoint` of every corner a program's evidence
    holds (``converged``/``iterations`` only an adaptive one's)."""
    n = len(evidence["points"])
    return [CornerPoint(bw, lat, program, expected, converged, iterations)
            for (bw, lat), program, expected, converged, iterations in zip(
                evidence["points"], evidence["program"],
                evidence["evaluator"], evidence.get("converged", [True] * n),
                evidence.get("iterations", [0] * n))]


@dataclass
class _CornerReport:
    """A verdict over the corner points, derived with ``rel_tol``."""

    rel_tol: float
    points: List[CornerPoint]

    @property
    def max_rel_error(self) -> float:
        return max((p.rel_error for p in self.points), default=0.0)


@dataclass
class ProbeReport(_CornerReport):
    """Stability verdict for one compiled program.

    This is *not* the ground-truth validation (that stays
    :func:`repro.whatif.validate.validate`, against full simulation): it
    isolates the one error the compilation step adds on top of the
    evaluator — frozen contention order — so the backend can downgrade
    to the interpreted evaluator precisely when compilation, not
    recording, is what broke.
    """

    @property
    def stable(self) -> bool:
        return self.max_rel_error <= self.rel_tol

    def summary(self) -> str:
        if self.stable:
            return (f"order-stable: max frozen-order error "
                    f"{self.max_rel_error:.2%} over {len(self.points)} "
                    f"probe points (tolerance {self.rel_tol:.0%})")
        return (f"order-unstable: frozen-order error "
                f"{self.max_rel_error:.2%} exceeds {self.rel_tol:.0%} "
                f"at the grid corners; trying the adaptive engine")


@dataclass
class ConvergenceReport(_CornerReport):
    """Outcome of the adaptive corner check for one compiled program.

    The probe asked "does the frozen order hold?"; this asks the next
    question down the ladder: "does the re-sorting iteration *find* the
    right order?".  At a converged point the engine's fixed point is the
    serve-in-arrival-order schedule, so its price must agree with the
    interpreted evaluator to float noise; a converged corner whose
    price still disagrees beyond ``rel_tol`` means the recording itself
    (not the iteration) is wrong there, and also fails the check.
    """

    max_iters: int

    @property
    def max_iterations(self) -> int:
        return max((p.iterations for p in self.points), default=0)

    @property
    def all_converged(self) -> bool:
        return all(p.converged for p in self.points)

    @property
    def converged(self) -> bool:
        """The rung verdict: every corner converged *and* agrees with
        the evaluator within tolerance."""
        return self.all_converged and self.max_rel_error <= self.rel_tol

    def summary(self) -> str:
        if self.converged:
            return (f"adaptive-converged: all {len(self.points)} corners "
                    f"fixed within {self.max_iterations} iterations, max "
                    f"error {self.max_rel_error:.2%} vs the evaluator")
        if not self.all_converged:
            bad = sum(1 for p in self.points if not p.converged)
            return (f"adaptive-unconverged: {bad}/{len(self.points)} "
                    f"corners still changing after {self.max_iters} "
                    f"iterations; downgrading to the per-point evaluator")
        return (f"adaptive-diverged: corners converged but max error "
                f"{self.max_rel_error:.2%} exceeds {self.rel_tol:.0%} "
                f"vs the evaluator; downgrading to the per-point evaluator")


class ReplayBackend:
    """Compile-and-price harness for one recorded application."""

    def __init__(self, recording: Recording,
                 cache: Optional[SimCache] = None) -> None:
        self.recording = recording
        self.cache = cache
        self.program: Optional[ReplayProgram] = None
        self.from_cache = False
        #: the adaptive-mode compilation, kept separate from ``program``:
        #: its base arrays are *chainless* (queue joins carry no frozen
        #: service chain), so its frozen sweep prices a no-waiting
        #: relaxation — only the iterated entry points may be used.
        self.adaptive_program: Optional[AdaptiveProgram] = None
        self.adaptive_from_cache = False
        #: host-seconds per pipeline stage, for reports and the serve
        #: job results (record_s is the recording's own wall time).
        self.timings: Dict[str, float] = {"record_s": recording.wall_time}
        self._evaluator: Optional[Evaluator] = None
        self._digest: Optional[str] = None
        self._corner_prices: Optional[Tuple[list, List[float]]] = None
        self._probe: Optional[ProbeReport] = None
        self._convergence: Optional[ConvergenceReport] = None

    # ------------------------------------------------------------------
    @classmethod
    def for_app(cls, app: str, variant: str, scale: str = "bench",
                seed: int = 0,
                cache: Optional[SimCache] = None) -> "ReplayBackend":
        """Record ``app``/``variant`` at the reference point and wrap it."""
        recording = record_app(app, variant, scale=scale, seed=seed)
        return cls(recording, cache=cache)

    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> Evaluator:
        """The interpreted evaluator for the same recording (the probe
        arbiter, and the downgrade target when orders are unstable)."""
        if self._evaluator is None:
            self._evaluator = Evaluator(self.recording.dag)
        return self._evaluator

    def cache_key(self) -> str:
        """Content-addressed :class:`SimCache` key of the compiled program.

        Everything the program depends on is in the key: the recording
        identity (app, variant, scale, seed), the recorded topology
        fingerprint (shape, link constants, and the reference point the
        orders were frozen at), and the program format version.
        """
        rec = self.recording
        return (f"replay-{rec.app}-{rec.variant}-{rec.scale}"
                f"-r{rec.topology.num_ranks}-s{rec.seed}"
                f"-{rec.topology.fingerprint()}-f{PROGRAM_FORMAT}")

    def adaptive_cache_key(self) -> str:
        """Cache key of the adaptive compilation: the frozen key plus
        the adaptive format version (group-array layout + iteration
        semantics)."""
        return f"{self.cache_key()}-a{ADAPTIVE_FORMAT}"

    # ------------------------------------------------------------------
    def _dag_digest(self) -> str:
        """The recording's :meth:`~repro.whatif.record.CommDag.digest`
        (memoized): what a program's evidence is bound to."""
        if self._digest is None:
            self._digest = self.recording.dag.digest()
        return self._digest

    def _load_or_compile(self, key: str, cls, adaptive: bool):
        """``(program, from_cache)``: the ``cls`` program cached under
        ``key``, or a fresh compilation stored there with its evidence.

        An entry that does not decode to a consistent program with
        well-formed evidence is counted corrupt; one whose evidence was
        measured on another recording is not this recording's program.
        Either is recompiled and stored over."""
        rec = self.recording
        prefix = "adaptive_" if adaptive else ""
        if self.cache is not None:
            program = None
            with timed(self.timings, prefix + "load_s"):
                entry = self.cache.lookup(key)
                if entry is not None:
                    try:
                        program = cls.from_record(entry["program"])
                        _check_evidence(program)
                    except (KeyError, TypeError, ValueError):
                        program = None
                        self.cache.mark_corrupt()
                    else:
                        evidence = program.meta.get("evidence")
                        if evidence is not None and \
                                evidence["dag"] != self._dag_digest():
                            program = None    # another recording's
                    del entry       # megabytes of text: not kept alive
            if program is not None:
                return program, True
            del self.timings[prefix + "load_s"]   # a miss is not a load
        with timed(self.timings, prefix + "compile_s"):
            # Compiling is a walk of the evaluator the probe prices
            # with: hand it over rather than build one per program.
            program = compile_walk(lambda: self.evaluator, rec.dag,
                                   rec.topology, adaptive)
        if self.cache is not None:
            # Measured before the one write, so the entry carries it.
            self._evidence(program)
            self.cache.store(key, {
                "kind": "replay-adaptive" if adaptive else "replay",
                "app": rec.app,
                "variant": rec.variant,
                "scale": rec.scale,
                "seed": rec.seed,
                "ranks": rec.topology.num_ranks,
                "fingerprint": rec.topology.fingerprint(),
                "stats": program.stats(),
                "program": program.to_record(),
            })
        return program, False

    def prepare(self) -> ReplayProgram:
        """Load the compiled program from cache, or compile and store it.

        Raises :class:`~repro.replay.compile.CompileError` for
        timing-sensitive recordings — callers decide the fallback.
        """
        if self.program is None:
            self.program, self.from_cache = self._load_or_compile(
                self.cache_key(), ReplayProgram, adaptive=False)
        return self.program

    def prepare_adaptive(self) -> AdaptiveProgram:
        """Load or compile the adaptive (queue-group) program.

        Kept separate from :meth:`prepare`'s frozen program: the
        adaptive compilation is only needed once the probe has declared
        the frozen orders unstable, and its chainless base arrays make
        it unusable for frozen pricing.
        """
        if self.adaptive_program is None:
            self.adaptive_program, self.adaptive_from_cache = \
                self._load_or_compile(self.adaptive_cache_key(),
                                      AdaptiveProgram, adaptive=True)
        return self.adaptive_program

    # ------------------------------------------------------------------
    def _held(self, program: Optional[ReplayProgram]) -> Optional[dict]:
        """``program``'s evidence if it was measured for this recording
        at today's corners (and, adaptive, today's iteration cap), else
        None."""
        evidence = None if program is None else program.meta.get("evidence")
        if evidence is None:
            return None
        current = (
            evidence["dag"] == self._dag_digest()
            and [tuple(p) for p in evidence["points"]] == corner_points(
                grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
            and evidence.get("max_iters", DEFAULT_MAX_ITERS)
            == DEFAULT_MAX_ITERS)
        return evidence if current else None

    def _corners(self):
        """The paper grid's corners — where the ladder checks a program —
        each with the interpreted evaluator's price there (memoized: the
        probe and the convergence check ask about the same four), read
        from either program's evidence when one holds it.  The
        evaluator prices what the program was compiled on: the recorded
        topology, WAN shape and overheads included, with only the wide
        link's latency and bandwidth replaced."""
        if self._corner_prices is None:
            held = self._held(self.program) or \
                self._held(self.adaptive_program)
            points = corner_points(grids.BANDWIDTHS_MBYTE_S,
                                   grids.LATENCIES_MS)
            if held is not None:
                self._corner_prices = points, held["evaluator"]
            else:
                topology = self.recording.topology
                wide = topology.wide
                self._corner_prices = points, [
                    self.evaluator.evaluate(replace(topology, wide=wan(
                        lat, bw, wide.send_overhead, wide.recv_overhead)))
                    for bw, lat in points]
        return self._corner_prices

    def _evidence(self, program: ReplayProgram) -> dict:
        """``program``'s corner evidence — the raw numbers its admission
        check compares — from its ``meta`` when :meth:`_held` vouches
        for it, else measured now (timed as the check's stage) and filed
        there: evaluator and program prices at the corners, and for an
        adaptive program its fixed point's flags, iterations and cap."""
        evidence = self._held(program)
        if evidence is not None:
            return evidence
        adaptive = isinstance(program, AdaptiveProgram)
        with timed(self.timings, "convergence_s" if adaptive else "probe_s"):
            points, evaluated = self._corners()
            evidence = {"dag": self._dag_digest(),
                        "points": [list(p) for p in points],
                        "evaluator": list(evaluated)}
            if adaptive:
                result = program.price_points_adaptive(points)
                evidence.update(program=result.runtimes.tolist(),
                                converged=result.converged.tolist(),
                                iterations=result.iterations.tolist(),
                                max_iters=result.max_iters)
            else:
                evidence["program"] = program.price_points(points).tolist()
            program.meta["evidence"] = evidence
        return evidence

    def probe(self) -> ProbeReport:
        """Frozen-order stability check at the grid corners (memoized),
        its verdict derived with the live :data:`PROBE_REL_TOL`."""
        if self._probe is None:
            self._probe = ProbeReport(
                PROBE_REL_TOL, _points_from(self._evidence(self.prepare())))
        return self._probe

    def convergence_check(self) -> ConvergenceReport:
        """Adaptive fixed-point check at the grid corners (memoized).

        This is the probe's analogue one rung down the ladder: run the
        re-sorting engine at the corners and compare its *converged*
        prices against the interpreted evaluator.  Corners are the
        natural check points — they bracket the grid's order churn, and
        a corner that converges bounds the iteration budget the full
        grid will need.  Like the probe, it reads the program's evidence
        and derives the verdict with the live :data:`PROBE_REL_TOL`.
        """
        if self._convergence is None:
            evidence = self._evidence(self.prepare_adaptive())
            self._convergence = ConvergenceReport(
                PROBE_REL_TOL, _points_from(evidence),
                evidence["max_iters"])
        return self._convergence
