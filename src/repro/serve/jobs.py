"""Job schema of the simulation service: specs, states, typed errors.

A *job* is one sweep-shaped request: an application variant, a seed, a
(bandwidth x latency) grid, an optional fault plan, and an execution
kind.  Jobs arrive as JSON (see docs/serve.md for the wire format), are
validated into a frozen :class:`JobSpec`, and are content-hashed so that
identical requests — across connections, users, and server restarts —
dedup against the same on-disk :class:`~repro.experiments.cache.SimCache`
entries.

Kinds:

``sweep``
    Ground-truth simulation of every grid point plus the all-Myrinet
    baseline; per-point relative speedups exactly as
    :class:`~repro.experiments.runner.Sweeper` computes them.
``whatif``
    The record-once analytic fast path (:mod:`repro.whatif`): corner
    validation + evaluated grid, one worker task for the whole grid.
``replay``
    The compiled vectorized fast path (:mod:`repro.replay`): the
    recorded DAG is compiled to a flat event program (content-addressed
    into the cache, so a warm server prices without re-recording) and
    the grid is priced in one numpy pass, with the same corner
    validation and automatic downgrade ladder as ``whatif``.
``chaos``
    Per-point runs under the job's :class:`~repro.faults.plan.FaultPlan`
    with the ``max_events`` budget enforced; results report survival and
    fault-recovery cost instead of speedups.
``profile``
    Per-point causal profiles (:mod:`repro.critpath`): wall time plus
    the 14-bucket attribution.

Content addressing: the job hash covers ``(kind, app, variant, scale,
seed, grid, cluster shape, FaultPlan, engine version)``.  Per *point*,
clean sweep points reuse the exact
:func:`~repro.experiments.runner.point_key` the :class:`Sweeper` uses —
so service traffic and CLI sweeps share one cache population — while
fault-bearing, predicted, and profile points append a kind + plan +
engine-version suffix so they can never collide with ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__ as ENGINE_VERSION
from ..experiments import grids
from ..experiments.runner import baseline_key, point_key, point_payload

#: Legal job kinds, in documentation order.
KINDS: Tuple[str, ...] = ("sweep", "whatif", "replay", "chaos", "profile")

#: grid-at-once (analytic) job kind -> the rung its Sweeper enters the
#: fallback ladder at
GRID_BACKENDS = {"whatif": "predict", "replay": "replay"}

#: Job lifecycle states (see docs/serve.md for the transition diagram).
QUEUED = "queued"
RUNNING = "running"
PARTIAL = "partial"        # running, with at least one point streamed
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)


class JobError(Exception):
    """Base of every typed service error; carries an HTTP status + code."""

    status = 500
    code = "internal"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def to_json(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message}}


class InvalidJob(JobError):
    """The submission is malformed: bad JSON shape, field, or value."""

    status = 400
    code = "invalid-job"


class AdmissionError(JobError):
    """The server refused the job: queue full or budget exceeded."""

    status = 429
    code = "admission"


class UnknownJob(JobError):
    """No job with the requested id."""

    status = 404
    code = "unknown-job"


# ----------------------------------------------------------------------
# Fault sub-schema
# ----------------------------------------------------------------------
_FAULT_FIELDS = {"loss", "max_retries", "no_transport"}


def _is_number(value: Any, types=(int, float)) -> bool:
    """A JSON number of ``types``.  ``true``/``false`` are not: Python's
    bool is an int, and would be admitted as 1/0 under its own hash."""
    return isinstance(value, types) and not isinstance(value, bool)


def _canonical_faults(raw: Any) -> Optional[Dict[str, Any]]:
    """Validate and canonicalize the ``faults`` object of a submission.

    The wire format is a small declarative subset of
    :class:`~repro.faults.plan.FaultPlan`: uniform WAN packet loss plus
    transport knobs.  Canonical form drops defaults so that equivalent
    requests hash identically.
    """
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InvalidJob(f"faults must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _FAULT_FIELDS
    if unknown:
        raise InvalidJob(f"unknown faults field(s): {sorted(unknown)} "
                         f"(known: {sorted(_FAULT_FIELDS)})")
    out: Dict[str, Any] = {}
    loss = raw.get("loss", 0.0)
    if not _is_number(loss) or not 0.0 <= float(loss) <= 1.0:
        raise InvalidJob(f"faults.loss must be a probability in [0, 1], "
                         f"got {loss!r}")
    if loss:
        out["loss"] = float(loss)
    retries = raw.get("max_retries", 10)
    if not _is_number(retries, int) or retries < 0:
        raise InvalidJob(f"faults.max_retries must be a non-negative int, "
                         f"got {retries!r}")
    if retries != 10:
        out["max_retries"] = retries
    if raw.get("no_transport"):
        out["no_transport"] = True
    return out or None


def build_fault_plan(canonical: Optional[Dict[str, Any]]):
    """Rebuild the :class:`~repro.faults.plan.FaultPlan` a canonical
    faults dict describes (None for a clean run)."""
    if not canonical:
        return None
    from ..faults.plan import (ALL_WAN, FaultPlan, PacketLoss,
                               TransportConfig)

    transport = None if canonical.get("no_transport") else TransportConfig(
        max_retries=canonical.get("max_retries", 10))
    loss = ()
    if canonical.get("loss"):
        loss = (PacketLoss(ALL_WAN, canonical["loss"]),)
    return FaultPlan(loss=loss, transport=transport)


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------
_SPEC_FIELDS = {"kind", "app", "variant", "scale", "seed", "bandwidths",
                "latencies", "clusters", "cluster_size", "wan_shape",
                "faults", "max_events", "tags"}


def _grid_axis(raw: Any, name: str) -> Tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise InvalidJob(f"{name} must be a non-empty array of numbers")
    out = []
    for value in raw:
        # json.loads admits NaN and +-Infinity, which no run can price
        if not _is_number(value) or not 0 < value < math.inf:
            raise InvalidJob(f"{name} entries must be finite positive "
                             f"numbers, got {value!r}")
        out.append(float(value))
    if len(set(out)) != len(out):
        raise InvalidJob(f"{name} contains duplicate values")
    return tuple(out)


@dataclass(frozen=True)
class JobSpec:
    """A validated, immutable, content-addressable job description."""

    kind: str
    app: str
    variant: str
    scale: str
    seed: int
    bandwidths: Tuple[float, ...]
    latencies: Tuple[float, ...]
    clusters: int = grids.NUM_CLUSTERS
    cluster_size: int = grids.CLUSTER_SIZE
    wan_shape: str = "full"
    faults: Optional[Tuple[Tuple[str, Any], ...]] = None
    max_events: Optional[int] = None
    tags: Tuple[Tuple[str, str], ...] = ()

    # ------------------------------------------------------------------
    @staticmethod
    def from_json(payload: Any) -> "JobSpec":
        """Validate one submission object into a spec (typed errors)."""
        if not isinstance(payload, dict):
            raise InvalidJob(
                f"job must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - _SPEC_FIELDS
        if unknown:
            raise InvalidJob(f"unknown field(s): {sorted(unknown)} "
                             f"(known: {sorted(_SPEC_FIELDS)})")

        kind = payload.get("kind", "sweep")
        if kind not in KINDS:
            raise InvalidJob(f"unknown kind {kind!r} (one of {list(KINDS)})")

        app = payload.get("app")
        # Canonical: fft/optimized is fft/unoptimized (one registered
        # driver), so the two requests share a hash and every cache key.
        variant = grids.resolve_variant(
            app, payload.get("variant", grids.paper_variant(app)))
        from ..apps import get_builder
        try:
            get_builder(app, variant)
        except (ValueError, TypeError) as exc:
            raise InvalidJob(str(exc)) from None

        scale = payload.get("scale", "bench")
        if scale not in ("paper", "bench"):
            raise InvalidJob(f"scale must be 'paper' or 'bench', got {scale!r}")

        seed = payload.get("seed", 0)
        if not _is_number(seed, int) or seed < 0:
            raise InvalidJob(f"seed must be a non-negative int, got {seed!r}")

        bandwidths = _grid_axis(
            payload.get("bandwidths", list(grids.BANDWIDTHS_MBYTE_S)),
            "bandwidths")
        latencies = _grid_axis(
            payload.get("latencies", list(grids.LATENCIES_MS)), "latencies")

        clusters = payload.get("clusters", grids.NUM_CLUSTERS)
        cluster_size = payload.get("cluster_size", grids.CLUSTER_SIZE)
        for name, value in (("clusters", clusters),
                            ("cluster_size", cluster_size)):
            if not _is_number(value, int) or value < 1:
                raise InvalidJob(f"{name} must be a positive int, got {value!r}")
        if clusters < 2:
            raise InvalidJob("clusters must be >= 2 (a one-cluster machine "
                             "has no WAN to sweep)")

        wan_shape = payload.get("wan_shape", "full")
        if wan_shape not in ("full", "star", "ring"):
            raise InvalidJob(f"wan_shape must be full/star/ring, "
                             f"got {wan_shape!r}")

        if kind in GRID_BACKENDS and (
                clusters, cluster_size, wan_shape) != (
                grids.NUM_CLUSTERS, grids.CLUSTER_SIZE, "full"):
            raise InvalidJob(
                f"{kind} jobs run on the paper's 4x8 full-mesh shape only "
                f"(the record-once pipeline validates against its corners)")

        faults = _canonical_faults(payload.get("faults"))
        if kind == "chaos" and faults is None:
            raise InvalidJob("chaos jobs need a faults object "
                             "(e.g. {\"loss\": 0.01})")
        if kind in GRID_BACKENDS and faults is not None:
            raise InvalidJob(
                f"{kind} jobs cannot carry faults: recorded DAGs do not "
                f"model the plan's seeded loss or retransmission")

        max_events = payload.get("max_events")
        if max_events is not None and (
                not _is_number(max_events, int) or max_events < 1):
            raise InvalidJob(f"max_events must be a positive int, "
                             f"got {max_events!r}")

        tags = payload.get("tags", {})
        if not isinstance(tags, dict) or \
                not all(isinstance(k, str) and isinstance(v, str)
                        for k, v in tags.items()):
            raise InvalidJob("tags must be an object of string -> string")

        return JobSpec(
            kind=kind, app=app, variant=variant, scale=scale, seed=seed,
            bandwidths=bandwidths, latencies=latencies, clusters=clusters,
            cluster_size=cluster_size, wan_shape=wan_shape,
            faults=tuple(sorted(faults.items())) if faults else None,
            max_events=max_events,
            tags=tuple(sorted(tags.items())))

    # ------------------------------------------------------------------
    @property
    def faults_dict(self) -> Optional[Dict[str, Any]]:
        return dict(self.faults) if self.faults else None

    def fault_plan(self):
        return build_fault_plan(self.faults_dict)

    def canonical(self) -> Dict[str, Any]:
        """JSON-able canonical form: sorted keys, engine version pinned."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "app": self.app,
            "variant": self.variant,
            "scale": self.scale,
            "seed": self.seed,
            "bandwidths": list(self.bandwidths),
            "latencies": list(self.latencies),
            "clusters": self.clusters,
            "cluster_size": self.cluster_size,
            "wan_shape": self.wan_shape,
            "engine": ENGINE_VERSION,
        }
        if self.faults:
            out["faults"] = self.faults_dict
        if self.max_events is not None:
            out["max_events"] = self.max_events
        if self.tags:
            out["tags"] = dict(self.tags)
        return out

    def content_hash(self) -> str:
        """SHA-256 over the canonical form (incl. engine version)."""
        return self._content_hash

    # A spec is frozen, so what is derived from it is derived once: the
    # job id, the 202 body and every status poll read the same hash, and
    # every point of a suffixed kind the same suffix.  (cached_property
    # writes the instance __dict__ directly, which a frozen dataclass
    # allows; neither name is a field, so eq/hash/repr do not see them.)
    @cached_property
    def _content_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    def points(self) -> List[Tuple[float, float]]:
        """Grid points in the Sweeper's serial iteration order."""
        return [(bw, lat) for lat in self.latencies for bw in self.bandwidths]

    @property
    def num_ranks(self) -> int:
        return self.clusters * self.cluster_size

    @property
    def needs_baseline(self) -> bool:
        """Sweep-like kinds report speedups, which need the baseline."""
        return self.kind == "sweep" or self.kind in GRID_BACKENDS

    def total_points(self) -> int:
        """Units of simulation work the job will schedule (incl. baseline)."""
        return len(self.points()) + (1 if self.needs_baseline else 0)

    # ------------------------------------------------------------------
    @cached_property
    def _key_suffix(self) -> str:
        """Extra identity for points whose result depends on more than
        the topology: kind, fault plan, and engine version."""
        extra = {"kind": self.kind, "engine": ENGINE_VERSION}
        if self.faults:
            extra["faults"] = self.faults_dict
        if self.kind == "chaos" and self.max_events is not None:
            extra["max_events"] = self.max_events
        blob = json.dumps(extra, sort_keys=True)
        return "-" + self.kind + hashlib.sha256(blob.encode()).hexdigest()[:12]

    def is_ground_truth(self, baseline: bool) -> bool:
        """Whether this job's grid points (or, with ``baseline``, its
        baseline) are plain clean simulations: the entries the Sweeper
        shares — its key, no ``kind``.  Those of a clean sweep are, and
        the baseline of the analytic kinds."""
        if self.kind == "sweep":
            return not self.faults
        return baseline and self.kind in GRID_BACKENDS

    @cached_property
    def _suffix_of(self) -> Dict[bool, str]:
        """Key suffix by ``is baseline``: none for ground truth."""
        return {baseline: "" if self.is_ground_truth(baseline)
                else self._key_suffix for baseline in (False, True)}

    def cache_key(self, bandwidth_mbyte_s: Optional[float],
                  latency_ms: Optional[float]) -> str:
        """Content-addressed cache key for one of this job's points.

        ``(None, None)`` selects the baseline point.  Clean sweep points
        (and their baseline) are *exactly* the Sweeper's keys, so service
        traffic deduplicates against command-line sweeps; every other
        point carries the kind/faults/engine suffix.
        """
        if bandwidth_mbyte_s is None or latency_ms is None:
            return baseline_key(self.app, self.variant, self.scale, self.seed,
                                self.num_ranks) + self._suffix_of[True]
        return point_key(self.app, self.variant, self.scale, self.seed,
                         bandwidth_mbyte_s, latency_ms, self.clusters,
                         self.cluster_size, self.wan_shape) \
            + self._suffix_of[False]

    def point_payload(self, bandwidth_mbyte_s: Optional[float],
                      latency_ms: Optional[float]) -> Dict[str, Any]:
        """Picklable work order for :func:`repro.serve.worker.run_point`."""
        return dict(
            point_payload(self.app, self.variant, self.scale, self.seed,
                          bandwidth_mbyte_s, latency_ms, self.clusters,
                          self.cluster_size, self.wan_shape),
            kind="baseline" if bandwidth_mbyte_s is None else self.kind,
            faults=self.faults_dict, max_events=self.max_events)


# ----------------------------------------------------------------------
# Job: one accepted submission and its accumulated results
# ----------------------------------------------------------------------
@dataclass
class Job:
    """Mutable lifecycle record the scheduler drives through the states."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    #: streamed records, in emission order (replayed to late subscribers)
    results: List[Dict[str, Any]] = field(default_factory=list)
    points_total: int = 0
    points_done: int = 0
    cache_hits: int = 0
    dispatched: int = 0
    failed_points: int = 0
    error: Optional[str] = None
    #: host wall seconds from RUNNING to terminal (for points/s metrics)
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.points_done if self.points_done else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able status for ``GET /jobs/<id>`` and run reports."""
        out = {
            "id": self.id,
            "state": self.state,
            "kind": self.spec.kind,
            "app": self.spec.app,
            "variant": self.spec.variant,
            "scale": self.spec.scale,
            "seed": self.spec.seed,
            "content_hash": self.spec.content_hash(),
            "points_total": self.points_total,
            "points_done": self.points_done,
            "cache_hits": self.cache_hits,
            "dispatched": self.dispatched,
            "failed_points": self.failed_points,
            "hit_rate": self.hit_rate,
        }
        if self.error:
            out["error"] = self.error
        if self.wall_s:
            out["wall_s"] = self.wall_s
        if self.spec.tags:
            out["tags"] = dict(self.spec.tags)
        return out
