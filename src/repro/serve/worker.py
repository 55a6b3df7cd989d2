"""Pool-side execution of one unit of servable work.

These functions run inside the scheduler's persistent
:class:`~concurrent.futures.ProcessPoolExecutor`.  They are module-level
(picklable), take one plain-dict payload built by
:meth:`repro.serve.jobs.JobSpec.point_payload`, and return a plain-dict
record — the result part of the cache entry, and what the job's result
stream carries.  Sweep points and baselines are the shared recipe
:func:`repro.experiments.runner.simulate_point`; chaos wraps the same
run.  No reporter/bus state leaks across the process
boundary: pool runs never emit per-run report records (matching
``Sweeper(workers=N)`` semantics); the serve layer emits per-*job*
records instead.
"""

from __future__ import annotations

from typing import Any, Dict

from ..experiments.runner import (point_result, point_topology,
                                  run_ground_truth, simulate_point)
from .jobs import GRID_BACKENDS, build_fault_plan


def run_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one point; dispatch on the payload's kind.

    Returns a JSON-able record.  ``chaos`` failures (typed transport /
    deadlock / event-budget errors) are *results*, not exceptions — the
    job keeps streaming its other points.  Any other exception
    propagates and fails the point.
    """
    kind = payload["kind"]
    faults = build_fault_plan(payload.get("faults"))
    if kind == "profile":
        return _run_profile(payload, faults)
    if kind == "chaos":
        return _run_chaos(payload, faults)
    return simulate_point(payload, faults)   # sweep points and baselines


def _run_chaos(payload: Dict[str, Any], faults) -> Dict[str, Any]:
    """One run under the job's fault plan; survival is the result."""
    from ..runtime.machine import DeadlockError
    from ..runtime.transport import TransportError

    try:
        result = run_ground_truth(payload, faults)
    except (TransportError, DeadlockError, TimeoutError) as exc:
        return {"ok": False, "error": type(exc).__name__, "detail": str(exc)}
    record: Dict[str, Any] = {"ok": True, **point_result(result)}
    summary = result.traffic_summary()
    if "faults" in summary:
        record["faults"] = summary["faults"]
    return record


def _run_profile(payload: Dict[str, Any], faults) -> Dict[str, Any]:
    """One causal-profile run: wall time + 14-bucket attribution."""
    from ..critpath.profile import profile_app

    result, profile = profile_app(payload["app"], payload["variant"],
                                  point_topology(payload),
                                  scale=payload["scale"],
                                  seed=payload["seed"], faults=faults)
    return {
        "runtime": result.runtime,
        "buckets": profile.run_buckets,
        "dominant_bucket": profile.dominant_bucket(exclude=("compute",)),
        "max_residual_s": profile.max_residual(),
    }


def run_grid(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The analytic fast paths for a whole grid, as one pool task.

    Reuses :class:`~repro.experiments.runner.Sweeper` with the
    ``backend=`` the job kind maps to, so the fallback ladder, corner
    validation, and baseline handling are byte-for-byte the CLI's.
    ``cache_root`` (when set) points at the server's cache: the corner
    ground-truth simulations dedup with everything else, and compiled
    programs are content-addressed into it — the next job for the same
    recording skips recording *and* compilation and goes straight to
    pricing.
    """
    from ..experiments.cache import SimCache
    from ..experiments.runner import Sweeper

    cache = SimCache(payload["cache_root"]) if payload.get("cache_root") \
        else None
    sweeper = Sweeper(scale=payload["scale"], seed=payload["seed"],
                      backend=GRID_BACKENDS[payload["kind"]], cache=cache)
    grid = sweeper.speedup_grid(payload["app"], payload["variant"],
                                bandwidths=payload["bandwidths"],
                                latencies=payload["latencies"])
    out: Dict[str, Any] = dict(
        grid.decision.summary(),
        baseline=grid.baseline_runtime,
        predicted=grid.predicted,
        points=[{"bandwidth_mbyte_s": bw, "latency_ms": lat,
                 "runtime": point.runtime}
                for (bw, lat), point in grid.points.items()])
    if grid.downgraded_points:
        out["downgraded_points"] = [list(p) for p in grid.downgraded_points]
    return out
