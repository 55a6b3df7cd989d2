"""Async job queue: admission, sharding, dedup, and streaming.

The :class:`Scheduler` is the service's core loop, independent of any
transport (the HTTP front end in :mod:`repro.serve.server` is one thin
client of it; tests drive it directly):

- **Admission** — submissions pass an :class:`AdmissionPolicy` before
  they exist: queue depth, concurrent-job, and per-job point budgets,
  each rejected with a typed
  :class:`~repro.serve.jobs.AdmissionError`.  Point budgets compose with
  the engine's own ``max_events`` guard: every dispatched run carries
  the policy's event budget unless the job asked for a tighter one.
- **Dedup** — each point is content-hashed
  (:meth:`~repro.serve.jobs.JobSpec.cache_key`) into the on-disk
  :class:`~repro.experiments.cache.SimCache`; hits stream back without
  touching the pool, across jobs, users, and server restarts.
- **Sharding** — misses fan out over one persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` shared by every job,
  so a long sweep and a one-point probe interleave at point granularity.
- **Streaming** — results are emitted as they land.  A job's record
  list is its only log: a subscriber is a cursor into it plus a wake-up
  flag, so attaching at any time first replays the history, a stream
  observed end-to-end is complete and ordered regardless of when it was
  opened, and each wake-up hands over *every* record emitted so far in
  one batch — a ready record is never held back to wait for another.
- **Retention** — the job table is bounded: the most recent
  ``RETAINED_TERMINAL_JOBS`` finished jobs stay queryable, older ones
  are forgotten (404 ``unknown-job``); queued, running and
  currently-streamed jobs are never forgotten.

One emitted record is one JSON object (see docs/serve.md for the exact
shapes): a ``job`` header, an optional ``baseline``, one ``point`` per
grid point, and a terminal ``end`` carrying the final state.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, AsyncIterator, Deque, Dict, List, Optional, Set

from ..experiments.cache import SimCache, runtime_entry
from ..experiments.runner import point_topology, relative_speedup_pct
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReporter, serve_job_record
from . import worker
from .jobs import (CANCELLED, DONE, FAILED, GRID_BACKENDS, PARTIAL, QUEUED,
                   RUNNING, AdmissionError, Job, JobSpec, UnknownJob)


#: Terminal jobs (and their ~45 result records each) the job table
#: keeps for ``GET /jobs[/<id>]`` and late ``/stream`` replays; without a
#: bound a server's memory grows with every job it has ever run.
RETAINED_TERMINAL_JOBS = 256


@dataclass(frozen=True)
class AdmissionPolicy:
    """Budgets a submission must fit inside to be accepted."""

    #: jobs allowed to sit in the queue + run at once (beyond -> 429)
    max_jobs: int = 16
    #: jobs actively dispatching points at once
    max_concurrent_jobs: int = 2
    #: grid points (incl. baseline) one job may schedule
    max_points_per_job: int = 256
    #: engine event budget forced onto every dispatched run (None = off);
    #: jobs may only tighten it, never exceed it
    max_events_per_point: Optional[int] = 50_000_000

    def admit(self, spec: JobSpec, active_jobs: int) -> None:
        """Raise a typed :class:`AdmissionError` if the job cannot enter."""
        if active_jobs >= self.max_jobs:
            raise AdmissionError(
                f"job queue full ({active_jobs}/{self.max_jobs} jobs "
                f"queued or running); retry after a job finishes")
        points = spec.total_points()
        if points > self.max_points_per_job:
            raise AdmissionError(
                f"job schedules {points} points, over the per-job budget "
                f"of {self.max_points_per_job}; split the grid")
        if (self.max_events_per_point is not None and
                spec.max_events is not None and
                spec.max_events > self.max_events_per_point):
            raise AdmissionError(
                f"max_events {spec.max_events} exceeds the server budget "
                f"of {self.max_events_per_point}")

    def effective_max_events(self, spec: JobSpec) -> Optional[int]:
        """The event budget a dispatched point actually runs under."""
        if spec.max_events is None:
            return self.max_events_per_point
        if self.max_events_per_point is None:
            return spec.max_events
        return min(spec.max_events, self.max_events_per_point)


class Scheduler:
    """Owns the job table, the queue, and the worker pool.

    Single-event-loop discipline: every method is called from the loop
    that ran :meth:`start` (the HTTP handlers and tests do), so no locks
    are needed — emission, subscription, and state transitions are
    atomic between awaits.
    """

    def __init__(self, cache: SimCache,
                 policy: Optional[AdmissionPolicy] = None,
                 workers: int = 2,
                 registry: Optional[MetricsRegistry] = None,
                 reporter: Optional[RunReporter] = None) -> None:
        self.cache = cache
        self.policy = policy or AdmissionPolicy()
        self.workers = workers
        self.registry = registry if registry is not None else MetricsRegistry()
        self.reporter = reporter
        self.jobs: Dict[str, Job] = {}
        self._queue: Deque[str] = deque()
        self._running: Set[str] = set()
        self._tasks: Dict[str, asyncio.Task] = {}
        #: job id -> wake-up flag of each live stream subscriber
        self._subs: Dict[str, List[asyncio.Event]] = {}
        #: terminal job ids still in the table, oldest first
        self._terminal: Deque[str] = deque()
        self._cancel_events: Dict[str, asyncio.Event] = {}
        self._pool = None
        self._seq = 0
        self._started = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if self._started:
            return
        # "spawn", not the platform default "fork": forked children would
        # inherit dups of whatever connection sockets happen to be open at
        # first dispatch, and peers would never see EOF after the server
        # closes its side of those connections.
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"))
        self._started = True

    async def stop(self) -> None:
        """Cancel everything in flight and shut the pool down."""
        for job_id in list(self._tasks):
            task = self._tasks[job_id]
            task.cancel()
        for task in list(self._tasks.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._started = False

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Job:
        """Validate, admit, enqueue; returns the new :class:`Job`.

        Raises :class:`~repro.serve.jobs.InvalidJob` on a malformed
        payload and :class:`~repro.serve.jobs.AdmissionError` when a
        budget says no — both map to typed HTTP rejections upstream.
        """
        if not self._started:
            raise RuntimeError("scheduler not started")
        try:
            spec = JobSpec.from_json(payload)
            active = len(self._queue) + len(self._running)
            self.policy.admit(spec, active)
        except Exception:
            self.registry.counter("serve.jobs.rejected").inc()
            raise
        self._seq += 1
        job = Job(id=f"j{self._seq:04d}-{spec.content_hash()[:8]}", spec=spec)
        job.points_total = spec.total_points()
        self.jobs[job.id] = job
        self._subs[job.id] = []
        self._cancel_events[job.id] = asyncio.Event()
        self._queue.append(job.id)
        self.registry.counter("serve.jobs.submitted").inc()
        self._emit(job, {"kind": "job", "job": job.id,
                         "spec": spec.canonical(),
                         "points": job.points_total})
        self._pump()
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(f"no job {job_id!r}") from None

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs finish instantly, running
        jobs stop dispatching and drop their pending points."""
        job = self.get(job_id)
        if job.state in (QUEUED,):
            self._queue.remove(job_id)
            self._finish(job, CANCELLED)
        elif job.state in (RUNNING, PARTIAL):
            self._cancel_events[job_id].set()
        return job

    # ------------------------------------------------------------------
    # Queue pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while self._queue and \
                len(self._running) < self.policy.max_concurrent_jobs:
            job_id = self._queue.popleft()
            self._running.add(job_id)
            task = asyncio.get_running_loop().create_task(
                self._run_job(self.jobs[job_id]))
            self._tasks[job_id] = task
        self._update_gauges()

    def _update_gauges(self) -> None:
        self.registry.gauge("serve.queue_depth").set(float(len(self._queue)))
        self.registry.gauge("serve.jobs.running").set(
            float(len(self._running)))
        hits = self.registry.counter("serve.points.cache_hits").value
        total = self.registry.counter("serve.points.completed").value
        self.registry.gauge("serve.cache.hit_rate").set(
            hits / total if total else 0.0)
        # The cache counts its own unparseable entries; mirror the count.
        corrupt = self.registry.counter("serve.cache.corrupt")
        corrupt.inc(self.cache.corrupt - corrupt.value)

    # ------------------------------------------------------------------
    # Emission / subscription
    # ------------------------------------------------------------------
    def _emit(self, job: Job, record: Dict[str, Any]) -> None:
        job.results.append(record)
        for wake in self._subs[job.id]:
            wake.set()

    async def stream_batches(self, job_id: str
                             ) -> AsyncIterator[List[Dict[str, Any]]]:
        """The job's records, in order, in batches: first the whole
        history, then on each wake-up everything emitted since, until
        the batch that ends with the ``end`` record.

        The cursor only ever advances over ``job.results``, which is
        append-only, and finding nothing new, clearing the flag and
        going to sleep happen with no await in between — so no record is
        missed, duplicated or reordered, whenever the stream is opened.
        """
        job = self.get(job_id)
        wake = asyncio.Event()
        self._subs[job_id].append(wake)
        sent = 0
        try:
            while True:
                if sent == len(job.results):    # nothing new: sleep
                    wake.clear()
                    await wake.wait()
                batch = job.results[sent:]
                sent += len(batch)
                yield batch
                if batch[-1].get("kind") == "end":
                    return
        finally:
            self._subs[job_id].remove(wake)

    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Replay the job's history, then live-tail until its end
        record: :meth:`stream_batches`, one record at a time."""
        async for batch in self.stream_batches(job_id):
            for record in batch:
                yield record

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _land(self, job: Job, bw: Optional[float], lat: Optional[float],
              result: Dict[str, Any], cached: bool,
              baseline: Optional[float] = None,
              extra: Optional[Dict[str, Any]] = None) -> None:
        """Account and stream one result.  ``(None, None)`` is the
        baseline, which reports its runtime (and ``extra``) only."""
        self._account_point(job, cached, failed=result.get("ok") is False)
        if bw is None:
            record = {"kind": "baseline", "job": job.id,
                      "runtime": result["runtime"], "cached": cached,
                      **(extra or {})}
        else:
            # The envelope last: no entry field can shadow it.
            record = dict(result, kind="point", job=job.id, cached=cached,
                          bandwidth_mbyte_s=bw, latency_ms=lat)
            if baseline is not None and "runtime" in result:
                record["relative_speedup_pct"] = relative_speedup_pct(
                    baseline, result["runtime"])
        self._emit(job, record)

    def _store(self, spec: JobSpec, bw: Optional[float],
               lat: Optional[float], result: Dict[str, Any]) -> None:
        """Cache one fresh result under the point's content key."""
        kind = None if spec.is_ground_truth(bw is None) else spec.kind
        self.cache.store(spec.cache_key(bw, lat), runtime_entry(
            spec.app, spec.variant, spec.scale, spec.seed,
            point_topology(spec.point_payload(bw, lat)), result, kind))

    def _account_point(self, job: Job, cached: bool, failed: bool = False) -> None:
        reg = self.registry
        job.points_done += 1
        reg.counter("serve.points.completed").inc()
        if cached:
            job.cache_hits += 1
            reg.counter("serve.points.cache_hits").inc()
        if failed:
            job.failed_points += 1
            reg.counter("serve.points.failed").inc()
        if job.state == RUNNING:
            job.state = PARTIAL

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        job.state = state
        job.error = error
        self._emit(job, {"kind": "end", "job": job.id, "state": state,
                         **{k: getattr(job, k) for k in
                            ("points_total", "points_done", "cache_hits",
                             "dispatched", "failed_points")},
                         "hit_rate": job.hit_rate,
                         **({"error": error} if error else {})})
        self.registry.counter(f"serve.jobs.{state}").inc()
        if job.wall_s > 0:
            self.registry.gauge("serve.points_per_s").set(
                job.points_done / job.wall_s)
            self.registry.histogram("serve.job_wall_s").observe(job.wall_s)
        if self.reporter is not None:
            self.reporter.emit(serve_job_record(job.snapshot()))
        self._terminal.append(job.id)
        self._forget_old_jobs()

    def _forget_old_jobs(self) -> None:
        """Drop the oldest terminal jobs beyond the retention bound.

        Only ids in ``_terminal`` are candidates, so a queued or running
        job is never dropped; one with a live subscriber is skipped and
        goes the next time a job finishes after its stream has closed.
        """
        excess = len(self._terminal) - RETAINED_TERMINAL_JOBS
        if excess <= 0:
            return
        idle = (job_id for job_id in self._terminal
                if not self._subs[job_id])
        for job_id in list(islice(idle, excess)):
            self._terminal.remove(job_id)
            del self.jobs[job_id], self._subs[job_id], \
                self._cancel_events[job_id]

    def _dispatch(self, payload: Dict[str, Any], job: Job,
                  fn=worker.run_point) -> asyncio.Future:
        payload = dict(payload)
        if fn is worker.run_point:
            payload["max_events"] = self.policy.effective_max_events(job.spec)
        job.dispatched += 1
        self.registry.counter("serve.points.dispatched").inc()
        return asyncio.get_running_loop().run_in_executor(self._pool, fn, payload)

    async def _await_or_cancel(self, job: Job, futures: Set[asyncio.Future]):
        """Wait for any future OR a cancel request; returns done set."""
        cancel_event = self._cancel_events[job.id]
        waiter = asyncio.ensure_future(cancel_event.wait())
        try:
            done, _pending = await asyncio.wait(
                set(futures) | {waiter},
                return_when=asyncio.FIRST_COMPLETED)
        finally:
            waiter.cancel()
        return done - {waiter}

    async def _run_job(self, job: Job) -> None:
        # Host wall time of service work, not simulated time.
        started = time.monotonic()  # lint: ignore[wall-clock]
        job.state = RUNNING
        cancel_event = self._cancel_events[job.id]
        try:
            if job.spec.kind in GRID_BACKENDS:
                await self._run_whatif(job)
            else:
                await self._run_pointwise(job)
        except asyncio.CancelledError:
            job.wall_s = time.monotonic() - started  # lint: ignore[wall-clock]
            self._finish(job, CANCELLED, error="server shutdown")
            raise
        except Exception as exc:  # job-level failure: typed record, not a crash
            job.wall_s = time.monotonic() - started  # lint: ignore[wall-clock]
            self._finish(job, FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            job.wall_s = time.monotonic() - started  # lint: ignore[wall-clock]
            if cancel_event.is_set():
                self._finish(job, CANCELLED)
            elif job.failed_points:
                self._finish(job, FAILED,
                             error=f"{job.failed_points} point(s) failed")
            else:
                self._finish(job, DONE)
        finally:
            self._running.discard(job.id)
            self._tasks.pop(job.id, None)
            self._pump()

    # -- sweep / chaos / profile ---------------------------------------
    async def _run_pointwise(self, job: Job) -> None:
        spec = job.spec
        baseline: Optional[float] = None
        if spec.needs_baseline:
            landed = await self._resolve(job, [(None, None)])
            if not landed:           # cancelled while simulating it
                return
            baseline = landed[(None, None)]["runtime"]
        await self._resolve(job, spec.points(), baseline)

    async def _resolve(self, job: Job, points, baseline: Optional[float] = None
                       ) -> Dict[tuple, Dict[str, Any]]:
        """The point sequence — look up, else dispatch and store, then
        account and stream — over ``points``; ``(None, None)`` is the
        baseline.  Returns the results that landed, by point."""
        spec = job.spec
        cancel_event = self._cancel_events[job.id]
        landed: Dict[tuple, Dict[str, Any]] = {}
        pending: Dict[asyncio.Future, tuple] = {}
        for point in points:
            if cancel_event.is_set():
                break
            result = self.cache.result(spec.cache_key(*point))
            if result is not None:
                landed[point] = result
                self._land(job, *point, result, True, baseline)
            else:
                future = self._dispatch(spec.point_payload(*point), job)
                pending[future] = point
        self._update_gauges()

        while pending and not cancel_event.is_set():
            done = await self._await_or_cancel(job, set(pending))
            for future in done:
                bw, lat = point = pending.pop(future)
                try:
                    result = future.result()
                except Exception as exc:
                    if bw is None:       # no baseline, no job
                        raise
                    self._land(job, bw, lat, {
                        "ok": False, "error": type(exc).__name__,
                        "detail": str(exc)}, False)
                    continue
                self._store(spec, bw, lat, result)
                landed[point] = result
                self._land(job, bw, lat, result, False, baseline)
        for future in pending:      # cancelled: drop undispatched points
            future.cancel()
        return landed

    # -- whatif / replay -------------------------------------------------
    async def _run_whatif(self, job: Job) -> None:
        """Analytic fast paths: one pool task for the whole grid.

        Covers both grid-at-once kinds — ``whatif`` (interpreted
        evaluator) and ``replay`` (compiled vectorized program).  If
        the baseline *and* every point are already cached the task is
        skipped entirely; otherwise its points are stored under their
        content keys so the next identical job is a pure cache job.
        The worker's Sweeper shares this cache: it leaves the baseline
        and the corner simulations there itself, and a ``replay`` job
        additionally the compiled program, so even a cold-cache repeat
        on a fresh grid skips recording and compilation.
        """
        spec = job.spec
        everything = [(None, None)] + spec.points()
        results: Dict[tuple, Dict[str, Any]] = {}
        for point in everything:
            result = self.cache.result(spec.cache_key(*point))
            if result is None:
                break
            results[point] = result
        cached = len(results) == len(everything)
        head: Dict[str, Any] = {}
        if not cached:
            payload = {"kind": spec.kind, "app": spec.app,
                       "variant": spec.variant, "scale": spec.scale,
                       "seed": spec.seed, "bandwidths": list(spec.bandwidths),
                       "latencies": list(spec.latencies),
                       "cache_root": self.cache.root}
            future = self._dispatch(payload, job, fn=worker.run_grid)
            done = await self._await_or_cancel(job, {future})
            if not done:
                future.cancel()
                return
            grid = future.result()
            if spec.kind == "replay":
                # replay.* metrics: one count per fallback-ladder rung, so
                # a dashboard shows how much traffic actually vectorizes.
                self.registry.counter("replay.jobs").inc()
                self.registry.counter(f"replay.mode.{grid['mode']}").inc()
            meta = {"predicted": grid["predicted"], "mode": grid["mode"]}
            head = dict(meta, **{name: grid[name] for name in (
                "fallback_reason", "probe", "convergence",
                "downgraded_points") if name in grid})
            results = {(None, None): {"runtime": grid["baseline"]}}
            for p in grid["points"]:
                point = (p["bandwidth_mbyte_s"], p["latency_ms"])
                results[point] = {"runtime": p["runtime"], **meta}
                self._store(spec, *point, results[point])
        baseline = results[(None, None)]["runtime"]
        self._land(job, None, None, results[(None, None)], cached, extra=head)
        for point in spec.points():
            self._land(job, *point, results[point], cached, baseline)
