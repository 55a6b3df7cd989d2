"""Scheduler unit tests: admission, lifecycle, dedup, cancellation.

These drive the :class:`~repro.serve.scheduler.Scheduler` directly (no
HTTP) on a thread pool, which runs the same picklable worker functions
in-process — fast, and every code path except process spawning is the
production one.  The pool-recovery tests at the end use a real spawn
pool, since what they test is a worker process dying.
"""

import asyncio
import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.cache import SimCache
from repro.obs.report import RunReporter
from repro.serve.jobs import (CANCELLED, DONE, FAILED, QUEUED,
                              AdmissionError, InvalidJob, UnknownJob)
from repro.serve.scheduler import AdmissionPolicy, Scheduler


def make_scheduler(tmp_path, **kwargs):
    """A started scheduler whose pool is an in-process thread pool."""
    scheduler = Scheduler(SimCache(str(tmp_path / "serve-cache")), **kwargs)
    scheduler._pool = ThreadPoolExecutor(max_workers=2)
    scheduler._started = True
    return scheduler


async def collect(scheduler, job_id):
    return [record async for record in scheduler.stream(job_id)]


SPEC = {"app": "water", "bandwidths": [6.3, 0.95], "latencies": [0.5]}


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
def test_unstarted_scheduler_refuses_submissions(tmp_path):
    scheduler = Scheduler(SimCache(str(tmp_path / "c")))
    with pytest.raises(RuntimeError):
        scheduler.submit(SPEC)


def test_admission_queue_full(tmp_path):
    scheduler = make_scheduler(tmp_path, policy=AdmissionPolicy(max_jobs=0))
    with pytest.raises(AdmissionError) as err:
        scheduler.submit(SPEC)
    assert "queue full" in str(err.value)
    assert scheduler.registry.counter("serve.jobs.rejected").value == 1


def test_admission_point_budget(tmp_path):
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_points_per_job=2))
    with pytest.raises(AdmissionError) as err:
        scheduler.submit(SPEC)                 # 2 points + baseline = 3
    assert "budget" in str(err.value)


def test_admission_event_budget(tmp_path):
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_events_per_point=1000))
    with pytest.raises(AdmissionError):
        scheduler.submit(dict(SPEC, max_events=2000))


def test_invalid_payload_counts_as_rejected(tmp_path):
    scheduler = make_scheduler(tmp_path)
    with pytest.raises(InvalidJob):
        scheduler.submit({"app": "water", "bogus": True})
    with pytest.raises(InvalidJob):
        scheduler.submit(["not", "an", "object"])
    assert scheduler.registry.counter("serve.jobs.rejected").value == 2
    assert not scheduler.jobs


def test_effective_max_events_composes():
    policy = AdmissionPolicy(max_events_per_point=1000)
    from repro.serve.jobs import JobSpec
    loose = JobSpec.from_json(SPEC)
    tight = JobSpec.from_json(dict(SPEC, max_events=10))
    assert policy.effective_max_events(loose) == 1000
    assert policy.effective_max_events(tight) == 10
    unlimited = AdmissionPolicy(max_events_per_point=None)
    assert unlimited.effective_max_events(loose) is None
    assert unlimited.effective_max_events(tight) == 10


def test_unknown_job_is_typed(tmp_path):
    scheduler = make_scheduler(tmp_path)
    with pytest.raises(UnknownJob):
        scheduler.get("j9999-deadbeef")
    with pytest.raises(UnknownJob):
        scheduler.cancel("j9999-deadbeef")


# ----------------------------------------------------------------------
# Lifecycle, streaming, dedup
# ----------------------------------------------------------------------
def test_sweep_lifecycle_stream_and_dedup(tmp_path):
    scheduler = make_scheduler(tmp_path)

    async def run():
        job = scheduler.submit(SPEC)
        assert job.state == QUEUED
        records = await collect(scheduler, job.id)

        kinds = [record["kind"] for record in records]
        assert kinds[0] == "job" and kinds[1] == "baseline"
        assert kinds.count("point") == 2 and kinds[-1] == "end"
        assert records[0]["spec"]["app"] == "water"
        end = records[-1]
        assert end["state"] == DONE
        assert end["points_done"] == end["points_total"] == 3
        assert end["dispatched"] == 3 and end["cache_hits"] == 0
        assert job.state == DONE and job.wall_s > 0

        for record in records:
            if record["kind"] == "point":
                assert record["cached"] is False
                assert record["relative_speedup_pct"] == \
                    100.0 * records[1]["runtime"] / record["runtime"]

        # Late subscribers replay the identical, complete history.
        replay = await collect(scheduler, job.id)
        assert replay == records

        # The identical submission is served entirely from cache.
        second = scheduler.submit(SPEC)
        assert second.id != job.id
        assert second.spec.content_hash() == job.spec.content_hash()
        records2 = await collect(scheduler, second.id)
        end2 = records2[-1]
        assert end2["state"] == DONE and end2["dispatched"] == 0
        assert end2["cache_hits"] == 3 and end2["hit_rate"] == 1.0
        assert all(record["cached"] for record in records2
                   if record["kind"] in ("baseline", "point"))
        # Cached replay carries the same runtimes bit for bit.
        runtime_of = lambda recs: {  # noqa: E731
            (r["bandwidth_mbyte_s"], r["latency_ms"]): r["runtime"]
            for r in recs if r["kind"] == "point"}
        assert runtime_of(records2) == runtime_of(records)

        reg = scheduler.registry
        assert reg.counter("serve.jobs.submitted").value == 2
        assert reg.counter("serve.jobs.done").value == 2
        assert reg.counter("serve.points.completed").value == 6
        assert reg.counter("serve.points.cache_hits").value == 3
        assert reg.counter("serve.points.dispatched").value == 3
        assert reg.gauge("serve.cache.hit_rate").value == 0.5
        await scheduler.stop()

    asyncio.run(run())


def test_half_seeded_cache_dispatches_exactly_the_missing_points(tmp_path):
    """Between cold (0.0) and warm (1.0): a job over a cache holding the
    baseline and 4 of its 9 points simulates the other 5 and nothing else."""
    scheduler = make_scheduler(tmp_path)
    spec = {"app": "water", "bandwidths": [6.3, 2.0, 0.95],
            "latencies": [0.5, 2.0, 5.0]}

    async def run():
        first = scheduler.submit(spec)
        await collect(scheduler, first.id)
        dropped = [first.spec.cache_key(bw, lat)
                   for bw, lat in first.spec.points()[4:]]
        for key in dropped:
            os.unlink(scheduler.cache._path(key))

        second = scheduler.submit(spec)
        end = (await collect(scheduler, second.id))[-1]
        assert end["state"] == DONE
        assert end["points_done"] == 10
        assert end["dispatched"] == len(dropped) == 5
        assert end["hit_rate"] == 0.5
        await scheduler.stop()

    asyncio.run(run())


def test_cancel_queued_job_is_instant(tmp_path):
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_concurrent_jobs=1))

    async def run():
        first = scheduler.submit(dict(SPEC, bandwidths=[6.3]))
        second = scheduler.submit(dict(SPEC, seed=7))
        assert second.state == QUEUED
        cancelled = scheduler.cancel(second.id)
        assert cancelled.state == CANCELLED
        assert cancelled.results[-1]["kind"] == "end"
        assert cancelled.results[-1]["state"] == CANCELLED
        # The running job is unaffected and completes.
        records = await collect(scheduler, first.id)
        assert records[-1]["state"] == DONE
        assert scheduler.registry.counter("serve.jobs.cancelled").value == 1
        await scheduler.stop()

    asyncio.run(run())


def test_cancel_running_job_stops_dispatch(tmp_path):
    scheduler = make_scheduler(tmp_path)
    big = {"app": "water", "bandwidths": [6.3, 2.0, 0.95],
           "latencies": [0.5, 2.0, 5.0]}          # 9 points + baseline

    async def run():
        job = scheduler.submit(big)
        records = []
        async for record in scheduler.stream(job.id):
            records.append(record)
            if record["kind"] == "baseline":
                scheduler.cancel(job.id)
        end = records[-1]
        assert end["state"] == CANCELLED
        assert job.state == CANCELLED
        assert job.points_done < job.points_total
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Whatif fast path
# ----------------------------------------------------------------------
def test_whatif_grid_runs_once_then_serves_from_cache(tmp_path):
    scheduler = make_scheduler(tmp_path)
    spec = {"app": "water", "kind": "whatif",
            "bandwidths": [6.3, 0.95], "latencies": [0.5, 5.0]}

    async def run():
        job = scheduler.submit(spec)
        records = await collect(scheduler, job.id)
        end = records[-1]
        assert end["state"] == DONE
        baseline = next(r for r in records if r["kind"] == "baseline")
        assert "predicted" in baseline
        assert sum(r["kind"] == "point" for r in records) == 4

        second = scheduler.submit(spec)
        records2 = await collect(scheduler, second.id)
        end2 = records2[-1]
        assert end2["state"] == DONE and end2["dispatched"] == 0
        assert end2["hit_rate"] == 1.0
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_finished_jobs_emit_serve_job_records(tmp_path):
    report_path = tmp_path / "serve-report.jsonl"
    reporter = RunReporter(str(report_path))
    scheduler = make_scheduler(tmp_path, reporter=reporter)

    async def run():
        job = scheduler.submit(dict(SPEC, bandwidths=[6.3]))
        await collect(scheduler, job.id)
        await scheduler.stop()
        return job

    job = asyncio.run(run())
    reporter.close()
    records = [json.loads(line)
               for line in report_path.read_text().splitlines()]
    serve_records = [r for r in records if r["kind"] == "serve-job"]
    assert len(serve_records) == 1
    assert serve_records[0]["job"]["id"] == job.id
    assert serve_records[0]["job"]["state"] == DONE
    assert serve_records[0]["job"]["content_hash"] == \
        job.spec.content_hash()


# ----------------------------------------------------------------------
# Stream delivery: complete and ordered whenever opened, never held back
# ----------------------------------------------------------------------
def test_streams_opened_before_during_and_after_are_identical(tmp_path):
    from repro.experiments.runner import Sweeper
    from repro.serve.client import merge_grid

    scheduler = make_scheduler(tmp_path)
    spec = dict(SPEC, latencies=[0.5, 5.0])

    async def run():
        job = scheduler.submit(spec)
        before = asyncio.ensure_future(collect(scheduler, job.id))
        during = None
        async for record in scheduler.stream(job.id):
            if record["kind"] == "baseline":
                assert job.state != DONE
                during = asyncio.ensure_future(collect(scheduler, job.id))
        after = await collect(scheduler, job.id)
        assert await before == await during == after == job.results
        assert [r["kind"] for r in after] == \
            ["job", "baseline"] + ["point"] * 4 + ["end"]
        assert not scheduler._subs[job.id]       # every cursor detached
        await scheduler.stop()
        return after

    records = asyncio.run(run())
    direct = Sweeper(cache=SimCache(str(tmp_path / "direct"))).speedup_grid(
        "water", "optimized", bandwidths=spec["bandwidths"],
        latencies=spec["latencies"])
    assert repr(merge_grid(records)) == repr(direct)


def test_a_ready_record_is_delivered_without_waiting_for_the_next(tmp_path):
    # max_concurrent_jobs=0: the job stays queued, so this test is the
    # only emitter and decides exactly when a record becomes ready.
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_concurrent_jobs=0))

    async def run():
        job = scheduler.submit(SPEC)
        batches = []

        async def consume():
            async for batch in scheduler.stream_batches(job.id):
                batches.append(batch)

        consumer = asyncio.ensure_future(consume())
        await asyncio.sleep(0)
        assert [[r["kind"] for r in b] for b in batches] == [["job"]]

        one = {"kind": "point", "job": job.id, "n": 1}
        scheduler._emit(job, one)
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert batches[1:] == [[one]]            # no second record needed

        two, three = dict(one, n=2), dict(one, n=3)
        scheduler._emit(job, two)
        scheduler._emit(job, three)              # both ready at one wake-up
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert batches[2:] == [[two, three]]

        scheduler.cancel(job.id)                 # queued -> end record
        await asyncio.wait_for(consumer, timeout=10)
        assert batches[-1][-1]["kind"] == "end"
        assert [r for b in batches for r in b] == job.results
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# Retention: the job table is bounded, live jobs are never forgotten
# ----------------------------------------------------------------------
def test_old_terminal_jobs_are_forgotten_live_ones_never(tmp_path,
                                                         monkeypatch):
    from repro.serve import scheduler as scheduler_module
    monkeypatch.setattr(scheduler_module, "RETAINED_TERMINAL_JOBS", 2)
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_concurrent_jobs=1))

    async def run():
        running = scheduler.submit(dict(SPEC, bandwidths=[6.3]))
        await asyncio.sleep(0)                   # its task has started
        a, b, c, d, e = (scheduler.submit(dict(SPEC, seed=seed))
                         for seed in range(1, 6))

        # a slow client: holds its first batch, so it is still attached
        held = scheduler.stream_batches(a.id)
        assert (await held.__anext__())[0]["kind"] == "job"

        for job in (a, b, c):
            scheduler.cancel(job.id)
        # three terminal, two kept: a is the oldest but is being
        # streamed, so the next-oldest goes instead
        assert set(scheduler.jobs) == {running.id, a.id, c.id, d.id, e.id}
        scheduler.cancel(d.id)
        assert set(scheduler.jobs) == {running.id, a.id, d.id, e.id}
        assert e.state == QUEUED and running.state not in (DONE, CANCELLED)

        for gone in (b, c):
            with pytest.raises(UnknownJob):
                scheduler.get(gone.id)
            with pytest.raises(UnknownJob):
                await collect(scheduler, gone.id)
            with pytest.raises(UnknownJob):
                scheduler.cancel(gone.id)
            assert gone.id not in scheduler._subs
            assert gone.id not in scheduler._cancel_events

        await held.aclose()                      # the slow client leaves
        scheduler.cancel(e.id)                   # ... and a goes first
        assert set(scheduler.jobs) == {running.id, d.id, e.id}

        records = await collect(scheduler, running.id)
        assert records[-1]["state"] == DONE      # untouched by all of it
        assert set(scheduler.jobs) == {e.id, running.id}
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# A corrupt cache entry is counted, surfaced, and recomputed
# ----------------------------------------------------------------------
def test_corrupt_entry_is_counted_on_metrics_and_recomputed(tmp_path):
    scheduler = make_scheduler(tmp_path)

    async def run():
        first = scheduler.submit(SPEC)
        await collect(scheduler, first.id)
        snapshot = scheduler.registry.snapshot()
        assert snapshot["serve.cache.corrupt"] == 0

        key = first.spec.cache_key(6.3, 0.5)
        with open(scheduler.cache._path(key), "w") as fh:
            fh.write('{"runtime": 0.')           # truncated mid-write
        second = scheduler.submit(SPEC)
        end = (await collect(scheduler, second.id))[-1]
        assert end["state"] == DONE
        assert end["cache_hits"] == 2 and end["dispatched"] == 1
        assert scheduler.registry.snapshot()["serve.cache.corrupt"] == 1
        assert scheduler.cache.stats()["corrupt"] == 1

        third = scheduler.submit(SPEC)           # healed by the re-store
        end = (await collect(scheduler, third.id))[-1]
        assert end["cache_hits"] == 3 and end["dispatched"] == 0
        assert scheduler.registry.snapshot()["serve.cache.corrupt"] == 1
        await scheduler.stop()

    asyncio.run(run())


def test_wrong_shape_entries_are_recomputed_not_streamed_or_raised(tmp_path):
    """An entry that parses but holds no usable runtime used to be
    streamed as a hit (point) or to fail every whatif/replay job for
    the app with ``KeyError: 'runtime'`` (baseline)."""
    scheduler = make_scheduler(tmp_path)
    replay = dict(SPEC, kind="replay", latencies=[0.5, 5.0])

    def overwrite(key, entry):
        with open(scheduler.cache._path(key), "w") as fh:
            json.dump(entry, fh)

    async def run():
        first = scheduler.submit(SPEC)
        await collect(scheduler, first.id)
        overwrite(first.spec.cache_key(6.3, 0.5),
                  {"app": "water", "variant": "optimized", "engine_events": 9})
        records = await collect(scheduler, scheduler.submit(SPEC).id)
        end = records[-1]
        assert end["state"] == DONE and end["failed_points"] == 0
        assert end["cache_hits"] == 2 and end["dispatched"] == 1
        assert all(r["runtime"] > 0 for r in records if r["kind"] == "point")
        assert scheduler.registry.snapshot()["serve.cache.corrupt"] == 1
        assert scheduler.cache.stats()["corrupt"] == 1

        overwrite(first.spec.cache_key(None, None),
                  {"app": "water", "variant": "optimized", "runtime": "fast"})
        for _ in range(2):           # cold (re-simulates it), then warm
            end = (await collect(scheduler, scheduler.submit(replay).id))[-1]
            assert end["state"] == DONE, end
        assert end["dispatched"] == 0 and end["hit_rate"] == 1.0
        assert scheduler.registry.snapshot()["serve.cache.corrupt"] == 2
        await scheduler.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# One cache entry, whoever writes it
# ----------------------------------------------------------------------
#: what the parent commit's ``SimCache.put`` wrote for water/optimized at
#: (6.3 MB/s, 0.5 ms) — no ``engine_events`` yet; must stay a hit
PARENT_ENTRY = {
    "app": "water", "fingerprint": "parent-format", "ranks": 32,
    "runtime": 0.04125, "scale": "bench", "seed": 0,
    "topology": "4x8 ranks, local 0.02ms/50MB/s, wide 0.5ms/6.3MB/s",
    "variant": "optimized"}


def test_three_writers_one_entry_one_stream(tmp_path):
    from repro.experiments.runner import Sweeper
    from repro.serve.jobs import JobSpec

    grid = dict(bandwidths=SPEC["bandwidths"], latencies=SPEC["latencies"])
    spec = JobSpec.from_json(SPEC)
    keys = [spec.cache_key(*point) for point in [(None, None)] + spec.points()]

    def files(root):
        out = {}
        for key in keys:
            with open(SimCache(str(root))._path(key), "rb") as fh:
                out[key] = fh.read()
        return out

    async def job_records(scheduler):
        records = await collect(scheduler, scheduler.submit(SPEC).id)
        assert records[-1]["state"] == DONE
        return [{k: v for k, v in r.items() if k != "job"} for r in records]

    async def run():
        Sweeper(cache=SimCache(str(tmp_path / "serial"))) \
            .speedup_grid("water", "optimized", **grid)
        Sweeper(workers=2, cache=SimCache(str(tmp_path / "pooled"))) \
            .speedup_grid("water", "optimized", **grid)
        served = make_scheduler(tmp_path)               # tmp_path/serve-cache
        cold = await job_records(served)
        written = files(tmp_path / "serial")
        assert files(tmp_path / "pooled") == written
        assert files(tmp_path / "serve-cache") == written
        assert max(map(len, written.values())) < 1024   # far below the memo cap

        # ... so whichever population a job is served from, it streams
        # the same lines, with exactly the fields docs/serve.md lists.
        streams = []
        for name in ("serial", "pooled", "serve-cache"):
            scheduler = make_scheduler(tmp_path)
            scheduler.cache = SimCache(str(tmp_path / name))
            streams.append(await job_records(scheduler))
            await scheduler.stop()
        assert streams[0] == streams[1] == streams[2]
        assert streams[0][-1]["dispatched"] == 0
        points = [r for r in streams[0] if r["kind"] == "point"]
        assert [{**r, "cached": False} for r in points] == sorted(
            (r for r in cold if r["kind"] == "point"),      # landing order
            key=lambda r: (r["latency_ms"], -r["bandwidth_mbyte_s"]))
        for record in points:
            assert set(record) == {
                "kind", "bandwidth_mbyte_s", "latency_ms", "cached",
                "runtime", "engine_events", "relative_speedup_pct"}

        # an entry in the parent commit's format is still a hit
        with open(served.cache._path(spec.cache_key(6.3, 0.5)), "w") as fh:
            json.dump(PARENT_ENTRY, fh, sort_keys=True)
        warm = await job_records(served)
        assert warm[-1]["dispatched"] == 0 and warm[-1]["cache_hits"] == 3
        old = next(r for r in warm if r["kind"] == "point"
                   and r["bandwidth_mbyte_s"] == 6.3)
        assert old["runtime"] == PARENT_ENTRY["runtime"]
        assert "topology" not in old and "engine_events" not in old
        assert served.cache.corrupt == 0
        await served.stop()

    asyncio.run(run())


def test_content_hash_is_derived_once_per_spec(tmp_path, monkeypatch):
    from repro.serve import jobs as jobs_module

    import hashlib
    from types import SimpleNamespace

    calls = []

    def sha256(data):
        calls.append(data)
        return hashlib.sha256(data)

    # only jobs.py's view of hashlib: key fingerprints (sha1) are untouched
    monkeypatch.setattr(jobs_module, "hashlib", SimpleNamespace(sha256=sha256))
    scheduler = make_scheduler(
        tmp_path, policy=AdmissionPolicy(max_concurrent_jobs=0))
    job = scheduler.submit(dict(SPEC, kind="chaos", faults={"loss": 0.01}))
    for _ in range(3):
        assert job.snapshot()["content_hash"] == job.spec.content_hash()
        assert job.id.endswith(job.spec.content_hash()[:8])
        for bw, lat in job.spec.points():
            job.spec.cache_key(bw, lat)          # suffixed: chaos + faults
    assert len(calls) == 2                       # one hash, one key suffix


# ----------------------------------------------------------------------
# Pool recovery (a real spawn pool: the failure is a dead process)
# ----------------------------------------------------------------------
def point_runtimes(records):
    return {(r["bandwidth_mbyte_s"], r["latency_ms"]): repr(r["runtime"])
            for r in records if r["kind"] == "point"}


async def kill_workers(scheduler):
    """Kill every worker process of the scheduler's pool, and wait until
    the pool itself has noticed."""
    pool = scheduler._pool
    processes = list(pool._processes.values())
    assert processes
    for process in processes:
        process.kill()
    for _ in range(3000):
        if pool._broken:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("the pool never noticed its dead workers")


def test_pool_with_dead_workers_is_renewed_between_jobs(tmp_path):
    after = {"app": "water", "bandwidths": [0.95], "latencies": [5.0, 30.0]}

    async def run():
        scheduler = Scheduler(SimCache(str(tmp_path / "c")), workers=2)
        await scheduler.start()
        try:
            first = await collect(scheduler, scheduler.submit(SPEC).id)
            assert first[-1]["state"] == DONE
            await kill_workers(scheduler)
            second = await collect(scheduler, scheduler.submit(after).id)
        finally:
            await scheduler.stop()
        clean = make_scheduler(tmp_path / "clean")
        reference = await collect(clean, clean.submit(after).id)
        await clean.stop()
        return scheduler, second, reference

    scheduler, second, reference = asyncio.run(run())
    assert second[-1]["state"] == DONE
    assert second[-1]["dispatched"] == 2 and second[-1]["failed_points"] == 0
    assert point_runtimes(second) == point_runtimes(reference)
    assert scheduler.registry.counter("serve.pool.restarts").value == 1


def test_points_in_flight_on_dead_workers_fail_typed(tmp_path):
    wide = {"app": "water", "bandwidths": [6.3, 0.95, 0.3],
            "latencies": [0.5, 5.0, 30.0]}

    async def run():
        scheduler = Scheduler(SimCache(str(tmp_path / "c")), workers=2)
        await scheduler.start()
        try:
            job = scheduler.submit(wide)
            records = []
            async for record in scheduler.stream(job.id):
                records.append(record)
                if record["kind"] == "baseline":  # points now dispatched
                    await kill_workers(scheduler)
            after = await collect(scheduler, scheduler.submit(SPEC).id)
        finally:
            await scheduler.stop()
        return job, records, after

    job, records, after = asyncio.run(run())
    end = records[-1]
    assert end["state"] == job.state == FAILED
    assert end["points_done"] == end["points_total"] == 10
    failed = [r for r in records
              if r["kind"] == "point" and r.get("ok") is False]
    assert failed and len(failed) == end["failed_points"]
    assert {r["error"] for r in failed} == {"BrokenProcessPool"}
    assert after[-1]["state"] == DONE and after[-1]["failed_points"] == 0
