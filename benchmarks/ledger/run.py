"""The performance ledger: one workload per invocation, measured from outside.

    python3 benchmarks/ledger/run.py --workload fig3_sim --seed 1 \
        --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py --compare A.jsonl B.jsonl

``--trace 0`` repeats the workload's black-box repetition for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
black-box and one staged repetition plus the layer probes and prints the
per-layer metrics (and writes ``out/trace-<workload>.json``).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the full record (host fingerprint, repetition walls, notes
on failed checks) goes to ``out/`` and, with ``--append FILE``, onto the
end of a result set ``--compare`` reads.  README.md has the definitions.

A run is two processes: this one supervises, its child measures and
prints (``supervise`` says why).
"""

from __future__ import annotations

import time

# before the heavy imports: setup_s counts them, and the supervisor's start
# too (perf_counter is one monotonic clock for every process of the host)
PROCESS_START = time.perf_counter()

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: set-up is repeated while it is short enough for noise to matter
SETUP_REPEATS = 3
SETUP_REPEAT_BUDGET_S = 1.5
#: a staged repetition further than this from the black-box one does not
#: decompose the program the user runs
TRACE_AGREEMENT = 0.15
TRACE_PAIRS = 5
TRACE_PAIR_BUDGET_S = 8.0
#: pairs that disagree are repeated for this long before the check fails
TRACE_RETRY_BUDGET_S = 45.0
#: the supervisor hands its own start time to the measuring child in this
STARTED_ENV = "LEDGER_STARTED"
#: what the measurement left running gets this long to end by itself
ORPHAN_GRACE_S = 10.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"        # the driver's checkout is not a repository
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_record(calibration_before_ms: float) -> dict:
    import numpy
    from calibration import CALIBRATION_REF_MS
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "calibration_ref_ms": CALIBRATION_REF_MS,
            "calibration_before_ms": calibration_before_ms}


def supervise(argv) -> int:
    """Measure in a child process and end only after everything it started.

    The serve workloads spawn a worker pool, and with it multiprocessing's
    resource tracker, which reads its pipe until its parent *exits*: it
    outlives the measuring process by design, and the next run would find
    it still there.  So this process makes itself the reaper of every
    orphan below it, waits for the measurement, and then for each process
    the measurement left behind (killing what has not ended by itself
    after a grace period).  The child prints the result line."""
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv],
        env=dict(os.environ, **{STARTED_ENV: repr(PROCESS_START)}))
    # a terminated run takes its measurement down with it
    signal.signal(signal.SIGTERM, lambda signum, frame: child.terminate())
    code = child.wait()
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return code                 # nothing this run started is left
        if pid == 0:                    # an orphan is still running
            if time.monotonic() > deadline:
                for path in glob.glob("/proc/self/task/*/children"):
                    with open(path) as fh:
                        for orphan in fh.read().split():
                            os.kill(int(orphan), signal.SIGKILL)
            time.sleep(0.005)


def timed_run(wl, seconds: float, tally):
    """Black-box repetitions until ``seconds`` are measured — as many as
    bring the sum closest to it, at least one.  The workload's stopwatches
    scale every time by the host speed sampled meanwhile, and it is those
    reference seconds that are summed: a slow host gets no fewer
    repetitions, so counts that grow with them (RSS) stay comparable."""
    walls, raw_walls, speeds = [], [], []
    job_ms = {}
    while True:
        gc.collect()    # every repetition starts from a clean heap, like a new process
        watch, jobs, outputs = wl.rep()
        walls.append(watch.reference_s)
        raw_walls.append(watch.raw_s)
        speeds.append(watch.speed)
        for kind, ms in jobs:
            job_ms.setdefault(kind, []).append(ms)
        wl.check(outputs, tally)
        if sum(walls) + statistics.median(walls) / 2 >= seconds:
            break
    every_job = [ms for kind in job_ms.values() for ms in kind]
    # the median job of the median kind: which kinds the seed happened to
    # draw, and how often, must not move it
    metrics = {"wall_s": statistics.median(walls),
               "job_p50_ms": statistics.median(
                   statistics.median(kind) for kind in job_ms.values())}
    return metrics, {"repetitions": len(walls), "rep_walls_s": walls,
                     "raw_rep_walls_s": raw_walls, "host_speeds": speeds,
                     "wall_min_s": min(walls), "jobs": len(every_job),
                     "job_p99_ms": percentile(every_job, 0.99)}


def traced_run(wl, args, tally, expect, tmp):
    """Black-box and staged repetitions in pairs, then the layer probes."""
    import probes
    import spans as spanlib
    from calibration import Stopwatch
    from workloads import RUNGS, SERVE_WORKERS

    wl.report_runs = True           # fig3_sim: Sweeper(reporter=) on the black box
    # Pairs of one black-box and one staged repetition; short repetitions
    # are paired again so that one noisy second cannot fail the agreement,
    # and so is a long one whose only pair disagrees: host noise passes
    # with the next pair, a staged driver that is not the program does not.
    # Both sides are scaled by the host speed sampled while they ran, and
    # the tracer's clock leaves the sampler's slices out of every span.
    cal = wl.cal
    walls, staged_walls = [], []
    begin = time.perf_counter()
    while True:
        gc.collect()
        watch, _, blackbox = wl.rep()
        walls.append(watch.reference_s)
        wl.check(blackbox, tally)
        tracer = spanlib.Tracer(lambda: time.perf_counter() - cal.spent_s)
        gc.collect()
        staged_watch = Stopwatch(cal)
        root, outputs, counts = wl.staged(tracer)
        staged_s = root["end"] - root["start"]
        staged_walls.append(staged_s * staged_watch.stop().speed)
        wl.check(outputs, tally)
        overhead = statistics.median(staged_walls) / statistics.median(walls)
        spent = time.perf_counter() - begin
        budget = TRACE_PAIR_BUDGET_S if abs(overhead - 1.0) <= TRACE_AGREEMENT \
            else TRACE_RETRY_BUDGET_S
        if args.quick or len(walls) == TRACE_PAIRS or spent >= budget:
            break
    cal.stop()                      # the probes below time themselves
    spans = tracer.spans            # of the last pair, like `counts`: raw host time
    for problem in spanlib.problems(spans):
        tally.attempt(False, problem)
    tally.attempt(abs(overhead - 1.0) <= TRACE_AGREEMENT or args.quick,
                  f"staged repetitions {staged_walls} vs black box {walls}")
    if wl.name.startswith("ladder"):    # same rung from both drivers
        tally.attempt(sorted(o[:2] for o in outputs) ==
                      sorted(o[:2] for o in blackbox),
                      "staged and black-box ladders chose different rungs")

    durations = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])

    def stage_s(*names) -> float:
        return sum(sum(durations.get(name, ())) for name in names)

    def median_ms(name: str) -> float:
        return statistics.median(durations[name]) * 1e3 if name in durations else 0.0

    def rate(ops: float, seconds: float) -> float:
        return ops / seconds if seconds else 0.0

    m = dict.fromkeys(list(RUNGS.values()) + [
        "sim.events", "runtime.messages", "network.wan_messages",
        "network.wan_bytes", "sim.run_ns_per_event", "runtime.machine_build_ms",
        "experiments.sweeper_overhead_share", "replay.compile_nodes",
        "replay.compile_levels", "replay.adaptive_iterations",
        "serve.start_s", "serve.hit_rate", "serve.dispatched_points",
        "serve.points_per_s_cold", "serve.points_per_s_warm",
        "serve.worker_point_ms", "serve.pool_overhead_share",
        "serve.job_p99_ms"], 0)
    m.update({k: v for k, v in counts.items() if k in m})
    meter = counts.get("meter")
    if meter is not None and meter.runs:
        m.update(meter.counts())
        m["sim.run_ns_per_event"] = meter.run_wall_s / meter.events * 1e9
        m["runtime.machine_build_ms"] = statistics.median(meter.build_s) * 1e3

    eval_points = 42 * len(durations.get("whatif.evaluate", ()))
    dense_points = sum(len(b) * len(l) for b, l in getattr(wl, "axes", ())) \
        * len(getattr(wl, "dense", ()))
    adaptive_points = counts.get("adaptive_points", 0)
    m.update({
        "whatif.record_s": stage_s("whatif.record"),
        "whatif.evaluator_build_ms": median_ms("whatif.evaluator_build"),
        "whatif.validate_s": stage_s("whatif.validate"),
        "whatif.eval_point_ms":
            rate(stage_s("whatif.evaluate") * 1e3, eval_points),
        "whatif.eval_points_per_s": rate(eval_points, stage_s("whatif.evaluate")),
        "replay.compile_s": stage_s("replay.compile"),
        "replay.adaptive_compile_s": stage_s("replay.adaptive_compile"),
        "replay.probe_s": stage_s("replay.probe"),
        "replay.convergence_s": stage_s("replay.convergence"),
        "replay.price_fig3_ms": stage_s("replay.price") * 1e3,
        "replay.price_points_per_s":
            rate(dense_points, stage_s("replay.price_dense")),
        "replay.adaptive_points_per_s":
            rate(adaptive_points, stage_s("replay.adaptive_price")),
        "replay.adaptive_converged_share": rate(
            adaptive_points - counts.get("adaptive_unconverged", 0),
            adaptive_points),
        "replay.program_store_ms": stage_s(
            "replay.program_store", "replay.adaptive_program_store") * 1e3,
        "replay.program_load_ms": stage_s(
            "replay.program_load", "replay.adaptive_program_load") * 1e3,
        "serve.submit_ms": median_ms("serve.submit"),
        "serve.first_line_ms": median_ms("serve.first_line"),
        "serve.stream_ms": median_ms("serve.stream"),
    })
    if wl.name.startswith("serve"):
        m["serve.start_s"] = wl.start_s
        m["serve.hit_rate"] = counts["hits"] / counts["points"]
        m["serve.job_p99_ms"] = percentile(durations["serve.job"], 0.99) * 1e3
        m["serve.points_per_s_" + wl.name[6:]] = counts["points"] / staged_s
        tally.attempt(counts["metrics_agree"],
                      "GET /metrics deltas disagree with the jobs' end records")
    if wl.name == "serve_cold":
        # the same points in this process, no pool: what is left of the
        # job wall after the workers' share is dispatch, pickling, idling
        from repro.serve.jobs import JobSpec
        from repro.serve.worker import run_point
        inproc = []
        for raw in counts["specs"]:
            spec = JobSpec.from_json(raw)
            for bw, lat in [(None, None)] + spec.points():
                t0 = time.perf_counter()
                run_point(spec.point_payload(bw, lat))
                inproc.append(time.perf_counter() - t0)
        m["serve.worker_point_ms"] = statistics.mean(inproc) * 1e3
        m["serve.pool_overhead_share"] = \
            1.0 - sum(inproc) / SERVE_WORKERS / staged_s

    m.update(probes.run_all(tmp, args.quick))
    m["trace_overhead_x"] = overhead

    if not args.quick:      # quick runs do less work: the counts differ
        for scope in ("probes", wl.name):
            for name, want in expect[scope]["exact"].items():
                tally.attempt(m[name] == want,
                              f"{name} = {m[name]!r}, frozen value {want!r}")

    self_s = spanlib.self_times(spans, root["id"])
    with open(os.path.join(OUT, f"trace-{wl.name}.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "raw_untraced_wall_s": watch.raw_s, "raw_staged_total_s": staged_s,
                   "trace_overhead_x": overhead, "root": root["id"],
                   "self_time_s": self_s, "spans": spans}, fh)
    return m, {"untraced_walls_s": walls, "staged_walls_s": staged_walls,
               "self_time_s": self_s, "spans": len(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: one repetition of a cut-down "
                             "workload, no exact-count checks")
    parser.add_argument("--append", metavar="FILE",
                        help="also append the full record to this result set")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    if args.compare:
        from compare import compare
        return compare(benchmark, *args.compare)

    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("ledger: no src/repro next to the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    if STARTED_ENV not in os.environ:
        return supervise(sys.argv[1:] if argv is None else argv)
    started = float(os.environ[STARTED_ENV])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    seconds = 0.0 if args.quick else (
        benchmark["run_seconds"] if args.seconds is None else args.seconds)

    from calibration import Calibrator, Stopwatch
    from workloads import WORKLOADS, Reference, Tally

    with open(os.path.join(HERE, "expect.json")) as fh:
        expect = json.load(fh)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    # a terminated run still tears down its server, pool and temp caches
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tally = Tally()
    readings = Calibrator()
    cal = Calibrator()
    wl = WORKLOADS[args.workload](args.seed, args.quick, tmp, Reference(), cal)
    try:
        host = host_record(readings.reading_ms())
        preamble_s = (time.perf_counter() - started - readings.spent_s) \
            * readings.speed()
        cal.start()
        setups = []
        while len(setups) < (1 if args.quick else SETUP_REPEATS) and \
                sum(setups) < SETUP_REPEAT_BUDGET_S:
            watch = Stopwatch(cal)
            wl.setup()
            setups.append(watch.stop().reference_s)
        if args.trace:
            values, details = traced_run(wl, args, tally, expect, tmp)
        else:
            values, details = timed_run(wl, seconds, tally)
            values["setup_s"] = preamble_s + statistics.median(setups)
        cal.stop()
        host["calibration_after_ms"] = readings.reading_ms()
    finally:
        cal.stop()
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)

    values["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["max_err_pp"] = tally.max_err_pp
    values["failed_share"] = tally.failed / tally.attempted
    values["host.calibration_ms"] = host["calibration_before_ms"]
    values["host.nproc"] = host["nproc"]
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = tally.failed == 0 and \
        tally.max_err_pp <= expect[wl.name]["max_err_pp"] + 0.01
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=seconds, quick=args.quick, git_sha=git_sha(),
                  host=host, setup_samples_s=setups, preamble_s=preamble_s,
                  details=details, notes=tally.notes)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    if args.append:
        with open(args.append, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    for note in tally.notes:
        print(f"ledger: FAILED {note}", file=sys.stderr)
    print(f"ledger: {wl.name} seed={args.seed} trace={args.trace} "
          f"setup={statistics.median(setups):.2f}s {details}"[:600])
    print(json.dumps(result))
    return 0


# The serve pool spawns workers that re-import the main module: without
# this guard every job fails with BrokenProcessPool.
if __name__ == "__main__":
    sys.exit(main())
