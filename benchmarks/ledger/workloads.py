"""The six ledger workloads.

Each workload offers the same four operations to ``run.py``:

``setup()``
    Build fixtures and run the untimed warm-up.  May be called again; a
    call replaces the previous fixtures.
``rep()``
    One timed repetition through the black-box entry points a user calls
    (``Sweeper.speedup_grid``, ``price_grid``, a serve job).  Returns its
    stopped ``Stopwatch``, ``(kind, latency in reference ms)`` of each
    *job* in it, and the outputs for ``check``.  A job is what a user submits and waits for:
    one POST for the serve workloads, the whole sweep or pricing pass for
    the others (panels and grids differ 30x in size, so a median over
    them would only say which panel sits in the middle).
``check(outputs, tally)``
    Compare delivered outputs with the frozen seed-0 reference.
``staged(tracer)``
    The same repetition with the benchmark driving each stage through the
    repo's public functions, a span around every call.  Returns the
    outputs and the exact counts the stages reported.

The application seed is 0 throughout (the reference is seed 0); the
benchmark seed only orders panels, grid axes and jobs, and draws the
off-paper grids, so every exact count is the same for every ``--seed``.
Counts and sizes below are frozen: later issues compare against them.
"""

from __future__ import annotations

import asyncio
import csv
import multiprocessing
import os
import random
import shutil
import threading
import time
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps import default_config, run_app
from repro.experiments import grids
from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper
from repro.replay.adaptive import AdaptiveProgram
from repro.replay.backend import ReplayBackend
from repro.replay.compile import compile_dag
from repro.replay.program import ReplayProgram
from repro.whatif.evaluate import EvaluationError, Evaluator
from repro.whatif.record import record_app
from repro.whatif.validate import corner_points, validate

from calibration import Calibrator, Stopwatch
from spans import Tracer

Panel = Tuple[str, str]
#: (bandwidth MByte/s, latency ms) -> (runtime s, relative speedup %)
Points = Dict[Tuple[float, float], Tuple[float, float]]

SCALE = "bench"
APP_SEED = 0
#: a point further than this from the reference counts as failed (the
#: ladder's own corner tolerance, ``Sweeper.tolerance_pp``)
TOLERANCE_PP = 5.0

FIG3_PANELS: Tuple[Panel, ...] = (
    ("water", "optimized"), ("water", "unoptimized"),
    ("barnes", "optimized"), ("barnes", "unoptimized"),
    ("tsp", "optimized"), ("asp", "optimized"),
    ("awari", "optimized"), ("fft", "unoptimized"))
#: fig3_sim simulates all six bandwidths at three of the seven latencies
#: (both ends and the middle of the axis): 8 x (18 + 1) = 152 runs, ~10 s.
#: The full 6 x 7 grid takes ~24 s a pass, over the run-time cap.
FIG3_LATENCIES: Tuple[float, ...] = (0.5, 10.0, 300.0)
#: tsp and awari refuse at record time and would re-measure fig3_sim.
LADDER_PANELS: Tuple[Panel, ...] = (
    ("water", "optimized"), ("water", "unoptimized"),
    ("barnes", "optimized"), ("barnes", "unoptimized"),
    ("asp", "optimized"), ("asp", "unoptimized"), ("fft", "unoptimized"))
#: one panel per rung (replay, adaptive, predict): enough to pay every
#: lazy import and first-touch allocation before the timed passes.
LADDER_WARMUP: Tuple[Panel, ...] = (
    ("barnes", "optimized"), ("fft", "unoptimized"), ("water", "optimized"))
QUICK_PANELS: Tuple[Panel, ...] = (
    ("barnes", "optimized"), ("fft", "unoptimized"))

DENSE_PANELS: Tuple[Panel, ...] = (
    ("asp", "optimized"), ("asp", "unoptimized"),
    ("barnes", "optimized"), ("barnes", "unoptimized"))
#: 16 x 16 keeps every (nodes x points) matrix under glibc's 32 MiB mmap
#: ceiling; at 32 x 32 the same points/s swing +-30 % between identical
#: runs on page-fault noise, at 64 x 64 the matrix is 1.3 GB.
DENSE_AXIS = 16
DENSE_GRIDS = 6
DENSE_SAMPLES = 16
LOSS_RATES = (0.0, 0.001, 0.01, 0.05)

SERVE_WORKERS = 2
SERVE_SWEEPS: Tuple[Dict[str, Any], ...] = (
    {"app": "water"}, {"app": "barnes"},
    {"app": "fft", "variant": "unoptimized"}, {"app": "asp"})
SERVE_REPLAYS: Tuple[Dict[str, Any], ...] = (
    {"app": "barnes", "kind": "replay"}, {"app": "asp", "kind": "replay"})
SERVE_WARM_JOBS = 250
QUICK_WARM_JOBS = 50


# ----------------------------------------------------------------------
# Reference and checking
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, and the worst accuracy seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_err_pp = 0.0
        self.notes: List[str] = []

    def attempt(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


class Reference:
    """The frozen seed-0 Figure-3 simulation this benchmark judges against."""

    PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference", "figure3_bench_seed0.csv")

    def __init__(self) -> None:
        self.rows: Dict[Tuple[str, str, float, float], Tuple[float, float]] = {}
        with open(self.PATH, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["app"], row["variant"],
                       float(row["bandwidth_mbyte_s"]), float(row["latency_ms"]))
                self.rows[key] = (float(row["runtime_s"]),
                                  float(row["relative_speedup_pct"]))

    def check_grid(self, tally: Tally, panel: Panel, points: Points,
                   simulated: bool) -> None:
        """Every delivered point against the reference.

        ``simulated`` grids are ground truth and must reproduce the
        reference runtime to its six decimals; analytic grids must stay
        within the ladder's tolerance."""
        for (bw, lat), (runtime, speedup) in points.items():
            ref_runtime, ref_speedup = self.rows[panel + (bw, lat)]
            err = abs(speedup - ref_speedup)
            tally.max_err_pp = max(tally.max_err_pp, err)
            ok = err <= TOLERANCE_PP and \
                (not simulated or round(runtime, 6) == ref_runtime)
            tally.attempt(ok, f"{panel[0]}/{panel[1]} ({bw}, {lat}): "
                              f"runtime {runtime!r} speedup {speedup:.3f} vs "
                              f"reference {ref_runtime} / {ref_speedup}")


def grid_points(grid) -> Points:
    return {key: (p.runtime, p.relative_speedup_pct)
            for key, p in grid.points.items()}


def shuffled(rng: random.Random, items: Sequence) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


class SimMeter:
    """Runs ``run_app`` under a span and adds up what the run reports."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.runs = 0
        self.events = 0
        self.messages = 0
        self.wan_messages = 0
        self.wan_bytes = 0
        self.run_wall_s = 0.0           # time inside machine.run()
        self.build_s: List[float] = []  # run_app wall - RunResult.wall_time

    def run(self, app: str, variant: str, topology) -> float:
        t0 = time.perf_counter()
        with self.tracer.span("apps.run_app") as span:
            result = run_app(app, variant, topology,
                             config=default_config(app, SCALE), seed=APP_SEED)
        # build and RunResult.wall_time on the same (raw) clock; the span's
        # clock leaves the calibration slices out, so does the child's
        build = time.perf_counter() - t0 - result.wall_time
        wall = span["end"] - span["start"]
        self.tracer.reported_child(span, "sim.machine_run", wall - build)
        stats = result.stats
        self.runs += 1
        self.events += result.machine.engine.events_processed
        self.messages += stats.total_messages
        self.wan_messages += stats.inter.messages
        self.wan_bytes += stats.inter.bytes
        self.run_wall_s += wall - build
        self.build_s.append(build)
        return result.runtime

    def counts(self) -> Dict[str, Any]:
        return {"sim.events": self.events, "runtime.messages": self.messages,
                "network.wan_messages": self.wan_messages,
                "network.wan_bytes": self.wan_bytes}


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool, tmp: str,
                 reference: Reference, cal: Calibrator) -> None:
        self.rng = random.Random(seed)
        self.quick = quick
        self.tmp = tmp
        self.reference = reference
        #: samples host speed on a timer; ``Stopwatch`` leaves its slices out
        self.cal = cal
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{self.name}-{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def one_job(self, watch: Stopwatch, outputs):
        """``rep()``'s result when the whole repetition is the job."""
        return watch, [(self.name, watch.reference_s * 1e3)], outputs


# ----------------------------------------------------------------------
# fig3_sim
# ----------------------------------------------------------------------
class RunWalls:
    """A ``Sweeper(reporter=...)`` that adds up ``RunResult.wall_time``."""

    def __init__(self) -> None:
        self.total_s = 0.0

    def emit(self, record: Dict[str, Any]) -> None:
        self.total_s += record["wall_time_s"]


class Fig3Sim(Workload):
    name = "fig3_sim"
    #: traced runs set this: the black-box pass then carries a run-record
    #: reporter and notes what share of its wall was outside machine.run()
    report_runs = False
    overhead_share = 0.0

    def plan(self) -> List[Tuple[Panel, list, list]]:
        panels = QUICK_PANELS if self.quick else FIG3_PANELS
        return [(panel, shuffled(self.rng, grids.BANDWIDTHS_MBYTE_S),
                 shuffled(self.rng, FIG3_LATENCIES))
                for panel in shuffled(self.rng, panels)]

    def rep(self):
        plan = self.plan()
        outputs = []
        watch = Stopwatch(self.cal)
        raw_start = time.perf_counter()
        reporter = RunWalls() if self.report_runs else None
        sweeper = Sweeper(scale=SCALE, seed=APP_SEED, backend="simulate",
                          cache=None, reporter=reporter)
        for (app, variant), bws, lats in plan:
            grid = sweeper.speedup_grid(app, variant, bandwidths=bws,
                                        latencies=lats)
            outputs.append(((app, variant), grid.backend, grid_points(grid)))
        watch.stop()
        if reporter is not None:    # both on the raw clock, slices and all
            self.overhead_share = \
                1.0 - reporter.total_s / (time.perf_counter() - raw_start)
        return self.one_job(watch, outputs)

    def check(self, outputs, tally: Tally) -> None:
        for panel, backend, points in outputs:
            tally.attempt(backend == "simulate" and len(points) ==
                          len(grids.BANDWIDTHS_MBYTE_S) * len(FIG3_LATENCIES),
                          f"{panel}: backend {backend}, {len(points)} points")
            self.reference.check_grid(tally, panel, points, simulated=True)

    def staged(self, tracer: Tracer):
        plan = self.plan()
        meter = SimMeter(tracer)
        outputs = []
        with tracer.span("ledger.repetition") as root:
            for (app, variant), bws, lats in plan:
                with tracer.span("experiments.panel", op=f"{app}/{variant}"):
                    base = meter.run(app, variant, grids.baseline())
                    points: Points = {}
                    for lat in lats:
                        for bw in bws:
                            runtime = meter.run(
                                app, variant, grids.multi_cluster(bw, lat))
                            points[(bw, lat)] = (runtime, 100.0 * base / runtime)
                outputs.append(((app, variant), "simulate", points))
        return root, outputs, {
            "meter": meter,
            "experiments.sweeper_overhead_share": self.overhead_share}


# ----------------------------------------------------------------------
# ladder_cold / ladder_warm
# ----------------------------------------------------------------------
RUNGS = {"replay": "replay.rung_replay_panels",
         "vectorized-adaptive": "replay.rung_adaptive_panels",
         "predict": "replay.rung_predict_panels",
         "simulate": "replay.rung_simulate_panels"}


class Ladder(Workload):
    """``Sweeper(backend="replay")`` over the analytic panels."""

    warm = False

    def panels(self) -> Tuple[Panel, ...]:
        return QUICK_PANELS if self.quick else LADDER_PANELS

    def plan(self):
        return [(panel, shuffled(self.rng, grids.BANDWIDTHS_MBYTE_S),
                 shuffled(self.rng, grids.LATENCIES_MS))
                for panel in shuffled(self.rng, self.panels())]

    def sweep(self, cache_dir: str, panels):
        """Cold: one Sweeper for the pass.  Warm: a fresh one per panel, as
        a new CLI invocation would build."""
        outputs = []
        sweeper = None
        for (app, variant), bws, lats in panels:
            if sweeper is None or self.warm:
                sweeper = Sweeper(scale=SCALE, seed=APP_SEED, backend="replay",
                                  cache=SimCache(cache_dir))
            grid = sweeper.speedup_grid(app, variant, bandwidths=bws,
                                        latencies=lats)
            outputs.append(((app, variant), grid.backend, grid_points(grid)))
        return outputs

    def check(self, outputs, tally: Tally) -> None:
        for panel, backend, points in outputs:
            tally.attempt(len(points) == 42, f"{panel}: {len(points)} points")
            self.reference.check_grid(tally, panel, points,
                                      simulated=backend == "simulate")

    # -- the ladder, stage by stage -------------------------------------
    def staged_panel(self, tracer: Tracer, meter: SimMeter, cache: SimCache,
                     counts: Dict[str, Any], panel: Panel, bws, lats):
        """One panel through the public stages ``Sweeper._replay`` and
        ``speedup_grid`` go through, in their order."""
        app, variant = panel

        def sim(topology) -> float:
            with tracer.span("experiments.cache_get"):
                hit = cache.get(app, variant, SCALE, APP_SEED, topology)
            if hit is not None:
                return hit
            runtime = meter.run(app, variant, topology)
            with tracer.span("experiments.cache_put"):
                cache.put(app, variant, SCALE, APP_SEED, topology, runtime)
            return runtime

        def load_or_compile(key: str, cls, adaptive: bool):
            kind = "adaptive_" if adaptive else ""
            with tracer.span(f"replay.{kind}program_load"):
                entry = cache.lookup(key)
                program = cls.from_record(entry["program"]) if entry else None
            if program is None:
                with tracer.span(f"replay.{kind}compile"):
                    program = compile_dag(recording.dag, recording.topology,
                                          adaptive=adaptive)
                with tracer.span(f"replay.{kind}program_store"):
                    cache.store(key, {"kind": "replay", "app": app,
                                      "variant": variant,
                                      "stats": program.stats(),
                                      "program": program.to_record()})
            return program

        with tracer.span("experiments.panel", op=f"{app}/{variant}"):
            with tracer.span("whatif.record"):
                recording = record_app(app, variant, scale=SCALE, seed=APP_SEED)
            backend = ReplayBackend(recording)
            program = backend.program = load_or_compile(
                backend.cache_key(), ReplayProgram, adaptive=False)
            counts["replay.compile_nodes"] += program.num_nodes
            counts["replay.compile_levels"] += program.num_levels
            with tracer.span("whatif.evaluator_build"):
                evaluator = backend.evaluator
            with tracer.span("replay.probe"):
                probe = backend.probe()
            base = sim(grids.baseline())
            adaptive = None
            if probe.stable:
                rung, arbiter = "replay", SimpleNamespace(evaluate=program.price)
            else:
                adaptive = backend.adaptive_program = load_or_compile(
                    backend.adaptive_cache_key(), AdaptiveProgram, adaptive=True)
                with tracer.span("replay.convergence"):
                    convergence = backend.convergence_check()
                if convergence.converged:
                    def price_converged(topology) -> float:
                        runtime, converged, _ = adaptive.price_adaptive(topology)
                        if not converged:
                            raise EvaluationError("adaptive engine did not converge")
                        return runtime
                    rung = "vectorized-adaptive"
                    arbiter = SimpleNamespace(evaluate=price_converged)
                else:
                    rung, arbiter = "predict", evaluator
            with tracer.span("whatif.validate"):
                report = validate(
                    recording, baseline_runtime=base,
                    simulate=lambda bw, lat: sim(grids.multi_cluster(bw, lat)),
                    points=corner_points(grids.BANDWIDTHS_MBYTE_S,
                                         grids.LATENCIES_MS),
                    tolerance_pp=TOLERANCE_PP, evaluator=arbiter,
                    topology_for=grids.multi_cluster)
            if report.fallback:
                rung = "simulate"
            counts[RUNGS[rung]] += 1

            runtimes: Dict[Tuple[float, float], float] = {}
            if rung == "replay":
                with tracer.span("replay.price"):
                    priced = program.price_grid(bws, lats)
                for i, lat in enumerate(lats):
                    for j, bw in enumerate(bws):
                        runtimes[(bw, lat)] = float(priced[i][j])
            elif rung == "vectorized-adaptive":
                with tracer.span("replay.adaptive_price"):
                    result = adaptive.price_grid_adaptive(bws, lats)
                counts["replay.adaptive_iterations"] = max(
                    counts["replay.adaptive_iterations"], result.max_iterations)
                counts["adaptive_points"] += result.num_points
                counts["adaptive_unconverged"] += result.num_unconverged
                for i, lat in enumerate(lats):
                    for j, bw in enumerate(bws):
                        if result.converged[i][j]:
                            runtimes[(bw, lat)] = float(result.runtimes[i][j])
            # predict rung, unconverged adaptive points, or full fallback
            missing = [(bw, lat) for lat in lats for bw in bws
                       if (bw, lat) not in runtimes]
            if missing and rung == "simulate":
                for bw, lat in missing:
                    runtimes[(bw, lat)] = sim(grids.multi_cluster(bw, lat))
            elif missing:
                with tracer.span("whatif.evaluate"):
                    for bw, lat in missing:
                        runtimes[(bw, lat)] = evaluator.evaluate(
                            grids.multi_cluster(bw, lat))
            # speedup_grid splices the simulated corners in as ground truth
            for vp in report.points:
                runtimes[(vp.bandwidth_mbyte_s, vp.latency_ms)] = \
                    vp.simulated_runtime
            points = {key: (runtime, 100.0 * base / runtime)
                      for key, runtime in runtimes.items()}
        return (panel, rung, points)

    def staged(self, tracer: Tracer):
        plan = self.plan()
        meter = SimMeter(tracer)
        counts: Dict[str, Any] = dict.fromkeys(
            list(RUNGS.values()) + ["replay.compile_nodes",
                                    "replay.compile_levels",
                                    "replay.adaptive_iterations",
                                    "adaptive_points", "adaptive_unconverged"], 0)
        cache = SimCache(self.cache_dir if self.warm else self.fresh_dir())
        with tracer.span("ledger.repetition") as root:
            outputs = [self.staged_panel(tracer, meter, cache, counts, *item)
                       for item in plan]
        if not self.warm:
            shutil.rmtree(cache.root)
        counts["meter"] = meter
        return root, outputs, counts


class LadderCold(Ladder):
    name = "ladder_cold"

    def setup(self) -> None:
        warmup = [(panel, grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
                  for panel in (QUICK_PANELS if self.quick else LADDER_WARMUP)]
        path = self.fresh_dir()
        self.sweep(path, warmup)
        shutil.rmtree(path)

    def rep(self):
        plan = self.plan()
        path = self.fresh_dir()
        watch = Stopwatch(self.cal)
        outputs = self.sweep(path, plan)
        watch.stop()
        shutil.rmtree(path)
        return self.one_job(watch, outputs)


class LadderWarm(Ladder):
    name = "ladder_warm"
    warm = True

    def setup(self) -> None:
        self.cache_dir = self.fresh_dir()
        self.sweep(self.cache_dir,
                   [(panel, grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
                    for panel in self.panels()])

    def rep(self):
        plan = self.plan()
        watch = Stopwatch(self.cal)
        outputs = self.sweep(self.cache_dir, plan)
        return self.one_job(watch.stop(), outputs)


# ----------------------------------------------------------------------
# price_grids
# ----------------------------------------------------------------------
def geometric_axis(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """``n`` increasing values over ``[lo, hi)``, one drawn per log-bin."""
    ratio = hi / lo
    return [lo * ratio ** ((i + rng.random()) / n) for i in range(n)]


class PriceGrids(Workload):
    name = "price_grids"

    def setup(self) -> None:
        def baseline(panel: Panel) -> float:
            return run_app(*panel, grids.baseline(),
                           config=default_config(panel[0], SCALE),
                           seed=APP_SEED).runtime

        self.dense = []
        for panel in (DENSE_PANELS[2:] if self.quick else DENSE_PANELS):
            recording = record_app(*panel, scale=SCALE, seed=APP_SEED)
            self.dense.append(SimpleNamespace(
                panel=panel, base=baseline(panel),
                program=compile_dag(recording.dag, recording.topology),
                evaluator=Evaluator(recording.dag)))
        fft = record_app("fft", "unoptimized", scale=SCALE, seed=APP_SEED)
        self.fft = compile_dag(fft.dag, fft.topology, adaptive=True)
        self.fft_base = baseline(("fft", "unoptimized"))
        self.water = Evaluator(
            record_app("water", "optimized", scale=SCALE, seed=APP_SEED).dag)
        self.water_base = baseline(("water", "optimized"))
        self.loss_program = self.dense[0].program
        bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
        self.axes = [(geometric_axis(self.rng, min(bws), max(bws), DENSE_AXIS),
                      geometric_axis(self.rng, min(lats), max(lats), DENSE_AXIS))
                     for _ in range(1 if self.quick else DENSE_GRIDS)]
        self.samples = [(self.rng.randrange(len(self.axes)),
                         self.rng.randrange(DENSE_AXIS),
                         self.rng.randrange(DENSE_AXIS))
                        for _ in range(DENSE_SAMPLES)]
        for d in self.dense:    # what the interpreted evaluator says there
            d.want = [d.evaluator.evaluate(grids.multi_cluster(
                self.axes[g][0][j], self.axes[g][1][i]))
                for g, i, j in self.samples]
        # first-touch allocation makes the first passes 2-10x slower
        for _ in range(1 if self.quick else 2):
            self.rep()

    def rep(self, tracer: Optional[Tracer] = None):
        def span(name: str, op: str):
            return nullcontext() if tracer is None else tracer.span(name, op=op)

        bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
        watch = Stopwatch(self.cal)
        dense = []
        for d in self.dense:
            priced = []
            for g, (axis_bw, axis_lat) in enumerate(self.axes):
                with span("replay.price_dense", f"{d.panel[0]}/{d.panel[1]}#{g}"):
                    priced.append(d.program.price_grid(axis_bw, axis_lat))
            dense.append(priced)
        with span("replay.adaptive_price", "fft/unoptimized"):
            adaptive = self.fft.price_grid_adaptive(bws, lats)
        with span("whatif.evaluate", "water/optimized"):
            water = [[self.water.evaluate(grids.multi_cluster(bw, lat))
                      for bw in bws] for lat in lats]
        with span("replay.price_loss", "loss-axis"):
            loss = self.loss_program.price_grid(bws, lats, loss_rates=LOSS_RATES)
        return self.one_job(watch.stop(), (dense, adaptive, water, loss))

    def check(self, outputs, tally: Tally) -> None:
        dense, adaptive, water, loss = outputs
        bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
        for d, priced in zip(self.dense, dense):
            for (g, i, j), want in zip(self.samples, d.want):
                got = float(priced[g][i][j])
                err = abs(100.0 * d.base / got - 100.0 * d.base / want)
                tally.max_err_pp = max(tally.max_err_pp, err)
                tally.attempt(err <= TOLERANCE_PP,
                              f"{d.panel} off-paper ({self.axes[g][0][j]:.4g}, "
                              f"{self.axes[g][1][i]:.4g}): {got} vs evaluator {want}")

        def paper(panel: Panel, base: float, runtimes) -> Points:
            return {(bw, lat): (float(runtimes[i][j]),
                                100.0 * base / float(runtimes[i][j]))
                    for i, lat in enumerate(lats) for j, bw in enumerate(bws)}

        tally.attempt(adaptive.all_converged,
                      f"fft adaptive: {adaptive.num_unconverged} unconverged")
        self.reference.check_grid(
            tally, ("fft", "unoptimized"),
            paper(("fft", "unoptimized"), self.fft_base, adaptive.runtimes), False)
        self.reference.check_grid(
            tally, ("water", "optimized"),
            paper(("water", "optimized"), self.water_base, water), False)
        first = self.dense[0]
        self.reference.check_grid(tally, first.panel,
                                  paper(first.panel, first.base, loss[0]), False)
        for k in range(1, len(LOSS_RATES)):     # loss only ever adds delay
            tally.attempt(bool((loss[k] >= loss[k - 1]).all()),
                          f"loss axis not monotone at rate {LOSS_RATES[k]}")

    def staged(self, tracer: Tracer):
        with tracer.span("ledger.repetition") as root:
            _, _, outputs = self.rep(tracer)
        adaptive = outputs[1]
        return root, outputs, {
            "replay.adaptive_iterations": adaptive.max_iterations,
            "adaptive_points": adaptive.num_points,
            "adaptive_unconverged": adaptive.num_unconverged}


# ----------------------------------------------------------------------
# serve_cold / serve_warm
# ----------------------------------------------------------------------
class Serve(Workload):
    """An in-process ``ServeServer`` on loopback TCP, one closed-loop
    client connection at a time."""

    loop = None

    def start(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.scheduler import Scheduler
        from repro.serve.server import ServeServer

        t0 = time.perf_counter()
        self.cache = SimCache(self.fresh_dir())
        self.server = ServeServer(Scheduler(self.cache, workers=SERVE_WORKERS),
                                  host="127.0.0.1", port=0)
        self.loop = asyncio.new_event_loop()
        addresses = self.loop.run_until_complete(self.server.start())
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.client = ServeClient(addresses[0], timeout=170)
        self.client.healthz()
        # the pool spawns on first dispatch: three units of work start and
        # warm both workers
        self.job({"app": "barnes", "bandwidths": [6.3, 0.03], "latencies": [0.5]})
        self.start_s = time.perf_counter() - t0

    def close(self) -> None:
        if self.loop is None:
            return
        stop = asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
        try:
            stop.result(timeout=60)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()
            self.loop = None
            # Scheduler.stop() does not wait for its pool: no orphan workers
            for worker in multiprocessing.active_children():
                worker.join(timeout=30)
                if worker.is_alive():
                    worker.kill()
                    worker.join()

    def setup(self) -> None:
        self.close()
        self.start()

    def sweeps(self) -> Tuple[Dict[str, Any], ...]:
        return SERVE_SWEEPS[1:2] if self.quick else SERVE_SWEEPS

    def job(self, spec: Dict[str, Any], tracer: Optional[Tracer] = None):
        """POST, stream to the last line, merge; returns (reference ms,
        end record, grid)."""
        from repro.serve.client import merge_grid

        watch = Stopwatch(self.cal)
        if tracer is None:
            records = list(self.client.submit_and_stream(spec))
            grid = merge_grid(records)
        else:
            with tracer.span("serve.job", op=f"job{len(tracer.spans)}"):
                with tracer.span("serve.submit"):
                    job = self.client.submit(spec)
                with tracer.span("serve.first_line"):
                    stream = self.client.stream(job["id"])
                    records = [next(stream)]
                with tracer.span("serve.stream"):
                    records.extend(stream)
                with tracer.span("serve.merge"):
                    grid = merge_grid(records)
        return watch.stop().reference_s * 1e3, records[-1], \
            ((grid.app, grid.variant), grid_points(grid))

    def run_jobs(self, specs, tracer: Optional[Tracer] = None):
        watch = Stopwatch(self.cal)
        done = [(spec,) + self.job(spec, tracer) for spec in specs]
        return watch.stop(), [(repr(spec), ms) for spec, ms, _, _ in done], \
            [(spec, end, grid) for spec, _, end, grid in done]

    def rep(self):
        self.before_rep()
        return self.run_jobs(self.specs())

    def check(self, outputs, tally: Tally) -> None:
        for spec, end, (panel, points) in outputs:
            want_hits = end["points_total"] if self.expect_hits else 0
            tally.attempt(end["state"] == "done" and end["failed_points"] == 0
                          and end["points_done"] == end["points_total"] == 43
                          and end["cache_hits"] == want_hits,
                          f"job {spec}: {end}")
            self.reference.check_grid(tally, panel, points,
                                      simulated=spec.get("kind") != "replay")

    def staged(self, tracer: Tracer):
        before = self.client.metrics()
        self.before_rep()
        specs = self.specs()
        with tracer.span("ledger.repetition") as root:
            _, _, outputs = self.run_jobs(specs, tracer)
        after = self.client.metrics()
        ends = [end for _, end, _ in outputs]
        counts = {
            "points": sum(end["points_done"] for end in ends),
            "hits": sum(end["cache_hits"] for end in ends),
            "serve.dispatched_points": sum(end["dispatched"] for end in ends),
            "specs": specs}
        # the server's own counters must tell the same story as the
        # end records the client saw
        counts["metrics_agree"] = all(
            after.get(name, 0) - before.get(name, 0) == counts[key]
            for name, key in (("serve.points.completed", "points"),
                              ("serve.points.cache_hits", "hits"),
                              ("serve.points.dispatched",
                               "serve.dispatched_points")))
        return root, outputs, counts


class ServeCold(Serve):
    name = "serve_cold"
    expect_hits = False

    def specs(self) -> List[Dict[str, Any]]:
        return shuffled(self.rng, self.sweeps())

    def before_rep(self) -> None:
        self.cache.clear()


class ServeWarm(Serve):
    name = "serve_warm"
    expect_hits = True
    cpus = os.sched_getaffinity(0)

    def setup(self) -> None:
        os.sched_setaffinity(0, self.cpus)      # a repeated set-up seeds unpinned
        super().setup()
        self.mix = list(self.sweeps()) + \
            list(SERVE_REPLAYS[:1] if self.quick else SERVE_REPLAYS)
        for spec in self.mix:                   # seed the cache
            self.job(spec)
        # Client and server are two threads of this process only because
        # the benchmark hosts both.  Left to the scheduler they land on
        # different vCPUs in some runs and every request then pays two
        # cross-CPU wake-ups: 1.7x the job latency, decided per run by
        # chance.  One vCPU for both (the idle pool keeps its own) leaves
        # the request path's CPU work, which is what this workload is for.
        one = {min(self.cpus)}
        os.sched_setaffinity(0, one)
        asyncio.run_coroutine_threadsafe(self.pin_here(one), self.loop).result(30)

    @staticmethod
    async def pin_here(cpus) -> None:
        os.sched_setaffinity(0, cpus)   # pid 0: the calling (event-loop) thread

    def close(self) -> None:
        super().close()
        os.sched_setaffinity(0, self.cpus)

    def specs(self) -> List[Dict[str, Any]]:
        jobs = QUICK_WARM_JOBS if self.quick else SERVE_WARM_JOBS
        return [self.rng.choice(self.mix) for _ in range(jobs)]

    def before_rep(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Fig3Sim, LadderCold, LadderWarm,
                                       PriceGrids, ServeCold, ServeWarm)}
