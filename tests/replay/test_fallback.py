"""The fallback ladder: every rung must fail *closed*, to simulation.

The replay backend is only allowed to be fast where it is provably
safe.  Timing-sensitive DAGs (tsp's work stealing, awari's MARK
protocol), fault-bearing sweeps, and order-unstable programs each have
a designated landing rung.

With the vectorized-adaptive rung, the order-unstable landing spot
splits by measured convergence: fft's re-sorted orders fix within the
iteration cap, so it stays vectorized ("vectorized-adaptive"); water's
value feedback is hundreds of queue-crossings deep, its corners never
converge, and it falls through to the per-point evaluator ("predict").
Both outcomes are pinned here — water converging would be as much a
behavior change as fft regressing to predict.
"""

import gc
import weakref

import pytest

from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper
from repro.faults import FaultPlan, PacketLoss
from repro.replay import ladder
from repro.replay.backend import ReplayBackend
from repro.whatif.evaluate import EvaluationError, Evaluator

#: small axes: fallback rungs are decided before any pricing, so the
#: grids here only need enough points to prove the decision stuck
BWS = (6.3, 2.6)
LATS = (0.5, 1.3)


@pytest.mark.parametrize("app", ["tsp", "awari"])
def test_timing_sensitive_apps_fall_back_to_simulation(app):
    grid = Sweeper(backend="replay").speedup_grid(
        app, "optimized", bandwidths=BWS, latencies=LATS)
    assert grid.backend == "simulate"
    assert not grid.predicted
    assert grid.decision.validation.fallback
    assert "timing" in grid.decision.validation.reason
    assert "convergence" not in grid.decision.evidence
    assert len(grid.points) == len(BWS) * len(LATS)


def test_lossy_fault_plan_falls_back_to_simulation():
    plan = FaultPlan(loss=(PacketLoss(probability=0.05),))
    grid = Sweeper(backend="replay", faults=plan).speedup_grid(
        "asp", "optimized", bandwidths=BWS, latencies=LATS)
    assert grid.backend == "simulate"
    assert not grid.predicted
    assert grid.decision.validation.fallback
    assert "fault" in grid.decision.validation.reason
    assert "convergence" not in grid.decision.evidence
    assert len(grid.points) == len(BWS) * len(LATS)


@pytest.mark.parametrize("app,variant", [("asp", "optimized"),
                                         ("barnes", "optimized")])
def test_order_stable_apps_stay_on_plain_vectorized(app, variant):
    grid = Sweeper(backend="replay").speedup_grid(
        app, variant, bandwidths=BWS, latencies=LATS)
    assert grid.backend == "replay"
    assert grid.predicted
    assert grid.decision.evidence["probe"].stable
    # the adaptive rung is never even tried for a stable program
    assert "convergence" not in grid.decision.evidence


def test_fft_lands_on_vectorized_adaptive():
    grid = Sweeper(backend="replay").speedup_grid(
        "fft", "unoptimized", bandwidths=BWS, latencies=LATS)
    assert grid.backend == "vectorized-adaptive"
    assert grid.predicted
    assert not grid.decision.evidence["probe"].stable
    assert grid.decision.evidence["convergence"].converged
    # every grid point converged: nothing fell back to the evaluator
    assert grid.downgraded_points == []
    # downgrade is not a fallback: the analytic path still validated
    assert not grid.decision.validation.fallback
    assert len(grid.points) == len(BWS) * len(LATS)


def test_water_falls_through_to_predict():
    # Water is order-unstable *and* its re-sorting iteration does not
    # converge (the corner check caps out), so the adaptive rung must
    # refuse it and the interpreted evaluator prices every point.
    grid = Sweeper(backend="replay").speedup_grid(
        "water", "optimized", bandwidths=BWS, latencies=LATS)
    assert grid.backend == "predict"
    assert grid.predicted
    assert not grid.decision.evidence["probe"].stable
    convergence = grid.decision.evidence["convergence"]
    assert not convergence.converged
    assert not convergence.all_converged
    assert "adaptive-unconverged" in convergence.summary()
    assert not grid.decision.validation.fallback


# ----------------------------------------------------------------------
# The ladder as a table: entry point x app/variant -> rung
# ----------------------------------------------------------------------
#: frozen from the behaviour of the commit before the ladder was unified
#: (both variants of an app land alike); ``backend="predict"`` enters at
#: the last analytic rung
EXPECTED_RUNG = {
    "replay": {"water": "predict", "barnes": "replay", "tsp": "simulate",
               "asp": "replay", "awari": "simulate",
               "fft": "vectorized-adaptive"},
    "predict": {"water": "predict", "barnes": "predict", "tsp": "simulate",
                "asp": "predict", "awari": "simulate", "fft": "predict"},
}
LADDER_TABLE = [(entry, app, variant, rung)
                for entry, rungs in EXPECTED_RUNG.items()
                for app, rung in rungs.items()
                for variant in ("unoptimized", "optimized")]


@pytest.fixture(scope="module")
def sweepers(tmp_path_factory):
    """One Sweeper per entry point over one shared cache: each app's
    ground-truth corners are simulated once for the whole table."""
    cache = SimCache(str(tmp_path_factory.mktemp("ladder-cache")))
    return {entry: Sweeper(backend=entry, cache=cache)
            for entry in ("replay", "predict")}


@pytest.mark.parametrize("entry,app,variant,rung", LADDER_TABLE)
def test_ladder_table(sweepers, entry, app, variant, rung):
    sweeper = sweepers[entry]
    grid = sweeper.speedup_grid(app, variant, bandwidths=BWS, latencies=LATS)
    decision = sweeper.decision(app, variant)
    assert grid.backend == decision.rung == rung
    assert grid.predicted == (rung != "simulate")
    assert grid.decision is decision
    assert decision.validation.fallback == (rung == "simulate")
    assert (decision.pricer is None) == (rung == "simulate")
    # evidence is measured only on the way down from the entry rung
    if entry == "predict" or rung == "simulate":
        assert decision.evidence == {}
    else:
        assert decision.evidence["probe"].stable == (rung == "replay")
        assert ("convergence" in decision.evidence) == (rung != "replay")


def test_predict_entry_is_the_replay_ladders_tail(sweepers):
    # water lands on the predict rung from the top of the ladder, so
    # both entries price it with the same code: identical floats.
    from_top = sweepers["replay"].speedup_grid("water", "optimized")
    from_tail = sweepers["predict"].speedup_grid("water", "optimized")
    assert from_top.backend == from_tail.backend == "predict"
    assert len(from_tail.points) == 42
    for key, point in from_top.points.items():
        assert repr(from_tail.points[key]) == repr(point)


def test_predict_kwarg_is_retired():
    with pytest.raises(TypeError):
        Sweeper(predict=True)


# ----------------------------------------------------------------------
# Panel lifetime: a decision keeps only what its rung prices with
# ----------------------------------------------------------------------
@pytest.fixture
def walked(monkeypatch):
    """Weak references to the backend, the recording and each program
    (``"program"``, ``"adaptive"``) of the next walk."""
    refs = {}
    for_app = ReplayBackend.for_app.__func__

    def recorded(cls, *args, **kwargs):
        backend = for_app(cls, *args, **kwargs)
        refs.update(backend=weakref.ref(backend),
                    recording=weakref.ref(backend.recording))
        return backend

    load = ReplayBackend._load_or_compile

    def loaded(self, key, cls, adaptive):
        program, from_cache = load(self, key, cls, adaptive)
        refs["adaptive" if adaptive else "program"] = weakref.ref(program)
        return program, from_cache

    monkeypatch.setattr(ReplayBackend, "for_app", classmethod(recorded))
    monkeypatch.setattr(ReplayBackend, "_load_or_compile", loaded)
    return refs


@pytest.mark.parametrize("app,variant,rung,kept", [
    ("barnes", "optimized", "replay", {"program"}),
    ("fft", "unoptimized", "vectorized-adaptive", {"adaptive"}),
    ("water", "optimized", "predict", set())])
def test_a_decision_keeps_only_what_its_rung_prices_with(
        walked, app, variant, rung, kept):
    """With the collector off: once the grid is priced, the recording,
    the backend and every program the rung does not price with are
    freed; the one it prices with is alive.  Only a rung that can
    downgrade keeps an evaluator."""
    sweeper = Sweeper(backend="replay")
    gc.collect()
    gc.disable()
    try:
        grid = sweeper.speedup_grid(app, variant, bandwidths=BWS,
                                    latencies=LATS)
        alive = {name for name, ref in walked.items() if ref() is not None}
    finally:
        gc.enable()
    assert grid.backend == rung
    assert alive == kept
    assert {"backend", "recording", "program"} <= walked.keys()
    evaluator = grid.decision.evaluator
    if rung == "replay":
        assert evaluator is None
    elif rung == "predict":
        assert isinstance(evaluator, Evaluator)
    else:
        assert isinstance(evaluator, ladder.DeferredEvaluator)


def test_speedup_at_after_speedup_grid_walks_once(monkeypatch):
    walks = []
    walk = ladder.walk

    def counting(entry, app, variant, **kwargs):
        walks.append((entry, app, variant))
        return walk(entry, app, variant, **kwargs)
    monkeypatch.setattr(ladder, "walk", counting)
    sweeper = Sweeper(backend="replay")
    grid = sweeper.speedup_grid("asp", "optimized", bandwidths=BWS,
                                latencies=LATS)
    point = sweeper.speedup_at("asp", "optimized", 2.6, 1.3)
    assert walks == [("replay", "asp", "optimized")]
    assert repr(point) == repr(grid.points[2.6, 1.3])


def test_the_replay_rung_refuses_an_infinite_bandwidth():
    """The frozen rung keeps no evaluator to ask: a non-finite axis
    value, the one input a link admits and the program refuses, raises
    the program's refusal."""
    sweeper = Sweeper(backend="replay")
    assert sweeper.decision("asp", "optimized").rung == "replay"
    with pytest.raises(EvaluationError, match="bandwidth inf"):
        sweeper.speedup_at("asp", "optimized", float("inf"), 10.0)
