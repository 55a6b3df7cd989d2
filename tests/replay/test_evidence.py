"""A compiled program carries its own corner evidence.

When :class:`ReplayBackend` compiles a program into a :class:`SimCache`
it files the raw numbers its admission check compares — the probe's
evaluator and program prices at the four corners, the adaptive corner
fixed point — in the program's ``meta``, bound to a digest of the
recorded DAG, and writes the entry once.  A warm walk re-derives both
verdicts from them with the live tolerance instead of building an
evaluator and iterating again; validation against simulation is never
cached.  The same decoding also decides what a *corrupt* program entry
is: one that does not decode to a consistent program is counted,
recompiled and stored over, never raised.
"""

import json

import pytest

from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper
from repro.replay import ladder
from repro.replay.adaptive import AdaptiveProgram
from repro.replay.backend import ReplayBackend
from repro.replay.compile import compile_dag
from repro.replay.program import ReplayProgram
from repro.whatif.evaluate import Evaluator
from repro.whatif.record import OP_COMPUTE, record_app

#: the analytic app/variants (fft has one variant: both names walk it)
ANALYTIC = [
    ("water", "unoptimized"), ("water", "optimized"),
    ("barnes", "unoptimized"), ("barnes", "optimized"),
    ("asp", "unoptimized"), ("asp", "optimized"),
    ("fft", "unoptimized"), ("fft", "optimized"),
]


def walk(cache, app, variant, seed=0):
    return Sweeper(backend="replay", seed=seed,
                   cache=cache).speedup_grid(app, variant)


class Counts(dict):
    """Evaluator builds and walks and adaptive iterations so far, and
    the counts as each corner validation started."""

    def __init__(self) -> None:
        super().__init__(build=0, walk=0, iterate=0)
        self.before_validation = []

    def reset(self) -> None:
        self.update(build=0, walk=0, iterate=0)
        self.before_validation.clear()


@pytest.fixture
def counts(monkeypatch):
    seen = Counts()

    def count(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            seen[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    count(Evaluator, "__init__", "build")
    count(Evaluator, "walk", "walk")
    count(AdaptiveProgram, "_iterate", "iterate")
    validate = ladder.validate

    def snapshot(*args, **kwargs):
        seen.before_validation.append(dict(seen))
        return validate(*args, **kwargs)
    monkeypatch.setattr(ladder, "validate", snapshot)
    return seen


def bits(value):
    """``value`` with every float spelled by its bits and every leaf
    tagged with its type (``1 == True`` would hide a changed type)."""
    if isinstance(value, list):
        return [bits(item) for item in value]
    if isinstance(value, dict):
        return {name: bits(item) for name, item in value.items()}
    return type(value).__name__, \
        value.hex() if type(value) is float else value


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("app,variant", ANALYTIC)
def test_warm_walk_lands_where_the_cold_one_did(app, variant, seed,
                                                tmp_path):
    cache = SimCache(str(tmp_path / "c"))
    cold = walk(cache, app, variant, seed)
    warm = walk(cache, app, variant, seed)
    assert not cold.decision.facts.program.from_cache
    assert warm.decision.facts.program.from_cache
    assert warm.backend == cold.backend
    assert warm.decision.summary() == cold.decision.summary()
    assert warm.decision.evidence == cold.decision.evidence   # every float
    assert repr(warm.baseline_runtime) == repr(cold.baseline_runtime)
    assert repr(warm.points) == repr(cold.points)


@pytest.mark.parametrize("app,variant,rung", [
    ("asp", "optimized", "replay"),
    ("fft", "unoptimized", "vectorized-adaptive")])
def test_warm_walk_measures_nothing_before_validation(app, variant, rung,
                                                      tmp_path, counts):
    cache = SimCache(str(tmp_path / "c"))
    walk(cache, app, variant)
    assert counts.before_validation[0]["walk"] > 0   # the cold walk probed
    counts.reset()

    grid = walk(cache, app, variant)
    assert grid.backend == rung
    assert counts.before_validation == [{"build": 0, "walk": 0,
                                         "iterate": 0}]
    assert counts["build"] == 0         # and no evaluator afterwards either


def test_evidence_round_trips_bit_for_bit(tmp_path):
    cache = SimCache(str(tmp_path / "c"))
    backend = ReplayBackend.for_app("fft", "unoptimized", cache=cache)
    backend.probe()
    backend.convergence_check()
    for program, key in ((backend.program, backend.cache_key()),
                         (backend.adaptive_program,
                          backend.adaptive_cache_key())):
        with open(cache._path(key)) as fh:
            loaded = type(program).from_record(json.load(fh)["program"])
        assert bits(loaded.meta["evidence"]) == \
            bits(program.meta["evidence"])


def test_entry_without_evidence_still_probes(tmp_path, counts):
    """What ``compile_dag`` + ``SimCache.store`` write (no evidence, no
    digest) is loaded as before and probed by measuring; nothing is
    written back."""
    cache = SimCache(str(tmp_path / "c"))
    recording = record_app("asp", "optimized")
    backend = ReplayBackend(recording, cache=cache)
    key = backend.cache_key()
    cache.store(key, {"kind": "replay",
                      "program": compile_dag(recording.dag,
                                             recording.topology).to_record()})
    counts.reset()
    report = backend.probe()
    assert backend.from_cache
    assert counts["walk"] == 4 and "probe_s" in backend.timings
    assert report == ReplayBackend(recording).probe()
    assert "evidence" not in cache.lookup(key)["program"]["meta"]


def test_digest_mismatch_recompiles_and_remeasures(tmp_path):
    cache = SimCache(str(tmp_path / "c"))
    first = ReplayBackend.for_app("barnes", "optimized", cache=cache)
    report = first.probe()
    key = first.cache_key()
    entry = cache.lookup(key)
    entry["program"]["meta"]["evidence"]["dag"] = "0" * 32
    cache.store(key, entry)

    again = ReplayBackend.for_app("barnes", "optimized", cache=cache)
    assert again.probe() == report
    assert not again.from_cache
    assert {"compile_s", "probe_s"} <= again.timings.keys()
    assert cache.corrupt == 0                 # another recording's, not bad
    assert cache.lookup(key)["program"]["meta"]["evidence"]["dag"] == \
        again.recording.dag.digest()


@pytest.mark.parametrize("app,variant,rel_tol,stable", [
    ("asp", "optimized", 1e-6, False),      # 0.03 % frozen-order error
    ("water", "optimized", 0.5, True)])     # 32.8 %
def test_rel_tol_rederives_the_verdict_from_cached_prices(
        app, variant, rel_tol, stable, tmp_path, counts, monkeypatch):
    cache = SimCache(str(tmp_path / "c"))
    cold = ReplayBackend.for_app(app, variant, cache=cache).probe()
    counts.reset()
    monkeypatch.setattr("repro.replay.backend.PROBE_REL_TOL", rel_tol)
    warm = ReplayBackend.for_app(app, variant, cache=cache).probe()
    assert counts["walk"] == 0
    assert warm.stable is stable and cold.stable is not stable
    assert warm.points == cold.points and warm.rel_tol == rel_tol


def test_convergence_verdict_follows_the_live_tolerance(tmp_path,
                                                        monkeypatch):
    cache = SimCache(str(tmp_path / "c"))
    cold = ReplayBackend.for_app("fft", "unoptimized", cache=cache)
    assert cold.convergence_check().converged
    monkeypatch.setattr("repro.replay.backend.PROBE_REL_TOL", -1.0)
    warm = ReplayBackend.for_app("fft", "unoptimized", cache=cache)
    report = warm.convergence_check()
    assert warm.adaptive_from_cache
    assert report.all_converged and not report.converged
    assert "adaptive-diverged" in report.summary()


def test_digest_is_a_pure_function_of_what_the_dag_prices_by():
    dag = record_app("asp", "optimized").dag
    digest = dag.digest()
    assert record_app("asp", "optimized").dag.digest() == digest
    assert record_app("asp", "unoptimized").dag.digest() != digest
    src, dst, _tag = dag.channels[0]
    dag.channels[0] = (src, dst, object())         # tags: debugging only
    assert dag.digest() == digest
    ops = dag.procs[0].ops
    i = next(i for i, op in enumerate(ops) if op[0] == OP_COMPUTE)
    ops[i] = (OP_COMPUTE, ops[i][1] * 2)
    assert dag.digest() != digest


# ----------------------------------------------------------------------
# Corrupt program entries: counted, recompiled, stored over
# ----------------------------------------------------------------------
def _drop(name):
    def damage(record):
        del record[name]
    return damage


def _set(name, value):
    def damage(record):
        record[name] = value
    return damage


def _grow_num_nodes(record):
    record["meta"]["num_nodes"] += 1


def _truncate_evidence(record):
    record["meta"]["evidence"]["program"].pop()


def _evidence_flags_as_ints(record):
    evidence = record["meta"]["evidence"]
    evidence["converged"] = [int(flag) for flag in evidence["converged"]]


CORRUPT = {
    "missing-field": (False, _drop("pred_b")),
    "mistyped-field": (False, _set("pred_a", "garbage")),
    "mistyped-dtype": (False, lambda r: r["edge_a"].update(dtype="int64")),
    "not-an-object": (False, None),
    "lengths-disagree-with-num-nodes": (False, _grow_num_nodes),
    "malformed-evidence": (False, _truncate_evidence),
    "adaptive-missing-field": (True, _drop("op_cost")),
    "adaptive-malformed-evidence": (True, _evidence_flags_as_ints),
}


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_program_entry_is_counted_and_recompiled(case, tmp_path):
    adaptive, damage = CORRUPT[case]
    app, variant = ("fft", "unoptimized") if adaptive else \
        ("barnes", "optimized")
    cache = SimCache(str(tmp_path / "c"))
    clean = walk(cache, app, variant)
    facts = clean.decision.facts
    key = facts.adaptive.key if adaptive else facts.program.key
    entry = cache.lookup(key)
    if damage is None:
        entry["program"] = ["not", "a", "program"]
    else:
        damage(entry["program"])
    cache.store(key, entry)

    cache = SimCache(cache.root)
    grid = walk(cache, app, variant)               # no KeyError
    assert cache.corrupt == 1
    assert repr(grid.points) == repr(clean.points)
    cls = AdaptiveProgram if adaptive else ReplayProgram
    healed = cls.from_record(cache.lookup(key)["program"])
    assert healed.meta["evidence"]["dag"] == \
        record_app(app, variant).dag.digest()
