"""Backend behavior: program caching, the probe, and cache kinds.

The compiled program is a first-class :class:`SimCache` citizen: stored
under a content-addressed key (recording identity + topology fingerprint
+ program format), attributed separately in ``stats()``, clearable on
its own, and reloaded bit-identically — the serve cold path depends on
every one of these.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import grids
from repro.experiments.cache import SimCache
from repro.replay.adaptive import ADAPTIVE_FORMAT
from repro.replay.backend import PROBE_REL_TOL, ReplayBackend
from repro.replay.program import PROGRAM_FORMAT
from repro.whatif.evaluate import Evaluator
from repro.whatif.record import REFERENCE_POINT, record_app


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("replay-cache"))


def test_prepare_compiles_then_loads_from_cache(cache_root):
    cache = SimCache(cache_root)
    first = ReplayBackend.for_app("asp", "optimized", cache=cache)
    program = first.prepare()
    assert not first.from_cache
    assert "compile_s" in first.timings

    second = ReplayBackend.for_app("asp", "optimized", cache=cache)
    reloaded = second.prepare()
    assert second.from_cache
    assert "load_s" in second.timings and "compile_s" not in second.timings
    assert np.array_equal(reloaded.fin_edge, program.fin_edge)
    assert reloaded.price_grid(grids.BANDWIDTHS_MBYTE_S,
                               grids.LATENCIES_MS).tolist() == \
        program.price_grid(grids.BANDWIDTHS_MBYTE_S,
                           grids.LATENCIES_MS).tolist()


def test_cache_key_pins_format_and_fingerprint(cache_root):
    backend = ReplayBackend.for_app("asp", "optimized")
    key = backend.cache_key()
    assert key.startswith("replay-asp-optimized-bench-")
    assert key.endswith(f"-f{PROGRAM_FORMAT}")
    assert backend.recording.topology.fingerprint() in key


def test_stale_cached_format_recompiles(cache_root):
    cache = SimCache(cache_root)
    backend = ReplayBackend.for_app("asp", "optimized", seed=3, cache=cache)
    key = backend.cache_key()
    backend.prepare()
    entry = cache.lookup(key)
    entry["program"]["format"] = PROGRAM_FORMAT + 1
    cache.store(key, entry)

    again = ReplayBackend.for_app("asp", "optimized", seed=3, cache=cache)
    again.prepare()
    assert not again.from_cache            # stale entry was not trusted
    assert "compile_s" in again.timings
    assert cache.lookup(key)["program"]["format"] == PROGRAM_FORMAT


def test_probe_verdicts_split_by_order_stability():
    stable = ReplayBackend.for_app("asp", "optimized")
    report = stable.probe()
    assert report.stable
    assert report.max_rel_error <= PROBE_REL_TOL
    assert "order-stable" in report.summary()

    unstable = ReplayBackend.for_app("fft", "unoptimized")
    report = unstable.probe()
    assert not report.stable
    assert "order-unstable" in report.summary()
    assert len(report.points) == 4


@pytest.mark.parametrize("shape", ["star", "ring"])
def test_probe_prices_the_recorded_wan_shape(shape):
    """The corners are the recorded topology with only the wide link
    replaced.  Priced on a full mesh instead (as the probe once did) a
    star/ring program is off by more than 100 % and reads unstable."""
    recording = record_app("asp", "optimized", topology=grids.multi_cluster(
        *REFERENCE_POINT, wan_shape=shape))
    report = ReplayBackend(recording).probe()
    assert report.stable
    assert report.max_rel_error < 1e-2


def test_probe_and_convergence_check_share_the_corner_prices(monkeypatch):
    calls = []
    evaluate = Evaluator.evaluate

    def counted(self, topology):
        calls.append(topology)
        return evaluate(self, topology)

    monkeypatch.setattr(Evaluator, "evaluate", counted)
    backend = ReplayBackend.for_app("fft", "unoptimized")
    probe = backend.probe()
    convergence = backend.convergence_check()
    assert len(calls) == 4               # not eight
    assert [p.evaluator_runtime for p in probe.points] == \
        [p.evaluator_runtime for p in convergence.points]


# ----------------------------------------------------------------------
# The vectorized-adaptive rung
# ----------------------------------------------------------------------
def test_adaptive_cache_key_extends_the_frozen_key():
    backend = ReplayBackend.for_app("fft", "unoptimized")
    assert backend.adaptive_cache_key() == \
        f"{backend.cache_key()}-a{ADAPTIVE_FORMAT}"


def test_prepare_adaptive_compiles_then_loads_from_cache(tmp_path):
    cache = SimCache(str(tmp_path / "c"))
    first = ReplayBackend.for_app("fft", "unoptimized", cache=cache)
    program = first.prepare_adaptive()
    assert not first.adaptive_from_cache
    assert "adaptive_compile_s" in first.timings
    assert program.num_group_ops > 0
    # the frozen program is untouched: separate slot, separate key
    assert first.program is None

    second = ReplayBackend.for_app("fft", "unoptimized", cache=cache)
    reloaded = second.prepare_adaptive()
    assert second.adaptive_from_cache
    assert "adaptive_load_s" in second.timings
    assert reloaded.stats() == program.stats()
    assert cache.lookup(second.adaptive_cache_key())["kind"] == \
        "replay-adaptive"


def test_convergence_check_converges_fft_at_the_corners():
    backend = ReplayBackend.for_app("fft", "unoptimized")
    report = backend.convergence_check()
    assert report.converged
    assert report.all_converged
    assert len(report.points) == 4
    assert report.max_rel_error <= PROBE_REL_TOL
    assert "adaptive-converged" in report.summary()
    # memoized: the second call is the same object
    assert backend.convergence_check() is report


def test_a_ladder_walk_imports_no_protocol_analyzer():
    """Validation against simulation is the ladder's only arbiter:
    nothing on the analytic path computes a static order-stability
    label, so a walk loads no ``repro.lint`` module."""
    code = ("import sys\n"
            "from repro.experiments.runner import Sweeper\n"
            "Sweeper(backend='replay').speedup_grid('asp', 'optimized')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'lint']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# SimCache kind accounting
# ----------------------------------------------------------------------
def test_cache_stats_attribute_kinds_separately(tmp_path):
    cache = SimCache(str(tmp_path / "c"))
    cache.put("asp", "optimized", "bench", 0, grids.baseline(), 1.0)
    backend = ReplayBackend.for_app("asp", "optimized", cache=cache)
    backend.prepare()

    kinds = cache.stats()["kinds"]
    assert kinds["runtime"]["entries"] == 1
    assert kinds["replay"]["entries"] == 1
    # a compiled program dwarfs a runtime memo
    assert kinds["replay"]["bytes"] > 100 * kinds["runtime"]["bytes"]


def test_cache_clear_by_kind(tmp_path):
    cache = SimCache(str(tmp_path / "c"))
    cache.put("asp", "optimized", "bench", 0, grids.baseline(), 1.0)
    backend = ReplayBackend.for_app("asp", "optimized", cache=cache)
    backend.prepare()
    assert len(cache) == 2

    assert cache.clear(kind="replay") == 1
    assert len(cache) == 1
    assert cache.get("asp", "optimized", "bench", 0, grids.baseline()) == 1.0
    # kind-filtered clear of an absent kind is a no-op
    assert cache.clear(kind="replay") == 0
    assert cache.clear() == 1
