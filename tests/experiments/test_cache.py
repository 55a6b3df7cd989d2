"""Tests for the persistent on-disk simulation result cache."""

import json
import os

import pytest

from repro.experiments import grids
from repro.experiments.cache import SimCache, main as cache_main, runtime_entry
from repro.experiments.runner import point_key


@pytest.fixture
def cache(tmp_path):
    return SimCache(str(tmp_path / "cache"))


def test_miss_then_hit(cache):
    topo = grids.multi_cluster(0.95, 3.3)
    assert cache.get("asp", "optimized", "bench", 0, topo) is None
    assert cache.misses == 1
    cache.put("asp", "optimized", "bench", 0, topo, 1.25)
    assert cache.get("asp", "optimized", "bench", 0, topo) == 1.25
    assert cache.hits == 1
    assert len(cache) == 1


def test_key_distinguishes_every_parameter(cache):
    t1 = grids.multi_cluster(0.95, 3.3)
    t2 = grids.multi_cluster(0.95, 30.0)
    base = cache.key("asp", "optimized", "bench", 0, t1)
    assert cache.key("asp", "optimized", "bench", 0, t2) != base
    assert cache.key("asp", "unoptimized", "bench", 0, t1) != base
    assert cache.key("water", "optimized", "bench", 0, t1) != base
    assert cache.key("asp", "optimized", "paper", 0, t1) != base
    assert cache.key("asp", "optimized", "bench", 7, t1) != base


def test_entry_under_the_old_seed_spelling_is_not_served(cache):
    """Keys once spelled the seed ``-s{seed}``, when every seed ran the
    seed-0 instance: such an entry for seed 7 holds the wrong instance."""
    topo = grids.multi_cluster(0.95, 10.0)
    stale = f"tsp-optimized-bench-r32-s7-{topo.fingerprint()}"
    cache.store(stale, runtime_entry("tsp", "optimized", "bench", 7, topo,
                                     {"runtime": 0.3639}))
    assert point_key("tsp", "optimized", "bench", 7, 0.95, 10.0) != stale
    assert cache.get("tsp", "optimized", "bench", 7, topo) is None
    assert cache.result(stale) is not None


def test_entries_and_clear(cache):
    topo = grids.multi_cluster(0.95, 3.3)
    cache.put("asp", "optimized", "bench", 0, topo, 1.0)
    cache.put("water", "optimized", "bench", 0, topo, 2.0)
    entries = cache.entries()
    assert {e["app"] for e in entries} == {"asp", "water"}
    assert all("fingerprint" in e for e in entries)
    assert cache.clear() == 2
    assert len(cache) == 0


def test_corrupt_entry_is_a_miss(cache):
    topo = grids.multi_cluster(0.95, 3.3)
    cache.put("asp", "optimized", "bench", 0, topo, 1.0)
    path = cache._path(cache.key("asp", "optimized", "bench", 0, topo))
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cache.get("asp", "optimized", "bench", 0, topo) is None


@pytest.mark.parametrize("runtime", [None, "1.0", True, 0.0, -2.5,
                                     float("nan"), float("inf"), [1.0]])
def test_wrong_shape_entry_is_corrupt_not_a_hit(cache, runtime):
    """An entry that parses but holds no usable runtime is neither
    served nor a plain miss: it is counted, and a re-put heals it."""
    topo = grids.multi_cluster(0.95, 3.3)
    key = cache.key("asp", "optimized", "bench", 0, topo)
    cache.store(key, {"app": "asp", "variant": "optimized", "runtime": runtime})
    assert cache.get("asp", "optimized", "bench", 0, topo) is None
    assert cache.result(key) is None
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 0, 2)
    cache.put("asp", "optimized", "bench", 0, topo, 1.5)
    assert cache.get("asp", "optimized", "bench", 0, topo) == 1.5


def test_result_is_the_entry_minus_its_attribution(cache):
    from repro.experiments.cache import ATTRIBUTION, runtime_entry
    topo = grids.multi_cluster(0.95, 3.3)
    result = {"runtime": 2, "engine_events": 7}
    entry = runtime_entry("asp", "optimized", "bench", 0, topo, result,
                          kind="profile")
    assert set(entry) == set(ATTRIBUTION) | set(result)
    cache.store("point", entry)
    assert cache.result("point") == result
    # a chaos run's recorded failure is a result too; elsewhere it is not
    failure = {"ok": False, "error": "TransportError", "detail": "..."}
    cache.store("chaos", runtime_entry("asp", "optimized", "bench", 0, topo,
                                       failure, kind="chaos"))
    cache.store("clean", runtime_entry("asp", "optimized", "bench", 0, topo,
                                       failure))
    assert cache.result("chaos") == failure
    assert cache.result("clean") is None and cache.corrupt == 1


def test_put_is_atomic(cache):
    topo = grids.multi_cluster(0.95, 3.3)
    cache.put("asp", "optimized", "bench", 0, topo, 1.0)
    leftovers = [n for n in os.listdir(cache.root) if ".tmp" in n]
    assert leftovers == []
    path = cache._path(cache.key("asp", "optimized", "bench", 0, topo))
    with open(path) as fh:
        assert json.load(fh)["runtime"] == 1.0


def test_cli_ls_and_clear(cache, capsys):
    cache_main(["ls", "--root", cache.root])
    assert "empty" in capsys.readouterr().out
    cache.put("asp", "optimized", "bench", 0, grids.multi_cluster(0.95, 3.3),
              1.5)
    cache_main(["ls", "--root", cache.root])
    out = capsys.readouterr().out
    assert "asp/optimized" in out and "1 point" in out
    cache_main(["clear", "--root", cache.root])
    assert "removed 1" in capsys.readouterr().out
    assert len(cache) == 0


def test_stats_counts_entries_bytes_and_hit_rate(cache):
    topo = grids.multi_cluster(0.95, 3.3)
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["bytes"] == 0
    assert stats["hit_rate"] == 0.0
    cache.put("asp", "optimized", "bench", 0, topo, 1.0)
    cache.put("water", "optimized", "bench", 0, topo, 2.0)
    assert cache.get("asp", "optimized", "bench", 0, topo) == 1.0
    assert cache.get("asp", "optimized", "bench", 7, topo) is None
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["root"] == cache.root


def test_generic_lookup_and_store(cache):
    assert cache.lookup("serve-abc123") is None
    assert cache.misses == 1
    cache.store("serve-abc123", {"kind": "chaos", "ok": True, "runtime": 3.5})
    entry = cache.lookup("serve-abc123")
    assert entry == {"kind": "chaos", "ok": True, "runtime": 3.5}
    assert cache.hits == 1
    # Typed get() goes through the same path and tolerates foreign records.
    assert len(cache) == 1


def test_cli_reports_stats_and_cleared_bytes(cache, capsys):
    topo = grids.multi_cluster(0.95, 3.3)
    cache.put("asp", "optimized", "bench", 0, topo, 1.0)
    cache.store("serve-xyz", {"kind": "profile", "runtime": None})
    cache_main(["ls", "--root", cache.root])
    out = capsys.readouterr().out
    assert "2 cached simulation(s)" in out
    assert "B in" in out  # byte footprint shown
    assert "[profile]" in out  # foreign records render without crashing
    cache_main(["clear", "--root", cache.root])
    out = capsys.readouterr().out
    assert "removed 2" in out
    assert "B)" in out  # bytes freed reported
    assert len(cache) == 0


def program_entry(kind, nodes, levels):
    """A compiled-program entry shaped like the replay backend's."""
    return {"kind": kind, "app": "fft", "variant": "unoptimized",
            "scale": "bench", "seed": 0, "ranks": 32,
            "fingerprint": f"{kind}-fingerprint",
            "stats": {"nodes": nodes, "levels": levels},
            "program": {"format": 1}}


def test_cli_ls_renders_both_program_kinds(cache, capsys):
    cache.store("frozen", program_entry("replay", 69971, 9350))
    cache.store("adaptive", program_entry("replay-adaptive", 15169, 101))
    cache_main(["ls", "--root", cache.root])
    out = capsys.readouterr().out
    assert "ref fp=replay-finge -> program 69971 nodes / 9350 levels " \
        "[replay]" in out
    assert "ref fp=replay-adapt -> program 15169 nodes / 101 levels " \
        "[replay-adaptive]" in out
    assert "no usable runtime" not in out


def test_cli_clear_drops_one_program_kind(cache, capsys):
    cache.put("fft", "unoptimized", "bench", 0,
              grids.multi_cluster(0.95, 3.3), 1.5)
    cache.store("frozen", program_entry("replay", 69971, 9350))
    cache.store("adaptive", program_entry("replay-adaptive", 15169, 101))
    cache_main(["clear", "--root", cache.root, "--kind", "replay-adaptive"])
    assert "removed 1 replay-adaptive entr(ies)" in capsys.readouterr().out
    assert sorted(SimCache.entry_kind(e) for e in cache.entries()) == \
        ["replay", "runtime"]


# ----------------------------------------------------------------------
# Read-through coherence: the in-process map never outlives the file
# ----------------------------------------------------------------------
RECORD = {"app": "asp", "variant": "optimized", "scale": "bench", "seed": 0,
          "runtime": 1.25, "buckets": {"wan": [1, 2, 3]}}


def memoised(cache, key="point", record=RECORD):
    """Store + one lookup: ``key`` is now served from the map."""
    cache.store(key, record)
    assert cache.lookup(key) == record
    assert key in cache._memo
    return key


def test_unlinked_entry_is_a_miss_after_a_memoised_hit(cache):
    key = memoised(cache)
    os.unlink(cache._path(key))         # what _Serve.drop and `rm` do
    assert cache.lookup(key) is None
    assert (cache.hits, cache.misses) == (1, 1)
    assert key not in cache._memo


def test_entry_replaced_by_another_process_is_reloaded(cache):
    key = memoised(cache)
    other = SimCache(cache.root)        # stands in for another process
    # Same byte length as RECORD: only the file's identity tells them apart.
    changed = dict(RECORD, runtime=7.75)
    other.store(key, changed)
    assert cache.lookup(key) == changed
    assert cache.lookup(key) == changed      # and the new text is memoised
    assert cache.hits == 3 and cache.misses == 0


def test_entry_corrupted_in_place_is_counted_not_served(cache):
    key = memoised(cache)
    with open(cache._path(key), "w") as fh:
        fh.write("{not json")
    assert cache.lookup(key) is None
    assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 1)
    assert cache.lookup(key) is None         # not remembered as corrupt
    stats = cache.stats()
    assert stats["corrupt"] == 2 and stats["misses"] == 0
    assert stats["hit_rate"] == 1 / 3
    cache.store(key, RECORD)                 # rewriting it heals it
    assert cache.lookup(key) == RECORD


@pytest.mark.parametrize("kind", [None, "runtime", "chaos"])
def test_clear_leaves_no_stale_hit(cache, kind):
    plain = memoised(cache, "plain")
    chaos = memoised(cache, "chaos", dict(RECORD, kind="chaos"))
    cache.clear(kind=kind)
    gone = {None: {plain, chaos}, "runtime": {plain}, "chaos": {chaos}}[kind]
    for key in (plain, chaos):
        assert (cache.lookup(key) is None) == (key in gone)


def test_clear_by_another_process_leaves_no_stale_hit(cache):
    keys = [memoised(cache, f"p{i}") for i in range(5)]
    assert SimCache(cache.root).clear() == 5
    assert [cache.lookup(key) for key in keys] == [None] * 5
    assert cache.misses == 5


def test_returned_entry_is_the_callers_to_mutate(cache):
    key = memoised(cache)
    entry = cache.lookup(key)
    entry["runtime"] = -1.0
    entry["buckets"]["wan"].append(4)
    del entry["app"]
    assert cache.lookup(key) == RECORD


def test_large_entries_are_not_retained(cache):
    from repro.experiments.cache import MEMO_MAX_BYTES
    program = {"kind": "replay", "program": list(range(MEMO_MAX_BYTES))}
    cache.store("program", program)
    small = memoised(cache)
    for _ in range(2):
        assert cache.lookup("program") == program
    assert set(cache._memo) == {small}
    # a small entry that grows past the threshold leaves the map too
    cache.store(small, program)
    assert cache.lookup(small) == program
    assert not cache._memo


def test_map_stays_bounded_and_evicts_oldest(cache, monkeypatch):
    from repro.experiments import cache as cache_module
    monkeypatch.setattr(cache_module, "MEMO_MAX_ENTRIES", 8)
    keys = [f"k{i:03d}" for i in range(80)]
    for i, key in enumerate(keys):
        memoised(cache, key, {"runtime": float(i)})
        assert len(cache._memo) <= 8
    assert list(cache._memo) == keys[-8:]
    assert cache.lookup(keys[-8]) == {"runtime": 72.0}   # a hit renews
    memoised(cache, "one-more", {"runtime": 0.0})
    assert keys[-8] in cache._memo and keys[-7] not in cache._memo
    # evicted entries are still on disk: a reload, not a miss
    assert cache.lookup(keys[0]) == {"runtime": 0.0}
    assert cache.misses == 0


def test_cli_ls_names_unparseable_entries(cache, capsys):
    memoised(cache)
    with open(cache._path("broken"), "w") as fh:
        fh.write('{"runtime": 1.')
    cache_main(["ls", "--root", cache.root])
    out = capsys.readouterr().out
    assert "1 entry file(s)" in out and "do not parse" in out
    assert "1 point(s)" in out               # the good entry still lists
