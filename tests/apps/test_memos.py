"""The run-invariant app inputs are memoised pure functions of scalars.

A sweep runs one ``(app, config, seed)`` at every grid point, so the
synthetic update streams, job durations and ownership tables are computed
once per process (``repro.runtime.memo``).  These tests pin what makes
that safe: the key carries every field the value depends on, the value is
the un-memoised formula's, nobody can edit a shared result, memory is
bounded — and a process that has run other configurations first reports
exactly what a fresh process reports.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from repro.apps import default_config, run_app
from repro.apps.awari import parallel as awari
from repro.apps.tsp import parallel as tsp
from repro.apps.water import parallel as water
from repro.network import das_topology
from repro.runtime.memo import ItemMemo, item_memo
from repro.sim.rng import make_rng

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


# ----------------------------------------------------------------------
# The un-memoised formulas (what the apps computed per run before)
# ----------------------------------------------------------------------
def reference_updates(seed, stage, rank, p, count):
    rng = make_rng(seed, f"awari-dests-{stage}-{rank}")
    return [(rng.randrange(p), ("upd", stage, rank, i)) for i in range(count)]


def reference_durations(seed, mean_job_sec, job_sigma, count):
    mu = math.log(mean_job_sec) - job_sigma ** 2 / 2
    return [make_rng(seed, f"tsp-job-{job}").lognormvariate(mu, job_sigma)
            for job in range(count)]


def reference_need(rank, p):
    return [(rank + d) % p for d in range(1, p // 2 + 1)] if p > 1 else []


# ----------------------------------------------------------------------
# Same scalars -> the same object; any other key field -> the formula
# ----------------------------------------------------------------------
AWARI_BASE = dict(seed=0, stage=1, rank=3, p=32, count=40)
TSP_BASE = dict(seed=0, mean_job_sec=4.2e-3, job_sigma=0.9, count=25)


def test_same_scalars_give_the_identical_tuple():
    assert awari._synthetic_updates(*AWARI_BASE.values()) \
        is awari._synthetic_updates(*AWARI_BASE.values())
    assert tsp._job_durations(*TSP_BASE.values()) \
        is tsp._job_durations(*TSP_BASE.values())
    assert water._need(5, 32) is water._need(5, 32)
    assert water._providers(5, 32) is water._providers(5, 32)
    assert water._molecule_counts(1500, 32) is water._molecule_counts(1500, 32)
    assert water._dependents(8, 16, 3, 32) is water._dependents(8, 16, 3, 32)


@pytest.mark.parametrize("field,value", [
    ("seed", 7), ("stage", 0), ("rank", 4), ("p", 16), ("count", 41)])
def test_awari_stream_is_keyed_on_every_field(field, value):
    base = awari._synthetic_updates(*AWARI_BASE.values())
    args = dict(AWARI_BASE, **{field: value})
    other = awari._synthetic_updates(*args.values())
    assert other is not base
    assert other != base
    assert list(other) == reference_updates(*args.values())
    assert list(base) == reference_updates(*AWARI_BASE.values())


@pytest.mark.parametrize("field,value", [
    ("seed", 7), ("mean_job_sec", 5e-3), ("job_sigma", 0.5), ("count", 26)])
def test_tsp_durations_are_keyed_on_every_field(field, value):
    base = tsp._job_durations(*TSP_BASE.values())
    args = dict(TSP_BASE, **{field: value})
    other = tsp._job_durations(*args.values())
    assert other is not base
    assert other != base
    assert list(other) == reference_durations(*args.values())


def test_config_fields_reach_the_key():
    """A config edited between runs must not be served the old value —
    the memo never sees the config object, only its fields and the run
    seed."""
    cfg = tsp.TspConfig(num_jobs=10)
    before = list(tsp._synthetic_durations(cfg, 0))
    other_seed = list(tsp._synthetic_durations(cfg, 3))
    cfg.mean_job_sec *= 2
    after = list(tsp._synthetic_durations(cfg, 0))
    half = cfg.mean_job_sec / 2
    assert before == reference_durations(0, half, cfg.job_sigma, 10)
    assert other_seed == reference_durations(3, half, cfg.job_sigma, 10)
    assert after == reference_durations(0, cfg.mean_job_sec, cfg.job_sigma, 10)
    assert tsp._make_jobs(cfg) == list(range(10))


def test_equal_seeds_of_other_types_are_other_streams():
    # 1 == 1.0 == True and all three hash alike, but the seed is formatted
    # into the stream's name: "1:...", "1.0:..." and "True:..." differ.
    as_int = awari._synthetic_updates(1, 0, 0, 32, 30)
    as_float = awari._synthetic_updates(1.0, 0, 0, 32, 30)
    as_bool = awari._synthetic_updates(True, 0, 0, 32, 30)
    assert list(as_float) == reference_updates(1.0, 0, 0, 32, 30)
    assert list(as_bool) == reference_updates(True, 0, 0, 32, 30)
    assert len({as_int, as_float, as_bool}) == 3


@pytest.mark.parametrize("p", [1, 2, 7, 8, 32])
def test_water_ownership_matches_the_formulas(p):
    counts = water._molecule_counts(1500, p)
    assert sum(counts) == 1500
    assert list(counts) == [len(water.kernel.partition(1500, p, r))
                            for r in range(p)]
    for rank in range(p):
        assert list(water._need(rank, p)) == reference_need(rank, p)
        assert water.need_set(rank, p) == reference_need(rank, p)
        assert water.providers(rank, p) == [
            r for r in range(p) if rank in reference_need(r, p)]
    first, stop = 0, max(1, p // 2)
    for q in range(p):
        assert list(water._dependents(first, stop, q, p)) == [
            r for r in range(first, stop) if q in reference_need(r, p)]


def test_results_cannot_be_edited():
    for value in (awari._synthetic_updates(*AWARI_BASE.values()),
                  tsp._job_durations(*TSP_BASE.values()),
                  water._need(0, 8), water._providers(0, 8),
                  water._molecule_counts(100, 8), water._dependents(0, 4, 1, 8)):
        assert type(value) is tuple
        assert not hasattr(value, "append")
    # the public water helpers hand out a fresh list every time
    mine = water.need_set(0, 8)
    mine.append(99)
    assert water.need_set(0, 8) == reference_need(0, 8)
    assert awari._synthetic_updates(*AWARI_BASE.values())[0][1] \
        == ("upd", 1, 3, 0)


# ----------------------------------------------------------------------
# The bound
# ----------------------------------------------------------------------
def counting_memo(max_items):
    calls = []

    @item_memo(max_items)
    def spread(start, n):
        calls.append((start, n))
        return tuple(range(start, start + n))

    return spread, calls


def test_bound_counts_items_and_evicts_oldest_first():
    spread, calls = counting_memo(10)
    a, b = spread(0, 4), spread(10, 4)
    assert spread.retained_items == 8
    c = spread(20, 4)                       # 12 > 10: the oldest entry goes
    assert spread.retained_items == 8
    assert spread(10, 4) is b and spread(20, 4) is c
    assert calls == [(0, 4), (10, 4), (20, 4)]
    again = spread(0, 4)                    # regenerated; evicts (10, 4) now
    assert again == a and again is not a
    assert spread(20, 4) is c
    assert spread(10, 4) == b and spread(10, 4) is not b
    assert spread.retained_items <= spread.max_items


def test_over_bound_value_is_regenerated_not_retained():
    spread, calls = counting_memo(10)
    small = spread(0, 3)
    big = spread(100, 11)
    assert big == tuple(range(100, 111))
    assert spread.retained_items == 3       # nothing evicted to make room
    assert spread(0, 3) is small
    assert spread(100, 11) == big and spread(100, 11) is not big
    assert calls.count((100, 11)) == 3
    spread.clear()
    assert spread.retained_items == 0 and spread(0, 3) is not small


def test_memo_rejects_mutable_results_and_empty_bounds():
    with pytest.raises(TypeError, match="tuple"):
        ItemMemo(lambda n: list(range(n)), 10)(3)
    with pytest.raises(ValueError):
        ItemMemo(lambda n: (), 0)


def test_paper_scale_awari_stage_is_not_pinned():
    """One bench stage fits the bound; a stream larger than the bound is
    handed out and dropped, so memory stays capped at paper scale."""
    assert 2 * 12_000 * 2 <= awari.UPDATE_MEMO_ITEMS < 9 * 21_600 * 2
    awari._synthetic_updates.clear()
    count = awari.UPDATE_MEMO_ITEMS + 1
    huge = awari._synthetic_updates(0, 0, 0, 32, count)
    assert len(huge) == count
    assert awari._synthetic_updates.retained_items == 0
    awari._synthetic_updates(0, 0, 0, 32, 100)
    assert awari._synthetic_updates.retained_items == 100


# ----------------------------------------------------------------------
# A warm process reports what a fresh process reports
# ----------------------------------------------------------------------
#: (app, variant, seed, scale, cluster_size, bw, lat)
FIRST = [("awari", "optimized", 0, "bench", 8, 6.3, 0.5),
         ("awari", "optimized", 0, "bench", 8, 0.1, 300.0),
         ("tsp", "optimized", 0, "bench", 8, 6.3, 0.5),
         ("tsp", "optimized", 0, "bench", 8, 0.1, 300.0)]
THEN = [("awari", "optimized", 5, "paper", 4, 0.95, 3.3),
        ("tsp", "optimized", 5, "paper", 4, 0.95, 3.3)]


def shrunk(app, cfg):
    """Paper-scale structure (stage and job counts) at a size a test can
    run: the memo keys still differ from bench in every scale field."""
    if app == "awari":
        return dataclasses.replace(cfg, states_per_stage=2_400)
    return dataclasses.replace(cfg, num_jobs=640)


def observe(spec):
    app, variant, seed, scale, cluster_size, bw, lat = spec
    cfg = default_config(app, scale)
    if scale == "paper":
        cfg = shrunk(app, cfg)
    topo = das_topology(clusters=4, cluster_size=cluster_size,
                        wan_latency_ms=lat, wan_bandwidth_mbyte_s=bw)
    result = run_app(app, variant, topo, config=cfg, seed=seed)
    return {"runtime": repr(result.runtime),
            "events": result.machine.engine.events_processed,
            "summary": {k: repr(v) for k, v in result.stats.summary().items()}}


def observe_fresh(spec):
    code = ("import json, sys; sys.path.insert(0, {src!r}); "
            "sys.path.insert(0, {here!r}); "
            "from test_memos import observe; "
            "print(json.dumps(observe(tuple(json.loads(sys.argv[1])))))"
            ).format(src=os.path.abspath(SRC),
                     here=os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(spec)],
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_warm_process_matches_fresh_processes():
    warm = [observe(spec) for spec in FIRST + THEN + FIRST[:1]]
    for spec, seen in zip(FIRST + THEN, warm):
        assert seen == observe_fresh(spec), spec
    assert warm[-1] == warm[0]
