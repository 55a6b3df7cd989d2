"""The shared per-point cache key: stable, order-insensitive, portable."""

import subprocess
import sys

from repro.experiments import grids
from repro.experiments.cache import SimCache
from repro.experiments.runner import baseline_key, point_key

POINT = {
    "app": "water",
    "variant": "optimized",
    "scale": "bench",
    "seed": 0,
    "bandwidth_mbyte_s": 6.3,
    "latency_ms": 0.5,
}


def test_point_key_matches_sweeper_cache_key():
    topo = grids.multi_cluster(6.3, 0.5)
    assert point_key(**POINT) == SimCache.key(
        "water", "optimized", "bench", 0, topo)


def test_point_key_insensitive_to_dict_ordering():
    reordered = dict(reversed(list(POINT.items())))
    assert list(reordered) != list(POINT)
    assert point_key(**reordered) == point_key(**POINT)
    # A JSON round trip (the serve wire format) changes nothing either.
    import json
    assert point_key(**json.loads(json.dumps(POINT))) == point_key(**POINT)


def test_point_key_distinguishes_every_axis():
    base = point_key(**POINT)
    for field, value in [("app", "asp"), ("variant", "unoptimized"),
                         ("scale", "paper"), ("seed", 7),
                         ("bandwidth_mbyte_s", 0.3), ("latency_ms", 30.0)]:
        assert point_key(**{**POINT, field: value}) != base
    assert point_key(**POINT, clusters=2, cluster_size=2) != base
    assert point_key(**POINT, wan_shape="star") != base


def test_point_key_stable_across_processes():
    expected = point_key(**POINT)
    code = (
        "from repro.experiments.runner import point_key; "
        "print(point_key(app='water', variant='optimized', scale='bench', "
        "seed=0, latency_ms=0.5, bandwidth_mbyte_s=6.3))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == expected


def test_baseline_key_matches_sweeper_baseline():
    assert baseline_key("water", "optimized", "bench", 0) == SimCache.key(
        "water", "optimized", "bench", 0, grids.baseline())
    assert baseline_key("water", "optimized", "bench", 0, 8) != \
        baseline_key("water", "optimized", "bench", 0)


# ----------------------------------------------------------------------
# The memo must be invisible: same keys as deriving them from a Topology
# ----------------------------------------------------------------------
def test_memoised_keys_equal_derived_keys_over_the_paper_surface():
    import random

    rng = random.Random(1999)
    points = [(bw, lat) for lat in grids.LATENCIES_MS
              for bw in grids.BANDWIDTHS_MBYTE_S]
    points += [(rng.uniform(0.03, 6.3), rng.uniform(0.5, 300.0))
               for _ in range(64)]
    for _ in range(2):                 # second pass is served by the memo
        for shape in ("full", "star", "ring"):
            for app, variant in (("water", "optimized"),
                                 ("fft", "unoptimized")):
                for bw, lat in points:
                    assert point_key(app, variant, "bench", 0, bw, lat,
                                     grids.NUM_CLUSTERS, grids.CLUSTER_SIZE,
                                     shape) == SimCache.key(
                        app, variant, "bench", 0, grids.multi_cluster(
                            bw, lat, grids.NUM_CLUSTERS, grids.CLUSTER_SIZE,
                            shape))
    for ranks in (8, 16, 32):
        assert baseline_key("asp", "optimized", "paper", 3, ranks) == \
            SimCache.key("asp", "optimized", "paper", 3,
                         grids.baseline(ranks))


def test_key_memo_is_bounded_hit_on_repeat_and_type_exact():
    from repro.experiments.runner import KEY_MEMO_SIZE

    assert point_key.cache_info().maxsize == KEY_MEMO_SIZE
    assert baseline_key.cache_info().maxsize == KEY_MEMO_SIZE
    point_key(**POINT)
    hits = point_key.cache_info().hits
    point_key(**POINT)
    assert point_key.cache_info().hits == hits + 1
    # 1 == 1.0 == True, but the seed is formatted into the key: equal
    # arguments of different types must not share a memo slot.
    as_int = point_key(**{**POINT, "seed": 1})
    assert point_key(**{**POINT, "seed": True}) != as_int
    assert "-i1-" in as_int
