"""JobSpec validation, content hashing, and cache-key identity."""

import json

import pytest

from repro import __version__ as ENGINE_VERSION
from repro.experiments import grids
from repro.experiments.runner import baseline_key, point_key
from repro.serve.jobs import (AdmissionError, InvalidJob, JobError, JobSpec,
                              UnknownJob, build_fault_plan)


def spec_of(**overrides):
    payload = {"app": "water", "bandwidths": [6.3, 0.95],
               "latencies": [0.5, 5.0]}
    payload.update(overrides)
    return JobSpec.from_json(payload)


# ----------------------------------------------------------------------
# Validation matrix
# ----------------------------------------------------------------------
def test_defaults_fill_in():
    spec = JobSpec.from_json({"app": "water"})
    assert spec.kind == "sweep"
    assert spec.variant == "optimized"
    assert spec.scale == "bench"
    assert spec.seed == 0
    assert spec.bandwidths == tuple(grids.BANDWIDTHS_MBYTE_S)
    assert spec.latencies == tuple(grids.LATENCIES_MS)
    assert spec.clusters == grids.NUM_CLUSTERS
    assert spec.cluster_size == grids.CLUSTER_SIZE


def test_fft_defaults_to_unoptimized():
    assert JobSpec.from_json({"app": "fft"}).variant == "unoptimized"


def test_fft_optimized_is_the_same_job_as_fft_unoptimized():
    # apps/fft registers one driver under both names: one run, one key
    asked = JobSpec.from_json({"app": "fft", "variant": "optimized"})
    canonical = JobSpec.from_json({"app": "fft", "variant": "unoptimized"})
    assert asked == canonical
    assert asked.content_hash() == canonical.content_hash()
    assert asked.cache_key(6.3, 0.5) == canonical.cache_key(6.3, 0.5)
    assert asked.cache_key(None, None) == canonical.cache_key(None, None)
    assert asked.point_payload(6.3, 0.5)["variant"] == "unoptimized"
    # ... and only fft: every other app keeps the variant it names
    assert spec_of(variant="unoptimized") != spec_of(variant="optimized")


@pytest.mark.parametrize("payload,fragment", [
    ("not an object", "JSON object"),
    ({"app": "nope"}, "nope"),
    ({"app": "water", "bogus": 1}, "unknown field"),
    ({"app": "water", "kind": "dance"}, "unknown kind"),
    ({"app": "water", "scale": "huge"}, "scale"),
    ({"app": "water", "seed": -1}, "seed"),
    ({"app": "water", "bandwidths": []}, "non-empty"),
    ({"app": "water", "bandwidths": [0.0]}, "positive"),
    ({"app": "water", "bandwidths": [6.3, 6.3]}, "duplicate"),
    ({"app": "water", "latencies": ["high"]}, "positive"),
    ({"app": "water", "clusters": 1}, "clusters must be >= 2"),
    ({"app": "water", "cluster_size": 0}, "positive int"),
    ({"app": "water", "wan_shape": "mesh"}, "wan_shape"),
    ({"app": "water", "max_events": 0}, "max_events"),
    ({"app": "water", "tags": {"a": 1}}, "tags"),
    ({"app": "water", "faults": "lossy"}, "faults must be an object"),
    ({"app": "water", "faults": {"drop": 1}}, "unknown faults"),
    ({"app": "water", "faults": {"loss": 2.0}}, "probability"),
    ({"app": "water", "faults": {"max_retries": -1}}, "max_retries"),
    ({"app": "water", "kind": "chaos"}, "faults object"),
    ({"app": "water", "kind": "whatif", "faults": {"loss": 0.1}},
     "whatif jobs cannot carry faults"),
    ({"app": "water", "kind": "whatif", "clusters": 2}, "4x8"),
    # json.loads admits these three; no run can price them
    ({"app": "water", "bandwidths": [float("nan")]}, "finite"),
    ({"app": "water", "bandwidths": [6.3, float("inf")]}, "finite"),
    ({"app": "water", "bandwidths": [float("-inf")]}, "finite"),
    ({"app": "water", "latencies": [float("nan")]}, "finite"),
    ({"app": "water", "latencies": [0.5, float("inf")]}, "finite"),
    ({"app": "water", "latencies": [float("-inf")]}, "finite"),
])
def test_invalid_submissions_raise_typed_errors(payload, fragment):
    with pytest.raises(InvalidJob) as err:
        JobSpec.from_json(payload)
    assert fragment in str(err.value)


@pytest.mark.parametrize("field,value,fragment", [
    ("seed", True, "seed"),
    ("clusters", True, "clusters"),
    ("cluster_size", True, "cluster_size"),
    ("max_events", True, "max_events"),
    ("bandwidths", [True], "bandwidths"),
    ("latencies", [0.5, False], "latencies"),
    ("faults", {"loss": True}, "faults.loss"),
    ("faults", {"max_retries": True}, "faults.max_retries"),
])
def test_json_booleans_are_not_numbers(field, value, fragment):
    """``isinstance(True, int)`` holds, so ``"seed": true`` used to be
    admitted — under its own cache key (``...-sTrue-...``) and content
    hash, for what ``run_app`` executes as seed 1."""
    with pytest.raises(InvalidJob) as err:
        JobSpec.from_json({"app": "water", field: value})
    assert fragment in str(err.value)


def test_error_types_carry_http_status_and_code():
    assert InvalidJob.status == 400
    assert AdmissionError.status == 429
    assert UnknownJob.status == 404
    doc = InvalidJob("bad").to_json()
    assert doc == {"error": {"code": "invalid-job", "message": "bad"}}
    assert issubclass(InvalidJob, JobError)


# ----------------------------------------------------------------------
# Canonical form + content hash
# ----------------------------------------------------------------------
def test_content_hash_is_field_order_insensitive():
    a = JobSpec.from_json({"app": "water", "seed": 3, "bandwidths": [6.3],
                           "latencies": [0.5]})
    b = JobSpec.from_json(json.loads(json.dumps(
        {"latencies": [0.5], "seed": 3, "bandwidths": [6.3],
         "app": "water"})))
    assert a == b
    assert a.content_hash() == b.content_hash()


def test_content_hash_covers_engine_version_and_axes():
    base = spec_of()
    assert base.canonical()["engine"] == ENGINE_VERSION
    assert spec_of(seed=1).content_hash() != base.content_hash()
    assert spec_of(kind="profile").content_hash() != base.content_hash()
    assert spec_of(bandwidths=[6.3]).content_hash() != base.content_hash()
    assert spec_of(faults={"loss": 0.1}).content_hash() != base.content_hash()


def test_canonical_faults_drop_defaults():
    spec = spec_of(faults={"loss": 0.1, "max_retries": 10})
    assert spec.faults_dict == {"loss": 0.1}
    # Explicit defaults hash like omitting the field entirely.
    assert spec.content_hash() == spec_of(faults={"loss": 0.1}).content_hash()
    plan = spec.fault_plan()
    assert plan is not None and plan.loss[0].probability == 0.1
    assert build_fault_plan(None) is None


# ----------------------------------------------------------------------
# Point ordering + cache keys
# ----------------------------------------------------------------------
def test_points_follow_sweeper_serial_order():
    spec = spec_of()
    assert spec.points() == [(6.3, 0.5), (0.95, 0.5), (6.3, 5.0),
                             (0.95, 5.0)]
    assert spec.total_points() == 5          # + baseline
    assert spec_of(kind="profile").total_points() == 4


def test_clean_sweep_points_share_the_sweeper_cache_keys():
    spec = spec_of()
    assert spec.cache_key(6.3, 0.5) == point_key(
        "water", "optimized", "bench", 0, 6.3, 0.5)
    assert spec.cache_key(None, None) == baseline_key(
        "water", "optimized", "bench", 0)


def test_noncollision_of_kinds_and_faults():
    clean = spec_of().cache_key(6.3, 0.5)
    chaos = spec_of(kind="chaos",
                    faults={"loss": 0.01}).cache_key(6.3, 0.5)
    lossy_sweep = spec_of(faults={"loss": 0.01}).cache_key(6.3, 0.5)
    profile = spec_of(kind="profile").cache_key(6.3, 0.5)
    whatif = spec_of(kind="whatif").cache_key(6.3, 0.5)
    keys = {clean, chaos, lossy_sweep, profile, whatif}
    assert len(keys) == 5                    # all distinct
    assert all(key.startswith(clean) for key in keys)


def test_whatif_baseline_is_the_plain_clean_key():
    spec = spec_of(kind="whatif")
    assert spec.cache_key(None, None) == spec_of().cache_key(None, None)


def test_point_payload_is_json_roundtrippable():
    spec = spec_of(kind="chaos", faults={"loss": 0.02}, max_events=1000)
    payload = spec.point_payload(6.3, 0.5)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["kind"] == "chaos"
    assert payload["faults"] == {"loss": 0.02}
    assert spec.point_payload(None, None)["kind"] == "baseline"
