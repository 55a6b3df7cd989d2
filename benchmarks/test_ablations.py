"""Ablation benchmarks: each optimization's ingredients, isolated."""

import dataclasses

import pytest

from repro.apps import default_config, run_app
from repro.experiments import grids
from repro.experiments.ablations import (
    awari_combining,
    barnes_decompose,
    tsp_stealing,
    water_coordinator,
)


def as_floats(rows, col=-1):
    return [float(r[col].rstrip("%")) for r in rows]


def test_awari_combining_has_a_sweet_spot():
    """More combining masks per-message overhead — until batches are held
    so long that the stage pipeline starves (the paper's load-imbalance
    warning): the relay curve must turn over."""
    rows = awari_combining()
    per_dest = as_floats([r for r in rows if r[0] == "per-destination"])
    relay = as_floats([r for r in rows if r[0] == "relay (jumbo)"])
    # Per-destination combining: monotone improvement over this range.
    assert all(a <= b + 1.0 for a, b in zip(per_dest, per_dest[1:]))
    assert per_dest[-1] > 2 * per_dest[0]
    # Relay combining: rises, then falls once batches wait for stage end.
    peak = max(relay)
    assert peak > relay[0] * 1.5
    assert relay[-1] < peak - 5.0


def test_barnes_ingredients_fix_different_regimes():
    """Relaxed barriers rescue the latency-bound point; cluster combining
    rescues the bandwidth-bound point; together they fix both."""
    rows = barnes_decompose()
    table = {r[0]: (float(r[1].rstrip("%")), float(r[2].rstrip("%")))
             for r in rows}
    neither = table["neither (original)"]
    barriers = table["relaxed barriers only"]
    combining = table["cluster combining only"]
    both = table["both (optimized)"]
    # Barriers help at 100 ms, not at low bandwidth.
    assert barriers[0] > neither[0] + 15
    assert abs(barriers[1] - neither[1]) < 10
    # Combining helps at 0.95 MByte/s, not much at high latency.
    assert combining[1] > neither[1] + 15
    assert abs(combining[0] - neither[0]) < 10
    # Both together dominate every single-ingredient setting.
    assert both[0] >= max(neither[0], combining[0]) - 2
    assert both[1] >= max(neither[1], barriers[1]) - 2


def test_tsp_stealing_rescues_imbalanced_start():
    rows = tsp_stealing()
    table = {r[0]: float(r[1].rstrip("%")) for r in rows}
    assert table["imbalanced start, no stealing"] < 35.0
    assert table["imbalanced start, steal 1/2"] > 75.0
    assert table["imbalanced start, steal 1/4"] > 70.0


def test_water_coordinator_placement_not_critical():
    """An honest negative result: with messaging offloaded to the NIC,
    concentrating the coordinator role on the leader costs almost
    nothing at bandwidth-bound points."""
    rows = water_coordinator()
    values = as_floats(rows)
    assert abs(values[0] - values[1]) < 5.0
