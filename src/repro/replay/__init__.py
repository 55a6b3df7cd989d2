"""Compiled vectorized replay: re-price a recorded DAG across a grid.

:mod:`repro.whatif` proved the record-once pattern: one instrumented run
captures an application's communication DAG, and an analytic evaluator
re-prices it per grid point ~10x faster than simulating.  This package
takes the next order of magnitude by *not stepping events at all*: the
DAG is compiled once into a flat array-of-structs **event program** —
numpy arrays of dependency indices and affine cost coefficients, no
generators, no per-event Python dispatch — and the whole
(latency x bandwidth x loss-rate) grid is re-priced in **one vectorized
pass** (grid dimensions broadcast over the program arrays, contention
resolved by a topologically-ordered sweep of the dependency arrays).

The pipeline::

    record_app(...)            # repro.whatif: one instrumented run
      -> compile_dag(dag)      # repro.replay.compile: max-plus program
      -> ReplayProgram.price_grid(bandwidths, latencies[, loss_rates])

Which applications may be priced this way, and where the rest land, is
the fallback ladder's decision (:mod:`repro.replay.ladder`; table in
``docs/replay.md``).  :class:`~repro.experiments.runner.Sweeper` enters
it at the top as ``backend="replay"``.

numpy is required only here: every pure-simulation path in the package
stays stdlib-only, and requesting the replay backend without numpy
raises a single clear :class:`ReplayUnavailable` error.
"""

from __future__ import annotations


class ReplayUnavailable(RuntimeError):
    """The replay backend was requested but numpy is not importable."""


def require_numpy():
    """Import and return numpy, or raise :class:`ReplayUnavailable`.

    Centralized so the error message is identical everywhere the backend
    can be reached (Sweeper, CLI, serve worker, cache loading).
    """
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise ReplayUnavailable(
            "the replay backend needs numpy (the vectorized grid sweep is "
            "built on it); install it with `pip install numpy` or use the "
            "stdlib-only paths: Sweeper(backend=\"predict\") / --backend "
            "predict, or full simulation") from exc
    return numpy


# Nothing else is re-exported here: compile/backend pull in the whatif
# stack and the numpy-backed app kernels, and a no-numpy environment
# must still be able to ``import repro.replay`` and reach the clear
# error above.  Import the rest from its module (``.compile``,
# ``.program``, ``.adaptive``, ``.backend``, ``.ladder``).
__all__ = ["ReplayUnavailable", "require_numpy"]
