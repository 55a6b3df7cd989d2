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

The package re-exports nothing: import from its modules (``.compile``,
``.program``, ``.adaptive``, ``.backend``, ``.ladder``).
"""
