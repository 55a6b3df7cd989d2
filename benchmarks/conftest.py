"""Shared fixtures for the benchmark harnesses.

Each benchmark regenerates (a reduced version of) one of the paper's
tables or figures and asserts its headline *shape* — who wins, by
roughly what factor, where the cliffs are.  Absolute times are simulated
and calibrated (see DESIGN.md).  Each measurement runs once (simulations
are deterministic) and nothing here times it: host performance is the
ledger's business (``python -m repro bench``).
"""

import time

#: rounds of a speed-ratio guard
ROUNDS = 5


def interleaved_min(**sides):
    """Minimum wall time of each named callable over ``ROUNDS`` rounds of
    A, B, ... A, B, ... in this process.

    What a speed-ratio guard divides: the host's speed swings by ±25 %
    for minutes at a time, so sides timed one after the other are timed
    on different machines; interleaved, each round puts them on the same
    one, and the minimum is the one statistic that holds still from run
    to run (docs/performance.md, "Method")."""
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(ROUNDS):
        for name, fn in sides.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best
