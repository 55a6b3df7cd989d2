"""Discrete-event simulation engine.

The engine is a minimal, deterministic event scheduler.  Every pending
event is a ``(time, sequence, callback)`` entry; ties in time are broken
by the monotonically increasing sequence number, so two runs of the same
program produce identical event orders (see DESIGN.md section 6).

Internally the entries live in two structures, merged on pop by their
``(time, sequence)`` key — the observable order is exactly that of a
single binary heap, but the dominant scheduling pattern skips the heap:

- ``_ready`` — a FIFO of zero-delay events (:meth:`call_soon`, and
  :meth:`call_after` with ``delay == 0``).  Entries are appended with
  ``time == now``; since ``now`` and the sequence counter are both
  monotone the deque is already sorted, so push and pop are O(1).  This
  is the dominant pattern in process scheduling (start/resume/throw).
- ``_queue`` — the binary heap, used for every timed event, whether it
  was scheduled before :meth:`Engine.run` or from inside a callback.

The engine knows nothing about processes, networks or messages; those are
layered on top (``repro.sim.process``, ``repro.runtime``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Engine:
    """A deterministic discrete-event scheduler.

    Typical use::

        eng = Engine()
        eng.call_at(1.5, lambda: print("fired at", eng.now))
        eng.run()
    """

    __slots__ = ("now", "_queue", "_ready", "_seq",
                 "_events_processed", "_running", "_stopped")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._ready: deque = deque()
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at the current time, after already-pending
        events at this time (identical to ``call_after(0.0, fn)``)."""
        self._ready.append((self.now, next(self._seq), fn))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when!r}, which is before now={self.now!r}"
            )
        if when != when:  # NaN compares false against everything
            raise SimulationError("cannot schedule at NaN time")
        _heappush(self._queue, (when, next(self._seq), fn))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if delay == 0.0:
            self._ready.append((self.now, next(self._seq), fn))
            return
        when = self.now + delay
        if when != when:
            raise SimulationError("cannot schedule at NaN time")
        _heappush(self._queue, (when, next(self._seq), fn))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Make the current :meth:`run` return after the active callback.

        The pending queue is left intact; a later ``run`` resumes where
        this one stopped.  (:class:`~repro.runtime.machine.Machine` uses
        this to end the simulation when the last main process finishes.)
        """
        self._stopped = True

    def _pop_next(self):
        """Pop the globally earliest entry, or None when idle."""
        ready = self._ready
        queue = self._queue
        if ready:
            if queue and queue[0] < ready[0]:
                return _heappop(queue)
            return ready.popleft()
        if queue:
            return _heappop(queue)
        return None

    def step(self) -> bool:
        """Run the single earliest pending event.  Returns False if idle."""
        entry = self._pop_next()
        if entry is None:
            return False
        self.now = entry[0]
        self._events_processed += 1
        entry[2]()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached,
        ``max_events`` have been processed in this call, or :meth:`stop`
        is called from a callback.

        ``until`` is inclusive: events scheduled exactly at ``until``
        run, and the clock is left at ``until`` even when the queue
        drains before reaching it.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        # Locals for the hot loop: these bindings are stable for the whole
        # run (callbacks mutate the structures in place, never rebind them).
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        pop = _heappop
        n = 0
        try:
            if until is None and max_events is None:
                while True:
                    if ready:
                        if queue and queue[0] < ready[0]:
                            entry = pop(queue)
                        else:
                            entry = popleft()
                    elif queue:
                        entry = pop(queue)
                    else:
                        break
                    self.now = entry[0]
                    n += 1
                    entry[2]()
                    if self._stopped:
                        break
            else:
                while not self._stopped:
                    if max_events is not None and n >= max_events:
                        break
                    from_heap = queue and (not ready or queue[0] < ready[0])
                    if from_heap:
                        when = queue[0][0]
                    elif ready:
                        when = ready[0][0]
                    else:
                        when = None
                    if when is None or (until is not None and when > until):
                        # Drained early, or the next event lies beyond the
                        # horizon: the horizon still passes, but the clock
                        # never moves backwards (``until`` may be < now).
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    entry = pop(queue) if from_heap else popleft()
                    self.now = entry[0]
                    n += 1
                    entry[2]()
        finally:
            self._events_processed += n
            self._running = False

    def seal(self) -> None:
        """Drop the pending callbacks, keeping each entry's time and
        sequence number, so :attr:`pending` and :meth:`peek` still read
        the stopped run while nothing it scheduled is held any more.
        The engine cannot run again."""
        self._queue = [entry[:2] + (None,) for entry in self._queue]
        self._ready = deque(entry[:2] + (None,) for entry in self._ready)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue) + len(self._ready)

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    def peek(self) -> float:
        """Time of the next pending event (``inf`` when idle)."""
        best = self._ready[0][0] if self._ready else math.inf
        if self._queue and self._queue[0][0] < best:
            best = self._queue[0][0]
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self.now:.6f}, pending={self.pending})"
