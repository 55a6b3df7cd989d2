"""Synchronization primitives for simulated processes.

``SimEvent`` is a one-shot event that processes can wait on; ``Mailbox`` is
a FIFO of items with blocking receive semantics.  Both are engine-agnostic
value holders — the actual blocking/resuming of processes is arranged by
the syscalls in :mod:`repro.sim.primitives`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional


class SimEvent:
    """A one-shot event carrying an optional value.

    Processes wait via the ``WaitEvent`` syscall; arbitrary callbacks can
    also be attached with :meth:`add_callback`.  Triggering is idempotent
    only in the sense that re-triggering raises — a one-shot event fires
    exactly once.
    """

    __slots__ = ("_value", "_triggered", "_callbacks")

    def __init__(self) -> None:
        self._value: Any = None
        self._triggered = False
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, waking all waiters with ``value``."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb(value)`` when the event fires (immediately if it has)."""
        if self._triggered:
            cb(self._value)
        else:
            self._callbacks.append(cb)


class Mailbox:
    """An unbounded FIFO with blocking receive.

    ``put`` either hands the item directly to the oldest waiting receiver
    or enqueues it.  ``add_receiver`` registers a plain callback for the
    next item (invoked immediately when one is queued) — the cheapest
    receive path, used once per message by the runtime.  ``get_event``
    wraps that in a :class:`SimEvent` for code that wants an event handle.

    Each of the two queues is made by the first call that has to queue
    something.  Most tags carry a single message (a broadcast row, an RPC
    reply), which is either parked or awaited, never both; a deque is a
    64-slot block, and a run keeps every mailbox it ever made.
    """

    __slots__ = ("_items", "_waiters")

    def __init__(self) -> None:
        self._items: Optional[Deque[Any]] = None
        self._waiters: Optional[Deque[Callable[[Any], None]]] = None

    def __len__(self) -> int:
        return len(self._items) if self._items else 0

    @property
    def waiting_receivers(self) -> int:
        return len(self._waiters) if self._waiters else 0

    def put(self, item: Any) -> None:
        if self._waiters:
            self._waiters.popleft()(item)
        elif self._items is None:
            self._items = deque((item,))
        else:
            self._items.append(item)

    def add_receiver(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb`` with the next item — now if one is queued, else when
        the next ``put`` arrives.  Each callback receives exactly one item
        (FIFO among waiting receivers)."""
        items = self._items
        if items:
            cb(items.popleft())
        elif self._waiters is None:
            self._waiters = deque((cb,))
        else:
            self._waiters.append(cb)

    def get_event(self) -> SimEvent:
        ev = SimEvent()
        self.add_receiver(ev.succeed)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking receive; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def drop_waiters(self) -> None:
        """Forget the receivers still parked here and a drained item
        queue (the run is over: nothing will ``put`` again).  Queued
        items stay, so ``len`` and :meth:`peek_all` still read them."""
        self._waiters = None
        if not self._items:
            self._items = None

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (receive order), without consuming."""
        return list(self._items or ())
