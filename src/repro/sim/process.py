"""Generator-based simulated processes.

A process body is a Python generator that yields :class:`Syscall` objects
(see :mod:`repro.sim.primitives`).  The value the syscall produces is sent
back into the generator, so application code reads naturally::

    def body(ctx):
        yield ctx.compute(1e-3)
        msg = yield ctx.recv(tag="work")

Composite operations are ordinary sub-generators used with ``yield from``.

Scheduling note: a process is resumed through one reusable bound-method
trampoline (:attr:`Process.trampoline`).  ``resume``/``throw`` stash the
value (or exception) on the process and enqueue the trampoline on the
engine's zero-delay ready queue, so the per-switch cost is one deque
append — no closure is allocated.  Syscalls that resume at a later time
may schedule the same trampoline with ``engine.call_at(when, proc.trampoline)``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .engine import Engine

ProcessBody = Generator[Any, Any, Any]


class Syscall:
    """Base class for everything a process may yield.

    ``apply`` arranges for ``proc.resume(value)`` (or ``proc.throw(exc)``)
    to be called later; it must not resume the process synchronously.
    """

    __slots__ = ()

    def apply(self, proc: "Process") -> None:
        raise NotImplementedError


class Process:
    """Wraps a generator and steps it through the engine.

    The process is *not* started on construction; call :meth:`start` (the
    runtime does this for you).  When the generator returns, the process is
    finished and :attr:`result` holds its return value.
    """

    __slots__ = ("engine", "name", "daemon", "_body", "finished", "failed",
                 "result", "_done_callbacks", "_started", "_value", "_exc",
                 "trampoline")

    def __init__(self, engine: Engine, body: ProcessBody, name: str = "proc",
                 daemon: bool = False) -> None:
        self.engine = engine
        self.name = name
        self.daemon = daemon
        self._body = body
        self.finished = False
        self.failed: Optional[BaseException] = None
        self.result: Any = None
        self._done_callbacks: List[Callable[["Process"], None]] = []
        self._started = False
        #: value/exception handed to the generator at the next trampoline hop
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        #: the one bound method every resume of this process schedules
        self.trampoline = self._hop

    # ------------------------------------------------------------------
    def start(self) -> "Process":
        if self._started:
            raise RuntimeError(f"process {self.name} already started")
        self._started = True
        self.engine.call_soon(self.trampoline)
        return self

    def resume(self, value: Any = None) -> None:
        """Schedule the generator to continue with ``value`` at the current time."""
        self._value = value
        self.engine.call_soon(self.trampoline)

    def throw(self, exc: BaseException) -> None:
        """Schedule the generator to continue by raising ``exc`` inside it."""
        self._exc = exc
        self.engine.call_soon(self.trampoline)

    def on_done(self, cb: Callable[["Process"], None]) -> None:
        if self.finished:
            cb(self)
        else:
            self._done_callbacks.append(cb)

    # ------------------------------------------------------------------
    def _hop(self) -> None:
        """Engine callback: deliver the stashed value/exception to the body."""
        value = self._value
        exc = self._exc
        if value is not None:
            self._value = None
        if exc is not None:
            self._exc = None
        if self.finished:
            return
        try:
            if exc is not None:
                item = self._body.throw(exc)
            else:
                item = self._body.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - surface process crashes
            self.failed = err
            self._finish(result=None)
            raise
        if not isinstance(item, Syscall):
            bad = type(item).__name__
            self.failed = TypeError(
                f"process {self.name} yielded {bad}; processes must yield Syscall "
                f"objects (did you forget 'yield from' on a sub-operation?)"
            )
            self._finish(result=None)
            raise self.failed
        item.apply(self)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        callbacks, self._done_callbacks = self._done_callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else ("live" if self._started else "new")
        return f"Process({self.name}, {state})"
