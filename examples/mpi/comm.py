"""An MPI-flavoured facade over the runtime and the collective libraries.

For users porting message-passing code, :class:`Communicator` exposes the
familiar surface — ``rank``/``size``, point-to-point ``send``/``recv``
with tags and source matching, and the collective operations — while
running on the simulated two-layer machine.  The collective algorithms
are selected by name: ``"flat"`` (MPICH-like) or ``"magpie"``
(wide-area-optimized), so a whole program can be switched with one
argument, as Section 6 advertises.

All methods are generators: drive them with ``yield from``.  As in MPI,
all ranks must call collectives in the same order (operation ids are
derived from a per-communicator call counter).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.magpie.interface import get_impl
from repro.runtime.context import Context

ANY_SOURCE: Optional[int] = None


class Communicator:
    """MPI-style communicator bound to one rank's :class:`Context`."""

    def __init__(self, ctx: Context, collectives: str = "magpie",
                 name: str = "world") -> None:
        self.ctx = ctx
        self.name = name
        self._impl = get_impl(collectives)
        self._op_ids = itertools.count()
        self._stash: List[Any] = []  # out-of-order point-to-point messages

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.num_ranks

    def _tag(self, tag: int) -> Tuple[str, str, int]:
        return ("mpi", self.name, tag)

    def _next_op(self) -> Tuple[str, str, int]:
        return ("mpi-coll", self.name, next(self._op_ids))

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0,
             nbytes: int = 1024) -> Generator:
        """Asynchronous send (returns once the host overhead is paid)."""
        yield self.ctx.send(dest, nbytes, self._tag(tag), obj)

    def recv(self, source: Optional[int] = ANY_SOURCE, tag: int = 0) -> Generator:
        """Blocking receive; returns ``(obj, source)``.

        With a specific ``source``, messages from other senders under the
        same tag are stashed and handed to later receives (MPI matching).
        """
        for i, msg in enumerate(self._stash):
            if msg.tag == self._tag(tag) and (source is ANY_SOURCE
                                              or msg.src == source):
                self._stash.pop(i)
                return msg.payload, msg.src
        while True:
            msg = yield self.ctx.recv(self._tag(tag))
            if source is ANY_SOURCE or msg.src == source:
                return msg.payload, msg.src
            self._stash.append(msg)

    def sendrecv(self, obj: Any, dest: int, source: Optional[int] = ANY_SOURCE,
                 tag: int = 0, nbytes: int = 1024) -> Generator:
        yield from self.send(obj, dest, tag, nbytes)
        result = yield from self.recv(source, tag)
        return result

    # ------------------------------------------------------------------
    # Collectives (signatures loosely follow mpi4py's lowercase methods)
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        yield from self._impl.barrier(self.ctx, self._next_op())

    def bcast(self, obj: Any = None, root: int = 0, nbytes: int = 1024) -> Generator:
        result = yield from self._impl.bcast(self.ctx, self._next_op(), root,
                                             nbytes, obj)
        return result

    def gather(self, obj: Any, root: int = 0, nbytes: int = 1024) -> Generator:
        result = yield from self._impl.gather(self.ctx, self._next_op(), root,
                                              nbytes, obj)
        return result

    def scatter(self, objs: Optional[List[Any]] = None, root: int = 0,
                nbytes: int = 1024) -> Generator:
        result = yield from self._impl.scatter(self.ctx, self._next_op(), root,
                                               nbytes, objs)
        return result

    def allgather(self, obj: Any, nbytes: int = 1024) -> Generator:
        result = yield from self._impl.allgather(self.ctx, self._next_op(),
                                                 nbytes, obj)
        return result

    def alltoall(self, objs: List[Any], nbytes: int = 1024) -> Generator:
        result = yield from self._impl.alltoall(self.ctx, self._next_op(),
                                                nbytes, objs)
        return result

    def reduce(self, obj: Any, op, root: int = 0, nbytes: int = 64) -> Generator:
        result = yield from self._impl.reduce(self.ctx, self._next_op(), root,
                                              nbytes, obj, op)
        return result

    def allreduce(self, obj: Any, op, nbytes: int = 64) -> Generator:
        result = yield from self._impl.allreduce(self.ctx, self._next_op(),
                                                 nbytes, obj, op)
        return result

    def reduce_scatter(self, objs: List[Any], op, nbytes: int = 64) -> Generator:
        result = yield from self._impl.reduce_scatter(self.ctx, self._next_op(),
                                                      nbytes, objs, op)
        return result

    def scan(self, obj: Any, op, nbytes: int = 64) -> Generator:
        result = yield from self._impl.scan(self.ctx, self._next_op(),
                                            nbytes, obj, op)
        return result
