"""Message combining: batching many small messages into fewer large ones.

Both Awari variants and Barnes-Hut use per-destination combining (the
paper: "All efficient BSP implementations perform message combining");
the *optimized* multi-cluster variants add a second combining layer per
target cluster.  This module provides the per-destination buffer and the
batch wire format; the cluster-level relay protocol lives with the apps
that use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Tuple

from .context import Context

#: Framing cost per combined item (length/type header on the wire).
ITEM_HEADER_BYTES = 8


@dataclass
class Batch:
    """Payload of one combined message: the original items and their sizes."""

    items: List[Any] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    #: running ``sum(sizes)``, so the byte threshold costs one add per item
    #: and not a re-sum of the batch; bookkeeping, not part of the value
    payload_bytes: int = field(default=0, init=False, repr=False,
                               compare=False)

    def __post_init__(self) -> None:
        self.payload_bytes = sum(self.sizes)

    def add(self, item: Any, nbytes: int) -> None:
        self.items.append(item)
        self.sizes.append(nbytes)
        self.payload_bytes += nbytes

    @property
    def wire_size(self) -> int:
        return sum(self.sizes) + ITEM_HEADER_BYTES * len(self.items)

    def __len__(self) -> int:
        return len(self.items)


class CombiningBuffer:
    """Per-destination batching of small messages.

    ``add`` buffers an item for ``dst`` and transparently flushes when the
    batch reaches ``flush_count`` items or ``flush_bytes`` payload bytes.
    Call ``flush_all`` at phase boundaries.  ``add``, ``flush`` and
    ``flush_all`` are generators — drive them with ``yield from``.

    A loop that adds item after item should not pay for a generator per
    item when one add in ``flush_count`` sends anything: ``put`` is the
    plain call underneath ``add``, and says whether the batch is due::

        if buf.put(dst, item, nbytes):
            yield from buf.flush(dst)
    """

    def __init__(self, ctx: Context, tag: Any,
                 flush_count: int = 64, flush_bytes: int = 65536) -> None:
        if flush_count < 1:
            raise ValueError("flush_count must be >= 1")
        if flush_bytes < 1:
            raise ValueError("flush_bytes must be >= 1")
        self.ctx = ctx
        self.tag = tag
        self.flush_count = flush_count
        self.flush_bytes = flush_bytes
        self._pending: Dict[int, Batch] = {}
        self.batches_sent = 0
        self.items_sent = 0

    def put(self, dst: int, item: Any, nbytes: int) -> bool:
        """Buffer ``item`` for ``dst``; True when that batch has reached a
        threshold and the caller must ``yield from flush(dst)``."""
        batch = self._pending.get(dst)
        if batch is None:
            batch = self._pending[dst] = Batch()
        # Batch.add, spelled out: this runs once per combined item
        items = batch.items
        items.append(item)
        batch.sizes.append(nbytes)
        total = batch.payload_bytes = batch.payload_bytes + nbytes
        return len(items) >= self.flush_count or total >= self.flush_bytes

    def add(self, dst: int, item: Any, nbytes: int) -> Generator:
        """Buffer ``item`` for ``dst``; may emit a combined send."""
        if self.put(dst, item, nbytes):
            yield from self.flush(dst)

    def flush(self, dst: int) -> Generator:
        """Send the pending batch for ``dst``, if any."""
        batch = self._pending.pop(dst, None)
        if batch is None or not len(batch):
            return
        self.batches_sent += 1
        self.items_sent += len(batch)
        yield self.ctx.send(dst, batch.wire_size, self.tag, batch)

    def flush_all(self) -> Generator:
        """Send every pending batch (ascending destination for determinism)."""
        for dst in sorted(self._pending):
            yield from self.flush(dst)

    def pending_items(self) -> int:
        return sum(len(b) for b in self._pending.values())


def recv_batch(ctx: Context, tag: Any) -> Generator:
    """Receive one combined message; returns its list of items."""
    msg = yield ctx.recv(tag)
    batch: Batch = msg.payload
    return batch.items
