"""Parallel FFT: distributed six-step transpose algorithm.

The communication pattern is three all-to-all matrix transposes with
little computation in between — the paper's negative control: "The
communication pattern is too synchronous and fine grained; no
multi-cluster optimization was found."  Accordingly, the same driver is
registered for both the "unoptimized" and "optimized" variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from ...costmodel import calibration as cal
from ...runtime.context import Context
from ..base import register_app
from ..blockdist import partition
from . import kernel


@dataclass
class FftConfig:
    """Problem size and cost parameters."""

    points: int = 1 << 20
    real_data: bool = False
    sec_per_point_stage: float = cal.FFT_SEC_PER_BUTTERFLY
    element_bytes: int = cal.FFT_ELEMENT_BYTES


def _transpose(ctx: Context, cfg: FftConfig, step: int, block,
               rm: int, cm: int) -> Generator:
    """Distributed transpose of an rm x cm row-distributed matrix.

    Returns this rank's row block of the cm x rm transposed matrix.
    Every rank exchanges an (rm/p) x (cm/p) sub-block with every other
    rank — the all-to-all of Table 2.
    """
    p = ctx.num_ranks
    rank = ctx.rank
    my_rows = partition(rm, p, rank)
    new_rows = partition(cm, p, rank)
    tag = ("fft-t", step)

    out = None
    if cfg.real_data:
        out = np.empty((len(new_rows), rm), dtype=complex)

    for s in range(p):
        dst_cols = partition(cm, p, s)
        if s == rank:
            if cfg.real_data:
                out[:, my_rows.start:my_rows.stop] = \
                    block[:, dst_cols.start:dst_cols.stop].T
            continue
        nbytes = len(my_rows) * len(dst_cols) * cfg.element_bytes
        payload = None
        if cfg.real_data:
            payload = block[:, dst_cols.start:dst_cols.stop].copy()
        yield ctx.send(s, nbytes, tag, payload)

    for _ in range(p - 1):
        msg = yield ctx.recv(tag)
        if cfg.real_data:
            src_cols = partition(rm, p, msg.src)
            out[:, src_cols.start:src_cols.stop] = msg.payload.T
    return out


def make_driver(cfg: FftConfig) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        p = ctx.num_ranks
        rank = ctx.rank
        n = cfg.points
        r, c = kernel.split_dims(n)
        if cfg.real_data and (r % p or c % p):
            raise ValueError(f"real-data FFT needs p | {r} and p | {c}")

        block = None
        if cfg.real_data:
            x = kernel.random_signal(n, ctx.machine.seed)
            rows = partition(r, p, rank)
            block = x.reshape(r, c)[rows.start:rows.stop].copy()

        # Transpose 1: R x C -> C x R (rows now indexed by i2).
        block = yield from _transpose(ctx, cfg, 0, block, r, c)
        rows_t1 = partition(c, p, rank)
        yield ctx.compute(kernel.point_stages(len(rows_t1), r)
                          * cfg.sec_per_point_stage)
        if cfg.real_data:
            block = np.fft.fft(block, axis=1)
            block *= kernel.twiddle_block(
                np.arange(rows_t1.start, rows_t1.stop), np.arange(r), n)

        # Transpose 2: C x R -> R x C (rows indexed by k1).
        block = yield from _transpose(ctx, cfg, 1, block, c, r)
        rows_t2 = partition(r, p, rank)
        yield ctx.compute(kernel.point_stages(len(rows_t2), c)
                          * cfg.sec_per_point_stage)
        if cfg.real_data:
            block = np.fft.fft(block, axis=1)

        # Transpose 3: R x C -> C x R (natural output order).
        block = yield from _transpose(ctx, cfg, 2, block, r, c)
        return block

    return main


def _default_config(scale: str) -> FftConfig:
    from ...costmodel import get_scale

    ws = get_scale(scale)
    return FftConfig(points=ws.fft_points)


register_app("fft", "unoptimized", make_driver, _default_config)
register_app("fft", "optimized", make_driver)
