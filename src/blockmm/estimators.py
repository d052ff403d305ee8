"""Monte Carlo product estimators built from sampled, rescaled columns.

``sketch_columns`` is the single-block primitive: draw column indices i.i.d.
from a probability vector, scale each picked column/row pair by
1/sqrt(count * p), and return the thin factors.  The blocked estimator runs
it once per block under a ``SamplingPlan`` and sums the per-block products;
the whole-block baseline samples entire blocks instead of columns.

Randomness discipline: every estimator takes a ``numpy.random.Generator``
and spawns one child stream per block, so results are reproducible from a
single seed and invariant to the order blocks are processed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .matrix import BlockPartition, block_view
from .plan import (
    PROB_SUM_TOL,
    BlockProbabilities,
    SamplingPlan,
    _check_instance,
    _two_step_plan,
    block_norm_probabilities,
)


def _draw_indices(probs: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw of ``count`` i.i.d. indices; never returns an index
    with zero probability."""
    cum = np.cumsum(probs)
    support = np.flatnonzero(probs > 0)
    if support.size == 0:
        raise ValueError("probability vector has empty support")
    u = rng.random(count)
    idx = np.searchsorted(cum, u, side="right")
    # u may exceed cum[-1] by float rounding; clamp onto the support's end.
    return np.minimum(idx, support[-1])


class DrawRecord(NamedTuple):
    """Per-draw audit trail of one ``sketch_columns`` call."""

    columns: np.ndarray  # local column indices
    probs: np.ndarray
    scales: np.ndarray


def sketch_columns(
    Mb: np.ndarray,
    Nb: np.ndarray,
    count: int,
    probs: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, DrawRecord]:
    """Sample ``count`` rescaled column/row pairs from one block.

    Returns thin factors C (m x count) and D (count x p) whose product has
    expectation Mb @ Nb, plus the draw record.
    """
    if Mb.ndim != 2 or Nb.ndim != 2 or Mb.shape[1] != Nb.shape[0]:
        raise ValueError(f"factor shapes do not chain: {Mb.shape} x {Nb.shape}")
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (Mb.shape[1],):
        raise ValueError("need one probability per column")
    if (probs < 0).any() or abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError("probabilities must be >= 0 and sum to 1")
    idx = _draw_indices(probs, count, rng)
    scales = 1.0 / np.sqrt(count * probs[idx])
    C = Mb[:, idx] * scales
    D = Nb[idx, :] * scales[:, None]
    return C, D, DrawRecord(idx.astype(np.int64), probs[idx], scales)


@dataclass(frozen=True, eq=False)
class SketchPair:
    """Concatenated per-block factors; ``offsets[k]:offsets[k+1]`` slices
    block k's columns of C (rows of D)."""

    C: np.ndarray
    D: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class SampleLog:
    """Flat per-draw log across blocks (columns are global inner indices)."""

    block: np.ndarray
    draw: np.ndarray
    column: np.ndarray
    prob: np.ndarray
    scale: np.ndarray

    def __len__(self) -> int:
        return self.block.size


def _empty_log() -> SampleLog:
    z = np.empty(0, dtype=np.int64)
    f = np.empty(0, dtype=np.float64)
    return SampleLog(z, z.copy(), z.copy(), f, f.copy())


def _block_sketches(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    counts: np.ndarray,
    probs: BlockProbabilities,
    rng: np.random.Generator,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, DrawRecord]]:
    """``sketch_columns`` on every block with a positive count, each on its
    own child stream of ``rng``; yields (k, C_k, D_k, record)."""
    streams = rng.spawn(part.num_blocks)
    for k, count in enumerate(counts.tolist()):
        if count == 0:
            continue
        Ck, Dk, rec = sketch_columns(
            block_view(M, part, k),
            block_view(N, part, k, "rows"),
            count,
            probs[k],
            streams[k],
        )
        yield k, Ck, Dk, rec


def estimate_product(
    M: np.ndarray,
    N: np.ndarray,
    plan: SamplingPlan,
    rng: np.random.Generator,
) -> tuple[SketchPair, np.ndarray, SampleLog]:
    """Blocked importance-sampling estimate of M @ N under ``plan``.

    Runs ``sketch_columns`` per block on its own child stream and returns
    the stacked factors, their product (the estimate), and the joined log.
    Zero-budget blocks (flagged zero-score) are skipped; they contribute
    exactly zero to the true product as well.
    """
    part = plan.partition
    _check_instance(M, N, part)
    width = plan.total
    C = np.empty((M.shape[0], width))
    D = np.empty((width, N.shape[1]))
    col_off = np.concatenate(([0], np.cumsum(plan.budgets))).astype(np.int64)
    blocks, draws, cols, probs, scales = [], [], [], [], []
    for k, Ck, Dk, rec in _block_sketches(M, N, part, plan.budgets, plan.probs, rng):
        ck = int(plan.budgets[k])
        C[:, col_off[k] : col_off[k + 1]] = Ck
        D[col_off[k] : col_off[k + 1], :] = Dk
        blocks.append(np.full(ck, k, dtype=np.int64))
        draws.append(np.arange(ck, dtype=np.int64))
        cols.append(part.offsets[k] + rec.columns)
        probs.append(rec.probs)
        scales.append(rec.scales)
    if blocks:
        log = SampleLog(
            np.concatenate(blocks),
            np.concatenate(draws),
            np.concatenate(cols),
            np.concatenate(probs),
            np.concatenate(scales),
        )
    else:
        log = _empty_log()
    return SketchPair(C, D, col_off), C @ D, log


class TwoStepResult(NamedTuple):
    pair: SketchPair
    product: np.ndarray
    log: SampleLog
    plan: SamplingPlan


def estimate_product_two_step(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    c: int,
    c0: int,
    rng: np.random.Generator,
    pilot: str = "uniform",
) -> TwoStepResult:
    """Pilot-sample block sizes, then estimate with the resulting plan.

    ``pilot`` picks the pilot probabilities: "uniform" (tag ONU) or "norm"
    for the norm-product probabilities (tag ONMCNR).  The pilot and the
    main pass use independent child streams of ``rng``.
    """
    plan, main_rng = _two_step_plan(M, N, part, c, c0, pilot, rng)
    pair, product, log = estimate_product(M, N, plan, main_rng)
    return TwoStepResult(pair, product, log, plan)


class BlockDrawRecord(NamedTuple):
    """Audit trail of the whole-block baseline: one entry per drawn block."""

    blocks: np.ndarray
    probs: np.ndarray
    scales: np.ndarray


def estimate_product_block_sampling(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    draws: int,
    rng: np.random.Generator,
    probs: Optional[np.ndarray] = None,
) -> tuple[SketchPair, np.ndarray, BlockDrawRecord]:
    """Whole-block baseline (tag SSM): draw ``draws`` block indices i.i.d.
    with probability proportional to the blocks' norm product (or ``probs``)
    and stack the rescaled blocks themselves into the sketch."""
    _check_instance(M, N, part)
    if probs is None:
        q = block_norm_probabilities(M, N, part)
    else:
        q = np.asarray(probs, dtype=np.float64)
        if q.shape != (part.num_blocks,) or (q < 0).any() or abs(q.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError("block probabilities must be >= 0 and sum to 1")
    draws = int(draws)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    idx = _draw_indices(q, draws, rng)
    scales = 1.0 / np.sqrt(draws * q[idx])
    C_parts, D_parts = [], []
    for k, s in zip(idx, scales):
        C_parts.append(s * block_view(M, part, int(k)))
        D_parts.append(s * block_view(N, part, int(k), "rows"))
    C = np.hstack(C_parts)
    D = np.vstack(D_parts)
    widths = np.array([part.sizes[int(k)] for k in idx], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    record = BlockDrawRecord(idx.astype(np.int64), q[idx], scales)
    return SketchPair(C, D, offsets), C @ D, record
