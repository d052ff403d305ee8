"""Monte Carlo product estimators built from sampled, rescaled columns.

Every sampler draws by one rule, inverse-CDF importance sampling: in each
block with a positive count, one ``random`` call and one binary search in
the block's slice of one table of running sums, built once per call.
The probabilities are a validated ``BlockProbabilities``, so a negative or
non-finite entry, or a block that sums to neither 1 nor 0, is rejected
before any draw.  The blocked estimator then gathers every drawn
column/row pair of its plan at once, scales each by 1/sqrt(count * p) in
place, and multiplies the two thin factors once; ``sketch_columns`` does
the same on one block, and the whole-block baseline draws blocks from the
K block probabilities, taken as one block, and gathers their columns at
once.  All three return the same per-draw ``SampleLog``.

The two-step plans (tags ONU / ONMCNR) live here too, next to the sampler
their pilot runs: ``allocate_two_step`` sizes the blocks from pilot-sampled
block product norms, each taken from the block's slice of one pilot sketch.

Randomness discipline: every estimator takes a ``numpy.random.Generator``;
the blocked ones spawn one child stream per block, so results are
reproducible from a single seed and invariant to the order blocks are
processed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matrix import BlockPartition, as_int, check_factors, frobenius_norm
from .plan import (
    BlockProbabilities,
    SamplingPlan,
    _allocate,
    _optimal_probabilities,
    _profile,
    block_norm_probabilities,
    uniform_probabilities,
)


def _block_cumsums(probs: BlockProbabilities) -> np.ndarray:
    """Every block's running probability sums, as one n-vector: one row-wise
    cumsum for an equal partition (it adds in sequence, the same bits as one
    cumsum per block), else one cumsum per block.  Built per call: kept on
    every probability vector, one more long-lived n-vector each, it raised
    the desk-heavy benchmark's peak RSS by 3-6% through heap fragmentation."""
    part = probs.partition
    K, b = part.num_blocks, part.sizes[0]
    if part.sizes == (b,) * K:
        return probs.values.reshape(K, b).cumsum(axis=1).ravel()
    return np.concatenate([np.cumsum(v) for v in probs.per_block])


def _draw(probs: BlockProbabilities, counts, streams) -> tuple[np.ndarray, np.ndarray]:
    """The one draw rule: ``counts[k]`` uniforms on ``streams[k]`` in every
    block k with a positive count, each looked up in the block's running
    sums; returns each draw's block and global index.  ``probs`` was
    validated when it was built, so nothing is checked here.  An index below
    a block's end always has positive probability: where p_i = 0, cum[i]
    equals cum[i - 1] and cannot be the first sum above u."""
    part = probs.partition
    cum, off = _block_cumsums(probs), part.offsets.tolist()
    blocks = zip(off, off[1:], counts, streams)
    local = [cum[a:b].searchsorted(rng.random(ck), side="right") for a, b, ck, rng in blocks if ck > 0]
    block = np.repeat(np.arange(part.num_blocks), counts)
    idx = np.concatenate([np.empty(0, np.int64), *local]) + part.offsets[block]
    # u may reach a block's last sum by float rounding, and the draw then
    # lands one past the block; clamp it onto the block's last positive column.
    for i in np.flatnonzero(idx == part.offsets[block + 1]).tolist():
        idx[i] = off[block[i]] + np.flatnonzero(probs[block[i]])[-1]
    return block, idx


def _one_block(probs, size: int) -> BlockProbabilities:
    """``probs`` validated as the probabilities of one block of ``size``
    items, which must not be all zero."""
    q = BlockProbabilities(probs, BlockPartition((size,)))
    if q._zero[0]:
        raise ValueError("probabilities are all zero: nothing to sample")
    return q


def _gather(M: np.ndarray, N: np.ndarray, idx: np.ndarray, counts, p: np.ndarray):
    """Columns ``idx`` of M and rows ``idx`` of N, each pair scaled by
    1/sqrt(count * p), so that the thin factors' product has expectation
    M @ N; returns (C, D, scales), C row-major."""
    scales = 1.0 / np.sqrt(counts * p)
    # Scaled in place, in the dtype the product with the scales would have
    # (integer factors become float64), so the bits match the plain product.
    C = np.take(M, idx, axis=1).astype(np.result_type(M, scales), copy=False)
    C *= scales
    D = np.take(N, idx, axis=0).astype(np.result_type(N, scales), copy=False)
    D *= scales[:, None]
    return C, D, scales


@dataclass(frozen=True, eq=False)
class SketchPair:
    """Concatenated per-block factors; ``offsets[k]:offsets[k+1]`` slices
    block k's columns of C (rows of D)."""

    C: np.ndarray
    D: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class SampleLog:
    """Flat per-draw log of every sampler, one row per sketch column
    (``column`` is a global inner index); the whole-block baseline logs a
    drawn block's columns under one ``draw``."""

    block: np.ndarray
    draw: np.ndarray
    column: np.ndarray
    prob: np.ndarray
    scale: np.ndarray

    def __len__(self) -> int:
        return self.block.size


def _sketch(
    M: np.ndarray,
    N: np.ndarray,
    probs: BlockProbabilities,
    counts: np.ndarray,
    streams,
) -> tuple[SketchPair, SampleLog]:
    """The blocked sampler: ``counts[k]`` draws in every block k with a
    positive count, on ``streams[k]``, then one gather and scale of all
    draws."""
    block, idx = _draw(probs, counts, streams)
    p = probs.values[idx]
    C, D, scales = _gather(M, N, idx, np.repeat(counts, counts), p)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    draw = np.arange(idx.size) - offsets[block]
    return SketchPair(C, D, offsets), SampleLog(block, draw, idx, p, scales)


def sketch_columns(
    Mb: np.ndarray,
    Nb: np.ndarray,
    count: int,
    probs: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, SampleLog]:
    """Sample ``count`` rescaled column/row pairs from one block.

    Returns thin factors C (m x count) and D (count x p) whose product has
    expectation Mb @ Nb, plus the per-draw log.
    """
    n = check_factors(Mb, Nb)
    count = as_int("count", count)
    if count < 1:
        raise ValueError("count must be >= 1")
    pair, log = _sketch(Mb, Nb, _one_block(probs, n), np.array([count]), [rng])
    # Column-major, like each pilot block: BLAS rounds small products
    # differently by operand layout, and the pilot replays multiply this C.
    return np.asfortranarray(pair.C), pair.D, log


def estimate_product(
    M: np.ndarray,
    N: np.ndarray,
    plan: SamplingPlan,
    rng: np.random.Generator,
) -> tuple[SketchPair, np.ndarray, SampleLog]:
    """Blocked importance-sampling estimate of M @ N under ``plan``.

    Draws each block's columns on its own child stream and returns the
    stacked factors, their product (the estimate), and the per-draw log.
    Zero-budget blocks (flagged zero-score) are skipped; they contribute
    exactly zero to the true product as well.
    """
    plan.partition.check_length(check_factors(M, N), "inner dimension")
    pair, log = _sketch(M, N, plan.probs, plan.budgets, rng.spawn(plan.partition.num_blocks))
    return pair, pair.C @ pair.D, log


def allocate_two_step(
    M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int, c0: int, p0: Optional[BlockProbabilities], rng
) -> SamplingPlan:
    """Pilot-then-allocate plan (tags ONU/ONMCNR).

    Each block is pilot-sampled with floor(c0/K) draws under ``p0`` (any
    remainder draws are discarded; ``None`` pilots with the plan's own
    norm-product probabilities); the pilot product's Frobenius norm
    stands in for the exact block product norm in the optimal-size weights,
    under an absolute value since the estimate may overshoot the score sum.
    The pilot consumes one spawned substream per block, so the plan is a
    pure function of the rng state regardless of evaluation order.  The tag
    follows the pilot's rule: ONU for "uniform", ONMCNR for "optimal", and
    none for any other pilot.  c and c0 are checked before any scoring.
    """
    c = as_int("c", c)
    if not 1 <= c <= part.total:
        raise ValueError(f"budget c={c} must lie in [1, {part.total}]")
    K = part.num_blocks
    pilot_count = as_int("c0", c0) // K
    if pilot_count < 1:
        raise ValueError(f"c0={c0} gives no pilot draws for K={K} blocks")
    if p0 is not None and p0.partition != part:
        raise ValueError("pilot probabilities are built on a different partition")
    prof = _profile(M, N, part)
    live = prof.sums > 0
    floors, caps = int(live.sum()), int(np.array(part.sizes)[live].sum())
    if floors and not floors <= c <= caps:
        raise ValueError(f"budget c={c} must lie between the {floors} block floors and the total caps {caps}")
    probs = BlockProbabilities(_optimal_probabilities(prof), part, rule="optimal")
    p0 = probs if p0 is None else p0
    counts = np.where(p0._zero, 0, pilot_count)  # zero-score block: pilot norm stays 0
    pair, _ = _sketch(prof.M, prof.N, p0, counts, rng.spawn(K))
    # Each block's product from a column-major C, as from sketch_columns.
    off = pair.offsets.tolist()
    pilot_norms = np.array(
        [frobenius_norm(np.asfortranarray(pair.C[:, a:b]) @ pair.D[a:b]) for a, b in zip(off, off[1:])]
    )
    method = {"uniform": "ONU", "optimal": "ONMCNR"}.get(p0.rule, "")
    return _allocate(prof, c, method, probs, pilot_norms=pilot_norms)


def _two_step_plan(
    M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int, c0: int, pilot: str, rng: np.random.Generator
) -> tuple[SamplingPlan, np.random.Generator]:
    """The plan phase of the two-step estimator: pilot probabilities
    "uniform" (tag ONU) or "norm", the norm-product ones (tag ONMCNR), then
    ``allocate_two_step`` on the first of two child streams of ``rng``.
    Returns the plan and the second stream, which the sampling phase uses."""
    if pilot not in ("uniform", "norm"):
        raise ValueError(f"unknown pilot rule {pilot!r} (use 'uniform' or 'norm')")
    pilot_rng, main_rng = rng.spawn(2)
    p0 = uniform_probabilities(part) if pilot == "uniform" else None
    return allocate_two_step(M, N, part, c, c0, p0, pilot_rng), main_rng


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


def estimate_product_block_sampling(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    draws: int,
    rng: np.random.Generator,
    probs: Optional[np.ndarray] = None,
) -> tuple[SketchPair, np.ndarray, SampleLog]:
    """Whole-block baseline (tag SSM): draw ``draws`` block indices i.i.d.
    with probability proportional to the blocks' norm product (or ``probs``)
    and stack the rescaled blocks themselves into the sketch.  The log has
    one row per sketch column; its ``draw`` is the block draw it came from."""
    part.check_length(check_factors(M, N), "inner dimension")
    q = block_norm_probabilities(M, N, part) if probs is None else probs
    q = _one_block(q, part.num_blocks)
    draws = as_int("draws", draws)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    drawn = _draw(q, [draws], [rng])[1]
    start = part.offsets[drawn]
    widths = part.offsets[drawn + 1] - start
    offsets = np.concatenate(([0], widths.cumsum()))
    draw = np.arange(draws).repeat(widths)
    idx = np.arange(offsets[-1]) + (start - offsets[:-1]).repeat(widths)
    block, p = drawn[draw], q.values[drawn][draw]
    C, D, scales = _gather(M, N, idx, draws, p)
    return SketchPair(C, D, offsets), C @ D, SampleLog(block, draw, idx, p, scales)
