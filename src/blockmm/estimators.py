"""Monte Carlo product estimators built from sampled, rescaled columns.

Every sampler draws by one rule, inverse-CDF importance sampling: a draw's
uniform u becomes the first column of its block whose running probability
sum exceeds u, clamped onto the block's support.  ``_search`` is the one
lookup that does it, for all of a call's draws at once, in the vector's
table of per-block running sums, built on its first draw and kept on it.
Each draw bisects its block, or only its guide cell on a vector shared by
construction.  A sampler only supplies the uniforms, in [0, 1) and in
block order.  The probabilities are a read-only ``BlockProbabilities``,
checked when a caller constructs them or built from a checked scoring pass,
so a negative or non-finite entry, or a block that sums to neither 1 nor 0,
never reaches a draw.  The blocked estimator then gathers every drawn
column/row pair of its plan at once, scales each by 1/sqrt(count * p) in
place, and multiplies the two thin factors once; ``sketch_columns`` does
the same on one block, and the whole-block baseline looks up its block
draws in the K block probabilities, taken as one block, and gathers their
columns at once.  All three return the same per-draw ``SampleLog``.

The two-step plans (tags ONU / ONMCNR) live here too, next to the sampler
their pilot runs: ``allocate_two_step`` sizes the blocks from pilot-sampled
block product norms, each taken from the block's slice of one pilot sketch.

Randomness discipline: every estimator takes a ``numpy.random.Generator``
(an rng without the methods a call uses is rejected by name).  The
single-block samplers draw on it directly; the blocked ones draw block k's
uniforms on the k-th of ``rng.spawn(K)``'s children (``_block_uniforms``),
so results are reproducible from a single seed and invariant to the order
blocks are processed in, and the caller is left as ``rng.spawn`` leaves it.
For the rng ``default_rng`` makes, a Generator over PCG64 over numpy's
SeedSequence with an int entropy and int spawn-key words, ``_pcg64_words``
hashes the children's PCG64 seeding words from the parent's pool and moves
its spawn counter by K; no child SeedSequence is built.  From
``_PASS_MIN_BLOCKS`` (32) blocks with draws, ``_PASS_MAX_MEAN_DRAWS`` (16)
or fewer each on average, every uniform then comes from one vectorized
pass (PCG64 is a 128-bit LCG, so a stream's j-th state is a closed-form
multiply-add of its seeding words); otherwise from a PCG64 generator per
block seeded from the words.  Any other rng is spawned.  The two-step plans
split the caller's rng into a pilot and a main stream with ``rng.spawn(2)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matrix import BlockPartition, as_int, check_factors, check_rng, check_type
from .plan import (
    BlockProbabilities,
    SamplingPlan,
    _allocate,
    _block_cumsums,
    _profile,
    _Profile,
    _sketch_product_norms,
    block_norm_probabilities,
    uniform_probabilities,
)


def _clamp(probs: BlockProbabilities, block: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Draws' global indices ``idx`` with every draw one past its block
    moved onto the block's last positive column: u may reach a block's last
    sum by float rounding.  An index below a block's end always has
    positive probability: where p_i = 0, cum[i] equals cum[i - 1] and
    cannot be the first sum above u."""
    off = probs.partition.offsets
    for i in np.flatnonzero(idx == off[1:][block]).tolist():
        idx[i] = off[block[i]] + np.flatnonzero(probs[block[i]])[-1]
    return idx


def _search(probs: BlockProbabilities, block: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The draw rule: each draw's global index, the first column of its
    block ``block[j]`` whose running sum exceeds its uniform ``u[j]``,
    clamped.  One sorted search on a one-block partition.  Else each draw
    reads its guide cell t = floor(u * g_k) (``plan._guided``; a vector
    without a guide is its one-cell guide) and bisects that cell's sums:
    ``last`` is the last column known to have a running sum <= u, and a step
    moves it no further than the cell's last sum.  Exact for u in [0, 1):
    g_k is a power of two, so every sum before the cell is <= t/g_k <= u, and
    every sum past it > (t+1)/g_k > u.  ``probs`` is checked already."""
    cum, off = _block_cumsums(probs), probs.partition.offsets
    if off.size == 2:
        return _clamp(probs, block, cum.searchsorted(u, "right"))
    # The one-cell guide skips the cell arithmetic, 5 draw-length operations.
    ends, first, cells, width = probs._guide or (off - 1, None, None, int(probs.partition.size_array.max()))
    cell = block if first is None else first.take(block) + (u * cells.take(block)).astype(np.int64)
    last, end = ends.take(cell), ends.take(cell + 1)
    step = (1 << width.bit_length()) >> 1
    while step:
        candidate = last + step
        np.minimum(candidate, end, out=candidate)
        last = np.where(cum.take(candidate) <= u, candidate, last)
        step >>= 1
    return _clamp(probs, block, last + 1)


def _uniforms(u: np.ndarray) -> np.ndarray:
    """An rng's uniforms, as they enter the lookup, if all lie in [0, 1)."""
    if np.count_nonzero(np.floor(u)):  # nonzero for u < 0 or u >= 1, NaN for NaN
        raise ValueError(f"rng must draw uniforms in [0, 1), got {float(u[np.floor(u) != 0.0][0])!r}")
    return u


# PCG64 (O'Neill 2014), as numpy implements it: a 128-bit LCG, state ->
# mult * state + inc, that steps before each output.  A jump of e steps
# takes state x to A_e x + G_e inc = x + G_e ((mult - 1) x + inc), A_e =
# mult^e and G_e = sum(mult^i, i < e), all mod 2^128: one product per draw
# once each stream's (mult - 1) x + inc is known.  Arrays of 128-bit numbers
# are pairs of uint64 arrays (high half, low half).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW, _1, _11, _32, _58, _63, _64 = map(np.uint64, (2**32 - 1, 1, 11, 32, 58, 63, 64))
_KEPT_JUMPS = 256  # a plan with a block of more draws extends the table per call


def _mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2^128 on (high, low) uint64 halves: the low halves' full
    product from 32-bit pieces, the cross terms mod 2^64."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> _32, al & _LOW, bl >> _32, bl & _LOW
    x, y = a1 * b0, a0 * b1
    carry = (a0 * b0 >> _32) + (x & _LOW) + (y & _LOW)
    return a1 * b1 + (x >> _32) + (y >> _32) + (carry >> _32) + al * bh + ah * bl, al * bl


def _add(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2^128 on (high, low) uint64 halves."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _u128(*values: int) -> np.ndarray:
    """Python ints below 2^128 as a (2, n) uint64 array of their halves."""
    return np.array([[v >> 64 for v in values], [v & (2**64 - 1) for v in values]], dtype=np.uint64)


_PCG_MULT_LESS_1 = _u128(_PCG_MULT - 1)


@functools.cache
def _kept_jumps() -> np.ndarray:
    """G_e for e < _KEPT_JUMPS, as a read-only (2, _KEPT_JUMPS) array."""
    G = [0]
    for _ in range(_KEPT_JUMPS - 1):
        G.append((G[-1] * _PCG_MULT + 1) % 2**128)
    out = _u128(*G)
    out.flags.writeable = False
    return out


def _jumps(n: int) -> np.ndarray:
    """G_e for e < n, at least: the kept ones, doubled per call as often as
    n needs, G_{L+e} = G_L + mult^L G_e."""
    G = _kept_jumps()
    while G.shape[1] < n:
        L = G.shape[1]
        G_L = (int(G[0, -1]) << 64 | int(G[1, -1])) * _PCG_MULT + 1
        G = np.hstack([G, _add(_mul(G, _u128(pow(_PCG_MULT, L, 2**128))), _u128(G_L % 2**128))])
    return G


def _pcg64_uniforms(words: np.ndarray, block: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """``Generator.random`` of PCG64 streams, draw for draw, in one pass:
    stream k is seeded by ``words[k]``, the (4,) uint64 ``generate_state``
    of its seed; entry j is the ``draw[j]``-th uniform (from 0) of stream
    ``block[j]``.  Seeding sets inc = 2 (words 2, 3) + 1 and steps once
    from x = (words 0, 1) + inc, so draw d has the state of a jump of
    d + 2 steps from x; its XSL-RR output, shifted right by 11 and scaled
    by 2^-53, is the uniform."""
    s_hi, s_lo, i_hi, i_lo = words.T
    inc = (i_hi << _1 | i_lo >> _63, i_lo << _1 | _1)
    x = _add((s_hi, s_lo), inc)
    x_hi, x_lo, y_hi, y_lo = np.vstack([*x, *_add(_mul(_PCG_MULT_LESS_1, x), inc)]).take(block, axis=1)
    e = draw + 2
    hi, lo = _add((x_hi, x_lo), _mul(_jumps(int(e.max(initial=0)) + 1).take(e, axis=1), (y_hi, y_lo)))
    out, rot = hi ^ lo, hi >> _58
    out = out >> rot | out << ((_64 - rot) & _63)
    return (out >> _11) * 2.0**-53


# The hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = np.uint32(16)


@functools.cache
def _hash_run(start: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants SeedSequence's hash steps through on n words, from
    start, as a uint32 pair (lo, hi): word j is hashed under lo[j] =
    start·mult^j and hi[j] = start·mult^(j+1) mod 2^32."""
    h = [start]
    for _ in range(n):
        h.append(h[-1] * mult % 2**32)
    out = np.array(h, dtype=np.uint32)
    out.flags.writeable = False
    return out[:-1], out[1:]


def _hash(x: np.ndarray, run: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hash of words ``x`` under the constants ``run``."""
    x = x ^ run[0]
    x *= run[1]
    x ^= x >> _SHIFT
    return x


def _n_words(x: int) -> int:
    """How many uint32 words SeedSequence turns the int x, an entropy or a
    spawn-key word, into."""
    return max(1, -(-x.bit_length() // 32))


def _check_spawn(rng, K: int) -> None:
    """Raise before ``rng`` is touched if its SeedSequence cannot spawn K
    more children: numpy's spawn loops on a 32-bit index that wraps, so it
    never returns once its counter would reach 2**32."""
    ss = getattr(getattr(rng, "bit_generator", None), "seed_seq", None)
    if isinstance(ss, np.random.SeedSequence) and ss.n_children_spawned + K >= 2**32:
        raise ValueError(
            f"rng's SeedSequence has n_children_spawned={ss.n_children_spawned}: {K} more children "
            "would pass numpy's 32-bit spawn counter"
        )


def _pcg64_words(rng, K: int) -> Optional[np.ndarray]:
    """The PCG64 seeding words of the K children ``rng.spawn(K)`` would
    make next, each child's ``generate_state(4, uint64)`` as a row of a
    (K, 4) uint64 array, with the spawn counter moved by K, as ``spawn``
    moves it; no child SeedSequence is built.  None, and nothing moved,
    unless ``rng`` is what ``default_rng`` makes: exactly a Generator over
    exactly PCG64 over exactly numpy's SeedSequence with an int entropy and
    int spawn-key words (a list or array can change after the pool was
    mixed from it, and ``spawn`` reads it again).

    A child's entropy is its parent's plus one word, its index (numpy keeps
    the spawn counter in 32 bits), so its pool is the parent's pool mixed
    with that word, under the hash constant stepped pool_size·L times,
    L = max(entropy words, pool_size) + spawn-key words; its seeding words
    hash its pool's words 0..7 (mod pool_size) in turn, paired little-endian
    into uint64.  The counter moves through the pickle state, which leaves
    the pool as it is."""
    if type(rng) is not np.random.Generator or type(rng.bit_generator) is not np.random.PCG64:
        return None
    ss = rng.bit_generator.seed_seq
    if type(ss) is not np.random.SeedSequence or not all(type(x) is int for x in (ss.entropy, *ss.spawn_key)):
        return None
    size, first = ss.pool_size, ss.n_children_spawned
    L = max(_n_words(ss.entropy), size) + sum(map(_n_words, ss.spawn_key))
    index = np.arange(first, first + K, dtype=np.uint32)[:, None]
    mixed = _hash(index, _hash_run(_INIT_A * pow(_MULT_A, size * L, 2**32) % 2**32, _MULT_A, size))
    pools = ss.pool * np.uint32(_MIX_L) - mixed * np.uint32(_MIX_R)
    pools ^= pools >> _SHIFT
    words = _hash(pools.take(np.arange(8) % size, axis=1), _hash_run(_INIT_B, _MULT_B, 8))
    entropy, n, *rest = ss.__reduce__()[2]
    ss.__setstate__((entropy, n + K, *rest))
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _row_seed() -> type:
    """A seed sequence that hands PCG64 one row of ``_pcg64_words``.  Made
    on first use, so that importing this module does not load
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        """One child's seeding words, as ``generate_state(4, uint64)``, the
        one request PCG64 makes, returns them; it has spawned no children."""

        __slots__ = ("row",)

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return RowSeed


# From 32 live blocks on, at up to 16 draws per live block on average, the
# vectorized PCG64 pass costs no more than the per-block path: per-block time
# over vectorized time read 1.0-1.2 at K = 32 and 1.4-2.8 at K = 128, but
# 0.5-0.85 at K <= 16 and 0.8-1.3 at 24-32 draws per block (grid in CHANGES.md).
_PASS_MIN_BLOCKS, _PASS_MAX_MEAN_DRAWS = 32, 16


def _layout(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``counts[k]`` draws per block in block order: the blocks' offsets
    among the draws, and each draw's block and its index within the block."""
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    block = np.arange(len(counts)).repeat(counts)
    return offsets, block, np.arange(block.size) - offsets.take(block)


def _block_uniforms(rng, counts: np.ndarray, layout) -> np.ndarray:
    """The uniforms of ``rng`` split into one stream per block, as
    ``rng.spawn(len(counts))`` splits it, in block order: the first
    ``counts[k]`` of child k's ``random``; ``layout`` is ``_layout(counts)``.
    Where ``_pcg64_words`` gives the children's seeding words and at least
    ``_PASS_MIN_BLOCKS`` blocks have draws, ``_PASS_MAX_MEAN_DRAWS`` each or
    fewer on average, all of them in one pass; else from K generators,
    seeded from the words where there are any."""
    K = len(counts)
    _check_spawn(rng, K)
    words = _pcg64_words(rng, K)
    live = int(np.count_nonzero(counts))
    if words is not None and live >= _PASS_MIN_BLOCKS and counts.sum() <= _PASS_MAX_MEAN_DRAWS * live:
        return _pcg64_uniforms(words, *layout[1:])
    if words is None:
        streams = rng.spawn(K)
    else:
        seed, Generator, PCG64 = _row_seed(), np.random.Generator, np.random.PCG64
        streams = [Generator(PCG64(seed(row))) for row in words]
    return np.concatenate([np.empty(0), *(g.random(ck) for g, ck in zip(streams, counts.tolist()) if ck > 0)])


def _one_block(probs, part: BlockPartition) -> BlockProbabilities:
    """``probs`` validated as the probabilities of the one block of
    ``part``, which must not be all zero."""
    q = BlockProbabilities(probs, part)
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
    M: np.ndarray, N: np.ndarray, probs: BlockProbabilities, counts: np.ndarray, layout, u: np.ndarray
) -> tuple[SketchPair, SampleLog]:
    """The blocked sampler: ``counts[k]`` draws in every block k, laid out
    by ``layout`` (``_layout(counts)``), one per uniform of ``u`` in block
    order, looked up at once; then one gather and scale of all draws."""
    offsets, block, draw = layout
    idx = _search(probs, block, _uniforms(u))
    p = probs.values[idx]
    C, D, scales = _gather(M, N, idx, counts[block], p)
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
    check_rng(rng, "random")
    n = check_factors(Mb, Nb)
    count = as_int("count", count)
    if count < 1:
        raise ValueError("count must be >= 1")
    counts = np.array([count])
    pair, log = _sketch(Mb, Nb, _one_block(probs, BlockPartition((n,))), counts, _layout(counts), rng.random(count))
    return pair.C, pair.D, log


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
    check_rng(rng, "spawn", "random")
    check_type("plan", plan, SamplingPlan).partition.check_length(check_factors(M, N), "inner dimension")
    return _estimate(M, N, plan, rng)


def _sample_blocks(M, N, probs: BlockProbabilities, counts: np.ndarray, rng) -> tuple[SketchPair, SampleLog]:
    """The blocked draw step of the estimate and the two-step pilot:
    ``counts[k]`` draws in block k on the k-th of rng's block streams."""
    layout = _layout(counts)
    return _sketch(M, N, probs, counts, layout, _block_uniforms(rng, counts, layout))


def _estimate(M: np.ndarray, N: np.ndarray, plan: SamplingPlan, rng) -> tuple[SketchPair, np.ndarray, SampleLog]:
    pair, log = _sample_blocks(M, N, plan.probs, plan.budgets, rng)
    return pair, pair.C @ pair.D, log


def _two_step_counts(part: BlockPartition, c: int, c0: int, p0: Optional[BlockProbabilities]) -> tuple[int, int]:
    """c and the pilot draws per block, floor(c0/K), checked with p0's partition."""
    check_type("part", part, BlockPartition)
    c = as_int("c", c)
    if not 1 <= c <= part.total:
        raise ValueError(f"budget c={c} must lie in [1, {part.total}]")
    K = part.num_blocks
    pilot_count = as_int("c0", c0) // K
    if pilot_count < 1:
        raise ValueError(f"c0={c0} gives no pilot draws for K={K} blocks")
    if p0 is not None and check_type("p0", p0, BlockProbabilities).partition != part:
        raise ValueError("pilot probabilities are built on a different partition")
    return c, pilot_count


def _allocate_two_step(prof: _Profile, c: int, pilot_count: int, p0, pilot_rng) -> SamplingPlan:
    """``allocate_two_step`` on a scoring profile, with c and the pilot draws
    per block as ``_two_step_counts`` checked them, its pilot drawn on the K
    streams of ``pilot_rng``; the block floors are checked before the pilot."""
    live = prof.sums > 0
    floors, caps = int(live.sum()), int(prof.part.size_array[live].sum())
    if floors and not floors <= c <= caps:
        raise ValueError(f"budget c={c} must lie between the {floors} block floors and the total caps {caps}")
    p0 = prof.probs if p0 is None else p0
    skipped = np.flatnonzero(p0._zero & live).tolist()
    if skipped:
        raise ValueError(f"block {skipped[0]}: pilot probabilities all zero on a block of positive score")
    counts = np.where(p0._zero, 0, pilot_count)  # zero-score block: pilot norm stays 0
    pair, _ = _sample_blocks(prof.M, prof.N, p0, counts, pilot_rng)
    # Every pilot block with draws has pilot_count of them: the sketch's blocks are equal.
    pilot_norms = np.zeros(prof.part.num_blocks)
    pilot_norms[counts > 0] = _sketch_product_norms(pair.C, pair.D, (pilot_count,) * int((counts > 0).sum()))
    method = {"uniform": "ONU", "optimal": "ONMCNR"}.get(p0.rule, "")
    return _allocate(prof, c, method, pilot_norms=pilot_norms)


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
    check_rng(rng, "spawn", "random")
    c, pilot_count = _two_step_counts(part, c, c0, p0)
    return _allocate_two_step(_profile(M, N, part), c, pilot_count, p0, rng)


def _two_step_plan(prof: _Profile, c: int, pilot_count: int, rng, pilot) -> tuple[SamplingPlan, np.random.Generator]:
    """The two-step recipe on a scoring profile and a checked budget: the
    plan piloted under the ``pilot`` rule on the first of ``rng.spawn(2)``'s
    children, and the second, which the main pass splits into block streams."""
    _check_spawn(rng, 2)
    pilot_rng, main_rng = rng.spawn(2)
    p0 = uniform_probabilities(prof.part) if pilot == "uniform" else None
    return _allocate_two_step(prof, c, pilot_count, p0, pilot_rng), main_rng


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
    check_rng(rng, "spawn", "random")
    if pilot not in ("uniform", "norm"):
        raise ValueError(f"unknown pilot rule {pilot!r} (use 'uniform' or 'norm')")
    c, pilot_count = _two_step_counts(part, c, c0, None)
    plan, main_rng = _two_step_plan(_profile(M, N, part), c, pilot_count, rng, pilot)
    return TwoStepResult(*_estimate(M, N, plan, main_rng), plan)


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
    check_rng(rng, "random")
    check_type("part", part, BlockPartition).check_length(check_factors(M, N), "inner dimension")
    q = block_norm_probabilities(M, N, part) if probs is None else probs
    q = _one_block(q, part._as_one_block)
    draws = as_int("draws", draws)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    drawn = _search(q, np.zeros(draws, np.int64), _uniforms(rng.random(draws)))
    start = part.offsets[drawn]
    offsets, draw, within = _layout(part.offsets[drawn + 1] - start)  # the drawn blocks' columns
    idx = start[draw] + within
    block, p = drawn[draw], q.values[drawn][draw]
    C, D, scales = _gather(M, N, idx, draws, p)
    return SketchPair(C, D, offsets), C @ D, SampleLog(block, draw, idx, p, scales)
