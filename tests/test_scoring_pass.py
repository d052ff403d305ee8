"""Guards of the single scoring pass: every composite call equals, bit for
bit, its public steps, computes the column and row norms exactly once and
forms the block products at most once, a benchmark sweep does each of those
once per partition, and every plan is unchanged, bit for bit, when a factor
is scaled by a power of two.  The sampler draws from one
table of per-block running sums per call and still equals the per-block
``sketch_columns`` bit for bit; a partition's uniform vector is one
read-only constant that carries its table and gives the bits of a fresh
vector.  The whole-block baseline's probabilities
come from one batched norm pass with the bits of the per-block norms."""

import dataclasses
import gc
import math
import warnings
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockmm import (
    BlockPartition,
    BlockProbabilities,
    SamplingPlan,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_two_step,
    allocate_uniform,
    block_norm_probabilities,
    block_scores,
    bound_inputs_for_plan,
    bounds_optimal_allocation,
    bounds_pilot_allocation,
    cancellation_stats,
    elementwise_variance,
    estimate_product,
    estimate_product_block_sampling,
    estimate_product_two_step,
    expected_sq_error,
    frobenius_norm,
    gen_heavy_tail_instance,
    gen_normal_instance,
    integerize,
    minimum_expected_sq_error,
    optimal_probabilities,
    optimal_size_weights,
    score_sums,
    sketch_columns,
    uniform_probabilities,
)
from blockmm import analysis, bench, estimators, matrix, plan as plan_module
from blockmm.matrix import block_view
from oracles import inverse_cdf_draw


def _instance(kind, n=120, K=6):
    rng = np.random.default_rng(np.random.SeedSequence(201, spawn_key=(0,)))
    if kind == "normal":
        M, N = gen_normal_instance(5, n, 4, rng)
    else:
        M, N = gen_heavy_tail_instance(5, n, 4, rng)
    if kind == "zero-blocks":
        M[:, n // 6 : n // 3] = 0.0  # blocks 1 and 2 of six have zero score
        N[5 * n // 6 : 11 * n // 12] = 0.0  # and half of block 5
    return M, N, BlockPartition.equal(n, K)


KINDS = ("normal", "heavy", "zero-blocks")
C, C0 = 40, 24
# Enough blocks with draws, and few enough draws each, for the vectorized
# PCG64 pass (``estimators._block_uniforms``): 36 of 48 blocks live on
# "zero-blocks", 3-4 draws per live block.
WIDE_N, WIDE_K, WIDE_C = 480, 48, 160
WIDE_UNEQUAL = BlockPartition((3, 17, 5, 11, 8, 16) * 8)  # n = 480, 48 blocks


def _takes_the_pass(plan):
    """Whether ``estimate_product`` draws ``plan``'s uniforms on a PCG64
    caller in one vectorized pass."""
    with mock.patch.object(estimators, "_pcg64_uniforms", wraps=estimators._pcg64_uniforms) as vectorized:
        estimators._block_uniforms(_rng(), plan.budgets, estimators._layout(plan.budgets))
    return vectorized.called


def _rng(seed=5):
    return np.random.default_rng(seed)


def _budgets(part, s, w, c=C):
    """The allocators' last steps: the score-sum fallback and integerize."""
    if w.sum() == 0.0:
        w = s
    return integerize(w, c, caps=np.where(s > 0, np.array(part.sizes, dtype=np.int64), 0), floor=s > 0)


def _pilot_norms(M, N, part, p0, rng, c0=C0):
    """The pilot: ``sketch_columns`` per block on ``rng.spawn(K)``."""
    K = part.num_blocks
    streams = rng.spawn(K)
    out = np.zeros(K)
    for k in range(K):
        if p0[k].sum() == 0.0:
            continue
        Ck, Dk, _ = sketch_columns(block_view(M, part, k), block_view(N, part, k, "rows"), c0 // K, p0[k], streams[k])
        out[k] = frobenius_norm(Ck @ Dk)
    return out


LOG_FIELDS = ("block", "draw", "column", "prob", "scale")


def _sketch_estimate(M, N, plan, rng):
    """``estimate_product``: per-block ``sketch_columns`` on ``rng.spawn(K)``,
    stacked into row-major factors, then one product.  Returns the factors,
    their offsets, the product and the log fields from the draw records."""
    part = plan.partition
    streams = rng.spawn(part.num_blocks)
    C = np.empty((M.shape[0], plan.total))
    D = np.empty((plan.total, N.shape[1]))
    off = np.concatenate(([0], np.cumsum(plan.budgets)))
    log = [[np.empty(0, np.int64)] * 3 + [np.empty(0)] * 2]
    for k in range(part.num_blocks):
        ck = int(plan.budgets[k])
        if ck == 0:
            continue
        C[:, off[k] : off[k + 1]], D[off[k] : off[k + 1]], rec = sketch_columns(
            block_view(M, part, k), block_view(N, part, k, "rows"), ck, plan.probs[k], streams[k]
        )
        log.append([np.full(ck, k), np.arange(ck), part.offsets[k] + rec.column, rec.prob, rec.scale])
    return C, D, off, C @ D, [np.concatenate(field) for field in zip(*log)]


def _assert_same_estimate(pair, product, log, reference):
    C, D, off, want_product, want_log = reference
    got = [pair.C, pair.D, pair.offsets, product, *(getattr(log, f) for f in LOG_FIELDS)]
    for name, a, b in zip(["C", "D", "offsets", "product", *LOG_FIELDS], got, [C, D, off, want_product, *want_log]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def _assert_same_plan(plan, probs, budgets, pilot_norms=None):
    assert [p.tobytes() for p in plan.probs.per_block] == [p.tobytes() for p in probs.per_block]
    np.testing.assert_array_equal(plan.budgets, budgets)
    if pilot_norms is None:
        assert plan.pilot_norms is None
    else:
        assert plan.pilot_norms.tobytes() == pilot_norms.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_score_allocators_equal_their_public_steps(kind):
    M, N, part = _instance(kind)
    probs = optimal_probabilities(M, N, part)
    s = score_sums(M, N, part)
    _assert_same_plan(allocate_by_score_sums(M, N, part, C), probs, _budgets(part, s, s))
    w = optimal_size_weights(M, N, part)
    _assert_same_plan(allocate_optimal(M, N, part, C), probs, _budgets(part, s, w))


def _two_step_cases(kind):
    """(M, N, part, c, c0) of the two-step bit checks: 4, 20 (BLAS then
    rounds by operand layout) and 1 pilot draws per block, p = 1, an unequal
    partition, and 48 blocks, whose pilot and main pass are each one
    vectorized PCG64 pass."""
    M, N, part = _instance(kind)
    yield from ((M, N, part, C, c0) for c0 in (C0, 120, 6))
    yield M, N[:, :1], part, C, C0
    yield M, N, BlockPartition((10, 30, 20, 40, 5, 15)), C, C0
    yield *_instance(kind, WIDE_N, WIDE_K), WIDE_C, 2 * WIDE_K


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pilot", ["uniform", "norm"])
def test_two_step_equals_its_public_steps(kind, pilot):
    for M, N, part, c, c0 in _two_step_cases(kind):
        probs = optimal_probabilities(M, N, part)
        p0 = uniform_probabilities(part) if pilot == "uniform" else probs
        s = score_sums(M, N, part)
        pilot_norms = _pilot_norms(M, N, part, p0, _rng(), c0)
        steps = (probs, _budgets(part, s, np.sqrt(np.abs(s**2 - pilot_norms**2)), c), pilot_norms)
        plan = allocate_two_step(M, N, part, c, c0, p0, _rng())
        _assert_same_plan(plan, *steps)
        assert plan.method == ("ONU" if pilot == "uniform" else "ONMCNR")

        pilot_rng, main_rng = _rng().spawn(2)
        pilot_norms = _pilot_norms(M, N, part, p0, pilot_rng, c0)
        res = estimate_product_two_step(M, N, part, c, c0, _rng(), pilot=pilot)
        _assert_same_plan(res.plan, probs, _budgets(part, s, np.sqrt(np.abs(s**2 - pilot_norms**2)), c), pilot_norms)
        assert _takes_the_pass(res.plan) == (part.num_blocks == WIDE_K)
        _assert_same_estimate(res.pair, res.product, res.log, _sketch_estimate(M, N, res.plan, main_rng))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("chunk", [1, 80])  # m * p = 20: one block per batch; four, then a short batch
def test_two_step_pilot_norms_keep_their_bits_in_small_batches(kind, chunk, monkeypatch):
    """An all-zero pilot vector would leave every block unpiloted: it is
    rejected before the pilot."""
    monkeypatch.setattr(plan_module, "BLOCK_CHUNK", chunk)
    M, N, part = _instance(kind)
    no_live_block = BlockProbabilities(np.zeros(part.total), part)
    for p0 in (uniform_probabilities(part), optimal_probabilities(M, N, part)):
        plan = allocate_two_step(M, N, part, C, C0, p0, _rng())
        assert plan.pilot_norms.tobytes() == _pilot_norms(M, N, part, p0, _rng()).tobytes()
    with pytest.raises(ValueError, match="pilot probabilities all zero on a block of positive score"):
        allocate_two_step(M, N, part, C, C0, no_live_block, _rng())


def _onc_and_uu(M, N, part, c):
    return allocate_by_score_sums(M, N, part, c), allocate_uniform(part, c)


@pytest.mark.parametrize("kind", KINDS)
def test_estimate_product_equals_per_block_sketches(kind):
    """On 6 blocks (the per-block path) and on 48 (the vectorized pass)."""
    for n, K, c in ((120, 6, C), (WIDE_N, WIDE_K, WIDE_C)):
        M, N, part = _instance(kind, n, K)
        for plan in _onc_and_uu(M, N, part, c):
            assert _takes_the_pass(plan) == (K == WIDE_K)
            _assert_same_estimate(*estimate_product(M, N, plan, _rng()), _sketch_estimate(M, N, plan, _rng()))


UNEQUAL = BlockPartition((30, 10, 25, 15, 40))  # n = 120: the table's per-block cumsum loop
# n = 120 again; on "zero-blocks", block 1 (columns 20-39) has zero score and block 2 is one column.
UNEQUAL_ONE_COLUMN = BlockPartition((20, 20, 1, 29, 10, 40))


@pytest.mark.parametrize("kind", KINDS)
def test_estimate_product_on_an_unequal_partition_equals_per_block_sketches(kind):
    """On 5 blocks (the per-block path; "zero-blocks": blocks 1 and 4 have
    zero score) and on 48 (the vectorized pass)."""
    for n, part, c in ((120, UNEQUAL, C), (WIDE_N, WIDE_UNEQUAL, WIDE_C)):
        M, N, _ = _instance(kind, n)
        for plan in _onc_and_uu(M, N, part, c):
            assert _takes_the_pass(plan) == (part is WIDE_UNEQUAL)
            _assert_same_estimate(*estimate_product(M, N, plan, _rng()), _sketch_estimate(M, N, plan, _rng()))


def _trailing_zeros_plan(reps=1):
    """Every block's trailing probabilities are zero, and blocks 0 and 2 sum
    to just below 1, so that a draw near 1 lands past their last positive
    column; block 1 is all zero.  ``reps`` copies of these three blocks
    side by side: 16 give 32 live blocks, the vectorized pass."""
    part = BlockPartition((5, 4, 6) * reps)
    values = np.array([0.3, 0.3, 0.4 - 4e-13, 0, 0, 0, 0, 0, 0, 1.0 - 3e-13, 0, 0, 0, 0, 0] * reps)
    return SamplingPlan(part, BlockProbabilities(values, part), np.array([7, 0, 3] * reps))


class _NearOne:
    """A stand-in generator whose every child draws the largest double below 1."""

    def spawn(self, n):
        return [self] * n

    def random(self, count):
        return np.full(count, np.nextafter(1.0, 0.0))


class _Given:
    """A stand-in stream that draws the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, count):
        assert count == self.u.size
        return self.u


def _reference_draw(probs, block, u):
    """Each draw's global index by the frozen rule, ``inverse_cdf_draw``
    on its block's probabilities, fed that block's uniforms in order."""
    off, out = probs.partition.offsets, np.empty(block.size, np.int64)
    for k in np.unique(block).tolist():
        at = block == k
        out[at] = off[k] + inverse_cdf_draw(probs[k], int(at.sum()), _Given(u[at]))
    return out


def _running_sums(probs, counts):
    """``counts[k]`` uniforms per block, block k's running sums in turn."""
    cum, off = estimators._block_cumsums(probs), probs.partition.offsets
    return np.concatenate([np.resize(cum[off[k] : off[k + 1]], c) for k, c in enumerate(counts)])


def test_draws_past_a_blocks_last_sum_are_clamped_onto_its_support():
    M, N, _ = _instance("normal")
    M, N, plan = M[:, :15], N[:15], _trailing_zeros_plan()
    pair, product, log = estimate_product(M, N, plan, _NearOne())
    np.testing.assert_array_equal(log.column, [2] * 7 + [9] * 3)
    _assert_same_estimate(pair, product, log, _sketch_estimate(M, N, plan, _NearOne()))
    # The one search clamps as the reference does, on uniforms at the largest
    # double below 1, and finds the same column for a uniform equal to a
    # running sum: on 48 blocks (a bisection) and on one block of each kind.
    plan = _trailing_zeros_plan(16)
    cases = [(plan.probs, plan.budgets, [2] * 7 + [9] * 3, [1, 2, 2, 2, 2, 1, 2, 9, 9, 9])]
    for values, first, at_sums in (([0.3, 0.3, 0.4 - 4e-13, 0, 0], [2] * 7, [1, 2, 2, 2, 2, 1, 2]),
                                   ([0] * 3 + [1.0 - 3e-13, 0, 0], [3] * 7, [3] * 7)):
        cases.append((BlockProbabilities(values, BlockPartition((len(values),))), np.array([7]), first, at_sums))
    for probs, counts, first, at_sums in cases:
        block = np.repeat(np.arange(counts.size), counts)
        near_one = np.full(block.size, np.nextafter(1.0, 0.0))
        for u, want_first in ((near_one, first), (_running_sums(probs, counts), at_sums)):
            got = estimators._search(probs, block, u)
            assert got.tobytes() == _reference_draw(probs, block, u).tobytes()
            np.testing.assert_array_equal(got[: len(want_first)], want_first)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 1100), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    trailing=st.integers(0, 50),
)
@example(sizes=[1100], seed=3, trailing=0)  # one block: one sorted search
@example(sizes=[1100], seed=4, trailing=50)
@example(sizes=[1], seed=0, trailing=0)
@example(sizes=[60], seed=5, trailing=45)
def test_one_bisection_finds_what_the_per_block_searches_find(sizes, seed, trailing):
    """The one search against the reference rule per block, on blocks of 1
    to 1,100 columns with runs of zero probability (a block may be all
    zero, and its last ``trailing`` columns are zero), at random uniforms,
    at every running sum of each block, and at the largest double below 1."""
    rng = np.random.default_rng(seed)
    part = BlockPartition(tuple(sizes))
    values = rng.random(part.total) * (rng.random(part.total) < 0.7)
    values[np.concatenate([np.arange(max(a, b - trailing), b) for a, b in zip(part.offsets, part.offsets[1:])])] = 0.0
    sums = np.add.reduceat(values, part.offsets[:-1])
    probs = BlockProbabilities(values / np.repeat(np.where(sums > 0, sums, 1.0), sizes), part)
    counts = np.where(sums > 0, rng.integers(1, 40, len(sizes)), 0)
    block = np.repeat(np.arange(len(sizes)), counts)
    for u in (rng.random(block.size), _running_sums(probs, counts), np.full(block.size, np.nextafter(1.0, 0.0))):
        assert estimators._search(probs, block, u).tobytes() == _reference_draw(probs, block, u).tobytes()


def _per_block_sorted_search(probs, block, u):
    """Each draw's global index by ``searchsorted(cum_k, u, "right")`` on
    its block's own running sums, clamped."""
    off, out = probs.partition.offsets, np.empty(block.size, np.int64)
    for k in np.unique(block).tolist():
        at = block == k
        out[at] = off[k] + np.cumsum(probs[k]).searchsorted(u[at], "right")
    return estimators._clamp(probs, block, out)


def _guide_cells(guide):
    """The running sums in each cell of a guide, block after block."""
    last, first, cells, _ = guide
    return np.concatenate([np.diff(last[a : a + int(g) + 1]) for a, g in zip(first.tolist(), cells.tolist())])


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.one_of(
        st.tuples(st.integers(1, 400), st.integers(2, 8)).map(lambda bk: (bk[0],) * bk[1]),
        st.lists(st.integers(1, 400), min_size=2, max_size=8).map(tuple),
        st.tuples(st.integers(100, 3000), st.integers(1, 60)).map(lambda bt: (bt[0],) + (1,) * bt[1]),
    ),
    seed=st.integers(0, 2**32 - 1),
    zero_run=st.integers(0, 60),
    drift=st.sampled_from([0.0, 1e-13, -1e-13]),
)
@example(sizes=(2000,) * 10, seed=1, zero_run=0, drift=0.0)
@example(sizes=(1023, 1, 2047, 3), seed=2, zero_run=60, drift=1e-13)
def test_the_guided_search_finds_what_the_whole_block_bisection_finds(sizes, seed, zero_run, drift):
    """On equal and unequal partitions and one large block among one-column
    blocks, with runs of zero probability and zero blocks, block sums at 1
    and 1 +- 1e-13, at u = 0, at every running sum and at random cell edges,
    and one ulp either side of each: the guided lookup returns the whole-block
    bisection's indices, and the per-block sorted searches'.  The guide has
    at most 2n + K entries, and its width is its fullest cell's sums."""
    rng = np.random.default_rng(seed)
    part = BlockPartition(sizes)
    off, n = part.offsets, part.total
    values = rng.random(n) * (rng.random(n) < 0.8)
    for a, b in zip(off.tolist(), off[1:].tolist()):
        start = int(rng.integers(a, b))
        values[start : min(b, start + zero_run)] = 0.0
    values[np.repeat(rng.random(part.num_blocks) < 0.2, sizes)] = 0.0
    sums = np.add.reduceat(values, off[:-1])
    values = values / np.repeat(np.where(sums > 0, sums, 1.0), sizes) * (1.0 + drift)
    probs = BlockProbabilities(values, part)
    guided = plan_module._guided(BlockProbabilities(values, part))
    last, first, cells, width = guided._guide
    assert last.size <= 2 * n + part.num_blocks and width == _guide_cells(guided._guide).max()
    cum, live = estimators._block_cumsums(probs), np.flatnonzero(~probs._zero)
    us = []
    for k in live.tolist():
        edges = rng.integers(0, cells[k], 20) / cells[k]
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum[off[k] : off[k + 1]], edges, rng.random(20)])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        us.append(u[u < 1.0])
    block, u = np.repeat(live, [x.size for x in us]), np.concatenate([np.empty(0), *us])
    got = estimators._search(guided, block, u)
    assert got.tobytes() == estimators._search(probs, block, u).tobytes()
    assert got.tobytes() == _per_block_sorted_search(probs, block, u).tobytes()


@pytest.mark.parametrize(
    "sizes", [(2000,) * 10, (1023, 1, 2047, 4095, 3, 7, 64), (100_000,) + (1,) * 1000], ids=["desk-heavy", "2^k-1", "one-large"]
)
def test_the_uniform_guide_holds_at_most_one_sum_per_cell(sizes):
    """So a UU or uniform-pilot draw bisects at most one step; the guide
    has at most 2n + K entries."""
    part = BlockPartition(sizes)
    last, first, cells, width = uniform_probabilities(part)._guide
    assert width == _guide_cells((last, first, cells, width)).max() == 1
    assert last.size == int((cells + 1).sum()) <= 2 * part.total + part.num_blocks
    assert not (last.flags.writeable or first.flags.writeable or cells.flags.writeable)


def test_estimate_product_with_trailing_zero_probabilities_equals_per_block_sketches():
    """Three blocks (the per-block path), and 16 copies of them side by side
    (the vectorized pass)."""
    for reps in (1, 16):
        M, N, _ = _instance("heavy", max(120, 15 * reps))
        M, N, plan = M[:, : 15 * reps], N[: 15 * reps], _trailing_zeros_plan(reps)
        assert _takes_the_pass(plan) == (reps == 16)
        for seed in range(5):
            _assert_same_estimate(*estimate_product(M, N, plan, _rng(seed)), _sketch_estimate(M, N, plan, _rng(seed)))


DRAW_VECTORS = [
    np.full(5, 0.2),
    np.array([0.1, 0.0, 0.45, 0.05, 0.4]),
    np.array([0.3, 0.3, 0.4 - 4e-13, 0, 0]),  # trailing zeros, summing to just below 1
    np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
]


@pytest.mark.parametrize("probs", DRAW_VECTORS, ids=["uniform", "interior-zero", "trailing-zeros", "one-hot"])
def test_sketch_columns_and_block_sampling_draw_like_the_reference(probs):
    """Both single-vector samplers against an independent inverse-CDF draw:
    the columns of ``sketch_columns`` and the blocks of the whole-block
    baseline (five one-column blocks, so its columns are its blocks)."""
    M, N, _ = _instance("heavy")
    M, N, part = M[:, :5], N[:5], BlockPartition.equal(5, 5)
    for make_rng in [*(lambda seed=seed: _rng(seed) for seed in range(5)), _NearOne]:
        want = inverse_cdf_draw(probs, 40, make_rng())
        np.testing.assert_array_equal(sketch_columns(M, N, 40, probs, make_rng())[2].column, want)
        _, _, log = estimate_product_block_sampling(M, N, part, 40, make_rng(), probs=probs)
        np.testing.assert_array_equal(log.block, want)
        np.testing.assert_array_equal(log.column, want)


def _fresh_uniform(part):
    """The uniform probabilities as a new vector, which carries no table."""
    sizes = np.array(part.sizes)
    return BlockProbabilities(np.repeat(1 / sizes, sizes), part, rule="uniform")


@pytest.mark.parametrize("part", [BlockPartition.equal(120, 6), UNEQUAL, UNEQUAL_ONE_COLUMN])
def test_block_cumsums_equal_one_cumsum_per_block(part):
    """Per-call tables, and the table the partition's uniform constant carries."""
    M, N, _ = _instance("zero-blocks")
    for probs in (optimal_probabilities(M, N, part), _fresh_uniform(part), uniform_probabilities(part)):
        cum = estimators._block_cumsums(probs)
        off = part.offsets
        assert [cum[a:b].tobytes() for a, b in zip(off, off[1:])] == [np.cumsum(p).tobytes() for p in probs.per_block]
    assert estimators._block_cumsums(uniform_probabilities(part)) is uniform_probabilities(part)._cum


@pytest.mark.parametrize("part", [BlockPartition.equal(120, 6), UNEQUAL], ids=["equal", "unequal"])
def test_uniform_probabilities_are_one_read_only_constant_per_partition(part):
    u = uniform_probabilities(part)
    assert uniform_probabilities(part) is u and allocate_uniform(part, C).probs is u
    assert uniform_probabilities(BlockPartition(part.sizes)) is not u  # an equal partition object has its own
    assert u.partition == part
    assert u.values.tobytes() == _fresh_uniform(part).values.tobytes()
    for array in (u.values, estimators._block_cumsums(u)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    # Any other vector keeps the read-only table its first draw builds, and no guide.
    M, N, _ = _instance("heavy")
    onc = allocate_by_score_sums(M, N, part, C)
    assert onc.probs._cum is None and _fresh_uniform(part)._cum is None
    estimate_product(M, N, onc, _rng())
    estimate_product_block_sampling(M, N, part, 3, _rng())
    assert onc.probs._cum is estimators._block_cumsums(onc.probs) and not onc.probs._cum.flags.writeable
    assert onc.probs._guide is None and u._guide is not None


def test_uniform_constant_dies_with_its_partition():
    """No reference cycle: the constant's arrays go with the last reference
    to its partition, not at a later cyclic collection."""
    gc.disable()
    try:
        part = BlockPartition.equal(120, 6)
        constant = weakref.ref(uniform_probabilities(part))
        del part
        assert constant() is None
    finally:
        gc.enable()


def _estimate_bytes(pair, product, log):
    return (pair.C, pair.D, pair.offsets, product, [getattr(log, f) for f in LOG_FIELDS])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("part", [BlockPartition.equal(120, 6), UNEQUAL], ids=["equal", "unequal"])
def test_uniform_constant_estimates_equal_a_fresh_vector(kind, part):
    """UU and the uniform-pilot two-step plan through the partition's
    constant equal, bit for bit, the same calls on a fresh uniform vector."""
    M, N, _ = _instance(kind)
    for _ in range(2):  # the call that builds the constant, then one that reuses it
        uu = allocate_uniform(part, C)
        fresh = SamplingPlan(part, _fresh_uniform(part), uu.budgets, method="UU")
        _assert_same_estimate(*estimate_product(M, N, uu, _rng()), _estimate_bytes(*estimate_product(M, N, fresh, _rng())))

        res = estimate_product_two_step(M, N, part, C, C0, _rng())
        pilot_rng, main_rng = _rng().spawn(2)
        plan = allocate_two_step(M, N, part, C, C0, _fresh_uniform(part), pilot_rng)
        _assert_same_plan(res.plan, plan.probs, plan.budgets, plan.pilot_norms)
        assert res.plan.method == plan.method == "ONU"
        _assert_same_estimate(res.pair, res.product, res.log, _estimate_bytes(*estimate_product(M, N, plan, main_rng)))


@pytest.fixture
def sampler_work(monkeypatch):
    """Counts the running-sum tables built and the ``np.cumsum`` calls made
    inside each sampler call."""
    calls = Counter()
    original_table, original_sketch, original_cumsum = estimators._block_cumsums, estimators._sketch, np.cumsum

    def table(probs):
        calls["tables"] += probs._cum is None  # a table the vector carries is not built
        return original_table(probs)

    def cumsum(*args, **kwargs):
        calls["cumsum"] += 1
        return original_cumsum(*args, **kwargs)

    def sketch(*args):
        calls["sketches"] += 1
        before = calls["cumsum"]
        out = original_sketch(*args)
        calls["most cumsums in one sketch"] = max(calls["most cumsums in one sketch"], calls["cumsum"] - before)
        return out

    monkeypatch.setattr(estimators, "_block_cumsums", table)
    monkeypatch.setattr(estimators, "_sketch", sketch)
    monkeypatch.setattr(np, "cumsum", cumsum)
    return calls


@pytest.mark.parametrize("pilot", ["uniform", "norm"])
def test_each_sampler_call_builds_one_table_and_no_per_block_cumsum(pilot, sampler_work):
    """On 6 equal blocks (the per-block path) and on 48 (the vectorized pass)."""
    for n, K, c, c0 in ((120, 6, C, C0), (WIDE_N, WIDE_K, WIDE_C, 2 * WIDE_K)):
        sampler_work.clear()
        M, N, part = _instance("zero-blocks", n, K)
        uniform_probabilities(part)  # the partition's constant, with its table
        res = estimate_product_two_step(M, N, part, c, c0, _rng(), pilot=pilot)
        assert _takes_the_pass(res.plan) == (K == WIDE_K)
        assert sampler_work["sketches"] == 2  # the pilot and the main pass
        # The uniform pilot draws from the constant's table; the norm pilot builds the
        # plan vector's table, which its main pass then reads.
        assert sampler_work["tables"] == 1
        assert sampler_work["most cumsums in one sketch"] <= 1  # the offsets only, none per block


@pytest.fixture
def builds(monkeypatch):
    """Counts the running-sum tables and the guides built, by the rule of
    the vector each is built on."""
    calls = Counter()
    original_table, original_guided = plan_module._block_cumsums, plan_module._guided

    def table(probs):
        calls["table", probs.rule] += probs._cum is None
        return original_table(probs)

    def guided(probs):
        calls["guide", probs.rule] += probs._guide is None
        return original_guided(probs)

    for module in (plan_module, estimators):
        monkeypatch.setattr(module, "_block_cumsums", table)
    for module in (plan_module, bench):
        monkeypatch.setattr(module, "_guided", guided)
    return calls


def test_uu_and_the_uniform_pilot_build_no_table_and_no_guide_after_the_first_call(builds):
    M, N, part = _instance("heavy")
    estimate_product(M, N, allocate_uniform(part, C), _rng())
    assert builds == {("guide", "uniform"): 1, ("table", "uniform"): 1}
    builds.clear()
    for _ in range(2):
        estimate_product(M, N, allocate_uniform(part, C), _rng())
        allocate_two_step(M, N, part, C, C0, uniform_probabilities(part), _rng())
        estimate_product_two_step(M, N, part, C, C0, _rng())
    # Only each two-step main pass builds a table: its call's fresh profile vector's, with no guide.
    assert +builds == {("table", "optimal"): 2}


def test_a_sweep_builds_one_guide_per_partition_for_the_shared_and_the_uniform_vector(builds):
    """K over two points, every method, two replications: the shared profile
    vector's and the uniform vector's tables and guides are built once per
    partition; only SSM's per-call block vectors build more tables."""
    _sweep(K=(3, 6), c=C)()
    assert builds["guide", "optimal"] == builds["guide", "uniform"] == 2
    assert builds["table", "optimal"] == builds["table", "uniform"] == 2
    assert set(+builds) == {("guide", "optimal"), ("guide", "uniform"), ("table", "optimal"), ("table", "uniform"), ("table", "explicit")}


# ---------------------------------------------------------------------------
# one scoring pass per call


@pytest.fixture
def norm_calls(monkeypatch):
    """Counts calls of the column and row norms under every name the package
    binds them to."""
    calls = Counter()
    for name in ("column_norms", "row_norms"):
        original = getattr(matrix, name)

        def counted(x, _name=name, _original=original):
            calls[_name] += 1
            return _original(x)

        for module in (matrix, plan_module, estimators, analysis, bench):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def _sweep(methods=bench.METHOD_TAGS, **knobs):
    """A ``bench.run`` sweep, by default c over three points, every method
    and two replications, on a 5 x 120 x 4 instance with K = 6."""
    config = dict(case="II", m=5, n=120, p=4, K=6, c=(C, 60, 120), c0=C0, reps=2, seed=201, record_timing=False)
    config = bench.ExperimentConfig(**{**config, "methods": methods, **knobs})
    return lambda: bench.run(config)


def _scored_calls():
    M, N, part = _instance("zero-blocks")
    onc = allocate_by_score_sums(M, N, part, C)
    two_step = estimate_product_two_step(M, N, part, C, C0, _rng(), pilot="norm").plan
    p0 = optimal_probabilities(M, N, part)
    return {
        "allocate_optimal": lambda: allocate_optimal(M, N, part, C),
        "allocate_by_score_sums": lambda: allocate_by_score_sums(M, N, part, C),
        "allocate_two_step": lambda: allocate_two_step(M, N, part, C, C0, p0, _rng()),
        "estimate_product_two_step[uniform]": lambda: estimate_product_two_step(M, N, part, C, C0, _rng()),
        "estimate_product_two_step[norm]": lambda: estimate_product_two_step(M, N, part, C, C0, _rng(), pilot="norm"),
        "bound_inputs_for_plan": lambda: bound_inputs_for_plan(M, N, onc, 0.1),
        "bound_inputs_for_plan[pilot]": lambda: bound_inputs_for_plan(M, N, two_step, 0.1),
        "expected_sq_error": lambda: expected_sq_error(M, N, onc),
        "elementwise_variance": lambda: elementwise_variance(M, N, onc),
        "cancellation_stats": lambda: cancellation_stats(M, N, part),
        # The method's three-point c sweep: its passes are shared by every row.
        **{f"bench.METHODS[{tag}]": _sweep((tag,)) for tag in ("OPL", "ONC", "ONU", "ONMCNR")},
    }


@pytest.mark.parametrize("name", list(_scored_calls()))
def test_one_scoring_pass_per_call(name, norm_calls):
    call = _scored_calls()[name]  # built before counting starts
    norm_calls.clear()
    call()
    assert norm_calls == {"column_norms": 1, "row_norms": 1}


# ---------------------------------------------------------------------------
# one probability build per plan


@pytest.fixture
def probability_builds(monkeypatch):
    """Counts builds of the optimal probabilities from a scoring pass."""
    calls = Counter()
    original = plan_module._optimal_probabilities

    def counted(*args):
        calls["built"] += 1
        return original(*args)

    for module in (plan_module, estimators, analysis):
        if hasattr(module, "_optimal_probabilities"):
            monkeypatch.setattr(module, "_optimal_probabilities", counted)
    return calls


PLAN_CALLS = [
    name for name in _scored_calls() if name not in ("expected_sq_error", "elementwise_variance", "cancellation_stats")
]


@pytest.mark.parametrize("name", PLAN_CALLS)
def test_one_probability_build_per_plan(name, probability_builds):
    call = _scored_calls()[name]
    probability_builds.clear()
    call()
    assert probability_builds == {"built": 1}


def test_the_profile_keeps_one_read_only_copy_of_its_optimal_weights():
    """OPL's sizes, ``optimal_size_weights``, ``real_optimal_budgets`` and
    the error minimum all read it, so no caller may write into it."""
    prof = plan_module._profile(*_instance("heavy"))
    w = prof.optimal_weights
    assert w is prof.optimal_weights and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


# ---------------------------------------------------------------------------
# no constructor check on what the allocators build from checked inputs


@pytest.fixture
def constructor_checks(monkeypatch):
    """Counts runs of ``BlockProbabilities.__post_init__`` and
    ``SamplingPlan.__post_init__``, the constructors' checks."""
    calls = Counter()
    for cls in (BlockProbabilities, SamplingPlan):

        def counted(self, _name=cls.__name__, _original=cls.__post_init__):
            calls[_name] += 1
            return _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


ALLOCATOR_CALLS = [*(name for name in PLAN_CALLS if not name.startswith(("bench.", "bound_"))), "allocate_uniform"]


@pytest.mark.parametrize("name", ALLOCATOR_CALLS)
def test_allocators_run_no_constructor_check(name, constructor_checks):
    """A scored plan's probabilities and every allocator's plan are built
    from checked inputs without the constructors' checks.  The call runs
    once first: a partition's uniform vector is built, and checked, once."""
    call = _product_calls()[name]
    call()
    constructor_checks.clear()
    call()
    assert not constructor_checks


@pytest.mark.parametrize("name", [name for name in _scored_calls() if name not in PLAN_CALLS or name.startswith("bound_")])
def test_analytics_build_no_probability_object(name, constructor_checks, monkeypatch):
    """The analytics read the plan's probabilities and the profile's
    optimal vector: they build no ``BlockProbabilities``, checked or not."""
    call = _scored_calls()[name]  # the plans it reads are built before counting starts
    unchecked, built = plan_module._unchecked, Counter()

    def counted(cls, **fields):
        built[cls.__name__] += 1
        return unchecked(cls, **fields)

    monkeypatch.setattr(plan_module, "_unchecked", counted)
    constructor_checks.clear()
    call()
    assert built["BlockProbabilities"] == constructor_checks["BlockProbabilities"] == 0


# ---------------------------------------------------------------------------
# two-step budgets are checked before the scoring pass and the pilot


@pytest.mark.parametrize("c, c0", [(4.7, C0), (0, C0), (121, C0), (C, 5), (C, 24.5)])
def test_two_step_checks_budgets_before_scoring(c, c0, norm_calls):
    M, N, part = _instance("normal")  # n = 120, K = 6
    p0 = uniform_probabilities(part)
    for call in (
        lambda: allocate_two_step(M, N, part, c, c0, p0, _rng()),
        lambda: estimate_product_two_step(M, N, part, c, c0, _rng()),
        lambda: estimate_product_two_step(M, N, part, c, c0, _rng(), pilot="norm"),
    ):
        norm_calls.clear()
        with pytest.raises(ValueError):
            call()
        assert not norm_calls


def test_two_step_checks_block_floors_before_the_pilot(monkeypatch):
    M, N, part = _instance("zero-blocks")  # three of six blocks score
    sketches = Counter()
    original = estimators._sketch

    def counted(*args):
        sketches["pilot"] += 1
        return original(*args)

    monkeypatch.setattr(estimators, "_sketch", counted)
    with pytest.raises(ValueError, match="block floors"):
        allocate_two_step(M, N, part, 2, C0, uniform_probabilities(part), _rng())
    with pytest.raises(ValueError, match="block floors"):
        estimate_product_two_step(M, N, part, 2, C0, _rng(), pilot="norm")
    assert not sketches


# ---------------------------------------------------------------------------
# block products: formed once per analytics call, never by the cheap plans


@pytest.fixture
def product_calls(monkeypatch):
    """Counts calls of the shared block product helper under every name the
    package binds it to."""
    calls = Counter()
    original = plan_module._block_products

    def counted(prof):
        calls["formed"] += 1
        return original(prof)

    for module in (plan_module, estimators, analysis, bench):
        if hasattr(module, "_block_products"):
            monkeypatch.setattr(module, "_block_products", counted)
    return calls


def _product_calls():
    M, N, part = _instance("zero-blocks")
    onc = allocate_by_score_sums(M, N, part, C)
    calls = _scored_calls()
    calls.update({
        "minimum_expected_sq_error": lambda: minimum_expected_sq_error(M, N, part, C),
        "allocate_uniform": lambda: allocate_uniform(part, C),
        "estimate_product": lambda: estimate_product(M, N, onc, _rng()),
    })
    return calls


FORMS_PRODUCTS = {
    "allocate_optimal",
    "bench.METHODS[OPL]",
    "bound_inputs_for_plan",
    "bound_inputs_for_plan[pilot]",
    "cancellation_stats",
    "elementwise_variance",
    "expected_sq_error",
    "minimum_expected_sq_error",
}


@pytest.mark.parametrize("name", list(_product_calls()))
def test_block_products_formed_once_or_never(name, product_calls):
    call = _product_calls()[name]
    product_calls.clear()
    call()
    assert product_calls["formed"] == (1 if name in FORMS_PRODUCTS else 0)


# ---------------------------------------------------------------------------
# a benchmark sweep: each pass once per partition, shared by every row


@pytest.mark.parametrize("sweep, partitions", [(_sweep(), 1), (_sweep(K=(4, 6, 12), c=C), 3)], ids=["c", "K"])
def test_one_pass_of_each_kind_per_partition_in_a_sweep(
    sweep, partitions, norm_calls, probability_builds, product_calls, monkeypatch
):
    """All six methods, three sweep points, two replications each.
    Uniform vectors are counted in the constructor's check, which every
    uniform vector runs and a profile's optimal vector skips."""
    block_norms, uniform = Counter(), Counter()
    original, check = bench.block_norm_probabilities, BlockProbabilities.__post_init__

    def counted(*args):
        block_norms["built"] += 1
        return original(*args)

    def counted_check(self):
        uniform["built"] += self.rule == "uniform"
        return check(self)

    monkeypatch.setattr(bench, "block_norm_probabilities", counted)
    monkeypatch.setattr(BlockProbabilities, "__post_init__", counted_check)
    sweep()
    assert norm_calls == {"column_norms": partitions, "row_norms": partitions}
    assert probability_builds == {"built": partitions}
    assert product_calls == {"formed": partitions}
    assert block_norms == {"built": partitions}
    assert uniform == {"built": partitions}


@pytest.mark.parametrize("sizes", [(20,) * 6, (30, 10, 25, 15, 40)])
def test_product_norms_match_the_block_loop(sizes):
    M, N, _ = _instance("heavy")
    part = BlockPartition(sizes)
    g = plan_module._profile(M, N, part).product_norms
    loop = [frobenius_norm(block_view(M, part, k) @ block_view(N, part, k, "rows")) for k in range(part.num_blocks)]
    np.testing.assert_allclose(g, loop, rtol=1e-13)


# ---------------------------------------------------------------------------
# the whole-block baseline: one batched block-norm pass, the bits of the loop


def _block_norm_instance(m, p, sizes, zero_block=None):
    rng = np.random.default_rng(np.random.SeedSequence(202, spawn_key=(len(sizes),)))
    part = BlockPartition(sizes)
    M, N = gen_heavy_tail_instance(m, part.total, p, rng)
    if zero_block is not None:
        M[:, part.block_slice(zero_block)] = 0.0
    return M, N, part


# (m, p, block sizes, zero block).  BLOCK_CHUNK // (m * n/K) blocks share a
# copy: 3 for 7 x 1171 blocks, so K = 7 ends in a short chunk; all 60 tiny
# blocks share one; 5 x 7001 blocks exceed a chunk and run one at a time.
# No block length is a multiple of 32.
BLOCK_NORM_CASES = {
    "short-last-chunk": (7, 3, (1171,) * 7, None),
    "one-chunk": (6, 6, (10,) * 60, None),
    "one-block-per-chunk": (5, 4, (7001,) * 3, None),
    "K=1": (4, 5, (333,), None),
    "zero-block": (7, 3, (1171,) * 7, 4),
    "unequal": (5, 4, (30, 10, 25, 15, 40), None),
    "unequal-long": (3, 2, (1, 7001, 77, 300), 2),
    "unequal-one-column": (5, 4, (30, 10, 1, 15, 40), 3),
}


@pytest.mark.parametrize("case", list(BLOCK_NORM_CASES))
def test_block_norm_probabilities_have_the_bits_of_the_block_loop(case, monkeypatch):
    M, N, part = _block_norm_instance(*BLOCK_NORM_CASES[case])
    f = np.array([
        frobenius_norm(block_view(M, part, k)) * frobenius_norm(block_view(N, part, k, "rows"))
        for k in range(part.num_blocks)
    ])
    calls = Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "norm", counted("np.linalg.norm", np.linalg.norm))
    for module in (matrix, plan_module):
        if hasattr(module, "frobenius_norm"):
            monkeypatch.setattr(module, "frobenius_norm", counted("frobenius_norm", module.frobenius_norm))
    q = block_norm_probabilities(M, N, part)
    assert q.tobytes() == (f / f.sum()).tobytes()
    assert not calls


# ---------------------------------------------------------------------------
# scale: powers of two change no bit of a plan, and extreme scales plan


def _plans(M, N, part):
    """ONC, OPL and both two-step plans, each on the same rng."""
    p0 = optimal_probabilities(M, N, part)
    return [
        allocate_by_score_sums(M, N, part, C),
        allocate_optimal(M, N, part, C),
        allocate_two_step(M, N, part, C, C0, uniform_probabilities(part), _rng()),
        allocate_two_step(M, N, part, C, C0, p0, _rng()),
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), a=st.integers(-900, 900), b=st.integers(-900, 900))
@example(kind="heavy", a=900, b=-900)  # squares overflow in M and underflow in N
@example(kind="normal", a=-200, b=200)  # inside the float range, outside NORM_RANGE
def test_plans_are_invariant_under_power_of_two_scaling(kind, a, b):
    M, N, part = _instance(kind)
    Ms, Ns = np.ldexp(M, a), np.ldexp(N, b)
    for want, got in zip(_plans(M, N, part), _plans(Ms, Ns, part)):
        assert got.probs.values.tobytes() == want.probs.values.tobytes()
        assert got.budgets.tobytes() == want.budgets.tobytes()
        assert got.notes == want.notes
    assert block_norm_probabilities(Ms, Ns, part).tobytes() == block_norm_probabilities(M, N, part).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_float32_float16_and_large_int64_factors_plan_as_their_float64_copies(kind):
    M, N, part = _instance(kind)
    rng = _rng()
    big = 4_000_000_000  # squares beyond the int64 range
    for A, B in (
        (M.astype(np.float32), N.astype(np.float32)),
        (M.astype(np.float16), N.astype(np.float16)),
        (rng.integers(-big, big, M.shape), rng.integers(-big, big, N.shape)),
    ):
        A64, B64 = A.astype(np.float64), B.astype(np.float64)
        for want, got in zip(_plans(A64, B64, part), _plans(A, B, part)):
            assert got.probs.values.tobytes() == want.probs.values.tobytes()
            assert got.budgets.tobytes() == want.budgets.tobytes()
        assert block_norm_probabilities(A, B, part).tobytes() == block_norm_probabilities(A64, B64, part).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e200, 1e-200])
def test_extreme_scales_plan(factor):
    M, N, part = _instance("heavy")
    for want, got in zip(_plans(M, N, part), _plans(M * factor, N * factor, part)):
        np.testing.assert_allclose(got.probs.values, want.probs.values, rtol=1e-12)
        assert got.total == C
    q = block_norm_probabilities(M * factor, N * factor, part)
    np.testing.assert_allclose(q, block_norm_probabilities(M, N, part), rtol=1e-12)


def _ignoring_warnings(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return f(*args)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e200, 1e-200, 1e300, 1e-300])
def test_extreme_scales_leave_the_scoring_units_without_a_warning(factor):
    """Every public output converted out of the scoring pass's units equals
    the bare np.ldexp of its scaled value, warning ignored: +-inf beyond
    float64, 0 below it."""
    M, N, part = _instance("heavy")
    Ms, Ns = M * factor, N * factor
    prof = plan_module._profile(Ms, Ns, part)
    s = _ignoring_warnings(np.ldexp, prof.sums, -prof.scale)
    g = _ignoring_warnings(np.ldexp, prof.product_norms, -prof.scale)
    w = _ignoring_warnings(np.ldexp, prof.optimal_weights, -prof.scale)
    assert score_sums(Ms, Ns, part).tobytes() == s.tobytes()
    assert [x.tobytes() for x in block_scores(Ms, Ns, part)] == [s.tobytes(), g.tobytes()]
    assert optimal_size_weights(Ms, Ns, part).tobytes() == w.tobytes()
    pilot = block_scores(M, N, part).product_norms  # pilot norms of the unscaled factors
    got = cancellation_stats(Ms, Ns, part, pilot_norms=pilot)
    ratios, cancel, _, lo, hi = analysis._cancellation(
        prof.sums, _ignoring_warnings(np.ldexp, pilot, prof.scale), exact=False
    )
    assert (got.ratios.tobytes(), got.cancel.tobytes()) == (ratios.tobytes(), cancel.tobytes())
    assert (got.cancel_lo, got.cancel_hi) == (lo, hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_factors_whose_frobenius_norm_passes_float64_plan_without_a_warning():
    rng = _rng()
    N = rng.standard_normal((1000, 4))
    M = rng.uniform(0.5, 1.0, (4, 1000)) * 1e307  # ||M||_F is past float64
    Mw = np.ldexp(M, -1020)  # the same factor a power of two lower, its norm within float64
    part = BlockPartition.equal(1000, 10)
    for allocate in (allocate_by_score_sums, allocate_optimal):
        want, got = allocate(Mw, N, part, C), allocate(M, N, part, C)
        assert got.probs.values.tobytes() == want.probs.values.tobytes()
        assert got.budgets.tobytes() == want.budgets.tobytes()
        assert 0.0 < expected_sq_error(Mw, N, want) < math.inf
        assert expected_sq_error(M, N, got) == math.inf  # 2**2040 times the value above


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_on_a_frobenius_norm_past_float64_read_inf():
    rng = _rng()
    N = rng.standard_normal((1000, 4))
    M = rng.uniform(0.5, 1.0, (4, 1000)) * 1e307  # ||M||_F is past float64
    Mw = np.ldexp(M, -1020)
    part = BlockPartition.equal(1000, 4)
    want = bound_inputs_for_plan(Mw, N, allocate_by_score_sums(Mw, N, part, C), 0.1)
    got = bound_inputs_for_plan(M, N, allocate_by_score_sums(M, N, part, C), 0.1)
    assert (got.frob_m, got.frob_n) == (math.inf, want.frob_n)
    for name in ("c", "prob_floor", "cancel_lo", "cancel_hi", "ratios"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
    for bounds in (bounds_optimal_allocation, analysis.bounds_score_allocation):
        assert all(0.0 < b < math.inf for b in bounds(want))
        assert bounds(got) == (math.inf, math.inf)
    # Where phi is 0 (floor 1, high statistic 0) the variance bound is 0, not 0 * inf.
    inp = analysis.BoundInputs(c=C, fail_prob=0.1, prob_floor=1.0, cancel_lo=0.0, cancel_hi=0.0,
                               frob_m=math.inf, frob_n=1.0)
    assert analysis.bounds_score_allocation(inp) == (0.0, math.inf)
    assert analysis.bounds_score_allocation(dataclasses.replace(inp, frob_n=0.0)) == (0.0, 0.0)
    for bad in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="frob_m"):
            dataclasses.replace(inp, frob_m=bad)
    with pytest.raises(ValueError, match="cancel_hi"):
        dataclasses.replace(inp, cancel_hi=math.inf)


@pytest.mark.parametrize("a, b", [(600, 600), (-600, -600), (600, -600), (-600, 600)])
def test_pilot_bound_inputs_are_invariant_under_power_of_two_scaling(a, b):
    M, N, part = _instance("heavy")
    Ms, Ns = np.ldexp(M, a), np.ldexp(N, b)
    for want_plan, got_plan in zip(_plans(M, N, part)[2:], _plans(Ms, Ns, part)[2:]):
        want = bound_inputs_for_plan(M, N, want_plan, 0.1)
        got = bound_inputs_for_plan(Ms, Ns, got_plan, 0.1)
        for name in ("c", "fail_prob", "prob_floor", "cancel_lo", "cancel_hi", "ratios", "cancel_hi_exact"):
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
        assert (got.frob_m, got.frob_n) == (math.ldexp(want.frob_m, a), math.ldexp(want.frob_n, b))
        # The bounds scale by 2**(2(a + b)): beyond float64 they read inf, below it 0.
        for bounds in (bounds_optimal_allocation, bounds_pilot_allocation):
            for w, g in zip(bounds(want), bounds(got)):
                assert g == pytest.approx(math.inf if a + b > 0 else 0.0 if a + b < 0 else w, rel=1e-14)


def test_replaced_two_step_plans_keep_or_take_the_pilot_norms():
    M, N, part = _instance("heavy")
    Ms, Ns = np.ldexp(M, 600), np.ldexp(N, 600)
    plan = _plans(Ms, Ns, part)[3]
    assert np.isinf(plan.pilot_norms).all()  # beyond float64 in the caller's units
    want = bound_inputs_for_plan(Ms, Ns, plan, 0.1)
    kept = bound_inputs_for_plan(Ms, Ns, dataclasses.replace(plan, method="renamed"), 0.1)
    for name in ("cancel_lo", "cancel_hi", "ratios"):
        assert np.asarray(getattr(kept, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
    plan = _plans(M, N, part)[3]
    moved = dataclasses.replace(plan, pilot_norms=plan.pilot_norms * 0.5)
    np.testing.assert_array_equal(moved.pilot_norms, plan.pilot_norms * 0.5)
    np.testing.assert_array_equal(
        bound_inputs_for_plan(M, N, moved, 0.1).ratios, bound_inputs_for_plan(M, N, plan, 0.1).ratios * 0.5
    )
