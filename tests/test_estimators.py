"""Estimator tests: exactness in degenerate regimes, enumeration-backed
distribution checks, Monte Carlo unbiasedness, and audit-log consistency."""

import copy
import csv
import gc
import pickle
import re
import types
from collections import Counter
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blockmm import (
    BlockPartition,
    BlockProbabilities,
    SamplingPlan,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_two_step,
    allocate_uniform,
    block_norm_probabilities,
    estimate_product,
    estimate_product_block_sampling,
    estimate_product_two_step,
    integerize,
    optimal_probabilities,
    sketch_columns,
    uniform_probabilities,
)
from blockmm import estimators
from blockmm.bench import METHODS, _share
from blockmm.matrix import write_csv
from oracles import (
    block_outcomes,
    blockwise_mean_var,
    hand_optimal_probs,
    joint_mean_var,
    outcome_mean_var,
)


def tiny_instance(seed=7, m=2, n=4, p=2):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    N = rng.standard_normal((n, p))
    return M, N


# ---------------------------------------------------------------------------
# sketch_columns


def test_sketch_one_hot_prob_is_exact():
    rng = np.random.default_rng(0)
    Mb = rng.standard_normal((3, 4))
    Nb = rng.standard_normal((4, 2))
    probs = np.array([0.0, 1.0, 0.0, 0.0])
    exact = np.outer(Mb[:, 1], Nb[1, :])
    for count in (1, 3, 8):
        C, D, rec = sketch_columns(Mb, Nb, count, probs, np.random.default_rng(count))
        assert C.shape == (3, count) and D.shape == (count, 2)
        assert C.flags.c_contiguous and D.flags.c_contiguous  # row-major, like every sketch
        assert (rec.column == 1).all()
        np.testing.assert_allclose(C @ D, exact, rtol=0, atol=1e-12)


def test_sketch_single_column_block_is_exact():
    rng = np.random.default_rng(1)
    Mb = rng.standard_normal((3, 1))
    Nb = rng.standard_normal((1, 5))
    C, D, _ = sketch_columns(Mb, Nb, 4, np.array([1.0]), rng)
    np.testing.assert_allclose(C @ D, Mb @ Nb, rtol=0, atol=1e-12)


def test_sketch_two_column_outcome_set_and_frequency():
    # n=2, one draw: the estimate must be one of exactly two matrices, with
    # empirical frequencies matching the probabilities.
    Mb = np.array([[1.0, -2.0], [0.5, 3.0]])
    Nb = np.array([[2.0, 1.0], [-1.0, 4.0]])
    probs = np.array([0.6, 0.4])
    outcomes = block_outcomes(Mb, Nb, 1, probs)
    assert len(outcomes) == 2
    mean, _ = outcome_mean_var(outcomes)
    np.testing.assert_allclose(mean, Mb @ Nb, rtol=0, atol=1e-12)

    hits = np.zeros(2)
    reps = 400
    for s in range(reps):
        _, _, rec = sketch_columns(Mb, Nb, 1, probs, np.random.default_rng(1000 + s))
        C, D, _ = sketch_columns(Mb, Nb, 1, probs, np.random.default_rng(1000 + s))
        est = C @ D
        matched = [
            j for j, (_, out) in enumerate(outcomes) if np.allclose(est, out, atol=1e-12)
        ]
        assert len(matched) == 1
        hits[matched[0]] += 1
        assert rec.column[0] in (0, 1)
    freq = hits[0] / reps
    assert abs(freq - 0.6) < 4 * np.sqrt(0.6 * 0.4 / reps)


def test_sketch_scales_and_record_agree():
    rng = np.random.default_rng(2)
    Mb = rng.standard_normal((4, 6))
    Nb = rng.standard_normal((6, 3))
    probs = hand_optimal_probs(Mb, Nb)
    count = 9
    C, D, rec = sketch_columns(Mb, Nb, count, probs, rng)
    for t in range(count):
        i = rec.column[t]
        assert rec.scale[t] == pytest.approx(1.0 / np.sqrt(count * probs[i]), rel=1e-12)
        assert rec.prob[t] == probs[i]
        np.testing.assert_array_equal(C[:, t], Mb[:, i] * rec.scale[t])
        np.testing.assert_array_equal(D[t, :], Nb[i, :] * rec.scale[t])


def test_sketch_never_draws_zero_probability_columns():
    rng = np.random.default_rng(3)
    Mb = rng.standard_normal((2, 5))
    Nb = rng.standard_normal((5, 2))
    probs = np.array([0.5, 0.0, 0.25, 0.0, 0.25])
    _, _, rec = sketch_columns(Mb, Nb, 200, probs, rng)
    assert set(np.unique(rec.column)) <= {0, 2, 4}


def test_sketch_input_validation():
    rng = np.random.default_rng(4)
    Mb = rng.standard_normal((2, 3))
    Nb = rng.standard_normal((3, 2))
    ok = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        sketch_columns(Mb, Nb, 0, ok, rng)
    with pytest.raises(ValueError):
        sketch_columns(Mb, Nb, 2, np.full(4, 0.25), rng)
    with pytest.raises(ValueError):
        sketch_columns(Mb, Nb, 2, np.array([0.5, 0.3, 0.1]), rng)
    with pytest.raises(ValueError):
        sketch_columns(Mb, Nb, 2, np.array([0.5, 0.7, -0.2]), rng)
    with pytest.raises(ValueError):
        sketch_columns(Mb, Nb[:2], 2, ok, rng)
    with pytest.raises(ValueError):
        sketch_columns(Mb, Nb, 2, np.zeros(3), rng)


def test_non_finite_or_all_zero_probabilities_are_rejected():
    rng = np.random.default_rng(5)
    Mb, Nb = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
    M, N = tiny_instance(32, m=3, n=6, p=2)
    part = BlockPartition.equal(6, 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            sketch_columns(Mb, Nb, 4, [bad, 0.5, 0.5], rng)
        with pytest.raises(ValueError, match="finite"):
            estimate_product_block_sampling(M, N, part, 2, rng, probs=[0.5, 0.5, bad])
    with pytest.raises(ValueError, match="all zero"):
        estimate_product_block_sampling(M, N, part, 2, rng, probs=np.zeros(3))


# ---------------------------------------------------------------------------
# estimate_product


def test_estimate_shapes_and_block_sum():
    M, N = tiny_instance(11, m=3, n=8, p=4)
    part = BlockPartition.equal(8, 4)
    plan = allocate_optimal(M, N, part, c=6)
    pair, product, log = estimate_product(M, N, plan, np.random.default_rng(5))
    assert pair.C.shape == (3, plan.total)
    assert pair.D.shape == (plan.total, 4)
    off = pair.offsets
    summed = sum(pair.C[:, off[k] : off[k + 1]] @ pair.D[off[k] : off[k + 1]] for k in range(4))
    np.testing.assert_allclose(product, summed, rtol=0, atol=1e-12)
    assert len(log) == plan.total
    # log columns are global indices inside each block's slice
    for b, i in zip(log.block, log.column):
        assert part.offsets[b] <= i < part.offsets[b + 1]


def test_estimate_exact_when_every_block_is_one_column():
    M, N = tiny_instance(12, m=3, n=5, p=4)
    part = BlockPartition(sizes=(1, 1, 1, 1, 1))
    plan = allocate_uniform(part, 5)
    assert tuple(plan.budgets) == (1, 1, 1, 1, 1)
    _, product, log = estimate_product(M, N, plan, np.random.default_rng(6))
    np.testing.assert_array_equal(product, M @ N)
    assert (log.scale == 1.0).all()


def test_estimate_mean_matches_full_enumeration():
    M, N = tiny_instance(13, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    probs = optimal_probabilities(M, N, part)
    plan = SamplingPlan(part, probs, np.array([2, 1]), method="OPL")
    mean_b, var_b = blockwise_mean_var(M, N, part.sizes, (2, 1), probs.per_block)
    mean_j, var_j = joint_mean_var(M, N, part.sizes, (2, 1), probs.per_block)
    # the independent-blocks shortcut agrees with the full product measure
    np.testing.assert_allclose(mean_b, mean_j, rtol=0, atol=1e-12)
    np.testing.assert_allclose(var_b, var_j, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mean_b, M @ N, rtol=0, atol=1e-12)
    # and the sampler really draws from that distribution: every realized
    # estimate appears in the enumerated outcome set
    per_block = [block_outcomes(M[:, :2], N[:2], 2, probs.per_block[0]),
                 block_outcomes(M[:, 2:], N[2:], 1, probs.per_block[1])]
    combos = [b1 + b2 for _, b1 in per_block[0] for _, b2 in per_block[1]]
    for s in range(60):
        _, est, _ = estimate_product(M, N, plan, np.random.default_rng(40 + s))
        assert any(np.allclose(est, c, atol=1e-12) for c in combos)


def test_estimate_monte_carlo_unbiased():
    M, N = tiny_instance(14, m=3, n=6, p=3)
    part = BlockPartition.equal(6, 2)
    plan = allocate_optimal(M, N, part, c=4)
    rng = np.random.default_rng(7)
    reps = 200_000
    acc = np.zeros((3, 3))
    acc_sq = np.zeros((3, 3))
    for _ in range(reps):
        _, est, _ = estimate_product(M, N, plan, rng)
        acc += est
        acc_sq += est**2
    mean = acc / reps
    se = np.sqrt((acc_sq / reps - mean**2) / reps)
    within = np.abs(mean - M @ N) <= 4 * se
    assert within.mean() >= 0.99


def test_estimate_deterministic_per_seed():
    M, N = tiny_instance(15, m=3, n=8, p=2)
    part = BlockPartition.equal(8, 4)
    plan = allocate_optimal(M, N, part, c=8)
    pair1, prod1, log1 = estimate_product(M, N, plan, np.random.default_rng(99))
    pair2, prod2, log2 = estimate_product(M, N, plan, np.random.default_rng(99))
    np.testing.assert_array_equal(prod1, prod2)
    np.testing.assert_array_equal(pair1.C, pair2.C)
    np.testing.assert_array_equal(log1.column, log2.column)
    np.testing.assert_array_equal(log1.scale, log2.scale)
    _, prod3, _ = estimate_product(M, N, plan, np.random.default_rng(100))
    assert not np.array_equal(prod1, prod3)


def test_estimate_skips_zero_budget_blocks():
    M, N = tiny_instance(16, m=2, n=6, p=2)
    M = M.copy()
    N = N.copy()
    M[:, 2:4] = 0.0  # middle block contributes nothing
    part = BlockPartition.equal(6, 3)
    plan = allocate_optimal(M, N, part, c=4)
    assert plan.budgets[1] == 0
    _, product, log = estimate_product(M, N, plan, np.random.default_rng(8))
    assert set(np.unique(log.block)) <= {0, 2}
    assert len(log) == plan.total
    assert np.isfinite(product).all()
    # the dead block caps at zero draws, so an over-large budget is infeasible
    with pytest.raises(ValueError):
        allocate_optimal(M, N, part, c=5)


def test_integer_factors_sample_like_their_float_copies():
    rng = np.random.default_rng(21)
    M, N = rng.integers(-9, 10, (3, 12)), rng.integers(-9, 10, (12, 4))
    part = BlockPartition.equal(12, 3)
    plan = allocate_by_score_sums(M, N, part, 6)
    for run in (
        lambda A, B: estimate_product(A, B, plan, np.random.default_rng(4))[1],
        lambda A, B: estimate_product_two_step(A, B, part, 6, 6, np.random.default_rng(4), pilot="norm").product,
    ):
        got, want = run(M, N), run(M.astype(np.float64), N.astype(np.float64))
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_estimate_all_zero_plan():
    M, N = tiny_instance(16, m=2, n=6, p=3)
    part = BlockPartition.equal(6, 3)
    plan = SamplingPlan(part, BlockProbabilities(np.zeros(6), part), np.zeros(3, dtype=np.int64))
    pair, product, log = estimate_product(M, N, plan, np.random.default_rng(8))
    np.testing.assert_array_equal(product, np.zeros((2, 3)))
    assert pair.C.shape == (2, 0) and pair.D.shape == (0, 3)
    np.testing.assert_array_equal(pair.offsets, np.zeros(4))
    assert len(log) == 0
    for field, dtype in zip((log.block, log.draw, log.column, log.prob, log.scale), ["int64"] * 3 + ["float64"] * 2):
        assert field.shape == (0,) and field.dtype == dtype


def test_sample_log_csv(tmp_path):
    M, N = tiny_instance(17, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    plan = allocate_uniform(part, 4)
    _, _, log = estimate_product(M, N, plan, np.random.default_rng(9))
    path = tmp_path / "draws.csv"
    header = ["rep", "block", "draw", "column_index", "probability", "scale"]
    columns = (log.block, log.draw, log.column, log.prob, log.scale)
    write_csv(path, header, ([3, *row] for row in zip(*(a.tolist() for a in columns))))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) == 1 + len(log)
    for row, b, d, i, p, s in zip(rows[1:], log.block, log.draw, log.column, log.prob, log.scale):
        assert row[0] == "3"
        assert int(row[1]) == b and int(row[2]) == d and int(row[3]) == i
        assert float(row[4]) == p and float(row[5]) == s


# ---------------------------------------------------------------------------
# two-step estimator


def test_two_step_reproducible_and_tagged():
    M, N = tiny_instance(18, m=3, n=8, p=3)
    part = BlockPartition.equal(8, 2)
    r1 = estimate_product_two_step(M, N, part, c=6, c0=4, rng=np.random.default_rng(21))
    r2 = estimate_product_two_step(M, N, part, c=6, c0=4, rng=np.random.default_rng(21))
    np.testing.assert_array_equal(r1.product, r2.product)
    assert tuple(r1.plan.budgets) == tuple(r2.plan.budgets)
    assert r1.plan.method == "ONU"
    r3 = estimate_product_two_step(
        M, N, part, c=6, c0=4, rng=np.random.default_rng(21), pilot="norm"
    )
    assert r3.plan.method == "ONMCNR"
    with pytest.raises(ValueError):
        estimate_product_two_step(M, N, part, c=6, c0=4, rng=np.random.default_rng(1), pilot="x")
    with pytest.raises(ValueError):
        estimate_product_two_step(M, N, part, c=6, c0=1, rng=np.random.default_rng(1))


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64]
ENTROPY = st.one_of(
    st.just(0),
    st.integers(1, 2**32),
    st.integers(2**64, 2**200),
    st.lists(st.integers(0, 2**70), max_size=10),
    arrays(np.uint32, st.integers(0, 12)),
    st.none(),  # OS entropy, as default_rng() draws it
)


PER_BLOCK = estimators._PASS_MAX_MEAN_DRAWS + 1  # one draw per block past the vectorized pass's mean bound


def _uniforms(rng, K):
    """``rng``'s uniforms for K blocks of ``PER_BLOCK`` draws, where each
    block draws on a generator of its own."""
    counts = np.full(K, PER_BLOCK)
    return estimators._block_uniforms(rng, counts, estimators._layout(counts))


def _drawn_on(children, counts):
    """The first ``counts[k]`` uniforms of ``children[k]``, block after block."""
    return np.concatenate([np.empty(0), *(g.random(c) for g, c in zip(children, counts))])


def _same_uniforms(got, children):
    """``got`` holds the first ``PER_BLOCK`` uniforms of every child in turn."""
    assert got.dtype == np.float64 and got.tobytes() == _drawn_on(children, [PER_BLOCK] * len(children)).tobytes()


def _same_streams(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b) and type(a.bit_generator) is type(b.bit_generator)
        assert a.bit_generator.random_raw(5).tobytes() == b.bit_generator.random_raw(5).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    entropy=ENTROPY,
    spawn_key=st.lists(st.integers(0, 2**70), max_size=12).map(tuple),  # empty, long, words >= 2**32
    pool_size=st.sampled_from([4, 8]),
    spawned=st.sampled_from([0, 1, 3, 2**32 - 16]),  # numpy's spawn counter is 32 bits
    bits=st.sampled_from(BIT_GENERATORS),
    K=st.integers(0, 12),
)
def test_spawn_draws_what_rng_spawn_draws(entropy, spawn_key, pool_size, spawned, bits, K):
    seed = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned)
    rng = np.random.Generator(bits(seed))
    rng.spawn(2)  # a parent that has already spawned children
    # A child of rng.spawn(2) is a parent too, as the two-step split uses it.
    # Each twin is taken before its call: every split moves the counter.
    twin = copy.deepcopy(rng)
    _same_uniforms(_uniforms(copy.deepcopy(rng).spawn(2)[1], K), twin.spawn(2)[1].spawn(K))
    # The caller: the same streams, and the caller left as spawn leaves it.
    twin, before = copy.deepcopy(rng), seed.n_children_spawned
    _same_uniforms(_uniforms(rng, K), twin.spawn(K))
    assert seed.n_children_spawned == before + K
    _same_caller(rng, twin)


def _same_caller(rng, twin):
    """The caller's SeedSequence equals its twin's field for field and in
    its pickle (which catches a change in numpy's state layout), and the
    two draw the same from here on (one more child: the counter may be
    2**32 - 2, and numpy's spawn never returns past 2**32 - 1)."""
    a, b = rng.bit_generator.seed_seq, twin.bit_generator.seed_seq
    assert type(a.entropy) is type(b.entropy) and np.array_equal(a.entropy, b.entropy)
    assert (a.spawn_key, a.pool_size, a.n_children_spawned) == (b.spawn_key, b.pool_size, b.n_children_spawned)
    assert a.pool.dtype == b.pool.dtype and a.pool.tobytes() == b.pool.tobytes()
    assert pickle.dumps(a) == pickle.dumps(b)
    _same_streams(rng.spawn(1), twin.spawn(1))
    assert rng.random(4).tobytes() == twin.random(4).tobytes()


def _holds_seed_sequence(obj, depth=4) -> bool:
    """Whether obj is, or refers to within ``depth`` steps, a SeedSequence
    (classes and modules are not followed)."""
    if isinstance(obj, np.random.SeedSequence):
        return True
    return depth > 0 and any(
        _holds_seed_sequence(x, depth - 1) for x in gc.get_referents(obj) if not isinstance(x, (type, types.ModuleType))
    )


RANDOM_TYPES = (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator)


def _alive():
    return Counter(t.__name__ for x in gc.get_objects() for t in RANDOM_TYPES if isinstance(x, t))


class Draw(NamedTuple):
    """One ``_sketch`` call: its uniforms, what was alive when it started,
    what was alive when the vectorized pass made the uniforms (None when no
    pass ran), and the ``RowSeed`` of every generator seeded from the hashed
    words."""

    u: np.ndarray
    at_sketch: Counter
    at_pass: Optional[Counter]
    seeds: list

    @property
    def path(self) -> str:
        return "pass" if self.at_pass is not None else "seeded" if self.seeds else "spawned"


@pytest.fixture
def sketch_calls(monkeypatch):
    """Each ``_sketch`` call as a ``Draw``, with the SeedSequences, bit
    generators and Generators alive at its points.  No cyclic collection
    runs during the test, so what is alive changes only by what it does."""
    calls, passes, seeds = [], [], []
    sketch, uniforms, RowSeed = estimators._sketch, estimators._pcg64_uniforms, estimators._row_seed()

    class Recorded(RowSeed):
        __slots__ = ()

        def __init__(self, row):
            super().__init__(row)
            seeds.append(self)

    def vectorized(*args):
        passes.append(_alive())
        return uniforms(*args)

    def recorded(*args):
        calls.append(Draw(args[-1], _alive(), passes.pop() if passes else None, seeds[:]))
        seeds.clear()
        return sketch(*args)

    monkeypatch.setattr(estimators, "_sketch", recorded)
    monkeypatch.setattr(estimators, "_pcg64_uniforms", vectorized)
    monkeypatch.setattr(estimators, "_row_seed", lambda: Recorded)
    gc.collect()
    gc.disable()
    try:
        yield calls
    finally:
        gc.enable()


def test_a_callers_streams_build_no_child_seed_sequence(sketch_calls):
    """estimate_product on default_rng(int) at K = 60, and the caller's
    counter moves by K.  At 17 draws per block each block draws on a
    generator seeded from the hashed words: no seed is, or holds, a
    SeedSequence, and no generator is left alive when the lookup starts.
    At 2 draws per block the uniforms are one vectorized pass, which builds
    no SeedSequence, bit generator or Generator at all."""
    M, N = tiny_instance(24, m=3, n=1200, p=3)
    for c in (1020, 120):
        sketch_calls.clear()
        plan = allocate_by_score_sums(M, N, BlockPartition.equal(1200, 60), c)
        rng, twin = np.random.default_rng(25), np.random.default_rng(25)
        before = _alive()
        got = estimate_product(M, N, plan, rng)
        (draw,) = sketch_calls
        assert _alive()["SeedSequence"] == before["SeedSequence"]
        assert draw.at_sketch == before
        if c == 1020:
            assert draw.path == "seeded" and len(draw.seeds) == 60
            assert not any(_holds_seed_sequence(seed) for seed in draw.seeds)
        else:
            assert draw.path == "pass" and draw.at_pass == before
        assert rng.bit_generator.seed_seq.n_children_spawned == 60
        pair, _ = estimators._sketch(M, N, plan.probs, plan.budgets, estimators._layout(plan.budgets), _drawn_on(twin.spawn(60), plan.budgets))
        assert got[1].tobytes() == (pair.C @ pair.D).tobytes()
        _same_caller(rng, twin)


class _SubclassSeed(np.random.SeedSequence):
    """A SeedSequence subclass whose state words are its base class's,
    inverted: a stream seeded by a plain SeedSequence child, or by words
    hashed from the pool, draws other uniforms than the subclass's child."""

    def generate_state(self, n_words, dtype=np.uint32):
        return ~super().generate_state(n_words, dtype)


class _WordsOnly(np.random.bit_generator.ISeedSequence):
    """A seed sequence that cannot spawn."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.arange(1, n_words + 1, dtype=dtype)


class _NoSpawn(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError("spawned")


def _split(rng, counts):
    """``rng``'s uniforms for ``counts`` draws per block, and the path that
    split them: "pass" (the vectorized PCG64 pass), "seeded" (generators
    seeded from the hashed words) or "spawned" (``rng.spawn``'s children)."""
    with (
        mock.patch.object(estimators, "_pcg64_uniforms", wraps=estimators._pcg64_uniforms) as vectorized,
        mock.patch.object(estimators, "_row_seed", wraps=estimators._row_seed) as seeded,
    ):
        got = estimators._block_uniforms(rng, counts, estimators._layout(counts))
    return got, "pass" if vectorized.called else "seeded" if seeded.called else "spawned"


def test_a_callers_mutable_or_other_seed_sequence_is_spawned():
    """A list or array entropy, one changed after the pool was mixed, a
    list in the spawn key, and a SeedSequence subclass, on every bit
    generator: the block uniforms are split by rng.spawn, not by the hashed
    words, on the pass's shape (60 blocks of 2 draws) and past its bound
    (7 blocks of 17).  They are what rng.spawn's children draw, with the
    subclass's children, and the caller is left as spawn leaves it.  An int
    entropy on PCG64 takes the hashed words, so the spies see either path."""
    changed_list, changed_array, key_word = [5, 6], np.array([5, 6], np.uint32), [3]
    seeds = [
        np.random.SeedSequence([5, 2**40]),
        np.random.SeedSequence(np.array([5, 6], np.uint32), spawn_key=(1, 2)),
        np.random.SeedSequence(changed_list, n_children_spawned=3),
        np.random.SeedSequence(changed_array),
        np.random.SeedSequence(5, spawn_key=(key_word,)),
        _SubclassSeed(5, spawn_key=(2,)),
        np.random.SeedSequence(5, spawn_key=(1, 2)),
    ]
    changed_list.append(7)
    changed_array[0] = 9
    key_word[0] = 4
    for seed in seeds:
        for bits in BIT_GENERATORS:
            for counts, hashed in ((np.full(7, PER_BLOCK), "seeded"), (np.full(60, 2), "pass")):
                rng = np.random.Generator(bits(copy.deepcopy(seed)))
                twin = copy.deepcopy(rng)
                got, path = _split(rng, counts)
                assert path == (hashed if seed is seeds[-1] and bits is np.random.PCG64 else "spawned")
                assert got.tobytes() == _drawn_on(twin.spawn(len(counts)), counts).tobytes()
                _same_caller(rng, twin)


def test_own_streams_of_other_seed_sequences_do_what_spawn_does():
    """A caller's block streams and the two-step split both do what spawn
    does: a SeedSequence subclass gets the subclass's children, and a seed
    sequence that cannot spawn fails as spawn fails."""
    rng = np.random.Generator(np.random.PCG64(_SubclassSeed(5, spawn_key=(2,))))
    twin = copy.deepcopy(rng)
    got, children = _uniforms(rng, 4), twin.spawn(4)
    assert all(type(g.bit_generator.seed_seq) is _SubclassSeed for g in children)
    _same_uniforms(got, children)
    plain = [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(5, spawn_key=(2,)).spawn(4)]
    assert got.tobytes() != _drawn_on(plain, [PER_BLOCK] * 4).tobytes()
    _same_caller(rng, twin)
    rng = np.random.Generator(np.random.PCG64(_WordsOnly()))
    with pytest.raises(TypeError) as spawned:
        rng.spawn(3)
    with pytest.raises(TypeError, match=f"^{re.escape(str(spawned.value))}$"):
        _uniforms(rng, 3)
    M, N = tiny_instance(26, m=2, n=4, p=2)
    with pytest.raises(TypeError, match=f"^{re.escape(str(spawned.value))}$"):
        estimate_product_two_step(M, N, BlockPartition.equal(4, 2), 2, 2, rng)


def test_a_spawn_past_the_32_bit_counter_is_rejected_untouched():
    """numpy's spawn never returns once n_children_spawned + K reaches
    2**32; every call that splits a caller's rng raises first, and leaves
    the rng as it was.  The subclass's spawn fails loudly, so a missed
    check cannot reach numpy's."""
    M, N = tiny_instance(26, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    calls = [
        lambda r: _uniforms(r, 2),
        lambda r: estimate_product(M, N, allocate_uniform(part, 2), r),
        lambda r: allocate_two_step(M, N, part, 2, 2, None, r),
        lambda r: estimate_product_two_step(M, N, part, 2, 2, r),
    ]
    for make in (np.random.SeedSequence, _NoSpawn):
        for call in calls:
            seed = make(7, spawn_key=(1,), n_children_spawned=2**32 - 2)
            rng = np.random.default_rng(seed)
            pool, state = seed.pool.copy(), rng.bit_generator.state
            with pytest.raises(ValueError, match=r"n_children_spawned=4294967294: 2 more children"):
                call(rng)
            assert seed.n_children_spawned == 2**32 - 2 and (seed.pool == pool).all()
            assert rng.bit_generator.state == state
    # One short of the bound still splits.
    rng = np.random.default_rng(np.random.SeedSequence(7, n_children_spawned=2**32 - 3))
    twin = copy.deepcopy(rng)
    _same_uniforms(_uniforms(rng, 2), twin.spawn(2))
    assert rng.bit_generator.seed_seq.n_children_spawned == 2**32 - 1


def test_spawn_of_a_default_rng_and_of_its_spawned_children():
    rng = np.random.default_rng()
    for r in (rng, *rng.spawn(2), np.random.default_rng(201).spawn(2)[1]):
        twin = copy.deepcopy(r)
        _same_uniforms(_uniforms(r, 60), twin.spawn(60))
        _same_caller(r, twin)


def _assert_pass_draws_what_spawn_draws(rng, twin, counts):
    """The vectorized PCG64 uniforms of rng's K = len(counts) streams equal
    ``twin.spawn(K)[k].random(counts[k])``, block after block."""
    counts = np.array(counts, dtype=np.int64)
    words = estimators._pcg64_words(rng, counts.size)
    block = np.repeat(np.arange(counts.size), counts)
    draw = np.concatenate([np.arange(c) for c in counts])
    want = np.concatenate([g.random(c) for g, c in zip(twin.spawn(counts.size), counts)])
    assert estimators._pcg64_uniforms(words, block, draw).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    entropy=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**64, 2**200)),
    spawn_key=st.lists(st.integers(0, 2**70), max_size=6).map(tuple),  # words >= 2**32
    pool_size=st.sampled_from([4, 8]),
    spawned=st.sampled_from([0, 3, 2**32 - 300]),  # numpy's spawn counter is 32 bits
    counts=st.lists(st.integers(0, 64), min_size=1, max_size=128),
    child=st.booleans(),
)
def test_the_pcg64_pass_draws_what_spawned_generators(entropy, spawn_key, pool_size, spawned, counts, child):
    """On a caller's PCG64 rng, and on a child of its rng.spawn(2), as a
    two-step plan's main pass splits it."""
    seed = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=spawned)
    rng = np.random.Generator(np.random.PCG64(seed))
    twin = copy.deepcopy(rng)
    if child:
        rng, twin = rng.spawn(2)[1], twin.spawn(2)[1]
    _assert_pass_draws_what_spawn_draws(rng, twin, counts)


def test_the_pcg64_pass_extends_its_jumps_per_call():
    """A block of more draws than the kept jumps: the table is doubled for
    the call, and the kept one stays as it was."""
    kept = estimators._kept_jumps()
    n = 3 * estimators._KEPT_JUMPS
    G, want = estimators._jumps(n), [0]
    for _ in range(G.shape[1] - 1):
        want.append((want[-1] * estimators._PCG_MULT + 1) % 2**128)
    assert G.shape[1] >= n and [int(hi) << 64 | int(lo) for hi, lo in G.T] == want
    assert estimators._kept_jumps() is kept and kept.shape == (2, estimators._KEPT_JUMPS)
    rng = np.random.default_rng(5)
    _assert_pass_draws_what_spawn_draws(rng, copy.deepcopy(rng), [0, n, 1, estimators._KEPT_JUMPS - 1])


def _paths(sketch_calls, call, rng):
    """The path of each ``_sketch`` in ``call(rng)``, and whether any
    SeedSequence, bit generator or Generator beyond those alive before the
    call was alive when the first vectorized pass, or else the first
    lookup, started."""
    sketch_calls.clear()
    before = _alive()
    call(rng)
    first = sketch_calls[0]
    return [d.path for d in sketch_calls], (first.at_sketch if first.at_pass is None else first.at_pass) != before


def test_the_pcg64_pass_is_taken_by_its_rule_only(sketch_calls):
    """On the tiny-many-blocks shape (K = 60, 4 draws and 2 pilot draws per
    block) a PCG64 caller with an int seed takes the vectorized pass, which
    builds no bit generator beyond the caller's, in estimate_product and in
    both passes of the two-step estimate.  Other bit generators and a list
    entropy are spawned; the desk shape (K = 10, 200 draws per block) and
    plans just past either bound draw on generators seeded from the hashed
    words.  No path leaves a generator alive when the lookup starts."""
    M, N = tiny_instance(27, m=6, n=600, p=6)
    part = BlockPartition.equal(600, 60)
    onc = allocate_by_score_sums(M, N, part, 240)

    def one(r):
        return estimate_product(M, N, onc, r)

    def two_step(r):
        return estimate_product_two_step(M, N, part, 240, 120, r)

    assert _paths(sketch_calls, one, np.random.default_rng(7)) == (["pass"], False)
    assert _paths(sketch_calls, two_step, np.random.default_rng(7))[0] == ["pass", "pass"]
    for bits in (np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64):
        assert _paths(sketch_calls, one, np.random.Generator(bits(7))) == (["spawned"], False)
        assert _paths(sketch_calls, two_step, np.random.Generator(bits(7)))[0] == ["spawned"] * 2
    assert _paths(sketch_calls, one, np.random.default_rng([7, 8])) == (["spawned"], False)
    assert _paths(sketch_calls, two_step, np.random.default_rng([7, 8]))[0] == ["spawned"] * 2

    M, N = tiny_instance(28, m=2, n=2000, p=2)
    desk = allocate_by_score_sums(M, N, BlockPartition.equal(2000, 10), 2000)
    assert _paths(sketch_calls, lambda r: estimate_product(M, N, desk, r), np.random.default_rng(7)) == (["seeded"], False)
    for K, c, path in ((32, 512, "pass"), (32, 513, "seeded"), (31, 31 * 16, "seeded")):
        M, N = tiny_instance(29, m=2, n=20 * K, p=2)
        plan = allocate_uniform(BlockPartition.equal(20 * K, K), c)
        assert _paths(sketch_calls, lambda r: estimate_product(M, N, plan, r), np.random.default_rng(7))[0] == [path]


class _SqrtRandom(np.random.Generator):
    """A Generator whose uniforms are the square roots of its bit
    generator's."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.sqrt(super().random(size, dtype, out))


def test_a_generator_subclass_draws_what_its_spawned_children_draw():
    """A Generator subclass that overrides random gets rng.spawn(K)'s
    children, which draw with the override, on the pass shape (K = 60, 2
    draws per block) and on the desk shape (K = 10, 200 per block): its
    estimate does not depend on which path the plan's shape would pick."""
    for n, K, c in ((1200, 60, 120), (2000, 10, 2000)):
        M, N = tiny_instance(30, m=3, n=n, p=3)
        plan = allocate_by_score_sums(M, N, BlockPartition.equal(n, K), c)
        rng, twin = _SqrtRandom(np.random.PCG64(7)), _SqrtRandom(np.random.PCG64(7))
        got = estimate_product(M, N, plan, rng)
        children = twin.spawn(K)
        assert all(type(g) is _SqrtRandom for g in children)
        pair, _ = estimators._sketch(M, N, plan.probs, plan.budgets, estimators._layout(plan.budgets), _drawn_on(children, plan.budgets))
        assert got[1].tobytes() == (pair.C @ pair.D).tobytes()
        _same_caller(rng, twin)


class _KeepsChildren(np.random.Generator):
    """A Generator that keeps the children its ``spawn`` returns."""

    def spawn(self, n_children):
        self.children = super().spawn(n_children)
        return self.children


def test_other_bit_generators_draw_on_rng_spawns_own_children(sketch_calls):
    """PCG64DXSM, MT19937, Philox and SFC64 callers draw on the children
    rng.spawn(K) makes, each with its own child SeedSequence, at 2 and at
    17 draws per block (K = 60)."""
    M, N = tiny_instance(31, m=3, n=1200, p=3)
    for c in (120, 1020):
        plan = allocate_by_score_sums(M, N, BlockPartition.equal(1200, 60), c)
        for bits in BIT_GENERATORS[1:]:
            sketch_calls.clear()
            rng, twin = _KeepsChildren(bits(7)), _KeepsChildren(bits(7))
            got = estimate_product(M, N, plan, rng)
            (draw,) = sketch_calls
            children = twin.spawn(60)
            assert draw.path == "spawned" and [type(g.bit_generator) for g in rng.children] == [bits] * 60
            seeds = [pickle.dumps(g.bit_generator.seed_seq) for g in rng.children]
            assert seeds == [pickle.dumps(g.bit_generator.seed_seq) for g in children]
            assert draw.u.tobytes() == _drawn_on(children, plan.budgets).tobytes()
            pair, _ = estimators._sketch(M, N, plan.probs, plan.budgets, estimators._layout(plan.budgets), draw.u)
            assert got[1].tobytes() == (pair.C @ pair.D).tobytes()
            _same_caller(rng, twin)


def test_the_two_step_pilot_and_main_streams_are_rng_spawns_children(monkeypatch):
    """estimate_product_two_step splits the caller's rng with
    rng.spawn(2): the pilot's block streams are split from the first
    child and the main pass's from the second, each an ordinary
    Generator over its own child SeedSequence, on the pass shape (K = 60)
    and the desk shape (K = 10), with either pilot."""
    split = []
    block_uniforms = estimators._block_uniforms

    def recorded(rng, counts, layout):
        split.append((type(rng), type(rng.bit_generator), pickle.dumps(rng.bit_generator.seed_seq)))
        return block_uniforms(rng, counts, layout)

    monkeypatch.setattr(estimators, "_block_uniforms", recorded)
    for n, K, c, c0 in ((600, 60, 240, 120), (2000, 10, 2000, 200)):
        M, N = tiny_instance(32, m=3, n=n, p=3)
        for pilot in ("uniform", "norm"):
            split.clear()
            rng = np.random.default_rng(7)
            twin = copy.deepcopy(rng)
            estimate_product_two_step(M, N, BlockPartition.equal(n, K), c, c0, rng, pilot)
            children = twin.spawn(2)
            assert split == [(type(g), type(g.bit_generator), pickle.dumps(g.bit_generator.seed_seq)) for g in children]
            _same_caller(rng, twin)


def test_callers_spawn_counter_moves_as_before():
    """The caller's rng is still spawned: by K in estimate_product and
    allocate_two_step, and by 2 in the two-step estimate and the bench's
    two-step entries; the two inner streams' children are computed.  The
    bench's column samplers split their replication rng by K, as
    estimate_product does; SSM draws on it directly."""
    M, N = tiny_instance(18, m=3, n=12, p=3)
    part = BlockPartition.equal(12, 3)

    def moved(call):
        rng = np.random.default_rng(21)
        call(rng)
        return rng.bit_generator.seed_seq.n_children_spawned

    assert moved(lambda r: estimate_product(M, N, allocate_uniform(part, 6), r)) == 3
    assert moved(lambda r: allocate_two_step(M, N, part, 6, 6, uniform_probabilities(part), r)) == 3
    for pilot in ("uniform", "norm"):
        assert moved(lambda r: estimate_product_two_step(M, N, part, 6, 6, r, pilot=pilot)) == 2
    shared = _share(M, N, part, tuple(METHODS))
    for tag in METHODS:
        want = {"ONU": 2, "ONMCNR": 2, "SSM": 0}.get(tag, 3)
        assert moved(lambda r: METHODS[tag].prepare(shared, 6, 6, r)()) == want


def test_an_rng_without_the_methods_a_call_uses_is_rejected():
    """A call that splits its rng into streams needs ``spawn`` and
    ``random``; one that draws on it directly needs only ``random``, so a
    RandomState still works there."""
    M, N = tiny_instance(23, m=3, n=12, p=3)
    part = BlockPartition.equal(12, 3)
    splitting = [
        lambda r: estimate_product(M, N, allocate_uniform(part, 6), r),
        lambda r: estimate_product_two_step(M, N, part, 6, 6, r),
        lambda r: allocate_two_step(M, N, part, 6, 6, None, r),
    ]
    drawing = [
        lambda r: estimate_product_block_sampling(M, N, part, 2, r),
        lambda r: sketch_columns(M, N, 2, np.full(12, 1 / 12), r),
    ]
    for call in splitting:
        for bad, name in ((7, "int"), (None, "NoneType"), (np.random.RandomState(0), "RandomState")):
            with pytest.raises(ValueError, match=f"rng must be a numpy.random.Generator, got {name}"):
                call(bad)
    for call in drawing:
        for bad, name in ((7, "int"), (None, "NoneType"), (object(), "object")):
            with pytest.raises(ValueError, match=f"rng must be a numpy.random.Generator, got {name}"):
                call(bad)
        assert np.isfinite(call(np.random.RandomState(0))[1]).all()


class _Constant:
    """A stand-in generator whose every child draws ``value``."""

    def __init__(self, value):
        self.value = value

    def spawn(self, n):
        return [self] * n

    def random(self, count):
        return np.full(count, self.value)


@pytest.mark.parametrize("value", [-0.5, np.nan, 1.0, 1.5])
def test_uniforms_outside_the_unit_interval_are_rejected(value):
    """-0.5 or NaN drew column 0 at p = 0 (a NaN estimate, with warnings),
    1.0 or 1.5 each block's last column; the largest double below 1 and 0
    still draw."""
    M, N = tiny_instance(23, m=3, n=12, p=3)
    part = BlockPartition.equal(12, 3)
    calls = [
        lambda r: estimate_product(M, N, allocate_uniform(part, 6), r),
        lambda r: estimate_product(M, N, allocate_by_score_sums(M, N, part, 6), r),
        lambda r: sketch_columns(M, N, 2, np.full(12, 1 / 12), r),
        lambda r: estimate_product_block_sampling(M, N, part, 2, r),
        lambda r: estimate_product_two_step(M, N, part, 6, 6, r, pilot="uniform"),
        lambda r: estimate_product_two_step(M, N, part, 6, 6, r, pilot="norm"),
        lambda r: allocate_two_step(M, N, part, 6, 6, uniform_probabilities(part), r),
        lambda r: allocate_two_step(M, N, part, 6, 6, None, r),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"rng must draw uniforms in [0, 1), got {value!r}")):
            call(_Constant(value))
        for fine in (0.0, np.nextafter(1.0, 0.0)):
            call(_Constant(fine))


def test_two_step_single_block_gets_everything():
    M, N = tiny_instance(19, m=2, n=4, p=2)
    part = BlockPartition(sizes=(4,))
    res = estimate_product_two_step(M, N, part, c=3, c0=2, rng=np.random.default_rng(22))
    assert tuple(res.plan.budgets) == (3,)
    assert res.plan.total == 3


def test_two_step_large_pilot_tracks_optimal_sizes():
    # with a pilot as large as the data itself the estimated block sizes
    # should land within one draw of the exact-weight allocation almost always
    rng = np.random.default_rng(23)
    M = rng.standard_normal((4, 16)) * np.repeat([3.0, 1.0], 8)
    N = rng.standard_normal((16, 4))
    part = BlockPartition.equal(16, 2)
    ref = allocate_optimal(M, N, part, c=8)
    hits = 0
    for s in range(50):
        res = estimate_product_two_step(
            M, N, part, c=8, c0=16, rng=np.random.default_rng(3000 + s)
        )
        if np.abs(res.plan.budgets - ref.budgets).max() <= 1:
            hits += 1
    assert hits >= 45


def test_two_step_cap_respects_block_sizes():
    M, N = tiny_instance(20, m=2, n=6, p=2)
    part = BlockPartition.equal(6, 3)
    res = estimate_product_two_step(M, N, part, c=6, c0=3, rng=np.random.default_rng(24))
    assert (res.plan.budgets <= np.array(part.sizes)).all()
    assert res.plan.total == 6


# ---------------------------------------------------------------------------
# whole-block baseline


def test_block_sampling_single_block_exact():
    M, N = tiny_instance(25, m=3, n=4, p=3)
    part = BlockPartition(sizes=(4,))
    for b in (1, 2, 5):
        pair, product, rec = estimate_product_block_sampling(
            M, N, part, b, np.random.default_rng(b)
        )
        np.testing.assert_allclose(product, M @ N, rtol=0, atol=1e-12)
        assert pair.C.shape == (3, 4 * b)
        assert (rec.block == 0).all()


def test_block_sampling_two_outcome_enumeration():
    M, N = tiny_instance(26, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    q = block_norm_probabilities(M, N, part)
    halves = [M[:, :2] @ N[:2], M[:, 2:] @ N[2:]]
    outcomes = [halves[0] / q[0], halves[1] / q[1]]
    assert np.allclose(q[0] * outcomes[0] + q[1] * outcomes[1], M @ N, atol=1e-12)
    hits = np.zeros(2)
    reps = 300
    for s in range(reps):
        _, est, rec = estimate_product_block_sampling(
            M, N, part, 1, np.random.default_rng(500 + s)
        )
        k = int(rec.block[0])
        np.testing.assert_allclose(est, outcomes[k], rtol=0, atol=1e-12)
        hits[k] += 1
    freq = hits[0] / reps
    assert abs(freq - q[0]) < 4 * np.sqrt(q[0] * q[1] / reps)


def test_block_sampling_degenerate_probs_deterministic():
    M, N = tiny_instance(27, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    probs = np.array([1.0, 0.0])
    pair, product, rec = estimate_product_block_sampling(
        M, N, part, 3, np.random.default_rng(28), probs=probs
    )
    assert (rec.block == 0).all()
    np.testing.assert_allclose(product, M[:, :2] @ N[:2], rtol=0, atol=1e-12)
    assert pair.offsets[-1] == 6


def test_block_sampling_pair_contract_and_validation():
    M, N = tiny_instance(29, m=3, n=6, p=2)
    part = BlockPartition.equal(6, 3)
    pair, product, rec = estimate_product_block_sampling(
        M, N, part, 4, np.random.default_rng(30)
    )
    np.testing.assert_allclose(pair.C @ pair.D, product, rtol=0, atol=1e-12)
    off = pair.offsets
    summed = sum(pair.C[:, off[t] : off[t + 1]] @ pair.D[off[t] : off[t + 1]] for t in range(4))
    np.testing.assert_allclose(summed, product, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        estimate_product_block_sampling(M, N, part, 0, np.random.default_rng(31))
    with pytest.raises(ValueError):
        estimate_product_block_sampling(
            M, N, part, 2, np.random.default_rng(31), probs=np.array([0.5, 0.5])
        )
    with pytest.raises(ValueError):
        estimate_product_block_sampling(
            M, N, part, 2, np.random.default_rng(31), probs=np.array([0.7, 0.2, 0.2])
        )


def test_block_sampling_keeps_its_one_block_partition_and_checks_probs_every_call():
    """The K block probabilities are validated on a one-block partition kept
    on the caller's partition, which it does not refer back to; a bad
    ``probs`` is still rejected after good ones."""
    M, N = tiny_instance(32, m=3, n=6, p=2)
    part = BlockPartition.equal(6, 3)
    q = np.array([0.5, 0.3, 0.2])
    first = estimate_product_block_sampling(M, N, part, 4, np.random.default_rng(33), probs=q)[1]
    one = part._as_one_block
    again = estimate_product_block_sampling(M, N, part, 4, np.random.default_rng(33), probs=q)[1]
    assert part._as_one_block is one and one.sizes == (3,) and part.sizes == (2, 2, 2)
    assert first.tobytes() == again.tobytes()
    assert not any(x is part for x in vars(one).values())
    for bad in ([0.5, 0.3, 0.3], [0.0, 0.0, 0.0], [0.5, np.nan, 0.5]):
        with pytest.raises(ValueError):
            estimate_product_block_sampling(M, N, part, 2, np.random.default_rng(34), probs=np.array(bad))


# ---------------------------------------------------------------------------
# integer arguments


def _integer_arguments():
    """Each library entry point with one integer argument left open; 4 is a
    valid value for every one of them."""
    M, N = tiny_instance(31, m=2, n=6, p=2)
    part = BlockPartition.equal(6, 3)
    p0 = uniform_probabilities(part)
    rng = np.random.default_rng
    return {
        "integerize-c": lambda v: integerize(np.ones(3), v),
        "allocate_optimal-c": lambda v: allocate_optimal(M, N, part, v),
        "allocate_by_score_sums-c": lambda v: allocate_by_score_sums(M, N, part, v),
        "allocate_uniform-c": lambda v: allocate_uniform(part, v),
        "allocate_two_step-c": lambda v: allocate_two_step(M, N, part, v, 3, p0, rng(1)),
        "allocate_two_step-c0": lambda v: allocate_two_step(M, N, part, 4, v, p0, rng(1)),
        "estimate_product_two_step-c0": lambda v: estimate_product_two_step(M, N, part, 4, v, rng(1)),
        "estimate_product_block_sampling-draws": lambda v: estimate_product_block_sampling(M, N, part, v, rng(1)),
        "sketch_columns-count": lambda v: sketch_columns(M, N, v, np.full(6, 1 / 6), rng(1)),
    }


@pytest.mark.parametrize("name", list(_integer_arguments()))
def test_integer_arguments_are_not_truncated(name):
    call = _integer_arguments()[name]
    call(np.int64(4))
    for bad in (4.7, 4.0, True, "4"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)


_INT64_PAST = "must be <= 9223372036854775807, got "


@pytest.mark.parametrize(
    "name, value",
    [
        ("allocate_two_step-c0", 2**63),
        ("allocate_two_step-c0", 3 * 2**62),  # c0 // K = 2**62 per block: the pilot's draws sum past int64
        ("estimate_product_two_step-c0", 2**63),
        ("estimate_product_two_step-c0", 10**30),
        ("estimate_product_block_sampling-draws", 2**63),
        ("sketch_columns-count", 2**63),
    ],
)
def test_counts_past_int64_are_rejected_by_name(name, value):
    """A count that sizes an array is bounded by int64 in the validator, not
    wrapped into a negative dimension or an OverflowError on the way."""
    arg = name.split("-")[1]
    with pytest.raises(ValueError, match=f"^{arg} {re.escape(_INT64_PAST)}{value}$"):
        _integer_arguments()[name](value)


def test_sizes_or_budgets_summing_past_int64_are_rejected_by_name():
    """A partition's offsets and a plan's total are int64 sums; a sum past
    int64 wrapped to a negative offset or total."""
    with pytest.raises(ValueError, match=f"^partition total {re.escape(_INT64_PAST)}{2**63}$"):
        BlockPartition((2**62, 2**62))
    with pytest.raises(ValueError, match=f"^partition total {re.escape(_INT64_PAST)}{2**63}$"):
        BlockPartition((2**63,))
    part = BlockPartition.equal(6, 3)
    with pytest.raises(ValueError, match=f"^total budget {re.escape(_INT64_PAST)}{3 * 2**62}$"):
        SamplingPlan(part, uniform_probabilities(part), [2**62] * 3)
    assert BlockPartition((2**62, 2**62 - 1)).offsets[-1] == 2**63 - 1
    assert SamplingPlan(part, uniform_probabilities(part), [2**62, 2**62 - 2, 1]).total == 2**63 - 1


_BAD_BUDGETS = (-1, 2, 7, 10**18)  # negative, below the 3 floors, above the 6 caps, beyond the float64 split
_SPLIT_MESSAGES = (
    "budget must be >= 0",
    "budget c=2 is below the 3 required floors",
    "budget c=7 exceeds the total caps 6",
    "budget c=1000000000000000000 is too large to split over 3 blocks in float64",
)


@pytest.mark.parametrize(
    "name, messages",
    [
        ("allocate_optimal-c", _SPLIT_MESSAGES),
        ("allocate_by_score_sums-c", _SPLIT_MESSAGES),
        ("allocate_uniform-c", _SPLIT_MESSAGES),
        (
            "allocate_two_step-c",
            (
                "budget c=-1 must lie in [1, 6]",
                "budget c=2 must lie between the 3 block floors and the total caps 6",
                "budget c=7 must lie in [1, 6]",
                "budget c=1000000000000000000 must lie in [1, 6]",
            ),
        ),
    ],
)
def test_allocators_reject_out_of_range_budgets(name, messages):
    """The allocators pass their own weights, floors and caps to the split
    unchecked, but still check the caller's c."""
    call = _integer_arguments()[name]
    for c, message in zip(_BAD_BUDGETS, messages):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(c)


@pytest.mark.parametrize("name", ["integerize-c", "allocate_optimal-c", "allocate_by_score_sums-c", "allocate_uniform-c"])
def test_a_zero_budget_is_reported_below_the_floors(name):
    """c = 0 also lies below every cap clipped to c; the fault is the floors."""
    with pytest.raises(ValueError, match=f"^{re.escape('budget c=0 is below the 3 required floors')}$"):
        _integer_arguments()[name](0)


def test_a_cap_below_its_floor_is_reported_as_such():
    with pytest.raises(ValueError, match="^some cap lies below the required floor of 1$"):
        integerize([1.0, 1.0], 3, caps=[0, 5], floor=[True, True])
