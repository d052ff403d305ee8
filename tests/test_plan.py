import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blockmm import allocate_two_step, estimate_product_two_step, gen_heavy_tail_instance, gen_normal_instance
from blockmm.matrix import BlockPartition, frobenius_norm
from blockmm.plan import (
    BlockProbabilities,
    SamplingPlan,
    _floor_ratio,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_uniform,
    block_norm_probabilities,
    block_scores,
    integerize,
    optimal_probabilities,
    optimal_size_weights,
    real_optimal_budgets,
    score_sums,
    uniform_probabilities,
)

from oracles import (
    clipped_proportional_split,
    grid_best_split,
    hand_optimal_probs,
    largest_remainder_reference,
    level_search_split,
    loop_expected_sq_error,
)


def _random_instance(rng, m=4, n=8, p=3, sizes=(3, 5)):
    M = rng.standard_normal((m, n))
    N = rng.standard_normal((n, p))
    return M, N, BlockPartition(sizes)


# ---------------------------------------------------------------- probabilities


def test_block_probabilities_validation():
    BlockProbabilities(np.array([0.5, 0.5]), BlockPartition((2,)))
    with pytest.raises(ValueError):
        BlockProbabilities(np.array([0.5, 0.4]), BlockPartition((2,)))
    with pytest.raises(ValueError):
        BlockProbabilities(np.array([-0.1, 1.1]), BlockPartition((2,)))
    probs = BlockProbabilities(np.array([1.0, 0.0, 0.0]), BlockPartition((1, 2)))
    assert probs.zero_blocks == (1,)


def test_block_probabilities_whole_vector_contract():
    part = BlockPartition((2, 3, 2))
    with pytest.raises(ValueError):
        BlockProbabilities(np.full(6, 0.5), part)  # one index short
    with pytest.raises(ValueError):
        BlockProbabilities(np.full(8, 0.5), part)
    with pytest.raises(ValueError, match="block 1"):  # blocks 1 and 2 are both off
        BlockProbabilities(np.array([0.5, 0.5, 0.2, 0.2, 0.2, 0.5, 0.4]), part)
    values = np.array([0.5, 0.5, 0.2, 0.3, 0.5, 0.0, 0.0])
    probs = BlockProbabilities(values, part)
    assert probs.zero_blocks == (2,)
    assert not probs.values.flags.writeable
    with pytest.raises(ValueError):
        probs.values[0] = 1.0
    assert len(probs.per_block) == 3
    for k, view in enumerate(probs.per_block):
        assert view.base is probs.values and probs[k] is view
        assert not view.flags.writeable
    np.testing.assert_array_equal(np.concatenate(probs.per_block), values)
    values[0] = 0.9  # the caller's array stays the caller's
    assert probs[0][0] == 0.5


def test_optimal_probabilities_direct_normalization():
    # column norms (1,1) against row norms (3,1) -> (0.75, 0.25)
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    N = np.array([[3.0, 0.0], [1.0, 0.0]])
    part = BlockPartition((2,))
    probs = optimal_probabilities(M, N, part)
    assert np.allclose(probs[0], [0.75, 0.25], atol=1e-15)


def test_optimal_probabilities_uniform_when_scores_equal():
    M = np.eye(3) * 2.0
    N = np.eye(3) * 5.0
    probs = optimal_probabilities(M, N, BlockPartition((3,)))
    assert np.allclose(probs[0], 1.0 / 3.0, atol=1e-15)


def test_optimal_probabilities_zero_column_renormalizes():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((3, 3))
    N = rng.standard_normal((3, 2))
    M[:, 1] = 0.0
    probs = optimal_probabilities(M, N, BlockPartition((3,)))
    assert probs[0][1] == 0.0
    assert np.allclose(probs[0], hand_optimal_probs(M, N), atol=1e-14)
    assert probs[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_optimal_probabilities_zero_block_flagged():
    M = np.zeros((2, 4))
    M[:, 2:] = 1.0
    N = np.ones((4, 2))
    probs = optimal_probabilities(M, N, BlockPartition((2, 2)))
    assert probs.zero_blocks == (0,)
    assert (probs[0] == 0).all()


def test_optimal_probabilities_match_hand_oracle_per_block():
    rng = np.random.default_rng(12)
    for _ in range(20):
        M, N, part = _random_instance(rng)
        probs = optimal_probabilities(M, N, part)
        for k in range(part.num_blocks):
            sl = part.block_slice(k)
            assert np.allclose(probs[k], hand_optimal_probs(M[:, sl], N[sl, :]), atol=1e-13)


def test_uniform_probabilities():
    probs = uniform_probabilities(BlockPartition((4, 2)))
    assert np.allclose(probs[0], 0.25) and np.allclose(probs[1], 0.5)
    assert probs.rule == "uniform"


def test_probability_sums_within_tolerance_large_block():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((5, 20000))
    N = rng.standard_normal((20000, 4))
    probs = optimal_probabilities(M, N, BlockPartition((20000,)))
    assert abs(probs[0].sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------- scores


def test_score_sums_and_block_scores():
    rng = np.random.default_rng(14)
    M, N, part = _random_instance(rng)
    s = score_sums(M, N, part)
    for k in range(part.num_blocks):
        sl = part.block_slice(k)
        hand = sum(
            np.linalg.norm(M[:, i]) * np.linalg.norm(N[i, :]) for i in range(sl.start, sl.stop)
        )
        assert s[k] == pytest.approx(hand, rel=1e-13)
    sc = block_scores(M, N, part)
    assert (sc.product_norms <= sc.score_sums + 1e-12).all()  # Cauchy-Schwarz


def test_block_scores_hand_two_column_case():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    N = np.array([[0.0, 3.0], [4.0, 0.0]])
    sc = block_scores(M, N, BlockPartition((2,)))
    assert sc.score_sums[0] == pytest.approx(1 * 3 + 2 * 4)
    assert sc.product_norms[0] == pytest.approx(math.sqrt(3**2 + 8**2))


# ---------------------------------------------------------------- floor ratio


def test_prob_floor_ratio_identity_and_hand_case():
    part = BlockPartition((2,))
    opt = BlockProbabilities(np.array([0.75, 0.25]), part)
    assert _floor_ratio(opt.values, opt.values) == pytest.approx(1.0)
    uni = uniform_probabilities(part)
    assert _floor_ratio(uni.values, opt.values) == pytest.approx(2.0 / 3.0)


def test_prob_floor_ratio_mixture_scan():
    rng = np.random.default_rng(15)
    raw = rng.random(6) + 0.05
    part = BlockPartition((6,))
    opt = BlockProbabilities(raw / raw.sum(), part)
    mix = BlockProbabilities(0.5 * opt[0] + 0.5 / 6, part)
    ratio = _floor_ratio(mix.values, opt.values)
    scan = min(mix[0][i] / opt[0][i] for i in range(6))
    assert ratio == pytest.approx(scan, rel=1e-12)
    assert ratio >= 0.5


def test_prob_floor_ratio_support_mismatch():
    part = BlockPartition((2,))
    opt = BlockProbabilities(np.array([0.5, 0.5]), part)
    degenerate = BlockProbabilities(np.array([1.0, 0.0]), part)
    assert _floor_ratio(degenerate.values, opt.values) == 0.0


# ---------------------------------------------------------------- integerize


def test_integerize_trivial_and_remainder():
    assert list(integerize(np.ones(3), 3)) == [1, 1, 1]
    assert list(integerize(np.ones(3), 10)) == [4, 3, 3]  # remainder tie -> lowest index


def test_integerize_cap_redistributes():
    out = integerize(np.array([0.7, 0.3]), 10, caps=np.array([5, 100]))
    assert list(out) == [5, 5]


def test_integerize_floor_for_flagged_zero_weight():
    out = integerize(np.array([5.0, 0.0]), 6, floor=np.array([True, True]))
    assert list(out) == [5, 1]
    out = integerize(np.array([5.0, 0.0]), 6)  # default floor: positive weights only
    assert list(out) == [6, 0]


def test_integerize_errors():
    with pytest.raises(ValueError):
        integerize(np.zeros(3), 5)
    with pytest.raises(ValueError):
        integerize(np.ones(4), 3)  # four floors, budget 3
    with pytest.raises(ValueError):
        integerize(np.ones(2), 10, caps=np.array([4, 4]))
    with pytest.raises(ValueError):
        integerize([1, 2], 10**18)  # float shares cannot hold the budget


def test_integerize_rejects_fractional_caps():
    with pytest.raises(ValueError, match=r"caps must be finite integers, got \[2\.7"):
        integerize([1, 1, 1], 7, caps=[2.7, 3, 3])  # was truncated to [2, 3, 3]
    assert list(integerize([1, 1, 1], 7, caps=[3.0, 3, 3])) == [3, 2, 2]


def test_integerize_rejects_non_finite_and_bool_caps():
    for bad in ([np.nan, 3, 3], [np.inf, 3, 3], np.array([True, True, True])):
        with pytest.raises(ValueError, match="caps must be finite integers"):
            integerize([1, 1, 1], 7, caps=bad)


def test_integerize_rejects_non_boolean_floors():
    # a floor of 2 was read as 1, and strings as their truth values
    for bad in ([2, 0], ["a", ""]):
        with pytest.raises(ValueError, match="floor must be a boolean mask"):
            integerize([1, 1], 3, floor=bad)
    assert list(integerize([1, 1], 3, floor=[True, False])) == [2, 1]


def test_integerize_splits_weights_whose_sum_overflows():
    assert list(integerize([1e308, 1e308], 3)) == [2, 1]  # the sum is past float64
    w = np.array([1.5, 1.2, 1.0, 0.3])
    want = integerize(w * 2.0**-1000, 9, caps=[4] * 4)
    assert list(want) == [3, 3, 2, 1]
    np.testing.assert_array_equal(integerize(w * 2.0**1023, 9, caps=[4] * 4), want)


def test_integerize_rejects_negative_caps():
    # block 1 has floor 0, so "below the required floor of 1" named the wrong bound
    for floor in ([True, False], None):
        with pytest.raises(ValueError, match=r"caps must be >= 0, got \[ 3 -1\]"):
            integerize([1, 1], 3, caps=[3, -1], floor=floor)
    assert list(integerize([1, 0], 3, caps=[3, 0], floor=[True, False])) == [3, 0]


def test_integerize_pins_floors_before_caps():
    # judged before the floors took their budget, block 1 looked over its cap
    assert list(integerize([0, 9, 1], 3, caps=[3, 2, 1], floor=[True] * 3)) == [1, 1, 1]
    # zero-weight leftovers still receive their floors
    assert list(integerize([0, 0, 3], 3, caps=[1, 1, 2], floor=[True] * 3)) == [1, 1, 1]


def test_integerize_near_clipped_proportional_split():
    rng = np.random.default_rng(53)
    for _ in range(2000):
        K = int(rng.integers(1, 12))
        w = rng.random(K) ** 3
        w[rng.random(K) < 0.25] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        floor = (w > 0) | (rng.random(K) < 0.5)
        caps = np.maximum(rng.integers(0, 8, K), floor)
        c = int(rng.integers(floor.sum(), caps.sum() + 1))
        out = integerize(w, c, caps=caps, floor=floor)
        assert out.sum() == c
        assert (out >= floor).all() and (out <= caps).all()
        share = clipped_proportional_split(w, c, floor, caps)
        if share is not None:
            assert (np.abs(out - share) <= 1.0 + 1e-9).all()


# Quantised weights make exact ties: equal shares, shares landing exactly on
# a floor or a cap, and remainders that tie.
_TIED_WEIGHTS = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 1 / 3, 0.5, 2 / 3, 1.0, 1.0, 2.0, 2.5, 7.0])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_integerize_property_near_clipped_split(data):
    K = data.draw(st.integers(1, 12), label="K")
    w = np.array(data.draw(st.lists(_TIED_WEIGHTS, min_size=K, max_size=K), label="w"))
    floor = np.array(data.draw(st.lists(st.booleans(), min_size=K, max_size=K), label="floor"))
    caps = np.array(data.draw(st.lists(st.integers(0, 9), min_size=K, max_size=K), label="caps"))
    c = data.draw(st.integers(0, int(caps.sum()) + 2), label="c")
    lo, hi = floor.astype(int), np.minimum(caps, c)
    valid = w.sum() > 0 and (hi >= lo).all() and lo.sum() <= c <= hi.sum()
    try:
        out = integerize(w, c, caps=caps, floor=floor)
    except ValueError:  # anything else escapes and fails the test
        assert not valid
        return
    assert valid
    assert out.sum() == c
    assert (out >= lo).all() and (out <= hi).all()
    share = clipped_proportional_split(w, c, floor, caps)
    if share is None:  # the positive weights cannot take c: they sit at their caps
        assert (out[w > 0] == hi[w > 0]).all()
    else:
        assert (np.abs(out - share) <= 1.0 + 1e-9).all()
    scale = 2.0 ** data.draw(st.integers(-900, 900), label="log2 scale")  # exact in float64
    np.testing.assert_array_equal(integerize(w * scale, c, caps=caps, floor=floor), out)


def test_integerize_splits_weights_of_any_finite_span():
    # a level search over the breakpoints floor/w and cap/w overflowed here
    assert list(integerize([1.0, 2.0**-961], 3)) == [2, 1]
    assert list(integerize([1.0, 2.0**-1074], 3)) == [2, 1]
    assert list(integerize([1.0, 2.0**-959], 3, caps=[1, 5])) == [1, 2]


def test_integerize_matches_reference_largest_remainder():
    rng = np.random.default_rng(16)
    for _ in range(300):
        K = int(rng.integers(1, 8))
        w = rng.random(K) + 0.2
        c = int(rng.integers(K, 60))
        got = integerize(w, c, floor=np.zeros(K, bool))
        ref = largest_remainder_reference(list(w), c)
        assert list(got) == ref


def test_integerize_property_sweep():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        K = int(rng.integers(1, 10))
        w = rng.random(K) + 0.05
        c = int(rng.integers(K, 200))
        out = integerize(w, c, floor=np.zeros(K, bool))
        assert out.sum() == c
        real = c * w / w.sum()
        assert (np.abs(out - real) <= 1.0 + 1e-9).all()


def test_integerize_constrained_sweep():
    rng = np.random.default_rng(47)
    for _ in range(500):
        K = int(rng.integers(1, 10))
        w = rng.random(K)
        w[rng.random(K) < 0.2] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        caps = rng.integers(1, 12, K)
        floors = w > 0
        lo, hi = int(floors.sum()), int(caps.sum())
        if lo > hi:
            continue
        c = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        out = integerize(w, c, caps=caps)
        assert out.sum() == c
        assert (out <= caps).all()
        assert (out[floors] >= 1).all()
        assert (out >= 0).all()


def _split_case(rng, max_K=24, span=0):
    """Weights, c, caps and floor for one integerize call whose inputs are
    valid, and its floors as int64: Cauchy-squared, equal, integer (zeros
    and remainder ties) or sparse weights, or with ``span``, weights
    2**uniform(-span, span) with some zeros; default, random or full
    floors; no caps, or caps below, at or above each block's proportional
    share; c anywhere between the floors and the caps, or at either end."""
    K = int(rng.integers(1, max_K + 1))
    kind = int(rng.integers(4))
    if span:
        w = np.exp2(rng.uniform(-span, span, K)) * (rng.random(K) < 0.9)
    elif kind == 0:
        w = rng.standard_cauchy(K) ** 2
    elif kind == 1:
        w = np.full(K, rng.uniform(0.1, 10.0))
    elif kind == 2:
        w = rng.integers(0, 4, K).astype(float)
    else:
        w = rng.exponential(size=K) * (rng.random(K) < 0.7)
    if w.sum() == 0.0:
        w[rng.integers(K)] = 1.0
    floor = (None, rng.random(K) < 0.5, np.ones(K, bool))[int(rng.integers(3))]
    lo = (w > 0 if floor is None else floor).astype(np.int64)
    c = int(rng.integers(0, 8 * K + 2))
    caps = None
    if rng.random() < 0.6:
        share = c * w / w.sum()
        scale = rng.choice([0.5, 1.0, 2.0], K)  # below, at, above the share
        caps = np.maximum(np.round(share * scale).astype(np.int64) + rng.integers(-1, 2, K), lo)
    hi_sum = np.inf if caps is None else int(caps.sum())
    end = int(rng.integers(4))
    if end == 0:
        c = int(lo.sum())
    elif end == 1 and caps is not None:
        c = hi_sum
    else:
        c = int(min(max(c, lo.sum()), hi_sum))
    return w, c, caps, floor, lo


def test_integerize_equals_the_level_search():
    """The variable-fixing loop gives the frozen level search's budgets bit
    for bit: when its first split settles (no floor or cap binds) and when a
    bound binds and it fixes blocks; also on many blocks of weights that
    span up to 2**600."""
    rng = np.random.default_rng(151)
    passes = {False: 0, True: 0}
    cases = [_split_case(rng) for _ in range(10_000)] + [_split_case(rng, 300, 300) for _ in range(2_000)]
    for i, (w, c, caps, floor, lo) in enumerate(cases):
        hi = np.full(w.size, c, dtype=np.int64) if caps is None else np.minimum(caps, c)
        r = c * w / w.sum()
        if i < 10_000:
            passes[bool(((r < lo) | (r > hi + 1e-12)).any())] += 1
        out = integerize(w, c, caps=caps, floor=floor)
        ref = level_search_split(w, c, lo, hi)
        assert out.dtype == ref.dtype == np.int64
        np.testing.assert_array_equal(out, ref)
    assert min(passes.values()) >= 1_000, passes  # settled on the first pass, and a bound binds


# ---------------------------------------------------------------- allocators


def test_allocate_optimal_symmetric_blocks_split_evenly():
    rng = np.random.default_rng(18)
    half = rng.standard_normal((3, 4))
    M = np.hstack([half, half])
    Nh = rng.standard_normal((4, 2))
    N = np.vstack([Nh, Nh])
    plan = allocate_optimal(M, N, BlockPartition((4, 4)), 6)
    assert list(plan.budgets) == [3, 3]
    assert plan.method == "OPL"
    assert plan.total == 6


def test_allocate_optimal_single_column_block_gets_floor():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((3, 5))
    N = rng.standard_normal((5, 2))
    part = BlockPartition((1, 4))
    w = optimal_size_weights(M, N, part)
    assert w[0] == 0.0  # single column: score sum equals product norm exactly
    plan = allocate_optimal(M, N, part, 5)
    assert plan.budgets[0] >= 1
    assert plan.total == 5


def test_allocate_optimal_matches_grid_search():
    rng = np.random.default_rng(20)
    M = rng.standard_normal((6, 8))
    N = rng.standard_normal((8, 4))
    part = BlockPartition((4, 4))
    c = 6
    real = real_optimal_budgets(M, N, part, c)
    obj_at_real = loop_expected_sq_error(
        M, N, part.sizes, real, [hand_optimal_probs(M[:, :4], N[:4]), hand_optimal_probs(M[:, 4:], N[4:])]
    )
    best_obj, best_c1 = grid_best_split(M, N, part.sizes, c)
    assert obj_at_real <= best_obj + 1e-9
    assert abs(real[0] - best_c1) < 0.01
    plan = allocate_optimal(M, N, part, c)
    assert list(plan.budgets) == largest_remainder_reference(list(real), c)


def test_allocate_optimal_caps_respected():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((3, 6))
    M[:, 0] *= 100.0  # concentrate weight in the first (2-column) block
    N = rng.standard_normal((6, 2))
    part = BlockPartition((2, 4))
    plan = allocate_optimal(M, N, part, 6)
    assert (plan.budgets <= np.array(part.sizes)).all()
    assert real_optimal_budgets(M, N, part, 6)[0] > 2  # the cap was binding


def test_allocate_optimal_all_weights_zero_falls_back():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    N = np.array([[3.0, 0.0], [0.0, 1.0]])
    part = BlockPartition((1, 1))  # single-column blocks: all weights zero
    plan = allocate_optimal(M, N, part, 2)
    assert plan.total == 2
    assert plan.notes  # fallback is flagged


def test_allocate_by_score_sums():
    M = np.zeros((1, 16))
    M[0, 0], M[0, 8] = 3.0, 1.0
    N = np.ones((16, 2))
    part = BlockPartition((8, 8))
    plan = allocate_by_score_sums(M, N, part, 8)
    assert list(plan.budgets) == [6, 2]  # scores (3, 1)
    assert plan.method == "ONC"


def test_allocate_by_score_sums_grid_search_on_bound():
    # The score-sum split minimizes sum_k s_k^2 / c_k over real budgets.
    rng = np.random.default_rng(22)
    M, N, part = _random_instance(rng, n=20, sizes=(10, 10))  # caps cannot bind at c=10
    s = score_sums(M, N, part)
    c = 10
    real = c * s / s.sum()

    def bound(c1):
        return s[0] ** 2 / c1 + s[1] ** 2 / (c - c1)

    grid = np.linspace(1e-6, c - 1e-6, 4001)
    best = grid[np.argmin([bound(x) for x in grid])]
    assert bound(real[0]) <= bound(best) + 1e-9
    assert abs(real[0] - best) < 0.01
    plan = allocate_by_score_sums(M, N, part, c)
    assert plan.total == c


def test_allocate_uniform():
    plan = allocate_uniform(BlockPartition.equal(50, 10), 50)
    assert (plan.budgets == 5).all()
    assert plan.method == "UU"
    plan = allocate_uniform(BlockPartition((4, 4, 4)), 10)
    assert list(plan.budgets) == [4, 3, 3]
    # The small block's cap binds: the level search gives the rest away.
    assert list(allocate_uniform(BlockPartition((1, 10, 10)), 21).budgets) == [1, 10, 10]
    # No cap binds on an equal partition: c // K, plus one on the first c % K blocks.
    for K in (1, 3, 10, 60):
        part = BlockPartition.equal(5 * K, K)
        for c in range(K, part.total + 1):
            expected = np.full(K, c // K) + (np.arange(K) < c % K)
            np.testing.assert_array_equal(allocate_uniform(part, c).budgets, expected)


def test_allocate_two_step_deterministic_pilot():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((3, 12))
    N = rng.standard_normal((12, 2))
    part = BlockPartition((6, 6))
    point = np.eye(6)
    p0 = BlockProbabilities(np.concatenate((point[0], point[5])), part)
    plans = [
        allocate_two_step(M, N, part, 6, 4, p0, np.random.default_rng(seed))
        for seed in (1, 2, 3)
    ]
    # one-point pilot distributions make the pilot product deterministic
    for plan in plans[1:]:
        assert list(plan.budgets) == list(plans[0].budgets)
        assert np.allclose(plan.pilot_norms, plans[0].pilot_norms)


def test_allocate_two_step_single_column_block_weight_zero():
    rng = np.random.default_rng(24)
    M = rng.standard_normal((3, 4))
    N = rng.standard_normal((4, 2))
    part = BlockPartition((1, 3))
    plan = allocate_two_step(
        M, N, part, 4, 2, uniform_probabilities(part), np.random.default_rng(0)
    )
    # single-column pilot reproduces the exact product norm: weight 0, floor 1
    prod = M[:, :1] @ N[:1, :]
    assert plan.pilot_norms[0] == pytest.approx(frobenius_norm(prod), rel=1e-12)
    assert plan.budgets[0] == 1


def test_allocate_two_step_validation_and_tags():
    rng = np.random.default_rng(25)
    M, N, part = _random_instance(rng)
    with pytest.raises(ValueError):
        allocate_two_step(M, N, part, 6, 1, uniform_probabilities(part), rng)
    plan_u = allocate_two_step(M, N, part, 6, 4, uniform_probabilities(part), rng)
    assert plan_u.method == "ONU"
    plan_n = allocate_two_step(M, N, part, 6, 4, optimal_probabilities(M, N, part), rng)
    assert plan_n.method == "ONMCNR"
    for p0 in (None, uniform_probabilities(part)):  # no live pilot block, or no score
        with pytest.raises(ValueError, match="all blocks have zero score"):
            allocate_two_step(np.zeros_like(M), N, part, 6, 4, p0, rng)


def test_allocate_two_step_tag_follows_pilot_rule():
    rng = np.random.default_rng(32)
    M, N, part = _random_instance(rng, m=3, n=8, p=2, sizes=(4, 4))
    explicit = BlockProbabilities(np.full(8, 0.25), part)  # uniform values, built by hand
    assert allocate_two_step(M, N, part, 6, 4, explicit, rng).method == ""
    assert allocate_two_step(M, N, part, 6, 4, uniform_probabilities(part), rng).method == "ONU"
    assert allocate_two_step(M, N, part, 6, 4, optimal_probabilities(M, N, part), rng).method == "ONMCNR"
    with pytest.raises(ValueError):
        allocate_two_step(M, N, part, 6, 4, uniform_probabilities(BlockPartition((2, 6))), rng)


def test_allocate_two_step_reproducible_from_seed():
    rng = np.random.default_rng(26)
    M, N, part = _random_instance(rng)
    p0 = uniform_probabilities(part)
    a = allocate_two_step(M, N, part, 6, 4, p0, np.random.default_rng(99))
    b = allocate_two_step(M, N, part, 6, 4, p0, np.random.default_rng(99))
    assert list(a.budgets) == list(b.budgets)
    assert np.array_equal(a.pilot_norms, b.pilot_norms)


def test_block_norm_probabilities():
    rng = np.random.default_rng(27)
    M, N, part = _random_instance(rng)
    q = block_norm_probabilities(M, N, part)
    hand = np.array(
        [
            np.linalg.norm(M[:, part.block_slice(k)]) * np.linalg.norm(N[part.block_slice(k), :])
            for k in range(2)
        ]
    )
    assert np.allclose(q, hand / hand.sum(), atol=1e-14)
    identical = np.hstack([M[:, :3], M[:, :3]])
    N2 = np.vstack([N[:3], N[:3]])
    q2 = block_norm_probabilities(identical, N2, BlockPartition((3, 3)))
    assert np.allclose(q2, 0.5)
    with pytest.raises(ValueError):
        block_norm_probabilities(np.zeros((2, 4)), np.zeros((4, 2)), BlockPartition((2, 2)))


def test_zero_block_gets_zero_probability():
    M = np.zeros((2, 4))
    M[:, 2:] = 1.0
    N = np.ones((4, 2))
    q = block_norm_probabilities(M, N, BlockPartition((2, 2)))
    assert q[0] == 0.0 and q[1] == 1.0


# ---------------------------------------------------------------- invariants


def test_scale_equivariance():
    rng = np.random.default_rng(28)
    M, N, part = _random_instance(rng)
    probs1 = optimal_probabilities(M, N, part)
    probs2 = optimal_probabilities(3.5 * M, N, part)
    for k in range(part.num_blocks):
        assert np.allclose(probs1[k], probs2[k], atol=1e-13)
    a = allocate_optimal(M, N, part, 6)
    b = allocate_optimal(3.5 * M, N, part, 6)
    assert list(a.budgets) == list(b.budgets)


def test_radicand_never_clamps_beyond_slack():
    rng = np.random.default_rng(29)
    for _ in range(50):
        M, N, part = _random_instance(rng, m=3, n=10, p=4, sizes=(2, 3, 5))
        w = optimal_size_weights(M, N, part)  # raises if slack exceeded
        assert (w >= 0).all()


def test_budget_conservation_across_allocators():
    rng = np.random.default_rng(30)
    for c in (4, 7):
        M, N, part = _random_instance(rng)
        assert allocate_optimal(M, N, part, c).total == c
        assert allocate_by_score_sums(M, N, part, c).total == c
        assert allocate_uniform(part, c).total == c
        plan = allocate_two_step(M, N, part, c, 4, uniform_probabilities(part), rng)
        assert plan.total == c


# ---------------------------------------------------------------- plan object


def test_sampling_plan_validation():
    part = BlockPartition((2, 2))
    probs = BlockProbabilities(np.full(4, 0.5), part)
    with pytest.raises(ValueError):
        SamplingPlan(part, probs, np.array([3, 0]))  # zero budget on a live block
    with pytest.raises(ValueError):
        SamplingPlan(part, probs, np.array([1, 1, 1]))
    zero_probs = BlockProbabilities(np.array([0.5, 0.5, 0.0, 0.0]), part)
    plan = SamplingPlan(part, zero_probs, np.array([3, 0]))
    assert plan.total == 3


def test_sampling_plan_rejects_non_finite_fractional_and_bool_budgets():
    part = BlockPartition((2, 2, 2))
    probs = uniform_probabilities(part)
    bools, huge = np.array([True, True, True]), np.array([2**63, 2, 2], dtype=np.uint64)
    for bad in ([np.inf, 2, 2], [np.nan, 2, 2], [1.5, 2, 2], bools, huge):
        with pytest.raises(ValueError, match="budgets must be finite integers"):
            SamplingPlan(part, probs, bad)
    with pytest.raises(ValueError, match=r"budgets must have shape \(3,\)"):
        SamplingPlan(part, probs, np.array([[1, 2, 2]]))
    budgets = np.array([1, 2, 2])
    plan = SamplingPlan(part, probs, budgets)
    budgets[0] = 5  # the plan keeps its own copy
    assert plan.budgets.tolist() == [1, 2, 2] and plan.budgets.dtype == np.int64
    assert SamplingPlan(part, probs, [1.0, 2.0, 2.0]).budgets.tolist() == [1, 2, 2]


def test_sampling_plan_rejects_probabilities_of_another_partition():
    probs = uniform_probabilities(BlockPartition((2, 2)))
    SamplingPlan(BlockPartition((2, 2)), probs, np.array([1, 1]))  # an equal partition is the same
    with pytest.raises(ValueError, match="different partition"):
        SamplingPlan(BlockPartition((3, 1)), probs, np.array([1, 1]))


def test_plans_are_read_only():
    """A plan cannot change once built: a write into its budgets, pilot
    norms or scaled pilot norms raises, on the allocators' plans as on the
    public constructor's, while a caller's budgets stay writeable."""
    rng = np.random.default_rng(31)
    M, N, part = _random_instance(rng, n=9, sizes=(2, 3, 4))
    probs = uniform_probabilities(part)
    budgets = np.array([1, 2, 2])
    built = SamplingPlan(part, probs, budgets, pilot_norms=[0.5, 1.0, 2.0])
    assert budgets.flags.writeable
    plans = [
        allocate_optimal(M, N, part, 5),
        allocate_by_score_sums(M, N, part, 5),
        allocate_uniform(part, 5),
        allocate_two_step(M, N, part, 5, 6, probs, rng),
        estimate_product_two_step(M, N, part, 5, 6, rng, pilot="norm").plan,
        built,
        dataclasses.replace(built, budgets=[2, 2, 1]),
    ]
    for plan in plans:
        arrays = {"budgets": plan.budgets}
        if plan.method not in ("OPL", "ONC", "UU"):
            arrays.update(pilot_norms=plan.pilot_norms, _pilot=plan._pilot[0])
        for name, values in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0
            assert values[0] != 0, name


def _assert_equals_checked(plan):
    """``plan`` passes the public constructors, which give it back field
    for field: the probabilities' values and zero flags, and the plan's
    budgets, method, notes, pilot norms and scaled pilot norms."""
    probs = plan.probs
    checked_probs = BlockProbabilities(probs.values, probs.partition, rule=probs.rule)
    checked = SamplingPlan(plan.partition, checked_probs, plan.budgets, plan.method, plan.notes, _pilot=plan._pilot)

    def same(a, b):
        return (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (b.dtype, b.shape, b.tobytes(), b.flags.writeable)

    assert same(probs.values, checked_probs.values)
    assert same(probs._zero, checked_probs._zero)
    assert (probs.partition, probs.rule) == (checked_probs.partition, checked_probs.rule)
    assert same(plan.budgets, checked.budgets)
    assert (plan.partition, plan.method, plan.notes) == (checked.partition, checked.method, checked.notes)
    if plan._pilot is None:
        assert plan.pilot_norms is None and checked.pilot_norms is None and checked._pilot is None
    else:
        assert same(plan.pilot_norms, checked.pilot_norms)
        assert same(plan._pilot[0], checked._pilot[0]) and plan._pilot[1] == checked._pilot[1]


def _every_allocator(M, N, part, c, c0, seed=0):
    """Every allocator's plan on (M, N, part): OPL, ONC, both two-step
    pilots (public and through the estimate) and UU."""
    rng = np.random.default_rng(seed)
    c_uniform = max(c, part.num_blocks)
    return [
        allocate_optimal(M, N, part, c),
        allocate_by_score_sums(M, N, part, c),
        allocate_two_step(M, N, part, c, c0, uniform_probabilities(part), rng),
        allocate_two_step(M, N, part, c, c0, optimal_probabilities(M, N, part), rng),
        estimate_product_two_step(M, N, part, c, c0, rng).plan,
        estimate_product_two_step(M, N, part, c, c0, rng, pilot="norm").plan,
        allocate_uniform(part, c_uniform),
    ]


# (case, m, n, p, K, c, c0) of the benchmark's three workloads.
WORKLOAD_SHAPES = {
    "desk-heavy": ("II", 26, 20000, 28, 10, 2000, 200),
    "wide-normal": ("I", 256, 20000, 256, 10, 2000, 200),
    "tiny-many-blocks": ("II", 6, 600, 6, 60, 240, 120),
}


@pytest.mark.parametrize("workload", list(WORKLOAD_SHAPES))
def test_unchecked_plans_equal_checked_ones_on_the_workloads(workload):
    case, m, n, p, K, c, c0 = WORKLOAD_SHAPES[workload]
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0,)))
    M, N = (gen_normal_instance if case == "I" else gen_heavy_tail_instance)(m, n, p, rng)
    for plan in _every_allocator(M, N, BlockPartition.equal(n, K), c, c0):
        _assert_equals_checked(plan)


def test_unchecked_plans_equal_checked_ones_with_zero_blocks_and_unequal_blocks():
    rng = np.random.default_rng(np.random.SeedSequence(201, spawn_key=(0,)))
    M, N = gen_heavy_tail_instance(5, 120, 4, rng)
    M[:, 20:40] = 0.0  # blocks 1 and 2 of six have zero score
    N[100:110] = 0.0  # and block 5 too
    for part in (BlockPartition.equal(120, 6), BlockPartition((1, 30, 9, 40, 25, 15))):
        plans = _every_allocator(M, N, part, 40, 24)
        assert plans[1].probs.zero_blocks  # the zero flags are exercised
        for plan in plans:
            _assert_equals_checked(plan)


# ---------------------------------------------------------------- budget conservation (property)


@st.composite
def _scored_instances(draw):
    """Small instances with coarse entries (exact zeros, cancellation, a wide
    range) and some blocks zeroed out, so that their score is exactly 0."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    part = BlockPartition(tuple(sizes))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e3])
    M = draw(arrays(np.float64, (m, part.total), elements=entries))
    N = draw(arrays(np.float64, (part.total, p), elements=entries))
    for k in range(part.num_blocks):
        if draw(st.booleans()):
            M[:, part.block_slice(k)] = 0.0
    return M, N, part


def _assert_conserved(plan, c, floor, part):
    b = plan.budgets
    sizes = np.array(part.sizes)
    assert plan.total == c
    assert (b[floor] >= 1).all() and (b[~floor] == 0).all()
    assert (b <= sizes).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instance=_scored_instances(), data=st.data())
def test_allocators_conserve_budget(instance, data):
    M, N, part = instance
    s = score_sums(M, N, part)
    live = s > 0
    assume(live.any())
    sizes = np.array(part.sizes)
    c = data.draw(st.integers(int(live.sum()), int(sizes[live].sum())), label="c")
    c0 = data.draw(st.integers(part.num_blocks, 3 * part.num_blocks), label="c0")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_conserved(allocate_optimal(M, N, part, c), c, live, part)
    _assert_conserved(allocate_by_score_sums(M, N, part, c), c, live, part)
    for p0 in (uniform_probabilities(part), optimal_probabilities(M, N, part)):
        plan = allocate_two_step(M, N, part, c, c0, p0, np.random.default_rng(seed))
        _assert_conserved(plan, c, live, part)
    c_uniform = data.draw(st.integers(part.num_blocks, part.total), label="c_uniform")
    _assert_conserved(allocate_uniform(part, c_uniform), c_uniform, np.ones(part.num_blocks, bool), part)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instance=_scored_instances(), data=st.data())
def test_unchecked_plans_equal_checked_ones(instance, data):
    M, N, part = instance
    live = score_sums(M, N, part) > 0
    assume(live.any())
    sizes = np.array(part.sizes)
    c = data.draw(st.integers(int(live.sum()), int(sizes[live].sum())), label="c")
    c0 = data.draw(st.integers(part.num_blocks, 3 * part.num_blocks), label="c0")
    for plan in _every_allocator(M, N, part, c, c0, seed=data.draw(st.integers(0, 2**32 - 1), label="seed")):
        _assert_equals_checked(plan)
