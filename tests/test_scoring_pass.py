"""Guards of the single scoring pass: every composite call equals, bit for
bit, its public steps, computes the column and row norms exactly once and
forms the block products at most once, and every plan is unchanged, bit for
bit, when a factor is scaled by a power of two.  The sampler draws from one
table of per-block running sums per call and still equals the per-block
``sketch_columns`` bit for bit.  The whole-block baseline's probabilities
come from one batched norm pass with the bits of the per-block norms."""

import dataclasses
import math
from collections import Counter

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
    bound_inputs_for_plan,
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


def _instance(kind):
    rng = np.random.default_rng(np.random.SeedSequence(201, spawn_key=(0,)))
    if kind == "normal":
        M, N = gen_normal_instance(5, 120, 4, rng)
    else:
        M, N = gen_heavy_tail_instance(5, 120, 4, rng)
    if kind == "zero-blocks":
        M[:, 20:40] = 0.0  # blocks 1 and 2 have zero score
        N[100:110] = 0.0  # and block 5 too
    return M, N, BlockPartition.equal(120, 6)


KINDS = ("normal", "heavy", "zero-blocks")
C, C0 = 40, 24


def _rng(seed=5):
    return np.random.default_rng(seed)


def _budgets(part, s, w):
    """The allocators' last steps: the score-sum fallback and integerize."""
    if w.sum() == 0.0:
        w = s
    return integerize(w, C, caps=np.where(s > 0, np.array(part.sizes, dtype=np.int64), 0), floor=s > 0)


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pilot", ["uniform", "norm"])
def test_two_step_equals_its_public_steps(kind, pilot):
    M, N, part = _instance(kind)
    probs = optimal_probabilities(M, N, part)
    p0 = uniform_probabilities(part) if pilot == "uniform" else probs
    s = score_sums(M, N, part)
    for c0 in (C0, 120):  # 20 pilot draws per block: BLAS then rounds by operand layout
        pilot_norms = _pilot_norms(M, N, part, p0, _rng(), c0)
        steps = (probs, _budgets(part, s, np.sqrt(np.abs(s**2 - pilot_norms**2))), pilot_norms)
        plan = allocate_two_step(M, N, part, C, c0, p0, _rng())
        _assert_same_plan(plan, *steps)
        assert plan.method == ("ONU" if pilot == "uniform" else "ONMCNR")

        pilot_rng, main_rng = _rng().spawn(2)
        pilot_norms = _pilot_norms(M, N, part, p0, pilot_rng, c0)
        res = estimate_product_two_step(M, N, part, C, c0, _rng(), pilot=pilot)
        _assert_same_plan(res.plan, probs, _budgets(part, s, np.sqrt(np.abs(s**2 - pilot_norms**2))), pilot_norms)
        _assert_same_estimate(res.pair, res.product, res.log, _sketch_estimate(M, N, res.plan, main_rng))


@pytest.mark.parametrize("kind", KINDS)
def test_estimate_product_equals_per_block_sketches(kind):
    M, N, part = _instance(kind)
    for plan in (allocate_by_score_sums(M, N, part, C), allocate_uniform(part, C)):
        _assert_same_estimate(*estimate_product(M, N, plan, _rng()), _sketch_estimate(M, N, plan, _rng()))


UNEQUAL = BlockPartition((30, 10, 25, 15, 40))  # n = 120: the table's per-block cumsum loop


@pytest.mark.parametrize("kind", KINDS)
def test_estimate_product_on_an_unequal_partition_equals_per_block_sketches(kind):
    M, N, _ = _instance(kind)  # "zero-blocks": blocks 1 and 4 have zero score
    for plan in (allocate_by_score_sums(M, N, UNEQUAL, C), allocate_uniform(UNEQUAL, C)):
        _assert_same_estimate(*estimate_product(M, N, plan, _rng()), _sketch_estimate(M, N, plan, _rng()))


def _trailing_zeros_plan():
    """Every block's trailing probabilities are zero, and blocks 0 and 2 sum
    to just below 1, so that a draw near 1 lands past their last positive
    column; block 1 is all zero."""
    part = BlockPartition((5, 4, 6))
    values = np.array([0.3, 0.3, 0.4 - 4e-13, 0, 0, 0, 0, 0, 0, 1.0 - 3e-13, 0, 0, 0, 0, 0])
    return SamplingPlan(part, BlockProbabilities(values, part), np.array([7, 0, 3]))


class _NearOne:
    """A stand-in generator whose every child draws the largest double below 1."""

    def spawn(self, n):
        return [self] * n

    def random(self, count):
        return np.full(count, np.nextafter(1.0, 0.0))


def test_draws_past_a_blocks_last_sum_are_clamped_onto_its_support():
    M, N, _ = _instance("normal")
    M, N, plan = M[:, :15], N[:15], _trailing_zeros_plan()
    pair, product, log = estimate_product(M, N, plan, _NearOne())
    np.testing.assert_array_equal(log.column, [2] * 7 + [9] * 3)
    _assert_same_estimate(pair, product, log, _sketch_estimate(M, N, plan, _NearOne()))


def test_estimate_product_with_trailing_zero_probabilities_equals_per_block_sketches():
    M, N, _ = _instance("heavy")
    M, N, plan = M[:, :15], N[:15], _trailing_zeros_plan()
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


@pytest.mark.parametrize("part", [BlockPartition.equal(120, 6), UNEQUAL])
def test_block_cumsums_equal_one_cumsum_per_block(part):
    M, N, _ = _instance("zero-blocks")
    for probs in (optimal_probabilities(M, N, part), uniform_probabilities(part)):
        cum = estimators._block_cumsums(probs)
        off = part.offsets
        assert [cum[a:b].tobytes() for a, b in zip(off, off[1:])] == [np.cumsum(p).tobytes() for p in probs.per_block]


@pytest.fixture
def sampler_work(monkeypatch):
    """Counts the running-sum tables built and the ``np.cumsum`` calls made
    inside each sampler call."""
    calls = Counter()
    original_table, original_sketch, original_cumsum = estimators._block_cumsums, estimators._sketch, np.cumsum

    def table(*args):
        calls["tables"] += 1
        return original_table(*args)

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
    M, N, part = _instance("zero-blocks")  # K = 6 equal blocks
    estimate_product_two_step(M, N, part, C, C0, _rng(), pilot=pilot)
    assert sampler_work["sketches"] == 2  # the pilot and the main pass
    assert sampler_work["tables"] == 2
    assert sampler_work["most cumsums in one sketch"] <= 1  # the offsets only, none per block


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
        **{
            f"bench.METHODS[{tag}]": (lambda tag=tag: bench.METHODS[tag](M, N, part, C, C0, _rng()))
            for tag in ("OPL", "ONC", "ONU", "ONMCNR")
        },
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
    original = plan_module._product_norms

    def counted(prof):
        calls["formed"] += 1
        return original(prof)

    for module in (plan_module, estimators, analysis, bench):
        if hasattr(module, "_product_norms"):
            monkeypatch.setattr(module, "_product_norms", counted)
    return calls


def _product_calls():
    M, N, part = _instance("zero-blocks")
    onc = allocate_by_score_sums(M, N, part, C)
    calls = _scored_calls()
    del calls["elementwise_variance"]  # needs the block products entry by entry
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
    "expected_sq_error",
    "minimum_expected_sq_error",
}


@pytest.mark.parametrize("name", list(_product_calls()))
def test_block_products_formed_once_or_never(name, product_calls):
    call = _product_calls()[name]
    product_calls.clear()
    call()
    assert product_calls["formed"] == (1 if name in FORMS_PRODUCTS else 0)


@pytest.mark.parametrize("sizes", [(20,) * 6, (30, 10, 25, 15, 40)])
def test_product_norms_match_the_block_loop(sizes):
    M, N, _ = _instance("heavy")
    part = BlockPartition(sizes)
    g = plan_module._product_norms(plan_module._profile(M, N, part))
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


@pytest.mark.parametrize("a, b", [(600, 600), (-600, -600), (600, -600)])
def test_pilot_bound_inputs_are_invariant_under_power_of_two_scaling(a, b):
    M, N, part = _instance("heavy")
    Ms, Ns = np.ldexp(M, a), np.ldexp(N, b)
    for want_plan, got_plan in zip(_plans(M, N, part)[2:], _plans(Ms, Ns, part)[2:]):
        want = bound_inputs_for_plan(M, N, want_plan, 0.1)
        got = bound_inputs_for_plan(Ms, Ns, got_plan, 0.1)
        for name in ("c", "fail_prob", "prob_floor", "cancel_lo", "cancel_hi", "ratios", "cancel_hi_exact"):
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
        assert (got.frob_m, got.frob_n) == (math.ldexp(want.frob_m, a), math.ldexp(want.frob_n, b))


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
