"""Analysis tests: exact variance formulas against enumeration, closed-form
bounds against hand-coded formulas and worked special cases, coverage
counting, and the normality diagnostic."""

import csv
import math

import numpy as np
import pytest

from blockmm import (
    BlockPartition,
    BoundInputs,
    SamplingPlan,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_two_step,
    allocate_uniform,
    bound_inputs_for_plan,
    bounds_optimal_allocation,
    bounds_pilot_allocation,
    bounds_score_allocation,
    cancellation_stats,
    elementwise_variance,
    estimate_product,
    expected_sq_error,
    minimum_expected_sq_error,
    optimal_probabilities,
    relative_error,
)
from blockmm.plan import _profile, optimal_size_weights, real_optimal_budgets, score_sums, uniform_probabilities
from montecarlo import _clopper_pearson, coverage_check, normality_diagnostic
from oracles import blockwise_mean_var, loop_cancellation, loop_expected_sq_error, loop_floor_ratio


def random_instance(seed, m=3, n=6, p=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal((n, p))


# ---------------------------------------------------------------------------
# exact variance and expected squared error


def test_variance_matches_enumeration_single_block():
    M, N = random_instance(1, m=2, n=3, p=2)
    part = BlockPartition(sizes=(3,))
    plan = SamplingPlan(part, optimal_probabilities(M, N, part), np.array([2]), method="OPL")
    _, var_enum = blockwise_mean_var(M, N, part.sizes, (2,), plan.probs.per_block)
    np.testing.assert_allclose(elementwise_variance(M, N, plan), var_enum, rtol=0, atol=1e-10)


def test_variance_matches_enumeration_two_blocks():
    M, N = random_instance(2, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    probs = optimal_probabilities(M, N, part)
    plan = SamplingPlan(part, probs, np.array([2, 1]), method="OPL")
    _, var_enum = blockwise_mean_var(M, N, part.sizes, (2, 1), probs.per_block)
    var = elementwise_variance(M, N, plan)
    np.testing.assert_allclose(var, var_enum, rtol=0, atol=1e-10)
    assert expected_sq_error(M, N, plan) == pytest.approx(var_enum.sum(), abs=1e-10)


def test_variance_zero_for_single_column_blocks():
    M, N = random_instance(3, m=2, n=3, p=2)
    part = BlockPartition(sizes=(1, 1, 1))
    plan = allocate_uniform(part, 3)
    var = elementwise_variance(M, N, plan)
    np.testing.assert_allclose(var, np.zeros_like(var), rtol=0, atol=1e-12)
    assert expected_sq_error(M, N, plan) == pytest.approx(0.0, abs=1e-12)


def test_expected_sq_error_matches_loop_oracle():
    for seed in range(8):
        M, N = random_instance(10 + seed, m=3, n=8, p=2)
        part = BlockPartition.equal(8, 4)
        plan = allocate_optimal(M, N, part, c=6)
        got = expected_sq_error(M, N, plan)
        ref = loop_expected_sq_error(M, N, part.sizes, plan.budgets, plan.probs.per_block)
        assert got == pytest.approx(ref, rel=1e-10)
        var = elementwise_variance(M, N, plan)
        assert got == pytest.approx(var.sum(), rel=1e-10)


def test_variance_budget_override_and_zero_budget_guard():
    M, N = random_instance(4, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    plan = allocate_optimal(M, N, part, c=4)
    halved = elementwise_variance(M, N, plan, budgets=2 * plan.budgets.astype(float))
    np.testing.assert_allclose(halved, elementwise_variance(M, N, plan) / 2, rtol=1e-12)
    with pytest.raises(ValueError):
        elementwise_variance(M, N, plan, budgets=np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        expected_sq_error(M, N, plan, budgets=np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        elementwise_variance(M, N, plan, budgets=np.array([2.0, -1.0]))


def test_variance_on_an_unequal_partition_matches_enumeration():
    """Unequal blocks form their products one by one; block 0 is a single
    column (no variance), block 2 scores zero and gets no draws."""
    M, N = random_instance(6, m=2, n=6, p=3)
    M[:, 4:] = 0.0
    part = BlockPartition((1, 3, 2))
    plans = [allocate_by_score_sums(M, N, part, c=4), allocate_optimal(M, N, part, c=3)]
    for plan, budgets in [(plans[0], None), (plans[1], None), (plans[0], [0, 3, 0])]:
        sizes = plan.budgets if budgets is None else budgets
        assert sizes[2] == 0
        _, var_enum = blockwise_mean_var(M, N, part.sizes, sizes, plan.probs.per_block)
        var = elementwise_variance(M, N, plan, budgets=budgets)
        np.testing.assert_allclose(var, var_enum, rtol=0, atol=1e-10)
        assert expected_sq_error(M, N, plan, budgets=budgets) == pytest.approx(var.sum(), rel=1e-12)
    for call in (elementwise_variance, expected_sq_error):
        with pytest.raises(ValueError, match="^block 1: zero budget on a block with sampling variance$"):
            call(M, N, plans[0], budgets=[1, 0, 0])


def test_variance_rejects_zero_prob_at_contributing_column():
    M, N = random_instance(5, m=2, n=2, p=2)
    part = BlockPartition(sizes=(2,))
    from blockmm import BlockProbabilities

    probs = BlockProbabilities(np.array([1.0, 0.0]), part, rule="explicit")
    plan = SamplingPlan(part, probs, np.array([2]), method="OPL")
    with pytest.raises(ValueError):
        elementwise_variance(M, N, plan)
    with pytest.raises(ValueError):
        expected_sq_error(M, N, plan)


def test_minimum_expected_sq_error_hand_and_consistency():
    # two columns, one block: weight is sqrt(s^2 - g^2) computed by hand
    M = np.array([[1.0, 2.0]])
    N = np.array([[3.0], [1.0]])
    part = BlockPartition(sizes=(2,))
    s = 1.0 * 3.0 + 2.0 * 1.0  # column/row norm products
    g = abs(M @ N).item()
    want = (s**2 - g**2) / 4
    assert minimum_expected_sq_error(M, N, part, 4) == pytest.approx(want, rel=1e-12)
    for bad in (0, -1.0, -3, math.nan, math.inf, True, "3", None, [3]):
        for call in (minimum_expected_sq_error, real_optimal_budgets):
            with pytest.raises(ValueError, match="budget c must be finite and > 0"):
                call(M, N, part, bad)

    # equals the general formula evaluated at optimal probs and real sizes
    for seed in range(6):
        M, N = random_instance(20 + seed, m=3, n=9, p=3)
        part = BlockPartition.equal(9, 3)
        plan = allocate_optimal(M, N, part, c=7)
        real = real_optimal_budgets(M, N, part, 7)
        at_real = expected_sq_error(M, N, plan, budgets=real)
        assert minimum_expected_sq_error(M, N, part, 7) == pytest.approx(at_real, rel=1e-10)
        # integer sizes can only do worse
        assert expected_sq_error(M, N, plan) >= at_real - 1e-12


def test_minimum_zero_when_every_block_is_variance_free():
    M, N = random_instance(6, m=2, n=3, p=2)
    part = BlockPartition(sizes=(1, 1, 1))
    assert minimum_expected_sq_error(M, N, part, 5) == 0.0


def test_budget_scaling_quarters_the_objective():
    M, N = random_instance(7, m=3, n=8, p=3)
    part = BlockPartition.equal(8, 2)
    assert minimum_expected_sq_error(M, N, part, 2) == pytest.approx(
        4 * minimum_expected_sq_error(M, N, part, 8), rel=1e-12
    )
    small = expected_sq_error(M, N, allocate_optimal(M, N, part, c=2))
    big = expected_sq_error(M, N, allocate_optimal(M, N, part, c=8))
    assert 3.0 <= small / big <= 5.0


# ---------------------------------------------------------------------------
# cancellation statistics


def test_cancellation_hand_identity_block():
    M = np.eye(2)
    N = np.eye(2)
    part = BlockPartition(sizes=(2,))
    st = cancellation_stats(M, N, part)
    assert st.ratios[0] == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert st.cancel[0] == pytest.approx(0.5, rel=1e-12)
    assert st.cancel_lo == st.cancel_hi == pytest.approx(0.5, rel=1e-12)
    assert st.lo_available and st.exact
    assert st.degenerate_blocks == () and st.zero_score_blocks == ()


def test_cancellation_full_cancellation_block():
    M = np.array([[1.0, 1.0]])
    N = np.array([[1.0], [-1.0]])
    part = BlockPartition(sizes=(2,))
    st = cancellation_stats(M, N, part)
    assert st.ratios[0] == 0.0
    assert st.cancel_hi == pytest.approx(1.0)


def test_cancellation_single_column_block_is_degenerate():
    M, N = random_instance(8, m=2, n=4, p=2)
    part = BlockPartition(sizes=(1, 3))
    st = cancellation_stats(M, N, part)
    assert st.ratios[0] == pytest.approx(1.0, rel=1e-12)
    assert st.degenerate_blocks == (0,)
    assert st.lo_available  # block 1 still carries a usable low statistic
    assert st.cancel_lo == pytest.approx(st.cancel[1])


def test_cancellation_pilot_norms_can_overshoot():
    M, N = random_instance(9, m=2, n=4, p=2)
    part = BlockPartition.equal(4, 2)
    s = score_sums(M, N, part)
    pilots = np.array([1.25 * s[0], s[1] / 3.0])
    st = cancellation_stats(M, N, part, pilot_norms=pilots)
    assert not st.exact
    assert st.ratios[0] == pytest.approx(1.25, rel=1e-12)
    assert st.cancel[0] == pytest.approx(abs(1 - 1.25**2), rel=1e-12)
    assert st.cancel[1] == pytest.approx(1 - 1.0 / 9.0, rel=1e-12)
    with pytest.raises(ValueError):
        cancellation_stats(M, N, part, pilot_norms=np.array([1.0]))


def test_cancellation_rejects_all_zero_scores():
    part = BlockPartition(sizes=(2,))
    with pytest.raises(ValueError):
        cancellation_stats(np.zeros((2, 2)), np.zeros((2, 2)), part)


def _cancellation_instances():
    """The hand cases above, then random Cauchy instances at scales 2**-200
    to 2**200, with blocks of one to three columns and, in most, one
    zero-score block; each with pilot norms of 0 to 2.5 times the score
    sums, one block's exactly at its score sum."""
    M, N = random_instance(8, m=2, n=4, p=2)
    cases = [
        (np.eye(2), np.eye(2), (2,)),
        (np.array([[1.0, 1.0]]), np.array([[1.0], [-1.0]]), (2,)),
        (M, N, (1, 3)),
        (*random_instance(9, m=2, n=4, p=2), (2, 2)),
    ]
    rng = np.random.default_rng(2024)
    for _ in range(60):
        sizes = tuple(int(x) for x in rng.integers(1, 4, int(rng.integers(2, 9))))
        n = sum(sizes)
        M = rng.standard_cauchy((int(rng.integers(1, 6)), n))
        N = rng.standard_cauchy((n, int(rng.integers(1, 6))))
        if rng.random() < 0.8:
            k = int(rng.integers(len(sizes)))
            M[:, sum(sizes[:k]) : sum(sizes[: k + 1])] = 0.0
        cases.append((np.ldexp(M, int(rng.integers(-200, 201))), N, sizes))
    for M, N, sizes in cases:
        part = BlockPartition(sizes)
        factors = rng.random(len(sizes)) * 2.5
        factors[rng.integers(len(sizes))] = 1.0
        yield M, N, part, score_sums(M, N, part) * factors


def _assert_stats_equal(st, want, exact):
    ratios, cancel, lo, hi, zero, degenerate = want
    np.testing.assert_array_equal(st.ratios, ratios)
    np.testing.assert_array_equal(st.cancel, cancel)
    assert (st.cancel_lo, st.cancel_hi, st.exact) == (lo, hi, exact)
    assert (st.zero_score_blocks, st.degenerate_blocks) == (zero, degenerate)
    assert st.lo_available == (len(ratios) > len(zero) + len(degenerate))


def test_cancellation_statistics_equal_the_loop_oracle():
    """Exact equality, NaN in the same places, with a per-block loop over the
    profile's score sums and product norms: ``cancellation_stats`` in both
    forms, and the statistics and floor of ``bound_inputs_for_plan`` for the
    ONC, OPL, UU and both two-step plans."""
    seen = set()
    for M, N, part, pilot in _cancellation_instances():
        prof = _profile(M, N, part)
        exact = loop_cancellation(prof.sums, prof.product_norms, exact=True)
        _assert_stats_equal(cancellation_stats(M, N, part), exact, True)
        est = loop_cancellation(prof.sums, np.ldexp(pilot, prof.scale), exact=False)
        _assert_stats_equal(cancellation_stats(M, N, part, pilot_norms=pilot), est, False)
        seen.update(("zero score",) * bool(exact[4]), ("degenerate",) * bool(exact[5]))
        seen.update(("pilot overshoot",) * bool((est[0] > 1).any()), ("pilot degenerate",) * bool(est[5]))
        c = int(np.array(part.sizes)[prof.sums > 0].sum())  # every scored column
        rng = np.random.default_rng(c)
        plans = [allocate_by_score_sums(M, N, part, c), allocate_optimal(M, N, part, c), allocate_uniform(part, part.total)]
        for p0 in (uniform_probabilities(part), optimal_probabilities(M, N, part)):
            plans.append(allocate_two_step(M, N, part, c, 2 * part.total, p0, rng))
        for plan in plans:
            inp = bound_inputs_for_plan(M, N, plan, fail_prob=0.1)
            want = exact
            if plan.pilot_norms is not None:
                want = loop_cancellation(prof.sums, np.ldexp(plan.pilot_norms, prof.scale), exact=False)
                assert inp.cancel_hi_exact == exact[3]
            else:
                assert inp.cancel_hi_exact is None
            np.testing.assert_array_equal(inp.ratios, want[0])
            assert (inp.cancel_lo, inp.cancel_hi) == want[2:4]
            assert inp.prob_floor == loop_floor_ratio(plan.probs.values, optimal_probabilities(M, N, part).values)
    assert seen == {"zero score", "degenerate", "pilot overshoot", "pilot degenerate"}


# ---------------------------------------------------------------------------
# closed-form bounds


def hand_bound(kind, c, delta, beta, lo, hi, fm, fn, hi_exact=None):
    """Bound formulas re-coded from scratch for cross-checking."""
    base = fm * fm * fn * fn / (beta * c)
    tail = np.sqrt(8.0 * np.log(1.0 / delta) / beta)
    if kind == "score":
        phi = np.sqrt(1.0 - beta * (1.0 - hi))
        eta = phi + tail
    else:
        top = hi - lo * beta + (hi if kind == "optimal" else hi_exact) * lo * beta
        phi = np.sqrt(top) / (hi * lo) ** 0.25
        eta = phi + np.sqrt(hi / lo) * tail
    return phi * phi * base, eta * eta * base


def test_bound_special_case_half_half():
    # lo = hi = 0.5, floor 1, fail prob 0.1: eta is sqrt(0.5) + sqrt(8 ln 10)
    inp = BoundInputs(
        c=10, fail_prob=0.1, prob_floor=1.0, cancel_lo=0.5, cancel_hi=0.5, frob_m=1.0, frob_n=1.0
    )
    pair = bounds_optimal_allocation(inp)
    base = 1.0 / 10
    eta = math.sqrt(pair.sq_error_bound / base)
    assert eta == pytest.approx(math.sqrt(0.5) + math.sqrt(8 * math.log(10)), abs=1e-12)
    assert eta == pytest.approx(4.999, abs=1e-3)
    phi = math.sqrt(pair.variance_bound / base)
    assert phi == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_bound_no_cancellation_no_slack():
    inp = BoundInputs(
        c=4, fail_prob=0.5, prob_floor=1.0, cancel_lo=1.0, cancel_hi=1.0, frob_m=2.0, frob_n=1.5
    )
    pair = bounds_optimal_allocation(inp)
    assert pair.variance_bound == pytest.approx(2.0**2 * 1.5**2 / 4, rel=1e-12)


def test_score_bound_beta_one_matches_optimal_at_equal_stats():
    for theta in (0.1, 0.3, 0.6, 0.9, 1.0):
        inp = BoundInputs(
            c=25, fail_prob=0.1, prob_floor=1.0, cancel_lo=theta, cancel_hi=theta,
            frob_m=1.3, frob_n=0.7,
        )
        s = bounds_score_allocation(inp)
        o = bounds_optimal_allocation(inp)
        # with floor 1 the score-allocation factor collapses to sqrt(theta)
        base = 1.3**2 * 0.7**2 / 25
        assert s.variance_bound == pytest.approx(theta * base, rel=1e-12)
        assert s.variance_bound == pytest.approx(o.variance_bound, rel=1e-12)
        assert s.sq_error_bound == pytest.approx(o.sq_error_bound, rel=1e-12)


def test_bounds_match_hand_formulas():
    rng = np.random.default_rng(30)
    for _ in range(40):
        lo = rng.uniform(0.02, 1.0)
        hi = rng.uniform(lo, 1.0)
        beta = rng.uniform(0.05, 1.0)
        delta = rng.uniform(0.01, 0.5)
        c = int(rng.integers(1, 500))
        fm, fn = rng.uniform(0.5, 4, size=2)
        inp = BoundInputs(
            c=c, fail_prob=delta, prob_floor=beta, cancel_lo=lo, cancel_hi=hi,
            frob_m=fm, frob_n=fn, cancel_hi_exact=hi * rng.uniform(0.5, 1.0),
        )
        for fn_dut, kind in (
            (bounds_optimal_allocation, "optimal"),
            (bounds_score_allocation, "score"),
            (bounds_pilot_allocation, "pilot"),
        ):
            got = fn_dut(inp)
            want = hand_bound(kind, c, delta, beta, lo, hi, fm, fn, inp.cancel_hi_exact)
            assert got.variance_bound == pytest.approx(want[0], rel=1e-12)
            assert got.sq_error_bound == pytest.approx(want[1], rel=1e-12)
            assert got.sq_error_bound >= got.variance_bound


def test_pilot_bound_reduces_to_optimal_and_dominates_score():
    for lo, hi, beta in ((0.2, 0.7, 0.4), (0.5, 0.5, 1.0), (0.05, 0.9, 0.8)):
        inp = BoundInputs(
            c=50, fail_prob=0.05, prob_floor=beta, cancel_lo=lo, cancel_hi=hi,
            frob_m=1.0, frob_n=1.0, cancel_hi_exact=hi,
        )
        p = bounds_pilot_allocation(inp)
        o = bounds_optimal_allocation(inp)
        s = bounds_score_allocation(inp)
        assert p.variance_bound == pytest.approx(o.variance_bound, rel=1e-12)
        assert p.sq_error_bound == pytest.approx(o.sq_error_bound, rel=1e-12)
        assert p.variance_bound >= s.variance_bound - 1e-12


def test_bounds_monotone_in_budget_and_floor():
    kw = dict(fail_prob=0.1, cancel_lo=0.3, cancel_hi=0.8, frob_m=1.0, frob_n=2.0)
    a = bounds_optimal_allocation(BoundInputs(c=100, prob_floor=0.5, **kw))
    b = bounds_optimal_allocation(BoundInputs(c=200, prob_floor=0.5, **kw))
    assert b.variance_bound == pytest.approx(a.variance_bound / 2, rel=1e-12)
    assert b.sq_error_bound == pytest.approx(a.sq_error_bound / 2, rel=1e-12)
    prev = math.inf
    for beta in (0.1, 0.3, 0.5, 0.8, 1.0):
        cur = bounds_optimal_allocation(BoundInputs(c=100, prob_floor=beta, **kw))
        assert cur.sq_error_bound <= prev + 1e-12
        prev = cur.sq_error_bound
    prev = math.inf
    for beta in (0.1, 0.3, 0.5, 0.8, 1.0):
        cur = bounds_score_allocation(BoundInputs(c=100, prob_floor=beta, **kw))
        assert cur.sq_error_bound <= prev + 1e-12
        prev = cur.sq_error_bound


def test_bound_degenerate_premises_go_infinite():
    kw = dict(c=10, fail_prob=0.1, frob_m=1.0, frob_n=1.0)
    z = bounds_optimal_allocation(
        BoundInputs(prob_floor=0.0, cancel_lo=0.3, cancel_hi=0.8, **kw)
    )
    assert z == (math.inf, math.inf)
    z = bounds_optimal_allocation(
        BoundInputs(prob_floor=0.5, cancel_lo=0.0, cancel_hi=0.8, **kw)
    )
    assert z == (math.inf, math.inf)
    z = bounds_score_allocation(BoundInputs(prob_floor=0.0, cancel_lo=0.2, cancel_hi=0.8, **kw))
    assert z == (math.inf, math.inf)
    z = bounds_pilot_allocation(
        BoundInputs(prob_floor=0.5, cancel_lo=0.0, cancel_hi=0.8, cancel_hi_exact=0.8, **kw)
    )
    assert z == (math.inf, math.inf)


def test_bounds_beyond_float64_read_inf_and_never_raise():
    kw = dict(c=1, fail_prob=0.1, prob_floor=1e-120)
    # eta is about 4.3e160, so its square alone lies beyond float64.
    pair = bounds_optimal_allocation(BoundInputs(cancel_lo=1e-200, cancel_hi=1.0, frob_m=1.0, frob_n=1.0, **kw))
    assert pair.variance_bound == pytest.approx(1e220, rel=1e-14)
    assert pair.sq_error_bound == math.inf
    # The same eta against tiny norms: the bound itself is representable.
    pair = bounds_optimal_allocation(BoundInputs(cancel_lo=1e-200, cancel_hi=1.0, frob_m=1e-150, frob_n=1e-150, **kw))
    assert pair.sq_error_bound == pytest.approx(8 * math.log(10) * 1e-160, rel=1e-13)
    # hi * lo underflows to 0, and (hi * lo)**0.25 with it.
    pair = bounds_optimal_allocation(BoundInputs(cancel_lo=1e-200, cancel_hi=1e-200, frob_m=1.0, frob_n=1.0, **kw))
    assert pair.variance_bound == pytest.approx(1e120, rel=1e-14)
    # A subnormal floor against a zero norm: 0, not inf * 0.
    pair = bounds_score_allocation(
        BoundInputs(c=1, fail_prob=0.1, prob_floor=1e-320, cancel_lo=0.2, cancel_hi=0.8, frob_m=0.0, frob_n=1.0)
    )
    assert pair == (0.0, 0.0)
    # The squared analytics of factors at 2**700 lie beyond float64 and read
    # inf; at 2**-700 they underflow, finite.
    rng = np.random.default_rng(12)
    M, N = rng.standard_normal((3, 12)), rng.standard_normal((12, 2))
    part = BlockPartition.equal(12, 3)
    for e, beyond in ((700, True), (-700, False)):
        Ms = np.ldexp(M, e)
        plan = allocate_by_score_sums(Ms, N, part, c=6)
        values = [expected_sq_error(Ms, N, plan), minimum_expected_sq_error(Ms, N, part, 6)]
        var = elementwise_variance(Ms, N, plan)
        assert [math.isinf(v) for v in values] == [beyond] * 2
        assert np.isinf(var).all() if beyond else np.isfinite(var).all()
        assert values[0] >= 0.0 and (var >= 0.0).all()
        bound = bounds_score_allocation(bound_inputs_for_plan(Ms, N, plan, 0.1)).sq_error_bound
        assert math.isinf(bound) == beyond


def log_bounds(kind, inp):
    """The bound pair's logarithms, re-coded from scratch: every factor enters
    as its logarithm, so no intermediate leaves float64."""
    delta, beta, lo, hi = inp.fail_prob, inp.prob_floor, inp.cancel_lo, inp.cancel_hi
    if kind == "score":
        top, lo, hi = 1.0 - beta * (1.0 - hi), 1.0, 1.0
    else:
        top = hi - lo * beta + (hi if kind == "optimal" else inp.cancel_hi_exact) * lo * beta
    log_phi = 0.5 * math.log(top) - 0.25 * (math.log(hi) + math.log(lo))
    log_tail = 0.5 * (math.log(hi) - math.log(lo) + math.log(8.0) + math.log(-math.log(delta)) - math.log(beta))
    log_base = 2.0 * (math.log(inp.frob_m) + math.log(inp.frob_n)) - math.log(beta) - math.log(inp.c)
    return 2.0 * log_phi + log_base, 2.0 * float(np.logaddexp(log_phi, log_tail)) + log_base


@pytest.mark.parametrize(
    "kw, optimal_sq_error",
    [
        (dict(fail_prob=1e-320, cancel_lo=0.1, frob_m=1.0, frob_n=1.0), 29962.19),  # 1 / fail_prob overflows
        (dict(fail_prob=0.1, cancel_lo=5e-324, frob_m=1e-100, frob_n=1e-100), 1.864e-76),  # so does hi / lo * 8
    ],
)
def test_bounds_match_a_log_space_reference_where_an_intermediate_overflows(kw, optimal_sq_error):
    inp = BoundInputs(c=1, prob_floor=1.0, cancel_hi=0.5, cancel_hi_exact=0.4, **kw)
    for kind, bounds in (
        ("optimal", bounds_optimal_allocation),
        ("score", bounds_score_allocation),
        ("pilot", bounds_pilot_allocation),
    ):
        assert bounds(inp) == pytest.approx([math.exp(x) for x in log_bounds(kind, inp)], rel=1e-12), kind
    assert bounds_optimal_allocation(inp).sq_error_bound == pytest.approx(optimal_sq_error, rel=1e-4)


@pytest.mark.filterwarnings("error")
def test_analytics_on_a_subnormal_budget_never_warn():
    """A budget of 1e-320 puts the variance beyond float64: it reads inf, with
    no overflow warning.  Where the variance itself is representable, it is
    read: factors at 2**-300 with 2**-1070 on block 0 scale that block's term
    by 2**(1070 - 1200), and a budget of 2**1000 on block 1 drops its term
    in both."""
    M, N = random_instance(1, m=3, n=12, p=2)
    part = BlockPartition.equal(12, 2)
    plan = allocate_by_score_sums(M, N, part, c=6)
    assert expected_sq_error(M, N, plan, budgets=[1e-320, 1.0]) == math.inf
    assert np.isposinf(elementwise_variance(M, N, plan, budgets=[1e-320, 1.0])).all()
    small, tiny, ref = 2.0**-300, [2.0**-1070, 1.0], [1.0, 2.0**1000]
    want = expected_sq_error(M, N, plan, budgets=ref) * 2.0**-130
    assert want > 0.0
    assert expected_sq_error(M * small, N * small, plan, budgets=tiny) == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(
        elementwise_variance(M * small, N * small, plan, budgets=tiny),
        elementwise_variance(M, N, plan, budgets=ref) * 2.0**-130,
        rtol=1e-12,
    )


def test_bound_inputs_take_any_c_that_float64_holds():
    ok = dict(fail_prob=0.1, prob_floor=1.0, cancel_lo=0.2, cancel_hi=0.8, frob_m=1.0, frob_n=1.0)
    one = bounds_score_allocation(BoundInputs(c=1, **ok))
    assert bounds_score_allocation(BoundInputs(c=2**1023, **ok)) == pytest.approx([b / 2.0**1023 for b in one])
    with pytest.raises(ValueError, match="^c must lie in \\[1, 1.7976931348623157e\\+308\\], the largest float64$"):
        BoundInputs(c=2**1024, **ok)


def test_pilot_bound_clamps_a_radicand_below_zero():
    """``BoundInputs`` lets cancel_hi lie up to 1e-15 below cancel_lo; the
    radicand hi - lo * floor + hi_exact * lo * floor then falls below 0 and
    is clamped to 0, as the score bound clamps its own."""
    inp = BoundInputs(c=10, fail_prob=0.1, prob_floor=1.0, cancel_lo=0.5, cancel_hi=0.5 - 1e-16,
                      frob_m=1.0, frob_n=1.0, cancel_hi_exact=0.0)
    pair = bounds_pilot_allocation(inp)
    assert pair.variance_bound == 0.0
    eta = math.sqrt(inp.cancel_hi / inp.cancel_lo * 8.0 * math.log(10.0))
    assert pair.sq_error_bound == pytest.approx(eta**2 / 10, rel=1e-14)


def test_bound_input_validation():
    ok = dict(c=10, fail_prob=0.1, prob_floor=0.5, cancel_lo=0.2, cancel_hi=0.8,
              frob_m=1.0, frob_n=1.0)
    BoundInputs(**ok)
    for field, bad in (
        ("c", 0),
        ("fail_prob", 0.0),
        ("fail_prob", 1.0),
        ("prob_floor", -0.1),
        ("prob_floor", 1.5),
        ("cancel_lo", -0.2),
        ("frob_m", -1.0),
        ("cancel_lo", math.nan),
        ("frob_m", math.nan),
        ("cancel_hi", math.inf),
        ("c", 2.5),
        ("c", True),
        ("fail_prob", None),
        ("prob_floor", "0.5"),
        ("cancel_lo", [0.2]),
        ("cancel_hi", None),
        ("frob_m", "1.0"),
        ("frob_n", [1.0]),
        ("cancel_hi_exact", "0.8"),
        ("prob_floor", True),
        ("cancel_hi", True),
        ("frob_m", True),
        ("frob_n", True),
    ):
        with pytest.raises(ValueError, match=field):
            BoundInputs(**{**ok, field: bad})
    with pytest.raises(ValueError):
        BoundInputs(**{**ok, "cancel_lo": 0.9})  # lo above hi
    with pytest.raises(ValueError):
        bounds_score_allocation(BoundInputs(**{**ok, "cancel_hi": 1.5}))
    with pytest.raises(ValueError):
        bounds_pilot_allocation(BoundInputs(**ok))  # no exact high statistic


def test_bound_inputs_for_plan_and_ordering():
    for seed in range(10):
        M, N = random_instance(40 + seed, m=4, n=12, p=4)
        part = BlockPartition.equal(12, 3)
        plan = allocate_optimal(M, N, part, c=9)
        inp = bound_inputs_for_plan(M, N, plan, fail_prob=0.1)
        assert inp.prob_floor == pytest.approx(1.0, rel=1e-12)
        assert inp.cancel_hi_exact is None
        pair = bounds_optimal_allocation(inp)
        # the variance bound dominates the exact objective at the real optimum
        real = real_optimal_budgets(M, N, part, 9)
        assert pair.variance_bound >= expected_sq_error(M, N, plan, budgets=real)
        assert pair.variance_bound >= minimum_expected_sq_error(M, N, part, 9)
        assert pair.sq_error_bound >= pair.variance_bound

        cheap = allocate_by_score_sums(M, N, part, c=9)
        s_inp = bound_inputs_for_plan(M, N, cheap, fail_prob=0.1)
        s_pair = bounds_score_allocation(s_inp)
        assert s_pair.variance_bound >= expected_sq_error(M, N, cheap) - 1e-12


def test_bound_inputs_for_two_step_plan():
    M, N = random_instance(50, m=3, n=12, p=3)
    part = BlockPartition.equal(12, 3)
    p0 = optimal_probabilities(M, N, part)
    plan = allocate_two_step(M, N, part, 9, 6, p0, np.random.default_rng(51))
    assert plan.pilot_norms is not None
    inp = bound_inputs_for_plan(M, N, plan, fail_prob=0.1)
    assert inp.cancel_hi_exact is not None
    exact_hi = cancellation_stats(M, N, part).cancel_hi
    assert inp.cancel_hi_exact == pytest.approx(exact_hi, rel=1e-12)
    pair = bounds_pilot_allocation(inp)
    assert pair.sq_error_bound >= pair.variance_bound > 0


# ---------------------------------------------------------------------------
# relative error, coverage, normality


def test_non_finite_or_negative_budget_overrides_rejected():
    """A NaN override would drop its block from the objective, like an
    infinite one, and would make the variance NaN."""
    M, N = random_instance(40, m=4, n=12, p=3)
    part = BlockPartition.equal(12, 3)
    plan = allocate_by_score_sums(M, N, part, c=6)
    for call in (expected_sq_error, elementwise_variance):
        for bad in ([math.nan, 2, 2], [math.inf, 2, 2], [2, -1, 2]):
            with pytest.raises(ValueError, match="budget override must be finite and >= 0"):
                call(M, N, plan, budgets=bad)
        with pytest.raises(ValueError, match="budget override must have shape"):
            call(M, N, plan, budgets=[2, 2])


def test_non_finite_or_negative_pilot_norms_rejected():
    M, N = random_instance(41, m=4, n=12, p=3)
    part = BlockPartition.equal(12, 3)
    plan = allocate_by_score_sums(M, N, part, c=6)
    for bad in ([math.nan, 1, 1], [-1, 1, 1], [math.inf, 1, 1]):
        with pytest.raises(ValueError, match="pilot_norms must be finite and >= 0"):
            SamplingPlan(part, plan.probs, plan.budgets, pilot_norms=bad)
        with pytest.raises(ValueError, match="pilot_norms must be finite and >= 0"):
            cancellation_stats(M, N, part, pilot_norms=bad)
    ok = SamplingPlan(part, plan.probs, plan.budgets, pilot_norms=[0.5, 1, 1])
    assert math.isfinite(bounds_pilot_allocation(bound_inputs_for_plan(M, N, ok, 0.1)).sq_error_bound)


def test_relative_error_basics():
    exact = np.array([[3.0, 4.0]])
    assert relative_error(exact, exact) == 0.0
    assert relative_error(np.zeros((1, 2)), exact) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), exact)


def test_clopper_pearson_edges():
    lo, hi = _clopper_pearson(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-9)
    lo, hi = _clopper_pearson(100, 100)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 100), rel=1e-9)
    lo, hi = _clopper_pearson(5, 100)
    assert lo < 0.05 < hi


def test_coverage_counts_violations():
    M, N = random_instance(60, m=2, n=4, p=2)
    exact = M @ N

    def never(stream):
        return exact, 1e-30

    res = coverage_check(M, N, 120, np.random.default_rng(61), never)
    assert res == (120, 0, 0.0, res.ci_low, res.ci_high)
    assert res.ci_low == 0.0

    off = exact + 1.0  # squared error = number of entries

    def always(stream):
        return off, 1.0

    res = coverage_check(M, N, 120, np.random.default_rng(62), always)
    assert res.violations == 120 and res.frequency == 1.0

    with pytest.raises(ValueError):
        coverage_check(M, N, 99, np.random.default_rng(63), never)
    with pytest.raises(ValueError, match="reps must be an integer"):
        coverage_check(M, N, 100.5, np.random.default_rng(63), never)


def test_coverage_of_closed_form_bound():
    M, N = random_instance(64, m=4, n=40, p=4)
    part = BlockPartition.equal(40, 4)
    plan = allocate_optimal(M, N, part, c=30)
    pair = bounds_optimal_allocation(bound_inputs_for_plan(M, N, plan, fail_prob=0.2))

    def runner(stream):
        return estimate_product(M, N, plan, stream)[1], pair.sq_error_bound

    res = coverage_check(M, N, 300, np.random.default_rng(65), runner)
    assert res.frequency <= 0.2
    assert res.ci_low <= res.frequency <= res.ci_high


def test_normality_validation():
    M, N = random_instance(70, m=2, n=3, p=2)
    part = BlockPartition(sizes=(1, 1, 1))
    plan = allocate_uniform(part, 3)
    with pytest.raises(ValueError):
        normality_diagnostic(M, N, plan, (0, 0), 1000, np.random.default_rng(71))
    varied = allocate_optimal(M, N, BlockPartition(sizes=(3,)), c=2)
    with pytest.raises(ValueError):
        normality_diagnostic(M, N, varied, (0, 0), 999, np.random.default_rng(71))
    with pytest.raises(ValueError, match="reps must be an integer"):
        normality_diagnostic(M, N, varied, (0, 0), 1000.5, np.random.default_rng(71))


def test_normality_improves_with_block_budget():
    rng = np.random.default_rng(77)
    M = np.exp(2.0 * rng.standard_normal((3, 400)))
    N = np.exp(2.0 * rng.standard_normal((400, 3)))
    part = BlockPartition.equal(400, 2)
    few = allocate_optimal(M, N, part, c=4)
    many = allocate_optimal(M, N, part, c=200)
    res_few = normality_diagnostic(M, N, few, (0, 0), 1500, np.random.default_rng(0))
    res_many = normality_diagnostic(M, N, many, (0, 0), 1500, np.random.default_rng(0))
    assert res_many.ks_distance < 0.05
    assert res_few.ks_distance > res_many.ks_distance + 0.1
    assert abs(res_many.mean) < 0.1
    assert 0.85 <= res_many.variance <= 1.15
    assert res_many.samples.shape == (1500,)
