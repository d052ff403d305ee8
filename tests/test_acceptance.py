"""Acceptance gate: ten end-to-end checks covering unbiasedness, the exact
variance formula, allocation optimality, closed-form consistency, bound
coverage, budget scaling, qualitative method ordering, two-step convergence,
asymptotic normality, and byte-level determinism.

Each check records one `[criterion NN] PASS/FAIL` line; conftest echoes them
in a terminal-summary section so the gate survives pytest's output capture.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from blockmm import (
    BlockPartition,
    BoundInputs,
    ExperimentConfig,
    SamplingPlan,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_two_step,
    bound_inputs_for_plan,
    bounds_optimal_allocation,
    bounds_pilot_allocation,
    bounds_score_allocation,
    cancellation_stats,
    estimate_product,
    estimate_product_two_step,
    expected_sq_error,
    elementwise_variance,
    gen_normal_instance,
    minimum_expected_sq_error,
    optimal_probabilities,
    run,
    uniform_probabilities,
)
from blockmm.bench import make_instance, write_records
from blockmm.matrix import frobenius_norm, multiply_exact
from blockmm.plan import optimal_size_weights, real_optimal_budgets
from montecarlo import coverage_check, normality_diagnostic
from oracles import blockwise_mean_var, joint_mean_var, loop_expected_sq_error


CRITERION_LINES: list[str] = []


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"[criterion {num:02d}] FAIL - {desc}")
        raise
    CRITERION_LINES.append(f"[criterion {num:02d}] PASS - {desc}")


# ---------------------------------------------------------------------------
# shared inputs


def enumerable_instances():
    """24 small instances whose joint outcome space enumerates below 1e6."""
    rng = np.random.default_rng(416)
    out = []
    for i in range(24):
        K = int(rng.integers(2, 4))
        nk = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        n = K * nk
        M = rng.standard_normal((m, n))
        N = rng.standard_normal((n, p))
        part = BlockPartition.equal(n, K)
        budgets = rng.integers(1, 4, size=K)
        probs = (
            optimal_probabilities(M, N, part) if i % 2 == 0 else uniform_probabilities(part)
        )
        outcomes = 1
        for ck in budgets:
            outcomes *= nk**int(ck)
        assert outcomes <= 10**6
        out.append((M, N, part, budgets, probs))
    return out


@pytest.fixture(scope="module")
def enum_results():
    rows = []
    for M, N, part, budgets, probs in enumerable_instances():
        mean, var = blockwise_mean_var(M, N, part.sizes, budgets, probs.per_block)
        plan = SamplingPlan(part, probs, budgets, method="OPL")
        rows.append(
            dict(
                mean_gap=np.abs(mean - multiply_exact(M, N)).max(),
                var_gap=np.abs(elementwise_variance(M, N, plan) - var).max(),
            )
        )
    return rows


@pytest.fixture(scope="module")
def desk():
    """The heavy-tailed reference instance all desk-scale criteria share."""
    cfg = ExperimentConfig()  # case II, m=26, n=20000, p=28, seed 12345
    M, N = make_instance(cfg)
    part = BlockPartition.equal(cfg.n, 10)
    return dict(M=M, N=N, part=part, c=2000, c0=200)


@pytest.fixture(scope="module")
def case_ii_sweep():
    cfg = ExperimentConfig(case="II", methods=("OPL", "ONC", "SSM"), reps=40, record_timing=False)
    summary = run(cfg)[1]
    return {(s.sweep_value, s.method): s.rel_error_median for s in summary}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_unbiasedness(enum_results):
    with criterion(1, "enumerated estimator mean equals the exact product (24 instances, 1e-10)"):
        assert max(r["mean_gap"] for r in enum_results) <= 1e-10
        # spot-check the blockwise enumeration against the full product measure
        rng = np.random.default_rng(417)
        M = rng.standard_normal((2, 4))
        N = rng.standard_normal((4, 2))
        part = BlockPartition.equal(4, 2)
        probs = optimal_probabilities(M, N, part)
        mb, vb = blockwise_mean_var(M, N, part.sizes, (2, 1), probs.per_block)
        mj, vj = joint_mean_var(M, N, part.sizes, (2, 1), probs.per_block)
        assert np.abs(mb - mj).max() <= 1e-12 and np.abs(vb - vj).max() <= 1e-12


def test_criterion_02_variance_formula(enum_results):
    with criterion(2, "analytic per-entry variance matches enumeration (24 instances, 1e-10)"):
        assert max(r["var_gap"] for r in enum_results) <= 1e-10


def test_criterion_03_optimality():
    with criterion(3, "optimal plan beats 100 feasible perturbations on each of 100 instances"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            p = int(rng.integers(2, 5))
            K = int(rng.integers(2, 4))
            nk = int(rng.integers(2, 5))
            n = K * nk
            M = rng.standard_normal((m, n))
            N = rng.standard_normal((n, p))
            part = BlockPartition.equal(n, K)
            c = int(rng.integers(K, 3 * K + 1))
            pstar = optimal_probabilities(M, N, part).per_block
            cstar = real_optimal_budgets(M, N, part, c)
            J0 = loop_expected_sq_error(M, N, part.sizes, cstar, pstar)

            # 98 random feasible mixtures: never an improvement
            for j in range(98):
                t = float(rng.uniform(1e-2, 0.5))
                style = j % 3
                q = [rng.dirichlet(np.ones(nk)) for _ in range(K)]
                r = rng.dirichlet(np.ones(K)) * c
                p_alt = (
                    [(1 - t) * ps + t * qs for ps, qs in zip(pstar, q)] if style != 1 else pstar
                )
                c_alt = (1 - t) * cstar + t * r if style != 0 else cstar
                assert loop_expected_sq_error(M, N, part.sizes, c_alt, p_alt) >= J0 - 1e-12

            # two size-1e-2 moves along directions with real curvature:
            # strict improvement of at least 1e-8 over the perturbed points
            t = 1e-2
            w = optimal_size_weights(M, N, part)
            kstar = int(np.argmax(w))
            pk = pstar[kstar]
            i, j = np.argsort(pk)[-2:]
            p_alt = [v.copy() for v in pstar]
            p_alt[kstar][i] += t * pk[j] / 2
            p_alt[kstar][j] -= t * pk[j] / 2
            assert loop_expected_sq_error(M, N, part.sizes, cstar, p_alt) - J0 >= 1e-8

            k1, k2 = np.argsort(w)[-2:]
            c_alt = cstar.copy()
            c_alt[k2] += t * cstar[k1] / 2
            c_alt[k1] -= t * cstar[k1] / 2
            assert loop_expected_sq_error(M, N, part.sizes, c_alt, pstar) - J0 >= 1e-8


def test_criterion_04_closed_form_consistency():
    with criterion(4, "closed-form minimum equals the objective at the real optimum (100 instances)"):
        rng = np.random.default_rng(418)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            p = int(rng.integers(2, 6))
            K = int(rng.integers(2, 6))
            nk = int(rng.integers(2, 7))
            n = K * nk
            M = rng.standard_normal((m, n))
            N = rng.standard_normal((n, p))
            part = BlockPartition.equal(n, K)
            c = int(rng.integers(K, n + 1))
            plan = allocate_optimal(M, N, part, c)
            got = expected_sq_error(M, N, plan, budgets=real_optimal_budgets(M, N, part, c))
            want = minimum_expected_sq_error(M, N, part, c)
            assert got == pytest.approx(want, rel=1e-10)


def test_criterion_05_bound_validity(desk):
    with criterion(5, "squared-error bounds hold with frequency >= 1-delta (1000 reps each)"):
        M, N, part, c, c0 = desk["M"], desk["N"], desk["part"], desk["c"], desk["c0"]
        opl = allocate_optimal(M, N, part, c)
        onc = allocate_by_score_sums(M, N, part, c)
        exact_stats = cancellation_stats(M, N, part)
        fm, fn = frobenius_norm(M), frobenius_norm(N)
        for delta in (0.05, 0.1):
            b_opl = bounds_optimal_allocation(bound_inputs_for_plan(M, N, opl, delta)).sq_error_bound
            b_onc = bounds_score_allocation(bound_inputs_for_plan(M, N, onc, delta)).sq_error_bound
            res = coverage_check(
                M, N, 1000, np.random.default_rng(1000),
                lambda s: (estimate_product(M, N, opl, s)[1], b_opl),
            )
            assert res.frequency <= delta
            res = coverage_check(
                M, N, 1000, np.random.default_rng(2000),
                lambda s: (estimate_product(M, N, onc, s)[1], b_onc),
            )
            assert res.frequency <= delta

            def pilot_runner(stream):
                r = estimate_product_two_step(M, N, part, c, c0, stream, pilot="norm")
                st = cancellation_stats(M, N, part, pilot_norms=r.plan.pilot_norms)
                inp = BoundInputs(
                    c=r.plan.total, fail_prob=delta, prob_floor=1.0,
                    cancel_lo=st.cancel_lo if st.lo_available else 0.0,
                    cancel_hi=st.cancel_hi, frob_m=fm, frob_n=fn,
                    cancel_hi_exact=exact_stats.cancel_hi,
                )
                return r.product, bounds_pilot_allocation(inp).sq_error_bound

            res = coverage_check(M, N, 1000, np.random.default_rng(3000), pilot_runner)
            assert res.frequency <= delta


def test_criterion_06_budget_scaling(case_ii_sweep):
    with criterion(6, "quadrupling the budget divides the median squared error by 2.5-6"):
        ratio = (case_ii_sweep[(2000, "OPL")] / case_ii_sweep[(8000, "OPL")]) ** 2
        assert 2.5 <= ratio <= 6.0


def test_criterion_07_method_ordering(case_ii_sweep):
    with criterion(7, "heavy tails: OPL/ONC beat the block baseline; normal data: methods tie"):
        for c in (2000, 4000, 8000):
            assert case_ii_sweep[(c, "OPL")] < case_ii_sweep[(c, "SSM")]
            assert case_ii_sweep[(c, "ONC")] < case_ii_sweep[(c, "SSM")]
        cfg = ExperimentConfig(case="I", reps=40, record_timing=False)
        summary = run(cfg)[1]
        meds = {(s.sweep_value, s.method): s.rel_error_median for s in summary}
        for c in (2000, 4000, 8000):
            vals = [meds[(c, m)] for m in cfg.methods]
            assert max(vals) / min(vals) <= 1.25


def test_criterion_08_two_step_convergence():
    with criterion(8, "two-step sizes approach the optimal ones as the pilot grows (50 seeds)"):
        m, n, p, K, c = 26, 2000, 28, 10, 500
        M, N = make_instance(ExperimentConfig(m=m, n=n, p=p, K=K, c=(c,), c0=K))
        part = BlockPartition.equal(n, K)
        ref = allocate_optimal(M, N, part, c)
        p0 = optimal_probabilities(M, N, part)
        grid = (62, 125, 250, 500, 1000)  # geometric, up to n/2
        means = []
        for c0 in grid:
            diffs = [
                np.abs(
                    allocate_two_step(M, N, part, c, c0, p0, np.random.default_rng(900 + s)).budgets
                    - ref.budgets
                ).mean()
                for s in range(50)
            ]
            means.append(float(np.mean(diffs)))
        increases = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
        assert increases <= 1
        assert means[-1] < means[0]


def test_criterion_09_normality():
    with criterion(9, "standardized entry errors look normal at block budgets >= 50 (1e4 reps)"):
        M, N = gen_normal_instance(3, 200, 3, np.random.default_rng(777))
        part = BlockPartition.equal(200, 2)
        plan = allocate_optimal(M, N, part, c=120)
        assert plan.budgets.min() >= 50
        res = normality_diagnostic(M, N, plan, (0, 0), 10_000, np.random.default_rng(4242))
        assert 0.9 <= res.variance <= 1.1
        assert res.ks_distance < 0.05


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical config and seed give a byte-identical raw CSV"):
        cfg = ExperimentConfig(reps=3, record_timing=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(a, run(cfg)[0])
        write_records(b, run(cfg)[0])
        assert a.read_bytes() == b.read_bytes()
