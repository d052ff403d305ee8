"""Workloads, the timed loop and the traced run of the blockmm benchmark.

Load model: a closed loop in one process and one thread.  Each replication
runs the exact GEMM, all six methods and one analytics pass, in an order
rotated by one slot per replication so that drift in machine speed hits every
operation alike.  Every call goes through the library's public functions, the
way the README uses them.

A run draws a fixed number of distinct replications from its seed
(``Workload.distinct_reps``); the timed loop cycles through them for as long
as it runs.  Operations are counted, and their estimates enter the checks,
on the first pass only, so ``attempted`` and ``failed`` depend on the seed
and not on how many replications fit into ``--seconds``.  Every repeat must
reproduce its first run: the same success or failure, the same estimate.

The traced run alternates untraced and traced replications.  A traced
replication records spans around the same calls, replays each allocator
through the public functions it is built from, checks the replay against the
composite result bit for bit, and probes single-layer functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import platform
import resource
import subprocess
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

from blockmm import (
    BlockPartition,
    block_norm_probabilities,
    block_scores,
    block_view,
    bound_inputs_for_plan,
    bounds_optimal_allocation,
    bounds_pilot_allocation,
    bounds_score_allocation,
    cancellation_stats,
    column_norms,
    elementwise_variance,
    estimate_product,
    estimate_product_block_sampling,
    estimate_product_two_step,
    expected_sq_error,
    frobenius_norm,
    gen_heavy_tail_instance,
    gen_normal_instance,
    integerize,
    multiply_exact,
    optimal_probabilities,
    optimal_size_weights,
    relative_error,
    row_norms,
    score_sums,
    sketch_columns,
    uniform_probabilities,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_two_step,
    allocate_uniform,
)
from blockmm.bench import RawRecord, config_from_dict, run as bench_run, summarize, write_results
from blockmm.cli import main as cli_main

from checks import estimate_ok, mse_band, plan_matches, same_bits, unseen_sq_error
from tracing import NullTracer, Tracer, layer_self_ns, per_call_ns

METHODS = ("OPL", "ONC", "ONU", "ONMCNR", "UU", "SSM")
DETERMINISTIC_PLANS = ("OPL", "ONC", "UU")
FAIL_PROB = 0.1
# The timed loop keeps going past --seconds until ONC has this many samples,
# so that its 90th percentile has at least ten samples beyond it; it stops
# after LOOP_CAP_S regardless, to end well within the 180 s a run may take.
ONC_TAIL_SAMPLES = 100
LOOP_CAP_S = 100.0
SWEEP_CALLS = 5
PROBE_BATCH = 20  # calls per span for functions that take microseconds
BLAS_PIN_MAX_RATIO = 1.25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case: str  # "I" normal, "II" heavy-tailed
    m: int
    n: int
    p: int
    K: int
    c: int
    c0: int
    # reference GEMM calls per timed sample; GEMMs of a few microseconds are
    # timed in batches and reported per call.
    exact_batch: int = 1
    # ONC estimates per replication; raised where a replication is slow so
    # that a run reaches ONC_TAIL_SAMPLES within --seconds.
    onc_per_rep: int = 1
    # replications per analytics sample.
    analytics_every: int = 1
    sweep_reps: int = 2
    setup_repeats: int = 7
    # distinct replications per run, each with its own random streams; the
    # timed loop runs at least this many and then repeats them.  Even, so a
    # traced run traces the same replications on every pass.
    distinct_reps: int = 256

    @property
    def ssm_draws(self) -> int:
        """Draw parity of the whole-block baseline with the column samplers,
        the rule ``blockmm.bench`` uses: b blocks of n/K columns cost about
        as much as c column draws."""
        return max(1, round(self.c * self.K / self.n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-heavy",
            "the paper's reference shape; thin output makes planning dominate a ~1 ms GEMM",
            "II", m=26, n=20000, p=28, K=10, c=2000, c0=200,
        ),
        Workload(
            "wide-normal",
            "GEMM-bound shape; per-call Python overhead is negligible and all methods tie on error",
            "I", m=256, n=20000, p=256, K=10, c=2000, c0=200,
            onc_per_rep=4, analytics_every=3, sweep_reps=1, setup_repeats=3, distinct_reps=26,
        ),
        Workload(
            "tiny-many-blocks",
            "no BLAS work; per-block Python in plan, estimators and analysis is the whole cost",
            "II", m=6, n=600, p=6, K=60, c=240, c0=120,
            exact_batch=400,
        ),
    )
}


def make_instance(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The workload's matrices; the same stream ``blockmm.bench`` uses, so the
    CLI sweep sees the same instance."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if w.case == "I":
        return gen_normal_instance(w.m, w.n, w.p, rng)
    return gen_heavy_tail_instance(w.m, w.n, w.p, rng)


def method_rng(seed: int, rep: int, method: str, copy: int = 0) -> np.random.Generator:
    """A fresh generator per (replication, method, repeat); calling it twice
    gives two generators in the same state, which the replay relies on."""
    key = (1, rep, METHODS.index(method), copy)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class Instance:
    w: Workload
    M: np.ndarray
    N: np.ndarray
    exact: np.ndarray
    part: BlockPartition
    onc_plan: object = None  # the analytics plan, built once in setup
    onc_estimate: Optional[np.ndarray] = None  # input of the relative_error probe


# ---------------------------------------------------------------------------
# Composite calls, as a user of the README makes them.


def run_opl(x: Instance, rng, tr):
    with tr.span("plan.allocate_optimal"):
        plan = allocate_optimal(x.M, x.N, x.part, x.w.c)
    with tr.span("estimators.estimate_product"):
        return estimate_product(x.M, x.N, plan, rng)[1], plan


def run_onc(x: Instance, rng, tr):
    with tr.span("plan.allocate_by_score_sums"):
        plan = allocate_by_score_sums(x.M, x.N, x.part, x.w.c)
    with tr.span("estimators.estimate_product"):
        return estimate_product(x.M, x.N, plan, rng)[1], plan


def run_uu(x: Instance, rng, tr):
    with tr.span("plan.allocate_uniform"):
        plan = allocate_uniform(x.part, x.w.c)
    with tr.span("estimators.estimate_product"):
        return estimate_product(x.M, x.N, plan, rng)[1], plan


def run_two_step(pilot: str):
    def run(x: Instance, rng, tr):
        with tr.span("estimators.estimate_product_two_step"):
            res = estimate_product_two_step(x.M, x.N, x.part, x.w.c, x.w.c0, rng, pilot=pilot)
        return res.product, res.plan

    return run


def run_ssm(x: Instance, rng, tr):
    with tr.span("plan.block_norm_probabilities"):
        q = block_norm_probabilities(x.M, x.N, x.part)
    with tr.span("estimators.estimate_product_block_sampling"):
        return estimate_product_block_sampling(x.M, x.N, x.part, x.w.ssm_draws, rng, probs=q)[1], q


COMPOSITE: dict[str, Callable] = {
    "OPL": run_opl,
    "ONC": run_onc,
    "ONU": run_two_step("uniform"),
    "ONMCNR": run_two_step("norm"),
    "UU": run_uu,
    "SSM": run_ssm,
}


def run_analytics(x: Instance, tr):
    """Closed-form error and the three bounds for the ONC plan.  The pilot
    bound is fed the exact high statistic, where it must equal the optimal
    allocation's bound."""
    with tr.span("analysis.expected_sq_error"):
        e = expected_sq_error(x.M, x.N, x.onc_plan)
    with tr.span("analysis.bound_inputs_for_plan"):
        bi = bound_inputs_for_plan(x.M, x.N, x.onc_plan, FAIL_PROB)
    with tr.span("analysis.bounds"):
        b_opt = bounds_optimal_allocation(bi)
        b_score = bounds_score_allocation(bi)
        b_pilot = bounds_pilot_allocation(dataclasses.replace(bi, cancel_hi_exact=bi.cancel_hi))
    return e, b_opt, b_score, b_pilot


def run_exact(x: Instance, tr):
    """The reference GEMM, ``M @ N`` itself rather than the library's
    ``multiply_exact`` wrapper, so that no library change moves it."""
    with tr.span("reference.gemm", calls=x.w.exact_batch):
        for _ in range(x.w.exact_batch):
            out = x.M @ x.N
    return out


# ---------------------------------------------------------------------------
# Replays: each allocator's own steps, through the public functions.


def score_caps(part: BlockPartition, s: np.ndarray) -> np.ndarray:
    """The allocators' default caps: block sizes, zero where a block has no score."""
    return np.where(s > 0, np.array(part.sizes, dtype=np.int64), 0)


def replay_estimate(x: Instance, plan, rng, tr) -> np.ndarray:
    """``estimate_product``: one child stream and one ``sketch_columns`` per
    block, the factors stacked, then one combine GEMM."""
    part = plan.partition
    streams = rng.spawn(part.num_blocks)
    C = np.empty((x.M.shape[0], plan.total))
    D = np.empty((plan.total, x.N.shape[1]))
    col_off = np.concatenate(([0], np.cumsum(plan.budgets)))
    for k in range(part.num_blocks):
        ck = int(plan.budgets[k])
        if ck == 0:
            continue
        with tr.span("estimators.sketch_columns"):
            Ck, Dk, _ = sketch_columns(
                block_view(x.M, part, k), block_view(x.N, part, k, "rows"), ck, plan.probs[k], streams[k]
            )
        C[:, col_off[k] : col_off[k + 1]] = Ck
        D[col_off[k] : col_off[k + 1], :] = Dk
    with tr.span("estimators.combine"):
        return C @ D


def replay_score_plan(x: Instance, tr, weights: str):
    """ONC (weights "scores") and OPL (weights "optimal")."""
    with tr.span("plan.optimal_probabilities"):
        probs = optimal_probabilities(x.M, x.N, x.part)
    with tr.span("plan.score_sums"):
        s = score_sums(x.M, x.N, x.part)
    w = s
    if weights == "optimal":
        with tr.span("plan.optimal_size_weights"):
            w = optimal_size_weights(x.M, x.N, x.part)
        if w.sum() == 0.0:
            w = s
    with tr.span("plan.integerize"):
        budgets = integerize(w, x.w.c, caps=score_caps(x.part, s), floor=s > 0)
    return probs.per_block, budgets, None


def replay_uniform_plan(x: Instance, tr):
    K = x.part.num_blocks
    with tr.span("plan.uniform_probabilities"):
        probs = uniform_probabilities(x.part)
    with tr.span("plan.integerize"):
        budgets = integerize(
            np.ones(K), x.w.c, caps=np.array(x.part.sizes, dtype=np.int64), floor=np.ones(K, bool)
        )
    return probs.per_block, budgets, None


def replay_two_step_plan(x: Instance, p0, pilot_rng, tr):
    """``allocate_two_step``: score sums, one pilot sketch per block on its
    own child stream, weights from the pilot norms, then integerize."""
    K = x.part.num_blocks
    with tr.span("plan.score_sums"):
        s = score_sums(x.M, x.N, x.part)
    streams = pilot_rng.spawn(K)
    pilot_norms = np.zeros(K)
    for k in range(K):
        if p0[k].sum() == 0.0:
            continue
        with tr.span("estimators.pilot_sketch_columns"):
            C0, D0, _ = sketch_columns(
                block_view(x.M, x.part, k), block_view(x.N, x.part, k, "rows"),
                x.w.c0 // K, p0[k], streams[k],
            )
        pilot_norms[k] = frobenius_norm(C0 @ D0)
    w = np.sqrt(np.abs(s**2 - pilot_norms**2))
    if w.sum() == 0.0:
        w = s
    with tr.span("plan.integerize"):
        budgets = integerize(w, x.w.c, caps=score_caps(x.part, s), floor=s > 0)
    with tr.span("plan.optimal_probabilities"):
        probs = optimal_probabilities(x.M, x.N, x.part)
    return probs.per_block, budgets, pilot_norms


def replay(x: Instance, method: str, make_rng: Callable, estimate, plan, tr) -> bool:
    """Rebuild the composite plan and estimate of ``method`` step by step
    and report whether both match bit for bit."""
    if method == "SSM":
        with tr.span("matrix.frobenius_norm", calls=2 * x.part.num_blocks):
            f = np.array([
                frobenius_norm(block_view(x.M, x.part, k)) * frobenius_norm(block_view(x.N, x.part, k, "rows"))
                for k in range(x.part.num_blocks)
            ])
        again = estimate_product_block_sampling(x.M, x.N, x.part, x.w.ssm_draws, make_rng())[1]
        return same_bits(f / f.sum(), plan) and same_bits(again, estimate)
    if method in ("ONU", "ONMCNR"):
        if method == "ONU":
            with tr.span("plan.uniform_probabilities"):
                p0 = uniform_probabilities(x.part)
        else:
            with tr.span("plan.optimal_probabilities"):
                p0 = optimal_probabilities(x.M, x.N, x.part)
        pilot_rng, main_rng = make_rng().spawn(2)
        with tr.span("plan.allocate_two_step"):
            two_step_plan = allocate_two_step(x.M, x.N, x.part, x.w.c, x.w.c0, p0, pilot_rng)
        steps = replay_two_step_plan(x, p0, make_rng().spawn(2)[0], tr)
        ok = plan_matches(plan, *steps) and plan_matches(two_step_plan, *steps)
        return ok and same_bits(replay_estimate(x, plan, main_rng, tr), estimate)
    if method == "UU":
        steps = replay_uniform_plan(x, tr)
    else:
        steps = replay_score_plan(x, tr, "optimal" if method == "OPL" else "scores")
    return plan_matches(plan, *steps) and same_bits(replay_estimate(x, plan, make_rng(), tr), estimate)


def probe_layers(x: Instance, tr) -> None:
    """Single-layer calls that the composite methods make internally."""
    with tr.span("matrix.column_norms"):
        column_norms(x.M)
    with tr.span("matrix.row_norms"):
        row_norms(x.N)
    with tr.span("matrix.offsets", calls=PROBE_BATCH):
        for _ in range(PROBE_BATCH):
            x.part.offsets
    with tr.span("plan.block_scores"):
        block_scores(x.M, x.N, x.part)
    with tr.span("analysis.elementwise_variance"):
        elementwise_variance(x.M, x.N, x.onc_plan)
    with tr.span("analysis.cancellation_stats"):
        cancellation_stats(x.M, x.N, x.part)
    with tr.span("analysis.relative_error", calls=PROBE_BATCH):
        for _ in range(PROBE_BATCH):
            relative_error(x.onc_estimate, x.exact)


# ---------------------------------------------------------------------------
# The run.


@dataclass
class Ledger:
    """Operations attempted and failed, checks, and the timed samples."""

    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    first_ok: dict = field(default_factory=dict)  # operation key -> success on the first pass
    digests: dict = field(default_factory=dict)  # operation key -> digest of its first estimate
    checks: dict = field(default_factory=dict)
    wall_ms: dict = field(default_factory=lambda: defaultdict(list))
    rep_of: dict = field(default_factory=lambda: defaultdict(list))  # replication of each sample
    sq_errors: dict = field(default_factory=lambda: defaultdict(list))
    exact_cpu_s: float = 0.0
    exact_wall_s: float = 0.0

    def attempt(self, what: str, fn: Callable, key=None, repeat: bool = False):
        """Run one operation; an exception is recorded by type and the run
        goes on.  A ``repeat`` of the operation ``key`` is not counted
        again; it must succeed or fail as its first run did."""
        try:
            out, ok = fn(), True
        except Exception as e:  # the benchmark must outlive any one call
            out, ok, error = None, False, type(e).__name__
        if repeat:
            self.check("repeats_match_first_pass", self.first_ok.get(key) is ok, where=what)
            return out, ok
        if key is not None:
            self.first_ok.setdefault(key, ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[f"{what}:{error}"] += 1
        return out, ok

    def remember(self, key, estimate: np.ndarray, repeat: bool) -> None:
        """Keep a digest of the first estimate of ``key``; a repeat must
        reproduce it bit for bit."""
        digest = hashlib.blake2b(estimate.tobytes(), digest_size=16).digest()
        if repeat:
            self.check("repeats_match_first_pass", self.digests.get(key) == digest, where=str(key[0]))
        else:
            self.digests[key] = digest

    def check(self, name: str, ok: bool, detail: str = "", where: str = "") -> None:
        """Record a check; a repeated check keeps its first failure, named
        by ``where``."""
        prev = self.checks.get(name)
        if prev is None or (prev[0] and not ok):
            self.checks[name] = (bool(ok), detail if ok else f"{where} {detail}".strip())

    def sample(self, name: str, rep: int, seconds: float, calls: int = 1) -> None:
        self.wall_ms[name].append(1e3 * seconds / calls)
        self.rep_of[name].append(rep)

    def exact_ms(self) -> dict[int, float]:
        return dict(zip(self.rep_of["exact"], self.wall_ms["exact"]))

    def over_exact(self, name: str) -> list[float]:
        """Each sample of ``name`` over the exact GEMM of its replication."""
        exact = self.exact_ms()
        return [t / exact[r] for r, t in zip(self.rep_of[name], self.wall_ms[name]) if r in exact]

    @property
    def correct(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


def op_order(w: Workload) -> list[str]:
    """Exact, the six methods (ONC ``onc_per_rep`` times, spread out) and analytics."""
    order = ["exact", "OPL", "ONU", "ONMCNR", "UU", "SSM", "analytics"]
    for j in reversed(range(w.onc_per_rep)):
        order.insert(1 + round(j * 6 / w.onc_per_rep), "ONC")
    return order


def setup(w: Workload, seed: int, ledger: Ledger) -> tuple[Instance, list[float], list[float]]:
    """Instance generation, exact reference product and one warm-up call of
    every operation, repeated ``setup_repeats`` times; returns the last
    instance with the setup and generation wall times."""
    setup_s, gen_s = [], []
    x = None
    for i in range(w.setup_repeats):
        t0 = time.perf_counter()
        M, N = make_instance(w, seed)
        gen_s.append(time.perf_counter() - t0)
        exact = multiply_exact(M, N)
        x = Instance(w, M, N, exact, BlockPartition.equal(w.n, w.K))
        x.onc_plan = allocate_by_score_sums(M, N, x.part, w.c)
        x.onc_estimate = estimate_product(M, N, x.onc_plan, method_rng(seed, 0, "ONC", 1 + i))[1]
        tr = NullTracer()
        for method in METHODS:
            ledger.attempt(method, lambda: COMPOSITE[method](x, method_rng(seed, 0, method, 1 + i), tr))
        ledger.attempt("analytics", lambda: run_analytics(x, tr))
        run_exact(x, tr)
        setup_s.append(time.perf_counter() - t0)
    return x, setup_s, gen_s


def run_rep(x: Instance, seed: int, rep: int, shift: int, order: list[str], tr, ledger: Ledger,
            traced: bool) -> float:
    """One replication, its operations in ``order`` rotated by ``shift``;
    returns the summed wall time of its operations.  Replications from
    ``distinct_reps`` on repeat earlier ones and are timed but not counted."""
    w = x.w
    shift %= len(order)
    rep_id = rep  # position in the loop; samples are paired by it
    repeat = rep >= w.distinct_reps
    rep %= w.distinct_reps
    total = 0.0
    copies = Counter()
    for name in order[shift:] + order[:shift]:
        if name == "analytics" and rep_id % w.analytics_every:
            continue
        copy = copies[name]
        copies[name] += 1
        if name == "exact":
            with tr.op("exact"):
                c0, t0 = time.process_time(), time.perf_counter()
                out, ok = ledger.attempt("exact", lambda: run_exact(x, tr), ("exact",), repeat)
                dt, dc = time.perf_counter() - t0, time.process_time() - c0
            if ok:
                ledger.sample("exact", rep_id, dt, w.exact_batch)
                ledger.exact_wall_s += dt
                ledger.exact_cpu_s += dc
                ledger.check("exact_matches_reference", same_bits(out, x.exact))
        elif name == "analytics":
            with tr.op("analytics"), tr.span("bench.analytics"):
                t0 = time.perf_counter()
                out, ok = ledger.attempt("analytics", lambda: run_analytics(x, tr), ("analytics",), repeat)
                dt = time.perf_counter() - t0
            if ok:
                ledger.sample("analytics", rep_id, dt)
                check_analytics(out, ledger)
        else:
            key = (name, rep, copy)
            make_rng = lambda: method_rng(seed, rep, name, copy)
            rng = make_rng()
            with tr.op("method"), tr.span(f"bench.{name}"):
                t0 = time.perf_counter()
                out, ok = ledger.attempt(name, lambda: COMPOSITE[name](x, rng, tr), key, repeat)
                dt = time.perf_counter() - t0
            if ok:
                estimate, plan = out
                ledger.sample(name, rep_id, dt)
                good = estimate_ok(estimate, x.exact.shape)
                ledger.check("estimates_finite_and_shaped", good, where=name)
                if good:
                    ledger.remember(key, estimate, repeat)
                    if not repeat:
                        ledger.sq_errors[name].append(frobenius_norm(estimate - x.exact) ** 2)
                if traced:
                    with tr.op("replay"), tr.span(f"bench.replay.{name}"):
                        same, _ = ledger.attempt(f"replay.{name}", lambda: replay(x, name, make_rng, estimate, plan, tr),
                                                 ("replay",) + key, repeat)
                    ledger.check("replay_bit_for_bit", bool(same), where=name)
        if ok:
            total += dt
    if traced:
        with tr.op("probe"):
            ledger.attempt("probe", lambda: probe_layers(x, tr), ("probe",), repeat)
    return total


def check_analytics(out, ledger: Ledger) -> None:
    e, b_opt, b_score, b_pilot = out
    ledger.check("expected_sq_error_finite_positive", math.isfinite(e) and e > 0, f"{e:.6g}")
    ledger.check("pilot_bound_equals_optimal_at_exact_high", tuple(b_pilot) == tuple(b_opt))
    ledger.check("score_bound_finite", all(math.isfinite(v) for v in b_score))


def timed_loop(x: Instance, seed: int, seconds: float, ledger: Ledger, tracer: Optional[Tracer],
               sweep_call: Callable[[int], None]):
    """Replications until ``seconds`` have passed (and ONC has its tail
    samples and every distinct replication has run), with SWEEP_CALLS calls of ``sweep_call`` spread evenly over
    the loop.  With a tracer, odd replications are traced and even ones are
    not; returns (replications, untraced rep seconds, traced rep seconds)."""
    order = op_order(x.w)
    null = NullTracer()
    plain, traced = [], []
    rep = sweeps = 0
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if sweeps < SWEEP_CALLS and elapsed >= sweeps * seconds / SWEEP_CALLS:
            sweep_call(rep)
            sweeps += 1
            continue
        if elapsed >= LOOP_CAP_S:
            break
        if (elapsed >= seconds and len(ledger.wall_ms["ONC"]) >= ONC_TAIL_SAMPLES
                and rep >= x.w.distinct_reps):
            break
        on = tracer is not None and rep % 2 == 1
        # Paired replications share one rotation, so traced and untraced
        # replications run the same operations in the same order.
        shift = rep // 2 if tracer is not None else rep
        dt = run_rep(x, seed, rep, shift, order, tracer if on else null, ledger, on)
        (traced if on else plain).append(dt)
        rep += 1
    while sweeps < SWEEP_CALLS:
        sweep_call(rep)
        sweeps += 1
    return rep, plain, traced


def cli_argv(w: Workload, seed: int) -> list[str]:
    """``blockmm.cli.main --no-timing`` sweeping c over {c/2, c, 2c}."""
    return ["--case", w.case, "--m", str(w.m), "--n", str(w.n), "--p", str(w.p), "--K", str(w.K),
            "--c", f"{w.c // 2},{w.c},{2 * w.c}", "--c0", str(w.c0), "--reps", str(w.sweep_reps),
            "--seed", str(seed), "--no-timing"]


@dataclass
class Sweep:
    """CLI sweep calls of one run: wall seconds and raw.csv bytes (None when
    the call failed)."""

    x: Instance
    seed: int
    out_root: Path
    ledger: Ledger
    seconds: list = field(default_factory=list)
    raws: list = field(default_factory=list)
    before_rep: list = field(default_factory=list)

    def __call__(self, rep: int) -> None:
        """One call, made between replications ``rep - 1`` and ``rep``."""
        self.before_rep.append(rep)
        self.out_root.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.out_root) as d:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code, ok = self.ledger.attempt("cli", lambda: cli_main(cli_argv(self.x.w, self.seed) + ["--out", d]))
            self.seconds.append(time.perf_counter() - t0)
            if ok and code != 0:
                self.ledger.failed += 1
                self.ledger.errors[f"cli:exit{code}"] += 1
            self.raws.append(Path(d, "raw.csv").read_bytes() if ok and code == 0 else None)

    def over_exact(self) -> list[float]:
        """Each call's seconds over the median reference GEMM of the ten
        replications around it.  Successful calls only; a call fails or
        succeeds alike every time in one run, so when none succeeded these
        are the times to the failure, and the failure is counted."""
        exact = self.ledger.exact_ms()
        done = [raw is not None for raw in self.raws]
        out = []
        for t, rep, ok in zip(self.seconds, self.before_rep, done):
            near = [exact[r] for r in range(rep - 5, rep + 5) if r in exact]
            if near and (ok or not any(done)):
                out.append(1e3 * t / np.median(near))
        return out

    def check(self) -> None:
        written = {raw for raw in self.raws if raw is not None}
        self.ledger.check("cli_raw_csv_byte_identical", len(written) <= 1)

    def replay(self, tr: Tracer) -> None:
        """The CLI's own steps, ``bench.run`` then ``bench.write_results``,
        must write the CLI's bytes, or fail where it failed.  When
        ``bench.run`` fails, the writer is timed on the rows of the timed
        loop instead."""
        w = self.x.w
        doc = {"case": w.case, "m": w.m, "n": w.n, "p": w.p, "K": w.K, "c": [w.c // 2, w.c, 2 * w.c],
               "c0": w.c0, "reps": w.sweep_reps, "seed": self.seed, "record_timing": False}

        def sweep():
            with tr.span("bench.run"):
                return bench_run(config_from_dict(doc))

        with tempfile.TemporaryDirectory(dir=self.out_root) as d, tr.op("cli"):
            records, ok = self.ledger.attempt("cli.replay", sweep)
            if not ok:
                records = self.loop_records()
            with tr.span("bench.write_results"):
                write_results(d, *records)
            again = Path(d, "raw.csv").read_bytes() if ok else None
        self.ledger.check("cli_replay_byte_identical", self.raws[0] == again)

    def loop_records(self):
        """Raw and summary records of the timed loop's estimates."""
        norm = frobenius_norm(self.x.exact)
        raw = [RawRecord(self.x.w.case, m, "c", self.x.w.c, i, math.sqrt(e) / norm, 0.0, 0.0)
               for m in METHODS for i, e in enumerate(self.ledger.sq_errors[m])]
        return raw, summarize(raw)


def final_checks(x: Instance, seed: int, ledger: Ledger) -> None:
    """Replay every method once (rep 0) and hold the deterministic plans'
    mean squared error to the closed-form expectation."""
    null = NullTracer()
    plans = {}
    for name in METHODS:
        make_rng = lambda: method_rng(seed, 0, name, 0)
        out, ok = ledger.attempt(name, lambda: COMPOSITE[name](x, make_rng(), null))
        if ok:
            plans[name] = out[1]
            same, _ = ledger.attempt(f"replay.{name}", lambda: replay(x, name, make_rng, out[0], out[1], null))
            ledger.check("replay_bit_for_bit", bool(same), where=name)
    for name in DETERMINISTIC_PLANS:
        plan = plans.get(name)
        if plan is None:
            continue  # its failure is counted
        sq = ledger.sq_errors[name]
        band = mse_band(sq, expected_sq_error(x.M, x.N, plan), unseen_sq_error(x.M, x.N, plan, len(sq)))
        ledger.check(f"mse_band_{name}", band.ok,
                     f"mean {band.mean:.6g} vs expected {band.expected:.6g} in [{band.lo:.6g}, {band.hi:.6g}] "
                     f"over {band.samples} estimates")
    for name in METHODS:
        ledger.check("every_method_measured", len(ledger.wall_ms[name]) > 0, where=name)
    ratio = ledger.exact_cpu_s / ledger.exact_wall_s if ledger.exact_wall_s else float("nan")
    ledger.check("blas_pinned_to_one_thread", ratio <= BLAS_PIN_MAX_RATIO, f"reference GEMM cpu/wall {ratio:.3f}")


def manifest(w: Workload, seed: int, root: Path) -> dict:
    cfg = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": dataclasses.asdict(w),
        "seed": seed,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src" / "blockmm"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{cfg.get('name', '?')} {cfg.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "load": "closed loop, 1 process, 1 thread",
    }


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(pkg.rglob("*.py")):
        h.update(f.relative_to(pkg).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def p50(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else float("nan")


def counts(w: Workload) -> dict:
    """Counts computed from array shapes; they ignore cache misses."""
    return {
        "matrix.exact_gflop": (2 * w.m * w.n * w.p / 1e9, "GFLOP"),
        "estimators.combine_gflop": (2 * w.m * w.c * w.p / 1e9, "GFLOP"),
        "estimators.gather_mb": (8 * w.c * (w.m + w.p) / 1e6, "MB"),
        "datagen.instance_mb": (8 * w.n * (w.m + w.p) / 1e6, "MB"),
    }


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run one workload and return the result document; scratch output and
    the spans go under ``out_root``."""
    ledger = Ledger()
    phase_s = {}
    t0 = time.perf_counter()
    x, setup_s, gen_s = setup(w, seed, ledger)
    phase_s["setup"] = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    sweep = Sweep(x, seed, out_root, ledger)
    t0 = time.perf_counter()
    reps, plain, traced = timed_loop(x, seed, seconds, ledger, tracer, sweep)
    phase_s["loop"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep.check()
    if tracer is not None:
        sweep.replay(tracer)
    final_checks(x, seed, ledger)
    phase_s["checks"] = time.perf_counter() - t0

    ms = ledger.wall_ms
    onc = np.asarray(ledger.over_exact("ONC"))
    info = {
        "replications": reps,
        "phase_s": phase_s,
        "samples": {k: len(v) for k, v in ms.items()},
        "p50_ms": {k: p50(v) for k, v in ms.items()},
        "wall_ms": {k: [round(t, 5) for t in v] for k, v in ms.items()},
        "setup_s": setup_s,
        "sweep_s": sweep.seconds,
        "onc_p90_samples_beyond": int((onc > p90(onc)).sum()),
        "exact_cpu_wall_ratio": ledger.exact_cpu_s / ledger.exact_wall_s,
        "errors": dict(ledger.errors),
    }
    if not trace:
        metrics = {
            "setup_s": (p50(setup_s), "s"),
            **{f"{m.lower()}_over_exact": (p50(ledger.over_exact(m)), "ratio") for m in METHODS},
            "onc_over_exact_p90": (p90(onc), "ratio"),
            "analytics_over_exact": (p50(ledger.over_exact("analytics")), "ratio"),
            "sweep_over_exact": (p50(sweep.over_exact()), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(w, tracer, gen_s, plain, traced, ledger)
        trace_path = out_root / f"trace-{w.name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = trace_path.name
        info["spans"] = len(tracer.spans)
        info["traced_replications"] = len(traced)
    ledger.check("metrics_finite", all(math.isfinite(v) for v, _ in metrics.values()))
    info["checks"] = {k: {"ok": ok, "detail": d} for k, (ok, d) in ledger.checks.items()}
    return {
        "info": info,
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# Per-layer metrics read from span durations, span name -> unit; the metric
# is named <span name>_<unit>.
SPAN_METRICS = {
    "matrix.column_norms": "ms",
    "matrix.row_norms": "ms",
    "matrix.offsets": "us",
    "plan.optimal_probabilities": "ms",
    "plan.score_sums": "ms",
    "plan.block_scores": "ms",
    "plan.integerize": "us",
    "plan.allocate_optimal": "ms",
    "plan.allocate_by_score_sums": "ms",
    "plan.allocate_uniform": "ms",
    "plan.allocate_two_step": "ms",
    "plan.block_norm_probabilities": "ms",
    "estimators.estimate_product": "ms",
    "estimators.sketch_columns": "us",
    "estimators.combine": "ms",
    "estimators.estimate_product_two_step": "ms",
    "estimators.estimate_product_block_sampling": "ms",
    "analysis.expected_sq_error": "ms",
    "analysis.elementwise_variance": "ms",
    "analysis.cancellation_stats": "ms",
    "analysis.bound_inputs_for_plan": "ms",
    "analysis.relative_error": "us",
    "bench.run": "s",
    "bench.write_results": "ms",
}
UNIT_NS = {"s": 1e9, "ms": 1e6, "us": 1e3}
LAYERS = ("reference", "plan", "estimators", "analysis", "bench")


def layer_metrics(w: Workload, tracer: Tracer, gen_s, plain, traced, ledger: Ledger) -> dict:
    per_call = per_call_ns(tracer.spans)
    out = {}
    for span, unit in SPAN_METRICS.items():
        out[f"{span}_{unit}"] = (p50(per_call.get(span, [])) / UNIT_NS[unit], unit)
    # Self time per layer over the operations an untraced replication also
    # runs (exact, methods, analytics), per traced replication.
    own = layer_self_ns(tracer.spans, {"exact", "method", "analytics"})
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (own.get(layer, 0) / 1e6 / max(len(traced), 1), "ms")
    out["reference.gemm_cpu_wall_ratio"] = (ledger.exact_cpu_s / ledger.exact_wall_s, "ratio")
    out["datagen.gen_instance_s"] = (p50(gen_s), "s")
    out["reference.gemm_ms"] = (p50(ledger.wall_ms["exact"]), "ms")
    # Closed loop on one thread: estimates over the time the untraced
    # replications spent in the six methods.
    done = sum(sum(1 for r in ledger.rep_of[m] if r % 2 == 0) for m in METHODS)
    spent = sum(t for m in METHODS for r, t in zip(ledger.rep_of[m], ledger.wall_ms[m]) if r % 2 == 0)
    out["bench.estimates_per_s"] = (1e3 * done / spent, "1/s")
    out.update(counts(w))
    out["trace.overhead_frac"] = (p50(traced) / p50(plain) - 1.0, "ratio")
    out["trace.spans_per_rep"] = (len(tracer.spans) / max(len(traced), 1), "count")
    return out
