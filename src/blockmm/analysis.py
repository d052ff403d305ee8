"""Exact variance analytics and high-probability error bounds.

Everything here is closed-form except the Monte Carlo validation helpers at
the bottom (coverage counting and a CLT diagnostic).  The three bound
functions share a ``BoundInputs`` record built from per-block cancellation
statistics:

* ``ratio``      -- per block, exact-product norm over score sum (in [0,1]
                    for exact inputs; pilot estimates may exceed 1),
* ``cancel``     -- 1 - ratio^2 (absolute value for pilot estimates); the
                    fraction of a block's score mass that sampling variance
                    actually sees,
* ``prob_floor`` -- largest factor by which the plan's probabilities
                    dominate the variance-minimizing ones.

Blocks where cancellation is numerically total (ratio = 1 to rounding) are
excluded from the lower cancellation statistic, else every bound would
degenerate to infinity on instances containing a variance-free block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import ndtr
from scipy.stats import beta as _beta_dist

from .estimators import estimate_product
from .matrix import BlockPartition, as_int, as_nonneg, block_view, frobenius_norm, multiply_exact
from .plan import (
    SamplingPlan,
    _floor_ratio,
    _optimal_probabilities,
    _optimal_weights,
    _product_norms,
    _profile,
    _Profile,
)

DEGENERATE_TOL = 1e-12


def _checked_budgets(prof: _Profile, plan: SamplingPlan, budgets) -> np.ndarray:
    """The plan's budgets as floats, or the override; rejects a zero
    probability at a contributing column."""
    part = plan.partition
    K = part.num_blocks
    b = plan.budgets.astype(np.float64) if budgets is None else as_nonneg("budget override", budgets, (K,))
    missed = (plan.probs.values == 0) & (prof.index > 0)
    if missed.any():
        k = int(np.argmax(np.logical_or.reduceat(missed, part.offsets[:-1])))
        raise ValueError(f"block {k}: zero probability at a contributing column")
    return b


def _check_zero_budget(k: int, term1, numerator) -> None:
    """A zero budget is allowed only on a block without sampling variance."""
    if np.max(np.abs(numerator), initial=0.0) > 1e-12 * max(1.0, float(np.max(term1, initial=0.0))):
        raise ValueError(f"block {k}: zero budget on a block with sampling variance")


def elementwise_variance(M: np.ndarray, N: np.ndarray, plan: SamplingPlan, budgets=None) -> np.ndarray:
    """Exact per-entry variance of the blocked estimate under ``plan``.

    For entry (h, f): sum over blocks of
    (1/c_k) * [ sum_i M_hi^2 N_if^2 / p_i  -  (block product)_hf^2 ].

    ``budgets`` optionally overrides the plan's integer sizes with real
    values (the pre-integerization optimum).  Entries are exact up to
    rounding and may dip to -1e-12 * scale below zero.
    """
    part = plan.partition
    prof = _profile(M, N, part)
    b = _checked_budgets(prof, plan, budgets)
    var = np.zeros((M.shape[0], N.shape[1]))
    for k in range(part.num_blocks):
        Mk = block_view(prof.M, part, k)
        Nk = block_view(prof.N, part, k, "rows")
        p = plan.probs[k]
        pos = p > 0
        term1 = (Mk[:, pos] ** 2 / p[pos]) @ (Nk[pos, :] ** 2)
        numerator = term1 - (Mk @ Nk) ** 2
        if b[k] == 0:
            _check_zero_budget(k, term1, numerator)
            continue
        var += numerator / b[k]
    return np.ldexp(var, -2 * prof.scale)


def expected_sq_error(M: np.ndarray, N: np.ndarray, plan: SamplingPlan, budgets=None) -> float:
    """E || exact product - estimate ||_F^2 under ``plan`` (the estimator is
    unbiased, so this is the summed entry variance), in closed form: the sum
    over blocks of (sum_i s_i^2 / p_i - g_k^2) / c_k, s_i the index scores."""
    part = plan.partition
    prof = _profile(M, N, part)
    b = _checked_budgets(prof, plan, budgets)
    p = plan.probs.values
    per_index = np.divide(prof.index**2, p, out=np.zeros_like(p), where=p > 0)
    term1 = np.add.reduceat(per_index, part.offsets[:-1])
    numerator = term1 - _product_norms(prof) ** 2
    for k in np.flatnonzero(b == 0).tolist():
        _check_zero_budget(k, term1[k], numerator[k])
    live = b > 0
    return float(np.ldexp((numerator[live] / b[live]).sum(), -2 * prof.scale))


def minimum_expected_sq_error(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> float:
    """Closed-form minimum of ``expected_sq_error`` over probabilities and
    real-valued sizes at total budget c: (sum_k sqrt(s_k^2 - g_k^2))^2 / c."""
    if isinstance(c, (bool, np.bool_)) or not (math.isfinite(c) and c > 0):
        raise ValueError(f"budget c must be finite and > 0, got {c!r}")
    prof = _profile(M, N, part)
    w = _optimal_weights(prof.sums, _product_norms(prof))
    return float(np.ldexp(w.sum() ** 2 / c, -2 * prof.scale))


@dataclass(frozen=True, eq=False)
class CancellationStats:
    """Per-block cancellation of score mass by the exact (or pilot) product.

    ``ratios``/``cancel`` are NaN at zero-score blocks.  ``cancel_lo`` is the
    minimum over non-degenerate blocks and is meaningful only when
    ``lo_available``; ``cancel_hi`` is the maximum over all scored blocks.
    """

    ratios: np.ndarray
    cancel: np.ndarray
    cancel_lo: float
    cancel_hi: float
    lo_available: bool
    exact: bool
    zero_score_blocks: tuple[int, ...]
    degenerate_blocks: tuple[int, ...]


def cancellation_stats(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    pilot_norms: Optional[np.ndarray] = None,
) -> CancellationStats:
    """Ratios g_k / s_k and the low/high cancellation statistics.

    With ``pilot_norms`` the ratios use the pilot product norms instead of
    the exact ones; those may exceed 1, so the cancellation takes an
    absolute value there.
    """
    prof = _profile(M, N, part)
    if pilot_norms is not None:
        g = as_nonneg("pilot_norms", pilot_norms, (part.num_blocks,))
        return _cancellation(prof.sums, np.ldexp(g, prof.scale), exact=False)
    return _cancellation(prof.sums, _product_norms(prof), exact=True)


def _cancellation(s: np.ndarray, g: np.ndarray, exact: bool) -> CancellationStats:
    """Cancellation statistics from score sums s and product norms g, exact
    or pilot estimates, both checked vectors of one value per block."""
    if (s == 0).all():
        raise ValueError("all blocks have zero score")
    ratios = np.full(s.size, np.nan)
    included = s > 0
    ratios[included] = g[included] / s[included]
    cancel = 1.0 - ratios**2
    if exact:
        degenerate = included & (ratios >= 1.0 - DEGENERATE_TOL)
    else:
        cancel = np.abs(cancel)
        degenerate = included & (cancel <= DEGENERATE_TOL)
    usable = included & ~degenerate
    hi = float(np.nanmax(cancel[included])) if included.any() else 0.0
    if usable.any():
        lo = float(cancel[usable].min())
        lo_available = True
    else:
        lo, lo_available = 0.0, False
    return CancellationStats(
        ratios=ratios,
        cancel=cancel,
        cancel_lo=lo,
        cancel_hi=max(hi, 0.0),
        lo_available=lo_available,
        exact=exact,
        zero_score_blocks=tuple(np.where(~included)[0]),
        degenerate_blocks=tuple(np.where(degenerate)[0]),
    )


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything the closed-form bounds consume.

    ``cancel_lo``/``cancel_hi`` come from exact cancellation stats, or from
    pilot stats for the pilot-allocation bound, which additionally needs the
    exact high statistic in ``cancel_hi_exact``.
    """

    c: int
    fail_prob: float
    prob_floor: float
    cancel_lo: float
    cancel_hi: float
    frob_m: float
    frob_n: float
    ratios: Optional[np.ndarray] = None
    cancel_hi_exact: Optional[float] = None

    def __post_init__(self):
        if as_int("c", self.c) < 1:
            raise ValueError("c must be >= 1")
        for name in ("fail_prob", "prob_floor", "cancel_lo", "cancel_hi", "frob_m", "frob_n", "cancel_hi_exact"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.fail_prob < 1.0:
            raise ValueError("fail_prob must lie in (0, 1)")
        if not 0.0 <= self.prob_floor <= 1.0 + 1e-12:
            raise ValueError("prob_floor must lie in [0, 1]")
        if self.cancel_lo < 0 or self.cancel_hi < self.cancel_lo - 1e-15:
            raise ValueError("need 0 <= cancel_lo <= cancel_hi")
        if self.frob_m < 0 or self.frob_n < 0:
            raise ValueError("frob_m and frob_n must be >= 0")


class BoundPair(NamedTuple):
    variance_bound: float  # bounds the summed entry variances
    sq_error_bound: float  # bounds ||exact - estimate||_F^2 w.p. >= 1 - fail_prob


def _bound_pair(inp: BoundInputs, radicand: float, hi: float = 1.0, lo: float = 1.0) -> BoundPair:
    """The bound formula: phi = sqrt(radicand) / (hi * lo)^(1/4) and
    eta = phi + sqrt(hi / lo) * sqrt(8 log(1 / fail_prob) / floor), each
    squared and scaled by ||M||_F^2 ||N||_F^2 / (floor * c)."""
    phi = math.sqrt(radicand) / (hi * lo) ** 0.25
    eta = phi + math.sqrt(hi / lo) * math.sqrt((8.0 / inp.prob_floor) * math.log(1.0 / inp.fail_prob))
    base = inp.frob_m**2 * inp.frob_n**2 / (inp.prob_floor * inp.c)
    return BoundPair(phi**2 * base, eta**2 * base)


def _cancellation_bounds(inp: BoundInputs, hi_exact: float) -> BoundPair:
    """Bounds from the cancellation statistics, ``hi_exact`` entering the
    numerator.  Infinite when the probability floor or the low statistic
    vanishes (the premises fail, e.g. a variance-free block)."""
    lo, hi, floor = inp.cancel_lo, inp.cancel_hi, inp.prob_floor
    if floor <= 0.0 or lo <= 0.0:
        return BoundPair(math.inf, math.inf)
    return _bound_pair(inp, hi - lo * floor + hi_exact * lo * floor, hi, lo)


def bounds_optimal_allocation(inp: BoundInputs) -> BoundPair:
    """Bound pair for the variance-minimizing allocation."""
    return _cancellation_bounds(inp, inp.cancel_hi)


def bounds_score_allocation(inp: BoundInputs) -> BoundPair:
    """Bound pair for the score-sum allocation; needs only the exact high
    cancellation statistic."""
    hi, floor = inp.cancel_hi, inp.prob_floor
    if not 0.0 <= hi <= 1.0 + 1e-12:
        raise ValueError("score-allocation bound needs an exact high statistic in [0, 1]")
    if floor <= 0.0:
        return BoundPair(math.inf, math.inf)
    return _bound_pair(inp, max(1.0 - floor * (1.0 - hi), 0.0))


def bounds_pilot_allocation(inp: BoundInputs) -> BoundPair:
    """Bound pair for the pilot-estimated allocation: pilot low/high
    statistics, with the exact high statistic entering the numerator."""
    if inp.cancel_hi_exact is None:
        raise ValueError("pilot bound needs cancel_hi_exact")
    return _cancellation_bounds(inp, inp.cancel_hi_exact)


def bound_inputs_for_plan(
    M: np.ndarray,
    N: np.ndarray,
    plan: SamplingPlan,
    fail_prob: float,
) -> BoundInputs:
    """Assemble ``BoundInputs`` for a plan: probability floor against the
    variance-minimizing probabilities plus cancellation statistics (pilot
    statistics when the plan carries pilot norms)."""
    prof = _profile(M, N, plan.partition)
    exact_stats = _cancellation(prof.sums, _product_norms(prof), exact=True)
    floor = _floor_ratio(plan.probs.values, _optimal_probabilities(prof))
    if plan._pilot is not None:
        values, e = plan._pilot
        stats = _cancellation(prof.sums, np.ldexp(values, prof.scale - e), exact=False)
        hi_exact = exact_stats.cancel_hi
    else:
        stats = exact_stats
        hi_exact = None
    return BoundInputs(
        c=plan.total,
        fail_prob=fail_prob,
        prob_floor=floor,
        cancel_lo=stats.cancel_lo,
        cancel_hi=stats.cancel_hi,
        frob_m=prof.frob_m,
        frob_n=prof.frob_n,
        ratios=stats.ratios,
        cancel_hi_exact=hi_exact,
    )


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Frobenius-relative error ||exact - approx||_F / ||exact||_F."""
    if approx.shape != exact.shape:
        raise ValueError(f"shapes differ: {approx.shape} vs {exact.shape}")
    denom = frobenius_norm(exact)
    if denom == 0.0:
        raise ValueError("exact matrix has zero norm")
    return frobenius_norm(exact - approx) / denom


class CoverageResult(NamedTuple):
    reps: int
    violations: int
    frequency: float
    ci_low: float
    ci_high: float


def _clopper_pearson(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(_beta_dist.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(_beta_dist.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def coverage_check(
    M: np.ndarray,
    N: np.ndarray,
    reps: int,
    rng: np.random.Generator,
    runner: Callable[[np.random.Generator], tuple[np.ndarray, float]],
) -> CoverageResult:
    """Count how often the squared Frobenius error exceeds its bound.

    ``runner(stream)`` produces one replication: (estimate, squared-error
    bound).  Returning the bound per replication lets pilot-based bounds
    vary with the pilot draw.  Reports the violation frequency with a 95%
    Clopper-Pearson interval.
    """
    reps = as_int("reps", reps)
    if reps < 100:
        raise ValueError("need at least 100 replications for a meaningful frequency")
    exact = multiply_exact(M, N)
    violations = 0
    for stream in rng.spawn(reps):
        estimate, sq_bound = runner(stream)
        if frobenius_norm(estimate - exact) ** 2 > sq_bound:
            violations += 1
    lo, hi = _clopper_pearson(violations, reps)
    return CoverageResult(reps, violations, violations / reps, lo, hi)


class NormalityResult(NamedTuple):
    samples: np.ndarray  # standardized errors at the chosen entry
    mean: float
    variance: float
    ks_distance: float


def normality_diagnostic(
    M: np.ndarray,
    N: np.ndarray,
    plan: SamplingPlan,
    entry: tuple[int, int],
    reps: int,
    rng: np.random.Generator,
) -> NormalityResult:
    """Standardize one entry's estimation error by its exact standard
    deviation over ``reps`` replications and measure the sup-distance of the
    empirical CDF from the standard normal."""
    reps = as_int("reps", reps)
    if reps < 1000:
        raise ValueError("need at least 1000 replications for the diagnostic")
    h, f = entry
    sigma_sq = elementwise_variance(M, N, plan)[h, f]
    if sigma_sq <= 0.0:
        raise ValueError(f"entry {entry} has zero variance under this plan")
    exact = multiply_exact(M, N)[h, f]
    scale = math.sqrt(sigma_sq)
    samples = np.empty(reps)
    for r, stream in enumerate(rng.spawn(reps)):
        samples[r] = (estimate_product(M, N, plan, stream)[1][h, f] - exact) / scale
    z = np.sort(samples)
    cdf = ndtr(z)
    grid = np.arange(1, reps + 1) / reps
    ks = float(max((grid - cdf).max(), (cdf - (grid - 1.0 / reps)).max()))
    return NormalityResult(samples, float(samples.mean()), float(samples.var(ddof=1)), ks)
