"""Exact variance analytics and high-probability error bounds.

Everything here is closed-form; the Monte Carlo checks of these formulas
(bound coverage and a CLT diagnostic) are test code, not library code, so
the package needs nothing beyond numpy at run time.  The three bound
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

One call costs one scoring pass, one block-product pass and a few vector
operations over the blocks or indices; ``elementwise_variance`` adds one
product of the squared factors.  None has a loop over blocks of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matrix import BlockPartition, as_int, as_nonneg, check_real, check_type, frobenius_norm
from .plan import (
    SamplingPlan,
    _block_products,
    _floor_ratio,
    _ldexp,
    _profile,
    _Profile,
)

DEGENERATE_TOL = 1e-12


def _checked_budgets(prof: _Profile, plan: SamplingPlan, budgets, g2: np.ndarray):
    """(b, numerator): the plan's budgets as floats, or the override, and per
    block sum_i s_i^2 / p_i - g_k^2, g2 holding the g_k^2.  It is 0 exactly
    when the block has no variance; a zero budget must fall there.  A zero
    p_i needs s_i = 0 (checked), and divides by 1 instead."""
    part = plan.partition
    K = part.num_blocks
    b = plan.budgets.astype(np.float64) if budgets is None else as_nonneg("budget override", budgets, (K,))
    p = plan.probs.values
    if not p.all():
        missed = (p == 0) & (prof.index > 0)
        if missed.any():
            k = int(np.argmax(np.logical_or.reduceat(missed, part.offsets[:-1])))
            raise ValueError(f"block {k}: zero probability at a contributing column")
    term1 = np.add.reduceat(prof.index**2 / np.where(p > 0, p, 1.0), part.offsets[:-1])
    numerator = term1 - g2
    if not b.all():
        bad = (b == 0) & (np.abs(numerator) > 1e-12 * np.maximum(term1, 1.0))
        if bad.any():
            raise ValueError(f"block {int(np.argmax(bad))}: zero budget on a block with sampling variance")
    return b, numerator


def elementwise_variance(M: np.ndarray, N: np.ndarray, plan: SamplingPlan, budgets=None) -> np.ndarray:
    """Exact per-entry variance of the blocked estimate under ``plan``.

    For entry (h, f): sum over blocks of
    (1/c_k) * [ sum_i M_hi^2 N_if^2 / p_i  -  (block product)_hf^2 ].
    The first terms of all blocks are one product (M^2 * w) @ N^2, with
    w_i = 1 / (c_k p_i), or 0 where p_i or c_k is 0; the second come from
    the stack of block products.  Memory: one squared copy of each factor
    and the K block products (m x p each), held at once.

    ``budgets`` optionally overrides the plan's integer sizes with real
    values (the pre-integerization optimum).  Entries are exact up to
    rounding and may dip to -1e-12 * scale below zero.
    """
    prof = _profile(M, N, check_type("plan", plan, SamplingPlan).partition)
    G = _block_products(prof)
    G *= G
    b, _ = _checked_budgets(prof, plan, budgets, G.sum(axis=(1, 2)))
    inv_b = np.divide(1.0, b, out=np.zeros(b.size), where=b > 0)
    p = plan.probs.values
    w = np.divide(np.repeat(inv_b, plan.partition.size_array), p, out=np.zeros(p.size), where=p > 0)
    M2, N2 = np.square(prof.M), np.square(prof.N)
    M2 *= w
    var = M2 @ N2
    var -= np.tensordot(inv_b, G, axes=1)
    return _ldexp(var, -2 * prof.scale)


def expected_sq_error(M: np.ndarray, N: np.ndarray, plan: SamplingPlan, budgets=None) -> float:
    """E || exact product - estimate ||_F^2 under ``plan`` (the estimator is
    unbiased, so this is the summed entry variance), in closed form: the sum
    over blocks of (sum_i s_i^2 / p_i - g_k^2) / c_k, s_i the index scores."""
    prof = _profile(M, N, check_type("plan", plan, SamplingPlan).partition)
    b, numerator = _checked_budgets(prof, plan, budgets, prof.product_norms**2)
    if not b.all():
        numerator, b = numerator[b > 0], b[b > 0]
    return _ldexp(float((numerator / b).sum()), -2 * prof.scale)


def minimum_expected_sq_error(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> float:
    """Closed-form minimum of ``expected_sq_error`` over probabilities and
    real-valued sizes at total budget c: (sum_k sqrt(s_k^2 - g_k^2))^2 / c."""
    check_real("budget c", c, positive=True)
    prof = _profile(M, N, part)
    return _ldexp(float(prof.optimal_weights.sum() ** 2 / c), -2 * prof.scale)


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
    s, exact = prof.sums, pilot_norms is None
    if exact:
        g = prof.product_norms
    else:
        g = _ldexp(as_nonneg("pilot_norms", pilot_norms, (part.num_blocks,)), prof.scale)
    ratios, cancel, usable, lo, hi = _cancellation(s, g, exact)
    return CancellationStats(
        ratios=ratios,
        cancel=cancel,
        cancel_lo=lo,
        cancel_hi=hi,
        lo_available=bool(usable.any()),
        exact=exact,
        zero_score_blocks=tuple(np.where(s == 0)[0]),
        degenerate_blocks=tuple(np.where((s > 0) & ~usable)[0]),
    )


def _cancellation(s: np.ndarray, g: np.ndarray, exact: bool):
    """(ratios, cancel, usable, lo, hi) from checked per-block score sums s
    and product norms g, exact or pilot estimates.  Ratios and cancel are NaN
    at zero-score blocks; ``usable`` marks the scored, non-degenerate blocks;
    lo is their minimum cancel (0.0 if none), hi the maximum over scored
    blocks and 0."""
    if not s.any():
        raise ValueError("all blocks have zero score")
    scored = s > 0
    ratios = np.divide(g, s, out=np.full(s.size, np.nan), where=scored)
    cancel = 1.0 - ratios**2
    if exact:
        usable = ratios < 1.0 - DEGENERATE_TOL
    else:
        cancel = np.abs(cancel)
        usable = cancel > DEGENERATE_TOL
    lo = float(np.minimum.reduce(cancel, where=usable, initial=np.inf)) if usable.any() else 0.0
    return ratios, cancel, usable, lo, float(np.maximum.reduce(cancel, where=scored, initial=0.0))


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
        optional = () if self.cancel_hi_exact is None else ("cancel_hi_exact",)
        for name in ("fail_prob", "prob_floor", "cancel_lo", "cancel_hi", "frob_m", "frob_n", *optional):
            value = getattr(self, name)
            # A factor whose Frobenius norm passes float64 has frob_* = +inf; NaN and -inf are rejected.
            if not (name in ("frob_m", "frob_n") and isinstance(value, float) and value == math.inf):
                check_real(name, value)
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
    squared and scaled by ||M||_F^2 ||N||_F^2 / (floor * c).  phi, eta, the
    norms and the floor enter as frexp mantissas, their powers of two summed
    and applied last, so no step raises: a bound beyond float64, or on an
    infinite norm, reads inf, one below it 0."""
    phi = math.sqrt(radicand) / (math.sqrt(math.sqrt(hi)) * math.sqrt(math.sqrt(lo)))
    eta = phi + math.sqrt(hi / lo * 8.0 * math.log(1.0 / inp.fail_prob)) / math.sqrt(inp.prob_floor)
    (fm, em), (fn, en), (d, ed) = math.frexp(inp.frob_m), math.frexp(inp.frob_n), math.frexp(inp.prob_floor)
    base, e = (fm * fm * (fn * fn) / (d * inp.c) if fm and fn else 0.0), 2 * (em + en) - ed
    (p, ep), (q, eq) = math.frexp(phi), math.frexp(eta)
    # A zero factor wins over an infinite norm (never 0 * inf); eta > 0 always.
    return BoundPair(_ldexp(p * p * base, e + 2 * ep) if p else 0.0, _ldexp(q * q * base, e + 2 * eq))


def _cancellation_bounds(inp: BoundInputs, hi_exact: float) -> BoundPair:
    """Bounds from the cancellation statistics, ``hi_exact`` entering the
    numerator.  Infinite when the probability floor or the low statistic
    vanishes (the premises fail, e.g. a variance-free block)."""
    lo, hi, floor = inp.cancel_lo, inp.cancel_hi, inp.prob_floor
    if floor <= 0.0 or lo <= 0.0:
        return BoundPair(math.inf, math.inf)
    return _bound_pair(inp, max(hi - lo * floor + hi_exact * lo * floor, 0.0), hi, lo)


def bounds_optimal_allocation(inp: BoundInputs) -> BoundPair:
    """Bound pair for the variance-minimizing allocation."""
    return _cancellation_bounds(check_type("inp", inp, BoundInputs), inp.cancel_hi)


def bounds_score_allocation(inp: BoundInputs) -> BoundPair:
    """Bound pair for the score-sum allocation; needs only the exact high
    cancellation statistic."""
    hi, floor = check_type("inp", inp, BoundInputs).cancel_hi, inp.prob_floor
    if not 0.0 <= hi <= 1.0 + 1e-12:
        raise ValueError("score-allocation bound needs an exact high statistic in [0, 1]")
    if floor <= 0.0:
        return BoundPair(math.inf, math.inf)
    return _bound_pair(inp, max(1.0 - floor * (1.0 - hi), 0.0))


def bounds_pilot_allocation(inp: BoundInputs) -> BoundPair:
    """Bound pair for the pilot-estimated allocation: pilot low/high
    statistics, with the exact high statistic entering the numerator."""
    if check_type("inp", inp, BoundInputs).cancel_hi_exact is None:
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
    prof = _profile(M, N, check_type("plan", plan, SamplingPlan).partition)
    ratios, _, _, lo, hi = _cancellation(prof.sums, prof.product_norms, exact=True)
    hi_exact = None
    if plan._pilot is not None:
        values, e = plan._pilot
        hi_exact = hi
        ratios, _, _, lo, hi = _cancellation(prof.sums, _ldexp(values, prof.scale - e), exact=False)
    return BoundInputs(
        c=plan.total,
        fail_prob=fail_prob,
        prob_floor=_floor_ratio(plan.probs.values, prof.optimal_values),
        cancel_lo=lo,
        cancel_hi=hi,
        frob_m=prof.frob_m,
        frob_n=prof.frob_n,
        ratios=ratios,
        cancel_hi_exact=hi_exact,
    )


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Frobenius-relative error ||exact - approx||_F / ||exact||_F."""
    if check_type("approx", approx, np.ndarray).shape != check_type("exact", exact, np.ndarray).shape:
        raise ValueError(f"shapes differ: {approx.shape} vs {exact.shape}")
    denom = frobenius_norm(exact)
    if denom == 0.0:
        raise ValueError("exact matrix has zero norm")
    return frobenius_norm(exact - approx) / denom
