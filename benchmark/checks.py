"""Correctness checks on the library's outputs during a benchmark run.

Each check is a pure function of arrays so the benchmark's tests can feed
it perturbed inputs and see it fail.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from blockmm import block_view

# Half-width of the MSE band in standard errors.  Sample means of the squared
# error over a run's replications are near normal at the run lengths used;
# six standard errors keep false alarms negligible while a bias of a few
# percent of the product norm still lands far outside.
MSE_BAND_Z = 6.0
# A column drawn fewer times than this over a run is treated as unseen.
MIN_EXPECTED_DRAWS = 10


def estimate_ok(estimate, shape: tuple[int, int]) -> bool:
    """An estimate is a finite float array of the product's shape."""
    return (
        isinstance(estimate, np.ndarray)
        and estimate.shape == shape
        and bool(np.isfinite(estimate).all())
    )


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: bit-for-bit equality."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def plan_matches(
    plan,
    probs: Sequence[np.ndarray],
    budgets,
    pilot_norms: Optional[np.ndarray] = None,
) -> bool:
    """Does a composite ``SamplingPlan`` equal a replayed one bit for bit?

    Compares every per-block probability vector, the integer budgets and,
    for two-step plans, the pilot norms.
    """
    per_block = plan.probs.per_block
    if len(per_block) != len(probs):
        return False
    if not all(same_bits(p, q) for p, q in zip(per_block, probs)):
        return False
    if not same_bits(plan.budgets, np.asarray(budgets, dtype=np.int64)):
        return False
    if pilot_norms is None:
        return plan.pilot_norms is None
    return plan.pilot_norms is not None and same_bits(plan.pilot_norms, pilot_norms)


class Band(NamedTuple):
    ok: bool
    mean: float
    expected: float
    lo: float
    hi: float
    samples: int


def mse_band(sq_errors: Sequence[float], expected: float, unseen: float = 0.0,
             z: float = MSE_BAND_Z) -> Band:
    """Is the run's mean squared error within the band around the
    closed-form ``expected_sq_error``?

    The band is ``z`` standard errors wide on each side, the standard error
    being the sample standard deviation over the square root of the sample
    count.  Its lower edge is further lowered by ``unseen``, the share of
    the expectation owed to columns the run is not expected to draw often
    enough to see (``unseen_sq_error``).
    """
    x = np.asarray(sq_errors, dtype=np.float64)
    r = x.size
    if r < 2 or not np.isfinite(x).all() or not math.isfinite(expected):
        nan = float("nan")
        return Band(False, nan, float(expected), nan, nan, r)
    mean = float(x.mean())
    half = z * float(x.std(ddof=1)) / math.sqrt(r)
    lo, hi = expected - unseen - half, expected + half
    return Band(lo <= mean <= hi, mean, float(expected), lo, hi, r)


def unseen_sq_error(M: np.ndarray, N: np.ndarray, plan, estimates: int) -> float:
    """The part of ``expected_sq_error`` contributed by columns that
    ``estimates`` estimates are expected to draw fewer than
    ``MIN_EXPECTED_DRAWS`` times.

    Block k's expected squared error is sum_i p_i ||Y_i||^2 / c_k, with
    Y_i = M_i N_i^T / p_i - M_k N_k the deviation of one rescaled draw.  On
    heavy-tailed data a column of tiny probability can carry most of that
    sum; a run that never draws it sees a mean squared error far below the
    expectation, and its sample deviation does not show why.
    """
    part = plan.partition
    total = 0.0
    for k in range(part.num_blocks):
        ck = int(plan.budgets[k])
        p = plan.probs[k]
        if ck == 0:
            continue
        rare = (p > 0) & (estimates * ck * p < MIN_EXPECTED_DRAWS)
        if not rare.any():
            continue
        Mk = block_view(M, part, k)[:, rare]
        Nk = block_view(N, part, k, "rows")
        G = block_view(M, part, k) @ Nk
        Nk = Nk[rare]
        pr = p[rare]
        sq_norm = (Mk**2).sum(axis=0) * (Nk**2).sum(axis=1) / pr**2
        cross = np.einsum("ip,ip->i", Mk.T @ G, Nk) / pr
        dev = sq_norm - 2 * cross + float((G**2).sum())
        total += float((pr * dev).sum()) / ck
    return total
