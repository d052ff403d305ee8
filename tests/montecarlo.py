"""Monte Carlo checks of the paper's claims: bound coverage counting and a
CLT diagnostic.  They run the library's estimators many times, so they live
with the tests rather than in ``oracles`` (which never calls the library),
and they hold the suite's only scipy imports.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr
from scipy.stats import beta as _beta_dist

from blockmm import SamplingPlan, elementwise_variance, estimate_product, frobenius_norm, multiply_exact
from blockmm.matrix import as_int


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
