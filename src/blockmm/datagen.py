"""Synthetic test instances: correlated normal and heavy-tailed columns.

Both generators draw the left factor's columns and the right factor's rows
i.i.d. from a distribution with a banded-decay covariance (entry ij equal
to scale * rho^|i-j|).  The heavy-tailed variant divides each normal draw
by an independent chi-square(1) square root, giving one-degree-of-freedom
multivariate t columns whose norms vary over orders of magnitude — the
regime where norm-aware sampling plans pay off.  An instance is a pure
function of its dimensions and the generator state, so a seed reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class CovarianceSpec:
    dim: int
    scale: float = 1.0
    rho: float = 0.7

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")


def ar_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Covariance with entry ij = scale * rho^|i-j| (positive definite for
    |rho| < 1)."""
    idx = np.arange(spec.dim)
    return spec.scale * spec.rho ** np.abs(idx[:, None] - idx[None, :])


def _default_specs(m: int, p: int, cov_left, cov_right):
    if cov_left is None:
        cov_left = CovarianceSpec(m, scale=1.0, rho=0.7)
    if cov_right is None:
        cov_right = CovarianceSpec(p, scale=2.0, rho=0.7)
    if cov_left.dim != m or cov_right.dim != p:
        raise ValueError("covariance dims must match m and p")
    return cov_left, cov_right


def gen_normal_instance(
    m: int,
    n: int,
    p: int,
    rng: np.random.Generator,
    cov_left: Optional[CovarianceSpec] = None,
    cov_right: Optional[CovarianceSpec] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """M (m x n) with i.i.d. centered normal columns, N (n x p) with i.i.d.
    centered normal rows.  Draw order is fixed (M then N), so the output is
    a pure function of (dims, rng state)."""
    if min(m, n, p) < 1:
        raise ValueError("dimensions must be >= 1")
    cov_left, cov_right = _default_specs(m, p, cov_left, cov_right)
    L_left = np.linalg.cholesky(ar_covariance(cov_left))
    L_right = np.linalg.cholesky(ar_covariance(cov_right))
    M = L_left @ rng.standard_normal((m, n))
    N = np.ascontiguousarray((L_right @ rng.standard_normal((p, n))).T)
    return M, N


def _chi_square_1(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.chisquare(1.0, n)
    while (w == 0.0).any():  # zero would divide out to inf; redraw (measure-zero event)
        zeros = w == 0.0
        w[zeros] = rng.chisquare(1.0, int(zeros.sum()))
    return w


def gen_heavy_tail_instance(
    m: int,
    n: int,
    p: int,
    rng: np.random.Generator,
    cov_left: Optional[CovarianceSpec] = None,
    cov_right: Optional[CovarianceSpec] = None,
    location: str = "ones",
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed counterpart of ``gen_normal_instance``: each column/row
    is location + (normal draw) / sqrt(chi-square(1) draw), i.e. a
    multivariate t with one degree of freedom.

    ``location`` is "ones" (default) or "zero"; the reference experiments
    use the all-ones location.
    """
    if min(m, n, p) < 1:
        raise ValueError("dimensions must be >= 1")
    if location not in ("ones", "zero"):
        raise ValueError("location must be 'ones' or 'zero'")
    cov_left, cov_right = _default_specs(m, p, cov_left, cov_right)
    L_left = np.linalg.cholesky(ar_covariance(cov_left))
    L_right = np.linalg.cholesky(ar_covariance(cov_right))
    loc = 1.0 if location == "ones" else 0.0
    M = loc + (L_left @ rng.standard_normal((m, n))) / np.sqrt(_chi_square_1(rng, n))
    N_cols = loc + (L_right @ rng.standard_normal((p, n))) / np.sqrt(_chi_square_1(rng, n))
    return M, np.ascontiguousarray(N_cols.T)
