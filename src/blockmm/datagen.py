"""Synthetic test instances: correlated normal and heavy-tailed columns.

Both generators draw the left factor's columns and the right factor's rows
i.i.d. from a distribution with a banded-decay covariance (entry ij equal
to scale * 0.7^|i-j|, scale 1 on the left and 2 on the right).  The
heavy-tailed variant divides each normal draw by an independent
chi-square(1) square root, giving one-degree-of-freedom multivariate t
columns whose norms vary over orders of magnitude — the regime where
norm-aware sampling plans pay off.  An instance is a pure
function of its dimensions and the generator state, so a seed reproduces it.
"""

from __future__ import annotations

import numpy as np

from .matrix import as_int, check_rng


def _covariance(dim: int, scale: float) -> np.ndarray:
    """The default covariance, entry ij = scale * 0.7^|i-j| (positive
    definite)."""
    idx = np.arange(dim)
    return scale * 0.7 ** np.abs(idx[:, None] - idx[None, :])


def _setup(m, n, p):
    """The checked dimensions and the Cholesky factors of the covariances:
    scale 1 on the left (m x m), scale 2 on the right (p x p)."""
    m, n, p = as_int("m", m, 1), as_int("n", n, 1), as_int("p", p, 1)
    return m, n, p, np.linalg.cholesky(_covariance(m, 1.0)), np.linalg.cholesky(_covariance(p, 2.0))


def gen_normal_instance(m: int, n: int, p: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """M (m x n) with i.i.d. centered normal columns, N (n x p) with i.i.d.
    centered normal rows.  Draw order is fixed (M then N), so the output is
    a pure function of (dims, rng state)."""
    check_rng(rng, "standard_normal")
    m, n, p, L_left, L_right = _setup(m, n, p)
    M = L_left @ rng.standard_normal((m, n))
    N = np.ascontiguousarray((L_right @ rng.standard_normal((p, n))).T)
    return M, N


def _chi_square_1(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.chisquare(1.0, n)
    while (w == 0.0).any():  # zero would divide out to inf; redraw (measure-zero event)
        zeros = w == 0.0
        w[zeros] = rng.chisquare(1.0, int(zeros.sum()))
    return w


def gen_heavy_tail_instance(m: int, n: int, p: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed counterpart of ``gen_normal_instance``: each column/row
    is 1 + (normal draw) / sqrt(chi-square(1) draw), i.e. a multivariate t
    with one degree of freedom at the all-ones location of the reference
    experiments."""
    check_rng(rng, "standard_normal", "chisquare")
    m, n, p, L_left, L_right = _setup(m, n, p)
    M = 1.0 + (L_left @ rng.standard_normal((m, n))) / np.sqrt(_chi_square_1(rng, n))
    N_cols = 1.0 + (L_right @ rng.standard_normal((p, n))) / np.sqrt(_chi_square_1(rng, n))
    return M, np.ascontiguousarray(N_cols.T)
