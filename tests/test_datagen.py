"""Data generation tests: covariance construction, distributional checks on
both generators, and seed determinism."""

import types

import numpy as np
import pytest

from blockmm import gen_heavy_tail_instance, gen_normal_instance
from blockmm.datagen import _covariance


def ar_covariance(dim, scale):
    """Entry ij = scale * 0.7^|i-j|, computed entry by entry."""
    return np.array([[scale * 0.7 ** abs(i - j) for j in range(dim)] for i in range(dim)])


def test_ar_covariance_hand_values():
    np.testing.assert_array_equal(_covariance(1, 3.0), [[3.0]])
    got = _covariance(2, 1.0)
    np.testing.assert_allclose(got, [[1.0, 0.7], [0.7, 1.0]], rtol=0, atol=0)
    got = _covariance(3, 2.0)
    want = 2.0 * np.array([[1, 0.7, 0.49], [0.7, 1, 0.7], [0.49, 0.7, 1]])
    np.testing.assert_allclose(got, want, rtol=1e-15)
    # decay structure stays positive definite at benchmark size
    np.linalg.cholesky(_covariance(200, 1.0))


def test_normal_instance_shapes_and_determinism():
    M1, N1 = gen_normal_instance(4, 50, 3, np.random.default_rng(1))
    assert M1.shape == (4, 50) and N1.shape == (50, 3)
    M2, N2 = gen_normal_instance(4, 50, 3, np.random.default_rng(1))
    np.testing.assert_array_equal(M1, M2)
    np.testing.assert_array_equal(N1, N2)
    M3, _ = gen_normal_instance(4, 50, 3, np.random.default_rng(2))
    assert not np.array_equal(M1, M3)
    with pytest.raises(ValueError):
        gen_normal_instance(0, 5, 2, np.random.default_rng(3))
    for dims in ((2, 3.0, 2), (2.0, 3, 2), (2, 3, True)):
        for gen in (gen_normal_instance, gen_heavy_tail_instance):
            with pytest.raises(ValueError, match="must be an integer"):
                gen(*dims, np.random.default_rng(3))


def test_normal_instance_matches_target_covariances():
    n = 100_000
    M, N = gen_normal_instance(5, n, 4, np.random.default_rng(4))
    left, right = ar_covariance(5, 1.0), ar_covariance(4, 2.0)
    sample_left = (M @ M.T) / n
    sample_right = (N.T @ N) / n
    assert np.abs(M.mean(axis=1)).max() < 0.02
    assert np.abs(sample_left - left).max() < 0.03
    assert np.abs(sample_right - right).max() < 0.06


def test_heavy_tail_cauchy_marginals():
    # row 0 of M is 1 plus a standard normal over a chi-square(1) root, since
    # the left Cholesky factor has L[0, 0] = 1: less its all-ones location,
    # each entry is standard Cauchy, median 0 and median absolute value 1
    n = 20_000
    M, _ = gen_heavy_tail_instance(3, n, 2, np.random.default_rng(5))
    assert abs(np.median(M[0]) - 1.0) < 0.05
    row = M[0] - 1.0
    assert abs(np.median(row)) < 0.05
    assert abs(np.median(np.abs(row)) - 1.0) < 0.05


def test_heavy_tail_is_heavier_than_normal():
    n = 10_000
    rng = np.random.default_rng(7)
    M_heavy = gen_heavy_tail_instance(4, n, 3, rng)[0] - 1.0  # less the all-ones location
    M_norm, _ = gen_normal_instance(4, n, 3, np.random.default_rng(8))

    def tail_ratio(x):
        a = np.abs(x).ravel()
        return np.quantile(a, 0.99) / np.median(a)

    heavy, norm = tail_ratio(M_heavy), tail_ratio(M_norm)
    assert heavy >= 10.0
    assert heavy > norm
    # column norms spread over orders of magnitude; the normal ones do not
    norms_heavy = np.linalg.norm(M_heavy, axis=0)
    norms_norm = np.linalg.norm(M_norm, axis=0)
    assert norms_heavy.max() / np.median(norms_heavy) > 10.0
    assert norms_norm.max() / np.median(norms_norm) < 10.0


def test_heavy_tail_deterministic():
    a = gen_heavy_tail_instance(3, 40, 2, np.random.default_rng(9))
    b = gen_heavy_tail_instance(3, 40, 2, np.random.default_rng(9))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_an_rng_without_the_methods_a_generator_uses_is_rejected():
    """The generators draw with ``standard_normal`` (and ``chisquare``), so
    a RandomState still works, and anything else is rejected by name."""
    for gen in (gen_normal_instance, gen_heavy_tail_instance):
        for bad, name in ((5, "int"), (None, "NoneType"), (object(), "object")):
            with pytest.raises(ValueError, match=f"rng must be a numpy.random.Generator, got {name}"):
                gen(2, 4, 2, bad)
        M, N = gen(2, 4, 2, np.random.RandomState(5))
        assert M.shape == (2, 4) and N.shape == (4, 2) and np.isfinite(M).all() and np.isfinite(N).all()
    # The heavy-tailed generator names the chi-square draw it also needs.
    normal_only = types.SimpleNamespace(standard_normal=np.random.default_rng(5).standard_normal)
    assert gen_normal_instance(2, 4, 2, normal_only)[0].shape == (2, 4)
    with pytest.raises(ValueError, match="got SimpleNamespace \\(it has no 'chisquare'\\)"):
        gen_heavy_tail_instance(2, 4, 2, normal_only)
