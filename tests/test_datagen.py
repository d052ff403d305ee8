"""Data generation tests: covariance construction, distributional checks on
both generators, and seed determinism."""

import numpy as np
import pytest

from blockmm import (
    CovarianceSpec,
    ar_covariance,
    gen_heavy_tail_instance,
    gen_normal_instance,
)


def test_covariance_spec_validation():
    CovarianceSpec(3)
    CovarianceSpec(2, scale=0.5, rho=-0.3)
    with pytest.raises(ValueError):
        CovarianceSpec(0)
    with pytest.raises(ValueError):
        CovarianceSpec(2, scale=0.0)
    with pytest.raises(ValueError):
        CovarianceSpec(2, rho=1.0)
    with pytest.raises(ValueError):
        CovarianceSpec(2, rho=-1.0)


def test_ar_covariance_hand_values():
    np.testing.assert_array_equal(ar_covariance(CovarianceSpec(1, scale=3.0)), [[3.0]])
    got = ar_covariance(CovarianceSpec(2))
    np.testing.assert_allclose(got, [[1.0, 0.7], [0.7, 1.0]], rtol=0, atol=0)
    got = ar_covariance(CovarianceSpec(3, scale=2.0, rho=0.7))
    want = 2.0 * np.array([[1, 0.7, 0.49], [0.7, 1, 0.7], [0.49, 0.7, 1]])
    np.testing.assert_allclose(got, want, rtol=1e-15)
    # decay structure stays positive definite at benchmark size
    np.linalg.cholesky(ar_covariance(CovarianceSpec(200)))


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
    with pytest.raises(ValueError):
        gen_normal_instance(4, 5, 2, np.random.default_rng(3), cov_left=CovarianceSpec(3))


def test_normal_instance_matches_target_covariances():
    n = 100_000
    M, N = gen_normal_instance(5, n, 4, np.random.default_rng(4))
    left = ar_covariance(CovarianceSpec(5, scale=1.0, rho=0.7))
    right = ar_covariance(CovarianceSpec(4, scale=2.0, rho=0.7))
    sample_left = (M @ M.T) / n
    sample_right = (N.T @ N) / n
    assert np.abs(M.mean(axis=1)).max() < 0.02
    assert np.abs(sample_left - left).max() < 0.03
    assert np.abs(sample_right - right).max() < 0.06


def test_heavy_tail_cauchy_marginals():
    # with identity covariance and zero location each entry is standard
    # Cauchy: median 0, median absolute value 1
    n = 20_000
    M, _ = gen_heavy_tail_instance(
        3, n, 2, np.random.default_rng(5),
        cov_left=CovarianceSpec(3, rho=0.0), cov_right=CovarianceSpec(2, rho=0.0),
        location="zero",
    )
    row = M[0]
    assert abs(np.median(row)) < 0.05
    assert abs(np.median(np.abs(row)) - 1.0) < 0.05
    Mo, _ = gen_heavy_tail_instance(
        3, n, 2, np.random.default_rng(5),
        cov_left=CovarianceSpec(3, rho=0.0), cov_right=CovarianceSpec(2, rho=0.0),
    )
    assert abs(np.median(Mo[0]) - 1.0) < 0.05
    with pytest.raises(ValueError):
        gen_heavy_tail_instance(3, 10, 2, np.random.default_rng(6), location="median")


def test_heavy_tail_is_heavier_than_normal():
    n = 10_000
    rng = np.random.default_rng(7)
    M_heavy, _ = gen_heavy_tail_instance(4, n, 3, rng, location="zero")
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
