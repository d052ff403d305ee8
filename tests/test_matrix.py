import numpy as np
import pytest

from blockmm import (
    BlockProbabilities,
    SamplingPlan,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_two_step,
    allocate_uniform,
    block_norm_probabilities,
    block_scores,
    cancellation_stats,
    estimate_product,
    estimate_product_block_sampling,
    estimate_product_two_step,
    expected_sq_error,
    minimum_expected_sq_error,
    optimal_probabilities,
    optimal_size_weights,
    real_optimal_budgets,
    score_sums,
    sketch_columns,
    uniform_probabilities,
)
from blockmm.analysis import (
    bound_inputs_for_plan,
    bounds_optimal_allocation,
    bounds_pilot_allocation,
    bounds_score_allocation,
    elementwise_variance,
    relative_error,
)
from blockmm.bench import config_from_dict, estimate_bytes
from blockmm.matrix import (
    BlockPartition,
    block_view,
    column_norms,
    frobenius_norm,
    multiply_exact,
    row_norms,
)

from oracles import loop_column_norms, loop_product, loop_row_norms


def test_bad_factors_rejected_at_the_boundary():
    """A factor that is no array or not 2-D raises a ValueError from the
    planners, the analytics, the estimators and the exact product alike; a
    NaN or Inf entry one that names the factor from every call that scores
    the instance."""
    rng = np.random.default_rng(3)
    M, N = rng.standard_normal((3, 6)), rng.standard_normal((6, 2))
    part = BlockPartition.equal(6, 2)
    plan = allocate_by_score_sums(M, N, part, 4)
    scoring = (
        lambda A, B: allocate_by_score_sums(A, B, part, 4),
        lambda A, B: expected_sq_error(A, B, plan),
        lambda A, B: block_norm_probabilities(A, B, part),
    )
    for call in (
        *scoring,
        lambda A, B: estimate_product(A, B, plan, np.random.default_rng(0)),
        lambda A, B: sketch_columns(A, B, 2, np.full(6, 1 / 6), np.random.default_rng(0)),
        multiply_exact,
    ):
        with pytest.raises(ValueError, match="M must be a numpy array, got list"):
            call(M.tolist(), N)
        with pytest.raises(ValueError, match="N must be a numpy array, got list"):
            call(M, N.tolist())
        with pytest.raises(ValueError, match="2-D"):
            call(M[0], N)
    for call in scoring:
        for bad in (np.nan, np.inf, -np.inf):
            A = M.copy()
            A[1, 4] = bad
            with pytest.raises(ValueError, match="M has a NaN or Inf entry"):
                call(A, N)
            B = N.copy()
            B[2, 0] = bad
            with pytest.raises(ValueError, match="N has a NaN or Inf entry"):
                call(M, B)


_M, _N = np.ones((3, 12)), np.ones((12, 2))
_PART = BlockPartition.equal(12, 3)
# Each entry point with the argument it takes a partition or probabilities in.
_TYPED_ARGS = {
    "score_sums": ("part", lambda x: score_sums(_M, _N, x)),
    "block_scores": ("part", lambda x: block_scores(_M, _N, x)),
    "optimal_probabilities": ("part", lambda x: optimal_probabilities(_M, _N, x)),
    "uniform_probabilities": ("part", lambda x: uniform_probabilities(x)),
    "optimal_size_weights": ("part", lambda x: optimal_size_weights(_M, _N, x)),
    "real_optimal_budgets": ("part", lambda x: real_optimal_budgets(_M, _N, x, 6)),
    "allocate_optimal": ("part", lambda x: allocate_optimal(_M, _N, x, 6)),
    "allocate_by_score_sums": ("part", lambda x: allocate_by_score_sums(_M, _N, x, 6)),
    "allocate_uniform": ("part", lambda x: allocate_uniform(x, 6)),
    "block_norm_probabilities": ("part", lambda x: block_norm_probabilities(_M, _N, x)),
    "allocate_two_step": ("part", lambda x: allocate_two_step(_M, _N, x, 6, 6, None, np.random.default_rng(1))),
    "estimate_product_two_step": ("part", lambda x: estimate_product_two_step(_M, _N, x, 6, 6, np.random.default_rng(1))),
    "estimate_product_block_sampling": (
        "part", lambda x: estimate_product_block_sampling(_M, _N, x, 2, np.random.default_rng(1))
    ),
    "minimum_expected_sq_error": ("part", lambda x: minimum_expected_sq_error(_M, _N, x, 6)),
    "cancellation_stats": ("part", lambda x: cancellation_stats(_M, _N, x)),
    "BlockProbabilities": ("partition", lambda x: BlockProbabilities(np.full(12, 0.25), x)),
    "SamplingPlan": ("partition", lambda x: SamplingPlan(x, uniform_probabilities(_PART), np.full(3, 2))),
    "SamplingPlan-probs": ("probs", lambda x: SamplingPlan(_PART, x, np.full(3, 2))),
    "allocate_two_step-p0": ("p0", lambda x: allocate_two_step(_M, _N, _PART, 6, 6, x, np.random.default_rng(1))),
    "block_view": ("part", lambda x: block_view(_M, x, 0)),
}
_WRONG_TYPES = {"int": 5, "tuple": (4, 4, 4), "NoneType": None, "ndarray": np.full(12, 0.25)}


@pytest.mark.parametrize(
    "entry, wrong",
    # p0=None pilots with the plan's own probabilities.
    [(e, w) for e in _TYPED_ARGS for w in _WRONG_TYPES if (_TYPED_ARGS[e][0], w) != ("p0", "NoneType")],
)
def test_a_partition_or_probabilities_of_the_wrong_type_is_named(entry, wrong):
    """A ValueError that names the argument and the type it must have, not
    an AttributeError, nor the false "different partition" an ndarray's
    ``partition`` method gave."""
    name, call = _TYPED_ARGS[entry]
    kind = "BlockPartition" if name in ("part", "partition") else "BlockProbabilities"
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got {wrong}$"):
        call(_WRONG_TYPES[wrong])


# Each entry point with the argument it takes a plan, bound inputs, a config
# or arrays in, and the type that argument must have.
_OBJECT_ARGS = {
    "estimate_product": ("plan", "SamplingPlan", lambda x: estimate_product(_M, _N, x, np.random.default_rng(1))),
    "expected_sq_error": ("plan", "SamplingPlan", lambda x: expected_sq_error(_M, _N, x)),
    "elementwise_variance": ("plan", "SamplingPlan", lambda x: elementwise_variance(_M, _N, x)),
    "bound_inputs_for_plan": ("plan", "SamplingPlan", lambda x: bound_inputs_for_plan(_M, _N, x, 0.05)),
    "bounds_optimal_allocation": ("inp", "BoundInputs", bounds_optimal_allocation),
    "bounds_score_allocation": ("inp", "BoundInputs", bounds_score_allocation),
    "bounds_pilot_allocation": ("inp", "BoundInputs", bounds_pilot_allocation),
    "estimate_bytes": ("config", "ExperimentConfig", estimate_bytes),
    "config_from_dict": ("doc", "Mapping", config_from_dict),
    "relative_error-approx": ("approx", "ndarray", lambda x: relative_error(x, np.ones(1))),
    "relative_error-exact": ("exact", "ndarray", lambda x: relative_error(np.ones(1), x)),
}
# A str has a ``partition`` method, as an ndarray has.
_WRONG_OBJECTS = {"int": 5, "str": "plan", "NoneType": None, "list": ["case"], "ndarray": np.ones(1)}


@pytest.mark.parametrize(
    "entry, wrong",
    [(e, w) for e in _OBJECT_ARGS for w in _WRONG_OBJECTS if (_OBJECT_ARGS[e][1], w) != ("ndarray", "ndarray")],
)
def test_a_plan_bound_input_config_or_array_of_the_wrong_type_is_named(entry, wrong):
    """A ValueError that names the argument and the type it must have, not
    an AttributeError or TypeError, nor the false "part must be a
    BlockPartition" a str's ``partition`` method gave."""
    name, kind, call = _OBJECT_ARGS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got {wrong}$"):
        call(_WRONG_OBJECTS[wrong])


def test_non_real_factors_rejected_naming_the_factor():
    rng = np.random.default_rng(4)
    M, N = rng.standard_normal((3, 6)), rng.standard_normal((6, 2))
    part = BlockPartition.equal(6, 2)
    plan = allocate_by_score_sums(M, N, part, 4)
    for call in (
        lambda A, B: allocate_by_score_sums(A, B, part, 4),
        lambda A, B: expected_sq_error(A, B, plan),
        lambda A, B: estimate_product(A, B, plan, np.random.default_rng(0)),
        lambda A, B: sketch_columns(A, B, 2, np.full(6, 1 / 6), np.random.default_rng(0)),
    ):
        for dtype in (complex, object):
            with pytest.raises(ValueError, match="M must have a bool, integer or floating dtype"):
                call(M.astype(dtype), N)
            with pytest.raises(ValueError, match="N must have a bool, integer or floating dtype"):
                call(M, N.astype(dtype))


def test_partition_sizes_are_integers_not_truncated():
    for bad in ((2.7, 3), ("3", 2), (True, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            BlockPartition(bad)
    for bad in (5, None):
        with pytest.raises(ValueError, match="block sizes must be a sequence of integers"):
            BlockPartition(bad)
    for n, K in ((12.0, 3), (12, 3.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            BlockPartition.equal(n, K)
    assert BlockPartition((np.int64(2), 3)).sizes == (2, 3)
    assert BlockPartition.equal(np.int64(12), np.int64(3)) == BlockPartition((4, 4, 4))


def test_partition_basics():
    part = BlockPartition((2, 3, 1))
    assert part.num_blocks == 3
    assert part.total == 6
    assert list(part.offsets) == [0, 2, 5, 6]
    assert part.offsets is part.offsets  # computed once
    with pytest.raises(ValueError):
        part.offsets[0] = 1  # shared, so read-only
    assert part.block_slice(1) == slice(2, 5)
    with pytest.raises(IndexError):
        part.block_slice(3)
    with pytest.raises(ValueError):
        BlockPartition((2, 0))
    with pytest.raises(ValueError):
        BlockPartition(())


def test_equal_partition_requires_divisibility():
    part = BlockPartition.equal(12, 4)
    assert part.sizes == (3, 3, 3, 3)
    with pytest.raises(ValueError):
        BlockPartition.equal(10, 4)


def test_block_view_is_a_view():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 6))
    part = BlockPartition((2, 4))
    v = block_view(M, part, 1)
    assert v.shape == (3, 4)
    assert np.shares_memory(v, M)
    N = rng.standard_normal((6, 2))
    w = block_view(N, part, 0, axis="rows")
    assert w.shape == (2, 2)
    assert np.shares_memory(w, N)
    with pytest.raises(ValueError):
        block_view(M, part, 0, axis="diagonal")


def test_multiply_exact_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        M = rng.standard_normal((4, 7))
        N = rng.standard_normal((7, 3))
        assert np.allclose(multiply_exact(M, N), loop_product(M, N), atol=1e-12)
    with pytest.raises(ValueError):
        multiply_exact(np.zeros((2, 3)), np.zeros((4, 2)))


def test_norms_match_loop_oracles():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 8))
    assert np.allclose(column_norms(M), loop_column_norms(M), atol=1e-12)
    assert np.allclose(row_norms(M.T.copy()), loop_row_norms(M.T.copy()), atol=1e-12)
    assert frobenius_norm(M) == pytest.approx(
        np.sqrt(sum(M[i, j] ** 2 for i in range(5) for j in range(8))), abs=1e-12
    )
