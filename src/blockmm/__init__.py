"""Randomized block matrix multiplication by importance sampling.

Partition the inner dimension into blocks, sample column/row outer products
within each block with variance-aware probabilities and per-block budgets,
and combine the rescaled draws into an unbiased product estimate.  The
package also ships the exact variance analytics, high-probability error
bounds, synthetic instance generators, and a benchmark CLI.
"""

from .matrix import (
    BlockPartition,
    block_view,
    column_norms,
    frobenius_norm,
    multiply_exact,
    row_norms,
)
from .plan import (
    METHOD_TAGS,
    BlockProbabilities,
    BlockScores,
    SamplingPlan,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_uniform,
    block_norm_probabilities,
    block_scores,
    integerize,
    optimal_probabilities,
    optimal_size_weights,
    real_optimal_budgets,
    score_sums,
    uniform_probabilities,
)
from .estimators import (
    SampleLog,
    SketchPair,
    TwoStepResult,
    allocate_two_step,
    estimate_product,
    estimate_product_block_sampling,
    estimate_product_two_step,
    sketch_columns,
)
from .analysis import (
    BoundInputs,
    BoundPair,
    CancellationStats,
    bound_inputs_for_plan,
    bounds_optimal_allocation,
    bounds_pilot_allocation,
    bounds_score_allocation,
    cancellation_stats,
    elementwise_variance,
    expected_sq_error,
    minimum_expected_sq_error,
    relative_error,
)
from .datagen import gen_heavy_tail_instance, gen_normal_instance
from .bench import (
    ExperimentConfig,
    RawRecord,
    ResourceCapError,
    SummaryRecord,
    config_from_dict,
    estimate_bytes,
    run,
    summarize,
    write_results,
)

__version__ = "0.1.0"
