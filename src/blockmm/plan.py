"""Sampling plans: per-block probabilities and integer per-block budgets.

A plan fixes, for every block of the inner-dimension partition, a probability
vector over that block's columns and an integer number of draws.  Budget
rules implemented here:

* ``allocate_optimal``      -- variance-minimizing sizes; needs every exact
                               block product (expensive, method tag OPL).
* ``allocate_by_score_sums``-- sizes proportional to the block score sums
                               (cheap upper-bound minimizer, tag ONC).
* ``allocate_two_step``     -- sizes from pilot-sampled block product norms
                               (tags ONU / ONMCNR depending on the pilot).
* ``allocate_uniform``      -- equal split (tag UU).
* ``block_norm_probabilities`` -- block-level probabilities for the
                               whole-block sampling baseline (tag SSM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matrix import (
    BlockPartition,
    block_view,
    column_norms,
    frobenius_norm,
    row_norms,
)

METHOD_TAGS = ("OPL", "ONC", "ONU", "ONMCNR", "UU", "SSM")

PROB_SUM_TOL = 1e-12
RADICAND_SLACK = 1e-9  # relative slack allowed on the Cauchy-Schwarz radicand


def _check_instance(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> None:
    if M.ndim != 2 or N.ndim != 2:
        raise ValueError("factors must be 2-D")
    if M.shape[1] != N.shape[0]:
        raise ValueError(f"inner dimensions differ: {M.shape} x {N.shape}")
    part.check_length(M.shape[1], "inner dimension")


@dataclass(frozen=True, eq=False)
class BlockProbabilities:
    """Per-block probability vectors over column indices.

    Each vector sums to 1 (within ``PROB_SUM_TOL``) except for flagged
    zero-score blocks, which carry an all-zero vector to signal that no
    column there produces a nonzero outer product.  ``rule`` records how the
    vectors arose ("optimal", "uniform", or "explicit"); a two-step plan
    takes its tag from its pilot's rule.
    """

    per_block: tuple[np.ndarray, ...]
    rule: str = "explicit"

    def __post_init__(self):
        vecs = []
        for k, p in enumerate(self.per_block):
            p = np.ascontiguousarray(p, dtype=np.float64)
            if p.ndim != 1 or p.size == 0:
                raise ValueError(f"block {k}: probabilities must be a nonempty vector")
            if not np.isfinite(p).all() or (p < 0).any():
                raise ValueError(f"block {k}: probabilities must be finite and >= 0")
            total = p.sum()
            if total != 0.0 and abs(total - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"block {k}: probabilities sum to {total!r}, not 1")
            vecs.append(p)
        object.__setattr__(self, "per_block", tuple(vecs))

    def __len__(self) -> int:
        return len(self.per_block)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.per_block[k]

    @property
    def num_blocks(self) -> int:
        return len(self.per_block)

    @property
    def zero_blocks(self) -> tuple[int, ...]:
        """Indices of flagged all-zero (zero-score) blocks."""
        return tuple(k for k, p in enumerate(self.per_block) if p.sum() == 0.0)

    def check_partition(self, part: BlockPartition) -> None:
        if self.num_blocks != part.num_blocks:
            raise ValueError(
                f"probabilities cover {self.num_blocks} blocks, partition has {part.num_blocks}"
            )
        for k, (p, n_k) in enumerate(zip(self.per_block, part.sizes)):
            if p.size != n_k:
                raise ValueError(f"block {k}: {p.size} probabilities for {n_k} columns")


@dataclass(frozen=True, eq=False)
class BlockScores:
    """Per-block score sums s_k = sum_i ||col_i|| * ||row_i|| and exact block
    product Frobenius norms g_k."""

    score_sums: np.ndarray
    product_norms: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.score_sums, dtype=np.float64)
        g = np.asarray(self.product_norms, dtype=np.float64)
        if s.shape != g.shape or s.ndim != 1:
            raise ValueError("score_sums and product_norms must be matching vectors")
        if (s < 0).any() or (g < 0).any():
            raise ValueError("scores must be nonnegative")
        if (g > s * (1 + RADICAND_SLACK) + 1e-300).any():
            raise ValueError("exact product norm exceeds score sum (Cauchy-Schwarz violated)")
        object.__setattr__(self, "score_sums", s)
        object.__setattr__(self, "product_norms", g)


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Partition + probabilities + integer budgets; the estimator input."""

    partition: BlockPartition
    probs: BlockProbabilities
    budgets: np.ndarray
    method: str = ""
    notes: tuple[str, ...] = ()
    pilot_norms: Optional[np.ndarray] = None  # two-step audit: per-block pilot norms

    def __post_init__(self):
        b = np.asarray(self.budgets)
        if b.dtype.kind not in "iu":
            if not np.array_equal(b, np.round(b)):
                raise ValueError("budgets must be integers")
        b = b.astype(np.int64)
        if b.ndim != 1 or b.size != self.partition.num_blocks:
            raise ValueError("budgets must be one integer per block")
        if (b < 0).any():
            raise ValueError("budgets must be >= 0")
        self.probs.check_partition(self.partition)
        zero_probs = set(self.probs.zero_blocks)
        for k in range(self.partition.num_blocks):
            if (b[k] == 0) != (k in zero_probs):
                raise ValueError(
                    f"block {k}: zero budget and zero-probability flag must coincide"
                )
        object.__setattr__(self, "budgets", b)
        if self.pilot_norms is not None:
            pn = np.asarray(self.pilot_norms, dtype=np.float64)
            if pn.shape != (self.partition.num_blocks,):
                raise ValueError("pilot_norms must be one value per block")
            object.__setattr__(self, "pilot_norms", pn)

    @property
    def total(self) -> int:
        return int(self.budgets.sum())


class _Scores(NamedTuple):
    """One scoring pass over an instance: the per-index scores
    ||M column i|| * ||N row i|| and their block sums s_k."""

    index: np.ndarray
    sums: np.ndarray


def _score(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> _Scores:
    """The scoring pass; every public entry point makes it exactly once and
    passes the result down."""
    _check_instance(M, N, part)
    index = column_norms(M) * row_norms(N)
    return _Scores(index, np.add.reduceat(index, part.offsets[:-1]))


def score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    return _score(M, N, part).sums


def _block_scores(M: np.ndarray, N: np.ndarray, part: BlockPartition, s: np.ndarray) -> BlockScores:
    g = np.array(
        [
            frobenius_norm(block_view(M, part, k) @ block_view(N, part, k, "rows"))
            for k in range(part.num_blocks)
        ]
    )
    return BlockScores(s, g)


def block_scores(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockScores:
    """Exact scores: s_k from column/row norms, g_k from the block products.

    Computing g_k multiplies out every block, so this is as expensive as the
    exact product itself; it backs the optimal allocator only.
    """
    return _block_scores(M, N, part, _score(M, N, part).sums)


def _optimal_probabilities(scores: np.ndarray, part: BlockPartition) -> BlockProbabilities:
    per_block = []
    for k in range(part.num_blocks):
        sk = scores[part.block_slice(k)]
        total = sk.sum()
        if total == 0.0:
            per_block.append(np.zeros_like(sk))  # flagged zero-score block
        else:
            p = sk / total
            per_block.append(p / p.sum())  # renormalize away accumulation error
    return BlockProbabilities(tuple(per_block), rule="optimal")


def optimal_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockProbabilities:
    """Variance-minimizing within-block probabilities: p_i proportional to
    ||M column i|| * ||N row i||, normalized per block."""
    return _optimal_probabilities(_score(M, N, part).index, part)


def uniform_probabilities(part: BlockPartition) -> BlockProbabilities:
    return BlockProbabilities(
        tuple(np.full(n_k, 1.0 / n_k) for n_k in part.sizes), rule="uniform"
    )


class FloorRatio(NamedTuple):
    ratio: float
    support_mismatch: bool


def prob_floor_ratio(probs: BlockProbabilities, reference: BlockProbabilities) -> FloorRatio:
    """Largest factor beta such that probs >= beta * reference everywhere.

    Computed as the minimum ratio over reference's support, clamped to
    [0, 1].  If probs vanishes somewhere reference is positive there is no
    positive floor: returns ratio 0 with the mismatch flag set.
    """
    if len(probs) != len(reference):
        raise ValueError("block counts differ")
    ratio = 1.0
    for p, ref in zip(probs.per_block, reference.per_block):
        if p.shape != ref.shape:
            raise ValueError("per-block shapes differ")
        sup = ref > 0
        if not sup.any():
            continue
        if (p[sup] == 0).any():
            return FloorRatio(0.0, True)
        ratio = min(ratio, float((p[sup] / ref[sup]).min()))
    return FloorRatio(min(max(ratio, 0.0), 1.0), False)


def integerize(
    weights,
    c: int,
    caps=None,
    floor=None,
) -> np.ndarray:
    """Split budget c into integer block counts proportional to weights.

    Largest-remainder rounding with two side constraints:

    * ``floor`` -- boolean mask of blocks that must receive at least 1
      (default: blocks with positive weight).  Dropping such a block would
      bias the blocked estimator, whose sum over blocks must not lose terms.
    * ``caps`` -- optional per-block upper limits (block sizes, when draws
      per block may not exceed the block's column count).

    Blocks whose proportional share violates a bound are pinned there and
    the remaining budget is re-split among the rest, iterating to a
    fixpoint before rounding.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and >= 0")
    if w.sum() == 0.0:
        raise ValueError("all weights are zero")
    c = int(c)
    if c < 0:
        raise ValueError("budget must be >= 0")
    K = w.size
    if c * (K + 2) > 2**53:
        # Beyond this the float shares' rounding error can add up to a draw.
        raise ValueError(f"budget c={c} is too large to split over {K} blocks in float64")
    if floor is None:
        floor = w > 0
    floor = np.asarray(floor, dtype=bool)
    if floor.shape != (K,):
        raise ValueError("floor mask must have one entry per block")
    mins = floor.astype(np.int64)
    if caps is None:
        maxs = np.full(K, c, dtype=np.int64)
    else:
        maxs = np.minimum(np.asarray(caps, dtype=np.int64), c)
        if maxs.shape != (K,):
            raise ValueError("caps must have one entry per block")
    if (maxs < mins).any():
        raise ValueError("some cap lies below the required floor of 1")
    if int(mins.sum()) > c:
        raise ValueError(f"budget c={c} is below the {int(mins.sum())} required floors")
    if int(maxs.sum()) < c:
        raise ValueError(f"budget c={c} exceeds the total caps {int(maxs.sum())}")

    # Two-level fixpoint.  Pinning a block at its cap frees budget and can
    # only raise the others' proportional shares, so cap pins are permanent;
    # pinning at a floor takes budget and lowers the others' shares, so floor
    # pins are recomputed from scratch whenever a new cap pin appears.  Caps
    # are judged only once the floors are pinned: before that the shares are
    # inflated by the budget the floors have yet to take.
    out = np.full(K, -1, dtype=np.int64)
    capped = np.zeros(K, dtype=bool)
    for _ in range(K + 1):
        floored = np.zeros(K, dtype=bool)
        while True:
            active = ~capped & ~floored
            budget = c - int(maxs[capped].sum()) - int(mins[floored].sum())
            idxs = np.where(active)[0]
            if idxs.size == 0:
                if budget != 0:
                    raise AssertionError("apportionment did not converge")
                out[capped] = maxs[capped]
                out[floored] = mins[floored]
                return out
            wa = w[idxs]
            if wa.sum() == 0.0:
                # Zero-weight leftovers: each takes its floor, then any
                # remaining budget is handed out in index order.
                out[capped] = maxs[capped]
                out[floored] = mins[floored]
                out[idxs] = mins[idxs]
                budget -= int(mins[idxs].sum())
                for i in idxs:
                    take = min(budget, int(maxs[i] - mins[i]))
                    out[i] += take
                    budget -= take
                if budget != 0:
                    raise AssertionError("apportionment did not converge")
                return out
            r = budget * wa / wa.sum()
            below = r < mins[idxs]
            if below.any():
                floored[idxs[below]] = True
                continue
            above = r > maxs[idxs] + 1e-12
            if above.any():
                capped[idxs[above]] = True
                break  # restart the floor pass under the new cap set
            base = np.floor(r).astype(np.int64)
            deficit = budget - int(base.sum())
            order = np.argsort(-(r - base), kind="stable")
            for j in order:
                if deficit == 0:
                    break
                if base[j] < maxs[idxs[j]]:
                    base[j] += 1
                    deficit -= 1
            if deficit != 0:
                raise AssertionError("apportionment failed to place the full budget")
            out[capped] = maxs[capped]
            out[floored] = mins[floored]
            out[idxs] = base
            return out
    raise AssertionError("apportionment did not converge")


def _optimal_weights(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sqrt(s_k^2 - g_k^2) for exact g_k.  The radicand is nonnegative by
    Cauchy-Schwarz; tiny negatives from rounding are clamped, anything beyond
    the slack is a corrupted input."""
    rad = s**2 - g**2
    bad = rad < -RADICAND_SLACK * s**2
    if bad.any():
        raise ValueError(f"radicand negative beyond rounding slack in blocks {np.where(bad)[0]}")
    return np.sqrt(np.maximum(rad, 0.0))


def optimal_size_weights(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Real-valued optimal-size weights sqrt(s_k^2 - g_k^2) with exact g_k."""
    sc = block_scores(M, N, part)
    return _optimal_weights(sc.score_sums, sc.product_norms)


def real_optimal_budgets(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> np.ndarray:
    """Pre-integerization optimal sizes c * w_k / sum(w)."""
    w = optimal_size_weights(M, N, part)
    total = w.sum()
    if total == 0.0:
        raise ValueError("all optimal size weights are zero")
    return c * w / total


def _allocate(
    part: BlockPartition,
    c: int,
    sc: _Scores,
    method: str,
    exact_norms: Optional[np.ndarray] = None,
    pilot_norms: Optional[np.ndarray] = None,
) -> SamplingPlan:
    """The allocation shared by OPL, ONC and the two-step plans, all with the
    optimal probabilities.  Sizes are proportional to the score sums s (ONC),
    to sqrt(s^2 - g^2) with the exact block product norms g (OPL), or to
    sqrt(|s^2 - g^2|) with pilot norms g, which may overshoot s (ONU/ONMCNR).
    Zero-score blocks get no draws; every other block gets at least one and
    at most its column count."""
    s = sc.sums
    if s.sum() == 0.0:
        raise ValueError("all blocks have zero score: nothing to sample")
    if exact_norms is not None:
        w, rule = _optimal_weights(s, exact_norms), "optimal"
    elif pilot_norms is not None:
        w, rule = np.sqrt(np.abs(s**2 - pilot_norms**2)), "pilot"
    else:
        w, rule = s, "score"
    notes = ()
    if w.sum() == 0.0:
        # Every block is variance-free (e.g. all single-column); sizes then
        # do not matter, use the score split.
        w = s
        notes = (f"{rule} size weights all zero; fell back to score-sum sizes",)
    caps = np.where(s > 0, np.array(part.sizes, dtype=np.int64), 0)
    budgets = integerize(w, c, caps=caps, floor=s > 0)
    return SamplingPlan(
        part,
        _optimal_probabilities(sc.index, part),
        budgets,
        method=method,
        notes=notes,
        pilot_norms=pilot_norms,
    )


def allocate_optimal(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> SamplingPlan:
    """Variance-minimizing plan (tag OPL): optimal probabilities, sizes
    proportional to sqrt(s_k^2 - g_k^2).  Forms every exact block product."""
    sc = _score(M, N, part)
    g = _block_scores(M, N, part, sc.sums).product_norms
    return _allocate(part, c, sc, "OPL", exact_norms=g)


def allocate_by_score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> SamplingPlan:
    """Cheap plan (tag ONC): optimal probabilities, sizes proportional to the
    block score sums.  Never multiplies out a block."""
    return _allocate(part, c, _score(M, N, part), "ONC")


def allocate_uniform(part: BlockPartition, c: int) -> SamplingPlan:
    """Fully uniform plan (tag UU): 1/n_k probabilities, c/K sizes."""
    K = part.num_blocks
    budgets = integerize(np.ones(K), c, caps=np.array(part.sizes, dtype=np.int64), floor=np.ones(K, bool))
    return SamplingPlan(part, uniform_probabilities(part), budgets, method="UU")


def allocate_two_step(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    c: int,
    c0: int,
    p0: BlockProbabilities,
    rng: np.random.Generator,
) -> SamplingPlan:
    """Pilot-then-allocate plan (tags ONU/ONMCNR).

    Each block is pilot-sampled with floor(c0/K) draws under ``p0`` (any
    remainder draws are discarded); the pilot product's Frobenius norm
    stands in for the exact block product norm in the optimal-size weights,
    under an absolute value since the estimate may overshoot the score sum.
    The pilot consumes one spawned substream per block, so the plan is a
    pure function of the rng state regardless of evaluation order.  The tag
    is ONU for a uniform ``p0`` and ONMCNR otherwise.
    """
    return _allocate_two_step(M, N, part, c, c0, p0, rng, _score(M, N, part))


def _allocate_two_step(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    c: int,
    c0: int,
    p0: BlockProbabilities,
    rng: np.random.Generator,
    sc: _Scores,
) -> SamplingPlan:
    p0.check_partition(part)
    K = part.num_blocks
    pilot_count = c0 // K
    if pilot_count < 1:
        raise ValueError(f"c0={c0} gives no pilot draws for K={K} blocks")
    from .estimators import _block_sketches  # deferred: estimators builds on plans

    counts = np.full(K, pilot_count)
    counts[list(p0.zero_blocks)] = 0  # zero-score block: pilot norm stays 0
    pilot_norms = np.zeros(K)
    for k, C0, D0, _ in _block_sketches(M, N, part, counts, p0, rng):
        pilot_norms[k] = frobenius_norm(C0 @ D0)
    method = "ONU" if p0.rule == "uniform" else "ONMCNR"
    return _allocate(part, c, sc, method, pilot_norms=pilot_norms)


def _two_step_plan(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    c: int,
    c0: int,
    pilot: str,
    rng: np.random.Generator,
) -> tuple[SamplingPlan, np.random.Generator]:
    """The plan phase of the two-step estimator: pilot probabilities
    "uniform" (tag ONU) or "norm", the norm-product ones (tag ONMCNR), then
    ``allocate_two_step`` on the first of two child streams of ``rng``.
    Returns the plan and the second stream, which the sampling phase uses."""
    sc = _score(M, N, part)
    if pilot == "uniform":
        p0 = uniform_probabilities(part)
    elif pilot == "norm":
        p0 = _optimal_probabilities(sc.index, part)
    else:
        raise ValueError(f"unknown pilot rule {pilot!r} (use 'uniform' or 'norm')")
    pilot_rng, main_rng = rng.spawn(2)
    return _allocate_two_step(M, N, part, c, c0, p0, pilot_rng, sc), main_rng


def block_norm_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Block-level probabilities for the whole-block baseline (tag SSM):
    p_k proportional to ||M block||_F * ||N block||_F."""
    _check_instance(M, N, part)
    f = np.array(
        [
            frobenius_norm(block_view(M, part, k)) * frobenius_norm(block_view(N, part, k, "rows"))
            for k in range(part.num_blocks)
        ]
    )
    total = f.sum()
    if total == 0.0:
        raise ValueError("all blocks have zero norm: nothing to sample")
    return f / total
