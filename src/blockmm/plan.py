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

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

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
    vectors arose ("optimal", "uniform", or "explicit") so serialized plans
    can omit regenerable arrays.
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
    """Per-block score sums s_k = sum_i ||col_i|| * ||row_i|| and block
    product Frobenius norms g_k (exact, or pilot estimates when
    ``exact=False``; estimated norms may exceed the score sum)."""

    score_sums: np.ndarray
    product_norms: np.ndarray
    exact: bool = True

    def __post_init__(self):
        s = np.asarray(self.score_sums, dtype=np.float64)
        g = np.asarray(self.product_norms, dtype=np.float64)
        if s.shape != g.shape or s.ndim != 1:
            raise ValueError("score_sums and product_norms must be matching vectors")
        if (s < 0).any() or (g < 0).any():
            raise ValueError("scores must be nonnegative")
        if self.exact and (g > s * (1 + RADICAND_SLACK) + 1e-300).any():
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


def _index_scores(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Per-index products ||M column|| * ||N row|| over the inner dimension."""
    return column_norms(M) * row_norms(N)


def score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    _check_instance(M, N, part)
    scores = _index_scores(M, N)
    return np.add.reduceat(scores, part.offsets[:-1])


def block_scores(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockScores:
    """Exact scores: s_k from column/row norms, g_k from the block products.

    Computing g_k multiplies out every block, so this is as expensive as the
    exact product itself; it backs the optimal allocator only.
    """
    s = score_sums(M, N, part)
    g = np.array(
        [
            frobenius_norm(block_view(M, part, k) @ block_view(N, part, k, "rows"))
            for k in range(part.num_blocks)
        ]
    )
    return BlockScores(s, g, exact=True)


def optimal_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockProbabilities:
    """Variance-minimizing within-block probabilities: p_i proportional to
    ||M column i|| * ||N row i||, normalized per block."""
    _check_instance(M, N, part)
    scores = _index_scores(M, N)
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


def uniform_probabilities(part: BlockPartition) -> BlockProbabilities:
    return BlockProbabilities(
        tuple(np.full(n_k, 1.0 / n_k) for n_k in part.sizes), rule="uniform"
    )


def pilot_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition, pilot: str) -> BlockProbabilities:
    """Pilot probabilities of the two-step plans: "uniform" (tag ONU) or
    "norm", the norm-product probabilities (tag ONMCNR)."""
    if pilot == "uniform":
        return uniform_probabilities(part)
    if pilot == "norm":
        return optimal_probabilities(M, N, part)
    raise ValueError(f"unknown pilot rule {pilot!r} (use 'uniform' or 'norm')")


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


def optimal_size_weights(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Real-valued optimal-size weights sqrt(s_k^2 - g_k^2) with exact g_k.

    The radicand is nonnegative by Cauchy-Schwarz; tiny negatives from
    rounding are clamped, anything beyond the slack is a corrupted input.
    """
    sc = block_scores(M, N, part)
    rad = sc.score_sums**2 - sc.product_norms**2
    bad = rad < -RADICAND_SLACK * sc.score_sums**2
    if bad.any():
        raise ValueError(f"radicand negative beyond rounding slack in blocks {np.where(bad)[0]}")
    return np.sqrt(np.maximum(rad, 0.0))


def real_optimal_budgets(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> np.ndarray:
    """Pre-integerization optimal sizes c * w_k / sum(w)."""
    w = optimal_size_weights(M, N, part)
    total = w.sum()
    if total == 0.0:
        raise ValueError("all optimal size weights are zero")
    return c * w / total


def _cap_array(part: BlockPartition, cap: bool, c: int, scores=None):
    """Budget caps: the block sizes when ``cap`` is set, otherwise just the
    trivial bound c.  Blocks with zero score always cap at zero draws — their
    sampling probabilities have no support."""
    caps = np.array(part.sizes, dtype=np.int64) if cap else np.full(part.num_blocks, int(c), dtype=np.int64)
    if scores is not None:
        caps = np.where(scores > 0, caps, 0).astype(np.int64)
    return caps


def allocate_optimal(
    M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int, cap: bool = True
) -> SamplingPlan:
    """Variance-minimizing plan (tag OPL): optimal probabilities, sizes
    proportional to sqrt(s_k^2 - g_k^2).  Forms every exact block product."""
    probs = optimal_probabilities(M, N, part)
    s = score_sums(M, N, part)
    if s.sum() == 0.0:
        raise ValueError("all blocks have zero score: nothing to sample")
    w = optimal_size_weights(M, N, part)
    notes = ()
    if w.sum() == 0.0:
        # Every block is variance-free at the optimal probabilities (e.g. all
        # single-column); sizes then do not matter, use the score split.
        w = s
        notes = ("optimal size weights all zero; fell back to score-sum sizes",)
    budgets = integerize(w, c, caps=_cap_array(part, cap, c, s), floor=s > 0)
    return SamplingPlan(part, probs, budgets, method="OPL", notes=notes)


def allocate_by_score_sums(
    M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int, cap: bool = True
) -> SamplingPlan:
    """Cheap plan (tag ONC): optimal probabilities, sizes proportional to the
    block score sums.  Never multiplies out a block."""
    probs = optimal_probabilities(M, N, part)
    s = score_sums(M, N, part)
    if s.sum() == 0.0:
        raise ValueError("all blocks have zero score: nothing to sample")
    budgets = integerize(s, c, caps=_cap_array(part, cap, c, s), floor=s > 0)
    return SamplingPlan(part, probs, budgets, method="ONC")


def allocate_uniform(part: BlockPartition, c: int, cap: bool = True) -> SamplingPlan:
    """Fully uniform plan (tag UU): 1/n_k probabilities, c/K sizes."""
    budgets = integerize(
        np.ones(part.num_blocks), c, caps=_cap_array(part, cap, c), floor=np.ones(part.num_blocks, bool)
    )
    return SamplingPlan(part, uniform_probabilities(part), budgets, method="UU")


def allocate_two_step(
    M: np.ndarray,
    N: np.ndarray,
    part: BlockPartition,
    c: int,
    c0: int,
    p0: BlockProbabilities,
    rng: np.random.Generator,
    cap: bool = True,
    method: Optional[str] = None,
) -> SamplingPlan:
    """Pilot-then-allocate plan (tags ONU/ONMCNR).

    Each block is pilot-sampled with floor(c0/K) draws under ``p0`` (any
    remainder draws are discarded); the pilot product's Frobenius norm
    stands in for the exact block product norm in the optimal-size weights,
    under an absolute value since the estimate may overshoot the score sum.
    The pilot consumes one spawned substream per block, so the plan is a
    pure function of the rng state regardless of evaluation order.
    """
    _check_instance(M, N, part)
    p0.check_partition(part)
    K = part.num_blocks
    pilot_count = c0 // K
    if pilot_count < 1:
        raise ValueError(f"c0={c0} gives no pilot draws for K={K} blocks")
    from .estimators import sketch_columns  # deferred: estimators builds on plans

    s = score_sums(M, N, part)
    if s.sum() == 0.0:
        raise ValueError("all blocks have zero score: nothing to sample")
    pilot_norms = np.zeros(K)
    streams = rng.spawn(K)
    for k in range(K):
        pk = p0[k]
        if pk.sum() == 0.0:
            continue  # zero-score block: pilot norm stays 0, weight will be 0
        Mk = block_view(M, part, k)
        Nk = block_view(N, part, k, "rows")
        C0, D0, _ = sketch_columns(Mk, Nk, pilot_count, pk, streams[k])
        pilot_norms[k] = frobenius_norm(C0 @ D0)
    w = np.sqrt(np.abs(s**2 - pilot_norms**2))
    notes = ()
    if w.sum() == 0.0:
        w = s
        notes = ("pilot size weights all zero; fell back to score-sum sizes",)
    budgets = integerize(w, c, caps=_cap_array(part, cap, c, s), floor=s > 0)
    if method is None:
        method = "ONU" if p0.rule == "uniform" else "ONMCNR"
    return SamplingPlan(
        part,
        optimal_probabilities(M, N, part),
        budgets,
        method=method,
        notes=notes,
        pilot_norms=pilot_norms,
    )


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


def plan_to_dict(plan: SamplingPlan, include_probs: Optional[bool] = None) -> dict:
    """JSON-compatible plan document.  Probability arrays are omitted when a
    named rule ("optimal", "uniform") can regenerate them, unless forced."""
    if plan.method not in METHOD_TAGS:
        raise ValueError(f"method tag {plan.method!r} not in {METHOD_TAGS}")
    if include_probs is None:
        include_probs = plan.probs.rule == "explicit"
    doc = {
        "method": plan.method,
        "partition": list(plan.partition.sizes),
        "total": plan.total,
        "budgets": [int(b) for b in plan.budgets],
        "probs_rule": plan.probs.rule,
    }
    if include_probs:
        doc["probs"] = [p.tolist() for p in plan.probs.per_block]
    if plan.pilot_norms is not None:
        doc["pilot_norms"] = plan.pilot_norms.tolist()
    return doc


def plan_from_dict(
    doc: dict, M: Optional[np.ndarray] = None, N: Optional[np.ndarray] = None
) -> SamplingPlan:
    part = BlockPartition(tuple(doc["partition"]))
    rule = doc.get("probs_rule", "explicit")
    if "probs" in doc:
        probs = BlockProbabilities(tuple(np.asarray(p) for p in doc["probs"]), rule=rule)
    elif rule == "uniform":
        probs = uniform_probabilities(part)
    elif rule == "optimal":
        if M is None or N is None:
            raise ValueError("regenerating 'optimal' probabilities requires the factor matrices")
        probs = optimal_probabilities(M, N, part)
    else:
        raise ValueError(f"cannot reconstruct probabilities for rule {rule!r}")
    pilot = doc.get("pilot_norms")
    plan = SamplingPlan(
        part,
        probs,
        np.asarray(doc["budgets"], dtype=np.int64),
        method=doc.get("method", ""),
        pilot_norms=None if pilot is None else np.asarray(pilot),
    )
    if plan.total != doc.get("total", plan.total):
        raise ValueError("budget sum disagrees with the recorded total")
    return plan


def plan_to_json(plan: SamplingPlan, include_probs: Optional[bool] = None) -> str:
    return json.dumps(plan_to_dict(plan, include_probs), indent=2)


def plan_from_json(
    text: str, M: Optional[np.ndarray] = None, N: Optional[np.ndarray] = None
) -> SamplingPlan:
    return plan_from_dict(json.loads(text), M, N)
