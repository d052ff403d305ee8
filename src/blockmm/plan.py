"""Sampling plans: per-block probabilities and integer per-block budgets.

A plan fixes, for every block of the inner-dimension partition, a probability
vector over that block's columns and an integer number of draws.  Budget
rules implemented here (the two-step plans, tags ONU / ONMCNR, are built in
``estimators``, next to the sampler their pilot runs):

* ``allocate_optimal``      -- variance-minimizing sizes; needs every exact
                               block product (expensive, method tag OPL).
* ``allocate_by_score_sums``-- sizes proportional to the block score sums
                               (cheap upper-bound minimizer, tag ONC).
* ``allocate_uniform``      -- equal split (tag UU).
* ``block_norm_probabilities`` -- block-level probabilities for the
                               whole-block sampling baseline (tag SSM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .matrix import (
    BlockPartition,
    as_int,
    as_nonneg,
    check_factors,
    column_norms,
    frobenius_norm,
    row_norms,
)

METHOD_TAGS = ("OPL", "ONC", "ONU", "ONMCNR", "UU", "SSM")

PROB_SUM_TOL = 1e-12
RADICAND_SLACK = 1e-9  # relative slack allowed on the Cauchy-Schwarz radicand
LEVEL_SLACK = 1e-9  # relative nearness to a bound at which integerize defers to the split's own test


@dataclass(frozen=True, eq=False)
class BlockProbabilities:
    """Probabilities over the inner dimension, normalized within each block
    of ``partition``.

    ``values`` is one read-only vector over all n indices; ``probs[k]`` and
    ``per_block`` are views of it.  Each block sums to 1 (within
    ``PROB_SUM_TOL``) except for flagged zero-score blocks, which are all
    zero to signal that no column there produces a nonzero outer product.
    ``rule`` records how the vector arose ("optimal", "uniform", or
    "explicit"); a two-step plan takes its tag from its pilot's rule.
    """

    values: np.ndarray
    partition: BlockPartition
    rule: str = "explicit"
    _zero: np.ndarray = field(init=False, repr=False)  # per block: flagged all zero

    def __post_init__(self):
        p = as_nonneg("probabilities", self.values, (self.partition.total,))
        sums = np.add.reduceat(p, self.partition.offsets[:-1])
        bad = (sums != 0.0) & (np.abs(sums - 1.0) > PROB_SUM_TOL)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"block {k}: probabilities sum to {sums[k]!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "values", p)
        object.__setattr__(self, "_zero", sums == 0.0)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.per_block[k]

    @cached_property
    def per_block(self) -> tuple[np.ndarray, ...]:
        off = self.partition.offsets.tolist()
        return tuple(self.values[a:b] for a, b in zip(off, off[1:]))

    @property
    def zero_blocks(self) -> tuple[int, ...]:
        """Indices of flagged all-zero (zero-score) blocks."""
        return tuple(np.flatnonzero(self._zero).tolist())


class BlockScores(NamedTuple):
    """Per-block score sums s_k = sum_i ||col_i|| * ||row_i|| and exact block
    product Frobenius norms g_k."""

    score_sums: np.ndarray
    product_norms: np.ndarray


def _unscaled(pilot: tuple[np.ndarray, int]) -> np.ndarray:
    values, e = pilot
    with np.errstate(over="ignore"):  # the audit field records inf for a norm beyond float64
        return np.ldexp(values, -e)


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Partition + probabilities + integer budgets; the estimator input."""

    partition: BlockPartition
    probs: BlockProbabilities
    budgets: np.ndarray
    method: str = ""
    notes: tuple[str, ...] = ()
    pilot_norms: Optional[np.ndarray] = None  # two-step audit: per-block pilot norms
    # The pilot norms as (values, e), pilot_norms = values * 2**-e.  The
    # two-step plans pass the scoring pass's units here, where no norm
    # overflows or underflows, and pilot_norms follows from it.  A
    # pilot_norms given alone, or changed by dataclasses.replace, wins:
    # it becomes (pilot_norms, 0).
    _pilot: Optional[tuple[np.ndarray, int]] = field(default=None, repr=False)

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
        if self.probs.partition != self.partition:
            raise ValueError("probabilities are built on a different partition")
        mismatch = (b == 0) != self.probs._zero
        if mismatch.any():
            k = int(np.argmax(mismatch))
            raise ValueError(f"block {k}: zero budget and zero-probability flag must coincide")
        object.__setattr__(self, "budgets", b)
        pilot = self._pilot
        if self.pilot_norms is not None:
            given = np.asarray(self.pilot_norms, dtype=np.float64)
            if pilot is None or not np.array_equal(given, _unscaled(pilot)):
                pilot = (given, 0)
        if pilot is not None:
            values, e = as_nonneg("pilot_norms", pilot[0], (self.partition.num_blocks,)), pilot[1]
            object.__setattr__(self, "pilot_norms", _unscaled((values, e)))
            object.__setattr__(self, "_pilot", (values, e))

    @property
    def total(self) -> int:
        return int(self.budgets.sum())


NORM_RANGE = (2.0**-150, 2.0**150)  # no score, sum, square or block product over/underflows within it


def _scaled_norms(X: np.ndarray, norms, name: str):
    """(X * 2**e, its norms, e), e read off the norm vector: 0 when the largest
    norm lies in NORM_RANGE, else the power of two that brings it near 1.  A
    largest norm of inf or 0 (overflow, underflow) first scales by 2**-600
    or 2**600 to find its size; a NaN, or an inf after that, is a bad entry."""
    e, Xs, v = 0, X, norms(X)
    for _ in range(3):
        hi = float(v.max())
        if math.isnan(hi) or (hi == math.inf and e < 0):
            raise ValueError(f"{name} has a NaN or Inf entry")
        if NORM_RANGE[0] <= hi <= NORM_RANGE[1] or (hi == 0.0 and e > 0):
            break
        e += -600 if hi == math.inf else 600 if hi == 0.0 else -math.frexp(hi)[1]
        Xs = np.ldexp(X, e)
        v = norms(Xs)
    return Xs, v, e


class _Profile(NamedTuple):
    """One validated scoring pass: the factors scaled by powers of two whose
    exponents sum to ``scale``, and in their units the per-index scores
    ||M column i|| * ||N row i|| and block sums s_k; ``frob_*`` are unscaled."""

    M: np.ndarray
    N: np.ndarray
    part: BlockPartition
    index: np.ndarray
    sums: np.ndarray
    scale: int
    frob_m: float
    frob_n: float


def _profile(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> _Profile:
    """The scoring pass; every public entry point makes it exactly once and
    passes the profile down.  A factor of another dtype is scored as one
    float64 copy: float32 sums miss PROB_SUM_TOL, and integer squares overflow."""
    part.check_length(check_factors(M, N), "inner dimension")
    M, N = M.astype(np.float64, copy=False), N.astype(np.float64, copy=False)
    M, col, e_m = _scaled_norms(M, column_norms, "M")
    N, row, e_n = _scaled_norms(N, row_norms, "N")
    index = col * row
    frob_m, frob_n = float(np.ldexp(frobenius_norm(col), -e_m)), float(np.ldexp(frobenius_norm(row), -e_n))
    return _Profile(M, N, part, index, np.add.reduceat(index, part.offsets[:-1]), e_m + e_n, frob_m, frob_n)


def _product_norms(prof: _Profile) -> np.ndarray:
    """Exact block product norms g_k = ||M_k N_k||_F in the profile's units,
    the one place a block product is formed: one batched matmul over
    (K, m, n/K) and (K, n/K, p) views for an equal partition, else a loop."""
    M, N, part = prof.M, prof.N, prof.part
    K, b = part.num_blocks, part.sizes[0]
    if part.sizes == (b,) * K:
        G = np.matmul(M.reshape(M.shape[0], K, b).transpose(1, 0, 2), N.reshape(K, b, N.shape[1]))
        return np.sqrt(np.einsum("kij,kij->k", G, G))
    off = part.offsets.tolist()
    return np.array([frobenius_norm(M[:, a:b] @ N[a:b]) for a, b in zip(off, off[1:])])


BLOCK_CHUNK = 2**15  # entries per copy of M's column blocks, small enough to stay in cache


def _block_sq_sums(x: np.ndarray) -> np.ndarray:
    """Each block x[i]'s sum of squares, summed in row-major order by one
    ``ddot``, the sum ``np.linalg.norm`` makes of a C-ordered block.  The
    C-ordered copy made here, if any, is freed on return: a second live
    copy would cost fresh pages, more than the sums themselves."""
    x = np.ascontiguousarray(x).reshape(len(x), -1)
    return np.matmul(x[:, None, :], x[:, :, None]).ravel()


def _block_norms(X: np.ndarray, part: BlockPartition, axis: str) -> np.ndarray:
    """Frobenius norm of each column block (axis="columns") or row block
    (axis="rows") of the float64 X, with the bits of ``np.linalg.norm`` on
    a C-ordered block.  For an equal partition N's row blocks are one
    (K, n/K, p) view, and M's column blocks are copied a chunk of blocks at
    a time.  Else one block at a time."""
    K, b = part.num_blocks, part.sizes[0]
    if part.sizes != (b,) * K:
        off = part.offsets.tolist()
        blocks = ((X[:, a:z] if axis == "columns" else X[a:z])[None] for a, z in zip(off, off[1:]))
    elif axis == "rows":
        blocks = (X.reshape(K, b, X.shape[1]),)
    else:
        per = max(1, BLOCK_CHUNK // max(1, X.shape[0] * b))
        Xb = X.reshape(X.shape[0], K, b).transpose(1, 0, 2)
        blocks = (Xb[k : k + per] for k in range(0, K, per))
    return np.sqrt(np.concatenate([_block_sq_sums(x) for x in blocks]))


def score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    prof = _profile(M, N, part)
    return np.ldexp(prof.sums, -prof.scale)


def block_scores(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockScores:
    """Exact scores: s_k from column/row norms, g_k from the block products.

    Computing g_k multiplies out every block, so this is as expensive as the
    exact product itself; it backs the optimal allocator only.
    """
    prof = _profile(M, N, part)
    return BlockScores(np.ldexp(prof.sums, -prof.scale), np.ldexp(_product_norms(prof), -prof.scale))


def _optimal_probabilities(prof: _Profile) -> np.ndarray:
    """The profile's per-index scores over their block sums, one vector over
    all n indices; a zero-score block divides by 1 and stays all zero."""
    sums = np.where(prof.sums > 0, prof.sums, 1.0)
    return prof.index / np.repeat(sums, prof.part.sizes)


def optimal_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockProbabilities:
    """Variance-minimizing within-block probabilities: p_i proportional to
    ||M column i|| * ||N row i||, normalized per block."""
    return BlockProbabilities(_optimal_probabilities(_profile(M, N, part)), part, rule="optimal")


def uniform_probabilities(part: BlockPartition) -> BlockProbabilities:
    sizes = np.array(part.sizes)
    return BlockProbabilities(np.repeat(1.0 / sizes, sizes), part, rule="uniform")


def prob_floor_ratio(probs: BlockProbabilities, reference: BlockProbabilities) -> float:
    """Largest factor beta in [0, 1] such that probs >= beta * reference
    everywhere: the minimum ratio over reference's support, capped at 1.
    It is 0.0 when probs vanishes somewhere reference is positive, i.e. when
    there is no positive floor."""
    if probs.partition != reference.partition:
        raise ValueError("probabilities are built on different partitions")
    return _floor_ratio(probs.values, reference.values)


def _floor_ratio(values: np.ndarray, reference: np.ndarray) -> float:
    sup = reference > 0
    return float(np.min(values[sup] / reference[sup], initial=1.0))


def integerize(
    weights,
    c: int,
    caps=None,
    floor=None,
) -> np.ndarray:
    """Split budget c into integer block counts proportional to weights.

    Two side constraints bound each count:

    * ``floor`` -- boolean mask of blocks that must receive at least 1
      (default: blocks with positive weight).  Dropping such a block would
      bias the blocked estimator, whose sum over blocks must not lose terms.
    * ``caps`` -- optional per-block upper limits (block sizes, when draws
      per block may not exceed the block's column count).

    The real split is clip(t * w, floor, cap) at the level t where it sums
    to c, found from the sorted breakpoints floor/w and cap/w.  Whatever the
    positive weights cannot take at their caps goes to the zero-weight
    blocks, in index order.  The blocks inside their bounds share what the
    others leave in proportion to their weights; a share that t leaves
    within rounding of a bound is settled by that split's own test.  One
    largest-remainder pass rounds the shares (ties go to the lower index).
    """
    w = as_nonneg("weights", weights)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if w.sum() == 0.0:
        raise ValueError("all weights are zero")
    c = as_int("c", c)
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
    lo = floor.astype(np.int64)
    if caps is None:
        hi = np.full(K, c, dtype=np.int64)
    else:
        hi = np.minimum(np.asarray(caps, dtype=np.int64), c)
        if hi.shape != (K,):
            raise ValueError("caps must have one entry per block")
    if (hi < lo).any():
        raise ValueError("some cap lies below the required floor of 1")
    lo_sum = int(lo.sum())
    if lo_sum > c:
        raise ValueError(f"budget c={c} is below the {lo_sum} required floors")
    if int(hi.sum()) < c:
        raise ValueError(f"budget c={c} exceeds the total caps {int(hi.sum())}")
    if c == lo_sum:
        return lo

    # (1) The level.  A block's share t * u leaves its floor at lo/u and
    # reaches its cap at hi/u, so at each sorted breakpoint the total is a
    # running constant plus t times the weight between the two.  That slope
    # is summed from the top down, so that large weights which left early
    # leave no rounding error in it.
    pos = w > 0
    u = w / w.max()
    up, lp, hp = u[pos], lo[pos], hi[pos]
    if up.min() < 2.0**-960:
        raise ValueError("positive weights span more than a factor 2**960: the breakpoints overflow float64")
    bp = np.concatenate((lp / up, hp / up))
    order = np.argsort(bp, kind="stable")
    t = bp[order]
    const = np.concatenate((-lp, hp))[order].cumsum() + lo_sum
    change = np.concatenate((up, -up))[order]
    slope = np.zeros(t.size)
    slope[:-1] = -change[:0:-1].cumsum()[::-1]
    if const[-1] <= c:
        # (2) The positive blocks sit at their caps; the zero-weight blocks
        # take the rest.
        out = np.where(pos, hi, lo)
        inside = ~pos
    else:
        i = int(np.argmax(const + t * slope >= c))
        level = min(max((c - const[i - 1]) / slope[i - 1], t[i - 1]), t[i])
        share = level * u
        bound = np.minimum(np.maximum(share, lo), hi)
        out = bound.astype(np.int64)
        # A share within rounding of its bound stays inside for now.
        inside = np.abs(share - bound) <= LEVEL_SLACK * bound
    budget, r = _proportional_split(w, c, out, inside)
    if r is not None:
        # The split's own rounding settles the shares the level left at a
        # bound, by the test an exact split passes: floor <= share <= cap.
        settle = (r < lo[inside]) | (r > hi[inside] + 1e-12)
        if settle.any():
            idx = np.flatnonzero(inside)[settle]
            out[idx] = np.where(r[settle] < lo[idx], lo[idx], hi[idx])
            inside[idx] = False
            budget, r = _proportional_split(w, c, out, inside)
    if r is None:
        # Only zero weights inside: floors first, then the rest in index
        # order, each block up to its cap.
        lo_in, room = lo[inside], hi[inside] - lo[inside]
        rest = budget - int(lo_in.sum())
        out[inside] = lo_in + np.minimum(room, np.maximum(rest - (room.cumsum() - room), 0))
        return out
    # (3) One largest-remainder pass.
    base = np.floor(r)
    order = np.argsort(base - r, kind="stable")
    order = order[(base < hi[inside])[order]]
    base = base.astype(np.int64)
    base[order[: budget - int(base.sum())]] += 1
    out[inside] = base
    return out


def _proportional_split(w: np.ndarray, c: int, out: np.ndarray, inside: np.ndarray):
    """What the blocks outside leave of c, and its split over the blocks
    inside in proportion to w (None when their weights are all zero)."""
    budget = c - int(out[~inside].sum())
    wi = w[inside]
    total = wi.sum()
    return budget, (budget * wi / total if total > 0 else None)


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
    prof = _profile(M, N, part)
    return np.ldexp(_optimal_weights(prof.sums, _product_norms(prof)), -prof.scale)


def real_optimal_budgets(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> np.ndarray:
    """Pre-integerization optimal sizes c * w_k / sum(w)."""
    prof = _profile(M, N, part)
    w = _optimal_weights(prof.sums, _product_norms(prof))
    if w.sum() == 0.0:
        raise ValueError("all optimal size weights are zero")
    return c * w / w.sum()


def _allocate(prof: _Profile, c: int, method: str, probs=None, exact_norms=None, pilot_norms=None):
    """The allocation shared by OPL, ONC and the two-step plans, all with
    ``probs``, the optimal probabilities of ``prof`` (built here if None).
    Sizes are proportional to the score sums s (ONC), to sqrt(s^2 - g^2)
    with the exact block product norms g (OPL), or to sqrt(|s^2 - g^2|)
    with pilot norms g, which may overshoot s (ONU/ONMCNR), g in the
    profile's units.
    Zero-score blocks get no draws; every other block gets at least one and
    at most its column count."""
    s, part = prof.sums, prof.part
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
    if probs is None:
        probs = BlockProbabilities(_optimal_probabilities(prof), part, rule="optimal")
    pilot = None if pilot_norms is None else (pilot_norms, prof.scale)
    return SamplingPlan(part, probs, budgets, method=method, notes=notes, _pilot=pilot)


def allocate_optimal(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> SamplingPlan:
    """Variance-minimizing plan (tag OPL): optimal probabilities, sizes
    proportional to sqrt(s_k^2 - g_k^2).  Forms every exact block product."""
    prof = _profile(M, N, part)
    return _allocate(prof, c, "OPL", exact_norms=_product_norms(prof))


def allocate_by_score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> SamplingPlan:
    """Cheap plan (tag ONC): optimal probabilities, sizes proportional to the
    block score sums.  Never multiplies out a block."""
    return _allocate(_profile(M, N, part), c, "ONC")


def allocate_uniform(part: BlockPartition, c: int) -> SamplingPlan:
    """Fully uniform plan (tag UU): 1/n_k probabilities, c/K sizes."""
    K = part.num_blocks
    budgets = integerize(np.ones(K), c, caps=np.array(part.sizes, dtype=np.int64), floor=np.ones(K, bool))
    return SamplingPlan(part, uniform_probabilities(part), budgets, method="UU")


def block_norm_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Block-level probabilities for the whole-block baseline (tag SSM):
    p_k proportional to ||M block||_F * ||N block||_F.  Scored like the
    scoring pass: a float64 copy of a factor of another dtype, a NaN or Inf
    entry rejected, and the norms rescaled by a power of two when they leave
    NORM_RANGE, which changes no bit of the result."""
    part.check_length(check_factors(M, N), "inner dimension")
    M, N = M.astype(np.float64, copy=False), N.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):  # a sum that overflows reads inf, which _scaled_norms rescales
        f = _scaled_norms(M, lambda X: _block_norms(X, part, "columns"), "M")[1]
        f = f * _scaled_norms(N, lambda X: _block_norms(X, part, "rows"), "N")[1]
    total = f.sum()
    if total == 0.0:
        raise ValueError("all blocks have zero norm: nothing to sample")
    return f / total
