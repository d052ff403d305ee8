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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .matrix import (
    BlockPartition,
    _read_only,
    as_int,
    as_ints,
    as_nonneg,
    check_factors,
    check_real,
    check_type,
    column_norms,
    row_norms,
)

METHOD_TAGS = ("OPL", "ONC", "ONU", "ONMCNR", "UU", "SSM")

PROB_SUM_TOL = 1e-12
RADICAND_SLACK = 1e-9  # relative slack allowed on the Cauchy-Schwarz radicand


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

    The constructor (and ``dataclasses.replace``) checks all of that on a
    copy of ``values``.  A scoring profile's optimal vector skips the check
    (``_unchecked``): it is checked scores over their block sums, so each
    block of positive sum sums to 1 within rounding and has an entry of at
    least 1/n_k, and the zero flags are the blocks of zero sum.
    """

    values: np.ndarray
    partition: BlockPartition
    rule: str = "explicit"
    _zero: np.ndarray = field(init=False, repr=False)  # per block: flagged all zero
    _cum: Optional[np.ndarray] = field(default=None, init=False, repr=False)  # see _block_cumsums
    _guide: Optional[tuple] = field(default=None, init=False, repr=False)  # see _guided

    def __post_init__(self):
        p = as_nonneg("probabilities", self.values, (check_type("partition", self.partition, BlockPartition).total,))
        sums = np.add.reduceat(p, self.partition.offsets[:-1])
        bad = (sums != 0.0) & (np.abs(sums - 1.0) > PROB_SUM_TOL)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"block {k}: probabilities sum to {sums[k]!r}, not 1")
        object.__setattr__(self, "values", _read_only(p))
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


def _ldexp(x, e: int):
    """x * 2**e out of the scoring pass's units: +-inf beyond float64, 0
    below it, never a warning.  A Python float goes through ``math.ldexp``,
    which costs a fraction of an ``errstate`` block; an array through
    ``np.ldexp``."""
    if isinstance(x, float):
        try:
            return math.ldexp(x, e)
        except OverflowError:
            return math.copysign(math.inf, x)
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)


def _pilot_fields(values: np.ndarray, e: int) -> tuple[np.ndarray, tuple[np.ndarray, int]]:
    """A plan's (pilot_norms, _pilot) from its own copy of the pilot norms
    in units 2**e: both arrays made read-only."""
    return _read_only(_ldexp(_read_only(values), -e)), (values, e)


def _unchecked(cls, **fields):
    """A ``cls`` dataclass with every field as given, without running
    ``__post_init__``: for what the library builds from checked inputs.
    The fields go into the instance dict, where ``object.__setattr__``
    would put them."""
    if fields.keys() != cls.__dataclass_fields__.keys():
        raise TypeError(f"{cls.__name__} needs the fields {list(cls.__dataclass_fields__)}")
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Partition + probabilities + integer budgets; the estimator input.

    Read-only, like its probabilities: ``budgets``, ``pilot_norms`` and the
    values in ``_pilot`` are read-only arrays.  The constructor (and
    ``dataclasses.replace``) checks copies of them against the partition
    and the zero flags.  The allocators skip that check (``_unchecked``):
    ``_integerize`` has just split their budgets between floors and caps
    that give every live block a draw and every zero block none.
    """

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
        b = as_ints("budgets", self.budgets, (check_type("partition", self.partition, BlockPartition).num_blocks,))
        if (b < 0).any():
            raise ValueError("budgets must be >= 0")
        if check_type("probs", self.probs, BlockProbabilities).partition != self.partition:
            raise ValueError("probabilities are built on a different partition")
        mismatch = (b == 0) != self.probs._zero
        if mismatch.any():
            k = int(np.argmax(mismatch))
            raise ValueError(f"block {k}: zero budget and zero-probability flag must coincide")
        object.__setattr__(self, "budgets", _read_only(b))
        pilot = self._pilot
        if self.pilot_norms is not None:
            given = np.asarray(self.pilot_norms, dtype=np.float64)
            if pilot is None or not np.array_equal(given, _ldexp(pilot[0], -pilot[1])):
                pilot = (given, 0)
        if pilot is not None:
            norms, pilot = _pilot_fields(as_nonneg("pilot_norms", pilot[0], (self.partition.num_blocks,)), pilot[1])
            object.__setattr__(self, "pilot_norms", norms)
            object.__setattr__(self, "_pilot", pilot)

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


class _Fields(NamedTuple):
    M: np.ndarray
    N: np.ndarray
    part: BlockPartition
    index: np.ndarray
    sums: np.ndarray
    scale: int
    frob_m: float
    frob_n: float


class _Profile(_Fields):
    """One validated scoring pass: the factors scaled by powers of two whose
    exponents sum to ``scale``, and in their units the per-index scores
    ||M column i|| * ||N row i|| and block sums s_k; ``frob_*`` are unscaled.
    g_k, the optimal size weights and probabilities (``optimal_values``, and
    ``probs``, which wraps it) are built on first use and kept for every plan
    on the profile.  Tuple fields keep it frozen and cheap to build."""

    @cached_property
    def product_norms(self) -> np.ndarray:
        G = _block_products(self)
        return np.sqrt(np.einsum("kij,kij->k", G, G))

    @cached_property
    def optimal_weights(self) -> np.ndarray:
        """sqrt(s_k^2 - g_k^2) for the exact g_k, read-only.  The radicand is
        nonnegative by Cauchy-Schwarz; tiny negatives from rounding are
        clamped, anything beyond the slack is a corrupted input."""
        rad = self.sums**2 - self.product_norms**2
        bad = rad < -RADICAND_SLACK * self.sums**2
        if bad.any():
            raise ValueError(f"radicand negative beyond rounding slack in blocks {np.where(bad)[0]}")
        return _read_only(np.sqrt(np.maximum(rad, 0.0)))

    @cached_property
    def optimal_values(self) -> np.ndarray:
        """The optimal probabilities as one read-only vector."""
        return _read_only(_optimal_probabilities(self))

    @cached_property
    def probs(self) -> BlockProbabilities:
        return _unchecked(
            BlockProbabilities, values=self.optimal_values, partition=self.part, rule="optimal",
            _zero=self.sums == 0.0, _cum=None, _guide=None,
        )


def _profile(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> _Profile:
    """The scoring pass; every public entry point makes it exactly once and
    passes the profile down.  A factor of another dtype is scored as one
    float64 copy: float32 sums miss PROB_SUM_TOL, and integer squares overflow."""
    check_type("part", part, BlockPartition).check_length(check_factors(M, N), "inner dimension")
    M, N = M.astype(np.float64, copy=False), N.astype(np.float64, copy=False)
    M, col, e_m = _scaled_norms(M, column_norms, "M")
    N, row, e_n = _scaled_norms(N, row_norms, "N")
    index = col * row
    frob_m, frob_n = _ldexp(math.sqrt(col @ col), -e_m), _ldexp(math.sqrt(row @ row), -e_n)
    return _Profile(M, N, part, index, np.add.reduceat(index, part.offsets[:-1]), e_m + e_n, frob_m, frob_n)


def _block_products(prof: _Profile) -> np.ndarray:
    """The (K, m, p) stack of exact block products M_k N_k in the profile's
    units, the one place a block product is formed: the block walk with all
    K blocks a batch, so one batched matmul over (K, m, n/K) and (K, n/K, p)
    views for an equal partition, else K matmuls."""
    sizes, K = prof.part.sizes, prof.part.num_blocks
    return _joined(list(map(np.matmul, _blocks(prof.M, sizes, "columns", K), _blocks(prof.N, sizes, "rows", K))))


def _blocks(X: np.ndarray, sizes: tuple[int, ...], axis: str, per: int) -> list[np.ndarray]:
    """The block walk, the one place a partition's blocks are batched: X's
    column blocks (axis="columns") as (k, rows, b) views, or its row blocks
    (axis="rows") as (k, b, cols) views, for blocks of ``sizes`` along that
    axis, in block order.  Equal sizes reshape X (no copy of a C-ordered X)
    and take ``per`` blocks a batch; unequal sizes take one block a batch."""
    K = len(sizes)
    if K and sizes.count(sizes[0]) == K:
        b = sizes[0]
        X = X.reshape(X.shape[0], K, b).transpose(1, 0, 2) if axis == "columns" else X.reshape(K, b, X.shape[1])
        return [X] if per >= K else [X[k : k + per] for k in range(0, K, per)]
    off = [0, *itertools.accumulate(sizes)]
    return [(X[:, a:z] if axis == "columns" else X[a:z])[None] for a, z in zip(off, off[1:])]


def _joined(results: list) -> np.ndarray:
    """A block walk's per-batch results in block order: a lone batch's own array, else their concatenation."""
    return results[0] if len(results) == 1 else np.concatenate(results or [np.empty(0)])


BLOCK_CHUNK = 2**15  # entries per batch of copied blocks or block products, small enough to stay in cache


def _block_norms(batches) -> np.ndarray:
    """The Frobenius norm of every block of a block walk's batches, with the
    bits of ``np.linalg.norm`` on a C-ordered block: one ``ddot`` of its
    squares in row-major order.  ``map`` drops each batch and its C-ordered
    copy before making the next: a second live copy would cost fresh pages."""

    def sq_sums(x):
        x = np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:]))
        return np.matmul(x[:, None, :], x[:, :, None]).ravel()

    return np.sqrt(_joined(list(map(sq_sums, batches))))


def _sketch_product_norms(C: np.ndarray, D: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """||C_k D_k||_F for the column blocks C_k of the sketch C and the row
    blocks D_k of D, of ``sizes``: batched matmuls of the block walk's views,
    about BLOCK_CHUNK product entries (or one block's) a batch."""
    per = max(1, BLOCK_CHUNK // max(1, C.shape[0] * D.shape[1]))
    return _block_norms(map(np.matmul, _blocks(C, sizes, "columns", per), _blocks(D, sizes, "rows", per)))


def score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    prof = _profile(M, N, part)
    return _ldexp(prof.sums, -prof.scale)


def block_scores(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockScores:
    """Exact scores: s_k from column/row norms, g_k from the block products.

    Computing g_k multiplies out every block, so this is as expensive as the
    exact product itself; it backs the optimal allocator only.
    """
    prof = _profile(M, N, part)
    return BlockScores(_ldexp(prof.sums, -prof.scale), _ldexp(prof.product_norms, -prof.scale))


def _optimal_probabilities(prof: _Profile) -> np.ndarray:
    """The profile's per-index scores over their block sums, one vector over
    all n indices; a zero-score block divides by 1 and stays all zero."""
    sums = np.where(prof.sums > 0, prof.sums, 1.0)
    return prof.index / np.repeat(sums, prof.part.size_array)


def optimal_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> BlockProbabilities:
    """Variance-minimizing within-block probabilities: p_i proportional to
    ||M column i|| * ||N row i||, normalized per block."""
    return _profile(M, N, part).probs


def _block_cumsums(probs: BlockProbabilities) -> np.ndarray:
    """Every block's running probability sums, as one read-only n-vector, by
    the block walk with all K blocks a batch: one row-wise cumsum for an equal
    partition (it adds in sequence: each row has the bits of one cumsum per
    block), else one cumsum per block.  Kept on the vector from its first draw
    on: desk-heavy peak RSS read 66.0 MB, against 65.9 with per-call tables."""
    if probs._cum is None:
        sizes = probs.partition.sizes
        cum = _joined([x.cumsum(axis=1).ravel() for x in _blocks(probs.values[:, None], sizes, "rows", len(sizes))])
        object.__setattr__(probs, "_cum", _read_only(cum))
    return probs._cum


def _guided(probs: BlockProbabilities) -> BlockProbabilities:
    """``probs`` with a guide table (Chen & Asau 1974) next to its sums, for
    vectors shared by construction: a partition's uniform vector, a sweep's
    profile vector.  Block k of b_k columns gets g_k = 2**bit_length(b_k)
    cells, and ``last[first[k] + t]`` is the index of its last sum with
    ceil(cum * g_k) <= t (cum * g_k clipped at g_k), t = 0..g_k: at most
    2n + K entries.  The guide is (last, first, g as float64, the most sums
    in one cell).  A fresh vector is drawn from too few times to pay for one."""
    if probs._guide is None:
        sizes, cum = probs.partition.size_array, _block_cumsums(probs)
        cells = np.ldexp(1.0, np.frexp(sizes)[1])
        first = np.concatenate([[0], np.cumsum(cells[:-1] + 1)]).astype(np.int64)
        g = cells.repeat(sizes)
        at = np.minimum(np.ceil(cum * g), g).astype(np.int64) + first.repeat(sizes)
        hist = np.bincount(at, minlength=int(first[-1] + cells[-1]) + 1)  # a block's first entry is no cell
        width = int(np.delete(hist, first).max(initial=0))
        object.__setattr__(probs, "_guide", (*map(_read_only, (hist.cumsum() - 1, first, cells)), width))
    return probs


def uniform_probabilities(part: BlockPartition) -> BlockProbabilities:
    """1/n_k over every block k: one read-only object per partition object,
    shared by every UU plan and uniform pilot on it, built on first use with
    its sums and guide and kept on the partition, like its offsets.  Its
    ``partition`` is an equal copy: a reference cycle would keep a dead
    partition's arrays until a cyclic collection (+1.6 MB desk-heavy peak RSS)."""
    u = check_type("part", part, BlockPartition).__dict__.get("_uniform")
    if u is None:
        sizes = part.size_array
        u = _guided(BlockProbabilities(np.repeat(1.0 / sizes, sizes), BlockPartition(part.sizes), rule="uniform"))
        object.__setattr__(part, "_uniform", u)
    return u


def _floor_ratio(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest factor beta in [0, 1] such that values >= beta * reference
    everywhere: the minimum ratio over reference's support, capped at 1.
    It is 0.0 when values vanish somewhere reference is positive, i.e. when
    there is no positive floor."""
    ratios = np.divide(values, reference, out=np.ones(values.size), where=reference > 0)
    return float(np.minimum.reduce(ratios, initial=1.0))


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
    to c, found by Bitran and Hax's variable fixing: what the fixed blocks
    leave is split over the free ones in proportion to their weights; while
    some share passes its cap (beyond rounding) or falls below its floor,
    the side that overshoots its bounds by more is fixed there, and the
    split is made again.  When no bound binds, the first split is the
    answer.  Whatever the positive weights cannot take at their caps goes
    to the zero-weight blocks, in index order.  One largest-remainder pass
    rounds the free shares (ties go to the lower index).

    This wrapper validates its inputs and scales the weights by the power
    of two that brings the largest into [0.5, 1), so weights whose sum
    passes float64 split as the same weights a power of two lower; the
    allocators, which build their own weights, floors and caps, call the
    split directly and check only c.
    """
    w = as_nonneg("weights", weights)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not w.any():
        raise ValueError("all weights are zero")
    K = w.size
    floor = w > 0 if floor is None else np.asarray(floor)
    if floor.dtype != bool:
        raise ValueError(f"floor must be a boolean mask, got {np.array2string(floor, threshold=8)}")
    if floor.shape != (K,):
        raise ValueError("floor mask must have one entry per block")
    if caps is not None:
        caps = as_ints("caps", caps, (K,))
        if (caps < 0).any():
            raise ValueError(f"caps must be >= 0, got {np.array2string(caps, threshold=8)}")
    return _integerize(_ldexp(w, -math.frexp(w.max())[1]), c, floor.astype(np.int64), caps)


def _integerize(w: np.ndarray, c, lo: np.ndarray, caps: Optional[np.ndarray]) -> np.ndarray:
    """``integerize`` of the nonnegative float64 weights w, not all zero,
    between the int64 floors lo (0 or 1 per block) and the int64 caps (None
    for none); only c, which comes from the caller, is checked here."""
    c = as_int("c", c)
    if c < 0:
        raise ValueError("budget must be >= 0")
    K = w.size
    if c * (K + 2) > 2**53:
        # Beyond this the float shares' rounding error can add up to a draw.
        raise ValueError(f"budget c={c} is too large to split over {K} blocks in float64")
    lo_sum = int(lo.sum())
    if lo_sum > c:
        raise ValueError(f"budget c={c} is below the {lo_sum} required floors")
    hi = np.full(K, c, dtype=np.int64) if caps is None else np.minimum(caps, c)
    if (hi < lo).any():
        raise ValueError("some cap lies below the required floor of 1")
    if int(hi.sum()) < c:
        raise ValueError(f"budget c={c} exceeds the total caps {int(hi.sum())}")
    # Bitran-Hax variable fixing (see ``integerize``); the free blocks'
    # indices, weights, floors and caps shrink as blocks are fixed.
    out, budget, free, wf, lf, hf = lo.copy(), c, np.arange(K), w, lo, hi
    while True:
        total = wf.sum()
        if total == 0.0:
            # Only zero weights free: floors first, then the rest in index
            # order, each block up to its cap.
            room = hf - lf
            out[free] = lf + np.minimum(room, np.maximum(budget - int(lf.sum()) - (room.cumsum() - room), 0))
            return out
        r = budget * wf / total
        above, below = r > hf + 1e-12, r < lf
        if not (above.any() or below.any()):
            break
        side, bound = (above, hf) if (r - hf)[above].sum() >= (lf - r)[below].sum() else (below, lf)
        fixed = bound[side]
        out[free[side]] = fixed
        budget -= int(fixed.sum())
        keep = ~side
        free, wf, lf, hf = free[keep], wf[keep], lf[keep], hf[keep]
    out[free] = _largest_remainder(r, budget, hf)
    return out


def _largest_remainder(r: np.ndarray, budget: int, hi: np.ndarray) -> np.ndarray:
    """The real shares r, summing to budget, rounded down, then one more
    draw each for the largest remainders below their caps hi (ties go to
    the lower index)."""
    base = np.floor(r)
    order = np.argsort(base - r, kind="stable")
    order = order[(base < hi)[order]]
    base = base.astype(np.int64)
    base[order[: budget - int(base.sum())]] += 1
    return base


def optimal_size_weights(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Real-valued optimal-size weights sqrt(s_k^2 - g_k^2) with exact g_k."""
    prof = _profile(M, N, part)
    return _ldexp(prof.optimal_weights, -prof.scale)


def real_optimal_budgets(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> np.ndarray:
    """Pre-integerization optimal sizes c * w_k / sum(w)."""
    check_real("budget c", c, positive=True)
    w = _profile(M, N, part).optimal_weights
    if w.sum() == 0.0:
        raise ValueError("all optimal size weights are zero")
    return c * w / w.sum()


def _allocate(prof: _Profile, c: int, method: str, pilot_norms=None) -> SamplingPlan:
    """The allocation shared by OPL, ONC and the two-step plans, all with the
    profile's optimal probabilities.  Sizes are proportional to the score
    sums s (ONC), to sqrt(s^2 - g^2) with the exact block product norms g
    (OPL), or to sqrt(|s^2 - g^2|) with pilot norms g in the profile's
    units, which may overshoot s (ONU/ONMCNR).
    Zero-score blocks get no draws; every other block gets at least one and
    at most its column count."""
    s, part = prof.sums, prof.part
    if s.sum() == 0.0:
        raise ValueError("all blocks have zero score: nothing to sample")
    if method == "OPL":
        w, rule = prof.optimal_weights, "optimal"
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
    live = s > 0
    budgets = _integerize(w, c, live.astype(np.int64), np.where(live, part.size_array, 0))
    pilot = (None, None) if pilot_norms is None else _pilot_fields(pilot_norms, prof.scale)
    return _plan(part, prof.probs, budgets, method, notes, *pilot)


def allocate_optimal(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> SamplingPlan:
    """Variance-minimizing plan (tag OPL): optimal probabilities, sizes
    proportional to sqrt(s_k^2 - g_k^2).  Forms every exact block product."""
    return _allocate(_profile(M, N, part), c, "OPL")


def allocate_by_score_sums(M: np.ndarray, N: np.ndarray, part: BlockPartition, c: int) -> SamplingPlan:
    """Cheap plan (tag ONC): optimal probabilities, sizes proportional to the
    block score sums.  Never multiplies out a block."""
    return _allocate(_profile(M, N, part), c, "ONC")


def allocate_uniform(part: BlockPartition, c: int) -> SamplingPlan:
    """Fully uniform plan (tag UU): 1/n_k probabilities, c/K sizes."""
    K = check_type("part", part, BlockPartition).num_blocks
    budgets = _integerize(np.ones(K), c, np.ones(K, dtype=np.int64), part.size_array)
    return _plan(part, uniform_probabilities(part), budgets, "UU")


def _plan(part, probs, budgets, method, notes=(), pilot_norms=None, pilot=None) -> SamplingPlan:
    """An allocator's plan on the int64 budgets ``_integerize`` has just
    made, without the constructor's check (see ``SamplingPlan``)."""
    return _unchecked(
        SamplingPlan, partition=part, probs=probs, budgets=_read_only(budgets), method=method, notes=notes,
        pilot_norms=pilot_norms, _pilot=pilot,
    )


def block_norm_probabilities(M: np.ndarray, N: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Block-level probabilities for the whole-block baseline (tag SSM):
    p_k proportional to ||M block||_F * ||N block||_F.  Scored like the
    scoring pass: a float64 copy of a factor of another dtype, a NaN or Inf
    entry rejected, and the norms rescaled by a power of two when they leave
    NORM_RANGE, which changes no bit of the result."""
    check_type("part", part, BlockPartition).check_length(check_factors(M, N), "inner dimension")
    M, N = M.astype(np.float64, copy=False), N.astype(np.float64, copy=False)
    # M's column blocks are copied, about BLOCK_CHUNK entries a batch; N's row blocks are views, all K a batch.
    sizes, per = part.sizes, max(1, BLOCK_CHUNK // max(1, M.shape[0] * part.sizes[0]))
    with np.errstate(over="ignore"):  # a sum that overflows reads inf, which _scaled_norms rescales
        f = _scaled_norms(M, lambda X: _block_norms(_blocks(X, sizes, "columns", per)), "M")[1]
        f = f * _scaled_norms(N, lambda X: _block_norms(_blocks(X, sizes, "rows", part.num_blocks)), "N")[1]
    total = f.sum()
    if total == 0.0:
        raise ValueError("all blocks have zero norm: nothing to sample")
    return f / total
